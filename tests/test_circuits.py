import copy
import dataclasses
import functools
import hashlib
import json
import math
import pickle
import random
import runpy
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import orjson
import pytest
from oracle import (
    FINAL_TARGET,
    TARGET,
    all_configs,
    apply_forward,
    build_step_circuit,
    dense_step_circuit,
    dense_wrapper_circuit,
    field_table,
    flip_walker,
    least_seen_run,
    lift_gate,
    machine_layout,
    orbit_length_by_steps,
    random_machine,
    spec_text,
)

from clockobs import circuits, corpus, rtm
from clockobs.circuits import (
    MAX_REGISTER_BITS,
    MODE_PAD,
    MODE_RUN,
    MODE_UNPAD,
    MODE_UNRUN,
    R_ACC,
    R_COUNTER,
    R_HEAD,
    R_IDLE,
    R_INDEX,
    R_MODE,
    R_SOLUTION,
    BasisState,
    Circuit,
    PermGate,
    apply_circuit,
    build_wrapper_circuit,
    circuit_orbit_length,
    complete_permutation,
    dump_circuit,
    dump_circuit_json,
    nominal_cycle_length,
    replay_dump,
    state_bits,
    tape_register,
    wrapper_layout,
)
from clockobs.clock import ClockedState, ForwardOperator, compute_orbit
from clockobs.errors import (
    BudgetExceededError,
    ClockObsError,
    DimensionError,
    MachineStepError,
    PermutationError,
)
from clockobs.rtm import StateKind, parse_rtm_spec


def read_machine_registers(layout, state):
    spec = layout.spec
    head = list(spec.states)[layout.get_register(state, R_HEAD)]
    index = layout.get_register(state, R_INDEX) + 1
    tape = tuple(
        spec.alphabet[layout.get_register(state, tape_register(i))]
        for i in range(1, spec.tape_cells + 1)
    )
    acc = layout.get_register(state, R_ACC)
    return head, index, tape, acc


def fused_step(spec, config):
    """The circuit's transition: a move landing on a read-write state takes
    the read-write transition in the same application."""
    nxt = rtm.step_machine(spec, config)
    moving = spec.kind(config.head_state) in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT)
    if moving and spec.kind(nxt.head_state) is StateKind.READ_WRITE:
        nxt = rtm.step_machine(spec, nxt)
    return nxt


# ---------------------------------------------------------------------------
# permutation completion and gates


def test_complete_permutation_identity_where_free():
    perm = complete_permutation(3, {0: 1})
    assert perm[2] == 2  # untouched, identity kept
    assert perm[0] == 1
    assert perm[1] == 0  # displaced, matched to the free slot
    assert sorted(perm) == [0, 1, 2]


def test_complete_permutation_rejects_collisions():
    with pytest.raises(PermutationError, match="share the image"):
        complete_permutation(3, {0: 2, 1: 2})


@pytest.mark.parametrize(
    "table",
    [
        np.array([0, 0]),
        np.array([-1, 1]),
        np.array([0, 2]),
        np.array([1, 1], dtype=np.uint8),
        np.array([1.5, 0.0]),
    ],
    ids=["duplicate", "negative", "equal-to-size", "uint8", "float"],
)
def test_perm_gate_rejects_non_bijection(table):
    # a bad entry must not reach numpy as an index (IndexError), a count
    # (ValueError) or a cast (TypeError)
    with pytest.raises(PermutationError, match="not a bijection"):
        PermGate.from_table(support=(0,), dims=(2,), table=table, label="bad")


@pytest.mark.parametrize(
    "moved, image",
    [
        ([2, 0], [0, 2]),
        ([0, 0, 1, 1], [1, 1, 0, 0]),
        ([1, 4], [4, 1]),
        ([-1, 1], [1, -1]),
        ([0, 1], [1, 2]),
        ([0, 1, 2], [1, 0, 2]),
        ([0, 1], [1.0, 0.0]),
    ],
    ids=["unsorted", "repeated", "outside", "negative", "onto-fixed-point", "fixed", "float"],
)
def test_perm_gate_rejects_moved_points_that_are_not_a_bijection(moved, image):
    # checked on the points alone: sorted, in the 4-point field space, and
    # each sent to another of them
    with pytest.raises(PermutationError, match="not a bijection"):
        PermGate((0,), (4,), [(0, 1, 4)], np.array(moved), np.array(image), "bad")


def test_perm_gate_from_no_moved_points_is_the_identity():
    gate = PermGate((0,), (4,), [(0, 1, 4)], [], [], "identity")
    assert gate.table.tolist() == [0, 1, 2, 3]
    assert gate.moved.dtype == gate.image.dtype == np.uint8


def test_perm_gate_from_moved_points_equals_its_table_form():
    # moved points 0 and 3 on the field at stride 2 of a 12-valued wire
    by_points = PermGate((0,), (12,), [(0, 2, 6)], [0, 3], [3, 0], "points")
    by_table = PermGate.from_table((0,), (12,), [3, 1, 2, 0, 4, 5], "table", [(0, 2, 6)])
    assert by_points.moved.tolist() == by_table.moved.tolist() == [0, 3]
    assert by_points.image.tolist() == by_table.image.tolist() == [3, 0]
    assert np.array_equal(by_points.table, by_table.table)
    _assert_table_matches_apply_values(by_points)


def _field_image(gate: PermGate, idx: int) -> int:
    """The field point ``apply_values`` sends ``idx`` to, on wire values that
    hold ``idx``'s digits in the gate's fields and zero elsewhere."""
    values = [0] * (max(gate.support) + 1)
    for w, stride, dim in reversed(gate.fields):
        idx, digit = divmod(idx, dim)
        values[w] += digit * stride
    gate.apply_values(values)
    out = 0
    for w, stride, dim in gate.fields:
        out = out * dim + values[w] // stride % dim
    return out


def _assert_lookup_matches_field_table(gate: PermGate) -> None:
    # every moved point, the points just outside [first, last], and the
    # points next to each end of every gap between two moved points
    moved, table = gate.moved.tolist(), field_table(gate)
    probes = {p for a, b in zip(moved, moved[1:]) if b > a + 1 for p in (a + 1, b - 1)}
    probes.update(moved, [moved[0] - 1, moved[-1] + 1] if moved else range(len(table)))
    for idx in sorted(p for p in probes if 0 <= p < len(table)):
        assert _field_image(gate, idx) == table.item(idx), (gate.label, idx)


@pytest.mark.parametrize(
    "dims, fields, moved, dtype",
    [
        ((12,), [(0, 2, 6)], [1, 4, 5], np.uint8),
        ((100, 60), [(0, 1, 100), (1, 1, 60)], [7, 8, 300, 4000, 5998], np.uint16),
        ((300, 300), [(1, 1, 300), (0, 1, 300)], [3, 1000, 1001, 70000, 89990], np.uint32),
    ],
    ids=["uint8", "uint16", "uint32"],
)
def test_lookup_matches_the_field_table_in_each_dtype(dims, fields, moved, dtype):
    # each moved point sent to the next, the last to the first
    gate = PermGate(tuple(range(len(dims))), dims, fields, moved, np.roll(moved, -1), "cycle")
    assert gate.moved.dtype == dtype
    _assert_lookup_matches_field_table(gate)


@pytest.mark.parametrize("merged", [True, False])
def test_lookup_matches_the_field_table_on_compiled_gates(merged):
    # the corpus and flip3 compile gates in uint8 and uint16, and gates that
    # move nothing (the move gates of machines with no moving rule)
    dtypes = Counter()
    for spec in [corpus.load(name) for name in corpus.machine_names()] + [_bench_flip3()]:
        for gate in build_wrapper_circuit(spec, merge_cells=merged).gates:
            _assert_lookup_matches_field_table(gate)
            dtypes[gate.moved.dtype.name, len(gate.moved) > 0] += 1
    assert set(dtypes) == {("uint8", False), ("uint8", True), ("uint16", True)}


def test_lookup_of_a_gate_that_moves_nothing_misses_every_point():
    # with no 1 symbol, the answer copy never flips the solution bit
    spec = parse_rtm_spec(
        "states: p:rw h:final\nalphabet: 0 2\ninitial: p\ntape_cells: 1\n"
        "transition: rw (p,0) -> (h,2)\ntransition: rw (p,2) -> (h,0)\n"
    )
    (gate,) = [g for g in build_wrapper_circuit(spec).gates if g.label == "answer"]
    assert len(gate.moved) == 0
    size = math.prod(d for _, _, d in gate.fields)
    assert [_field_image(gate, idx) for idx in range(size)] == list(range(size))


def test_lookup_slot_is_read_only():
    # the idle counter steps in pad and unwind-pad mode only: the index
    # packed up to the mode lies between those modes, and the whole index
    # between the gate's first and last moved point
    (gate,) = [g for g in build_wrapper_circuit(corpus.load("flip")).gates if g.label == "idle"]
    (mode, idle), size = gate.fields, gate.fields[1][2]
    steps, moved, image = gate._lookup
    assert steps == ((*mode, MODE_PAD, MODE_UNPAD), (*idle, MODE_PAD * size, MODE_UNPAD * size + size - 1))
    assert (steps[-1][3], steps[-1][4]) == (gate.moved[0], gate.moved[-1])
    assert all(type(n) is int for step in steps for n in step)
    assert moved.tolist() == gate.moved.tolist() and image.tolist() == gate.image.tolist()
    with pytest.raises(AttributeError):
        gate._lookup = ((), moved, image)
    with pytest.raises(TypeError):
        moved[0] = 0


def test_circuits_copy_and_pickle_through_the_gate_constructor():
    # a gate's lookup holds memoryviews, which do not pickle
    circuit = build_wrapper_circuit(corpus.load("flipwalk"), merge_cells=False)
    start = circuit.layout.initial_basis_state("00")
    for copied in (pickle.loads(pickle.dumps(circuit)), copy.deepcopy(circuit)):
        assert copied.wrapper and copied.layout == circuit.layout
        assert list(map(_gate_content, copied.gates)) == list(map(_gate_content, circuit.gates))
        assert circuit_orbit_length(copied, start) == circuit_orbit_length(circuit, start)


def test_perm_gate_table_is_read_only():
    gate = PermGate.from_table(support=(0,), dims=(2,), table=np.array([1, 0]), label="not")
    with pytest.raises(ValueError):
        gate.table[0] = 0


def test_lifted_gate_tables_are_read_only():
    gate = build_wrapper_circuit(corpus.load("flip")).gates[0]
    with pytest.raises(AttributeError):
        gate.table = np.arange(len(gate.table))
    with pytest.raises(ValueError):
        gate.table[0] = 1
    with pytest.raises(ValueError):
        gate.moved[0] = 1
    with pytest.raises(AttributeError):
        gate.moved = np.arange(len(gate.moved))


def test_lift_gate_passes_fn_only_the_registers_it_names():
    layout = wrapper_layout(corpus.load("flipwalk"))  # mode shares the core wire with head etc.
    seen = set()

    def fn(env):
        seen.add(frozenset(env))
        return None

    lift_gate(layout, [R_MODE, R_COUNTER], fn, "peek")
    assert seen == {frozenset({R_MODE, R_COUNTER})}


def test_lift_gate_rejects_writes_to_unnamed_registers():
    layout = wrapper_layout(corpus.load("flip"))
    with pytest.raises(PermutationError, match="does not name"):
        lift_gate(layout, [R_MODE], lambda env: {R_HEAD: 0}, "stray")


def test_lift_gate_rejects_values_out_of_register_range():
    layout = wrapper_layout(corpus.load("flip"))
    with pytest.raises(DimensionError, match="operation_mode = 4 is out of range"):
        lift_gate(layout, [R_MODE], lambda env: {R_MODE: env[R_MODE] + 1}, "overflow")


def test_lifted_gate_rides_along_registers_it_does_not_read():
    layout = wrapper_layout(corpus.load("flip"))
    gate = lift_gate(layout, [R_MODE], lambda env: {R_MODE: (env[R_MODE] + 1) % 4}, "next")
    state = layout.set_registers(layout.zero_state(), {R_HEAD: 1, R_SOLUTION: 1, R_MODE: 3})
    values = list(state.values)
    gate.apply_values(values)
    assert BasisState(tuple(values)) == layout.set_registers(state, {R_MODE: 0})


def test_wrapper_calls_each_map_once(monkeypatch):
    # each map's points are built once: U's run and unwind-run gates share
    # them, and so do the two swap walls
    built = Counter()

    def counted(name):
        build = getattr(circuits, name)
        monkeypatch.setattr(circuits, name, lambda *args: built.update([name]) or build(*args))

    for name in ("_moved", "_cell_swap", "_count_points", "_swap_points"):
        counted(name)
    spec = corpus.load("flipwalk")
    build_wrapper_circuit(spec)
    assert built == {"_moved": 2, "_cell_swap": spec.tape_cells, "_count_points": 2, "_swap_points": 4}


# sha256 of every gate's (label, fields) and int64 field_table, from
# build_step_circuit and build_wrapper_circuit in both layouts, over 50
# generated machines (random.Random(7)); a build that raises contributes its
# exception class name. Recorded from the per-assignment lifting it replaced;
# the six of these machines whose run starts mid-pass (clock_start) were
# recorded from the moved-point build, which equals the dense lifting.
GENERATED_GATE_TABLES_SHA256 = "941862181297cd51cacce2b688635a3275b7ccaf237d6a603280b74947b303da"


def test_generated_machine_gate_tables_are_pinned():
    rng = random.Random(7)
    digest = hashlib.sha256()
    builds = (
        build_step_circuit,
        lambda spec: build_wrapper_circuit(spec, merge_cells=True),
        lambda spec: build_wrapper_circuit(spec, merge_cells=False),
    )
    for _ in range(50):
        spec = random_machine(rng)
        for build in builds:
            try:
                circuit = build(spec)
            except ClockObsError as exc:
                digest.update(type(exc).__name__.encode())
                continue
            for g in circuit.gates:
                digest.update(repr((g.label, g.fields)).encode())
                digest.update(field_table(g).astype(np.int64).tobytes())
    assert digest.hexdigest() == GENERATED_GATE_TABLES_SHA256


def _builds_match_dense_lifting(spec) -> int:
    """Every gate of U and of V in both layouts equals the oracle's dense
    lifting of its register-level map, or both refuse the spec with the same
    class and message; returns how many of the three builds were refused."""
    refused = 0
    builds = (
        (build_step_circuit, dense_step_circuit),
        *(
            (functools.partial(build_wrapper_circuit, merge_cells=merged),
             functools.partial(dense_wrapper_circuit, merge_cells=merged))
            for merged in (True, False)
        ),
    )
    for build, dense in builds:
        try:
            want = dense(spec)
        except ClockObsError as exc:
            with pytest.raises(type(exc)) as got:
                build(spec)
            assert str(got.value) == str(exc), spec_text(spec)
            refused += 1
            continue
        got = build(spec)
        assert len(got.gates) == len(want.gates), spec_text(spec)
        for g, h in zip(got.gates, want.gates):
            assert (g.label, g.support, g.dims, g.fields) == (h.label, h.support, h.dims, h.fields)
            for a, b in ((g.moved, h.moved), (g.image, h.image)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (g.label, spec_text(spec))
    return refused


def test_gates_from_moved_points_equal_the_dense_lifting():
    for spec in [corpus.load(name) for name in corpus.machine_names()] + [_bench_flip3()]:
        assert _builds_match_dense_lifting(spec) == 0, spec.name
    # generated machines: 150 reversible draws, and the draws that are not
    # reversible, which the compile must refuse as the dense lifting did
    rng, reversible, refused = random.Random(41), 0, 0
    while reversible < 150:
        spec = random_machine(rng)
        refused += _builds_match_dense_lifting(spec)
        reversible += not rtm.check_reversibility(spec).violations
    assert refused >= 50, refused


def test_merged_flipwalk_stores_a_small_fraction_of_its_wire_tables():
    circuit = build_wrapper_circuit(corpus.load("flipwalk"))
    wire_entries = sum(len(g.table) for g in circuit.gates)
    stored = sum(len(field_table(g)) for g in circuit.gates)
    assert wire_entries == 578_560
    assert stored <= 0.05 * wire_entries
    assert all(field_table(g).dtype.kind == "u" for g in circuit.gates)
    # each gate keeps only the points its table moves, read-only
    for spec, moved in ((corpus.load("flipwalk"), 1_594), (_bench_flip3(), 6_244)):
        for merged in (True, False):
            gates = build_wrapper_circuit(spec, merge_cells=merged).gates
            assert sum(len(g.moved) for g in gates) == moved, (spec.name, merged)
            assert not any(a.flags.writeable for g in gates for a in (g.moved, g.image))


def test_wrapper_over_the_compile_cap_fails_before_lifting(monkeypatch):
    # the cap is on m: no map's points and no gate may be built before it is
    # checked. flip8 is at the cap and flip9 one bit over it
    def refuse(*args, **kwargs):
        raise AssertionError("built before the compile cap")

    for name in ("_step_maps", "_bookkeeping_maps", "PermGate"):
        monkeypatch.setattr(circuits, name, refuse)
    at_cap, over = (parse_rtm_spec(flip_walker(k), f"flip{k}") for k in (8, 9))
    assert MAX_REGISTER_BITS == 17
    with pytest.raises(AssertionError, match="before the compile cap"):
        build_wrapper_circuit(at_cap)  # at the cap, it builds
    with pytest.raises(BudgetExceededError,
                       match=r"^machine needs m = 18 register bits, over the compile cap 17$"):
        build_wrapper_circuit(over)


def test_flip_walkers_up_to_the_compile_cap_agree_with_ground_truth():
    # flip5 (m = 13) and flip6 (m = 14) were refused by a cap on the grids
    # V's gates read; flip8 is at the cap on m. flip3 is the bench's machine
    assert parse_rtm_spec(flip_walker(3), "flip3") == _bench_flip3()
    for cells, m, points in ((5, 13, 98_524), (6, 14, 196_906), (8, MAX_REGISTER_BITS, 1_573_354)):
        spec = parse_rtm_spec(flip_walker(cells), f"flip{cells}")
        words = ["0" * cells, "1" * cells]  # one accepts, one rejects
        if cells == 5:
            words = [format(x, "05b") for x in range(32)]
        for merged in (True, False):
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            assert circuit.layout.m == m and sum(len(g.moved) for g in circuit.gates) == points
            r = nominal_cycle_length(m)
            for word in words:
                f = rtm.run_machine(spec, word, max_steps=1_000).f_of_x
                assert f == (word[0] == "0")
                start = ClockedState(circuit.layout.initial_basis_state(word), 1)
                d = compute_orbit(ForwardOperator(circuit), start).dimension
                assert d == circuit.s * r * (1 + f), (cells, merged, word)


def test_dump_over_its_cap_fails_before_building(monkeypatch):
    circuit = build_wrapper_circuit(corpus.load("flip"))
    monkeypatch.setattr(circuits, "MAX_DUMP_ENTRIES", 1000)
    with pytest.raises(BudgetExceededError, match="7680 gate-table entries"):
        dump_circuit(circuit)


def test_moving_gate_with_no_movers_is_identity():
    (gate,) = build_step_circuit(corpus.load("flip")).gates[:1]
    assert np.array_equal(gate.table, np.arange(len(gate.table)))


def test_moving_gate_wraps_index_modulo_n():
    text = """
states: p:right q:right h:final
alphabet: 0 1
initial: p
tape_cells: 3
transition: move p -> q +1
transition: move q -> h +1
"""
    spec = parse_rtm_spec(text)
    step = build_step_circuit(spec)
    layout, (gate,) = step.layout, step.gates[:1]
    state = layout.basis_state(rtm.MachineConfig("p", 3, ("0",) * 3))
    values = list(state.values)
    gate.apply_values(values)
    out = BasisState(tuple(values))
    assert layout.get_register(out, R_HEAD) == spec.state_index["q"]
    assert layout.get_register(out, R_INDEX) + 1 == 1  # wrapped


def test_moving_gate_table_matches_rule_enumeration():
    spec = corpus.load("flipwalk")
    step = build_step_circuit(spec)
    layout, (gate,) = step.layout, step.gates[:1]
    n = spec.tape_cells
    for state, rule in spec.moving_rules.items():
        for i in range(n):
            src = layout.set_registers(
                layout.zero_state(),
                {R_HEAD: spec.state_index[state], R_INDEX: i},
            )
            values = list(src.values)
            gate.apply_values(values)
            out = BasisState(tuple(values))
            assert layout.get_register(out, R_HEAD) == spec.state_index[rule.target]
            assert layout.get_register(out, R_INDEX) == (i + rule.direction) % n


def test_rw_gates_with_no_writers_compose_to_identity():
    text = """
states: p:right h:final
alphabet: 0 1
initial: p
tape_cells: 2
transition: move p -> h +1
"""
    spec = parse_rtm_spec(text)
    step = build_step_circuit(spec)
    layout, gates = step.layout, step.gates[1:]
    assert len(gates) == 2 * spec.tape_cells + 1
    circuit = Circuit(layout=layout, gates=gates)
    for packed in range(64):
        values = [0] * len(layout.wires)
        rem = packed
        for pos in range(len(layout.wires) - 1, -1, -1):
            values[pos] = rem % layout.wires[pos].dimension
            rem //= layout.wires[pos].dimension
        if rem:
            continue
        state = BasisState(tuple(values))
        assert apply_circuit(circuit, state) == state


def test_rw_gates_write_through_the_wall():
    text = """
states: p:rw q:final
alphabet: 0 1
initial: p
tape_cells: 2
transition: rw (p,0) -> (q,1)
transition: rw (p,1) -> (q,0)
"""
    spec = parse_rtm_spec(text)
    step = build_step_circuit(spec)
    layout = step.layout
    circuit = Circuit(layout=layout, gates=step.gates[1:])
    state = layout.basis_state(rtm.MachineConfig("p", 1, ("0", "0")))
    out = apply_circuit(circuit, state)
    head, index, tape, acc = read_machine_registers(layout, out)
    assert (head, index, tape) == ("q", 1, ("1", "0"))
    assert acc == 0  # accumulator restored by the mirror wall


@pytest.mark.parametrize("name", corpus.machine_names())
def test_rw_sandwich_restores_accumulator(name):
    spec = corpus.load(name)
    step = build_step_circuit(spec)
    layout = step.layout
    circuit = Circuit(layout=layout, gates=step.gates[1:])
    for config in all_configs(spec):
        state = layout.basis_state(config)
        out = apply_circuit(circuit, state)
        assert layout.get_register(out, R_ACC) == 0


# ---------------------------------------------------------------------------
# step circuit


def test_step_circuit_identity_for_immediate_halt():
    spec = corpus.load("halt")
    circuit = build_step_circuit(spec)
    for config in all_configs(spec):
        state = circuit.layout.basis_state(config)
        assert apply_circuit(circuit, state) == state


@pytest.mark.parametrize("name", ["flip", "rot3"])
def test_step_circuit_matches_step_machine_everywhere(name):
    # machines without moving states: the circuit action equals one machine
    # step on every configuration where stepping is defined
    spec = corpus.load(name)
    circuit = build_step_circuit(spec)
    layout = circuit.layout
    for config in all_configs(spec):
        if spec.kind(config.head_state) is StateKind.FINAL:
            continue
        want = rtm.step_machine(spec, config)
        out = apply_circuit(circuit, layout.basis_state(config))
        head, index, tape, acc = read_machine_registers(layout, out)
        assert (head, index, tape) == (want.head_state, want.tape_index, want.tape)
        assert acc == 0


@pytest.mark.parametrize("name", corpus.machine_names())
def test_step_circuit_matches_run_boundaries(name):
    # along every actual run, each circuit application performs the machine's
    # fused transition
    spec = corpus.load(name)
    circuit = build_step_circuit(spec)
    layout = circuit.layout
    words = [""] + list(spec.alphabet)
    if spec.tape_cells >= 2:
        words += [a + b for a in spec.alphabet for b in spec.alphabet]
    for word in words:
        config = rtm.initial_config(spec, word)
        state = layout.basis_state(config)
        for _ in range(64):
            if spec.kind(config.head_state) is StateKind.FINAL:
                break
            config = fused_step(spec, config)
            state = apply_circuit(circuit, state)
            head, index, tape, acc = read_machine_registers(layout, state)
            assert (head, index, tape) == (
                config.head_state,
                config.tape_index,
                config.tape,
            )
            assert acc == 0


def test_step_circuit_is_a_bijection():
    spec = corpus.load("flipwalk")
    circuit = build_step_circuit(spec)
    layout = circuit.layout
    dims = layout.wire_dims()
    size = 1
    for d in dims:
        size *= d
    seen = set()
    for packed in range(size):
        values = []
        rem = packed
        for d in reversed(dims):
            values.append(rem % d)
            rem //= d
        values.reverse()
        out = apply_circuit(circuit, BasisState(tuple(values)))
        assert out.values not in seen
        seen.add(out.values)
    assert len(seen) == size


def _run_read_off(circuit, start, passes):
    """The machine configurations, as (head, index, tape), that V's run mode
    steps through in ``passes`` passes from the clocked state ``start``, read
    gate by gate (``oracle.apply_forward``) whenever the accumulator holds 0,
    each once."""
    op, layout, seen = ForwardOperator(circuit), circuit.layout, []
    for _ in range(passes * circuit.s):
        if layout.get_register(start.circuit_state, R_MODE) != MODE_RUN:
            break
        *config, acc = read_machine_registers(layout, start.circuit_state)
        if acc == 0 and seen[-1:] != [tuple(config)]:
            seen.append(tuple(config))
        start = apply_forward(op, start)
    return seen


def _machine_run(spec, word, steps):
    """The first configurations of the run on ``word``, as (head, index, tape)."""
    run = [rtm.initial_config(spec, word)]
    while len(run) <= steps and spec.kind(run[-1].head_state) is not StateKind.FINAL:
        run.append(rtm.step_machine(spec, run[-1]))
    return [(c.head_state, c.tape_index, c.tape) for c in run]


MOVE_ENTERED = """
states: a:rw m:right
alphabet: 0 1
initial: a
tape_cells: 2
transition: rw (a,0) -> (m,1)
transition: rw (a,1) -> (m,0)
transition: move m -> a +1
"""


def test_clock_starts_just_after_the_gate_that_enters_the_initial_state():
    # a moving rule enters a's initial state, whose runs then start just
    # after run:move (position 2); read-write rules enter FINAL_TARGET's
    # final initial state, whose runs start just after run:rewrite (position
    # n + 3). From there V's run mode steps through the machine's run, two
    # steps a pass for a, and from position 1 it does not
    for text, position in ((MOVE_ENTERED, 2), (FINAL_TARGET, 5)):
        spec = parse_rtm_spec(text)
        for merged in (True, False):
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            layout = circuit.layout
            for word in product(spec.alphabet, repeat=spec.tape_cells):
                state, pos = circuits.clock_start(layout, word)
                assert pos == position
                seen = _run_read_off(circuit, ClockedState(state, pos), 6)
                assert seen == _machine_run(spec, word, 11), (text, merged, word)
                wrong = _run_read_off(circuit, ClockedState(layout.initial_basis_state(word), 1), 6)
                assert wrong != _machine_run(spec, word, len(wrong) - 1), (text, merged, word)


def test_runs_that_start_mid_pass_have_the_orbit_dimension_of_the_closed_form():
    # reversible generated machines whose run starts mid-pass, m <= 8: every
    # halting run, in both layouts, compiles and has d = s*r*(1+f) from
    # clock_start, which starts after run:move or after run:rewrite
    rng, machines, after = random.Random(11), 0, Counter()
    for _ in range(1300):
        spec = random_machine(rng)
        if state_bits(spec) > 8 or rtm.check_reversibility(spec).violations:
            continue
        if circuits.clock_start(wrapper_layout(spec), "")[1] == 1:
            continue
        machines += 1
        for merged in (True, False):
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            layout, r = circuit.layout, nominal_cycle_length(circuit.layout.m)
            for word in product(spec.alphabet, repeat=spec.tape_cells):
                truth = rtm.run_machine(spec, word, max_steps=layout.counter_size - 2)
                if not truth.halted:
                    continue
                start = ClockedState(*circuits.clock_start(layout, word))
                d = compute_orbit(ForwardOperator(circuit), start).dimension
                assert d == circuit.s * r * (1 + truth.f_of_x), (spec_text(spec), merged, word)
                gate = {2: "move", spec.tape_cells + 3: "rewrite"}[start.clock_pos]
                after[gate, truth.f_of_x] += 1
    assert machines >= 100 and len(after) == 4, (machines, after)


def test_orbit_of_a_mid_pass_start_comes_back_after_d_forward_steps():
    # stepping the forward operator one gate at a time from clock_start's
    # (state, position) first comes back after exactly d steps
    for text, word in ((TARGET, "01"), (TARGET, "11"), (FINAL_TARGET, "10"), (FINAL_TARGET, "01")):
        spec = parse_rtm_spec(text)
        for merged in (True, False):
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            op = ForwardOperator(circuit)
            start = ClockedState(*circuits.clock_start(circuit.layout, word))
            d = compute_orbit(op, start).dimension
            f = rtm.run_machine(spec, word, max_steps=10).f_of_x
            assert d == circuit.s * nominal_cycle_length(circuit.layout.m) * (1 + f)
            state = apply_forward(op, start)
            for _ in range(d - 1):
                assert state != start
                state = apply_forward(op, state)
            assert state == start, (text, merged, word)


# ---------------------------------------------------------------------------
# apply_circuit plumbing


def test_apply_empty_circuit_is_identity():
    spec = corpus.load("flip")
    layout = machine_layout(spec)
    circuit = Circuit(layout=layout, gates=())
    state = layout.zero_state()
    assert apply_circuit(circuit, state) == state


def test_apply_single_swap_gate():
    spec = corpus.load("flipwalk")
    layout = machine_layout(spec)

    def swap(env):
        return {tape_register(1): env[tape_register(2)], tape_register(2): env[tape_register(1)]}

    gate = lift_gate(layout, [tape_register(1), tape_register(2)], swap, "swap12")
    circuit = Circuit(layout=layout, gates=(gate,))
    state = layout.set_registers(layout.zero_state(), {tape_register(1): 1})
    out = apply_circuit(circuit, state)
    assert layout.get_register(out, tape_register(1)) == 0
    assert layout.get_register(out, tape_register(2)) == 1


def test_apply_circuit_rejects_bad_width():
    spec = corpus.load("flip")
    circuit = build_step_circuit(spec)
    with pytest.raises(DimensionError):
        apply_circuit(circuit, BasisState((0,)))
    with pytest.raises(DimensionError):
        apply_circuit(
            circuit, BasisState(tuple(d for d in circuit.layout.wire_dims()))
        )


# ---------------------------------------------------------------------------
# wrapper circuit: mode rules


def flip_wrapper():
    spec = corpus.load("flip")
    return spec, build_wrapper_circuit(spec)


def test_wrapper_rule_pad_to_unpad_at_counter_max():
    spec, circuit = flip_wrapper()
    layout = circuit.layout
    state = layout.initial_basis_state("0")
    state = layout.set_registers(
        state,
        {R_MODE: MODE_PAD, R_COUNTER: layout.counter_max - 1, R_IDLE: 3},
    )
    out = apply_circuit(circuit, state)
    assert layout.get_register(out, R_MODE) == MODE_UNPAD
    assert layout.get_register(out, R_COUNTER) == layout.counter_max


def test_wrapper_rule_run_to_pad_on_halt():
    # halt-machine payload is the identity, so the crafted state survives to
    # the mode gate: head final plus empty idle counter flips run -> pad
    spec = corpus.load("halt")
    circuit = build_wrapper_circuit(spec)
    layout = circuit.layout
    state = layout.set_registers(layout.initial_basis_state("0"), {R_COUNTER: 5})
    out = apply_circuit(circuit, state)
    assert layout.get_register(out, R_MODE) == MODE_PAD
    assert layout.get_register(out, R_COUNTER) == 6
    # a non-empty idle counter blocks the same transition
    blocked = layout.set_registers(state, {R_IDLE: 2})
    out = apply_circuit(circuit, blocked)
    assert layout.get_register(out, R_MODE) == MODE_RUN


def test_wrapper_first_application_advances_machine_and_counter():
    spec, circuit = flip_wrapper()
    layout = circuit.layout
    out = apply_circuit(circuit, layout.initial_basis_state("0"))
    assert layout.get_register(out, R_COUNTER) == 1
    assert layout.get_register(out, R_MODE) == MODE_PAD  # flip halts in one step
    head, index, tape, acc = read_machine_registers(layout, out)
    assert (head, tape) == ("h", ("1",))


def test_wrapper_is_a_permutation_of_the_full_space():
    spec = corpus.load("halt")
    circuit = build_wrapper_circuit(spec)
    dims = circuit.layout.wire_dims()
    size = 1
    for d in dims:
        size *= d
    seen = set()
    for packed in range(size):
        values = []
        rem = packed
        for d in reversed(dims):
            values.append(rem % d)
            rem //= d
        values.reverse()
        out = apply_circuit(circuit, BasisState(tuple(values)))
        seen.add(out.values)
    assert len(seen) == size


@pytest.mark.parametrize(
    "name,word",
    [
        ("halt", "0"),
        ("halt", "1"),
        ("flip", "0"),
        ("flip", "1"),
        ("rot3", "0"),
        ("rot3", "2"),
        ("flipwalk", "00"),
        ("flipwalk", "10"),
    ],
)
def test_wrapper_orbit_length_law(name, word):
    spec = corpus.load(name)
    circuit = build_wrapper_circuit(spec)
    layout = circuit.layout
    f = rtm.run_machine(spec, word, max_steps=10_000).f_of_x
    r = circuit_orbit_length(circuit, layout.initial_basis_state(word))
    nominal = nominal_cycle_length(layout.m)
    assert r == nominal * (2 if f else 1)


@pytest.mark.parametrize(
    "name,word",
    [("halt", "1"), ("flip", "0"), ("rot3", "1"), ("flipwalk", "01")],
)
def test_wrapper_restores_all_registers_except_solution(name, word):
    spec = corpus.load(name)
    circuit = build_wrapper_circuit(spec)
    layout = circuit.layout
    f = rtm.run_machine(spec, word, max_steps=10_000).f_of_x
    initial = layout.initial_basis_state(word)
    state = initial
    for _ in range(nominal_cycle_length(layout.m)):
        state = apply_circuit(circuit, state)
    assert state == layout.set_registers(initial, {R_SOLUTION: f})


def test_wrapper_midpass_state_shape():
    # after the machine halts, the pad mode counts both counters up in step
    spec, circuit = flip_wrapper()
    layout = circuit.layout
    state = layout.initial_basis_state("1")
    for _ in range(5):
        state = apply_circuit(circuit, state)
    assert layout.get_register(state, R_MODE) == MODE_PAD
    assert layout.get_register(state, R_COUNTER) == 5
    assert layout.get_register(state, R_IDLE) == 4  # one run application, four pads


def test_orbit_length_of_identity_circuit():
    spec = corpus.load("flip")
    layout = machine_layout(spec)
    circuit = Circuit(layout=layout, gates=())
    assert circuit_orbit_length(circuit, layout.zero_state()) == 1


def test_orbit_budget_exhaustion():
    # one gate cycling all 4,096 (counter, idle) points of rot3's V has an
    # orbit of 4,096 passes, past the walk's budget of 16 * 64 + 16 = 1,040;
    # the circuit is not V, so both walks run it gate by gate
    layout = build_wrapper_circuit(corpus.load("rot3")).layout
    points = np.arange(layout.counter_size ** 2)
    cycle = PermGate(*circuits._placement(layout, (R_COUNTER, R_IDLE)), points, np.roll(points, -1), "cycle")
    circuit = Circuit(layout, (cycle,))
    assert layout.counter_size == 64 and not circuit.wrapper
    errors = {_orbit_or_error(walk, circuit, layout.zero_state()) for walk in WALKS}
    assert errors == {"no recurrence within 1040 applications of the circuit"}


WALKS = (circuit_orbit_length, orbit_length_by_steps)


def _orbit_or_error(walk, circuit, start):
    try:
        return walk(circuit, start)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("name", corpus.machine_names())
def test_orbit_walk_matches_stepping_oracle(name, merged):
    spec = corpus.load(name)
    circuit = build_wrapper_circuit(spec, merge_cells=merged)
    layout = circuit.layout
    words = product(spec.alphabet, repeat=spec.tape_cells)
    for start in [*map(layout.initial_basis_state, words), layout.zero_state()]:
        r = orbit_length_by_steps(circuit, start)
        assert circuit_orbit_length(circuit, start) == r, start


def test_orbit_walk_matches_stepping_oracle_on_generated_machines():
    rng = random.Random(13)
    compared = 0
    while compared < 20:
        spec = random_machine(rng)
        try:
            circuit = build_wrapper_circuit(spec, merge_cells=compared % 2 == 0)
        except ClockObsError:
            continue
        if circuit.layout.m > 6:  # keeps the gate-by-gate walk short
            continue
        word = [rng.choice(spec.alphabet) for _ in range(spec.tape_cells)]
        start = circuit.layout.initial_basis_state(word)
        fast, slow = (_orbit_or_error(walk, circuit, start) for walk in WALKS)
        assert fast == slow, spec
        compared += 1


def test_wrapper_returns_every_register_but_the_answer_after_r_passes():
    # over reversible generated machines that halt, with m <= 6, in both
    # layouts: r = 2*(2**(m+1)-1) passes of V from where the run starts
    # (clock_start) bring every register back but solution, which then holds
    # f(x), and both layouts walk the same orbit length. Each machine runs
    # the input word whose answer has been checked least, so both answers
    # are covered
    rng, answers, drawn = random.Random(31), Counter(), 0
    while sum(answers.values()) < 40 or min(answers[0], answers[1]) < 10:
        drawn += 1
        assert drawn <= 2000, answers
        spec = random_machine(rng)
        m = state_bits(spec)
        if m > 6 or rtm.check_reversibility(spec).violations:
            continue
        run = least_seen_run(spec, wrapper_layout(spec).counter_size - 2, answers, (0, 1))
        if run is None:
            continue  # no input word halts
        word, truth = run
        lengths = set()
        for merged in (True, False):
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            layout, gates = circuit.layout, circuit.gates
            start, pos = circuits.clock_start(layout, word)
            rotated = Circuit(layout, gates[pos - 1:] + gates[:pos - 1])
            state = start
            for _ in range(nominal_cycle_length(m)):
                state = apply_circuit(rotated, state)
            for register in layout.slots:
                want = truth.f_of_x if register == R_SOLUTION else layout.get_register(start, register)
                assert layout.get_register(state, register) == want, (spec_text(spec), register)
            lengths.add(circuit_orbit_length(rotated, start))
        assert len(lengths) == 1, spec_text(spec)
        answers[truth.f_of_x] += 1


def test_orbit_walk_matches_stepping_oracle_from_every_clock_position():
    for name, word, merged in (("flip", "0", False), ("flipwalk", "00", True)):
        circuit = build_wrapper_circuit(corpus.load(name), merge_cells=merged)
        op, gates = ForwardOperator(circuit), circuit.gates
        start = circuit.layout.initial_basis_state(word)
        for c in range(circuit.s):
            rotated = Circuit(circuit.layout, gates[c:] + gates[:c])
            d = compute_orbit(op, ClockedState(start, c + 1)).dimension
            assert d == circuit.s * orbit_length_by_steps(rotated, start), (name, c)


def _stretch_starts(layout, rng):
    """Starts of V with every register drawn at random: one anywhere, then
    in pad and in unwind-pad mode at both ends of a stretch of passes that
    only count, at the start of the longest one, and inside one."""
    cmax = layout.counter_max

    def start(mode, counter, idle):
        values = {reg: rng.randrange(layout.register_dim(reg)) for reg in layout.slots}
        values.update({R_MODE: mode, R_COUNTER: counter, R_IDLE: idle})
        return layout.set_registers(layout.zero_state(), values)

    def anywhere():
        return rng.randrange(cmax + 1)

    inside = sorted((anywhere(), anywhere()))
    pad = [(cmax - 1, anywhere()), (cmax - 2, anywhere()), (anywhere(), cmax),
           (anywhere(), cmax - 1), (0, 0), inside[::-1]]
    unpad = [(0, anywhere()), (1, anywhere()), (anywhere(), 1), (anywhere(), 2),
             (cmax, cmax), inside]
    return ([start(rng.randrange(4), anywhere(), anywhere())]
            + [start(MODE_PAD, c, i) for c, i in pad]
            + [start(MODE_UNPAD, c, i) for c, i in unpad])


def _walks_agree(circuit, starts):
    # random starts, most of them off every orbit from an input: both walks
    # find the same orbit length
    for start in starts:
        fast, slow = (_orbit_or_error(walk, circuit, start) for walk in WALKS)
        assert fast == slow, (circuit.layout.spec.name, circuit.layout.merged, start)


def test_orbit_walk_skips_counting_passes_as_the_stepping_oracle_walks_them():
    rng = random.Random(26)
    for merged in (True, False):
        for spec in [corpus.load(name) for name in corpus.machine_names()]:
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
            _walks_agree(circuit, _stretch_starts(circuit.layout, rng))
        circuit = build_wrapper_circuit(_bench_flip3(), merge_cells=merged)
        _walks_agree(circuit, rng.sample(_stretch_starts(circuit.layout, rng), 4))
    # generated machines, one layout each in turn, a start of each kind
    compared = 0
    while compared < 100:
        spec = random_machine(rng)
        if state_bits(spec) > 5 or rtm.check_reversibility(spec).violations:
            continue
        circuit = build_wrapper_circuit(spec, merge_cells=compared % 2 == 0)
        starts = _stretch_starts(circuit.layout, rng)
        _walks_agree(circuit, [starts[0], rng.choice(starts[1:7]), rng.choice(starts[7:])])
        compared += 1


def test_orbit_walk_of_other_circuits_runs_every_pass():
    # a rotation of V and the step circuit U are not V: no pass is skipped
    rng = random.Random(27)
    for name in corpus.machine_names():
        spec = corpus.load(name)
        circuit = build_wrapper_circuit(spec)
        assert circuit.wrapper and not build_step_circuit(spec).wrapper
        # only the build sets the flag: replace() and the constructor cannot
        assert not dataclasses.replace(circuit).wrapper
        with pytest.raises(TypeError):
            Circuit(circuit.layout, circuit.gates, wrapper=True)
        for c in rng.sample(range(1, circuit.s), 3):
            rotated = dataclasses.replace(circuit, gates=circuit.gates[c:] + circuit.gates[:c])
            assert not rotated.wrapper
            _walks_agree(rotated, _stretch_starts(circuit.layout, rng)[:4])
        step = build_step_circuit(spec)
        words = product(spec.alphabet, repeat=spec.tape_cells)
        for start in [*map(step.layout.initial_basis_state, words), step.layout.zero_state()]:
            assert circuit_orbit_length(step, start) == orbit_length_by_steps(step, start)


def test_orbit_walk_runs_only_the_passes_that_do_work(monkeypatch):
    # flip3's 8 orbits are 24,552 passes: 120 run and unwind-run passes and
    # 2 more for each of the 12 cycles are walked gate by gate
    applied = Counter()
    apply_values = PermGate.apply_values
    monkeypatch.setattr(
        PermGate, "apply_values", lambda gate, values: applied.update([gate]) or apply_values(gate, values)
    )
    for merged in (True, False):
        circuit = build_wrapper_circuit(_bench_flip3(), merge_cells=merged)
        applied.clear()
        passes = sum(
            circuit_orbit_length(circuit, circuit.layout.initial_basis_state(format(x, "03b")))
            for x in range(8)
        )
        assert passes == 24_552
        assert set(applied.values()) == {144}, merged


def _gate_content(gate):
    return gate.label, gate.support, gate.dims, gate.fields, gate.moved.tobytes(), gate.image.tobytes()


def test_compiles_of_one_machine_share_their_gates(tmp_path, monkeypatch):
    monkeypatch.setattr(circuits, "_live_gates", weakref.WeakValueDictionary())
    path = tmp_path / "flip.rtm"
    path.write_text(corpus.path("flip").read_text(encoding="utf-8"), encoding="utf-8")
    first = build_wrapper_circuit(rtm.parse_rtm_file(path))
    assert len(circuits._live_gates) == first.s
    # a new circuit over the caller's spec, made of the gates alive already
    spec = rtm.parse_rtm_file(path)
    again = build_wrapper_circuit(spec)
    assert again is not first and again == first and again.layout.spec is spec and again.wrapper
    assert all(a is b for a, b in zip(again.gates, first.gates))
    # the other layout shares no gate; one changed rule shares all but the
    # gates of the map it changes, whose content is that of a fresh build
    unmerged = build_wrapper_circuit(spec, merge_cells=False)
    assert not {id(g) for g in unmerged.gates} & {id(g) for g in first.gates}
    rule = rtm.ReadWriteRule("p0", "0", "h", "1")
    changed = dataclasses.replace(spec, transitions=tuple(
        dataclasses.replace(t, target="p0") if t == rule else t for t in spec.transitions
    ))
    other = build_wrapper_circuit(changed)
    fresh = [g for g, f in zip(other.gates, first.gates) if g is not f]
    assert {g.label for g in fresh} == {"run:rewrite", "unrun:rewrite"}
    monkeypatch.setattr(circuits, "_live_gates", weakref.WeakValueDictionary())
    assert list(map(_gate_content, other.gates)) == list(map(_gate_content, build_wrapper_circuit(changed).gates))
    # a live gate under another gate's key is not taken for it
    gate = first.gates[0]
    points = gate.moved.tobytes() + gate.image.tobytes()
    circuits._live_gates[gate.label, gate.support, gate.dims, gate.fields, hash(points)] = first.gates[1]
    built = build_wrapper_circuit(spec).gates[0]
    assert built is not first.gates[1] and _gate_content(built) == _gate_content(gate)
    # the table keeps no gate alive
    del first, again, unmerged, other, built, gate
    assert len(circuits._live_gates) == 0
    # the compile cap is checked on every call, also for a machine whose
    # gates are alive
    kept = build_wrapper_circuit(spec)
    monkeypatch.setattr(circuits, "MAX_REGISTER_BITS", kept.layout.m - 1)
    with pytest.raises(BudgetExceededError, match=f"needs m = {kept.layout.m} register bits"):
        build_wrapper_circuit(spec)
    assert kept.s


def test_orbit_length_rejects_state_outside_the_layout():
    _, circuit = flip_wrapper()
    with pytest.raises(DimensionError, match="width"):
        circuit_orbit_length(circuit, BasisState((0,)))
    with pytest.raises(DimensionError, match="out of range"):
        circuit_orbit_length(circuit, BasisState(circuit.layout.wire_dims()))


# ---------------------------------------------------------------------------
# layouts and locality


def test_merged_layout_gates_touch_at_most_two_wires():
    for name in corpus.machine_names():
        circuit = build_wrapper_circuit(corpus.load(name), merge_cells=True)
        assert max(len(g.support) for g in circuit.gates) <= 2


def test_unmerged_layout_has_wider_gates():
    circuit = build_wrapper_circuit(corpus.load("flipwalk"), merge_cells=False)
    widths = {len(g.support) for g in circuit.gates}
    assert max(widths) > 2


def test_layout_counter_spans_full_range():
    spec = corpus.load("flip")
    layout = wrapper_layout(spec)
    assert layout.counter_size == 2 ** (layout.m + 1)
    w, _ = layout.slots[R_COUNTER]
    assert layout.wires[w].dimension % layout.counter_size == 0


def test_state_bits_matches_register_space():
    spec = corpus.load("flipwalk")
    # head(5) * index(2) * acc(2) * tape(4) = 80 -> 7 bits
    assert state_bits(spec) == 7
    assert state_bits(corpus.load("flip")) == 3
    assert state_bits(corpus.load("halt")) == 2
    assert state_bits(corpus.load("rot3")) == 5


def test_registers_disjoint_across_slots():
    for merge in (True, False):
        layout = wrapper_layout(corpus.load("flipwalk"), merge_cells=merge)
        seen = set()
        for reg, slot in layout.slots.items():
            assert slot not in seen
            seen.add(slot)


# ---------------------------------------------------------------------------
# dumps


def test_dump_is_byte_stable_and_replayable():
    spec = corpus.load("flip")
    circuit = build_wrapper_circuit(spec)
    blob1 = dump_circuit_json(circuit)
    blob2 = dump_circuit_json(build_wrapper_circuit(spec))
    assert blob1 == blob2

    dump = json.loads(blob1)
    layout = circuit.layout
    state = layout.initial_basis_state("0")
    direct = apply_circuit(circuit, state)
    replayed = replay_dump(dump, state.values)
    assert replayed == direct.values


def test_dump_header_records_idle_policy():
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    assert dump["header"]["unwind_run_idle_policy"] == "hold"
    assert dump["format"] == "clockobs-circuit/1"


def _bench_flip3():
    """The benchmark's 3-cell machine, read from ``bench/machines.py``."""
    machines = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "machines.py"))
    return parse_rtm_spec(machines["FLIP3"], "flip3")


def _expected_dump(circuit: Circuit) -> dict:
    """The ``clockobs-circuit/1`` dump built here from the layout and each
    gate's wire-level table, independently of the encoder."""
    lay = circuit.layout
    wires = [
        {"id": w.id, "dimension": w.dimension, "fields": list(w.fields),
         "field_dims": list(w.field_dims)}
        for w in lay.wires
    ]
    gates = [
        {"label": g.label, "support": list(g.support), "dims": list(g.dims),
         "table": g.table.tolist()}
        for g in circuit.gates
    ]
    return {
        "format": "clockobs-circuit/1",
        "header": {"merged_cells": lay.merged, "m": lay.m, "counter_size": lay.counter_size,
                   "unwind_run_idle_policy": "hold"},
        "layout": {
            "wires": wires,
            "registers": {name: list(slot) for name, slot in lay.slots.items()},
            "states": list(lay.spec.states),
            "alphabet": list(lay.spec.alphabet),
            "tape_cells": lay.spec.tape_cells,
            "result_cell": lay.spec.result_cell,
        },
        "gates": gates,
    }


def _assert_dump_is_json_dumps_of_the_expected_dump(circuit: Circuit) -> None:
    expected = _expected_dump(circuit)
    assert dump_circuit_json(circuit) == json.dumps(
        expected, sort_keys=True, separators=(",", ":")
    ).encode()
    assert dump_circuit(circuit) == expected


@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("name", corpus.machine_names())
def test_dump_json_is_json_dumps_of_the_dump(name, merged):
    circuit = build_wrapper_circuit(corpus.load(name), merge_cells=merged)
    _assert_dump_is_json_dumps_of_the_expected_dump(circuit)


def test_dump_json_is_json_dumps_of_the_dump_for_unmerged_flip3():
    circuit = build_wrapper_circuit(_bench_flip3(), merge_cells=False)
    _assert_dump_is_json_dumps_of_the_expected_dump(circuit)


def test_dump_json_is_json_dumps_of_the_dump_for_generated_machines():
    rng = random.Random(11)
    compiled = 0
    while compiled < 20:
        spec = random_machine(rng)
        try:
            circuit = build_wrapper_circuit(spec, merge_cells=compiled % 2 == 0)
        except ClockObsError:
            continue
        if sum(math.prod(g.dims) for g in circuit.gates) <= 200_000:  # keeps the test short
            _assert_dump_is_json_dumps_of_the_expected_dump(circuit)
            compiled += 1


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([], np.int64),
        ([0], np.uint8),
        ([0, 7, 3, 9, 1, 0], np.uint8),
        ([9, 10, 99, 100, 255, 0], np.uint8),
        ([9, 10, 99, 100, 999, 1000, 65535], np.uint16),
        ([999999, 1000000, 0, 5], np.int64),
        ([999_999_999, 1_000_000_000, 2**31 - 1, 2**31, 2**40], np.int64),
    ],
)
def test_dump_array_encoding_writes_what_json_dumps_writes(values, dtype):
    array = np.array(values, dtype=dtype)
    want = json.dumps(array.tolist(), separators=(",", ":"))
    assert orjson.dumps(array, option=circuits._DUMP_JSON_OPTION).decode() == want


def test_dump_of_non_ascii_names_parses_to_the_dump():
    # orjson writes non-ASCII text as UTF-8, where json.dumps writes \uXXXX:
    # the text differs, the JSON value does not
    circuit = build_wrapper_circuit(parse_rtm_spec(
        "states: début:rw fin:final\nalphabet: ∅ ñ\ninitial: début\ntape_cells: 1\n"
        "transition: rw (début,∅) -> (fin,ñ)\ntransition: rw (début,ñ) -> (fin,∅)\n"
    ))
    data = dump_circuit_json(circuit)
    assert "début".encode() in data and "ñ".encode() in data
    assert json.loads(data) == _expected_dump(circuit)


def _table_by_apply_values(gate: PermGate, indices) -> list[int]:
    """Each wire-level index unpacked into wire values, moved by
    ``apply_values`` and packed again."""
    out = []
    for i in indices:
        values = [0] * (max(gate.support) + 1)
        for w, d in zip(reversed(gate.support), reversed(gate.dims)):
            i, values[w] = divmod(i, d)
        gate.apply_values(values)
        j = 0
        for w, d in zip(gate.support, gate.dims):
            j = j * d + values[w]
        out.append(j)
    return out


def _assert_table_matches_apply_values(gate: PermGate, most: int = 4096) -> None:
    size = math.prod(gate.dims)
    indices = range(size) if size <= most else sorted(random.Random(size).sample(range(size), most))
    assert len(gate.table) == size
    assert gate.table[list(indices)].tolist() == _table_by_apply_values(gate, indices)


@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("name", corpus.machine_names())
def test_wire_table_matches_apply_values(name, merged):
    for gate in build_wrapper_circuit(corpus.load(name), merge_cells=merged).gates:
        _assert_table_matches_apply_values(gate)


def test_wire_table_matches_apply_values_on_generated_machines():
    # generated machines fold one-valued registers into other wires and put
    # up to four tape cells beside the core wire, in both layouts
    rng = random.Random(17)
    compiled = Counter()
    while min(compiled[True], compiled[False]) < 10:
        spec = random_machine(rng)
        merged = compiled[True] <= compiled[False]
        try:
            circuit = build_wrapper_circuit(spec, merge_cells=merged)
        except ClockObsError:
            continue
        if sum(math.prod(g.dims) for g in circuit.gates) > 200_000:  # keeps the test short
            continue
        for gate in circuit.gates:
            _assert_table_matches_apply_values(gate, most=64)
        compiled[merged] += 1


def test_wire_table_matches_apply_values_with_riders_on_both_wires():
    # compiled circuits ride digits along on one support wire at most; these
    # gates read one or two of the three digits on each of two wires, packed
    # in any order
    rng = random.Random(5)
    for _ in range(20):
        fields, dims = [], []
        for w in (0, 1):
            digits = [rng.randint(2, 3) for _ in range(3)]
            for k in rng.sample(range(3), rng.randint(1, 2)):
                fields.append((w, math.prod(digits[k + 1:]), digits[k]))
            dims.append(math.prod(digits))
        rng.shuffle(fields)
        size = math.prod(d for _, _, d in fields)
        table = np.random.default_rng(rng.randrange(2**32)).permutation(size)
        _assert_table_matches_apply_values(PermGate.from_table((0, 1), dims, table, "riders", fields))


def test_wire_table_matches_apply_values_with_several_fields_on_one_wire():
    # wire 0 (dim 12) holds fields at strides 6 and 1 with a rider between
    # them; wire 2 (dim 10) holds one field at stride 2 above a rider
    fields = [(0, 6, 2), (2, 2, 5), (0, 1, 3)]
    table = np.random.default_rng(3).permutation(30)
    gate = PermGate.from_table((0, 2), (12, 10), table, "hand-built", fields)
    _assert_table_matches_apply_values(gate)
    assert not np.array_equal(gate.table, np.arange(120))


def test_wire_table_of_a_gate_without_fields_is_the_table_given():
    table = np.random.default_rng(4).permutation(12)
    gate = PermGate.from_table((1, 3), (3, 4), table, "whole wires")
    assert np.array_equal(gate.table, table)
    _assert_table_matches_apply_values(gate)


def test_replay_dump_rejects_corrupted_table():
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    table = dump["gates"][0]["table"]
    table[0] = table[1]
    state = wrapper_layout(corpus.load("halt")).initial_basis_state("0")
    with pytest.raises(PermutationError, match="not a bijection"):
        replay_dump(dump, state.values)


def test_replay_dump_rejects_negative_table_entry():
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    dump["gates"][0]["table"][0] = -1
    state = wrapper_layout(corpus.load("halt")).initial_basis_state("0")
    with pytest.raises(PermutationError, match="not a bijection"):
        replay_dump(dump, state.values)


def test_replay_dump_rejects_an_unknown_format():
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    dump["format"] = "clockobs-circuit/2"
    state = wrapper_layout(corpus.load("halt")).initial_basis_state("0")
    with pytest.raises(DimensionError, match="^unknown dump format 'clockobs-circuit/2'$"):
        replay_dump(dump, state.values)


def test_replay_dump_rejects_a_nested_table():
    # a table must be one flat list over the gate's wires, not one list per entry
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    dump["gates"][0]["table"] = [[entry] for entry in dump["gates"][0]["table"]]
    state = wrapper_layout(corpus.load("halt")).initial_basis_state("0")
    with pytest.raises(PermutationError, match="does not fit"):
        replay_dump(dump, state.values)


def test_initial_state_rejects_symbol_outside_alphabet():
    # the layout checks an input word with the machine's own check
    layout = wrapper_layout(corpus.load("flip"))
    with pytest.raises(MachineStepError, match="^input symbol '2' not in alphabet$"):
        layout.initial_basis_state("2")


@pytest.mark.parametrize("merged", [True, False])
def test_wrapper_payload_runs_the_step_circuit_and_its_inverse(merged):
    spec = corpus.load("rot3")
    step = build_step_circuit(spec)
    wrapper = build_wrapper_circuit(spec, merge_cells=merged)
    layout = wrapper.layout
    run = Circuit(layout, wrapper.gates[: step.s])
    unrun = Circuit(layout, wrapper.gates[step.s : 2 * step.s])
    assert [g.label for g in run.gates] == [f"run:{g.label}" for g in step.gates]
    assert [g.label for g in unrun.gates] == [f"unrun:{g.label}" for g in step.gates[::-1]]
    for config in all_configs(spec):
        u_out = apply_circuit(step, step.layout.basis_state(config))
        start = layout.basis_state(config)  # mode run
        v_out = apply_circuit(run, start)
        assert read_machine_registers(layout, v_out) == read_machine_registers(step.layout, u_out)
        back = apply_circuit(unrun, layout.set_registers(v_out, {R_MODE: MODE_UNRUN}))
        assert back == layout.set_registers(start, {R_MODE: MODE_UNRUN})
