import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest
from oracle import all_configs, random_machine

from clockobs import circuits, corpus, rtm
from clockobs.circuits import (
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
    build_step_circuit,
    build_wrapper_circuit,
    circuit_orbit_length,
    complete_permutation,
    dump_circuit,
    dump_circuit_json,
    lift_gate,
    machine_layout,
    nominal_cycle_length,
    replay_dump,
    state_bits,
    tape_register,
    wrapper_layout,
)
from clockobs.errors import (
    BudgetExceededError,
    ClockObsError,
    DimensionError,
    PermutationError,
)
from clockobs.rtm import StateKind, parse_rtm_spec


def machine_basis_state(spec, layout, config):
    updates = {
        R_HEAD: layout.state_index[config.head_state],
        R_INDEX: config.tape_index - 1,
    }
    for cell, sym in enumerate(config.tape, start=1):
        updates[tape_register(cell)] = layout.symbol_index[sym]
    return layout.set_registers(layout.zero_state(), updates)


def read_machine_registers(layout, state):
    head = layout.state_ids[layout.get_register(state, R_HEAD)]
    index = layout.get_register(state, R_INDEX) + 1
    tape = tuple(
        layout.alphabet[layout.get_register(state, tape_register(i))]
        for i in range(1, layout.n_cells + 1)
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


def test_perm_gate_rejects_non_bijection():
    with pytest.raises(PermutationError, match="not a bijection"):
        PermGate(support=(0,), dims=(2,), table=np.array([0, 0]), label="bad")


def test_perm_gate_table_is_read_only():
    gate = PermGate(support=(0,), dims=(2,), table=np.array([1, 0]), label="not")
    with pytest.raises(ValueError):
        gate.table[0] = 0


def test_lifted_gate_tables_are_read_only():
    gate = build_wrapper_circuit(corpus.load("flip")).gates[0]
    with pytest.raises(AttributeError):
        gate.table = np.arange(len(gate.table))
    with pytest.raises(ValueError):
        gate.table[0] = 1
    with pytest.raises(ValueError):
        gate.field_table[0] = 1
    with pytest.raises(AttributeError):
        gate.field_table = np.arange(len(gate.field_table))


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
    calls = Counter()

    def counted(make_maps):
        def make(*args):
            return [
                (label, regs, lambda env, label=label, fn=fn: calls.update([label]) or fn(env))
                for label, regs, fn in make_maps(*args)
            ]

        return make

    monkeypatch.setattr(circuits, "_step_maps", counted(circuits._step_maps))
    monkeypatch.setattr(circuits, "_bookkeeping_maps", counted(circuits._bookkeeping_maps))
    spec = corpus.load("flipwalk")
    steps = [g.label for g in build_step_circuit(spec).gates]
    calls.clear()
    circuit = build_wrapper_circuit(spec)
    bookkeeping = [g.label for g in circuit.gates[2 * len(steps):]]
    assert calls == Counter(steps + bookkeeping)  # every label is distinct


# sha256 of every gate's (label, fields) and int64 field_table, from
# build_step_circuit and build_wrapper_circuit in both layouts, over 50
# generated machines (random.Random(7)); a build that raises contributes its
# exception class name. Recorded from the per-assignment lifting it replaced.
GENERATED_GATE_TABLES_SHA256 = "4dcc45626d63e5907c07e22cf4cdc8814ba80ecc625d72481323ba2c3eb7bafc"


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
                digest.update(g.field_table.astype(np.int64).tobytes())
    assert digest.hexdigest() == GENERATED_GATE_TABLES_SHA256


def test_merged_flipwalk_stores_a_small_fraction_of_its_wire_tables():
    circuit = build_wrapper_circuit(corpus.load("flipwalk"))
    wire_entries = sum(len(g.table) for g in circuit.gates)
    stored = sum(len(g.field_table) for g in circuit.gates)
    assert wire_entries == 578_560
    assert stored <= 0.05 * wire_entries
    assert all(g.field_table.dtype.kind == "u" for g in circuit.gates)


def test_wrapper_over_the_compile_cap_fails_before_lifting(monkeypatch):
    monkeypatch.setattr(circuits, "MAX_GATE_ENTRIES", 879)
    monkeypatch.setattr(circuits, "_register_table", None)  # lifting would fail
    with pytest.raises(BudgetExceededError, match="needs 880 gate-table entries"):
        build_wrapper_circuit(corpus.load("flip"))


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
    state = machine_basis_state(spec, layout, rtm.MachineConfig("p", 3, ("0",) * 3))
    values = list(state.values)
    gate.apply_values(values)
    out = BasisState(tuple(values))
    assert layout.state_ids[layout.get_register(out, R_HEAD)] == "q"
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
                {R_HEAD: layout.state_index[state], R_INDEX: i},
            )
            values = list(src.values)
            gate.apply_values(values)
            out = BasisState(tuple(values))
            assert layout.get_register(out, R_HEAD) == layout.state_index[rule.target]
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
    state = machine_basis_state(spec, layout, rtm.MachineConfig("p", 1, ("0", "0")))
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
        state = machine_basis_state(spec, layout, config)
        out = apply_circuit(circuit, state)
        assert layout.get_register(out, R_ACC) == 0


# ---------------------------------------------------------------------------
# step circuit


def test_step_circuit_identity_for_immediate_halt():
    spec = corpus.load("halt")
    circuit = build_step_circuit(spec)
    for config in all_configs(spec):
        state = machine_basis_state(spec, circuit.layout, config)
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
        out = apply_circuit(circuit, machine_basis_state(spec, layout, config))
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
        state = machine_basis_state(spec, layout, config)
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


def test_initial_state_guard_rejects_moving_target():
    text = """
states: a:rw m:right
alphabet: 0 1
initial: a
tape_cells: 2
transition: rw (a,0) -> (m,1)
transition: rw (a,1) -> (m,0)
transition: move m -> a +1
"""
    spec = parse_rtm_spec(text)
    with pytest.raises(PermutationError, match="initial state"):
        build_step_circuit(spec)


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
    spec, circuit = flip_wrapper()
    layout = circuit.layout
    with pytest.raises(BudgetExceededError):
        circuit_orbit_length(circuit, layout.initial_basis_state("0"), max_steps=3)


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


def test_replay_dump_rejects_corrupted_table():
    dump = dump_circuit(build_wrapper_circuit(corpus.load("halt")))
    table = dump["gates"][0]["table"]
    table[0] = table[1]
    state = wrapper_layout(corpus.load("halt")).initial_basis_state("0")
    with pytest.raises(PermutationError, match="not a bijection"):
        replay_dump(dump, state.values)


def test_initial_state_rejects_symbol_outside_alphabet():
    layout = wrapper_layout(corpus.load("flip"))
    with pytest.raises(DimensionError, match="not in the alphabet"):
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
        u_out = apply_circuit(step, machine_basis_state(spec, step.layout, config))
        start = machine_basis_state(spec, layout, config)  # mode run
        v_out = apply_circuit(run, start)
        assert read_machine_registers(layout, v_out) == read_machine_registers(step.layout, u_out)
        back = apply_circuit(unrun, layout.set_registers(v_out, {R_MODE: MODE_UNRUN}))
        assert back == layout.set_registers(start, {R_MODE: MODE_UNRUN})
