"""Test-only references: an exhaustive reversibility sweep with a seeded
generator of small machines to run it on (``spec_text`` writes one as spec
text, for the commands that read a file), a step-by-step forward operator
and a gate-by-gate orbit walk, and a dense eigensolver for the clock
spectrum.

``rtm.check_reversibility`` decides reversibility from the transition rules;
the sweep here decides it by stepping every configuration with
``rtm.step_machine``, so the two can be compared machine by machine.
``clock.compute_orbit`` and ``circuits.circuit_orbit_length`` walk whole
passes through ``PermGate.apply_values``, which bisects each gate's moved
points. ``PermGate`` keeps only the points its table moves; ``field_table``
rebuilds the whole table over its fields from them, and ``apply_gate``
applies a gate, or its inverse, by a lookup in that table, so the walks here
do not share the lookup they check: ``apply_forward`` takes one forward step
of the clocked circuit, ``apply_backward`` one step of its inverse, and
``orbit_length_by_steps`` walks passes one gate application at a time.
``build_step_circuit`` places U's maps (``circuits._step_maps``) as gates
on their own, over ``machine_layout``'s one wire per machine register; it
and ``circuits.build_wrapper_circuit`` enumerate the points each gate moves,
and ``dense_step_circuit`` and ``dense_wrapper_circuit`` build the same gates
the dense way, each register-level map evaluated by
``lift_gate`` on the whole grid of the registers it reads and every entry
it leaves in place dropped. ``least_seen_run`` picks a machine's input word
so that a property sees every outcome (accept, reject, no halt); ``TARGET``
and ``FINAL_TARGET`` are machines whose runs start mid-pass.
``clock.spectral_model`` gives the d-cycle's spectrum in closed form;
``dense_orbit_oracle`` recomputes it numerically from the d x d matrix, as
the independent check of that formula. ``harness.write_samples_csv`` writes
the samples CSV a chunk and a column at a time; ``samples_csv_by_rows``
formats it one row at a time. ``metrology.draw_batch`` draws a chunk of
rows at a time; ``draw_measurements_whole`` makes each draw as one
whole-array call, and ``true_eigenvalues`` gives the true values behind a
seeded batch.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

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
    RegisterLayout,
    _build_layout,
    _machine_field_list,
    _placement,
    _step_maps,
    complete_permutation,
    state_bits,
    tape_register,
    wrapper_layout,
)
from clockobs.clock import ClockedState, ForwardOperator, SpectralModel, cycle_eigenvalue
from clockobs.errors import BudgetExceededError, DimensionError, MachineStepError, PermutationError
from clockobs.metrology import AccuracyModel, SampleBatch, filter_round
from clockobs.rtm import (
    ACCEPT_SYMBOL,
    MachineConfig,
    MovingRule,
    ReadWriteRule,
    RtmSpec,
    RunResult,
    StateKind,
    Transition,
    run_machine,
    step_machine,
)

MOVERS = (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT)
DENSE_ORACLE_CAP = 4096

# Two machines whose runs start mid-pass (``circuits.clock_start``). TARGET's
# initial state p is entered by the moving rule of q, so its runs start just
# after run:move; from 0 it cycles (p, q, p, q, ...) and never halts.
# FINAL_TARGET's initial state p is final and entered by the read-write rules
# of q, so its runs start just after run:rewrite.
TARGET = (
    "states: p:rw q:right h:final\nalphabet: 0 1\ninitial: p\ntape_cells: 2\n"
    "transition: rw (p,0) -> (q,0)\ntransition: rw (p,1) -> (h,1)\ntransition: move q -> p +1\n"
)
FINAL_TARGET = (
    "states: p:final q:rw\nalphabet: 0 1\ninitial: p\ntape_cells: 2\n"
    "transition: rw (q,0) -> (p,1)\ntransition: rw (q,1) -> (p,0)\n"
)


def all_configs(spec: RtmSpec) -> Iterable[MachineConfig]:
    """Every (state, index, tape) configuration, in deterministic order."""
    for state in spec.states:
        for idx in range(1, spec.tape_cells + 1):
            for tape in product(spec.alphabet, repeat=spec.tape_cells):
                yield MachineConfig(state, idx, tape)


def sweep(spec: RtmSpec) -> tuple[int, int]:
    """Step every non-final configuration; return how many have no step
    defined and how many step to a configuration an earlier one reached."""
    images: set[tuple] = set()
    undefined = collisions = 0
    for config in all_configs(spec):
        if spec.kind(config.head_state) is StateKind.FINAL:
            continue
        try:
            nxt = step_machine(spec, config)
        except MachineStepError:
            undefined += 1
            continue
        key = (nxt.head_state, nxt.tape_index, nxt.tape)
        collisions += key in images
        images.add(key)
    return undefined, collisions


def random_machine(rng: random.Random) -> RtmSpec:
    """A small machine (1-6 states, 1-3 symbols, 1-4 cells).

    A third are built reversible: every state is entered either by one
    moving rule or by read-write rules writing distinct symbols, and every
    rule is present. A third are such a machine with one rule dropped or
    retargeted, and a third have every rule drawn at random, so most of
    those collide or are partial.
    """
    alphabet = tuple("012"[: rng.randint(1, 3)])
    names = [f"s{i}" for i in range(rng.randint(1, 6))]
    kinds = [StateKind.READ_WRITE, *MOVERS, StateKind.FINAL]
    states = {name: rng.choice(kinds) for name in names}
    movers = [s for s in names if states[s] in MOVERS]
    writers = [s for s in names if states[s] is StateKind.READ_WRITE]
    reads = [(s, a) for s in writers for a in alphabet]
    mode = rng.choice(("reversible", "mutated", "random"))

    if mode == "random":
        rules: list[Transition] = [
            MovingRule(s, rng.choice(names), +1 if states[s] is StateKind.MOVE_RIGHT else -1)
            for s in movers
            if rng.random() < 0.9
        ]
        rules += [
            ReadWriteRule(s, a, rng.choice(names), rng.choice(alphabet))
            for s, a in reads
            if rng.random() < 0.9
        ]
    else:
        # each state takes either one moving rule or |alphabet| read-write
        # rules; enough of each kind for every rule to have its own image
        order = rng.sample(names, len(names))
        entered_by_writes = order[: len(writers)]
        entered_by_move = order[len(writers) : len(writers) + len(movers)]
        for s in order[len(writers) + len(movers) :]:
            (entered_by_writes if rng.random() < 0.5 else entered_by_move).append(s)
        write_images = rng.sample([(q, b) for q in entered_by_writes for b in alphabet], len(reads))
        move_images = rng.sample(entered_by_move, len(movers))
        rules = [
            MovingRule(s, q, +1 if states[s] is StateKind.MOVE_RIGHT else -1)
            for s, q in zip(movers, move_images)
        ]
        rules += [ReadWriteRule(s, a, q, b) for (s, a), (q, b) in zip(reads, write_images)]
        if mode == "mutated" and rules:
            i = rng.randrange(len(rules))
            rule = rules.pop(i)
            if rng.random() < 0.7:  # retarget it instead of dropping it
                target = rng.choice(names)
                if isinstance(rule, MovingRule):
                    rules.insert(i, MovingRule(rule.source, target, rule.direction))
                else:
                    rules.insert(i, ReadWriteRule(rule.source, rule.read, target, rng.choice(alphabet)))

    return RtmSpec(
        name=f"random-{mode}",
        states=states,
        alphabet=alphabet,
        transitions=tuple(rules),
        initial_state=names[0],
        tape_cells=rng.randint(1, 4),
    )


def least_seen_run(
    spec: RtmSpec, max_steps: int, seen: Counter, outcomes: tuple
) -> tuple[str, RunResult] | None:
    """The input word of length ``tape_cells``, and its run, whose outcome
    (f(x), or None for a run that does not halt within ``max_steps``) is one
    of ``outcomes`` and has the fewest ``seen`` so far; the first such word
    wins. None when no word's run ends in one of ``outcomes``. The spec must
    be reversible, so that every step is defined."""
    runs: dict = {}
    for word in product(spec.alphabet, repeat=spec.tape_cells):
        truth = run_machine(spec, word, max_steps=max_steps)
        runs.setdefault(truth.f_of_x if truth.halted else None, ("".join(word), truth))
    found = [k for k in outcomes if k in runs]
    return runs[min(found, key=lambda k: seen[k])] if found else None


def spec_text(spec: RtmSpec) -> str:
    """``spec`` in the ``.rtm`` format, which ``rtm.parse_rtm_spec`` reads back
    to the same machine."""
    lines = [
        "states: " + " ".join(f"{name}:{kind.value}" for name, kind in spec.states.items()),
        "alphabet: " + " ".join(spec.alphabet),
        f"initial: {spec.initial_state}",
        f"tape_cells: {spec.tape_cells}",
        f"result_cell: {spec.result_cell}",
    ]
    for rule in spec.transitions:
        if isinstance(rule, MovingRule):
            lines.append(f"transition: move {rule.source} -> {rule.target} {rule.direction:+d}")
        else:
            lines.append(
                f"transition: rw ({rule.source},{rule.read}) -> ({rule.target},{rule.write})"
            )
    return "\n".join(lines) + "\n"


def flip_walker(cells: int) -> str:
    """Spec text of ``bench/machines.FLIP3``'s pattern on ``cells`` >= 2
    cells: walk right flipping every cell, walk back to cell 1 and halt.
    Accepts exactly when the input's first bit is 0. It has 3*cells - 1
    states, so m = ceil(log2((3*cells - 1) * cells * 2**(cells + 1)))."""
    states, rules = [], []
    for i in range(cells):
        after = f"w{i + 1}" if i < cells - 1 else f"b{cells - 1}"
        states.append(f"a{i}:rw")
        rules += [f"rw (a{i},0) -> ({after},1)", f"rw (a{i},1) -> ({after},0)"]
        if i < cells - 1:
            states.append(f"w{i + 1}:right")
            rules.append(f"move w{i + 1} -> a{i + 1} +1")
    for i in range(cells - 1, 0, -1):
        states.append(f"b{i}:left")
        rules.append(f"move b{i} -> {f'b{i - 1}' if i > 1 else 'h'} -1")
    lines = [f"states: {' '.join(states)} h:final", "alphabet: 0 1", "initial: a0",
             f"tape_cells: {cells}", "result_cell: 1", *(f"transition: {r}" for r in rules)]
    return "\n".join(lines) + "\n"


def field_table(gate: PermGate) -> np.ndarray:
    """The gate's whole table over its fields, in the dtype of ``gate.moved``:
    the identity with each moved point sent to its image."""
    table = np.arange(math.prod(d for _, _, d in gate.fields), dtype=gate.moved.dtype)
    table[gate.moved] = gate.image
    return table


def _register_table(
    layout: RegisterLayout, registers: Sequence[str], fn: Callable, label: str
) -> np.ndarray:
    """``fn`` evaluated once on every assignment of ``registers``, packed
    mixed radix in the order given."""
    dims = [layout.register_dim(r) for r in registers]
    env = dict(zip(registers, np.indices(dims, sparse=True)))
    changes = fn(dict(env)) or {}
    stray = changes.keys() - env.keys()
    if stray:
        raise PermutationError(f"gate {label}: writes {sorted(stray)}, which it does not name")
    table = 0
    for r, d in zip(registers, dims):
        value = env[r]
        if r in changes:  # the registers it does not write are index arrays, in range
            value = np.asarray(changes[r])
            bad = (value < 0) | (value >= d)
            if bad.any():
                raise DimensionError(f"gate {label}: {r} = {value[bad][0]} is out of range")
        table = table * d + value
    return np.broadcast_to(table, dims).ravel()


def lift_gate(
    layout: RegisterLayout,
    registers: Sequence[str],
    fn: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray] | None],
    label: str,
) -> PermGate:
    """Materialize a register-level map as a permutation gate, densely.

    ``fn`` is called once, with one broadcast index array per register in
    ``registers`` (``np.indices(..., sparse=True)`` over their dims), and
    returns the changed registers as arrays broadcastable against those (or
    None for identity). Other registers sharing their wires ride along
    untouched.
    """
    table = _register_table(layout, registers, fn, label)
    support, dims, fields = _placement(layout, registers)
    return PermGate.from_table(support, dims, table, label, fields)


def _moving_perm(spec: RtmSpec) -> np.ndarray:
    """Permutation of (head, index) pairs, packed ``head * N + index``,
    realizing the moving transitions."""
    sidx, n = spec.state_index, spec.tape_cells
    required = {
        sidx[state] * n + i: sidx[rule.target] * n + (i + rule.direction) % n
        for state, rule in spec.moving_rules.items()
        for i in range(n)
    }
    return complete_permutation(len(spec.states) * n, required)


def _rw_perm(spec: RtmSpec) -> np.ndarray:
    """Permutation of (head, acc) pairs, packed ``head * |alphabet| + acc``,
    realizing the read-write transitions."""
    sidx, aidx, a = spec.state_index, spec.symbol_index, len(spec.alphabet)
    required = {
        sidx[r.source] * a + aidx[r.read]: sidx[r.target] * a + aidx[r.write]
        for r in spec.rw_rules.values()
    }
    return complete_permutation(len(spec.states) * a, required)


def _pair_fn(first: str, second: str, perm: np.ndarray, dim: int) -> Callable:
    """Apply ``perm`` to (first, second) packed as ``first * dim + second``."""
    pair = (first, second)
    return lambda env: dict(zip(pair, np.divmod(perm[env[first] * dim + env[second]], dim)))


def _wall_fn(cell: int) -> Callable:
    """Swap the accumulator with tape cell ``cell`` when the index points at it."""
    reg = tape_register(cell)

    def fn(env):
        here, acc, value = env[R_INDEX] == cell - 1, env[R_ACC], env[reg]
        return {R_ACC: np.where(here, value, acc), reg: np.where(here, acc, value)}

    return fn


def dense_step_maps(spec: RtmSpec) -> list[tuple[str, tuple[str, ...], Callable]]:
    """U as an ordered list of ``(label, registers read, fn)``: the move, the
    swap wall, the rewrite and the mirror swap wall, each ``fn`` on index
    arrays as ``lift_gate`` describes."""

    def wall(tag: str) -> list[tuple[str, tuple[str, ...], Callable]]:
        return [
            (f"{tag}[{i}]", (R_INDEX, R_ACC, tape_register(i)), _wall_fn(i))
            for i in range(1, spec.tape_cells + 1)
        ]

    n, a = spec.tape_cells, len(spec.alphabet)
    move = ("move", (R_HEAD, R_INDEX), _pair_fn(R_HEAD, R_INDEX, _moving_perm(spec), n))
    rewrite = ("rewrite", (R_HEAD, R_ACC), _pair_fn(R_HEAD, R_ACC, _rw_perm(spec), a))
    return [move] + wall("swap") + [rewrite] + wall("swap2")


def dense_bookkeeping_maps(layout: RegisterLayout) -> list[tuple[str, tuple, Callable]]:
    """V's counters, answer copy and mode changes as ``(label, registers read,
    fn)``, each ``fn`` on index arrays as ``lift_gate`` describes."""
    spec, cmax, csize = layout.spec, layout.counter_max, layout.counter_size
    is_final = np.zeros(len(spec.states), bool)
    is_final[[spec.state_index[s] for s in spec.final_states]] = True
    accept = spec.symbol_index.get(ACCEPT_SYMBOL, -1)
    rc_reg = tape_register(spec.result_cell)

    # counter: up in run/pad, down in unwind modes
    def counter_fn(env):
        step = np.where((env[R_MODE] == MODE_RUN) | (env[R_MODE] == MODE_PAD), 1, -1)
        return {R_COUNTER: (env[R_COUNTER] + step) % csize}

    # idle counter: up in pad, down in unwind-pad, held elsewhere
    def idle_fn(env):
        step = np.where(env[R_MODE] == MODE_PAD, 1, 0) - (env[R_MODE] == MODE_UNPAD)
        return {R_IDLE: (env[R_IDLE] + step) % csize}

    # copy the answer: flip solution once per pass
    def solution_fn(env):
        flip = (env[R_MODE] == MODE_PAD) & (env[R_COUNTER] == cmax) & (env[rc_reg] == accept)
        return {R_SOLUTION: env[R_SOLUTION] ^ flip}

    def swap_modes(a, b, cond):
        def fn(env):
            mode = env[R_MODE]
            return {R_MODE: np.where(cond(env) & ((mode == a) | (mode == b)), a + b - mode, mode)}

        return fn

    halted = lambda env: (env[R_IDLE] == 0) & is_final[env[R_HEAD]]  # noqa: E731
    at_top = lambda env: env[R_COUNTER] == cmax  # noqa: E731
    at_zero = lambda env: env[R_COUNTER] == 0  # noqa: E731
    return [
        ("counter", (R_MODE, R_COUNTER), counter_fn),
        ("idle", (R_MODE, R_IDLE), idle_fn),
        ("answer", (R_MODE, R_COUNTER, rc_reg, R_SOLUTION), solution_fn),
    ] + [
        (label, registers, swap_modes(a, b, cond))
        for a, b, registers, cond, label in (
            (MODE_RUN, MODE_PAD, (R_MODE, R_IDLE, R_HEAD), halted, "mode:run<->pad"),
            (MODE_PAD, MODE_UNPAD, (R_MODE, R_COUNTER), at_top, "mode:pad<->unpad"),
            (MODE_UNRUN, MODE_RUN, (R_MODE, R_COUNTER), at_zero, "mode:unrun<->run"),
            (MODE_UNPAD, MODE_UNRUN, (R_MODE, R_IDLE, R_HEAD), halted, "mode:unpad<->unrun"),
        )
    ]


def _lift_under_mode(layout: RegisterLayout, registers, fn: Callable, mode: int,
                     invert: bool, label: str) -> PermGate:
    """``fn`` (or its inverse, with ``invert``) lifted densely over the mode
    register and ``registers``, acting where the mode reads ``mode``."""
    table = _register_table(layout, registers, fn, label)
    size = len(table)
    full = np.arange(4 * size)
    full[mode * size:(mode + 1) * size] = mode * size + (np.argsort(table) if invert else table)
    support, dims, fields = _placement(layout, (R_MODE, *registers))
    return PermGate.from_table(support, dims, full, label, fields)


def machine_layout(spec: RtmSpec) -> RegisterLayout:
    """One wire per machine register: head, tape_index, acc, tape cells."""
    groups = [[f] for f in _machine_field_list(spec)]
    return _build_layout(spec, groups, m=state_bits(spec), merged=False)


def build_step_circuit(spec: RtmSpec) -> Circuit:
    """The step circuit U on its own, over ``machine_layout``: each of
    ``circuits._step_maps`` placed as a gate, as V places them under the run
    mode (move first, then read-write; a move that lands on a read-write
    state performs both in one application)."""
    layout = machine_layout(spec)
    gates = (PermGate(*_placement(layout, regs), moved, image, label)
             for label, regs, moved, image in _step_maps(spec))
    return Circuit(layout=layout, gates=tuple(gates))


def dense_step_circuit(spec: RtmSpec) -> Circuit:
    """``build_step_circuit`` with every gate lifted densely from its
    register-level map."""
    layout = machine_layout(spec)
    gates = (lift_gate(layout, regs, fn, label) for label, regs, fn in dense_step_maps(spec))
    return Circuit(layout=layout, gates=tuple(gates))


def dense_wrapper_circuit(spec: RtmSpec, merge_cells: bool = True) -> Circuit:
    """``circuits.build_wrapper_circuit`` with every gate lifted densely: U's
    maps under the run mode, their inverses in reverse order under the
    unwind-run mode, then the bookkeeping maps. No compile cap."""
    layout = wrapper_layout(spec, merge_cells=merge_cells)
    maps = dense_step_maps(spec)
    gates = [
        _lift_under_mode(layout, regs, fn, MODE_RUN, False, f"run:{label}") for label, regs, fn in maps
    ] + [
        _lift_under_mode(layout, regs, fn, MODE_UNRUN, True, f"unrun:{label}")
        for label, regs, fn in reversed(maps)
    ] + [lift_gate(layout, regs, fn, label) for label, regs, fn in dense_bookkeeping_maps(layout)]
    return Circuit(layout=layout, gates=tuple(gates))


# keyed by gate identity (gates are read-only): one table per gate, not per step
@functools.lru_cache(maxsize=256)
def _gate_table(gate: PermGate, inverse: bool) -> np.ndarray:
    """``field_table(gate)``, or with ``inverse`` the table that undoes it."""
    table = field_table(gate)
    return np.argsort(table) if inverse else table


def _apply_table(fields, table: np.ndarray, values: list[int]) -> None:
    """The field digits of ``values`` packed to i, replaced by ``table[i]``'s."""
    idx = 0
    for w, stride, dim in fields:
        idx = idx * dim + values[w] // stride % dim
    out = table.item(idx)
    for w, stride, dim in reversed(fields):
        if out == idx:
            return
        out, new = divmod(out, dim)
        idx, old = divmod(idx, dim)
        values[w] += (new - old) * stride


def apply_gate(gate: PermGate, values: list[int], inverse: bool = False) -> None:
    """``gate`` (or its inverse) applied to ``values`` in place by a lookup in
    its whole table over its fields, not through ``PermGate.apply_values``."""
    _apply_table(gate.fields, _gate_table(gate, inverse), values)


def apply_forward(op: ForwardOperator, state: ClockedState) -> ClockedState:
    """One step of the forward operator F: apply the gate under the clock and
    advance the excitation (s wraps to 1)."""
    values = list(state.circuit_state.values)
    apply_gate(op.circuit.gates[state.clock_pos - 1], values)
    return ClockedState(BasisState(tuple(values)), state.clock_pos % op.s + 1)


def apply_backward(op: ForwardOperator, state: ClockedState) -> ClockedState:
    """One step of the backward operator F⁻¹: move the excitation back (1
    wraps to s) and undo the gate it lands on, with that gate's inverted
    table."""
    pos = (state.clock_pos - 2) % op.s + 1
    values = list(state.circuit_state.values)
    apply_gate(op.circuit.gates[pos - 1], values, inverse=True)
    return ClockedState(BasisState(tuple(values)), pos)


def orbit_length_by_steps(circuit: Circuit, initial: BasisState) -> int:
    """``circuits.circuit_orbit_length`` one gate application at a time, each
    a lookup in the gate's table as ``apply_gate`` makes it, within the same
    pass budget."""
    max_steps = 16 * circuit.layout.counter_size + 16
    values = list(initial.values)
    start = tuple(values)
    tables = [(gate.fields, _gate_table(gate, False)) for gate in circuit.gates]
    for step in range(1, max_steps + 1):
        for fields, table in tables:
            _apply_table(fields, table, values)
        if tuple(values) == start:
            return step
    raise BudgetExceededError(
        f"no recurrence within {max_steps} applications of the circuit"
    )


def expanded_eigenvalues(model: SpectralModel) -> np.ndarray:
    """All d eigenvalues of ``model`` with multiplicity, ascending."""
    vals: list[float] = []
    for line in model.lines:
        vals.extend([line.eigenvalue] * line.multiplicity)
    return np.sort(np.array(vals))


def dense_orbit_oracle(d: int) -> np.ndarray:
    """Eigenvalues of (C + C^T)/2 for the d x d cyclic shift C, ascending,
    from a dense symmetric eigensolver. Independent check of the closed form."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > DENSE_ORACLE_CAP:
        raise ValueError(f"dimension {d} exceeds the dense-oracle cap {DENSE_ORACLE_CAP}")
    if d == 1:
        return np.array([1.0])
    shift = np.zeros((d, d))
    for i in range(d):
        shift[(i + 1) % d, i] = 1.0
    sym = (shift + shift.T) / 2.0
    return np.linalg.eigvalsh(sym)


def samples_csv_by_rows(batch: SampleBatch) -> str:
    """The text ``harness.write_samples_csv`` writes, one f-string per row."""
    kept, j = filter_round(batch.values, batch.r, batch.s)
    rows = enumerate(zip(batch.values.tolist(), kept.tolist(), j.tolist()))
    return "trial,raw_value,filtered,j,parity\n" + "".join(
        f"{t},{v!r},1,{k},{k % 2}\n" if keep else f"{t},{v!r},0,,\n" for t, (v, keep, k) in rows
    )


def true_eigenvalues(d: int, n: int, seed) -> np.ndarray:
    """The true eigenvalues behind ``metrology.draw_batch(acc, d, n, seed, ...)``:
    the draw takes its n cycle positions first, whatever ``acc`` is."""
    return cycle_eigenvalue(np.random.default_rng(seed).integers(d, size=n), d)


def draw_measurements_whole(
    acc: AccuracyModel, d: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The n outcomes that ``metrology.draw_batch`` draws from ``rng``, with
    every draw made over all n rows."""
    true = cycle_eigenvalue(rng.integers(d, size=n), d)
    failed = rng.random(n) >= acc.success_prob
    outcomes = true + rng.uniform(-acc.delta, acc.delta, n)
    lo, hi = -1.0 - acc.delta, 1.0 + acc.delta
    if acc.failure_mode == "uniform_full_range":
        outcomes[failed] = rng.uniform(lo, hi, np.count_nonzero(failed))
    else:
        sign = np.where(rng.random(np.count_nonzero(failed)) < 0.5, 1.0, -1.0)
        outcomes[failed] = np.clip(true[failed] + sign * 2.0 * acc.delta, lo, hi)
    return outcomes
