"""Test-only references: an exhaustive reversibility sweep with a seeded
generator of small machines to run it on (``spec_text`` writes one as spec
text, for the commands that read a file), a step-by-step forward operator
and a gate-by-gate orbit walk, and a dense eigensolver for the clock
spectrum.

``rtm.check_reversibility`` decides reversibility from the transition rules;
the sweep here decides it by stepping every configuration with
``rtm.step_machine``, so the two can be compared machine by machine.
``clock.compute_orbit`` and ``circuits.circuit_orbit_length`` walk whole
passes as generated code; ``apply_forward`` takes one forward step of the
clocked circuit, ``apply_backward`` one step of its inverse, built from each
gate's inverted table, and ``orbit_length_by_steps`` walks passes one
``PermGate.apply_values`` at a time.
``PermGate`` keeps only the points its table moves; ``field_table``
rebuilds the whole table over its fields from them.
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
from itertools import product
from typing import Iterable

import numpy as np

from clockobs.circuits import BasisState, Circuit, PermGate
from clockobs.clock import ClockedState, ForwardOperator, SpectralModel, cycle_eigenvalue
from clockobs.errors import BudgetExceededError, MachineStepError
from clockobs.metrology import AccuracyModel, SampleBatch, filter_round
from clockobs.rtm import (
    MachineConfig,
    MovingRule,
    ReadWriteRule,
    RtmSpec,
    StateKind,
    Transition,
    step_machine,
)

MOVERS = (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT)
DENSE_ORACLE_CAP = 4096


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


def field_table(gate: PermGate) -> np.ndarray:
    """The gate's whole table over its fields, in the dtype of ``gate.moved``:
    the identity with each moved point sent to its image."""
    table = np.arange(math.prod(d for _, _, d in gate.fields), dtype=gate.moved.dtype)
    table[gate.moved] = gate.image
    return table


def apply_forward(op: ForwardOperator, state: ClockedState) -> ClockedState:
    """One step of the forward operator F: apply the gate under the clock and
    advance the excitation (s wraps to 1)."""
    gate = op.circuit.gates[state.clock_pos - 1]
    values = list(state.circuit_state.values)
    gate.apply_values(values)
    return ClockedState(BasisState(tuple(values)), state.clock_pos % op.s + 1)


# keyed by gate identity (gates are read-only): one inversion per gate, not per step
@functools.lru_cache(maxsize=64)
def _inverse_gate(gate: PermGate) -> PermGate:
    """The gate that undoes ``gate``: its table over its fields, inverted."""
    inverse = np.argsort(field_table(gate))
    return PermGate.from_table(gate.support, gate.dims, inverse, gate.label, gate.fields)


def apply_backward(op: ForwardOperator, state: ClockedState) -> ClockedState:
    """One step of the backward operator F⁻¹: move the excitation back (1
    wraps to s) and undo the gate it lands on, with that gate's inverted
    table."""
    pos = (state.clock_pos - 2) % op.s + 1
    values = list(state.circuit_state.values)
    _inverse_gate(op.circuit.gates[pos - 1]).apply_values(values)
    return ClockedState(BasisState(tuple(values)), pos)


def orbit_length_by_steps(
    circuit: Circuit, initial: BasisState, max_steps: int | None = None
) -> int:
    """``circuits.circuit_orbit_length`` one gate application at a time."""
    if max_steps is None:
        max_steps = 16 * circuit.layout.counter_size + 16
    values = list(initial.values)
    start = tuple(values)
    for step in range(1, max_steps + 1):
        for gate in circuit.gates:
            gate.apply_values(values)
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
