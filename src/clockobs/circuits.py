"""Reversible permutation-gate circuits compiled from machine specs.

The single-step circuit U is defined once, as an ordered list of
register-level maps: a move on (head, tape_index), a wall of index-controlled
swaps that fetches the scanned cell into the accumulator, a rewrite on
(head, accumulator), and the mirror wall that writes the cell back.
``build_step_circuit`` lifts that list to gates. One application of U
performs the current state's transition (a move immediately followed by a
rewrite is fused into the same application).

``build_wrapper_circuit`` builds the self-looping circuit V from the same
list: U's maps controlled on the run mode, then the inverted maps in reverse
order (U^-1) controlled on the unwind-run mode. V adds a one-bit
``solution`` register, a four-valued ``operation_mode`` register and two
width-(m+1) counters, where m is the bit size of the machine register space.
The four modes are:

    run (00)         apply U, count up
    pad (01)         count up, pad the pass out to counter = all-ones
    unwind-pad (10)  count down until the idle counter empties
    unwind-run (11)  apply the inverse of U, count down

Mode changes are controlled swaps: run<->pad when the idle counter is empty
and the head is final, pad<->unwind-pad at counter all-ones, unwind-run<->run
at counter zero, unwind-pad<->unwind-run when the idle counter is empty and
the head is final. The solution bit is flipped once per pass, when the mode
is pad, the counter is all-ones, and the result cell holds the accept symbol.
Iterating V therefore returns every register to its initial value after
2*(2**(m+1)-1) applications, except the solution bit which accumulates the
machine's answer; a machine that accepts doubles the cycle.

Each gate is a permutation table over the registers it reads; the other
registers on its wires ride along, and its wire-level table is computed on
demand. With cell merging on (the default), the mode, head, index,
accumulator, result cell and solution registers share a single qudit wire,
so every emitted gate touches at most two wires.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionError, PermutationError
from .rtm import ACCEPT_SYMBOL, RtmSpec, StateKind

MODE_RUN, MODE_PAD, MODE_UNPAD, MODE_UNRUN = 0, 1, 2, 3

# Size caps. Lifting takes about 0.08 us per register-level entry, and a dump
# takes about 50 bytes per wire-level entry while it is built; flip3, the
# largest machine exercised, needs 0.1M and (merged) 5.5M.
MAX_GATE_ENTRIES = 2_000_000
MAX_DUMP_ENTRIES = 6_000_000

# register names used in layouts
R_MODE = "operation_mode"
R_HEAD = "head"
R_INDEX = "tape_index"
R_ACC = "acc"
R_SOLUTION = "solution"
R_COUNTER = "counter"
R_IDLE = "idle_counter"


def tape_register(cell: int) -> str:
    return f"tape_{cell}"


@dataclass(frozen=True)
class Wire:
    """One circuit wire. Merged layouts pack several registers into a single
    qudit wire; ``fields`` records the packed registers, most significant
    first."""

    id: int
    dimension: int
    fields: tuple[str, ...]
    field_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise DimensionError(f"wire {self.id} has dimension {self.dimension} < 2")
        if math.prod(self.field_dims) != self.dimension:
            raise DimensionError(f"wire {self.id} field dims do not multiply out")


@dataclass(frozen=True)
class BasisState:
    """Assignment of one local value per wire."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class RegisterLayout:
    """Wiring plan plus the encodings needed to read and write registers.

    ``slots`` maps each register name to its (wire, field) position. ``m`` is
    ceil(log2) of the state-space size of the registers the step circuit acts
    on (head, tape_index, accumulator, tape).
    """

    wires: tuple[Wire, ...]
    slots: dict[str, tuple[int, int]]
    m: int
    merged: bool
    state_ids: tuple[str, ...]
    alphabet: tuple[str, ...]
    n_cells: int
    result_cell: int
    initial_state: str
    final_states: frozenset[str]

    @property
    def counter_size(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def counter_max(self) -> int:
        return self.counter_size - 1

    @property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.state_ids)}

    @property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    def wire_dims(self) -> tuple[int, ...]:
        return tuple(w.dimension for w in self.wires)

    def field(self, register: str) -> tuple[int, int, int]:
        """Where a register sits: its digit is ``values[wire] // stride % dim``."""
        w, f = self.slots[register]
        dims = self.wires[w].field_dims
        return w, math.prod(dims[f + 1:]), dims[f]

    def register_dim(self, register: str) -> int:
        return self.field(register)[2]

    def get_register(self, state: BasisState, register: str) -> int:
        w, stride, dim = self.field(register)
        return state.values[w] // stride % dim

    def set_registers(self, state: BasisState, updates: dict[str, int]) -> BasisState:
        values = list(state.values)
        for reg, val in updates.items():
            w, stride, dim = self.field(reg)
            if not 0 <= val < dim:
                raise DimensionError(f"value {val} out of range for register {reg}")
            values[w] += (val - values[w] // stride % dim) * stride
        return BasisState(tuple(values))

    def zero_state(self) -> BasisState:
        return BasisState((0,) * len(self.wires))

    def initial_basis_state(self, input_word: Sequence[str] | str) -> BasisState:
        """Machine registers loaded with the input, everything else zero."""
        word = list(input_word)
        if len(word) > self.n_cells:
            raise DimensionError(
                f"input of length {len(word)} exceeds {self.n_cells} tape cells"
            )
        sym = self.symbol_index
        updates = {R_HEAD: self.state_index[self.initial_state], R_INDEX: 0}
        for cell in range(1, self.n_cells + 1):
            s = word[cell - 1] if cell <= len(word) else self.alphabet[0]
            if s not in sym:
                raise DimensionError(
                    f"input symbol {s!r} is not in the alphabet {' '.join(self.alphabet)}"
                )
            updates[tape_register(cell)] = sym[s]
        return self.set_registers(self.zero_state(), updates)


class PermGate:
    """A permutation of the joint basis of the wires in ``support``, stored
    as a table over the fields it reads.

    A field is a ``(wire, stride, dim)`` triple naming the digit
    ``values[wire] // stride % dim``. ``field_table[i] = j`` maps the field
    digits packed as i (mixed radix over ``fields`` in order) to those packed
    as j; every other digit of the support wires rides along unchanged.
    Without ``fields`` each support wire is one whole field, so ``table`` is
    the wire-level table given. The table must be a bijection; it is kept
    read-only, in the smallest unsigned dtype that holds it.
    """

    __slots__ = ("support", "dims", "fields", "field_table", "label")

    def __init__(self, support, dims, table, label: str, fields=None) -> None:
        self.support, self.dims, self.label = tuple(support), tuple(dims), label
        if fields is None:
            fields = [(w, 1, d) for w, d in zip(self.support, self.dims)]
        self.fields = tuple(tuple(f) for f in fields)
        table = np.asarray(table)
        size = math.prod(d for _, _, d in self.fields)
        if len(table) != size:
            raise PermutationError(f"gate {label}: table size {len(table)} != {size}")
        if not np.array_equal(np.sort(table), np.arange(size)):
            raise PermutationError(f"gate {label}: table is not a bijection")
        self.field_table = table.astype(np.min_scalar_type(size - 1))
        self.field_table.flags.writeable = False

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"gate attribute {name} is read-only")
        object.__setattr__(self, name, value)

    @property
    def table(self) -> np.ndarray:
        """The wire-level table: ``table[i] = j`` maps packed input index i to
        packed output index j, mixed-radix over ``dims``. Computed on each
        access and read-only."""
        table = np.arange(math.prod(self.dims), dtype=np.int64)
        place = {w: math.prod(self.dims[pos + 1:]) for pos, w in enumerate(self.support)}
        steps = [(place[w] * stride, dim) for w, stride, dim in self.fields]
        idx = 0
        for step, dim in steps:
            idx = idx * dim + table // step % dim
        out = self.field_table[idx].astype(np.int64)
        for step, dim in reversed(steps):
            out, new = np.divmod(out, dim)
            idx, old = np.divmod(idx, dim)
            table += (new - old) * step
        table.flags.writeable = False
        return table

    def apply_values(self, values: list[int]) -> None:
        idx = 0
        for w, stride, dim in self.fields:
            idx = idx * dim + values[w] // stride % dim
        out = self.field_table.item(idx)
        for w, stride, dim in reversed(self.fields):
            if out == idx:
                return
            out, new = divmod(out, dim)
            idx, old = divmod(idx, dim)
            values[w] += (new - old) * stride


@dataclass(frozen=True)
class Circuit:
    layout: RegisterLayout
    gates: tuple[PermGate, ...]

    @property
    def s(self) -> int:
        return len(self.gates)

    def apply_values(self, values: list[int]) -> None:
        for gate in self.gates:
            gate.apply_values(values)


def apply_circuit(circuit: Circuit, state: BasisState) -> BasisState:
    """Apply every gate in order; pure permutation action on basis states."""
    dims = circuit.layout.wire_dims()
    if len(state.values) != len(dims):
        raise DimensionError("state width does not match layout")
    for v, d in zip(state.values, dims):
        if not 0 <= v < d:
            raise DimensionError(f"state value {v} out of range for dimension {d}")
    values = list(state.values)
    circuit.apply_values(values)
    return BasisState(tuple(values))


# ---------------------------------------------------------------------------
# layouts

def _machine_field_list(spec: RtmSpec) -> list[tuple[str, int]]:
    q = len(spec.states)
    a = len(spec.alphabet)
    fields = [(R_HEAD, q), (R_INDEX, spec.tape_cells), (R_ACC, a)]
    fields += [(tape_register(i), a) for i in range(1, spec.tape_cells + 1)]
    return fields


def state_bits(spec: RtmSpec) -> int:
    space = math.prod(d for _, d in _machine_field_list(spec))
    return max(1, (space - 1).bit_length())  # ceil(log2(space)), at least 1


def _build_layout(
    spec: RtmSpec, groups: list[list[tuple[str, int]]], m: int, merged: bool
) -> RegisterLayout:
    # registers with a single possible value (a one-cell tape index, say)
    # cannot stand as wires of their own; fold them into the first real wire
    def group_dim(group: list[tuple[str, int]]) -> int:
        return math.prod(d for _, d in group)

    trivial = [f for g in groups if group_dim(g) == 1 for f in g]
    groups = [g for g in groups if group_dim(g) >= 2]
    if not groups:
        raise DimensionError("machine state space is trivial; nothing to wire up")
    if trivial:
        groups = [groups[0] + trivial] + groups[1:]

    wires = []
    slots: dict[str, tuple[int, int]] = {}
    for wid, group in enumerate(groups):
        names, dims = zip(*group)
        wires.append(Wire(id=wid, dimension=math.prod(dims), fields=names, field_dims=dims))
        for fidx, (name, _) in enumerate(group):
            if name in slots:
                raise DimensionError(f"register {name} assigned twice")
            slots[name] = (wid, fidx)
    return RegisterLayout(
        wires=tuple(wires),
        slots=slots,
        m=m,
        merged=merged,
        state_ids=tuple(spec.states),
        alphabet=spec.alphabet,
        n_cells=spec.tape_cells,
        result_cell=spec.result_cell,
        initial_state=spec.initial_state,
        final_states=spec.final_states,
    )


def machine_layout(spec: RtmSpec) -> RegisterLayout:
    """One wire per machine register: head, tape_index, acc, tape cells."""
    groups = [[f] for f in _machine_field_list(spec)]
    return _build_layout(spec, groups, m=state_bits(spec), merged=False)


def wrapper_layout(spec: RtmSpec, merge_cells: bool = True) -> RegisterLayout:
    """Full layout for the self-looping circuit.

    Merged: one core qudit wire packing (mode, head, index, acc, result cell,
    solution), one wire per remaining tape cell, one counter wire, one idle
    wire. Every wrapper gate then touches at most two wires. Unmerged: one
    wire per register.
    """
    m = state_bits(spec)
    q = len(spec.states)
    a = len(spec.alphabet)
    counter_dim = 2 ** (m + 1)
    rc = spec.result_cell

    if merge_cells:
        core = [
            (R_MODE, 4),
            (R_HEAD, q),
            (R_INDEX, spec.tape_cells),
            (R_ACC, a),
            (tape_register(rc), a),
            (R_SOLUTION, 2),
        ]
        groups = [core]
        groups += [
            [(tape_register(i), a)]
            for i in range(1, spec.tape_cells + 1)
            if i != rc
        ]
        groups += [[(R_COUNTER, counter_dim)], [(R_IDLE, counter_dim)]]
    else:
        groups = [[(R_MODE, 4)], [(R_HEAD, q)], [(R_INDEX, spec.tape_cells)], [(R_ACC, a)]]
        groups += [[(tape_register(i), a)] for i in range(1, spec.tape_cells + 1)]
        groups += [[(R_SOLUTION, 2)], [(R_COUNTER, counter_dim)], [(R_IDLE, counter_dim)]]
    return _build_layout(spec, groups, m=m, merged=merge_cells)


# ---------------------------------------------------------------------------
# permutation completion and gate lifting

def complete_permutation(size: int, required: dict[int, int]) -> np.ndarray:
    """Extend a partial injective map on ``range(size)`` to a permutation array.

    Points outside the required domain keep their identity image whenever it
    is still free; the remaining domain and range are matched in increasing
    order. Raises if the required entries already collide.
    """
    images: dict[int, int] = {}
    for k, v in required.items():
        if v in images:
            raise PermutationError(
                f"entries {images[v]} and {k} share the image {v}; machine is not reversible"
            )
        if not (0 <= k < size and 0 <= v < size):
            raise PermutationError(f"required entry {k}->{v} leaves the universe")
        images[v] = k
    perm = np.arange(size)
    src, dst = list(required), list(required.values())
    domain, taken = np.isin(perm, src), np.isin(perm, dst)
    perm[src] = dst
    perm[taken & ~domain] = np.flatnonzero(domain & ~taken)  # displaced points fill the gaps
    return perm


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
    env.update(changes)
    table = 0
    for r, d in zip(registers, dims):
        value = np.asarray(env[r])
        bad = (value < 0) | (value >= d)
        if bad.any():
            raise DimensionError(f"gate {label}: {r} = {value[bad][0]} is out of range")
        table = table * d + value
    return np.broadcast_to(table, dims).ravel()


def _gate_from_table(
    layout: RegisterLayout, registers: Sequence[str], table: np.ndarray, label: str
) -> PermGate:
    """The gate for a permutation table over ``registers`` (packed in the
    order given). A register that sits just below the one before it on the
    same wire is read as one field with it."""
    fields: list[tuple[int, int, int]] = []
    for w, stride, dim in map(layout.field, registers):
        if fields and fields[-1][:2] == (w, stride * dim):
            fields[-1] = (w, stride, fields[-1][2] * dim)
        else:
            fields.append((w, stride, dim))
    support = tuple(sorted({w for w, _, _ in fields}))
    return PermGate(support, [layout.wires[w].dimension for w in support], table, label, fields)


def lift_gate(
    layout: RegisterLayout,
    registers: Sequence[str],
    fn: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray] | None],
    label: str,
) -> PermGate:
    """Materialize a register-level map as a permutation gate.

    ``fn`` is called once, with one broadcast index array per register in
    ``registers`` (``np.indices(..., sparse=True)`` over their dims), and
    returns the changed registers as arrays broadcastable against those (or
    None for identity). Other registers sharing their wires ride along
    untouched.
    """
    table = _register_table(layout, registers, fn, label)
    return _gate_from_table(layout, registers, table, label)


# ---------------------------------------------------------------------------
# the step circuit U as register-level maps

def _moving_perm(spec: RtmSpec) -> np.ndarray:
    """Permutation of (head, index) pairs, packed ``head * N + index``,
    realizing the moving transitions.

    Rule images take priority; states left untouched keep their identity when
    no rule image collides with it, and the leftovers are matched canonically
    so the table stays a bijection.
    """
    sidx = {s: i for i, s in enumerate(spec.states)}
    n = spec.tape_cells
    required = {
        sidx[state] * n + i: sidx[rule.target] * n + (i + rule.direction) % n
        for state, rule in spec.moving_rules.items()
        for i in range(n)
    }
    return complete_permutation(len(spec.states) * n, required)


def _rw_perm(spec: RtmSpec) -> np.ndarray:
    """Permutation of (head, acc) pairs, packed ``head * |alphabet| + acc``,
    realizing the read-write transitions."""
    sidx = {s: i for i, s in enumerate(spec.states)}
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    a = len(spec.alphabet)
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


def _step_maps(spec: RtmSpec) -> list[tuple[str, tuple[str, ...], Callable]]:
    """U as an ordered list of ``(label, registers read, fn)``: the move, the
    swap wall, the rewrite and the mirror swap wall. ``fn`` takes index arrays
    over the registers it reads and returns the changed ones, as
    ``lift_gate`` describes."""

    def wall(tag: str) -> list[tuple[str, tuple[str, ...], Callable]]:
        return [
            (f"{tag}[{i}]", (R_INDEX, R_ACC, tape_register(i)), _wall_fn(i))
            for i in range(1, spec.tape_cells + 1)
        ]

    n, a = spec.tape_cells, len(spec.alphabet)
    move = ("move", (R_HEAD, R_INDEX), _pair_fn(R_HEAD, R_INDEX, _moving_perm(spec), n))
    rewrite = ("rewrite", (R_HEAD, R_ACC), _pair_fn(R_HEAD, R_ACC, _rw_perm(spec), a))
    return [move] + wall("swap") + [rewrite] + wall("swap2")


def _guard_initial_state(spec: RtmSpec) -> None:
    """The move gate can only hold a non-moving state fixed when no moving
    rule lands on it (rule images occupy those table slots). The initial
    state sits at an application boundary, so reject machines whose initial
    state the circuit could not keep faithful."""
    init = spec.initial_state
    kind = spec.kind(init)
    if kind in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT):
        return
    if any(r.target == init for r in spec.moving_rules.values()):
        raise PermutationError(
            f"initial state {init!r} is the target of a moving rule; "
            "the step circuit cannot hold it fixed at an application boundary"
        )
    if kind is StateKind.FINAL and any(
        r.target == init for r in spec.rw_rules.values()
    ):
        raise PermutationError(
            f"initial final state {init!r} is the target of a read-write rule; "
            "the step circuit cannot hold it fixed at an application boundary"
        )


def build_step_circuit(spec: RtmSpec) -> Circuit:
    """Circuit for one machine transition (move first, then read-write; a
    move that lands on a read-write state performs both in one application)."""
    _guard_initial_state(spec)
    layout = machine_layout(spec)
    gates = (lift_gate(layout, regs, fn, label) for label, regs, fn in _step_maps(spec))
    return Circuit(layout=layout, gates=tuple(gates))


# ---------------------------------------------------------------------------
# self-looping wrapper

def _controlled_gate(
    layout: RegisterLayout, mode_value: int, label: str, registers: tuple, table: np.ndarray
) -> PermGate:
    """The gate on (mode, registers) that applies ``table`` in one mode and
    the identity in the others."""
    n = len(table)
    full = np.arange(4 * n)
    full[mode_value * n:(mode_value + 1) * n] = table + mode_value * n
    return _gate_from_table(layout, (R_MODE, *registers), full, label)


def nominal_cycle_length(m: int) -> int:
    """Wrapper cycle length for a rejecting run: 2*(2**(m+1)-1)."""
    return 2 * (2 ** (m + 1) - 1)


def _bookkeeping_maps(spec: RtmSpec, layout: RegisterLayout) -> list[tuple[str, tuple, Callable]]:
    """V's counters, answer copy and mode changes as ``(label, registers read,
    fn)``, each ``fn`` on index arrays as ``lift_gate`` describes."""
    cmax = layout.counter_max
    csize = layout.counter_size
    final_idx = [layout.state_index[s] for s in layout.final_states]
    accept = layout.symbol_index.get(ACCEPT_SYMBOL, -1)
    rc_reg = tape_register(spec.result_cell)

    # counter: up in run/pad, down in unwind modes
    def counter_fn(env):
        step = np.where(np.isin(env[R_MODE], (MODE_RUN, MODE_PAD)), 1, -1)
        return {R_COUNTER: (env[R_COUNTER] + step) % csize}

    # idle counter: up in pad, down in unwind-pad, held elsewhere. The
    # unwind-run mode must hold it (not decrement) or the next pass would
    # start with a nonzero idle counter and never leave run mode.
    def idle_fn(env):
        step = np.where(env[R_MODE] == MODE_PAD, 1, 0) - (env[R_MODE] == MODE_UNPAD)
        return {R_IDLE: (env[R_IDLE] + step) % csize}

    # copy the answer: flip solution once per pass
    def solution_fn(env):
        flip = (env[R_MODE] == MODE_PAD) & (env[R_COUNTER] == cmax) & (env[rc_reg] == accept)
        return {R_SOLUTION: env[R_SOLUTION] ^ flip}

    # mode changes as controlled swaps; this order lets a pass close even
    # when the initial state is already final
    def swap_modes(a, b, cond):
        def fn(env):
            mode = env[R_MODE]
            return {R_MODE: np.where(cond(env) & np.isin(mode, (a, b)), a + b - mode, mode)}

        return fn

    halted = lambda env: (env[R_IDLE] == 0) & np.isin(env[R_HEAD], final_idx)  # noqa: E731
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


def check_gate_budget(spec: RtmSpec, layout: RegisterLayout) -> None:
    """Raise ``BudgetExceededError`` when V's register-level tables on
    ``layout`` would hold more than ``MAX_GATE_ENTRIES`` entries."""
    read = [(R_MODE, *regs) for _, regs, _ in _step_maps(spec)] * 2
    read += [regs for _, regs, _ in _bookkeeping_maps(spec, layout)]
    entries = sum(math.prod(map(layout.register_dim, regs)) for regs in read)
    if entries > MAX_GATE_ENTRIES:
        raise BudgetExceededError(
            f"wrapper circuit needs {entries} gate-table entries, "
            f"over the compile cap {MAX_GATE_ENTRIES}"
        )


def build_wrapper_circuit(spec: RtmSpec, merge_cells: bool = True) -> Circuit:
    """The self-looping circuit V (see the module docstring for the mode
    rules and gate ordering). Raises ``BudgetExceededError`` before lifting
    when its register-level tables would exceed ``MAX_GATE_ENTRIES``."""
    _guard_initial_state(spec)
    layout = wrapper_layout(spec, merge_cells=merge_cells)
    check_gate_budget(spec, layout)
    maps = _step_maps(spec)
    bookkeeping = _bookkeeping_maps(spec, layout)

    # the payload is U itself: its maps controlled on run, then U^-1 (each
    # map's table inverted, in reverse order) controlled on unwind-run
    tables = [(label, regs, _register_table(layout, regs, fn, label)) for label, regs, fn in maps]
    gates = [
        _controlled_gate(layout, MODE_RUN, f"run:{label}", regs, t) for label, regs, t in tables
    ]
    gates += [
        _controlled_gate(layout, MODE_UNRUN, f"unrun:{label}", regs, np.argsort(t))
        for label, regs, t in reversed(tables)
    ]
    gates += [lift_gate(layout, regs, fn, label) for label, regs, fn in bookkeeping]
    return Circuit(layout=layout, gates=tuple(gates))


def circuit_orbit_length(
    circuit: Circuit, initial: BasisState, max_steps: int | None = None
) -> int:
    """Smallest r >= 1 with circuit^r(initial) == initial, by traversal."""
    if max_steps is None:
        max_steps = 16 * circuit.layout.counter_size + 16
    values = list(initial.values)
    start = tuple(values)
    for step in range(1, max_steps + 1):
        circuit.apply_values(values)
        if tuple(values) == start:
            return step
    raise BudgetExceededError(
        f"no recurrence within {max_steps} applications of the circuit"
    )


# ---------------------------------------------------------------------------
# serialization

DUMP_FORMAT = "clockobs-circuit/1"


def dump_circuit(circuit: Circuit) -> dict:
    """JSON-ready dump with deterministic ordering, for inspection and replay.
    Raises ``BudgetExceededError`` before building it when the wire-level
    tables would exceed ``MAX_DUMP_ENTRIES``."""
    entries = sum(math.prod(g.dims) for g in circuit.gates)
    if entries > MAX_DUMP_ENTRIES:
        raise BudgetExceededError(
            f"dump would hold {entries} gate-table entries, over the cap {MAX_DUMP_ENTRIES}"
        )
    lay = circuit.layout
    return {
        "format": DUMP_FORMAT,
        "header": {
            "merged_cells": lay.merged,
            "m": lay.m,
            "counter_size": lay.counter_size,
            # rule choice: the unwind-run mode holds the idle counter at its
            # current value instead of decrementing it
            "unwind_run_idle_policy": "hold",
        },
        "layout": {
            "wires": [
                {
                    "id": w.id,
                    "dimension": w.dimension,
                    "fields": list(w.fields),
                    "field_dims": list(w.field_dims),
                }
                for w in lay.wires
            ],
            "registers": {name: list(slot) for name, slot in sorted(lay.slots.items())},
            "states": list(lay.state_ids),
            "alphabet": list(lay.alphabet),
            "tape_cells": lay.n_cells,
            "result_cell": lay.result_cell,
        },
        "gates": [
            {
                "label": g.label,
                "support": list(g.support),
                "dims": list(g.dims),
                "table": g.table.tolist(),
            }
            for g in circuit.gates
        ],
    }


def dump_circuit_json(circuit: Circuit) -> str:
    return json.dumps(dump_circuit(circuit), sort_keys=True, indent=None, separators=(",", ":"))


def replay_dump(dump: dict, values: Sequence[int]) -> tuple[int, ...]:
    """Apply a dumped circuit's gate tables to a raw value vector. Each table
    is rebuilt as a ``PermGate``, so one that is not a bijection is rejected."""
    if dump.get("format") != DUMP_FORMAT:
        raise DimensionError(f"unknown dump format {dump.get('format')!r}")
    vals = list(values)
    for g in dump["gates"]:
        PermGate(g["support"], g["dims"], np.asarray(g["table"]), g["label"]).apply_values(vals)
    return tuple(vals)
