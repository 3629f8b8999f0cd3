"""Reversible permutation-gate circuits compiled from machine specs.

The single-step circuit U is defined once, as an ordered list of maps, each
the registers it reads and the points of their values that it moves, listed
directly: a move on (head, tape_index), a wall of index-controlled swaps that
fetches the scanned cell into the accumulator, a rewrite on (head,
accumulator), and the mirror wall that writes the cell back. One application
of U performs the current state's transition (a move immediately followed by
a rewrite is fused into the same application).

``build_wrapper_circuit`` builds the self-looping circuit V from the same
list, each map's points built once: at the run mode's digit, then in reverse
order (U^-1) the same points sent back at the unwind-run digit. V
adds a one-bit ``solution`` register, a four-valued ``operation_mode``
register and two width-(m+1) counters, where m is the bit size of the machine
register space. The four modes are:

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
machine's answer; a machine that accepts doubles the cycle (from the pass
position ``clock_start`` gives). A machine with m over ``MAX_REGISTER_BITS``
is refused before any point is built.

Each gate permutes the registers it reads, given and stored as the points it
moves and their images, checked in O(k log k) for k points; the other
registers on its wires ride along, and its wire-level table is computed on
demand. With cell merging on (the default), the mode, head, index,
accumulator, result cell and solution registers share a single qudit wire,
so every emitted gate touches at most two wires.

``circuit_orbit_length`` walks whole passes of a circuit gate by gate
(``PermGate.apply_values``; ``apply_circuit`` applies one pass). On V it adds
each stretch of pad or unwind-pad passes that only step the two counters in
one go, so its cost follows the run and unwind-run passes, not r; there a
gate of the other mode is passed over once it reads the mode. Compiles of one
machine share their gates while any of them is alive (``_shared``).
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import orjson

from .errors import BudgetExceededError, DimensionError, PermutationError
from .rtm import ACCEPT_SYMBOL, MachineConfig, RtmSpec, StateKind
from .rtm import check_config_budget, initial_config

MODE_RUN, MODE_PAD, MODE_UNPAD, MODE_UNRUN = 0, 1, 2, 3

# Size caps. Every cost of V grows as 2**m: the counter points the compile
# builds, the ground-truth budget of counter_size - 2 = 2**(m+1) - 2 steps
# and the orbit walk. At the cap, flip3's pattern on 8 cells builds 1.57M
# points in about 0.1 s, and a machine that never halts is refused after
# 262,142 ground-truth steps in 0.5-0.8 s. Merged flip3's 5.5M wire-level
# entries (37.8 MB) dump in about 0.12 s at a 114 MB peak RSS (2-vCPU Xeon).
MAX_REGISTER_BITS = 17
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
    on (head, tape_index, accumulator, tape). Register values encode states
    and symbols by their position in ``spec``.
    """

    wires: tuple[Wire, ...]
    slots: dict[str, tuple[int, int]]
    m: int
    merged: bool
    spec: RtmSpec

    @property
    def counter_size(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def counter_max(self) -> int:
        return self.counter_size - 1

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

    def basis_state(self, config: MachineConfig) -> BasisState:
        """Machine registers set to ``config``, everything else zero."""
        spec = self.spec
        updates = {R_HEAD: spec.state_index[config.head_state], R_INDEX: config.tape_index - 1}
        for cell, sym in enumerate(config.tape, start=1):
            updates[tape_register(cell)] = spec.symbol_index[sym]
        return self.set_registers(self.zero_state(), updates)

    def initial_basis_state(self, input_word: Sequence[str] | str) -> BasisState:
        """Machine registers loaded with the input, everything else zero."""
        return self.basis_state(initial_config(self.spec, input_word))


class PermGate:
    """A permutation of the joint basis of the wires in ``support``, stored
    as the points it moves in a table over the fields it reads.

    A field is a ``(wire, stride, dim)`` triple naming the digit
    ``values[wire] // stride % dim``. The gate sends the field digits packed
    as ``moved[k]`` (mixed radix over ``fields`` in order) to those packed as
    ``image[k]``; every other digit of the support wires rides along. ``moved``
    must be strictly increasing inside the field space, and ``image`` an
    integer permutation of it that fixes no point: checked in O(k log k) for
    k points, and kept read-only in the smallest unsigned dtype that fits.
    ``apply_values`` drops a point once its leading fields put it outside
    ``[moved[0], moved[-1]]``, and bisects only the rest.
    """

    __slots__ = ("support", "dims", "fields", "moved", "image", "label", "_lookup", "__weakref__")

    def __init__(self, support, dims, fields, moved, image, label: str) -> None:
        support, dims = tuple(support), tuple(dims)
        fields = tuple(tuple(f) for f in fields)
        size = math.prod(d for _, _, d in fields)
        moved, image = np.asarray(moved), np.asarray(image)
        # integer points, sorted and in range, each sent to another of them
        if moved.ndim != 1 or moved.shape != image.shape or len(moved) and (
                moved.dtype.kind not in "biu" or image.dtype.kind not in "biu"
                or moved[0] < 0 or moved[-1] >= size or (image == moved).any()
                or (moved[1:] <= moved[:-1]).any() or (np.sort(image) != moved).any()):
            raise PermutationError(f"gate {label}: not a bijection of its moved points")
        dtype = np.min_scalar_type(size - 1)
        moved, image = moved.astype(dtype), image.astype(dtype)
        moved.flags.writeable = image.flags.writeable = False
        # per field, the range the index packed so far must lie in to reach
        # [first, last] (empty with no points); memoryviews index to Python ints
        first, last = (moved.item(0), moved.item(-1)) if len(moved) else (0, -1)
        radix, steps = size, []
        for w, stride, dim in fields:
            radix //= dim
            steps.append((w, stride, dim, first // radix, last // radix))
        lookup = (tuple(steps), memoryview(moved), memoryview(image))
        # set past the read-only guard, which is for changes after construction
        for name, value in zip(self.__slots__, (support, dims, fields, moved, image, label, lookup)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # memoryviews do not pickle: copies go through the constructor
        return PermGate, (self.support, self.dims, self.fields, self.moved, self.image, self.label)

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"gate attribute {name} is read-only")
        object.__setattr__(self, name, value)

    @classmethod
    def from_table(cls, support, dims, table, label: str, fields=None) -> PermGate:
        """The gate sending packed index i to ``table[i]``, for a table over
        all of ``fields``; without ``fields``, over whole support wires."""
        fields = fields or [(w, 1, d) for w, d in zip(support, dims)]
        table = np.asarray(table)
        if table.shape != (math.prod(d for _, _, d in fields),):
            raise PermutationError(f"gate {label}: table of shape {table.shape} does not fit")
        return cls(support, dims, fields, *_moved(table), label)

    @property
    def table(self) -> np.ndarray:
        """The wire-level table: ``table[i] = j`` maps packed input index i to
        packed output index j, mixed-radix over ``dims``. Computed on each
        access from the moved points, int64 and read-only."""
        # the identity, with the entries that read a moved field point sent
        # to its image: one entry per value of the riding digits, whose
        # wire-level offsets sum over the support wires
        place = {w: math.prod(self.dims[p + 1:]) for p, w in enumerate(self.support)}
        riders = {w: np.arange(d) for w, d in zip(self.support, self.dims)}
        moved, image = self.moved.astype(np.int64), self.image.astype(np.int64)
        radix, src, dst = math.prod(d for _, _, d in self.fields), 0, 0
        for w, stride, dim in self.fields:
            radix //= dim
            riders[w] = riders[w][riders[w] // stride % dim == 0]
            src = src + moved // radix % dim * stride * place[w]
            dst = dst + image // radix % dim * stride * place[w]
        ride = sum(np.ix_(*(v * place[w] for w, v in riders.items()))).ravel()
        table = np.arange(math.prod(self.dims))
        table[(src[:, None] + ride).ravel()] = (dst[:, None] + ride).ravel()
        table.flags.writeable = False
        return table

    def apply_values(self, values: list[int]) -> None:
        steps, moved, image = self._lookup
        idx = 0
        for w, stride, dim, lo, hi in steps:
            idx = idx * dim + values[w] // stride % dim
            if not lo <= idx <= hi:
                return
        k = bisect.bisect_left(moved, idx)  # below len(moved), as idx <= moved[-1]
        if moved[k] != idx:
            return
        out = image[k]
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
    # set by build_wrapper_circuit only, not by the constructor or replace():
    # V's gates in V's order, whose counting passes circuit_orbit_length skips
    wrapper: bool = field(default=False, init=False, compare=False)

    @property
    def s(self) -> int:
        return len(self.gates)


def _checked_values(layout: RegisterLayout, state: BasisState) -> list[int]:
    dims = layout.wire_dims()
    if len(state.values) != len(dims):
        raise DimensionError("state width does not match layout")
    for v, d in zip(state.values, dims):
        if not 0 <= v < d:
            raise DimensionError(f"state value {v} out of range for dimension {d}")
    return list(state.values)


def apply_circuit(circuit: Circuit, state: BasisState) -> BasisState:
    """Apply every gate in order; pure permutation action on basis states."""
    values = _checked_values(circuit.layout, state)
    for gate in circuit.gates:
        gate.apply_values(values)
    return BasisState(tuple(values))


# ---------------------------------------------------------------------------
# layouts

def _machine_field_list(spec: RtmSpec) -> list[tuple[str, int]]:
    check_config_budget(spec)  # the list grows with the tape, so cap it first
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
    return RegisterLayout(wires=tuple(wires), slots=slots, m=m, merged=merged, spec=spec)


def wrapper_layout(spec: RtmSpec, merge_cells: bool = True) -> RegisterLayout:
    """Full layout for the self-looping circuit.

    Merged: one core qudit wire packing (mode, head, index, acc, result cell,
    solution), one wire per remaining tape cell, one counter wire, one idle
    wire. Every wrapper gate then touches at most two wires. Unmerged: one
    wire per register.
    """
    m = state_bits(spec)
    machine = _machine_field_list(spec)  # head, index, acc, tape cells
    counters = [[(R_COUNTER, 2 ** (m + 1))], [(R_IDLE, 2 ** (m + 1))]]
    if merge_cells:
        result = machine[2 + spec.result_cell]
        core = [(R_MODE, 4), *machine[:3], result, (R_SOLUTION, 2)]
        groups = [core] + [[f] for f in machine[3:] if f != result] + counters
    else:
        groups = [[(R_MODE, 4)]] + [[f] for f in machine] + [[(R_SOLUTION, 2)]] + counters
    return _build_layout(spec, groups, m=m, merged=merge_cells)


# ---------------------------------------------------------------------------
# permutation completion and gate placement

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
    domain, taken = np.zeros(size, bool), np.zeros(size, bool)
    domain[src] = taken[dst] = True
    perm[src] = dst
    perm[taken & ~domain] = np.flatnonzero(domain & ~taken)  # displaced points fill the gaps
    return perm


def _placement(layout: RegisterLayout, registers: Sequence[str]) -> tuple[tuple, list, list]:
    """The support, its wire dims and the fields of a gate over ``registers``
    packed in the order given. A register that sits just below the one before
    it on the same wire is read as one field with it."""
    fields: list[tuple[int, int, int]] = []
    for w, stride, dim in map(layout.field, registers):
        if fields and fields[-1][:2] == (w, stride * dim):
            fields[-1] = (w, stride, fields[-1][2] * dim)
        else:
            fields.append((w, stride, dim))
    support = tuple(sorted({w for w, _, _ in fields}))
    return support, [layout.wires[w].dimension for w in support], fields


# ---------------------------------------------------------------------------
# the step circuit U as maps

def _moved(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points a permutation array moves, and their images."""
    moved = np.flatnonzero(perm != np.arange(len(perm)))
    return moved, perm[moved]


def _cell_swap(cell: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Swap the accumulator with tape cell ``cell`` when the index points at
    it: (index, acc, cell) = (cell-1, x, y) <-> (cell-1, y, x) for x != y."""
    xy = np.flatnonzero(~np.eye(a, dtype=bool))  # x * a + y, for x != y
    base = (cell - 1) * a * a
    return base + xy, base + xy % a * a + xy // a


# A map is ``(label, registers read, moved, image)``: the points the map
# moves, strictly increasing, and their images, both packed mixed radix over
# the registers in the order given. Its gate is
# ``PermGate(*_placement(layout, registers), moved, image, label)``.
Map = tuple[str, tuple[str, ...], np.ndarray, np.ndarray]


def _step_maps(spec: RtmSpec) -> list[Map]:
    """U as an ordered list of maps: the move, the swap wall, the rewrite and
    the mirror swap wall, which moves the swap wall's points. The move and
    the rewrite move the points that the machine's rules, completed to
    permutations, move; an irreversible machine fails that completion."""
    sidx, aidx = spec.state_index, spec.symbol_index
    q, n, a = len(spec.states), spec.tape_cells, len(spec.alphabet)
    moves = complete_permutation(q * n, {
        sidx[state] * n + i: sidx[rule.target] * n + (i + rule.direction) % n
        for state, rule in spec.moving_rules.items()
        for i in range(n)
    })
    rewrites = complete_permutation(q * a, {
        sidx[r.source] * a + aidx[r.read]: sidx[r.target] * a + aidx[r.write]
        for r in spec.rw_rules.values()
    })
    swaps = [((R_INDEX, R_ACC, tape_register(i)), *_cell_swap(i, a)) for i in range(1, n + 1)]

    def wall(tag: str) -> list[Map]:
        return [(f"{tag}[{i}]", *swap) for i, swap in enumerate(swaps, start=1)]

    move = ("move", (R_HEAD, R_INDEX), *_moved(moves))
    rewrite = ("rewrite", (R_HEAD, R_ACC), *_moved(rewrites))
    return [move] + wall("swap") + [rewrite] + wall("swap2")


# ---------------------------------------------------------------------------
# self-looping wrapper

def nominal_cycle_length(m: int) -> int:
    """Wrapper cycle length for a rejecting run: 2*(2**(m+1)-1)."""
    return 2 * (2 ** (m + 1) - 1)


def _count_points(steps: dict[int, int], size: int) -> tuple[np.ndarray, np.ndarray]:
    """A counter below ``size`` read after the mode, packed
    ``mode * size + count``, stepped by ``steps[mode]`` modulo ``size``."""
    count = np.arange(size)
    modes = sorted(steps)
    return (np.concatenate([mode * size + count for mode in modes]),
            np.concatenate([mode * size + (count + steps[mode]) % size for mode in modes]))


def _swap_points(a: int, b: int, rest: list[int], size: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes ``a`` and ``b`` exchanged where the registers read after the
    mode, packed below ``size``, hold one of the increasing values ``rest``."""
    lo, hi = sorted((a, b))
    rest = np.asarray(rest, dtype=np.int64)
    return (np.concatenate([lo * size + rest, hi * size + rest]),
            np.concatenate([hi * size + rest, lo * size + rest]))


def _bookkeeping_maps(layout: RegisterLayout) -> list[Map]:
    """V's counters, answer copy and mode changes as maps. The two counters
    move 6*2**(m+1) points between them, most of V's points for any machine
    near the compile cap."""
    spec, cmax, csize = layout.spec, layout.counter_max, layout.counter_size
    # copy the answer: flip solution once per pass, in pad at counter
    # all-ones when the result cell holds the accept symbol (if there is one)
    accept = spec.symbol_index.get(ACCEPT_SYMBOL)
    flip = np.arange(0 if accept is None else 2)
    at = ((MODE_PAD * csize + cmax) * len(spec.alphabet) + (accept or 0)) * 2
    # mode changes as controlled swaps; this order lets a pass close even
    # when the initial state is already final. Each condition is the packed
    # values of the registers after the mode where the swap fires, and the
    # size they pack into: halted is idle = 0 with a final head
    halted = (sorted(spec.state_index[s] for s in spec.final_states), csize * len(spec.states))
    at_top, at_zero = ([cmax], csize), ([0], csize)
    return [
        # counter: up in run/pad, down in unwind modes
        ("counter", (R_MODE, R_COUNTER), *_count_points(
            {MODE_RUN: 1, MODE_PAD: 1, MODE_UNPAD: -1, MODE_UNRUN: -1}, csize)),
        # idle counter: up in pad, down in unwind-pad, held elsewhere. The
        # unwind-run mode must hold it (not decrement) or the next pass would
        # start with a nonzero idle counter and never leave run mode.
        ("idle", (R_MODE, R_IDLE), *_count_points({MODE_PAD: 1, MODE_UNPAD: -1}, csize)),
        ("answer", (R_MODE, R_COUNTER, tape_register(spec.result_cell), R_SOLUTION),
         at + flip, at + flip[::-1]),
    ] + [
        (label, registers, *_swap_points(a, b, *cond))
        for a, b, registers, cond, label in (
            (MODE_RUN, MODE_PAD, (R_MODE, R_IDLE, R_HEAD), halted, "mode:run<->pad"),
            (MODE_PAD, MODE_UNPAD, (R_MODE, R_COUNTER), at_top, "mode:pad<->unpad"),
            (MODE_UNRUN, MODE_RUN, (R_MODE, R_COUNTER), at_zero, "mode:unrun<->run"),
            (MODE_UNPAD, MODE_UNRUN, (R_MODE, R_IDLE, R_HEAD), halted, "mode:unpad<->unrun"),
        )
    ]


def _counting_passes(layout: RegisterLayout) -> Callable[[list[int], tuple], int]:
    """``skip(values, start)`` for V over ``layout``: adds to ``values`` the
    next passes that only count, none past where the counter meets
    ``start``'s, and returns how many. As in ``_bookkeeping_maps``, U and
    U^-1 act in run and unwind-run mode only; from counter c and idle
    counter i, the next min(cmax-1-c, cmax-i) passes in pad mode add 1 to
    both, before the counter reaches all-ones (answer copy, pad<->unpad) or
    the idle counter wraps to 0 (run<->pad), and the next min(c, i-1) in
    unwind-pad mode subtract 1, before the counter wraps to all-ones
    (pad<->unpad) or the idle counter reaches 0 (unpad<->unrun)."""
    (wm, sm, dm), (wc, sc, dc), (wi, si, di) = map(layout.field, (R_MODE, R_COUNTER, R_IDLE))
    cmax = layout.counter_max

    def skip(values: list[int], start: tuple) -> int:
        mode, c, i = values[wm] // sm % dm, values[wc] // sc % dc, values[wi] // si % di
        if mode == MODE_PAD:
            step, passes = 1, min(cmax - 1 - c, cmax - i)
        elif mode == MODE_UNPAD:
            step, passes = -1, min(c, i - 1)
        else:
            return 0
        back = (start[wc] // sc % dc - c) * step  # passes to the start's counter
        passes = max(0, back if 0 < back < passes else passes)
        values[wc] += step * passes * sc
        values[wi] += step * passes * si
        return passes

    return skip


# V's gates that are alive, by content. A gate cannot change, so an equal
# live gate can stand for a new one; the table is weak, so it keeps no gate
# alive, and it holds one small key per live gate. A caller that keeps the
# circuit of every compile of one machine keeps one set of gates.
_live_gates: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(gate: PermGate) -> PermGate:
    """The live gate equal to ``gate``, or ``gate`` itself."""
    points = gate.moved.tobytes() + gate.image.tobytes()
    alive = _live_gates.setdefault((gate.label, gate.support, gate.dims, gate.fields, hash(points)), gate)
    return alive if alive.moved.tobytes() + alive.image.tobytes() == points else gate


def build_wrapper_circuit(spec: RtmSpec, merge_cells: bool = True) -> Circuit:
    """The self-looping circuit V (see the module docstring for the mode
    rules and gate ordering). Raises ``BudgetExceededError`` before any wire
    is built when the machine is over ``rtm.MAX_CONFIG_BITS``, and before any
    map's points are built when its register space needs more than
    ``MAX_REGISTER_BITS`` bits."""
    layout = wrapper_layout(spec, merge_cells=merge_cells)
    if layout.m > MAX_REGISTER_BITS:
        raise BudgetExceededError(
            f"machine needs m = {layout.m} register bits, over the compile cap {MAX_REGISTER_BITS}"
        )

    # the payload is U itself: each map's moved points at the run digit, then
    # U^-1 in reverse order at the unwind-run digit, the same points sent back
    gates, undo = [], []
    for label, regs, moved, image in _step_maps(spec):
        back = moved[np.argsort(image)]  # where each moved point came from
        size = math.prod(map(layout.register_dim, regs))
        run, unrun = MODE_RUN * size, MODE_UNRUN * size
        where = _placement(layout, (R_MODE, *regs))
        gates.append(PermGate(*where, moved + run, image + run, f"run:{label}"))
        undo.append(PermGate(*where, moved + unrun, back + unrun, f"unrun:{label}"))
    gates += reversed(undo)
    gates += [PermGate(*_placement(layout, regs), moved, image, label)
              for label, regs, moved, image in _bookkeeping_maps(layout)]
    circuit = Circuit(layout=layout, gates=tuple(map(_shared, gates)))
    object.__setattr__(circuit, "wrapper", True)
    return circuit


def clock_start(layout: RegisterLayout, input_word: Sequence[str] | str) -> tuple[BasisState, int]:
    """The basis state and clock position (1..s) of V over ``layout`` where
    the input's run starts: before ``run:move`` (1), unless a rule's image
    fills the slot a gate of U needs to hold the initial state fixed. A
    non-moving one that a moving rule enters starts after ``run:move`` (2),
    a final one that a read-write rule enters after ``run:rewrite`` (n + 3),
    with the scanned symbol in acc and 0 in cell 1, as the swap wall leaves
    them."""
    spec, state = layout.spec, layout.initial_basis_state(input_word)
    init, kind = spec.initial_state, spec.kind(spec.initial_state)
    moves_in = any(r.target == init for r in spec.moving_rules.values())
    if moves_in and kind in (StateKind.READ_WRITE, StateKind.FINAL):
        return state, 2
    if kind is StateKind.FINAL and any(r.target == init for r in spec.rw_rules.values()):
        cell = tape_register(1)  # every run starts on cell 1
        fetched = {R_ACC: layout.get_register(state, cell), cell: 0}
        return layout.set_registers(state, fetched), spec.tape_cells + 3
    return state, 1


def circuit_orbit_length(circuit: Circuit, initial: BasisState) -> int:
    """Smallest r >= 1 with circuit^r(initial) == initial, walking whole
    passes gate by gate, except that on V the passes that only count are
    added in one go (``_counting_passes``). Raises ``BudgetExceededError``
    when the walk is past its pass budget, checked between stretches, with
    no recurrence found."""
    # From an input V recurs after r = 2*(counter_size - 1) passes, or 2*r
    # if the machine accepts; 2*r < 4*counter_size, so this budget is more
    # than four times V's longest orbit from an input
    budget = 16 * circuit.layout.counter_size + 16
    values = _checked_values(circuit.layout, initial)
    start = tuple(values)
    skip = _counting_passes(circuit.layout) if circuit.wrapper else None
    steps = 0
    while steps < budget:
        passes = skip(values, start) if skip else 0
        if not passes:
            for gate in circuit.gates:
                gate.apply_values(values)
            passes = 1
        steps += passes
        if tuple(values) == start:
            return steps
    raise BudgetExceededError(f"no recurrence within {budget} applications of the circuit")


# ---------------------------------------------------------------------------
# serialization

DUMP_FORMAT = "clockobs-circuit/1"
_DUMP_JSON_OPTION = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def dump_circuit_json(circuit: Circuit) -> bytes:
    """The circuit as compact JSON with sorted keys and deterministic
    ordering, for inspection and replay: UTF-8 bytes written by orjson in one
    call, each wire-level table from its array without a Python int per
    entry. Raises ``BudgetExceededError`` before building it when the tables
    would exceed ``MAX_DUMP_ENTRIES``."""
    entries = sum(math.prod(g.dims) for g in circuit.gates)
    if entries > MAX_DUMP_ENTRIES:
        raise BudgetExceededError(
            f"dump would hold {entries} gate-table entries, over the cap {MAX_DUMP_ENTRIES}"
        )
    lay = circuit.layout
    return orjson.dumps({
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
            "states": list(lay.spec.states),
            "alphabet": list(lay.spec.alphabet),
            "tape_cells": lay.spec.tape_cells,
            "result_cell": lay.spec.result_cell,
        },
        "gates": [
            {
                "label": g.label,
                "support": list(g.support),
                "dims": list(g.dims),
                "table": g.table,
            }
            for g in circuit.gates
        ],
    }, option=_DUMP_JSON_OPTION)


def dump_circuit(circuit: Circuit) -> dict:
    """``dump_circuit_json`` parsed back into Python objects."""
    return orjson.loads(dump_circuit_json(circuit))


def replay_dump(dump: dict, values: Sequence[int]) -> tuple[int, ...]:
    """Apply a dumped circuit's gate tables to a raw value vector. Each table
    is rebuilt as a ``PermGate``, so one that is not a bijection is rejected."""
    if dump.get("format") != DUMP_FORMAT:
        raise DimensionError(f"unknown dump format {dump.get('format')!r}")
    vals = list(values)
    for g in dump["gates"]:
        PermGate.from_table(g["support"], g["dims"], g["table"], g["label"]).apply_values(vals)
    return tuple(vals)
