"""Clock observable over a permutation circuit.

A circuit with gates V_1..V_s is coupled to a one-hot clock register of s
two-level wires. The forward operator applies the gate selected by the clock
and advances the excitation one position (wrapping s -> 1). Because every
gate permutes basis states, the forward operator permutes (basis state,
clock position) pairs, and the orbit of any initial pair is a cycle of some
length d on which the operator acts as a cyclic shift. The clock is back at
its start only after whole passes over the gates, so d is s times the orbit
length of the circuit (rotated to start at the clock's gate) through the
initial basis state; ``compute_orbit`` walks whole passes to find it.

The observable of interest is the symmetrized operator (forward + backward)/2.
Restricted to a d-cycle its eigenvalues are cos(2*pi*j/d); each non-real
shift eigenvalue pairs up, so cos values for 0 < j < d/2 carry multiplicity 2
while +1 (and -1 for even d) are simple. The cycle's starting vector weights
every shift eigenvector equally, so a measurement on it returns cos(2*pi*j/d)
with probability 2/d (paired) or 1/d (simple), so d alone fixes what a
measurement returns (``cycle_eigenvalue`` is the formula). ``spectral_model``
tabulates it exactly, with rational probabilities; ``tests/oracle.py`` holds
the independent check, a dense eigensolver on the d x d matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuits import BasisState, Circuit, apply_circuit, circuit_orbit_length
from .errors import BudgetExceededError, DimensionError

# Largest cycle ``spectral_model`` tabulates (``clockobs spectrum --d``); its
# d/2 + 1 exact lines take about 3 s and 160 MB at the cap on a 2-vCPU Xeon.
MAX_SPECTRUM_DIM = 1_000_000


@dataclass(frozen=True)
class ClockedState:
    """Circuit basis state plus the one-hot clock position in 1..s."""

    circuit_state: BasisState
    clock_pos: int


@dataclass(frozen=True)
class ForwardOperator:
    """Sum over gates of (gate tensor clock-advance); acts as a permutation
    on valid (state, clock) pairs."""

    circuit: Circuit

    @property
    def s(self) -> int:
        return self.circuit.s


@dataclass(frozen=True)
class Orbit:
    """The cycle of the forward operator through ``initial``; ``dimension``
    is the cycle length d."""

    operator: ForwardOperator
    initial: ClockedState
    dimension: int


def compute_orbit(op: ForwardOperator, initial: ClockedState) -> Orbit:
    """The cycle through ``initial``, found a whole pass at a time.

    The clock returns to its start only after a multiple of s forward
    steps, and s steps apply every gate once, from the gate under the clock
    round to the one before it: the circuit R rotated to start there. With S
    the gates from the clock's on, C^k(Sx) = S R^k(x), so d is s times the
    orbit length of the circuit C itself through Sx: every clock position
    walks C, and on V skips the passes that only count, within
    ``circuit_orbit_length``'s pass budget.
    """
    c, s, start = initial.clock_pos - 1, op.s, initial.circuit_state
    if not 0 <= c < s:
        raise DimensionError(
            f"clock position {initial.clock_pos} outside 1..{s}; "
            "only one-hot clock states are supported"
        )
    if c:
        start = apply_circuit(Circuit(op.circuit.layout, op.circuit.gates[c:]), start)
    return Orbit(op, initial, s * circuit_orbit_length(op.circuit, start))


# ---------------------------------------------------------------------------
# spectrum of the symmetrized shift on a d-cycle

@dataclass(frozen=True)
class SpectralLine:
    index: int  # j in 0..floor(d/2)
    eigenvalue: float  # cos(2*pi*j/d)
    multiplicity: int  # 1 or 2
    probability: Fraction  # 1/d or 2/d


@dataclass(frozen=True)
class SpectralModel:
    dimension: int
    lines: tuple[SpectralLine, ...]


def cycle_eigenvalue(j: int | np.ndarray, d: int) -> float | np.ndarray:
    """cos(2*pi*j/d), the eigenvalue of the symmetrized d-cycle at index j: a
    float, or an array for a 1-D index array. Each distinct index goes through
    ``math.cos``, as numpy's vectorized cos may differ in the last place."""
    if np.ndim(j) == 0:
        return math.cos(2.0 * math.pi * j / d)
    distinct, inverse = np.unique(j, return_inverse=True)
    # the angles round as the scalar branch's do: (2*pi * k) / d
    angles = (2.0 * math.pi * distinct / d).tolist()
    return np.fromiter(map(math.cos, angles), np.float64, len(angles))[inverse]


def spectral_model(d: int) -> SpectralModel:
    """Exact eigenvalue / multiplicity / outcome-probability table for the
    symmetrized d-cycle, as seen from the equal-weight starting vector."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_SPECTRUM_DIM:
        raise BudgetExceededError(f"dimension {d} exceeds the spectrum cap {MAX_SPECTRUM_DIM}")
    lines = []
    for j in range(d // 2 + 1):
        mult = 1 if j == 0 or 2 * j == d else 2  # +1, and -1 when d is even, are simple
        lines.append(SpectralLine(j, cycle_eigenvalue(j, d), mult, Fraction(mult, d)))
    return SpectralModel(dimension=d, lines=tuple(lines))


# ---------------------------------------------------------------------------
# locality

@dataclass(frozen=True)
class LocalityReport:
    term_supports: tuple[int, ...]  # per gate: wires touched + 2 clock wires
    max_support: int


def locality_report(op: ForwardOperator) -> LocalityReport:
    """Each forward term couples one gate to two clock wires, so its support
    is the gate's wire count plus 2."""
    supports = tuple(len(g.support) + 2 for g in op.circuit.gates)
    return LocalityReport(term_supports=supports, max_support=max(supports))
