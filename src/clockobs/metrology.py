"""Accuracy-limited measurement model and the parity decision procedure.

An accuracy-delta measurement promises that an outcome lands within delta of
the true eigenvalue with probability at least 3/4. The shipped model draws a
true eigenvalue of the orbit's d-cycle with its exact weight (d alone fixes
the spectrum), then either reports it plus uniform noise inside the window
(success, probability >= 3/4) or emits a failure-mode outcome.

The decision statistic: keep outcomes with |E| <= 1/sqrt(2), round arccos(E)
to the nearest multiple of pi/(r*s), and tally how often the grid index is
odd. An accepting machine populates odd and even indices alike (odd fraction
at least 3/8 in the kept band); a rejecting machine populates only even ones
(odd fraction at most 1/4, from measurement failures alone). Thresholding the
odd fraction at 5/16 decides the answer, with a standard exponential
(Hoeffding) bound on the misclassification probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .clock import cycle_eigenvalue
from .errors import BudgetExceededError

FILTER_BAND = 1.0 / math.sqrt(2.0)
DECISION_THRESHOLD = 5.0 / 16.0  # midway between 3/8 and 1/4
MIN_FILTERED = 32
PROBABILITY_GAP = 1.0 / 8.0  # 3/8 - 1/4
PHASE_ANCILLA_CAP = 14
# Most measurements one run draws (``--samples``, samples_per_batch * batch_count,
# phase-estimate ``--samples``); at the cap a batch holds about 64 MB of floats.
MAX_SAMPLES = 2_000_000

FAILURE_MODES = ("uniform_full_range", "adversarial_offset")


@dataclass(frozen=True)
class AccuracyModel:
    """Measurement with accuracy ``delta``: outcomes land in
    [true - delta, true + delta] with probability >= success_prob >= 3/4."""

    delta: float
    success_prob: float = 0.75
    failure_mode: str = "uniform_full_range"

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not 0.75 <= self.success_prob <= 1.0:
            raise ValueError(
                f"success_prob must lie in [3/4, 1], got {self.success_prob}"
            )
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode {self.failure_mode!r}")


@dataclass(frozen=True)
class SampleBatch:
    values: tuple[float, ...]
    model: AccuracyModel
    r: int  # the decision grid is pi/(r*s)
    s: int


@dataclass(frozen=True)
class DecisionResult:
    verdict: int  # estimate of the machine's answer bit
    filtered_count: int
    odd_fraction: float
    threshold: float
    confidence_bound: float
    inconclusive: bool


def check_sample_budget(n: int) -> None:
    """Refuse a run that would draw more than ``MAX_SAMPLES`` measurements."""
    if n > MAX_SAMPLES:
        raise BudgetExceededError(f"{n} samples exceed the cap {MAX_SAMPLES}")


def sample_exact(d: int, rng: np.random.Generator) -> float:
    """Draw an eigenvalue of the d-cycle with its exact outcome probability.

    A uniform position u on the d-cycle gives cos(2*pi*u/d), which reproduces
    the (1/d, 2/d) weights because u and d-u fold onto the same value.
    """
    return cycle_eigenvalue(int(rng.integers(d)), d)


def draw_measurement(
    acc: AccuracyModel, d: int, rng: np.random.Generator
) -> tuple[float, float]:
    """One accuracy-limited measurement; returns (outcome, true eigenvalue)."""
    true = sample_exact(d, rng)
    if rng.random() < acc.success_prob:
        noise = rng.uniform(-acc.delta, acc.delta) if acc.delta > 0 else 0.0
        return true + noise, true
    lo, hi = -1.0 - acc.delta, 1.0 + acc.delta
    if acc.failure_mode == "uniform_full_range":
        return rng.uniform(lo, hi), true
    # adversarial offset: land just outside the accuracy window
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return min(hi, max(lo, true + sign * 2.0 * acc.delta)), true


def draw_batch(acc: AccuracyModel, d: int, n: int, seed, r: int, s: int) -> SampleBatch:
    """n reproducible measurements on the d-cycle; the seed fully determines
    the batch."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return SampleBatch(tuple(draw_measurement(acc, d, rng)[0] for _ in range(n)), acc, r, s)


def filter_round(value: float, r: int, s: int) -> tuple[int, int] | None:
    """Band-filter and round one outcome.

    Returns None when |value| exceeds 1/sqrt(2). Otherwise clamps into
    [-1, 1], takes the principal arccos, and returns (j, parity) where j
    minimizes |arccos(value) - pi*j/(r*s)|.
    """
    if r < 1 or s < 1:
        raise ValueError("r and s must be >= 1")
    if abs(value) > FILTER_BAND:
        return None
    clamped = min(1.0, max(-1.0, value))
    theta = math.acos(clamped)
    step = math.pi / (r * s)
    j = int(round(theta / step))
    return j, j % 2


def chernoff_confidence(filtered_count: int, gap: float) -> float:
    """Hoeffding bound exp(-2 n (gap/2)^2) on misclassifying a Bernoulli mean
    across a probability gap when thresholding at the midpoint."""
    if filtered_count < 0:
        raise ValueError("filtered_count must be >= 0")
    if not 0.0 < gap < 1.0:
        raise ValueError(f"gap must lie in (0,1), got {gap}")
    return math.exp(-2.0 * filtered_count * (gap / 2.0) ** 2)


def decide(batch: SampleBatch) -> DecisionResult:
    """Filter, round to the batch's grid, and threshold the odd fraction of
    the grid indices."""
    if not batch.values:
        raise ValueError("batch is empty")
    r, s = batch.r, batch.s
    parities = [fr[1] for fr in (filter_round(v, r, s) for v in batch.values) if fr is not None]
    kept, odd = len(parities), sum(parities)
    odd_fraction = odd / kept if kept else 0.0
    verdict = int(odd_fraction > DECISION_THRESHOLD)
    return DecisionResult(
        verdict=verdict,
        filtered_count=kept,
        odd_fraction=odd_fraction,
        threshold=DECISION_THRESHOLD,
        confidence_bound=chernoff_confidence(kept, PROBABILITY_GAP),
        inconclusive=kept < MIN_FILTERED,
    )


# ---------------------------------------------------------------------------
# phase estimation with m ancillas

@dataclass(frozen=True)
class PhaseEstimationSetup:
    """Spectral data fed to the ancilla-register readout circuit: eigenphases
    in [0,1) and the input vector's amplitude on each eigenvector."""

    m: int
    eigenphases: tuple[float, ...]
    amplitudes: tuple[complex, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one ancilla")
        if self.m > PHASE_ANCILLA_CAP:
            raise ValueError(f"m={self.m} exceeds the cap {PHASE_ANCILLA_CAP}")
        if not self.eigenphases:
            raise ValueError("need at least one eigenphase")
        amps = self.amplitudes
        if not amps:
            amps = tuple(1.0 / math.sqrt(len(self.eigenphases)) for _ in self.eigenphases)
            object.__setattr__(self, "amplitudes", amps)
        if len(amps) != len(self.eigenphases):
            raise ValueError("amplitudes and eigenphases must align")
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"input amplitudes not normalized (|.|^2 sums to {norm})")


def phase_estimate_distribution(setup: PhaseEstimationSetup) -> np.ndarray:
    """Exact outcome distribution over j in [0, 2^m).

    Per eigenphase phi the ancilla register, prepared in the equal
    superposition, picks up phases e^{2 pi i phi y} from the controlled
    powers; the size-2^m Fourier transform concentrates the readout near
    j ~ 2^m phi with the squared Dirichlet kernel
    P(j) = (sin(M pi delta) / (M sin(pi delta)))^2, delta = phi - j/M.
    Orthogonal eigenvector components mix classically by |amplitude|^2.
    """
    size = 2**setup.m
    j = np.arange(size)
    total = np.zeros(size)
    for phi, amp in zip(setup.eigenphases, setup.amplitudes):
        delta = (phi % 1.0) - j / size
        # |delta| < 1 here, so sinc(delta) never vanishes and the
        # delta -> 0 limit (a point mass) comes out exactly
        kernel = (np.sinc(size * delta) / np.sinc(delta)) ** 2
        total += (abs(amp) ** 2) * kernel
    return total


def sample_phase_estimate(
    setup: PhaseEstimationSetup, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n readouts drawn from the exact distribution in one call; the same
    draws as n single-readout draws from ``rng``."""
    check_sample_budget(n)
    probs = phase_estimate_distribution(setup)
    return rng.choice(len(probs), size=n, p=probs / probs.sum())
