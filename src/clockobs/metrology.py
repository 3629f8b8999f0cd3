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
# phase-estimate ``--samples``); at the cap a batch holds 16 MB of floats, and
# a ``sample`` or ``decide`` run peaks at about 55 MB RSS (2-vCPU Xeon,
# Python 3.11).
MAX_SAMPLES = 2_000_000
# Rows drawn, tallied or written per step: beyond the one array of samples,
# drawing, deciding and writing samples.csv hold about one chunk.
CHUNK_ROWS = 8192

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
    """Measurement outcomes, stored as a read-only float64 array. ``batches``
    equal runs of consecutive values were drawn under separate seeds."""

    values: np.ndarray
    model: AccuracyModel
    r: int  # the decision grid is pi/(r*s)
    s: int
    batches: int = 1

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.flags.writeable:  # keep a copy; a read-only array is kept as it is
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DecisionResult:
    verdict: int  # estimate of the machine's answer bit
    filtered_count: int
    odd_fraction: float
    threshold: float
    confidence_bound: float
    inconclusive: bool
    batch_kept: tuple[int, ...]  # kept count of each pooled batch
    batch_odd_fraction: tuple[float, ...]


def check_sample_budget(n: int) -> None:
    """Refuse a run that would draw more than ``MAX_SAMPLES`` measurements."""
    if n > MAX_SAMPLES:
        raise BudgetExceededError(f"{n} samples exceed the cap {MAX_SAMPLES}")


def draw_measurements(
    acc: AccuracyModel, d: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n accuracy-limited measurements on the d-cycle, as the arrays (outcomes,
    true eigenvalues). A uniform position u gives the true value cos(2*pi*u/d)
    with its exact (1/d, 2/d) weight, because u and d-u fold onto one value."""
    outcomes, true = np.empty(n), np.empty(n)
    _fill_measurements(acc, d, rng, outcomes, true)
    return outcomes, true


def _fill_measurements(
    acc: AccuracyModel, d: int, rng: np.random.Generator, out: np.ndarray, true=None
) -> None:
    """Fill ``out`` with measurements drawn from ``rng`` (and ``true``, if
    given, with their true eigenvalues), ``CHUNK_ROWS`` at a time. The draws
    keep the order of one whole-array call: every position, then every
    success flag, every noise term, and the failed outcomes; each of those
    streams split into chunks gives the same numbers as drawn whole, so the
    outcomes do not depend on the chunk size. Beyond ``out`` this holds one
    flag per row and one chunk."""
    cuts = range(CHUNK_ROWS, len(out), CHUNK_ROWS)
    parts = np.split(out, cuts)
    for part in parts:  # outcomes hold the true values until the noise is added
        part[:] = cycle_eigenvalue(rng.integers(d, size=part.size), d)
    if true is not None:
        true[:] = out
    failed = np.split(np.empty(len(out), bool), cuts)
    for flags in failed:
        flags[:] = rng.random(flags.size) >= acc.success_prob
    for part, flags in zip(parts, failed):
        np.add(part, rng.uniform(-acc.delta, acc.delta, part.size), out=part, where=~flags)
    lo, hi = -1.0 - acc.delta, 1.0 + acc.delta
    for part, flags in zip(parts, failed):
        k = np.count_nonzero(flags)
        if acc.failure_mode == "uniform_full_range":
            part[flags] = rng.uniform(lo, hi, k)
        else:  # adversarial offset: land just outside the accuracy window
            sign = np.where(rng.random(k) < 0.5, 1.0, -1.0)
            part[flags] = np.clip(part[flags] + sign * 2.0 * acc.delta, lo, hi)


def draw_batch(
    acc: AccuracyModel, d: int, n: int, seed, r: int, s: int, out: np.ndarray | None = None
) -> SampleBatch:
    """n reproducible measurements on the d-cycle; the seed fully determines
    the batch. Given ``out`` (n floats, say a slice of a pooled array), the
    draws are written there and the batch is a read-only view of it."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    out = np.empty(n) if out is None else out
    _fill_measurements(acc, d, np.random.default_rng(seed), out)
    view = out.view()
    view.flags.writeable = False
    return SampleBatch(view, acc, r, s)


def filter_round(values, r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Band-filter and round outcomes into the arrays (kept, j): an outcome is
    kept when |value| <= 1/sqrt(2), and j minimizes |arccos(value) - pi*j/(r*s)|
    for the value clamped into [-1, 1]. The parity is j % 2."""
    if r < 1 or s < 1:
        raise ValueError("r and s must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    theta = np.arccos(np.clip(values, -1.0, 1.0))
    j = np.rint(theta / (math.pi / (r * s))).astype(np.int64)
    return np.abs(values) <= FILTER_BAND, j


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
    the grid indices; also tallies each pooled batch on its own. The counts
    are added up ``CHUNK_ROWS`` values at a time."""
    size, batches = batch.values.size, batch.batches
    if not size:
        raise ValueError("batch is empty")
    if size % batches:
        raise ValueError(f"{size} values do not split into {batches} equal batches")
    per = size // batches
    kept_per, odd_per = np.zeros(batches, np.int64), np.zeros(batches, np.int64)
    for a in range(0, size, CHUNK_ROWS):
        kept, j = filter_round(batch.values[a:a + CHUNK_ROWS], batch.r, batch.s)
        # the offsets in the chunk where the runs of the batches it overlaps begin
        first = a // per
        starts = np.maximum(np.arange(first * per, a + kept.size, per) - a, 0)
        overlapped = slice(first, first + starts.size)
        kept_per[overlapped] += np.add.reduceat(kept, starts, dtype=np.int64)
        odd_per[overlapped] += np.add.reduceat(kept & (j % 2 == 1), starts, dtype=np.int64)
    n_kept, n_odd = int(kept_per.sum()), int(odd_per.sum())
    odd_fraction = n_odd / n_kept if n_kept else 0.0
    per_batch = zip(odd_per.tolist(), kept_per.tolist())
    return DecisionResult(
        verdict=int(odd_fraction > DECISION_THRESHOLD),
        filtered_count=n_kept,
        odd_fraction=odd_fraction,
        threshold=DECISION_THRESHOLD,
        confidence_bound=chernoff_confidence(n_kept, PROBABILITY_GAP),
        inconclusive=n_kept < MIN_FILTERED,
        batch_kept=tuple(kept_per.tolist()),
        batch_odd_fraction=tuple(o / k if k else 0.0 for o, k in per_batch),
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
