import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from clockobs.clock import spectral_model
from clockobs.metrology import (
    DECISION_THRESHOLD,
    FILTER_BAND,
    MIN_FILTERED,
    PROBABILITY_GAP,
    AccuracyModel,
    PhaseEstimationSetup,
    SampleBatch,
    chernoff_confidence,
    decide,
    draw_batch,
    draw_measurement,
    filter_round,
    phase_estimate_distribution,
    sample_exact,
    sample_phase_estimate,
)


# ---------------------------------------------------------------------------
# exact sampling


def test_sample_exact_d1_is_always_one():
    model = spectral_model(1)
    rng = np.random.default_rng(0)
    assert all(sample_exact(model.dimension, rng) == 1.0 for _ in range(50))


def test_sample_exact_d4_frequencies():
    model = spectral_model(4)
    rng = np.random.default_rng(7)
    n = 100_000
    counts = Counter(round(sample_exact(model.dimension, rng), 9) for _ in range(n))
    for value, p in [(1.0, 0.25), (0.0, 0.5), (-1.0, 0.25)]:
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[value] / n - p) <= 3 * sigma


def test_sample_exact_d256_chi_square():
    d = 256
    model = spectral_model(d)
    rng = np.random.default_rng(11)
    n = 100_000
    counts = Counter(round(sample_exact(model.dimension, rng), 9) for _ in range(n))
    observed, expected = [], []
    for line in model.lines:
        observed.append(counts[round(line.eigenvalue, 9)])
        expected.append(float(line.probability) * n)
    chi2, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.001


# ---------------------------------------------------------------------------
# accuracy model


def test_accuracy_model_validation():
    with pytest.raises(ValueError):
        AccuracyModel(delta=-0.1)
    with pytest.raises(ValueError):
        AccuracyModel(delta=0.1, success_prob=0.5)
    with pytest.raises(ValueError):
        AccuracyModel(delta=0.1, failure_mode="wat")


def test_zero_delta_certain_success_reproduces_exact_sampler():
    model = spectral_model(8)
    acc = AccuracyModel(delta=0.0, success_prob=1.0)
    out = [draw_measurement(acc, model.dimension, np.random.default_rng(3))[0] for _ in range(20)]
    exact = {round(l.eigenvalue, 12) for l in model.lines}
    assert all(round(v, 12) in exact for v in out)


@pytest.mark.parametrize("failure_mode", ["uniform_full_range", "adversarial_offset"])
@pytest.mark.parametrize("delta", [0.05, 0.01])
def test_accuracy_window_contract(failure_mode, delta):
    # the heart of the accuracy contract: outcomes land within +-delta of the
    # true eigenvalue with probability at least 3/4
    model = spectral_model(16)
    acc = AccuracyModel(delta=delta, failure_mode=failure_mode)
    rng = np.random.default_rng(2024)
    n = 100_000
    hits = 0
    for _ in range(n):
        outcome, true = draw_measurement(acc, model.dimension, rng)
        if abs(outcome - true) <= delta + 1e-12:
            hits += 1
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert hits / n >= 0.75 - 3 * sigma


def test_outcomes_cluster_near_eigenvalues_d8():
    model = spectral_model(8)
    acc = AccuracyModel(delta=0.01)
    rng = np.random.default_rng(5)
    n = 20_000
    eigs = [l.eigenvalue for l in model.lines]
    near = 0
    for _ in range(n):
        out, _ = draw_measurement(acc, model.dimension, rng)
        if any(abs(out - e) <= 0.01 + 1e-12 for e in eigs):
            near += 1
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert near / n >= 0.75 - 3 * sigma


def test_outcomes_bounded_by_extended_range():
    model = spectral_model(4)
    acc = AccuracyModel(delta=0.2)
    rng = np.random.default_rng(9)
    for _ in range(5000):
        out, _ = draw_measurement(acc, model.dimension, rng)
        assert -1.2 - 1e-12 <= out <= 1.2 + 1e-12


def test_batches_reproducible_by_seed():
    model = spectral_model(32)
    acc = AccuracyModel(delta=0.02)
    a = draw_batch(acc, model.dimension, 64, seed=42, r=4, s=8)
    b = draw_batch(acc, model.dimension, 64, seed=42, r=4, s=8)
    c = draw_batch(acc, model.dimension, 64, seed=43, r=4, s=8)
    assert a.values == b.values
    assert a.values != c.values


# ---------------------------------------------------------------------------
# filter and round


def test_filter_discards_out_of_band():
    assert filter_round(0.9, 2, 2) is None
    assert filter_round(-0.9, 2, 2) is None
    assert filter_round(FILTER_BAND, 2, 2) is not None  # boundary kept


def test_filter_round_grid_examples():
    # grid step pi/4 when r*s = 4
    j, parity = filter_round(0.0, 2, 2)
    assert (j, parity) == (2, 0)
    # arccos(0.68) = 0.823034 = 1.0479 grid steps -> index 1, odd
    j, parity = filter_round(0.68, 2, 2)
    assert (j, parity) == (1, 1)


def test_filter_round_clamps_numeric_overshoot():
    out = filter_round(0.7071067811865478, 1, 4)  # just above 1/sqrt(2)
    assert out is None or out[0] >= 0  # never raises


def test_filter_round_rejects_bad_grid():
    with pytest.raises(ValueError):
        filter_round(0.0, 0, 4)


def test_exact_even_grid_points_give_even_indices():
    r, s = 6, 5
    d = 2 * r * s
    for j in range(0, d // 2 + 1, 2):
        value = math.cos(2 * math.pi * j / d)
        if abs(value) > FILTER_BAND:
            continue
        got = filter_round(value, r, s)
        assert got == (j, 0)


def test_accuracy_one_over_t_rounds_every_inband_value_correctly():
    # with delta = 1/(r*s), every in-band grid value plus worst-case noise
    # still rounds to its own grid index
    for r, s in [(14, 15), (30, 15), (126, 15), (510, 19)]:
        delta = 1.0 / (r * s)
        d = 2 * r * s
        for j in range(d // 2 + 1):
            value = math.cos(2 * math.pi * j / d)
            if abs(value) > FILTER_BAND:
                continue
            for noisy in (value - delta, value + delta):
                if abs(noisy) > FILTER_BAND:
                    continue  # pushed out of band: filtered, not misrounded
                got = filter_round(noisy, r, s)
                assert got is not None and got[0] == j


# ---------------------------------------------------------------------------
# decision


def _batch_from_values(values, r, s):
    return SampleBatch(values=tuple(values), model=AccuracyModel(delta=0.0), r=r, s=s)


def test_decide_all_even_grid_values_is_reject():
    r, s = 8, 8
    d = 2 * r * s
    values = [
        math.cos(2 * math.pi * j / d)
        for j in range(0, d // 2, 2)
        if abs(math.cos(2 * math.pi * j / d)) <= FILTER_BAND
    ] * 10
    result = decide(_batch_from_values(values, r, s))
    assert result.odd_fraction == 0.0
    assert result.verdict == 0
    assert not result.inconclusive


def test_decide_accepting_instance():
    # samples from the doubled cycle at the certified accuracy: odd fraction
    # comes out near 1/2, comfortably past the 3/8 bound
    r, s = 30, 15
    d = 2 * r * s
    model = spectral_model(d)
    acc = AccuracyModel(delta=1.0 / (r * s))
    batch = draw_batch(acc, model.dimension, 4000, seed=12, r=r, s=s)
    result = decide(batch)
    assert result.verdict == 1
    sigma = math.sqrt(result.odd_fraction * (1 - result.odd_fraction) / result.filtered_count)
    assert result.odd_fraction >= 3.0 / 8.0 - 3 * sigma
    assert not result.inconclusive


def test_decide_rejecting_instance():
    r, s = 30, 15
    d = r * s
    model = spectral_model(d)
    acc = AccuracyModel(delta=1.0 / (r * s))
    batch = draw_batch(acc, model.dimension, 4000, seed=13, r=r, s=s)
    result = decide(batch)
    assert result.verdict == 0
    assert result.odd_fraction <= 1.0 / 4.0 + 0.05


def test_decide_small_batch_is_inconclusive():
    values = [0.0] * 10
    result = decide(_batch_from_values(values, 2, 2))
    assert result.inconclusive
    assert result.filtered_count == 10 < MIN_FILTERED


def test_decide_empty_batch_raises():
    with pytest.raises(ValueError):
        decide(_batch_from_values([], 2, 2))


def test_decision_threshold_sits_between_bounds():
    assert 1.0 / 4.0 < DECISION_THRESHOLD < 3.0 / 8.0
    assert DECISION_THRESHOLD == pytest.approx(5.0 / 16.0)


# ---------------------------------------------------------------------------
# confidence bound


def test_chernoff_degenerate_count():
    assert chernoff_confidence(0, PROBABILITY_GAP) == 1.0


def test_chernoff_frozen_value():
    # exp(-2 * 1000 * (1/16)^2) = exp(-7.8125)
    assert chernoff_confidence(1000, 1.0 / 8.0) == pytest.approx(4.0464517e-4, rel=1e-6)


def test_chernoff_monotone_decreasing():
    values = [chernoff_confidence(n, PROBABILITY_GAP) for n in (0, 10, 100, 1000, 5000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chernoff_rejects_bad_gap():
    with pytest.raises(ValueError):
        chernoff_confidence(10, 0.0)
    with pytest.raises(ValueError):
        chernoff_confidence(10, 1.5)


# ---------------------------------------------------------------------------
# separation and decay (statistical invariants)


def _odd_fraction_pooled(d, r, s, batches, per_batch, seed0):
    model = spectral_model(d)
    acc = AccuracyModel(delta=1.0 / (r * s))
    odd = kept = 0
    for b in range(batches):
        batch = draw_batch(acc, model.dimension, per_batch, seed=[seed0, b], r=r, s=s)
        for v in batch.values:
            fr = filter_round(v, r, s)
            if fr is not None:
                kept += 1
                odd += fr[1]
    return odd / kept, kept


def test_separation_over_many_batches():
    r, s = 30, 15
    frac1, kept1 = _odd_fraction_pooled(2 * r * s, r, s, 200, 200, seed0=100)
    frac0, kept0 = _odd_fraction_pooled(r * s, r, s, 200, 200, seed0=200)
    sigma1 = math.sqrt((3 / 8) * (5 / 8) / kept1)
    sigma0 = math.sqrt((1 / 4) * (3 / 4) / kept0)
    assert frac1 >= 3.0 / 8.0 - 3 * sigma1
    assert frac0 <= 1.0 / 4.0 + 3 * sigma0


def test_misclassification_decays_and_respects_hoeffding():
    r, s = 14, 15
    batches = 200
    rates = []
    bounds = []
    for size in (50, 100, 200, 400):
        wrong = 0
        bound_acc = 0.0
        for f, d in ((1, 2 * r * s), (0, r * s)):
            model = spectral_model(d)
            acc = AccuracyModel(delta=1.0 / (r * s))
            for b in range(batches):
                batch = draw_batch(acc, model.dimension, size, seed=[size, f, b], r=r, s=s)
                result = decide(batch)
                bound_acc += result.confidence_bound
                if result.verdict != f:
                    wrong += 1
        rates.append(wrong / (2 * batches))
        bounds.append(bound_acc / (2 * batches))
    assert all(a >= b for a, b in zip(rates, rates[1:]))  # non-increasing
    assert all(rate <= bound for rate, bound in zip(rates, bounds))


# ---------------------------------------------------------------------------
# phase estimation


def test_exact_grid_phase_is_a_point_mass():
    setup = PhaseEstimationSetup(m=2, eigenphases=(0.25,))
    table = phase_estimate_distribution(setup)
    assert table[1] == pytest.approx(1.0, abs=1e-12)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_phase_reads_zero():
    for m in (1, 3, 6):
        table = phase_estimate_distribution(PhaseEstimationSetup(m=m, eigenphases=(0.0,)))
        assert table[0] == pytest.approx(1.0, abs=1e-12)


def test_off_grid_phase_matches_matrix_oracle():
    # independent oracle: explicit state vector through the Fourier matrix
    for m in (4, 8):
        size = 2**m
        phi = 1.0 / 3.0
        psi = np.exp(2j * np.pi * phi * np.arange(size)) / math.sqrt(size)
        dft = np.exp(
            -2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size
        ) / math.sqrt(size)
        oracle = np.abs(dft @ psi) ** 2
        table = phase_estimate_distribution(
            PhaseEstimationSetup(m=m, eigenphases=(phi,))
        )
        assert np.allclose(table, oracle, atol=1e-12)
        assert table.sum() == pytest.approx(1.0, abs=1e-9)


def test_nearest_grid_probability_value_and_floor():
    # frozen from the matrix oracle: phi = 1/3, m = 4 puts 0.6848954 on j = 5
    table = phase_estimate_distribution(PhaseEstimationSetup(m=4, eigenphases=(1 / 3,)))
    assert int(table.argmax()) == 5
    assert table[5] == pytest.approx(0.6848953893117379, abs=1e-12)
    assert table[5] >= 4.0 / math.pi**2  # nearest-grid floor


def test_mixed_eigenphases_split_mass():
    setup = PhaseEstimationSetup(m=1, eigenphases=(0.0, 0.5))
    table = phase_estimate_distribution(setup)
    assert table[0] == pytest.approx(0.5, abs=1e-12)
    assert table[1] == pytest.approx(0.5, abs=1e-12)


def test_amplitudes_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        PhaseEstimationSetup(m=2, eigenphases=(0.0, 0.5), amplitudes=(1.0, 1.0))


def test_ancilla_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        PhaseEstimationSetup(m=15, eigenphases=(0.0,))


def test_sampling_matches_exact_table():
    m = 4
    setup = PhaseEstimationSetup(m=m, eigenphases=(1 / 3,))
    table = phase_estimate_distribution(setup)
    rng = np.random.default_rng(77)
    n = 10_000
    counts = Counter(sample_phase_estimate(setup, rng, n).tolist())
    for j, p in enumerate(table):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[j] / n - p) <= 3 * sigma + 3.0 / n


def test_sampling_point_mass_is_deterministic():
    setup = PhaseEstimationSetup(m=2, eigenphases=(0.25,))
    rng = np.random.default_rng(1)
    assert all(sample_phase_estimate(setup, rng, 100) == 1)


def test_readouts_drawn_at_once_match_one_draw_per_readout():
    setup = PhaseEstimationSetup(m=14, eigenphases=(1 / 3,))
    probs = phase_estimate_distribution(setup)
    probs = probs / probs.sum()
    rng = np.random.default_rng(2)
    one_at_a_time = [int(rng.choice(len(probs), p=probs)) for _ in range(2000)]
    at_once = sample_phase_estimate(setup, np.random.default_rng(2), 2000).tolist()
    assert at_once == one_at_a_time


def test_total_variation_shrinks_with_samples():
    setup = PhaseEstimationSetup(m=3, eigenphases=(1 / 3,))
    table = phase_estimate_distribution(setup)

    def tv(n, seed):
        rng = np.random.default_rng(seed)
        counts = Counter(sample_phase_estimate(setup, rng, n).tolist())
        return 0.5 * sum(abs(counts[j] / n - p) for j, p in enumerate(table))

    assert tv(100_000, 5) < tv(1_000, 5)
