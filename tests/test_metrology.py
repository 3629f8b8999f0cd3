import math
import warnings
from collections import Counter

import numpy as np
import pytest
from oracle import draw_measurements_whole
from scipy import stats

from clockobs.clock import spectral_model
from clockobs.metrology import (
    CHUNK_ROWS,
    DECISION_THRESHOLD,
    FAILURE_MODES,
    FILTER_BAND,
    MIN_FILTERED,
    PROBABILITY_GAP,
    AccuracyModel,
    PhaseEstimationSetup,
    SampleBatch,
    chernoff_confidence,
    decide,
    draw_batch,
    draw_measurements,
    filter_round,
    phase_estimate_distribution,
    sample_phase_estimate,
)


# ---------------------------------------------------------------------------
# exact sampling


@pytest.mark.parametrize("d,seed,n", [(1, 0, 50), (4, 7, 100_000), (256, 11, 100_000)])
def test_true_eigenvalues_follow_the_exact_weights(d, seed, n):
    # the (1/d, 2/d) line weights, by a chi-square test on the true values
    model = spectral_model(d)
    _, true = draw_measurements(AccuracyModel(delta=0.0), d, n, np.random.default_rng(seed))
    weights = {round(line.eigenvalue, 9): float(line.probability) for line in model.lines}
    counts = Counter(np.round(true, 9).tolist())
    assert set(counts) <= set(weights)  # d = 1: every value is exactly 1.0
    if len(weights) > 1:
        observed = [counts[value] for value in weights]
        expected = [p * n for p in weights.values()]
        assert stats.chisquare(observed, expected).pvalue > 0.001
    if len(weights) <= 3:  # few lines: each frequency within 3 sigma too
        for value, p in weights.items():
            assert abs(counts[value] / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


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
    out, true = draw_measurements(acc, model.dimension, 20, np.random.default_rng(3))
    exact = {round(l.eigenvalue, 12) for l in model.lines}
    assert np.array_equal(out, true)
    assert all(round(v, 12) in exact for v in out.tolist())


@pytest.mark.parametrize("failure_mode", ["uniform_full_range", "adversarial_offset"])
@pytest.mark.parametrize("delta", [0.05, 0.01])
def test_accuracy_window_contract(failure_mode, delta):
    # the heart of the accuracy contract: outcomes land within +-delta of the
    # true eigenvalue with probability at least 3/4
    model = spectral_model(16)
    acc = AccuracyModel(delta=delta, failure_mode=failure_mode)
    rng = np.random.default_rng(2024)
    n = 100_000
    outcome, true = draw_measurements(acc, model.dimension, n, rng)
    hits = np.count_nonzero(np.abs(outcome - true) <= delta + 1e-12)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert hits / n >= 0.75 - 3 * sigma


def test_outcomes_cluster_near_eigenvalues_d8():
    model = spectral_model(8)
    acc = AccuracyModel(delta=0.01)
    rng = np.random.default_rng(5)
    n = 20_000
    eigs = np.array([l.eigenvalue for l in model.lines])
    out, _ = draw_measurements(acc, model.dimension, n, rng)
    near = np.count_nonzero((np.abs(out[:, None] - eigs) <= 0.01 + 1e-12).any(axis=1))
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert near / n >= 0.75 - 3 * sigma


def test_outcomes_bounded_by_extended_range():
    model = spectral_model(4)
    acc = AccuracyModel(delta=0.2)
    rng = np.random.default_rng(9)
    out, _ = draw_measurements(acc, model.dimension, 5000, rng)
    assert np.all((-1.2 - 1e-12 <= out) & (out <= 1.2 + 1e-12))


def test_batches_reproducible_by_seed():
    model = spectral_model(32)
    acc = AccuracyModel(delta=0.02)
    a = draw_batch(acc, model.dimension, 64, seed=42, r=4, s=8)
    b = draw_batch(acc, model.dimension, 64, seed=42, r=4, s=8)
    c = draw_batch(acc, model.dimension, 64, seed=43, r=4, s=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("mode", FAILURE_MODES)
@pytest.mark.parametrize("d", [1, 450, 19380])
def test_chunked_draws_equal_one_whole_array_draw(d, mode):
    acc = AccuracyModel(delta=0.01, failure_mode=mode)
    n = 2 * CHUNK_ROWS + 7
    chunked, whole = np.random.default_rng(8), np.random.default_rng(8)
    got, want = draw_measurements(acc, d, n, chunked), draw_measurements_whole(acc, d, n, whole)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert chunked.random() == whole.random()  # the same draws were used up


def test_sample_batch_values_are_read_only():
    source = np.array([0.1, 0.2, 0.3, 0.4])
    batch = SampleBatch(source, AccuracyModel(delta=0.0), 2, 2, batches=2)
    assert batch.values.dtype == np.float64
    with pytest.raises(ValueError):
        batch.values[0] = 1.0
    source[0] = 1.0  # the batch holds its own copy
    assert batch.values[0] == 0.1
    drawn = draw_batch(AccuracyModel(delta=0.01), 8, 16, seed=1, r=2, s=2)
    assert not drawn.values.flags.writeable


def test_sample_batch_keeps_a_read_only_array_without_a_copy():
    source = np.array([0.1, 0.2])
    source.flags.writeable = False
    assert SampleBatch(source, AccuracyModel(delta=0.0), 2, 2).values is source
    acc, pooled = AccuracyModel(delta=0.01), np.zeros(32)
    drawn = draw_batch(acc, 8, 16, seed=1, r=2, s=2, out=pooled[16:])
    assert np.shares_memory(drawn.values, pooled) and not drawn.values.flags.writeable
    assert np.array_equal(drawn.values, draw_batch(acc, 8, 16, seed=1, r=2, s=2).values)
    assert not pooled[:16].any()


# ---------------------------------------------------------------------------
# filter and round


def test_filter_discards_out_of_band():
    kept, _ = filter_round([0.9, -0.9, FILTER_BAND], 2, 2)
    assert kept.tolist() == [False, False, True]  # boundary kept


def test_filter_round_grid_examples():
    # grid step pi/4 when r*s = 4; arccos(0.68) = 0.823034 = 1.0479 grid
    # steps -> index 1, odd
    kept, j = filter_round([0.0, 0.68], 2, 2)
    assert kept.tolist() == [True, True]
    assert j.tolist() == [2, 1]
    assert (j % 2).tolist() == [0, 1]


def test_filter_round_clamps_numeric_overshoot():
    values = [0.7071067811865478, 1.2, -1.2]  # just above 1/sqrt(2), then out of range
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # arccos of an unclamped value would warn
        kept, j = filter_round(values, 1, 4)
    assert not kept.any()
    assert j.tolist() == [1, 0, 4]


def test_filter_round_rejects_bad_grid():
    with pytest.raises(ValueError):
        filter_round([0.0], 0, 4)


def test_exact_even_grid_points_give_even_indices():
    r, s = 6, 5
    d = 2 * r * s
    grid = np.arange(0, d // 2 + 1, 2)
    values = np.cos(2 * np.pi * grid / d)
    kept, j = filter_round(values, r, s)
    assert kept.any()
    assert np.array_equal(j[kept], grid[kept])


def test_accuracy_one_over_t_rounds_every_inband_value_correctly():
    # with delta = 1/(r*s), every in-band grid value plus worst-case noise
    # still rounds to its own grid index
    for r, s in [(14, 15), (30, 15), (126, 15), (510, 19)]:
        delta = 1.0 / (r * s)
        d = 2 * r * s
        grid = np.arange(d // 2 + 1)
        values = np.cos(2 * np.pi * grid / d)
        in_band = np.abs(values) <= FILTER_BAND
        for noisy in (values - delta, values + delta):
            # pushed out of band: filtered, not misrounded
            kept, j = filter_round(noisy, r, s)
            assert np.array_equal(j[in_band & kept], grid[in_band & kept])


# ---------------------------------------------------------------------------
# decision


def _batch_from_values(values, r, s):
    return SampleBatch(values=values, model=AccuracyModel(delta=0.0), r=r, s=s)


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


def test_decide_tallies_each_pooled_batch():
    r, s = 30, 15
    acc = AccuracyModel(delta=1.0 / (r * s))
    parts = [draw_batch(acc, 2 * r * s, 300, seed=[5, b], r=r, s=s) for b in range(4)]
    pooled = decide(SampleBatch(np.concatenate([p.values for p in parts]), acc, r, s, batches=4))
    alone = [decide(p) for p in parts]
    assert pooled.batch_kept == tuple(a.filtered_count for a in alone)
    assert pooled.batch_odd_fraction == tuple(a.odd_fraction for a in alone)
    assert pooled.filtered_count == sum(pooled.batch_kept)
    assert {type(k) for k in pooled.batch_kept} == {int}
    assert {type(f) for f in pooled.batch_odd_fraction} == {float}


@pytest.mark.parametrize(
    "per,batches", [(5000, 4), (2 * CHUNK_ROWS + 1, 2), (1, 2 * CHUNK_ROWS + 3)]
)
def test_decide_tallies_batches_that_straddle_chunks(per, batches):
    r, s = 45, 10
    acc = AccuracyModel(delta=1.0 / (r * s))
    values = draw_batch(acc, 2 * r * s, per * batches, seed=4, r=r, s=s).values
    result = decide(SampleBatch(values, acc, r, s, batches=batches))
    kept, j = filter_round(values, r, s)
    kept_per = kept.reshape(batches, per).sum(axis=1).tolist()
    odd_per = (kept & (j % 2 == 1)).reshape(batches, per).sum(axis=1).tolist()
    assert result.batch_kept == tuple(kept_per)
    odd_fractions = tuple(o / k if k else 0.0 for o, k in zip(odd_per, kept_per))
    assert result.batch_odd_fraction == odd_fractions
    assert result.odd_fraction == sum(odd_per) / sum(kept_per)


def test_decide_refuses_batches_of_unequal_length():
    with pytest.raises(ValueError, match="10 values do not split into 3 equal batches"):
        decide(SampleBatch(np.zeros(10), AccuracyModel(delta=0.0), 2, 2, batches=3))


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
        keep, j = filter_round(batch.values, r, s)
        kept += np.count_nonzero(keep)
        odd += np.count_nonzero(j[keep] % 2)
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
