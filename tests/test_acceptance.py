"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from clockobs import corpus, rtm
from clockobs.circuits import (
    R_SOLUTION,
    apply_circuit,
    build_wrapper_circuit,
    circuit_orbit_length,
    nominal_cycle_length,
)
from clockobs.clock import (
    ClockedState,
    ForwardOperator,
    compute_orbit,
    locality_report,
    spectral_model,
)
from clockobs.harness import ExperimentConfig, run_experiment
from clockobs.metrology import (
    AccuracyModel,
    decide,
    draw_batch,
    phase_estimate_distribution,
    sample_phase_estimate,
)
from oracle import (
    apply_forward,
    dense_orbit_oracle,
    expanded_eigenvalues,
    true_eigenvalues,
)

INSTANCES = [
    ("halt", "0", 0),
    ("halt", "1", 1),
    ("flip", "0", 1),
    ("flip", "1", 0),
    ("rot3", "0", 1),
    ("rot3", "1", 0),
    ("flipwalk", "00", 1),
    ("flipwalk", "10", 0),
]


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


class Instance:
    def __init__(self, name, word, f_expected):
        self.name = name
        self.word = word
        self.spec = corpus.load(name)
        t0 = time.perf_counter()
        self.circuit = build_wrapper_circuit(self.spec)
        self.layout = self.circuit.layout
        self.initial = self.layout.initial_basis_state(word)
        self.r_nominal = nominal_cycle_length(self.layout.m)
        self.f = rtm.run_machine(self.spec, word, max_steps=10_000).f_of_x
        assert self.f == f_expected
        self.r_observed = circuit_orbit_length(self.circuit, self.initial)
        self.op = ForwardOperator(self.circuit)
        self.orbit = compute_orbit(self.op, ClockedState(self.initial, 1))
        self.elapsed = time.perf_counter() - t0

    @property
    def label(self):
        return f"{self.name}({self.word})"


@pytest.fixture(scope="module")
def instances():
    return [Instance(*row) for row in INSTANCES]


def test_criterion_1_orbit_length_law(instances):
    machines = set()
    for inst in instances:
        expected = inst.r_nominal * (2 if inst.f else 1)
        assert inst.r_observed == expected, inst.label
        machines.add(inst.name)
        if inst.layout.m <= 8:
            assert inst.elapsed < 60.0, f"{inst.label} took {inst.elapsed:.1f}s"
    assert len(machines) >= 3
    detail = ", ".join(
        f"{i.label}: r={i.r_observed} (m={i.layout.m}, f={i.f}, {i.elapsed:.2f}s)"
        for i in instances
    )
    _report(1, f"orbit length equals 2*(2^(m+1)-1) scaled by the answer; {detail}")


def test_criterion_2_register_restoration(instances):
    for inst in instances:
        state = inst.initial
        for _ in range(inst.r_nominal):
            state = apply_circuit(inst.circuit, state)
        expected = inst.layout.set_registers(inst.initial, {R_SOLUTION: inst.f})
        assert state == expected, inst.label
    _report(2, f"nominal-cycle iteration restores all registers except "
               f"solution=f(x) on {len(instances)} instances")


def test_criterion_3_clock_orbit_dimension(instances):
    for inst in instances:
        expected = inst.circuit.s * inst.r_nominal * (2 if inst.f else 1)
        assert inst.orbit.dimension == expected, inst.label
        # pairwise distinct plus exact recurrence
        seen = set()
        state = inst.orbit.initial
        for _ in range(inst.orbit.dimension):
            key = (state.circuit_state.values, state.clock_pos)
            assert key not in seen
            seen.add(key)
            state = apply_forward(inst.op, state)
        assert state == inst.orbit.initial
    _report(3, "clock orbit dimension equals gate count times cycle length, "
               "doubled on acceptance, with all states distinct")


def test_criterion_4_spectrum_against_oracle():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 8, 64, 256, 1024):
        model = spectral_model(d)
        assert np.allclose(
            expanded_eigenvalues(model), dense_orbit_oracle(d), atol=1e-9
        ), d
        assert sum(line.probability for line in model.lines) == Fraction(1)
        for line in model.lines:
            simple = line.index == 0 or (d % 2 == 0 and line.index == d // 2)
            assert line.probability == Fraction(1 if simple else 2, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, f"closed-form spectrum matches the dense eigensolver within 1e-9 "
               f"for d in (2,3,4,8,64,256,1024) with exact rational weights "
               f"({elapsed:.2f}s)")


def test_criterion_5_spectral_gap(instances):
    checked = []
    dims = [64, 256, 1024, 4096] + [i.orbit.dimension for i in instances]
    for d in dims:
        if d < 64:
            continue
        gap = 1.0 - math.cos(2.0 * math.pi / d)
        quadratic = 0.5 * (2.0 * math.pi / d) ** 2
        assert 0.9 * quadratic <= gap <= 1.1 * quadratic, d
        checked.append(d)
    _report(5, f"top spectral gap stays within 10% of (2*pi/d)^2/2 for "
               f"{len(checked)} dimensions up to {max(checked)}")


def test_criterion_6_accuracy_window_contract():
    model = spectral_model(420)  # the halt("1") orbit dimension
    acc = AccuracyModel(delta=1e-3)
    n = 100_000
    outcome = draw_batch(acc, model.dimension, n, seed=606, r=1, s=1).values
    true = true_eigenvalues(model.dimension, n, seed=606)
    hits = int(np.count_nonzero(np.abs(outcome - true) <= acc.delta + 1e-12))
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert hits / n >= 0.75 - 3 * sigma
    _report(6, f"measured-within-window rate {hits / n:.4f} >= 3/4 - 3*sigma "
               f"over {n} trials")


def test_criterion_7_decision_separation_decay_agreement(instances):
    t0 = time.perf_counter()

    # separation: 200 batches x 200 samples per class, pooled odd fraction
    by_f = {0: [], 1: []}
    for inst in instances:
        by_f[inst.f].append(inst)
    odd_frac = {}
    for f in (0, 1):
        odd = kept = 0
        per_class = 200 // len(by_f[f])
        for inst in by_f[f]:
            r, s = inst.r_nominal, inst.circuit.s
            model = spectral_model(inst.orbit.dimension)
            acc = AccuracyModel(delta=1.0 / (r * s))
            for b in range(per_class):
                batch = draw_batch(acc, model.dimension, 200, seed=[700, f, b, inst.layout.m], r=r, s=s)
                result = decide(batch)
                odd += round(result.odd_fraction * result.filtered_count)
                kept += result.filtered_count
        odd_frac[f] = odd / kept
    sigma1 = math.sqrt((3 / 8) * (5 / 8) / kept)
    sigma0 = math.sqrt((1 / 4) * (3 / 4) / kept)
    assert odd_frac[1] >= 3 / 8 - 3 * sigma1
    assert odd_frac[0] <= 1 / 4 + 3 * sigma0

    # decay: misclassification rate by batch size, against the Hoeffding bound
    inst = next(i for i in instances if i.name == "flip" and i.f == 1)
    r, s = inst.r_nominal, inst.circuit.s
    rates, bounds = [], []
    for size in (50, 100, 200, 400):
        wrong = 0
        bound_sum = 0.0
        trials = 0
        for f, d in ((1, 2 * r * s), (0, r * s)):
            model = spectral_model(d)
            acc = AccuracyModel(delta=1.0 / (r * s))
            for b in range(100):
                batch = draw_batch(acc, model.dimension, size, seed=[710, size, f, b], r=r, s=s)
                result = decide(batch)
                wrong += result.verdict != f
                bound_sum += result.confidence_bound
                trials += 1
        rates.append(wrong / trials)
        bounds.append(bound_sum / trials)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(rate <= bound for rate, bound in zip(rates, bounds))

    # end-to-end agreement across the corpus at auto accuracy
    agreements = 0
    trials = 0
    for inst in instances:
        report = run_experiment(
            ExperimentConfig(
                spec_path=str(corpus.path(inst.name)),
                input_word=inst.word,
                accuracy="auto",
                samples_per_batch=200,
                seed=901,
            )
        )
        agreements += report.agreement
        trials += 1
        # additional decisions along the fast path, fresh seeds
        r, s = inst.r_nominal, inst.circuit.s
        model = spectral_model(inst.orbit.dimension)
        acc = AccuracyModel(delta=1.0 / (r * s))
        for seed in range(902, 914):
            batch = draw_batch(acc, model.dimension, 200, seed=[seed, inst.layout.m, inst.f], r=r, s=s)
            agreements += decide(batch).verdict == inst.f
            trials += 1
    rate = agreements / trials
    assert trials >= 100
    assert rate >= 0.99

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, f"odd fractions {odd_frac[1]:.3f} (accept) vs {odd_frac[0]:.3f} "
               f"(reject); misclassification {rates} under bounds "
               f"{[round(b, 3) for b in bounds]}; agreement {agreements}/{trials} "
               f"({elapsed:.1f}s)")


def test_criterion_8_phase_estimation():
    # grid eigenphases give point masses
    for m, phi, j in ((2, 0.25, 1), (3, 0.0, 0), (4, 0.5, 8)):
        table = phase_estimate_distribution(m, phi)
        assert table[j] == pytest.approx(1.0, abs=1e-12)

    # the off-grid phase 1/3: sampled distribution matches the closed form
    # and the closed form matches the explicit Fourier-matrix oracle
    for m in (4, 8):
        size = 2**m
        table = phase_estimate_distribution(m, 1.0 / 3.0)
        psi = np.exp(2j * np.pi / 3.0 * np.arange(size)) / math.sqrt(size)
        dft = np.exp(
            -2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size
        ) / math.sqrt(size)
        oracle = np.abs(dft @ psi) ** 2
        assert np.allclose(table, oracle, atol=1e-12)
        nearest = round(size / 3.0)
        assert table[nearest] == pytest.approx(oracle[nearest], abs=1e-12)
        assert table[nearest] >= 4.0 / math.pi**2

        n = 10_000
        rng = np.random.default_rng(1000 + m)
        counts = Counter(sample_phase_estimate(table, rng, n).tolist())
        for j, p in enumerate(table):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) <= 3 * sigma + 3.0 / n, (m, j)
    _report(8, "grid phases give point masses; phi=1/3 sampling matches the "
               "exact kernel within 3 sigma per bin for m in (4,8), nearest-grid "
               "mass 0.685 >= 4/pi^2")


def test_criterion_9_locality(instances):
    for inst in instances:
        report = locality_report(inst.op)
        assert report.max_support == 4, inst.label
        assert report.term_count == inst.circuit.s
    _report(9, "every forward-operator term on merged layouts touches "
               "exactly 4 wires at its widest")
