import math
from fractions import Fraction

import numpy as np
import pytest

from clockobs import corpus, rtm
from clockobs.circuits import (
    Circuit,
    apply_circuit,
    build_wrapper_circuit,
    nominal_cycle_length,
    tape_register,
)
from clockobs.clock import (
    ClockedState,
    ForwardOperator,
    compute_orbit,
    locality_report,
    spectral_model,
)
from clockobs.errors import DimensionError
from oracle import (
    apply_backward,
    apply_forward,
    dense_orbit_oracle,
    expanded_eigenvalues,
    lift_gate,
    machine_layout,
)


def identity_op(n_gates=1):
    layout = machine_layout(corpus.load("flip"))
    gate = lift_gate(layout, ["head"], lambda env: None, "noop")
    return ForwardOperator(Circuit(layout=layout, gates=(gate,) * n_gates))


# ---------------------------------------------------------------------------
# forward operator


def test_apply_forward_single_identity_gate():
    op = identity_op(1)
    state = ClockedState(op.circuit.layout.zero_state(), 1)
    out = apply_forward(op, state)
    assert out.circuit_state == state.circuit_state
    assert out.clock_pos == 1  # s=1 wraps straight back


def test_clock_wraps_from_s_to_one():
    spec = corpus.load("flip")
    circuit = build_wrapper_circuit(spec)
    op = ForwardOperator(circuit)
    state = ClockedState(circuit.layout.initial_basis_state("0"), op.s)
    out = apply_forward(op, state)
    assert out.clock_pos == 1


def test_s_forward_steps_equal_one_circuit_application():
    spec = corpus.load("flip")
    circuit = build_wrapper_circuit(spec)
    op = ForwardOperator(circuit)
    start = circuit.layout.initial_basis_state("1")
    state = ClockedState(start, 1)
    for _ in range(op.s):
        state = apply_forward(op, state)
    assert state.clock_pos == 1
    assert state.circuit_state == apply_circuit(circuit, start)


def test_compute_orbit_rejects_bad_clock():
    op = identity_op(2)
    for pos in (0, op.s + 1):
        with pytest.raises(DimensionError, match="one-hot"):
            compute_orbit(op, ClockedState(op.circuit.layout.zero_state(), pos))


# ---------------------------------------------------------------------------
# orbits


def test_orbit_of_identity_gate_is_one():
    op = identity_op(1)
    orbit = compute_orbit(op, ClockedState(op.circuit.layout.zero_state(), 1))
    assert orbit.dimension == 1


@pytest.mark.parametrize(
    "name,word",
    [
        ("halt", "0"),
        ("halt", "1"),
        ("flip", "0"),
        ("flip", "1"),
        ("rot3", "0"),
        ("rot3", "1"),
    ],
)
def test_orbit_dimension_law(name, word):
    spec = corpus.load(name)
    circuit = build_wrapper_circuit(spec)
    layout = circuit.layout
    f = rtm.run_machine(spec, word, max_steps=10_000).f_of_x
    op = ForwardOperator(circuit)
    initial = ClockedState(layout.initial_basis_state(word), 1)
    orbit = compute_orbit(op, initial)
    expected = circuit.s * nominal_cycle_length(layout.m) * (2 if f else 1)
    assert orbit.dimension == expected


def test_orbit_states_distinct_and_recur():
    spec = corpus.load("flip")
    circuit = build_wrapper_circuit(spec)
    op = ForwardOperator(circuit)
    initial = ClockedState(circuit.layout.initial_basis_state("1"), 1)
    orbit = compute_orbit(op, initial)
    seen = set()
    state = initial
    for _ in range(orbit.dimension):
        key = (state.circuit_state.values, state.clock_pos)
        assert key not in seen
        seen.add(key)
        state = apply_forward(op, state)
    assert state == initial  # the d-th step closes the cycle


CORPUS_STARTS = {
    "halt": ("0", "1"), "flip": ("0", "1"), "rot3": ("0", "1"), "flipwalk": ("00", "10"),
}


@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("name", list(CORPUS_STARTS))
def test_backward_step_undoes_the_forward_step_along_every_corpus_orbit(name, merged):
    op = ForwardOperator(build_wrapper_circuit(corpus.load(name), merge_cells=merged))
    for word in CORPUS_STARTS[name]:
        initial = ClockedState(op.circuit.layout.initial_basis_state(word), 1)
        state = initial
        for step in range(compute_orbit(op, initial).dimension):
            after = apply_forward(op, state)
            assert apply_backward(op, after) == state, (word, step)
            state = after
        assert state == initial


@pytest.mark.parametrize("word, d", [("0", 210), ("1", 420)])
def test_symmetrized_operator_moments_match_the_closed_form(word, d):
    # <x|H^k|x> with H = (F + F^-1)/2 pushed as a sparse vector over basis
    # states is the k-th moment of the outcome distribution: the mean of
    # cos^k(2 pi j / d) over j
    op = ForwardOperator(build_wrapper_circuit(corpus.load("halt")))
    initial = ClockedState(op.circuit.layout.initial_basis_state(word), 1)
    neighbours = {}  # state -> (F state, F^-1 state), each computed once
    vector = {initial: 1.0}
    cosines = np.cos(2 * np.pi * np.arange(d) / d)
    for k in range(1, d + 1):
        pushed = {}
        for state, amplitude in vector.items():
            if state not in neighbours:
                neighbours[state] = (apply_forward(op, state), apply_backward(op, state))
            for image in neighbours[state]:
                pushed[image] = pushed.get(image, 0.0) + amplitude / 2
        vector = pushed
        assert vector.get(initial, 0.0) == pytest.approx(np.mean(cosines**k), abs=1e-12), k
    assert len(neighbours) == d  # the vector never leaves the orbit


def forward_steps_to_recur(op, initial):
    """The orbit length by applying F one step at a time."""
    state, steps = apply_forward(op, initial), 1
    while state != initial:
        state, steps = apply_forward(op, state), steps + 1
    return steps


@pytest.mark.parametrize("word", ["0", "1"])
def test_orbit_from_every_clock_position_matches_forward_steps(word):
    circuit = build_wrapper_circuit(corpus.load("flip"))
    op = ForwardOperator(circuit)
    start = circuit.layout.initial_basis_state(word)
    for pos in range(1, op.s + 1):
        initial = ClockedState(start, pos)
        assert compute_orbit(op, initial).dimension == forward_steps_to_recur(op, initial), pos


# ---------------------------------------------------------------------------
# spectral model


def test_spectral_model_d4():
    model = spectral_model(4)
    table = [(l.eigenvalue, l.multiplicity, l.probability) for l in model.lines]
    assert table == [
        (1.0, 1, Fraction(1, 4)),
        (pytest.approx(0.0, abs=1e-15), 2, Fraction(1, 2)),
        (-1.0, 1, Fraction(1, 4)),
    ]


def test_spectral_model_d1():
    model = spectral_model(1)
    assert [(l.eigenvalue, l.multiplicity, l.probability) for l in model.lines] == [
        (1.0, 1, Fraction(1))
    ]


def test_spectral_model_d8_against_dense_diagonalization():
    model = spectral_model(8)
    by_value = {round(l.eigenvalue, 9): l.probability for l in model.lines}
    root_half = round(math.sqrt(0.5), 9)
    assert by_value[1.0] == Fraction(1, 8)
    assert by_value[root_half] == Fraction(1, 4)
    assert by_value[0.0] == Fraction(1, 4)
    assert by_value[-root_half] == Fraction(1, 4)
    assert by_value[-1.0] == Fraction(1, 8)
    assert np.allclose(expanded_eigenvalues(model), dense_orbit_oracle(8), atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 17, 64, 100])
def test_spectral_model_probabilities_sum_to_one_exactly(d):
    model = spectral_model(d)
    assert sum(line.probability for line in model.lines) == Fraction(1)
    for line in model.lines:
        simple = line.index == 0 or (d % 2 == 0 and line.index == d // 2)
        assert line.multiplicity == (1 if simple else 2)
        assert line.probability == Fraction(line.multiplicity, d)
        assert -1.0 <= line.eigenvalue <= 1.0


def test_dense_oracle_d2():
    assert np.allclose(dense_orbit_oracle(2), [-1.0, 1.0])


def test_dense_oracle_d3():
    # characteristic polynomial of the symmetrized 3-cycle: (x-1)(x+1/2)^2
    assert np.allclose(dense_orbit_oracle(3), [-0.5, -0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 64, 256])
def test_model_matches_oracle(d):
    model = spectral_model(d)
    assert np.allclose(
        expanded_eigenvalues(model), dense_orbit_oracle(d), atol=1e-9
    )


def test_dense_oracle_cap():
    with pytest.raises(ValueError, match="cap"):
        dense_orbit_oracle(5000)


def test_equal_weights_in_the_fourier_basis():
    # the cycle's starting vector overlaps every shift eigenvector with
    # squared weight exactly 1/d, and those vectors diagonalize the
    # symmetrized shift with eigenvalues cos(2 pi k / d)
    for d in (2, 3, 4, 8, 16):
        shift = np.zeros((d, d))
        for i in range(d):
            shift[(i + 1) % d, i] = 1.0
        sym = (shift + shift.T) / 2.0
        e0 = np.zeros(d)
        e0[0] = 1.0
        for k in range(d):
            omega = np.exp(2j * np.pi * k / d)
            v = np.array([omega**j for j in range(d)]) / math.sqrt(d)
            assert np.allclose(shift @ v, omega.conjugate() * v)
            assert np.allclose(sym @ v, math.cos(2 * math.pi * k / d) * v)
            assert abs(abs(np.vdot(v, e0)) ** 2 - 1.0 / d) < 1e-12


@pytest.mark.parametrize("d", [64, 128, 256, 1024, 4096])
def test_spectral_gap_tracks_quadratic_taylor_term(d):
    gap = 1.0 - math.cos(2.0 * math.pi / d)
    quadratic = (2.0 * math.pi / d) ** 2 / 2.0
    assert 0.9 * quadratic <= gap <= 1.1 * quadratic


# ---------------------------------------------------------------------------
# locality


def test_locality_single_wire_gates():
    op = identity_op(3)
    report = locality_report(op)
    assert report.max_support == 3
    assert len(report.term_supports) == 3


@pytest.mark.parametrize("name", corpus.machine_names())
def test_locality_merged_wrapper_is_four(name):
    circuit = build_wrapper_circuit(corpus.load(name), merge_cells=True)
    report = locality_report(ForwardOperator(circuit))
    assert report.max_support == 4
    assert len(report.term_supports) == circuit.s


def test_locality_three_wire_gate_flagged_as_five():
    spec = corpus.load("flipwalk")
    layout = machine_layout(spec)

    def ctrl_swap(env):
        here = env["tape_index"] == 0
        t1, t2 = env[tape_register(1)], env[tape_register(2)]
        return {tape_register(1): np.where(here, t2, t1), tape_register(2): np.where(here, t1, t2)}

    gate = lift_gate(
        layout, ["tape_index", tape_register(1), tape_register(2)], ctrl_swap, "ctrl-swap"
    )
    report = locality_report(ForwardOperator(Circuit(layout=layout, gates=(gate,))))
    assert report.max_support == 5
    assert report.max_support > 4  # exceeds the two-wire-gate budget


def test_unmerged_wrapper_exceeds_four():
    circuit = build_wrapper_circuit(corpus.load("flip"), merge_cells=False)
    report = locality_report(ForwardOperator(circuit))
    assert report.max_support > 4


# ---------------------------------------------------------------------------
# time scale


def test_time_scale_keeps_eigenvalue_map_injective():
    # spectrum of a 2-local observable on 4 wires scaled to norm 16: the map
    # eigenvalue -> exp(-i * eigenvalue * t) is one-to-one. With t = pi/norm
    # the only possible collision is the endpoint pair (-norm, +norm), which
    # an odd cycle never realizes (it has +1 but not -1 in its spectrum).
    bound = 4**2
    t = math.pi / bound
    eigenvalues = [bound * x for x in expanded_eigenvalues(spectral_model(65))]
    phases = [complex(math.cos(-x * t), math.sin(-x * t)) for x in eigenvalues]
    distinct_eig = sorted({round(x, 12) for x in eigenvalues})
    distinct_ph = {(round(p.real, 12), round(p.imag, 12)) for p in phases}
    assert len(distinct_ph) == len(distinct_eig)

    # even cycles hit both endpoints, which alias to the same phase; every
    # interior eigenvalue still reads out uniquely
    even = [bound * x for x in expanded_eigenvalues(spectral_model(64))]
    ph = {
        (round(math.cos(-x * t), 12), round(math.sin(-x * t), 12)) for x in even
    }
    assert len(ph) == len({round(x, 12) for x in even}) - 1
