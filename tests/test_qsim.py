import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qpflow.lcu import LCUDecomposition, pauli_decompose
from qpflow.qsim import (
    DepthCounter,
    PauliString,
    PhaseEstimation,
    StateVector,
    _matrix_power,
    _trotter_unitary,
    apply_pauli_exponential,
    depth_report,
    eigenvalue_inversion,
    measure_ancilla_postselect,
)


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def product_formula(dec, t, m):
    """The m-step product formula for exp(i*t*H), as QPE builds its blocks."""
    return _matrix_power(_trotter_unitary(dec.terms, t / m, 1 << dec.n), m)


class TestPauliExponential:
    def test_z_phase_on_zero(self):
        out = apply_pauli_exponential(StateVector.zero(1), PauliString(1, "Z"), 0.7)
        assert out.amps[0] == pytest.approx(np.exp(0.7j))
        assert out.amps[1] == 0

    def test_x_half_pi(self):
        out = apply_pauli_exponential(StateVector.zero(1), PauliString(1, "X"), np.pi / 2)
        assert abs(out.amps[0]) < 1e-15
        assert out.amps[1] == pytest.approx(1j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli_exponential(StateVector.zero(2), PauliString(1, "X"), 0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
        st.floats(-4, 4, allow_nan=False),
    )
    def test_matches_dense_expm(self, n, seed, angle):
        rng = np.random.default_rng(seed)
        letters = "".join(rng.choice(list("IXYZ"), n))
        p = PauliString(n, letters)
        state = random_state(rng, n)
        got = apply_pauli_exponential(state, p, angle).amps
        want = expm(1j * angle * p.dense()) @ state.amps
        assert np.max(np.abs(got - want)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**31 - 1), st.floats(-3, 3, allow_nan=False))
    def test_norm_preserved(self, n, seed, angle):
        rng = np.random.default_rng(seed)
        letters = "".join(rng.choice(list("IXYZ"), n))
        out = apply_pauli_exponential(random_state(rng, n), PauliString(n, letters), angle)
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-10


class TestTrotter:
    def test_single_term_exact_any_m(self):
        h = np.array([[1.0, 0.4], [0.4, -0.3]])
        dec = pauli_decompose(h)
        # restrict to one Pauli term
        one = LCUDecomposition(1, dec.terms[:1])
        rng = np.random.default_rng(4)
        state = random_state(rng, 1)
        dense = sum(c * p.dense() for p, c in one.terms)
        for m in (1, 3, 10):
            got = product_formula(one, 0.9, m) @ state.amps
            want = expm(0.9j * dense) @ state.amps
            assert np.max(np.abs(got - want)) < 1e-12

    def test_error_decreases_with_doubling(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]])  # X + Z
        dec = pauli_decompose(h)
        want = expm(1j * h)
        errs = [np.linalg.norm(product_formula(dec, 1.0, m) - want, 2) for m in (4, 8, 16)]
        assert errs[0] > errs[1] > errs[2]

    def test_random_two_term_convergence(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            letters = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(2)]
            if letters[0] == letters[1]:
                continue
            terms = LCUDecomposition(
                n, [(PauliString(n, w), float(rng.normal())) for w in letters]
            )
            dense = sum(c * p.dense() for p, c in terms.terms)
            want = expm(1j * 0.8 * dense)
            errs = [np.linalg.norm(product_formula(terms, 0.8, m) - want, 2) for m in (2, 4, 8)]
            assert errs[0] >= errs[1] - 1e-12
            assert errs[1] >= errs[2] - 1e-12


class TestQpe:
    def test_z_dyadic_phase(self):
        # eigenvalue +1 of Z at t0 = pi/2: phase 1/4, clock pattern |01>
        ham = pauli_decompose(np.diag([1.0, -1.0]))
        out = PhaseEstimation(ham, clock_bits=2, t0=np.pi / 2).forward(StateVector.zero(1))
        mass = out.probabilities().reshape(4, 2).sum(axis=1)
        assert mass[1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian(self):
        ham = LCUDecomposition(1, [(PauliString(1, "I"), 0.0)])
        out = PhaseEstimation(ham, clock_bits=3, t0=1.0).forward(StateVector.zero(1))
        mass = out.probabilities().reshape(8, 2).sum(axis=1)
        assert mass[0] == pytest.approx(1.0, abs=1e-12)

    def test_clock_bits_validation(self):
        ham = pauli_decompose(np.eye(2))
        with pytest.raises(ValueError):
            PhaseEstimation(ham, clock_bits=0, t0=1.0)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        ham = pauli_decompose(np.array([[0.5, 0.2], [0.2, -0.1]]))
        state = random_state(rng, 1)
        qpe = PhaseEstimation(ham, 3, 0.7)
        back = qpe.adjoint(qpe.forward(state))
        blocks = back.amps.reshape(8, 2)
        assert np.max(np.abs(blocks[0] - state.amps)) < 1e-10
        assert np.sum(np.abs(blocks[1:]) ** 2) < 1e-20

    def test_adjoint_on_random_states(self):
        # adjoint(forward(s)) == s tensor |0..0> holds exactly, because the
        # controlled blocks cancel as matrices regardless of the phases
        rng = np.random.default_rng(12)
        ham = pauli_decompose(np.array([[1.0, 0.3], [0.3, 0.2]]))
        qpe = PhaseEstimation(ham, 2, 0.5)
        for _ in range(5):
            sys_state = random_state(rng, 1)
            out = qpe.adjoint(qpe.forward(sys_state))
            want = np.zeros(8, complex)
            want[:2] = sys_state.amps
            assert np.max(np.abs(out.amps - want)) < 1e-10

    def test_adjoint_with_trailing_ancilla(self):
        # the adjoint takes the registers after the system from ham.n; an
        # ancilla entangled with the QPE output rides along untouched
        rng = np.random.default_rng(21)
        h = rng.normal(size=(4, 4))
        ham = pauli_decompose(h + h.T)
        s0, s1 = random_state(rng, 2), random_state(rng, 2)
        qpe = PhaseEstimation(ham, 2, 0.5)
        fwd0, fwd1 = qpe.forward(s0), qpe.forward(s1)
        joint = np.stack([fwd0.amps, fwd1.amps], axis=1).reshape(-1) / np.sqrt(2)
        out = qpe.adjoint(StateVector(fwd0.n + 1, joint))
        want = np.zeros((4, 4, 2), complex)
        want[0, :, 0] = s0.amps / np.sqrt(2)
        want[0, :, 1] = s1.amps / np.sqrt(2)
        assert out.n == 5
        assert np.max(np.abs(out.amps - want.reshape(-1))) < 1e-10

    def test_depth_equal_forward_backward(self):
        ham = pauli_decompose(np.array([[1.0, 0.3], [0.3, 0.2]]))
        c1, c2 = DepthCounter(), DepthCounter()
        qpe = PhaseEstimation(ham, 2, 0.5)
        qpe.adjoint(qpe.forward(StateVector.zero(1), c1), c2)
        assert c1.depth == c2.depth

    def test_deterministic_basis_state_for_commuting_ham(self):
        # diagonal (commuting) terms, dyadic eigenphases: exact clock readout
        ham = pauli_decompose(np.diag([3.0, 1.0, 2.0, 1.0]))
        t0 = 2 * np.pi / 8  # integer eigenvalues -> phases k/8 at 3 clock bits
        for idx, lam in ((0, 3), (1, 1), (2, 2)):
            amps = np.zeros(4, complex)
            amps[idx] = 1.0
            out = PhaseEstimation(ham, 3, t0).forward(StateVector(2, amps))
            mass = out.probabilities().reshape(8, 4).sum(axis=1)
            assert mass[lam] == pytest.approx(1.0, abs=1e-12)


class TestEigenvalueInversion:
    def setup_state(self, clock_bits, m, n_sys=1):
        amps = np.zeros((1 << clock_bits) * (1 << n_sys), complex)
        amps[m * (1 << n_sys)] = 1.0
        return StateVector(clock_bits + n_sys, amps)

    def test_lambda_equal_c(self):
        state = self.setup_state(2, 1)
        out = eigenvalue_inversion(state, 2, c_const=0.25)
        shaped = out.amps.reshape(4, 2, 2)
        assert abs(shaped[1, 0, 1]) == pytest.approx(1.0)
        assert abs(shaped[1, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_lambda_twice_c(self):
        state = self.setup_state(2, 2)
        out = eigenvalue_inversion(state, 2, c_const=0.25)
        shaped = out.amps.reshape(4, 2, 2)
        assert abs(shaped[2, 0, 0]) == pytest.approx(np.sqrt(3) / 2)
        assert abs(shaped[2, 0, 1]) == pytest.approx(0.5)

    def test_rotation_count(self):
        for c in (1, 2, 4):
            counter = DepthCounter()
            eigenvalue_inversion(self.setup_state(c, 1), c, 2.0 ** (-c - 1), counter)
            assert counter.ctrl_rotation == 2**c - 1

    def test_zero_clock_amplitude_rejected(self):
        state = self.setup_state(2, 0)
        with pytest.raises(ValueError, match="clock value 0"):
            eigenvalue_inversion(state, 2, c_const=0.1)

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            eigenvalue_inversion(self.setup_state(2, 1), 2, c_const=0.0)

    def test_out_of_range_ratio_rejected_when_represented(self):
        state = self.setup_state(3, 1)  # phase 1/8
        with pytest.raises(ValueError, match="C/lambda"):
            eigenvalue_inversion(state, 3, c_const=0.5)


def test_default_trotter_steps_are_ten():
    # the published simulation setting is M = 10; keep it the default on
    # every surface that exposes a step count
    import inspect

    from qpflow.hhl import HHLConfig
    from qpflow.resources import DepthQuery

    assert HHLConfig().trotter_m == 10
    assert DepthQuery(n=1, l=1).trotter_m == 10
    assert inspect.signature(PhaseEstimation).parameters["trotter_m"].default == 10


class TestPostselect:
    def test_ancilla_already_one(self):
        amps = np.zeros(4, complex)
        amps[1] = 1.0  # qubit 1 (LSB) = |1>, qubit 0 = |0>
        state, prob = measure_ancilla_postselect(StateVector(2, amps), ancilla=1, want=1)
        assert prob == pytest.approx(1.0)
        assert state.amps[0] == pytest.approx(1.0)

    def test_balanced_ancilla(self):
        amps = np.array([1.0, 1.0, 0.0, 0.0], complex) / np.sqrt(2)
        state, prob = measure_ancilla_postselect(StateVector(2, amps), ancilla=1, want=1)
        assert prob == pytest.approx(0.5)

    def test_impossible_postselection(self):
        with pytest.raises(ValueError, match="probability"):
            measure_ancilla_postselect(StateVector.zero(2), ancilla=1, want=1)


class TestDepthCounter:
    def test_empty_circuit(self):
        assert DepthCounter().depth == 0

    def test_single_cnot(self):
        c = DepthCounter()
        c.add_two(1)
        assert c.depth == 1

    def test_monotone_under_append(self):
        c = DepthCounter()
        prev = 0
        for _ in range(5):
            c.add_pauli_exp(weight=2, n_basis_changes=1, controlled=True)
            assert c.depth > prev
            prev = c.depth

    def test_report_schema(self):
        rec = depth_report(DepthCounter(1, 2, 3))
        assert rec == {"single_qubit": 1, "two_qubit": 2, "ctrl_rotation": 3, "depth": 6}

    def test_full_hhl_instance_near_published_value(self):
        # n=2 system, L=1, M=10 against the published 273 within x3
        from qpflow.hhl import HHLConfig, hhl_solve

        a = np.diag([1.0, 1.0, -1.0, -1.0])  # single Pauli term: L = 1
        b = np.array([1.0, 1.0, 1.0, 1.0]) / 2
        res = hhl_solve(a, b, HHLConfig(clock_bits=2, trotter_m=10))
        assert 273 / 3 <= res.depth.depth <= 273 * 3

    def test_qpe_plus_iqpe_about_twice_qpe(self):
        ham = pauli_decompose(np.array([[1.0, 0.3], [0.3, 0.2]]))
        c_f, c_b = DepthCounter(), DepthCounter()
        qpe = PhaseEstimation(ham, 2, 0.5)
        qpe.adjoint(qpe.forward(StateVector.zero(1), c_f), c_b)
        ratio = (c_f.depth + c_b.depth) / c_f.depth
        assert 1.8 <= ratio <= 2.6
