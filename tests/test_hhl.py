import numpy as np
import pytest

from qpflow.grid import SolverError, flat_start, residual
from qpflow.hhl import HHLConfig, ShadowReadout, hhl_solve, qpf_hhl, quantum_step, recover_normalization
from qpflow.newton import NewtonConfig, newton_raphson


def dyadic_diagonal_system(rng, n, clock_bits):
    """Diagonal system whose eigenphases are exact dyadics at t0 = 2*pi/2**c.

    Integer eigenvalues in [1, 2**c - 1] give phases m/2**c exactly; the
    diagonal LCU commutes, so the evolution is Trotter-exact.
    """
    dim = 1 << n
    eigs = rng.integers(1, (1 << clock_bits) - 1, size=dim).astype(float)
    b = rng.uniform(0.2, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    return np.diag(eigs), b


class TestHhlSolve:
    def test_eigenvector_input(self):
        a, b = np.diag([1.0, -1.0]), np.array([1.0, 0.0])
        res = hhl_solve(a, b, HHLConfig(clock_bits=3))
        assert np.allclose(res.x_state, [1.0, 0.0])
        assert recover_normalization(res.x_state, a, b) == pytest.approx(1.0)

    def test_diag_example_fidelity(self):
        a = np.diag([1.0, 0.5])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        res = hhl_solve(a, b, HHLConfig(clock_bits=2, t0=np.pi))
        want = np.array([1.0, 2.0]) / np.sqrt(5)
        assert abs(np.dot(res.x_state, want)) > 0.999
        assert res.fidelity_vs_exact > 0.999

    def test_success_probability_spectral_oracle(self):
        a = np.diag([1.0, 0.5])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        res = hhl_solve(a, b, HHLConfig(clock_bits=2, t0=np.pi))
        c = res.c_const
        want = 0.5 * (c / 1.0) ** 2 + 0.5 * (c / 0.5) ** 2
        assert res.success_prob == pytest.approx(want, rel=1e-10)

    def test_exact_dyadic_random_systems(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            c = 4
            a, b = dyadic_diagonal_system(rng, n, c)
            res = hhl_solve(a, b, HHLConfig(clock_bits=c, t0=2 * np.pi / (1 << c)))
            assert res.fidelity_vs_exact >= 1 - 1e-8

    def test_monotone_accuracy_in_clock_bits(self):
        rng = np.random.default_rng(42)
        fidelities = {}
        systems = []
        for _ in range(12):
            a = rng.normal(size=(4, 4))
            a = a + a.T + 6 * np.eye(4)
            b = rng.normal(size=4)
            systems.append((a, b))
        for c in (4, 6, 8):
            vals = [
                hhl_solve(a, b, HHLConfig(clock_bits=c)).fidelity_vs_exact
                for a, b in systems
            ]
            fidelities[c] = np.mean(vals)
        assert fidelities[6] >= fidelities[4] - 1e-3
        assert fidelities[8] >= fidelities[6] - 1e-3

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            hhl_solve(np.eye(2), np.zeros(2))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hhl_solve(np.array([[0.0, 1.0], [0.0, 1.0]]), np.ones(2))

    def test_custom_t0_window_violation(self):
        with pytest.raises(ValueError, match="window"):
            hhl_solve(np.diag([1.0, 3.0]), np.ones(2), HHLConfig(clock_bits=3, t0=10.0))

    def test_non_power_of_two_rejected(self):
        # hermitian_dilation pads to a power of two; hhl_solve itself does not
        with pytest.raises(ValueError, match="power of two"):
            hhl_solve(np.diag([1.0, 2.0, 3.0]), np.ones(3), HHLConfig(clock_bits=5))

    def test_complex_input_rejected(self):
        # Hermitian but complex: solving its real part would answer (1, 0)
        # where the solution direction is (0.894, -0.447i)
        with pytest.raises(ValueError, match="real"):
            hhl_solve(np.array([[2, -1j], [1j, 2]]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="real"):
            hhl_solve(np.diag([1.0, 2.0]), np.array([1.0, 1j]))

    def test_success_probability_bounds(self):
        # p <= 1 and p >= (C / lambda_max)^2 * ||beta||^2 on the exact path
        a = np.diag([1.0, 0.5])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        res = hhl_solve(a, b, HHLConfig(clock_bits=2, t0=np.pi))
        assert res.success_prob <= 1.0
        assert res.success_prob >= (res.c_const / res.eigenvalue_window[1]) ** 2 - 1e-12

    def test_dilated_solve_matches_lu_direction(self):
        # dyadic-engineered dilation spectrum: singular values 1 and 2 map,
        # after shift -3 and t0 = 2*pi/8, to exact 3-bit phases
        from qpflow.lcu import hermitian_dilation
        from qpflow.newton import lu_solve

        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        b = np.array([1.0, 1.0])
        tilde, rhs = hermitian_dilation(a, b)
        res = hhl_solve(tilde, rhs, HHLConfig(clock_bits=3, t0=2 * np.pi / 8, shift=-3.0))
        live = res.x_state[2:4]
        live = live / np.linalg.norm(live)
        du = lu_solve(a, b)
        du = du / np.linalg.norm(du)
        err = min(np.max(np.abs(live - du)), np.max(np.abs(live + du)))
        assert err < 1e-6

    def test_blocks_built_once_per_solve(self, monkeypatch):
        # QPE and its adjoint share one set of controlled-evolution blocks
        from qpflow import qsim

        calls = []
        build = qsim._block_unitaries

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(qsim, "_block_unitaries", counting)
        res = hhl_solve(np.diag([1.0, 0.5]), np.array([1.0, 1.0]), HHLConfig(clock_bits=3))
        assert len(calls) == 1
        assert res.fidelity_vs_exact > 0.9


class TestRecoverNormalization:
    def test_exact_direction(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        x = rng.normal(size=6)
        b = a @ x
        scale = recover_normalization(x / np.linalg.norm(x), a, b)
        assert scale == pytest.approx(np.linalg.norm(x), rel=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        x = rng.normal(size=4)
        b = a @ x
        unit = x / np.linalg.norm(x)
        s1 = recover_normalization(unit, a, b)
        s2 = recover_normalization(-unit, a, b)
        assert s2 == pytest.approx(-s1)
        assert np.allclose(s1 * unit, s2 * -unit)

    def test_noisy_direction_error_bound(self):
        rng = np.random.default_rng(6)
        errs = []
        for _ in range(50):
            a = rng.normal(size=(16, 16)) + 16 * np.eye(16)
            x = rng.normal(size=16)
            b = a @ x
            unit = x / np.linalg.norm(x)
            noisy = unit + 1e-3 * rng.normal(size=16)
            noisy /= np.linalg.norm(noisy)
            scale = recover_normalization(noisy, a, b)
            errs.append(abs(scale - np.linalg.norm(x)) / np.linalg.norm(x))
        assert max(errs) <= 1e-2

    def test_all_denominators_tiny(self):
        a = np.zeros((2, 2))
        with pytest.raises(SolverError, match="denominator"):
            recover_normalization(np.array([1.0, 0.0]), a, np.array([1.0, 0.0]))


class TestQpfHhl:
    def test_case3_matches_classical(self, problem3):
        u_classical, _ = newton_raphson(problem3)
        u_q, trace = qpf_hhl(problem3, cfg_hhl=HHLConfig(clock_bits=8, trotter_m=64))
        assert trace.converged
        assert np.max(np.abs(u_q - u_classical)) < 1e-4
        assert min(trace.extras["direction_cosine"]) >= 0.999

    def test_forcing_term_recorded_per_iteration(self, problem3):
        _, trace = qpf_hhl(problem3, NewtonConfig(k_max=3), HHLConfig(clock_bits=6))
        eta = trace.extras["forcing_term"]
        assert len(eta) == trace.iterations == 3
        assert np.all(np.isfinite(eta))

    def test_forcing_term_is_relative_linear_residual(self, problem3):
        # eta = ||J dU + F|| / ||F|| of the step actually taken
        u0 = flat_start(problem3.n_bus)
        u1, trace = qpf_hhl(problem3, NewtonConfig(k_max=1), HHLConfig(clock_bits=6))
        f0 = residual(problem3, u0)
        want = np.linalg.norm(trace.jacobians[0] @ (u1 - u0) + f0) / np.linalg.norm(f0)
        assert trace.extras["forcing_term"][0] == pytest.approx(want, rel=1e-9)

    def test_forcing_term_vanishes_for_exact_inner_solve(self, problem3):
        def exact(a_tilde, b_tilde, iteration):
            x = np.linalg.solve(a_tilde, b_tilde)
            return x / np.linalg.norm(x), {}

        _, trace = newton_raphson(problem3, NewtonConfig(k_max=2), quantum_step(exact))
        assert len(trace.extras["forcing_term"]) == 2
        assert max(trace.extras["forcing_term"]) < 1e-10

    def test_low_clock_bits_degraded_but_terminates(self, problem3):
        u_q, trace = qpf_hhl(
            problem3,
            NewtonConfig(k_max=6),
            HHLConfig(clock_bits=1),
        )
        assert trace.iterations == 6
        assert not trace.converged

    def test_clock_bit_sweep_quality(self, problem3):
        # more clock bits give a no-worse first-step direction
        cosines = {}
        for c in (4, 8):
            _, trace = qpf_hhl(problem3, NewtonConfig(k_max=1), HHLConfig(clock_bits=c, trotter_m=40))
            cosines[c] = trace.extras["direction_cosine"][0]
        assert cosines[8] >= cosines[4] - 1e-3

    def test_shadow_downloader_roundtrip(self, problem3):
        u_classical, _ = newton_raphson(problem3)
        downloader = ShadowReadout(samples=60_000, seed=7)
        u_q, trace = qpf_hhl(
            problem3,
            NewtonConfig(k_max=4, eps0=1e-4),
            HHLConfig(clock_bits=8, trotter_m=40),
            downloader,
        )
        assert trace.iterations >= 1
        assert trace.extras["direction_cosine"][0] > 0.98
