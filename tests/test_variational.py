import json

import numpy as np
import pytest

from qpflow.grid import SolverError, build_quadratic_forms, parse_case
from qpflow.lcu import pauli_decompose
from qpflow.newton import NewtonConfig, newton_raphson
from qpflow.qsim import StateVector
from qpflow.variational import (
    Ansatz,
    LocalVqlsLoss,
    OptimizerConfig,
    VqpfLoss,
    VQPFProblem,
    ansatz_amplitudes,
    apply_ansatz,
    gradient,
    qpf_vqls,
    vqls_loss_global,
    vqls_loss_local,
    vqls_solve,
    vqpf_from_power_flow,
    vqpf_loss,
    vqpf_solve,
)

TWO_BUS = json.dumps(
    {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "pq", "p_load": 0.3, "q_load": 0.1},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.03, "x": 0.12, "b_sh": 0.02}],
    }
)


def random_system(rng, n):
    a = rng.normal(size=(1 << n, 1 << n))
    return a + a.T


def central_difference_gradient(loss, a, step=1e-5):
    """Finite-difference reference for the parameter-shift gradient."""
    grad = np.empty(a.theta.size)
    for k in range(a.theta.size):
        theta_p = a.theta.copy()
        theta_m = a.theta.copy()
        theta_p[k] += step
        theta_m[k] -= step
        grad[k] = (loss.value(a.with_theta(theta_p)) - loss.value(a.with_theta(theta_m))) / (2 * step)
    return grad


class TestAnsatz:
    def test_zero_layers_zero_angles(self):
        a = Ansatz(2, 0, np.zeros(2))
        assert np.allclose(ansatz_amplitudes(a), [1, 0, 0, 0])

    def test_single_y_rotation_pi(self):
        a = Ansatz(1, 0, np.array([np.pi]))
        amps = ansatz_amplitudes(a)
        assert abs(abs(amps[1]) - 1) < 1e-12

    def test_norm_one_random(self):
        for seed in range(5):
            a = Ansatz.random(3, 2, seed=seed, scale=2.0)
            assert np.linalg.norm(ansatz_amplitudes(a)) == pytest.approx(1.0)

    def test_apply_ansatz_state(self):
        state = apply_ansatz(Ansatz.random(2, 1, seed=1))
        assert isinstance(state, StateVector)

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError):
            Ansatz(2, 1, np.zeros(3))

    def test_flat_start_prepares_flat_direction(self):
        a = Ansatz.flat_start(3, 1, noise=0.0)
        amps = ansatz_amplitudes(a)
        want = np.zeros(8)
        want[0::2] = 0.5
        assert np.allclose(amps, want)


class TestLosses:
    def test_global_zero_at_solution(self):
        rng = np.random.default_rng(0)
        a_mat = random_system(rng, 2)
        ans = Ansatz.random(2, 2, seed=3)
        psi = a_mat @ ansatz_amplitudes(ans)
        assert vqls_loss_global(ans, a_mat, psi) == pytest.approx(0.0, abs=1e-12)

    def test_global_one_when_orthogonal(self):
        a_mat = np.eye(2)
        ans = Ansatz(1, 0, np.zeros(1))  # psi = |0>
        assert vqls_loss_global(ans, a_mat, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_global_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a_mat = random_system(rng, 2)
            b = rng.normal(size=4)
            ans = Ansatz.random(2, 2, seed=int(rng.integers(100)), scale=1.0)
            psi = a_mat @ ansatz_amplitudes(ans)
            psi /= np.linalg.norm(psi)
            b_unit = b / np.linalg.norm(b)
            want = 1 - float(np.dot(b_unit, psi)) ** 2
            assert vqls_loss_global(ans, a_mat, b) == pytest.approx(want, abs=1e-10)

    def test_local_zero_at_solution(self):
        rng = np.random.default_rng(2)
        a_mat = random_system(rng, 2)
        ans = Ansatz.random(2, 2, seed=5)
        b = a_mat @ ansatz_amplitudes(ans)
        assert vqls_loss_local(ans, a_mat, b) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sandwich_bound(self, n):
        rng = np.random.default_rng(n)
        for trial in range(100):
            a_mat = random_system(rng, n)
            b = rng.normal(size=1 << n)
            ans = Ansatz.random(n, 2, seed=trial, scale=1.0)
            lg = vqls_loss_global(ans, a_mat, b)
            ll = vqls_loss_local(ans, a_mat, b)
            assert ll <= lg + 1e-9
            assert lg <= n * ll + 1e-9
            if n == 1:
                assert ll == pytest.approx(lg, abs=1e-9)

    def test_annihilated_state_rejected(self):
        ans = Ansatz(1, 0, np.zeros(1))
        a_mat = np.array([[0.0, 0.0], [0.0, 1.0]])  # kills |0>
        with pytest.raises(SolverError, match="annihilated"):
            vqls_loss_global(ans, a_mat, np.array([1.0, 0.0]))


class TestGradient:
    def test_zero_at_minimum(self):
        rng = np.random.default_rng(3)
        a_mat = random_system(rng, 2)
        ans = Ansatz.random(2, 2, seed=7)
        b = a_mat @ ansatz_amplitudes(ans)
        g = gradient(LocalVqlsLoss(a_mat, b), ans)
        assert np.linalg.norm(g) < 1e-6

    def test_parameter_shift_matches_finite_diff(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            a_mat = random_system(rng, 2)
            b = rng.normal(size=4)
            ans = Ansatz.random(2, 2, seed=trial, scale=0.8)
            loss = LocalVqlsLoss(a_mat, b)
            g_ps = gradient(loss, ans)
            g_fd = central_difference_gradient(loss, ans)
            denom = max(1.0, np.max(np.abs(g_ps)))
            assert np.max(np.abs(g_ps - g_fd)) / denom < 1e-4

    def test_constant_loss_zero_gradient(self):
        # A = identity and b equal to the ansatz state: the loss sits at its
        # minimum, so every shift cancels
        ans = Ansatz(2, 1, np.zeros(4))
        b = ansatz_amplitudes(ans)
        g = gradient(LocalVqlsLoss(np.eye(4), b), ans)
        assert np.max(np.abs(g)) < 1e-12


class TestVqlsSolve:
    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_converges(self, n):
        rng = np.random.default_rng(3)
        b = rng.normal(size=1 << n)
        a0 = Ansatz.random(n, 2, seed=1)
        ansatz, rec = vqls_solve(np.eye(1 << n), b, a0, OptimizerConfig(max_steps=200))
        assert rec.converged
        assert rec.loss_curve[-1] < 1e-6
        b_unit = b / np.linalg.norm(b)
        assert abs(np.dot(rec.x_state, b_unit)) > 0.999

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(8)
        a_mat = random_system(rng, 2) + 4 * np.eye(4)
        b = rng.normal(size=4)
        a0 = Ansatz.random(2, 2, seed=2)
        _, rec = vqls_solve(a_mat, b, a0, OptimizerConfig(max_steps=100, tol=1e-12))
        assert rec.loss_curve[-1] <= rec.loss_curve[0]

    def test_low_loss_implies_high_fidelity(self):
        rng = np.random.default_rng(9)
        hits = 0
        for seed in range(6):
            a_mat = random_system(rng, 2) + 5 * np.eye(4)
            b = rng.normal(size=4)
            a0 = Ansatz.random(2, 3, seed=seed)
            _, rec = vqls_solve(a_mat, b, a0, OptimizerConfig(max_steps=600, tol=1e-7))
            if rec.loss_curve[-1] < 1e-3:
                hits += 1
                x = np.linalg.solve(a_mat, b)
                x /= np.linalg.norm(x)
                fid = abs(np.dot(rec.x_state, x))
                assert fid >= 1 - 10 * rec.loss_curve[-1]
        assert hits >= 3

    def test_accepts_lcu_input(self):
        a_mat = np.array([[3.0, 0.5], [0.5, 2.5]])
        dec = pauli_decompose(a_mat)
        b = np.array([1.0, -0.4])
        a0 = Ansatz.random(1, 1, seed=0)
        _, rec_lcu = vqls_solve(dec, b, a0, OptimizerConfig(max_steps=300))
        _, rec_dense = vqls_solve(a_mat, b, a0, OptimizerConfig(max_steps=300))
        assert rec_lcu.loss_curve[-1] < 1e-5
        assert rec_lcu.loss_curve == rec_dense.loss_curve

    def test_scale_recovery(self):
        rng = np.random.default_rng(11)
        a_mat = random_system(rng, 2) + 5 * np.eye(4)
        x_true = rng.normal(size=4)
        b = a_mat @ x_true
        a0 = Ansatz.random(2, 3, seed=1)
        _, rec = vqls_solve(a_mat, b, a0, OptimizerConfig(max_steps=800, tol=1e-10))
        if rec.loss_curve[-1] < 1e-6:
            assert rec.scale * rec.x_state == pytest.approx(x_true, abs=2e-2)

    def test_loss_csv_format(self):
        rng = np.random.default_rng(12)
        a0 = Ansatz.random(1, 1, seed=0)
        _, rec = vqls_solve(np.eye(2), rng.normal(size=2), a0, OptimizerConfig(max_steps=5))
        lines = rec.loss_csv().decode().splitlines()
        assert lines[0] == "step,loss,grad_norm"
        assert len(lines) == len(rec.loss_curve) + 1


class TestQpfVqls:
    def test_case3_matches_newton(self, problem3):
        u_star, _ = newton_raphson(problem3)
        u_v, trace = qpf_vqls(
            problem3,
            NewtonConfig(k_max=8, eps0=1e-5),
            layers=4,
            opt=OptimizerConfig(max_steps=400, tol=2e-4, seed=0),
        )
        assert trace.converged
        assert np.max(np.abs(u_v - u_star)) < 1e-2
        assert trace.extras["inner_loss_curves"]

    def test_capped_inner_solve_reported(self, problem3):
        _, trace = qpf_vqls(
            problem3,
            NewtonConfig(k_max=1),
            layers=4,
            opt=OptimizerConfig(max_steps=2, tol=2e-4, seed=0),
        )
        assert trace.extras["inner_converged"] == [False]
        assert trace.extras["inner_steps"] == [2]

    def test_warm_start_reduces_inner_steps(self, problem3):
        kwargs = dict(
            cfg_newton=NewtonConfig(k_max=8, eps0=1e-5),
            layers=4,
            opt=OptimizerConfig(max_steps=400, tol=2e-4, seed=0),
        )
        _, warm = qpf_vqls(problem3, warm_start=True, **kwargs)
        _, cold = qpf_vqls(problem3, warm_start=False, **kwargs)
        assert sum(warm.extras["inner_steps"][1:]) <= sum(cold.extras["inner_steps"][1:])


@pytest.fixture(scope="module")
def two_bus():
    problem = build_quadratic_forms(parse_case(TWO_BUS))
    u_star, trace = newton_raphson(problem)
    assert trace.converged
    return problem, u_star


class TestVqpf:
    def test_loss_zero_at_true_solution(self, two_bus):
        problem, u_star = two_bus
        vp = vqpf_from_power_flow(problem)
        psi = u_star / np.linalg.norm(u_star)
        loss = VqpfLoss(vp)
        e = np.array([float(psi @ (h @ psi)) for h in loss.matrices])
        assert loss.value_from(e) == pytest.approx(0.0, abs=1e-15)

    def test_one_qubit_toy_hand_computation(self):
        # observables Z and X on one qubit with targets consistent with the
        # state (cos t, sin t): <Z> = cos 2t, <X> = sin 2t
        t = 0.3
        vp = VQPFProblem(
            n=1,
            observables=[np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
            rhs=np.array([np.cos(2 * t), np.sin(2 * t)]),
            reference_row=0,
            live_dim=2,
        )
        ans = Ansatz(1, 0, np.array([2 * t]))  # RY(2t)|0> = (cos t, sin t)
        want = 0.5 * (np.sin(2 * t) / np.cos(2 * t) - np.sin(2 * t) / np.cos(2 * t)) ** 2
        assert vqpf_loss(vp, ans) == pytest.approx(want, abs=1e-12)
        # a mismatched angle gives the hand-computed ratio gap
        ans_off = Ansatz(1, 0, np.array([2 * t + 0.2]))
        got = vqpf_loss(vp, ans_off)
        ratio = np.sin(2 * t + 0.2) / np.cos(2 * t + 0.2)
        want_off = 0.5 * (ratio - np.tan(2 * t)) ** 2
        assert got == pytest.approx(want_off, abs=1e-12)

    def test_loss_invariant_under_joint_rescaling(self, two_bus):
        problem, _ = two_bus
        vp = vqpf_from_power_flow(problem)
        scaled = VQPFProblem(vp.n, vp.observables, 3.0 * vp.rhs, vp.reference_row, vp.live_dim)
        ans = Ansatz.flat_start(vp.n, 2, seed=1)
        assert vqpf_loss(vp, ans) == pytest.approx(vqpf_loss(scaled, ans), rel=1e-12)

    def test_two_bus_solves_to_newton(self, two_bus):
        problem, u_star = two_bus
        vp = vqpf_from_power_flow(problem)
        a0 = Ansatz.flat_start(vp.n, 2, seed=0)
        _, u_v, c, _ = vqpf_solve(vp, a0, OptimizerConfig(max_steps=3000, tol=1e-16))
        assert np.max(np.abs(u_v - u_star)) < 1e-3
        assert c == pytest.approx(float(u_star @ u_star), rel=1e-3)

    def test_recovered_scale_consistency(self, two_bus):
        problem, u_star = two_bus
        vp = vqpf_from_power_flow(problem)
        a0 = Ansatz.flat_start(vp.n, 2, seed=0)
        ans, u_v, c, _ = vqpf_solve(vp, a0, OptimizerConfig(max_steps=3000, tol=1e-16))
        psi = ansatz_amplitudes(ans)
        for obs, f in zip(vp.observables, vp.rhs):
            got = float(psi @ (obs @ psi)) * c
            assert got == pytest.approx(f, abs=1e-3)

    def test_warm_start_at_solution_zero_steps(self, two_bus):
        problem, u_star = two_bus
        vp = vqpf_from_power_flow(problem)
        a0 = Ansatz.flat_start(vp.n, 2, seed=0)
        ans, _, _, _ = vqpf_solve(vp, a0, OptimizerConfig(max_steps=3000, tol=1e-16))
        loss = VqpfLoss(vp)
        restart = OptimizerConfig(max_steps=100, tol=1e-10)
        _, rec2 = __import__("qpflow.variational", fromlist=["_descend"])._descend(loss, ans, restart)
        assert rec2.steps == 0

    def test_reference_near_zero_rejected(self):
        vp = VQPFProblem(
            n=1,
            observables=[np.diag([1.0, -1.0]), np.eye(2)],
            rhs=np.array([1.0, 1.0]),
            reference_row=0,
            live_dim=2,
        )
        ans = Ansatz(1, 0, np.array([np.pi / 2]))  # <Z> = 0
        with pytest.raises(ValueError, match="reference"):
            vqpf_loss(vp, ans)
