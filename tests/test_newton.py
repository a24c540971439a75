import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qpflow.newton
from qpflow.grid import SolverError, flat_start
from qpflow.newton import NewtonConfig, diagnostics_csv, lu_solve, newton_raphson

CASE14 = str(resources.files("qpflow.cases").joinpath("case14.json"))


def gaussian_elimination_oracle(a, b):
    """Independent elimination with partial pivoting, no library calls."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if a[p, col] == 0:
            raise ZeroDivisionError("singular")
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            a[row, col:] -= m * a[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def lu_solve_with_roundoff(a, b):
    """lu_solve plus a last-bits error in every entry, the slack entry included."""
    x = lu_solve(a, b)
    return x + 1e-15 * np.max(np.abs(x))


@st.composite
def dominant_systems(draw):
    """(A, b) with n <= 30, a random zero pattern and a strictly dominant diagonal."""
    n = draw(st.integers(1, 30))
    entries = draw(arrays(np.float64, (n, n), elements=st.floats(-1, 1, allow_subnormal=False)))
    pattern = draw(arrays(np.bool_, (n, n)))
    a = np.where(pattern, entries, 0.0)
    np.fill_diagonal(a, 0.0)
    sign = np.where(draw(arrays(np.bool_, n)), 1.0, -1.0)
    np.fill_diagonal(a, sign * (np.abs(a).sum(axis=1) + 1.0))
    b = draw(arrays(np.float64, n, elements=st.floats(-1, 1, allow_subnormal=False)))
    return a, b


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(lu_solve(np.eye(3), b), b)

    def test_diag(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_matches_independent_elimination(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(64, 64)) + 64 * np.eye(64)
        b = rng.normal(size=64)
        assert np.max(np.abs(lu_solve(a, b) - gaussian_elimination_oracle(a, b))) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(SolverError):
            lu_solve(np.zeros((3, 3)), np.ones(3))

    @settings(max_examples=60, deadline=None)
    @given(dominant_systems())
    def test_property_residual_and_oracle(self, system):
        a, b = system
        x = lu_solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))
        # |x| <= |b| <= 1 under a diagonal margin of 1, so the bound is relative too
        assert np.max(np.abs(x - gaussian_elimination_oracle(a, b))) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(dominant_systems(), st.data())
    def test_property_zero_row_raises(self, system, data):
        a, b = system
        a[data.draw(st.integers(0, a.shape[0] - 1))] = 0.0
        with pytest.raises(SolverError):
            lu_solve(a, b)

    def test_residual_contract(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(30, 30)) + 30 * np.eye(30)
            b = rng.normal(size=30)
            x = lu_solve(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))


class TestNewton:
    @pytest.mark.parametrize("name", ["3", "5", "14"])
    def test_converges_from_flat_start(self, name, request):
        problem = request.getfixturevalue(f"problem{name}")
        u, trace = newton_raphson(problem)
        assert trace.converged
        assert trace.iterations <= 10
        assert trace.residuals[-1] < 1e-8

    def test_exact_start_zero_iterations(self, problem3):
        u, trace = newton_raphson(problem3)
        u2, trace2 = newton_raphson(problem3, NewtonConfig(u0=u))
        assert trace2.converged
        assert trace2.iterations == 0
        assert np.array_equal(u, u2)

    def test_case3_within_six_iterations(self, problem3):
        _, trace = newton_raphson(problem3)
        assert trace.iterations <= 6

    def test_golden_agreement(self, problem14):
        from qpflow.fixtures import load_fixture

        _, golden = load_fixture("case14")
        u, _ = newton_raphson(problem14)
        assert np.max(np.abs(u - np.array(golden["solution"]))) < 1e-8

    def test_deterministic_trace(self, problem5):
        u1, t1 = newton_raphson(problem5)
        u2, t2 = newton_raphson(problem5)
        assert np.array_equal(u1, u2)
        assert t1.residuals == t2.residuals
        assert t1.kappas == t2.kappas
        assert t1.step_norms == t2.step_norms

    @pytest.mark.parametrize("name", ["3", "5"])
    def test_quadratic_local_convergence(self, name, request):
        problem = request.getfixturevalue(f"problem{name}")
        _, trace = newton_raphson(problem, NewtonConfig(eps0=1e-12))
        r = trace.residuals
        # a case-constant c with r_{k+1} <= c * r_k**2 near the solution;
        # pairs whose successor sits at the float noise floor are excluded
        tail = [(r[k + 1], r[k]) for k in range(len(r) - 1) if r[k] < 1e-2 and r[k + 1] > 1e-13]
        assert tail, "no late-stage iterations recorded"
        cs = [nxt / prev**2 for nxt, prev in tail]
        assert max(cs) < 1e3

    def test_case14_kappa_rises_then_declines(self, problem14):
        _, trace = newton_raphson(problem14)
        kappas = trace.kappas
        peak = int(np.argmax(kappas))
        assert 0 < peak < len(kappas) - 1

    def test_nonconvergence_flag(self, problem14):
        _, trace = newton_raphson(problem14, NewtonConfig(k_max=1))
        assert not trace.converged
        assert trace.iterations == 1

    # the slack-angle row is the linear constraint u[1] = 0, which an exact
    # Newton step satisfies; the returned state must hold it exactly, even
    # when the LU solve leaves round-off in the slack entry.  lu_step looks
    # lu_solve up at call time, so patching the module global reaches it.
    @pytest.mark.parametrize("solver", [lu_solve, lu_solve_with_roundoff])
    @pytest.mark.parametrize("name", ["3", "5", "14"])
    def test_slack_angle_held_at_zero(self, name, solver, request, monkeypatch):
        monkeypatch.setattr(qpflow.newton, "lu_solve", solver)
        problem = request.getfixturevalue(f"problem{name}")
        u, trace = newton_raphson(problem)
        assert trace.converged
        assert u[1] == 0.0

    @pytest.mark.parametrize("solver", [lu_solve, lu_solve_with_roundoff])
    @pytest.mark.parametrize("name", ["3", "5", "14"])
    def test_slack_angle_reset_from_nonzero_start(self, name, solver, request, monkeypatch):
        monkeypatch.setattr(qpflow.newton, "lu_solve", solver)
        problem = request.getfixturevalue(f"problem{name}")
        u0 = flat_start(problem.n_bus)
        u0[1] = 0.1
        u, trace = newton_raphson(problem, NewtonConfig(u0=u0, k_max=1))
        assert trace.iterations == 1
        assert u[1] == 0.0
        u, trace = newton_raphson(problem, NewtonConfig(u0=u0))
        assert trace.converged
        assert u[1] == 0.0


class TestDiagnosticsCsv:
    def test_header_contract(self, problem3):
        _, trace = newton_raphson(problem3)
        lines = diagnostics_csv(trace).decode().splitlines()
        assert lines[0] == "iter,residual,kappa,sparsity,step_norm"
        assert len(lines) == trace.iterations + 1

    def test_single_iteration_trace(self, problem3):
        _, trace = newton_raphson(problem3, NewtonConfig(k_max=1))
        lines = diagnostics_csv(trace).decode().splitlines()
        assert len(lines) == 2

    def test_empty_trace_rejected(self):
        from qpflow.newton import SolveTrace

        with pytest.raises(ValueError):
            diagnostics_csv(SolveTrace())

    def test_sparsity_column_constant_after_first_iteration(self, problem14):
        # the flat start zeroes every imaginary part, which blanks a few
        # entries that are structurally present; from iteration 2 on the
        # strict nonzero count equals the topology-fixed pattern size
        _, trace = newton_raphson(problem14)
        assert len(set(trace.sparsities[1:])) == 1


class TestKappaOnlyWhereRead:
    """The dense SVD behind kappa runs only for callers that report it."""

    @pytest.fixture
    def kappa_calls(self, monkeypatch):
        import qpflow.newton

        calls = []
        original = qpflow.newton.condition_number

        def counting(j):
            calls.append(j.shape)
            return original(j)

        monkeypatch.setattr(qpflow.newton, "condition_number", counting)
        return calls

    def test_harvester_computes_none(self, case14, kappa_calls):
        from qpflow.fixtures import harvest_jacobian_dilations

        assert len(harvest_jacobian_dilations(case14, count=12)) == 12
        assert kappa_calls == []

    def test_lcu_iterate_computes_none(self, tmp_path, kappa_calls):
        from qpflow.cli import main

        assert main(["lcu", CASE14, "--iterate", "3", "--out", str(tmp_path / "t.json")]) == 0
        assert kappa_calls == []

    @pytest.mark.parametrize("command", ["solve", "diagnostics"])
    def test_reported_kappas_computed(self, command, tmp_path, kappa_calls):
        from qpflow.cli import main
        from qpflow.fixtures import load_fixture

        out = tmp_path / "out"
        assert main([command, CASE14, "--out", str(out)]) == 0
        if command == "solve":
            kappas = json.loads(out.read_text())["trace"]["kappas"]
        else:
            kappas = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        want = load_fixture("case14")[1]["trace"]["kappas"]
        assert len(kappa_calls) == len(want)
        assert kappas == pytest.approx(want, rel=1e-9)
