import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qpflow.grid import (
    BusKind,
    CaseError,
    RowKind,
    build_admittance,
    build_quadratic_forms,
    condition_number,
    flat_start,
    jacobian,
    parse_case,
    residual,
    sparsity,
)
from qpflow.newton import newton_raphson


def make_case(buses, branches):
    return json.dumps({"base_mva": 100.0, "buses": buses, "branches": branches})


SLACK = {"id": 1, "kind": "slack", "v_set": 1.0}


class TestParseCase:
    def test_case3_shape(self, case3):
        assert case3.n_bus == 3
        assert case3.n_gen == 2
        assert [b.kind for b in case3.buses] == [BusKind.SLACK, BusKind.PV, BusKind.PQ]

    def test_reorders_slack_first(self):
        raw = make_case(
            [
                {"id": 7, "kind": "pq", "p_load": 0.1, "q_load": 0.0},
                {"id": 3, "kind": "slack", "v_set": 1.0},
                {"id": 5, "kind": "pv", "v_set": 1.0, "p_gen": 0.1},
            ],
            [{"from": 3, "to": 5, "r": 0.0, "x": 0.1}, {"from": 5, "to": 7, "r": 0.0, "x": 0.1}],
        )
        case = parse_case(raw)
        assert [b.kind for b in case.buses] == [BusKind.SLACK, BusKind.PV, BusKind.PQ]
        assert case.index_map == {3: 1, 5: 2, 7: 3}

    def test_single_slack_bus_no_branches(self):
        case = parse_case(make_case([SLACK], []))
        assert case.n_bus == 1

    def test_missing_buses_key(self):
        with pytest.raises(CaseError, match="buses"):
            parse_case(json.dumps({"branches": []}))

    def test_malformed_json(self):
        with pytest.raises(CaseError, match="malformed"):
            parse_case(b"{not json")

    def test_no_slack(self):
        raw = make_case([{"id": 1, "kind": "pq", "p_load": 0.0, "q_load": 0.0}], [])
        with pytest.raises(CaseError, match="no slack"):
            parse_case(raw)

    def test_two_slacks(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "slack", "v_set": 1.0}],
            [{"from": 1, "to": 2, "r": 0.0, "x": 0.1}],
        )
        with pytest.raises(CaseError, match="slack"):
            parse_case(raw)

    def test_disconnected(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [],
        )
        with pytest.raises(CaseError, match="disconnected"):
            parse_case(raw)

    def test_nonzero_slack_angle_rejected(self):
        raw = make_case([{"id": 1, "kind": "slack", "v_set": 1.0, "theta_set": 0.1}], [])
        with pytest.raises(CaseError, match="theta_set"):
            parse_case(raw)

    def test_zero_impedance_branch(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [{"from": 1, "to": 2, "r": 0.0, "x": 0.0}],
        )
        with pytest.raises(CaseError, match="impedance"):
            parse_case(raw)


class TestAdmittance:
    def test_pure_reactance(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [{"from": 1, "to": 2, "r": 0.0, "x": 1.0}],
        )
        y = build_admittance(parse_case(raw))
        want = np.array([[-1j, 1j], [1j, -1j]])
        assert np.allclose(y, want)

    def test_empty_branches(self):
        y = build_admittance(parse_case(make_case([SLACK], [])))
        assert not y.any()

    def test_case3_matches_hand_computation(self, case3):
        y = build_admittance(case3)
        # independent reassembly straight from the branch list
        want = np.zeros((3, 3), dtype=complex)
        for br in case3.branches:
            ys = 1.0 / complex(br.r, br.x)
            f, t = br.from_bus - 1, br.to_bus - 1
            want[f, f] += ys + 0.5j * br.b_sh
            want[t, t] += ys + 0.5j * br.b_sh
            want[f, t] -= ys
            want[t, f] -= ys
        assert np.allclose(y, want, atol=1e-15)
        assert np.allclose(y, y.T)

    def test_parallel_branches_merge(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [
                {"from": 1, "to": 2, "r": 0.0, "x": 1.0},
                {"from": 1, "to": 2, "r": 0.0, "x": 1.0},
            ],
        )
        y = build_admittance(parse_case(raw))
        assert np.allclose(y[0, 1], 2j)


class TestQuadraticForms:
    def test_isolated_slack_magnitude_projector(self):
        problem = build_quadratic_forms(parse_case(make_case([SLACK], [])))
        form = problem.forms[0]
        assert np.allclose(form, np.eye(2))
        assert problem.row_kind == [RowKind.VMAG_SLACK, RowKind.THETA_SLACK]

    def test_two_bus_pure_conductance_symbolic(self):
        # P at the PQ bus with a purely resistive branch of conductance g:
        # expanding Re(V2 conj(I2)) by hand gives
        #   g*(u3^2 + u4^2) - g*(u3*u1 + u4*u2)   (1-based coordinates)
        g = 2.5
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [{"from": 1, "to": 2, "r": 1.0 / g, "x": 0.0}],
        )
        problem = build_quadratic_forms(parse_case(raw))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.normal(size=4)
            got = u @ (problem.forms[2] @ u)
            want = g * (u[2] ** 2 + u[3] ** 2) - g * (u[2] * u[0] + u[3] * u[1])
            assert got == pytest.approx(want, abs=1e-12)

    def test_injections_match_complex_power_oracle(self, case3, problem3, request):
        # independent check through complex arithmetic: S_k = V_k conj((Y V)_k)
        u, trace = newton_raphson(problem3)
        assert trace.converged
        v = u[0::2] + 1j * u[1::2]
        s = v * np.conj(build_admittance(case3) @ v)
        for k, bus in enumerate(case3.buses):
            if bus.kind is BusKind.PV:
                assert s[k].real == pytest.approx(bus.p_gen, abs=1e-8)
                assert abs(v[k]) == pytest.approx(bus.v_set, abs=1e-8)
            elif bus.kind is BusKind.PQ:
                assert s[k].real == pytest.approx(-bus.p_load, abs=1e-8)
                assert s[k].imag == pytest.approx(-bus.q_load, abs=1e-8)

        # every row kind of the residual, at random states of every fixture
        rng = np.random.default_rng(17)
        for name in ("case3", "case5", "case14"):
            case = request.getfixturevalue(name)
            problem = request.getfixturevalue(f"problem{name[4:]}")
            y = build_admittance(case)
            for _ in range(5):
                u = rng.normal(size=problem.dim)
                v = u[0::2] + 1j * u[1::2]
                s = v * np.conj(y @ v)
                want = np.empty(problem.dim)
                for a, (kind, k) in enumerate(zip(problem.row_kind, problem.row_bus)):
                    if kind is RowKind.P_INJ:
                        want[a] = s[k].real - problem.rhs[a]
                    elif kind is RowKind.Q_INJ:
                        want[a] = s[k].imag - problem.rhs[a]
                    elif kind in (RowKind.VMAG, RowKind.VMAG_SLACK):
                        want[a] = abs(v[k]) ** 2 - problem.rhs[a]
                    else:
                        assert kind is RowKind.THETA_SLACK and a == 1
                        want[a] = u[1]
                got = residual(problem, u)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_forms_symmetric_exactly(self, problem14):
        forms = problem14.forms
        assert np.array_equal(forms, forms.transpose(0, 2, 1))

    def test_injection_forms_row_count_bounded_by_degree(self, case14, problem14):
        # each M carries at most 2*(d_k + 1) nonzero rows: two coordinates
        # for the bus itself plus two per graph neighbor
        degree = {k: 0 for k in range(case14.n_bus)}
        for br in case14.branches:
            degree[br.from_bus - 1] += 1
            degree[br.to_bus - 1] += 1
        for a, form in enumerate(problem14.forms):
            if problem14.row_kind[a] not in (RowKind.P_INJ, RowKind.Q_INJ):
                continue
            rows_with_entries = np.unique(np.nonzero(form)[0]).size
            assert rows_with_entries <= 2 * (degree[problem14.row_bus[a]] + 1)

    def test_row_support_bounded_by_degree(self, case14, problem14):
        degree = {k: 0 for k in range(case14.n_bus)}
        for br in case14.branches:
            degree[br.from_bus - 1] += 1
            degree[br.to_bus - 1] += 1
        u = np.random.default_rng(1).normal(size=problem14.dim)
        j = jacobian(problem14, u)
        for a, bus in enumerate(problem14.row_bus):
            row_nnz = np.count_nonzero(j[a])
            assert row_nnz <= 2 * (degree[bus] + 1)


class TestResidualJacobian:
    def test_residual_at_golden_solution(self, problem3):
        from qpflow.fixtures import load_fixture

        _, golden = load_fixture("case3")
        f = residual(problem3, np.array(golden["solution"]))
        assert np.max(np.abs(f)) < 1e-10

    def test_flat_start_no_load_no_shunt(self):
        raw = make_case(
            [SLACK, {"id": 2, "kind": "pq", "p_load": 0.0, "q_load": 0.0}],
            [{"from": 1, "to": 2, "r": 0.01, "x": 0.1, "b_sh": 0.0}],
        )
        problem = build_quadratic_forms(parse_case(raw))
        f = residual(problem, flat_start(2))
        assert f[2] == pytest.approx(0.0, abs=1e-15)
        assert f[3] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_scaling(self, problem3):
        u = flat_start(3)
        base = residual(problem3, u)[0] + problem3.rhs[0]
        doubled = residual(problem3, 2 * u)[0] + problem3.rhs[0]
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_dimension_mismatch(self, problem3):
        with pytest.raises(ValueError, match="length"):
            residual(problem3, np.ones(4))
        with pytest.raises(ValueError, match="length"):
            jacobian(problem3, np.ones(4))

    @pytest.mark.parametrize("name", ["case3", "case5", "case14"])
    def test_jacobian_matches_finite_differences(self, name, request):
        problem = request.getfixturevalue(f"problem{name[4:]}")
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            u = flat_start(problem.n_bus) + 0.1 * rng.normal(size=problem.dim)
            j = jacobian(problem, u)
            fd = np.empty_like(j)
            for col in range(problem.dim):
                up, dn = u.copy(), u.copy()
                up[col] += h
                dn[col] -= h
                fd[:, col] = (residual(problem, up) - residual(problem, dn)) / (2 * h)
            assert np.max(np.abs(j - fd)) / np.max(np.abs(j)) < 1e-6

    def test_bytes_independent_of_blas_kernel(self):
        # F and J are numpy reductions, not BLAS calls: forcing OpenBLAS onto
        # its SSE3-only Prescott kernel must not move a bit (where OpenBLAS
        # ignores the variable this compares the default kernel with itself)
        script = (
            "import hashlib, numpy as np\n"
            "from qpflow.fixtures import FIXTURE_NAMES, case_bytes\n"
            "from qpflow.grid import build_quadratic_forms, jacobian, parse_case, residual\n"
            "h = hashlib.sha256()\n"
            "rng = np.random.default_rng(3)\n"
            "for name in FIXTURE_NAMES:\n"
            "    problem = build_quadratic_forms(parse_case(case_bytes(name)))\n"
            "    for _ in range(4):\n"
            "        u = rng.normal(size=problem.dim)\n"
            "        h.update(residual(problem, u).tobytes())\n"
            "        h.update(jacobian(problem, u).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        with contextlib.redirect_stdout(io.StringIO()) as here:
            exec(script, {})
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == here.getvalue()

    def test_single_bus_jacobian(self):
        problem = build_quadratic_forms(parse_case(make_case([SLACK], [])))
        j = jacobian(problem, np.array([1.0, 0.0]))
        assert np.allclose(j[0], [2.0, 0.0])
        assert np.allclose(j[1], [0.0, 1.0])


class TestSparsityCondition:
    def test_identity(self):
        assert sparsity(np.eye(5)) == 1

    def test_dense(self):
        assert sparsity(np.ones((4, 4))) == 4

    def test_case3_flat_start_hand_count(self, problem3):
        j = jacobian(problem3, flat_start(3))
        by_hand = max(
            max(np.count_nonzero(j[i]) for i in range(6)),
            max(np.count_nonzero(j[:, i]) for i in range(6)),
        )
        assert sparsity(j) == by_hand

    def test_condition_identity(self):
        assert condition_number(np.eye(3)) == pytest.approx(1.0)

    def test_condition_diag(self):
        assert condition_number(np.diag([10.0, 0.1])) == pytest.approx(100.0)

    def test_condition_singular_is_inf(self):
        assert condition_number(np.zeros((2, 2))) == np.inf

    def test_condition_dimension_limit(self):
        with pytest.raises(ValueError, match="limit"):
            # a zero-stride view: the limit is checked before any memory is touched
            condition_number(np.broadcast_to(1.0, (4096, 4096)))
