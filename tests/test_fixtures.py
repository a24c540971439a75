import numpy as np
import pytest

from qpflow.fixtures import (
    FIXTURE_NAMES,
    case_bytes,
    harvest_jacobian_dilations,
    load_fixture,
    scale_loads,
)
from qpflow.grid import BusKind, build_quadratic_forms, residual


class TestLoadFixture:
    def test_case3(self):
        case, goldens = load_fixture("case3")
        assert case.n_bus == 3
        assert sum(b.kind is BusKind.SLACK for b in case.buses) == 1

    def test_case14_dilated_dimension(self):
        case, _ = load_fixture("case14")
        assert case.n_bus == 14
        # 2*14 = 28 doubles to 56 under dilation and pads to 64
        from qpflow.lcu import hermitian_dilation

        tilde, _ = hermitian_dilation(np.eye(28), np.zeros(28))
        assert tilde.shape == (64, 64)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            case_bytes("case999")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_golden_residual_invariant(self, name):
        case, goldens = load_fixture(name)
        problem = build_quadratic_forms(case)
        f = residual(problem, np.array(goldens["solution"]))
        assert np.max(np.abs(f)) < 1e-10

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_goldens_regenerate_identically(self, name):
        from qpflow.newton import newton_raphson

        case, goldens = load_fixture(name)
        problem = build_quadratic_forms(case)
        u, trace = newton_raphson(problem)
        assert u.tolist() == goldens["solution"]
        assert trace.residuals == goldens["trace"]["residuals"]


class TestHarvest:
    def test_count_and_shape(self, case14):
        mats = harvest_jacobian_dilations(case14, count=7, seed=0)
        assert len(mats) == 7
        assert all(m.shape == (64, 64) for m in mats)
        for m in mats:
            assert np.max(np.abs(m - m.T)) == 0.0

    def test_deterministic(self, case14):
        a = harvest_jacobian_dilations(case14, count=5, seed=3)
        b = harvest_jacobian_dilations(case14, count=5, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_scale_loads_only_pq(self, case14):
        scaled = scale_loads(case14, 1.5)
        for orig, new in zip(case14.buses, scaled.buses):
            if orig.kind is BusKind.PQ:
                assert new.p_load == pytest.approx(1.5 * orig.p_load)
            else:
                assert new.p_gen == orig.p_gen

    def test_rhs_pairing(self, case14):
        mats, rhss = harvest_jacobian_dilations(case14, count=4, seed=0, with_rhs=True)
        assert len(mats) == len(rhss) == 4
        assert all(r.shape == (64,) for r in rhss)
        # the first 28 entries hold -F, padding is zero
        assert all(np.max(np.abs(r[28:])) == 0.0 for r in rhss)
