import pytest

from qpflow.resources import (
    SWEEP_HEADER,
    DepthQuery,
    QramBudget,
    eigeninversion_gate_count,
    hhl_depth,
    qpe_depth,
    qram_epsilon_for_infidelity,
    qram_epsilon_hardware,
    qram_infidelity,
    sweep,
)

# published gate-depth table: rows are system dimension 2**n, columns the
# LCU term count L.  The (n=6, L=36) entry is omitted: the printed 719064
# breaks monotonicity with both neighbors (97064 at L=49) and is almost
# surely a typo, so no tolerance factor can make a comparison meaningful.
PUBLISHED_DEPTHS = {
    (1, 1): 75,
    (2, 1): 273, (2, 4): 274, (2, 9): 575, (2, 16): 2215,
    (3, 1): 613, (3, 4): 1500, (3, 9): 3110, (3, 16): 5086,
    (3, 25): 5970, (3, 36): 8853, (3, 49): 15048, (3, 64): 22922,
    (4, 1): 1161, (4, 4): 3090, (4, 9): 6466, (4, 16): 10071, (4, 25): 16165,
    (4, 36): 23831, (4, 49): 33136, (4, 64): 42836, (4, 81): 49425, (4, 100): 52547,
    (5, 1): 2663, (5, 4): 7309, (5, 9): 14553, (5, 16): 23229, (5, 25): 33493,
    (5, 36): 45654, (5, 49): 58951, (5, 64): 79403, (5, 81): 99607, (5, 100): 124791,
    (6, 1): 3542, (6, 4): 9845, (6, 9): 18376, (6, 16): 33799, (6, 25): 50641,
    (6, 49): 97064, (6, 64): 126624, (6, 81): 160138, (6, 100): 192351,
}

TABLE_COLUMNS = (1, 4, 9, 16, 25, 36, 49, 64, 81, 100)


class TestHhlDepth:
    def test_first_entry_within_x3(self):
        d = hhl_depth(DepthQuery(n=1, l=1, trotter_m=10))["depth"]
        assert 75 / 3 <= d <= 75 * 3

    def test_all_published_cells_within_x3(self):
        for (n, l), ref in PUBLISHED_DEPTHS.items():
            d = hhl_depth(DepthQuery(n=n, l=l, trotter_m=10))["depth"]
            assert ref / 3 <= d <= ref * 3, (n, l, d, ref)

    def test_strictly_increasing_in_l(self):
        for n in (2, 3, 4):
            depths = [hhl_depth(DepthQuery(n=n, l=l))["depth"] for l in (1, 2, 4, 8)]
            assert all(a < b for a, b in zip(depths, depths[1:]))

    def test_monotone_in_each_parameter(self):
        base = DepthQuery(n=3, l=4, trotter_m=10, clock_bits=3)
        d0 = hhl_depth(base)["depth"]
        assert hhl_depth(DepthQuery(n=4, l=4, trotter_m=10, clock_bits=3))["depth"] >= d0
        assert hhl_depth(DepthQuery(n=3, l=8, trotter_m=10, clock_bits=3))["depth"] >= d0
        assert hhl_depth(DepthQuery(n=3, l=4, trotter_m=20, clock_bits=3))["depth"] >= d0
        assert hhl_depth(DepthQuery(n=3, l=4, trotter_m=10, clock_bits=4))["depth"] >= d0

    def test_hhl_to_qpe_ratio(self):
        for n, l in ((1, 1), (3, 9), (5, 25), (6, 64)):
            full = hhl_depth(DepthQuery(n=n, l=l))["depth"]
            half = qpe_depth(DepthQuery(n=n, l=l)).depth
            assert 1.8 <= full / half <= 2.6

    def test_l_out_of_range(self):
        with pytest.raises(ValueError):
            DepthQuery(n=1, l=5)


class TestEigeninversion:
    @pytest.mark.parametrize("c,count", [(1, 1), (3, 7), (7, 127)])
    def test_counts(self, c, count):
        assert eigeninversion_gate_count(c) == count

    def test_invalid(self):
        with pytest.raises(ValueError):
            eigeninversion_gate_count(0)


class TestQram:
    def test_zero_epsilon(self):
        assert qram_infidelity(0.0, 1000) == 0.0

    def test_unit_case(self):
        assert qram_infidelity(4.0, 2) == pytest.approx(1.0)

    def test_grid_scale_inversion(self):
        eps = qram_epsilon_for_infidelity(1e-4, 10**5)
        assert eps == pytest.approx(1.45e-6, rel=0.01)
        assert qram_infidelity(eps, 10**5) == pytest.approx(1e-4, rel=1e-12)

    def test_linear_in_epsilon_monotone_in_n(self):
        assert qram_infidelity(2e-3, 100) == pytest.approx(2 * qram_infidelity(1e-3, 100))
        assert qram_infidelity(1e-3, 10**6) > qram_infidelity(1e-3, 10**3)

    def test_hardware_floor_at_zero_decoherence(self):
        budget = QramBudget()
        assert qram_epsilon_hardware(budget) == pytest.approx(1e-8)

    def test_first_term_linear_in_decoherence(self):
        b1 = QramBudget(kappa_gamma=10.0)
        b2 = QramBudget(kappa_gamma=20.0)
        floor = qram_epsilon_hardware(QramBudget())
        assert qram_epsilon_hardware(b2) - floor == pytest.approx(
            2 * (qram_epsilon_hardware(b1) - floor)
        )

    def test_default_gate_duration_constant(self):
        # the averaged CZ/SWAP gate-duration constant
        assert QramBudget().c_d == 4.5

    def test_validation(self):
        with pytest.raises(ValueError):
            QramBudget(c_d=0.0)
        with pytest.raises(ValueError):
            qram_epsilon_for_infidelity(0.0, 100)


class TestSweep:
    def test_single_point(self):
        lines = sweep([2], [4]).decode().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("2,4,10,2,")

    def test_flags_match_published_ellipses(self):
        # the published table prints "..." where its source data ran out of
        # LCU terms; the operational rule L > 4**n reproduces every such
        # cell except (n=1, L=4), where L equals the 4**n cap exactly
        lines = sweep(range(1, 7), TABLE_COLUMNS).decode().splitlines()[1:]
        flagged = set()
        for line in lines:
            parts = line.split(",")
            if parts[-1] == "1":
                flagged.add((int(parts[0]), int(parts[1])))
        published_ellipses = {
            (n, l)
            for n in range(1, 7)
            for l in TABLE_COLUMNS
            if (n, l) not in PUBLISHED_DEPTHS and not (n == 6 and l == 36)
        }
        assert published_ellipses - flagged == {(1, 4)}
        assert flagged - published_ellipses == set()

    def test_clamped_cells_share_the_cap_value(self):
        lines = sweep([1], [4, 9]).decode().splitlines()[1:]
        depths = [int(line.split(",")[4]) for line in lines]
        assert depths[0] == depths[1]

    def test_monotone_rows_and_columns(self):
        grid = {}
        for line in sweep(range(1, 7), TABLE_COLUMNS).decode().splitlines()[1:]:
            parts = line.split(",")
            grid[(int(parts[0]), int(parts[1]))] = (int(parts[4]), parts[-1] == "1")
        for n in range(1, 7):
            prev = None
            for l in TABLE_COLUMNS:
                depth, clamped = grid[(n, l)]
                if prev is not None:
                    assert depth >= prev
                prev = depth
        for l in TABLE_COLUMNS:
            prev = None
            for n in range(1, 7):
                depth, clamped = grid[(n, l)]
                if prev is not None:
                    assert depth >= prev
                prev = depth

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [1])
