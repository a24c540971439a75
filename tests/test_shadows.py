import numpy as np
import pytest

from qpflow._kernels import pauli_estimates
from qpflow.grid import SolverError
from qpflow.qsim import PauliString, StateVector
from qpflow.shadows import ShadowSnapshots, collect_shadows, estimate_pauli, reconstruct_real_state


def plus_state():
    return StateVector.from_vector([1.0, 1.0])


class TestCollect:
    def test_zero_state_z_outcomes_all_zero(self):
        snaps = collect_shadows(StateVector.zero(3), 500, seed=0)
        bits = (snaps.outcomes[:, None] >> np.arange(2, -1, -1)) & 1  # column q is qubit q
        assert not np.any(bits[snaps.bases == 2])

    def test_deterministic_under_seed(self):
        s = StateVector.from_vector([1.0, 2.0, 0.5, -1.0])
        a = collect_shadows(s, 200, seed=123)
        b = collect_shadows(s, 200, seed=123)
        assert np.array_equal(a.bases, b.bases)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_z_frequency_on_plus_state(self):
        # measuring |+> in Z gives heads/tails; 3-sigma binomial window
        snaps = collect_shadows(plus_state(), 10_000, seed=5)
        z_outcomes = snaps.outcomes[snaps.bases[:, 0] == 2]
        ones = int(np.sum(z_outcomes == 1))
        n = len(z_outcomes)
        p_hat = ones / n
        assert abs(p_hat - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            collect_shadows(StateVector.zero(1), 0, seed=0)


class TestEstimate:
    def test_identity_exactly_one(self):
        snaps = collect_shadows(plus_state(), 50, seed=1)
        est = estimate_pauli(snaps, PauliString(1, "I"))
        assert est.value == 1.0

    def test_z_on_zero_state(self):
        snaps = collect_shadows(StateVector.zero(1), 10_000, seed=2)
        est = estimate_pauli(snaps, PauliString(1, "Z"))
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_empty_rejected(self):
        snaps = collect_shadows(StateVector.zero(1), 10, seed=0)
        with pytest.raises(ValueError):
            estimate_pauli(snaps[:0], PauliString(1, "Z"))

    def test_unbiasedness_over_seeds(self):
        # mean of single-snapshot estimates approaches the true expectation
        state = StateVector.from_vector([3.0, 1.0])
        z_true = (9 - 1) / 10.0
        means = []
        for seed in range(30):
            snaps = collect_shadows(state, 2000, seed=seed)
            means.append(estimate_pauli(snaps, PauliString(1, "Z"), batches=1).value)
        grand = np.mean(means)
        sem = np.std(means, ddof=1) / np.sqrt(len(means))
        assert abs(grand - z_true) <= 3 * sem

    def test_variance_grows_like_weight(self):
        # single-snapshot variance ratio between weight-2 and weight-1
        # observables on |00> is (3**2 - 1) / (3 - 1) = 4
        snaps = collect_shadows(StateVector.zero(2), 60_000, seed=3)
        v1 = np.var(pauli_estimates(snaps.bases, snaps.outcomes, PauliString(2, "ZI").codes(), snaps.n))
        v2 = np.var(pauli_estimates(snaps.bases, snaps.outcomes, PauliString(2, "ZZ").codes(), snaps.n))
        assert 2.5 <= v2 / v1 <= 6.0

    def test_merge_of_disjoint_batches(self):
        state = StateVector.from_vector([1.0, 0.3, -0.2, 0.8])
        snaps = collect_shadows(state, 20_000, seed=9)
        o = PauliString(2, "ZZ")
        full = estimate_pauli(snaps, o, batches=10)
        half1 = estimate_pauli(snaps[:10_000], o, batches=5)
        half2 = estimate_pauli(snaps[10_000:], o, batches=5)
        # aligned contiguous batches: the union's batch means are exactly the
        # two halves' batch means, so the medians agree
        merged_means = []
        for part, batches in ((snaps[:10_000], 5), (snaps[10_000:], 5)):
            est = pauli_estimates(part.bases, part.outcomes, o.codes(), part.n)
            merged_means.extend(g.mean() for g in np.array_split(est, batches))
        assert full.value == pytest.approx(float(np.median(merged_means)), abs=1e-12)
        assert full.samples_used == half1.samples_used + half2.samples_used


class TestReconstruct:
    def test_basis_state(self):
        snaps = collect_shadows(StateVector.zero(3), 10_000, seed=4)
        rec = reconstruct_real_state(snaps)
        assert abs(rec[0]) > 0.999

    def test_bell_state(self):
        bell = StateVector.from_vector([1.0, 0.0, 0.0, 1.0])
        snaps = collect_shadows(bell, 100_000, seed=6)
        rec = reconstruct_real_state(snaps)
        fid = abs(np.dot(rec, bell.amps.real))
        assert fid > 0.99

    def test_negative_amplitude_sign(self):
        state = StateVector.from_vector([1.0, 0.0, 0.0, -1.0])
        snaps = collect_shadows(state, 100_000, seed=7)
        rec = reconstruct_real_state(snaps)
        assert abs(np.dot(rec, state.amps.real)) > 0.99

    def test_fidelity_monotone_in_samples(self):
        # averaged over seeds, more snapshots cannot hurt
        target = StateVector.from_vector([2.0, 1.0, 0.0, -1.0])
        tdir = target.amps.real
        fids = {}
        for count in (2_000, 20_000):
            vals = []
            for seed in range(20):
                snaps = collect_shadows(target, count, seed=100 + seed)
                try:
                    rec = reconstruct_real_state(snaps)
                    vals.append(abs(np.dot(rec, tdir)))
                except SolverError:
                    vals.append(0.0)
            fids[count] = np.mean(vals)
        assert fids[20_000] >= fids[2_000] - 0.01

    def test_hhl_download_direction(self):
        from qpflow.hhl import HHLConfig, hhl_solve

        a = np.diag([1.0, 0.5])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        res = hhl_solve(a, b, HHLConfig(clock_bits=2, t0=np.pi))
        state = StateVector.from_vector(res.x_state)
        snaps = collect_shadows(state, 100_000, seed=11)
        rec = reconstruct_real_state(snaps)
        assert abs(np.dot(rec, res.x_state)) > 0.99

    def test_empty_rejected(self):
        snaps = collect_shadows(StateVector.zero(1), 10, seed=0)
        with pytest.raises(ValueError):
            reconstruct_real_state(snaps[:0])

    def test_sign_tie_leaves_support(self):
        # Z snapshots put weight on both indices; the X snapshots' +-1.5 edge
        # terms cancel to exactly 0.0, so index 1 has no sign and drops out
        bases = np.array([2] * 200 + [0] * 200, dtype=np.uint8)[:, None]
        outcomes = np.array([0, 1] * 200, dtype=np.int64)
        rec = reconstruct_real_state(ShadowSnapshots(bases, outcomes))
        assert np.array_equal(rec, [1.0, 0.0])
