import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpflow.lcu import (
    LCUDecomposition,
    hermitian_dilation,
    lcu_statistics,
    pauli_decompose,
    reconstruct,
    truncate,
)
from qpflow.newton import lu_solve
from qpflow.qsim import PauliString


def random_hermitian(rng, n):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    return a + a.conj().T


class TestDecompose:
    def test_identity(self):
        dec = pauli_decompose(np.eye(2))
        assert [(p.letters, c) for p, c in dec.terms] == [("I", 1.0)]

    def test_pauli_x(self):
        dec = pauli_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert [(p.letters, c) for p, c in dec.terms] == [("X", 1.0)]

    def test_random_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 3)
        dec = pauli_decompose(a, drop_tol=0.0)
        assert np.max(np.abs(reconstruct(dec) - a)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, n, seed):
        a = random_hermitian(np.random.default_rng(seed), n)
        dec = pauli_decompose(a, drop_tol=0.0)
        assert np.max(np.abs(reconstruct(dec) - a)) < 1e-10
        assert len(dec) <= 4**n

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_parseval(self, n, seed):
        a = random_hermitian(np.random.default_rng(seed), n)
        dec = pauli_decompose(a, drop_tol=0.0)
        lhs = sum(c * c for _, c in dec.terms)
        rhs = float(np.trace(a @ a).real) / 2**n
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_roundtrip_n6(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 6)
        dec = pauli_decompose(a, drop_tol=0.0)
        assert np.max(np.abs(reconstruct(dec) - a)) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            pauli_decompose(np.eye(3))

    def test_drop_tol_removes_small_terms(self):
        a = np.diag([1.0, 1.0 - 1e-14])
        dec = pauli_decompose(a, drop_tol=1e-12)
        assert [p.letters for p, _ in dec.terms] == ["I"]


class TestReconstructTruncate:
    def test_z_plus_i(self):
        dec = LCUDecomposition(1, [(PauliString(1, "Z"), 1.0), (PauliString(1, "I"), 1.0)])
        assert np.allclose(reconstruct(dec), np.diag([2.0, 0.0]))

    def test_truncation_error_identity(self):
        # dropping terms costs exactly sqrt(sum of dropped a_i^2) * 2^(n/2)
        # in Frobenius norm, by Pauli orthogonality
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 3)
        dec = pauli_decompose(a, drop_tol=0.0)
        k = 10
        kept = truncate(dec, k)
        dropped = sorted(dec.terms, key=lambda t: (-abs(t[1]), t[0].letters))[k:]
        frob = np.linalg.norm(reconstruct(kept) - a, "fro")
        want = np.sqrt(sum(c * c for _, c in dropped)) * 2 ** (3 / 2)
        assert frob == pytest.approx(want, rel=1e-10)

    def test_truncate_keeps_largest(self):
        dec = LCUDecomposition(1, [(PauliString(1, "X"), 0.5), (PauliString(1, "Z"), 2.0)])
        kept = truncate(dec, 1)
        assert [(p.letters, c) for p, c in kept.terms] == [("Z", 2.0)]

    def test_truncate_noop_when_k_large(self):
        dec = pauli_decompose(np.eye(4))
        assert truncate(dec, 99).terms == dec.terms

    def test_truncate_rejects_nonpositive(self):
        dec = pauli_decompose(np.eye(2))
        with pytest.raises(ValueError):
            truncate(dec, 0)

    def test_case14_truncation_matches_sort_oracle(self, case14):
        from qpflow.fixtures import harvest_jacobian_dilations

        mat = harvest_jacobian_dilations(case14, count=1, seed=0)[0]
        dec = pauli_decompose(mat)
        top5 = truncate(dec, 5)
        oracle = sorted(dec.terms, key=lambda t: (-abs(t[1]), t[0].letters))[:5]
        assert top5.terms == oracle


class TestDilation:
    def test_spectrum_is_plus_minus_singular_values(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        tilde, _ = hermitian_dilation(a, np.zeros(4))
        eigs = np.sort(np.linalg.eigvalsh(tilde))
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(np.sort(np.abs(eigs)), np.sort(np.concatenate([sv, sv])))

    def test_block_solution_structure(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        b = rng.normal(size=3)
        tilde, rhs = hermitian_dilation(a, b)
        assert tilde.shape == (8, 8)
        x = np.linalg.solve(tilde, rhs)
        assert np.max(np.abs(x[:3])) < 1e-12
        assert np.allclose(x[3:6], np.linalg.solve(a, b))
        assert np.max(np.abs(x[6:])) < 1e-15

    def test_case14_jacobian_dilation_against_lu(self, problem14):
        from qpflow.grid import flat_start, jacobian, residual

        u = flat_start(14)
        f = residual(problem14, u)
        j = jacobian(problem14, u)
        tilde, rhs = hermitian_dilation(j, -f)
        assert tilde.shape == (64, 64)
        x = lu_solve(tilde, rhs)
        du = lu_solve(j, -f)
        assert np.max(np.abs(x[28:56] - du)) < 1e-8

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 16), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    def test_sparse_dilation_decompose_roundtrip(self, m, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
        tilde, _ = hermitian_dilation(a, rng.normal(size=m))
        n = tilde.shape[0].bit_length() - 1
        dec = pauli_decompose(tilde, drop_tol=0.0)
        assert np.max(np.abs(reconstruct(dec) - tilde)) < 1e-10
        parseval = sum(c * c for _, c in dec.terms)
        assert parseval == pytest.approx(float(np.trace(tilde @ tilde)) / 2**n, rel=1e-10)

    def test_spectral_norm_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            tilde, _ = hermitian_dilation(a, np.zeros(4))
            live = np.linalg.norm(a, 2)
            # padding adds identity eigenvalues at 1; ignore them when the
            # live norm dominates
            assert np.linalg.norm(tilde, 2) == pytest.approx(max(live, 1.0), rel=1e-10)


class TestStatistics:
    def test_identity_ensemble(self):
        stats = lcu_statistics([np.eye(4)] * 3)
        assert stats["counts"] == [1, 1, 1]
        assert stats["mean"] == 1.0
        assert stats["std"] == 0.0

    def test_histogram_normalized(self):
        rng = np.random.default_rng(5)
        mats = [random_hermitian(rng, 2) for _ in range(4)]
        stats = lcu_statistics(mats)
        edges = np.array(stats["hist"]["edges"])
        dens = np.array(stats["hist"]["density"])
        assert np.sum(dens * np.diff(edges)) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lcu_statistics([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            lcu_statistics([np.eye(2), np.eye(4)])
