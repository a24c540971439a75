"""Kernel checks against dense-matrix oracles.

Each kernel works on bit masks and index arrays; the oracles build the
same quantities from dense Pauli matrices, basis rotations and density
matrices, which is slow but leaves no room for a masking or sign error.
"""

import numpy as np
import pytest

from qpflow import _kernels
from qpflow.qsim import PauliString

# rotation applied before a computational-basis readout, per basis code
# {0: X, 1: Y, 2: Z}; outcome b then means the state U^dagger |b>
_ROTATIONS = {
    0: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    1: np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0),
    2: np.eye(2),
}


def random_amps(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return np.ascontiguousarray(v / np.linalg.norm(v))


def random_snapshots(rng, count, n):
    bases = rng.integers(0, 3, size=(count, n)).astype(np.uint8)
    outcomes = rng.integers(0, 1 << n, size=count).astype(np.int64)
    return bases, outcomes


def kron_all(factors):
    m = np.array([[1.0 + 0.0j]])
    for f in factors:
        m = np.kron(m, f)
    return m


def snapshot_rotation(basis_row):
    return kron_all(_ROTATIONS[int(b)] for b in basis_row)


def snapshot_rho(basis_row, outcome, n):
    """Dense inverted-channel snapshot: the tensor product of 3 U^dagger|b><b|U - I."""
    factors = []
    for q, b in enumerate(basis_row):
        u = _ROTATIONS[int(b)]
        ket = u.conj().T[:, (outcome >> (n - 1 - q)) & 1]
        factors.append(3.0 * np.outer(ket, ket.conj()) - np.eye(2))
    return kron_all(factors)


def word_of(p, n):
    return "".join("IXYZ"[(p >> (2 * (n - 1 - q))) & 3] for q in range(n))


class TestDenseOracles:
    def test_pauli_exp_apply(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = PauliString(n, "".join(rng.choice(list("IXYZ"), size=n)))
            angle = float(rng.normal())
            amps = random_amps(rng, n)
            got = _kernels.pauli_exp_apply(amps, *p.masks(), angle)
            want = (np.cos(angle) * np.eye(1 << n) + 1j * np.sin(angle) * p.dense()) @ amps
            assert np.max(np.abs(got - want)) < 1e-14

    def test_sample_snapshots(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 5):
            amps = random_amps(rng, n)
            count = 500
            bases = rng.integers(0, 3, size=(count, n)).astype(np.uint8)
            unif = rng.random(count)
            want = []
            for s in range(count):
                rotated = snapshot_rotation(bases[s]) @ amps
                cum = np.cumsum(np.abs(rotated) ** 2)
                want.append(min(np.searchsorted(cum, unif[s], side="right"), (1 << n) - 1))
            assert np.array_equal(_kernels.sample_snapshots(amps, n, bases, unif), want)

    def test_sample_picks_match_searchsorted_loop_with_ties(self):
        # Z-basis snapshots are not rotated, so the kernel's cumulative Born
        # weights are exactly this cumsum and ties with unif can be planted;
        # zeroed amplitudes repeat cum entries and leave cum[-1] below 1
        rng = np.random.default_rng(7)
        for n in (1, 2, 4, 6):
            dim = 1 << n
            for _ in range(5):
                amps = random_amps(rng, n)
                amps[rng.random(dim) < 0.3] = 0.0
                count = 1500  # spans two sampling chunks
                cum = np.cumsum(amps.real**2 + amps.imag**2)
                unif = rng.random(count)
                tie = rng.random(count) < 0.5
                unif[tie] = cum[rng.integers(0, dim, size=int(tie.sum()))]
                bases = np.full((count, n), 2, dtype=np.uint8)
                want = [min(np.searchsorted(cum, u, side="right"), dim - 1) for u in unif]
                assert np.array_equal(_kernels.sample_snapshots(amps, n, bases, unif), want)

    def test_pauli_estimates(self):
        rng = np.random.default_rng(3)
        n = 3
        bases, outcomes = random_snapshots(rng, 200, n)
        for _ in range(5):
            letters = rng.integers(0, 4, size=n).astype(np.uint8)
            p = PauliString(n, "".join("IXYZ"[c] for c in letters))
            got = _kernels.pauli_estimates(bases, outcomes, letters, n)
            want = [np.trace(p.dense() @ snapshot_rho(bases[s], outcomes[s], n)).real for s in range(len(outcomes))]
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_ketbra_estimates(self):
        rng = np.random.default_rng(4)
        n = 3
        bases, outcomes = random_snapshots(rng, 200, n)
        rhos = [snapshot_rho(bases[s], outcomes[s], n) for s in range(len(outcomes))]
        for _ in range(5):
            i, j = (int(v) for v in rng.integers(0, 1 << n, size=2))
            got = _kernels.ketbra_estimates(bases, outcomes, n, i, j)
            assert np.allclose(got, [rho[i, j] for rho in rhos], rtol=0, atol=1e-12)


class TestKernelSemantics:
    def test_coefficients_match_trace_formula(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            dim = 1 << n
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = a + a.conj().T
            coeffs = _kernels.pauli_coefficients(a, n)
            for p in range(4**n):
                want = np.trace(PauliString(n, word_of(p, n)).dense() @ a).real / dim
                assert coeffs[p] == pytest.approx(want, abs=1e-12)

    def test_ketbra_diagonal_is_probability(self):
        rng = np.random.default_rng(6)
        amps = random_amps(rng, 2)
        bases = rng.integers(0, 3, size=(200_000, 2)).astype(np.uint8)
        unif = rng.random(200_000)
        outcomes = _kernels.sample_snapshots(amps, 2, bases, unif)
        est = _kernels.ketbra_estimates(bases, outcomes, 2, 0, 0).real
        p0 = abs(amps[0]) ** 2
        assert est.mean() == pytest.approx(p0, abs=0.01)
