"""Kernel checks against dense-matrix oracles.

Each kernel works on bit masks and index arrays; the oracles build the
same quantities from dense Pauli matrices, basis rotations and density
matrices, which is slow but leaves no room for a masking or sign error.
The Pauli-coefficient kernel is also held bit for bit to a one-word-at-a-time
loop, whose coefficient bits decide the tie order of the Trotter factors.
"""

import numpy as np
import pytest

from qpflow import _kernels
from qpflow.fixtures import harvest_jacobian_dilations
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


# i**y for y = 0..3, the phase of a Pauli word with y Y letters
_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def loop_pauli_coefficients(a, n):
    """One word at a time: the arithmetic the chunked kernel must reproduce bit for bit."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    coeffs = np.empty(4**n, dtype=np.float64)
    for p in range(4**n):
        flip = 0
        sign = 0
        ycount = 0
        for q in range(n):
            d = (p >> (2 * (n - 1 - q))) & 3
            pos = n - 1 - q
            if d == 1:  # X
                flip |= 1 << pos
            elif d == 2:  # Y
                flip |= 1 << pos
                sign |= 1 << pos
                ycount += 1
            elif d == 3:  # Z
                sign |= 1 << pos
        k = idx ^ flip
        signs = 1.0 - 2.0 * (np.bitwise_count(k & sign) & 1)
        acc = np.sum(signs * a[k, idx])
        coeffs[p] = (_I_POW[ycount & 3] * acc).real / dim
    return coeffs


# Pauli matrices in word-digit order I, X, Y, Z
_PAULI_STACK = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def tensorized_pauli_coefficients(a, n):
    """Tr(P_p A)/2**n by contracting one qubit's (row, column) pair at a time."""
    # axes (r_0, ..., r_{n-1}, c_0, ..., c_{n-1}) -> (r_0, c_0, r_1, c_1, ...)
    t = a.reshape((2,) * (2 * n)).transpose([ax for q in range(n) for ax in (q, n + q)])
    for q in range(n):
        # Tr(P A) = sum_{r, c} P[c, r] A[r, c], one qubit's factor at a time
        t = t.reshape(4**q, 2, 2, -1)
        t = np.einsum("pcr,arcb->apb", _PAULI_STACK, t) / 2.0
    return t.reshape(-1).real


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

    def test_coefficients_bit_identical_to_word_loop(self):
        rng = np.random.default_rng(9)
        for n in range(1, 8):
            a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            a = a + a.conj().T
            assert np.array_equal(_kernels.pauli_coefficients(a, n), loop_pauli_coefficients(a, n))

    def test_coefficients_bit_identical_on_case14_harvest(self, case14):
        for m in harvest_jacobian_dilations(case14, count=12, seed=0):
            assert np.array_equal(_kernels.pauli_coefficients(m, 6), loop_pauli_coefficients(m, 6))

    def test_coefficients_match_tensorized_transform_n8(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        a = a + a.conj().T
        got = _kernels.pauli_coefficients(a, 8)
        assert np.max(np.abs(got - tensorized_pauli_coefficients(a, 8))) < 1e-12 * np.max(np.abs(a))

    def test_ketbra_diagonal_is_probability(self):
        rng = np.random.default_rng(6)
        amps = random_amps(rng, 2)
        bases = rng.integers(0, 3, size=(200_000, 2)).astype(np.uint8)
        unif = rng.random(200_000)
        outcomes = _kernels.sample_snapshots(amps, 2, bases, unif)
        est = _kernels.ketbra_estimates(bases, outcomes, 2, 0, 0).real
        p0 = abs(amps[0]) ** 2
        assert est.mean() == pytest.approx(p0, abs=0.01)
