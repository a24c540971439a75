"""Vectorized numpy kernels for the package's numeric hot loops.

Pauli exponentials, Pauli-coefficient extraction, and classical-shadow
sampling and estimation.  Each kernel works on index arrays and bit masks
instead of dense Pauli matrices, so its cost is linear in the state
dimension.  The coefficient transform pays that for each of the 4**n
words, O(8**n) in all, and runs a chunk of words per numpy pass.

Index convention used throughout the package: qubit 0 is the most
significant bit of a basis-state index (big-endian), so the bit position
of qubit ``q`` in an ``n``-qubit index is ``n - 1 - q``.
"""

from __future__ import annotations

import numpy as np

# Read by benchmark environment records; numpy is the only backend.
USING_NUMBA = False

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_SNAPSHOT_CHUNK = 1024  # snapshots rotated together, to bound the working block
_WORD_CHUNK = 256  # Pauli words gathered together, to bound the working block
# i**y for y = 0..3, used for the phase of Pauli words containing Y letters
_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def pauli_exp_apply(amps, flip, sign_mask, y_count, angle):
    """Apply exp(i*angle*P) to a statevector, P given by its bit masks.

    ``flip`` carries the X|Y letters, ``sign_mask`` the Z|Y letters and
    ``y_count`` the number of Y letters of the Pauli word.
    """
    # out = cos(t)*psi + i*sin(t)*P*psi, with (P psi)[j] = phase(j^flip)*psi[j^flip]
    fac = 1j * np.sin(angle) * _I_POW[y_count & 3]
    k = np.arange(amps.shape[0], dtype=np.int64) ^ np.int64(flip)
    signs = 1.0 - 2.0 * (np.bitwise_count(k & np.int64(sign_mask)) & 1)
    out = np.empty_like(amps)
    np.multiply(fac * signs, amps[k], out=out)
    out += np.cos(angle) * amps
    return out


def _word_masks(n):
    """Flip, sign and Y-count masks of all 4**n Pauli words, by base-4 digit."""
    words = np.arange(4**n, dtype=np.int64)
    flip = np.zeros_like(words)
    sign = np.zeros_like(words)
    ycount = np.zeros_like(words)
    for q in range(n):
        pos = n - 1 - q
        digit = (words >> (2 * pos)) & 3  # 0=I, 1=X, 2=Y, 3=Z
        flip |= ((digit == 1) | (digit == 2)).astype(np.int64) << pos
        sign |= (digit >= 2).astype(np.int64) << pos
        ycount += digit == 2
    return flip, sign, ycount


def pauli_coefficients(a, n):
    """All 4**n Pauli-basis coefficients Tr(P_p A)/2**n of a Hermitian matrix.

    Index p encodes the Pauli word base-4 (0=I,1=X,2=Y,3=Z), qubit 0 in the
    most significant digit.  Imaginary parts (zero for Hermitian input up to
    rounding) are discarded.

    Word p reads the 2**n entries A[j ^ flip_p, j] with parity signs, so the
    cost is O(8**n).  Words are gathered ``_WORD_CHUNK`` at a time into one
    (words, 2**n) block and each row is reduced by the same pairwise sum a
    1-D ``np.sum`` runs, so the result does not depend on the chunking.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    flip, sign, ycount = _word_masks(n)
    sums = np.empty(4**n, dtype=np.complex128)
    for lo in range(0, 4**n, _WORD_CHUNK):
        words = slice(lo, lo + _WORD_CHUNK)
        k = idx ^ flip[words, None]
        signs = 1.0 - 2.0 * (np.bitwise_count(k & sign[words, None]) & 1)
        sums[words] = np.sum(signs * a[k, idx], axis=1)
    return (_I_POW[ycount & 3] * sums).real / dim


def sample_snapshots(amps, n, bases, unif):
    """Born-rule outcomes of per-qubit Pauli-basis measurements.

    ``bases[s, q]`` in {0:X, 1:Y, 2:Z}; ``unif[s]`` the uniform variate
    consumed by snapshot ``s``.  Returns outcome bitstrings as integers.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    bases = np.ascontiguousarray(bases, dtype=np.uint8)
    unif = np.ascontiguousarray(unif, dtype=np.float64)
    dim = amps.shape[0]
    count = bases.shape[0]
    out = np.empty(count, dtype=np.int64)
    for lo in range(0, count, _SNAPSHOT_CHUNK):
        hi = min(lo + _SNAPSHOT_CHUNK, count)
        block = np.broadcast_to(amps, (hi - lo, dim)).copy()
        for q in range(n):
            step = 1 << (n - 1 - q)
            shaped = block.reshape(hi - lo, -1, 2, step)
            for code in (0, 1):
                rows = np.nonzero(bases[lo:hi, q] == code)[0]
                if rows.size == 0:
                    continue
                a0 = shaped[rows, :, 0, :]
                a1 = shaped[rows, :, 1, :]
                if code == 0:  # X basis
                    shaped[rows, :, 0, :] = (a0 + a1) * _INV_SQRT2
                    shaped[rows, :, 1, :] = (a0 - a1) * _INV_SQRT2
                else:  # Y basis
                    shaped[rows, :, 0, :] = (a0 - 1j * a1) * _INV_SQRT2
                    shaped[rows, :, 1, :] = (a0 + 1j * a1) * _INV_SQRT2
        probs = block.real**2 + block.imag**2
        cum = np.cumsum(probs, axis=1)
        # cum never decreases along a row, so counting entries <= u is the
        # right-sided searchsorted; the clamp absorbs cum[-1] rounding below u
        out[lo:hi] = np.minimum(np.count_nonzero(cum <= unif[lo:hi, None], axis=1), dim - 1)
    return out


def pauli_estimates(bases, outcomes, letters, n):
    """Single-snapshot inverted-channel estimates of a Pauli expectation.

    ``letters[q]`` in {0:I, 1:X, 2:Y, 3:Z}.  A snapshot contributes
    3*(+-1) per matching non-identity qubit and 0 on any basis mismatch.
    """
    out = np.ones(bases.shape[0], dtype=np.float64)
    for q in range(n):
        letter = letters[q]
        if letter == 0:
            continue
        match = bases[:, q] == letter - 1
        bit = (outcomes >> (n - 1 - q)) & 1
        out *= np.where(match, 3.0 * (1.0 - 2.0 * bit), 0.0)
    return out


# per-qubit factors of the inverted shadow channel for |i><j| estimation,
# indexed [case, basis, outcome-bit]; case 0/1: i_q=j_q=0/1, case 2: (0,1),
# case 3: (1,0)
_KETBRA_TABLE = np.zeros((4, 3, 2), dtype=np.complex128)
_KETBRA_TABLE[0, 2] = (2.0, -1.0)  # Z basis, i_q=j_q=0: 3*delta - 1
_KETBRA_TABLE[1, 2] = (-1.0, 2.0)
_KETBRA_TABLE[0, 0] = _KETBRA_TABLE[0, 1] = (0.5, 0.5)
_KETBRA_TABLE[1, 0] = _KETBRA_TABLE[1, 1] = (0.5, 0.5)
_KETBRA_TABLE[2, 0] = (1.5, -1.5)
_KETBRA_TABLE[3, 0] = (1.5, -1.5)
_KETBRA_TABLE[2, 1] = (-1.5j, 1.5j)
_KETBRA_TABLE[3, 1] = (1.5j, -1.5j)


def ketbra_estimates(bases, outcomes, n, i, j):
    """Single-snapshot estimates of the matrix element <i|rho|j>."""
    out = np.ones(bases.shape[0], dtype=np.complex128)
    for q in range(n):
        pos = n - 1 - q
        iq = (i >> pos) & 1
        jq = (j >> pos) & 1
        if iq == jq:
            case = iq
        elif iq == 0:
            case = 2
        else:
            case = 3
        bit = ((outcomes >> pos) & 1).astype(np.int64)
        out *= _KETBRA_TABLE[case, bases[:, q], bit]
    return out
