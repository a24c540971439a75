"""Exact statevector simulation with gate-depth accounting.

Registers are big-endian: qubit 0 is the most significant bit of a basis
index.  All operations are norm-preserving and return fresh states; inputs
are never mutated.

Depth convention (fixed for the whole package, reported by DepthCounter):
every counted gate contributes one depth unit, i.e. the circuit is costed
as a single sequential chain.  A Pauli exponential of weight w costs
2*(#X + #Y) single-qubit basis changes, 2*(w-1) CNOTs and one rotation;
its controlled version turns the rotation into a controlled rotation.  A
QFT on c qubits costs c Hadamards plus c*(c-1)/2 controlled-phase gates,
counted in the two-qubit tally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_LETTER_CODE = {"I": 0, "X": 1, "Y": 2, "Z": 3}

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z}, one letter per qubit."""

    n: int
    letters: str

    def __post_init__(self):
        if len(self.letters) != self.n:
            raise ValueError(f"expected {self.n} letters, got {self.letters!r}")
        if any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def weight(self) -> int:
        return sum(ch != "I" for ch in self.letters)

    @property
    def n_basis_changes(self) -> int:
        """Number of X or Y letters (each needs a basis change pair)."""
        return sum(ch in "XY" for ch in self.letters)

    def masks(self) -> tuple[int, int, int]:
        """(flip, sign, y_count) bit masks; qubit q sits at bit n-1-q."""
        flip = sign = ycount = 0
        for q, ch in enumerate(self.letters):
            pos = self.n - 1 - q
            if ch == "X":
                flip |= 1 << pos
            elif ch == "Y":
                flip |= 1 << pos
                sign |= 1 << pos
                ycount += 1
            elif ch == "Z":
                sign |= 1 << pos
        return flip, sign, ycount

    def codes(self) -> np.ndarray:
        return np.array([_LETTER_CODE[ch] for ch in self.letters], dtype=np.uint8)

    def dense(self) -> np.ndarray:
        m = np.array([[1.0 + 0.0j]])
        for ch in self.letters:
            m = np.kron(m, PAULI_MATS[ch])
        return m


@dataclass
class StateVector:
    """2**n complex amplitudes of an n-qubit register, unit norm."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.size != 1 << self.n:
            raise ValueError(f"want {1 << self.n} amplitudes, got {self.amps.size}")
        nrm = np.linalg.norm(self.amps)
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |amps| = {nrm}")

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def from_vector(cls, vec) -> "StateVector":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        n = int(vec.size).bit_length() - 1
        if 1 << n != vec.size:
            raise ValueError("amplitude count is not a power of two")
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ValueError("zero vector cannot be normalized")
        return cls(n, vec / nrm)

    def probabilities(self) -> np.ndarray:
        return (self.amps.real**2 + self.amps.imag**2).astype(float)


@dataclass
class DepthCounter:
    """Gate tallies per class; depth is their sequential-chain total."""

    single_qubit: int = 0
    two_qubit: int = 0
    ctrl_rotation: int = 0

    @property
    def depth(self) -> int:
        return self.single_qubit + self.two_qubit + self.ctrl_rotation

    def add_single(self, k: int = 1) -> None:
        self.single_qubit += k

    def add_two(self, k: int = 1) -> None:
        self.two_qubit += k

    def add_ctrl_rotation(self, k: int = 1) -> None:
        self.ctrl_rotation += k

    def add_pauli_exp(self, weight: int, n_basis_changes: int, controlled: bool = False, reps: int = 1) -> None:
        """Cost of exp(i*t*P) per the package convention, times reps."""
        if weight == 0:
            # bare global phase; controlled version is a phase gate on the control
            self.single_qubit += reps
            return
        self.single_qubit += reps * 2 * n_basis_changes
        self.two_qubit += reps * 2 * (weight - 1)
        if controlled:
            self.ctrl_rotation += reps
        else:
            self.single_qubit += reps

    def add_qft(self, clock_bits: int) -> None:
        self.single_qubit += clock_bits
        self.two_qubit += clock_bits * (clock_bits - 1) // 2

    def merge(self, other: "DepthCounter") -> None:
        self.single_qubit += other.single_qubit
        self.two_qubit += other.two_qubit
        self.ctrl_rotation += other.ctrl_rotation


def depth_report(counter: DepthCounter) -> dict:
    """Totals per gate class plus the sequential depth."""
    return {
        "single_qubit": counter.single_qubit,
        "two_qubit": counter.two_qubit,
        "ctrl_rotation": counter.ctrl_rotation,
        "depth": counter.depth,
    }


def ordered_terms(terms) -> list:
    """Deterministic term order: descending |a_i|, ties lexicographic."""
    return sorted(terms, key=lambda term: (-abs(term[1]), term[0].letters))


def apply_pauli_exponential(state: StateVector, p: PauliString, angle: float) -> StateVector:
    """exp(i*angle*P) applied exactly."""
    if p.n != state.n:
        raise ValueError(f"Pauli acts on {p.n} qubits, state has {state.n}")
    flip, sign, ycount = p.masks()
    amps = _kernels.pauli_exp_apply(state.amps, flip, sign, ycount, angle)
    return StateVector(state.n, amps)


def _trotter_unitary(terms, tau: float, dim: int) -> np.ndarray:
    """Dense single-step product: factors applied first act rightmost."""
    u = np.eye(dim, dtype=complex)
    for pauli, coeff in ordered_terms(terms):
        theta = coeff * tau
        factor = np.cos(theta) * np.eye(dim) + 1j * np.sin(theta) * pauli.dense()
        u = factor @ u
    return u


def _matrix_power(u: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(u.shape[0], dtype=complex)
    base = u
    while k:
        if k & 1:
            out = base @ out
        base = base @ base
        k >>= 1
    # binary powering drifts unitarity by ~2**squarings * eps; project back
    w, _, vh = np.linalg.svd(out)
    return w @ vh


def _block_unitaries(ham, n_sys: int, clock_bits: int, t0: float, trotter_m: int):
    """Controlled-evolution unitary for each clock bit significance 2**j.

    Block j realizes the evolution over time 2**j * t0.  Its step count is
    scaled as trotter_m * 4**j so the splitting error per block stays level;
    the gate tally (``PhaseEstimation._count_block``) counts those same
    trotter_m * 4**j steps.
    """
    dim = 1 << n_sys
    blocks = []
    for j in range(clock_bits):
        m_j = trotter_m * 4**j
        base = _trotter_unitary(ham.terms, (2**j * t0) / m_j, dim)
        blocks.append(_matrix_power(base, m_j))
    return blocks


class PhaseEstimation:
    """Phase estimation of exp(i*H*t0) on a clock register, run either way.

    The controlled-evolution blocks are built once, so one instance serves
    the forward circuit and its adjoint.  Register order is clock (qubits
    0..clock_bits-1, value read big-endian), then the ham.n system qubits,
    then (adjoint only) any trailing registers such as an ancilla, which
    the circuit never touches.
    """

    def __init__(self, ham, clock_bits: int, t0: float, trotter_m: int = 10):
        if clock_bits < 1:
            raise ValueError("clock_bits must be >= 1")
        self.ham = ham
        self.clock_bits = clock_bits
        self.trotter_m = trotter_m
        self.blocks = _block_unitaries(ham, ham.n, clock_bits, t0, trotter_m)

    def _count_block(self, counter: DepthCounter, j: int) -> None:
        for pauli, _ in self.ham.terms:
            counter.add_pauli_exp(pauli.weight, pauli.n_basis_changes, controlled=True, reps=self.trotter_m * 4**j)

    def forward(self, state: StateVector, counter: DepthCounter | None = None) -> StateVector:
        """QPE on a fresh clock register; eigenphases lambda*t0/(2*pi) must lie in [0, 1)."""
        counter = counter if counter is not None else DepthCounter()
        c = self.clock_bits
        psi = np.tile(state.amps, (1 << c, 1)) * (2.0 ** (-c / 2))
        counter.add_single(c)  # Hadamards on the clock
        rows = np.arange(1 << c)
        for j, w in enumerate(self.blocks):
            hit = rows[(rows >> j) & 1 == 1]
            psi[hit] = psi[hit] @ w.T
            self._count_block(counter, j)
        # inverse QFT along the clock axis
        psi = np.fft.fft(psi, axis=0) / np.sqrt(1 << c)
        counter.add_qft(c)
        return StateVector(c + state.n, psi.reshape(-1))

    def adjoint(self, state: StateVector, counter: DepthCounter | None = None) -> StateVector:
        """Exact adjoint of forward; the clock register is kept."""
        counter = counter if counter is not None else DepthCounter()
        c = self.clock_bits
        if state.n < c + self.ham.n:
            raise ValueError(f"state has {state.n} qubits, fewer than clock plus system ({c + self.ham.n})")
        psi = state.amps.reshape(1 << c, 1 << self.ham.n, -1)
        psi = np.fft.ifft(psi, axis=0) * np.sqrt(1 << c)
        counter.add_qft(c)
        rows = np.arange(1 << c)
        for j in reversed(range(c)):
            hit = rows[(rows >> j) & 1 == 1]
            psi[hit] = np.einsum("ba,rbt->rat", self.blocks[j].conj(), psi[hit])
            self._count_block(counter, j)
        # Sylvester Hadamard on the clock: H[k, r] = (-1)^popcount(k & r)
        hadamard = (-1.0) ** np.bitwise_count(rows[:, None] & rows[None, :])
        psi = np.einsum("kr,rbt->kbt", hadamard / np.sqrt(1 << c), psi)
        counter.add_single(c)
        return StateVector(state.n, psi.reshape(-1))


def eigenvalue_inversion(
    state: StateVector,
    clock_bits: int,
    c_const: float,
    eigenvalues: np.ndarray,
    counter: DepthCounter | None = None,
) -> StateVector:
    """Controlled rotation |m>|0> -> |m>(cos p|0> + sin p|1>), p = arcsin(C/lambda_m).

    An ancilla is appended as the new least significant qubit.  The clock
    value m (most significant register) stands for the eigenvalue
    ``eigenvalues[m]``.  The one rotation rule: every nonzero clock value
    whose eigenvalue is nonzero with |C/lambda_m| <= 1 is rotated; clock
    value 0, a zero eigenvalue and |C/lambda_m| > 1 keep their amplitude on
    ancilla |0>, the failed-postselection branch.  One naive
    multi-controlled rotation per nonzero clock value is counted:
    2**clock_bits - 1 in total.
    """
    if c_const <= 0:
        raise ValueError("rotation constant C must be positive")
    if clock_bits < 1:
        raise ValueError("clock_bits must be >= 1")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.shape != (1 << clock_bits,):
        raise ValueError(f"want {1 << clock_bits} eigenvalues, one per clock value, got shape {eigenvalues.shape}")
    if counter is None:
        counter = DepthCounter()
    c = clock_bits
    psi = state.amps.reshape(1 << c, -1)

    ratio = np.divide(c_const, eigenvalues, out=np.full(1 << c, np.inf), where=eigenvalues != 0.0)
    rotated = np.abs(ratio) <= 1.0
    rotated[0] = False
    angles = np.zeros(1 << c)
    angles[rotated] = np.arcsin(ratio[rotated])

    out = np.zeros((*psi.shape, 2), dtype=complex)
    out[:, :, 0] = np.cos(angles)[:, None] * psi
    out[:, :, 1] = np.sin(angles)[:, None] * psi
    counter.add_ctrl_rotation((1 << c) - 1)
    return StateVector(state.n + 1, out.reshape(-1))


def measure_ancilla_postselect(state: StateVector, ancilla: int, want: int) -> tuple[StateVector, float]:
    """Project qubit ``ancilla`` onto |want>, drop it, renormalize.

    Returns the post-measurement state on the remaining qubits and the Born
    probability of the selected outcome (computed exactly, no sampling).
    """
    if not 0 <= ancilla < state.n:
        raise ValueError(f"ancilla index {ancilla} out of range for {state.n} qubits")
    if want not in (0, 1):
        raise ValueError("want must be 0 or 1")
    shaped = state.amps.reshape(1 << ancilla, 2, -1)
    block = shaped[:, want, :]
    prob = float(np.sum(block.real**2 + block.imag**2))
    if prob < 1e-14:
        raise ValueError(f"postselection on outcome {want} has probability {prob:.3g}")
    return StateVector(state.n - 1, block.reshape(-1) / np.sqrt(prob)), prob
