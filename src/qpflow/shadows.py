"""Classical-shadow readout: random-Pauli snapshots, Pauli-expectation
estimation with median-of-means, and sparse real-state reconstruction.

Snapshots pick an independent uniform X/Y/Z basis per qubit and sample the
outcome exactly from the Born distribution.  The single-snapshot estimator
inverts the measurement channel qubit by qubit: a weight-w Pauli picks up
a 3**w variance factor, which is why only low-weight observables are read
this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import SolverError
from .qsim import PauliString, StateVector


@dataclass(frozen=True, eq=False)
class ShadowSnapshots:
    """Random-Pauli snapshots as arrays, one row per shot.

    ``bases[s, q]`` in {0:X, 1:Y, 2:Z} is the basis qubit ``q`` was measured
    in; ``outcomes[s]`` is the measured bitstring as an integer, qubit 0 in
    the most significant bit.
    """

    bases: np.ndarray  # uint8[S, n]
    outcomes: np.ndarray  # int64[S]

    def __post_init__(self):
        if self.bases.ndim != 2 or self.outcomes.shape != self.bases.shape[:1]:
            raise ValueError("need bases of shape (S, n) and outcomes of shape (S,)")

    @property
    def n(self) -> int:
        return self.bases.shape[1]

    def __len__(self) -> int:
        return self.bases.shape[0]

    def __getitem__(self, rows: slice) -> "ShadowSnapshots":
        return ShadowSnapshots(self.bases[rows], self.outcomes[rows])


@dataclass
class ShadowEstimate:
    value: float
    observable: PauliString
    samples_used: int
    batches: int

    def __post_init__(self):
        if not self.samples_used >= self.batches >= 1:
            raise ValueError("need samples_used >= batches >= 1")


def collect_shadows(state: StateVector, count: int, seed) -> ShadowSnapshots:
    """Draw ``count`` independent random-Pauli snapshots of a state.

    ``seed`` feeds numpy's SeedSequence machinery, so any of an int, a
    SeedSequence, or a Generator gives reproducible output; parallel
    workers should pass spawned child sequences.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=(count, state.n), dtype=np.uint8)
    unif = rng.random(count)
    return ShadowSnapshots(bases, _kernels.sample_snapshots(state.amps, state.n, bases, unif))


def _median_of_means(values: np.ndarray, batches: int) -> float:
    groups = np.array_split(values, batches)
    return float(np.median([g.mean() for g in groups]))


def estimate_pauli(snapshots: ShadowSnapshots, o: PauliString, batches: int = 10) -> ShadowEstimate:
    """Median-of-means estimate of <O> from snapshots.

    Snapshots split in order into ``batches`` contiguous groups, so
    estimates over two disjoint snapshot sets merge consistently with the
    estimate over their concatenation when batch boundaries align.
    """
    if not snapshots:
        raise ValueError("empty snapshot set")
    if o.weight == 0:
        return ShadowEstimate(1.0, o, len(snapshots), 1)
    batches = max(1, min(batches, len(snapshots)))
    n = snapshots.n
    if o.n != n:
        raise ValueError(f"observable acts on {o.n} qubits, snapshots have {n}")
    estimates = _kernels.pauli_estimates(snapshots.bases, snapshots.outcomes, o.codes(), n)
    return ShadowEstimate(_median_of_means(estimates, batches), o, len(snapshots), batches)


def _ketbra_mean(bases, outcomes, n, i, j) -> complex:
    return complex(np.mean(_kernels.ketbra_estimates(bases, outcomes, n, i, j)))


def reconstruct_real_state(snapshots: ShadowSnapshots) -> np.ndarray:
    """Reconstruct a state with real amplitudes from random-Pauli snapshots.

    Diagonal weights come from projector estimates; indices whose estimate
    sits below a 3-sigma statistical floor are zeroed (sparsity assumption).
    Relative signs come from off-diagonal real parts along a star anchored
    at the heaviest support index.  An index whose edge estimate is exactly
    0.0 has no sign to read (no snapshot matches the edge, or the dyadic
    terms of those that do cancel exactly); it leaves the support with
    weight 0.  The output is unit-normalized with the anchor sign fixed
    positive.  Raises SolverError when the snapshots are too few to fix
    the support.
    """
    if not snapshots:
        raise ValueError("empty snapshot set")
    bases, outcomes, n = snapshots.bases, snapshots.outcomes, snapshots.n
    dim = 1 << n
    count = len(snapshots)

    weights = np.zeros(dim)
    for idx in range(dim):
        est = _kernels.ketbra_estimates(bases, outcomes, n, idx, idx).real
        mean = float(est.mean())
        sigma = float(est.std(ddof=1)) / np.sqrt(count) if count > 1 else 0.0
        weights[idx] = mean if mean > 3.0 * sigma else 0.0

    support = np.nonzero(weights > 0)[0]
    if support.size == 0:
        raise SolverError("support estimate is empty; too few snapshots or no sparse structure")

    anchor = int(support[np.argmax(weights[support])])
    signs = np.zeros(dim)
    signs[anchor] = 1.0
    for idx in support:
        if idx == anchor:
            continue
        # 2*Re<anchor|rho|idx> estimates 2*psi_anchor*psi_idx for real states
        edge = 2.0 * _ketbra_mean(bases, outcomes, n, anchor, int(idx)).real
        if edge == 0.0:
            weights[idx] = 0.0  # a sign tie
            continue
        signs[idx] = 1.0 if edge > 0 else -1.0

    vec = signs * np.sqrt(weights)
    return vec / np.linalg.norm(vec)
