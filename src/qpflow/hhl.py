"""End-to-end HHL solve on the exact simulator and the quantum Newton step.

The Hamiltonian is shifted so its spectrum is strictly positive, then the
evolution time t0 places all eigenphases inside (0, 1); the shift and scale
are inverted inside the eigenvalue-inversion rotation angles, which handles
negative eigenvalues without a sign qubit.  Postselection is analytic:
the ancilla is projected onto |1> with its exact Born probability, never
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PowerFlowProblem, SolverError
from .lcu import hermitian_dilation, pauli_decompose
from .newton import NewtonConfig, SolveTrace, lu_solve, newton_raphson
from .qsim import (
    DepthCounter,
    PhaseEstimation,
    StateVector,
    eigenvalue_inversion,
    measure_ancilla_postselect,
)

_REPRESENTED_TOL = 1e-8
# target inversion error; enters the asymptotic cost estimate of the
# Newton loop, it is not a guarantee (clock_bits is the actual knob)
EPS_INVERSE = 1e-2


@dataclass
class ShadowReadout:
    """Classical-shadow download settings for the quantum Newton loops."""

    samples: int = 100_000
    seed: int = 0


@dataclass
class HHLConfig:
    clock_bits: int = 6
    trotter_m: int = 10
    c_const: float | None = None  # None selects 0.9 * smallest represented |eigenvalue|
    t0: float | None = None  # None selects the spectral-window rule
    shift: float | None = None  # None selects the window rule; explicit values pair with t0

    def __post_init__(self):
        if self.clock_bits < 1:
            raise ValueError("clock_bits must be >= 1")
        if self.trotter_m < 1:
            raise ValueError("trotter_m must be >= 1")


@dataclass
class HHLResult:
    x_state: np.ndarray  # unit-norm real solution direction
    success_prob: float
    scale: float
    depth: DepthCounter
    fidelity_vs_exact: float
    clock_zero_prob: float = 1.0
    eigenvalue_window: tuple[float, float] = (0.0, 0.0)
    c_const: float = 0.0


def _gershgorin_window(a: np.ndarray) -> tuple[float, float]:
    centers = np.diag(a).real
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return float(np.min(centers - radii)), float(np.max(centers + radii))


def recover_normalization(x_unit: np.ndarray, a, b: np.ndarray) -> float:
    """Scale factor such that scale * x_unit solves A x = b.

    Uses the ratio b_j / (A x_unit)_j at the largest-|b_j| index whose
    denominator exceeds 1e-12.
    """
    x_unit = np.asarray(x_unit, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    ax = a @ x_unit
    candidates = np.argsort(-np.abs(b))
    for j in candidates:
        if abs(ax[j]) > 1e-12:
            return float(b[j] / ax[j])
    raise SolverError("every candidate denominator |(A x)_j| is below 1e-12")


def hhl_solve(a, b: np.ndarray, cfg: HHLConfig | None = None) -> HHLResult:
    """Solve A x = b through the phase-estimation pipeline.

    A must be Hermitian (dilate first otherwise); a non-power-of-two
    dimension is padded with an identity block and zero right-hand side.
    The pipeline is: prepare |b>, QPE, eigenvalue inversion, inverse QPE,
    postselect the ancilla on |1>, read out the live amplitudes.
    """
    cfg = cfg or HHLConfig()
    dense = np.asarray(a, dtype=complex)
    if np.max(np.abs(dense - dense.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian; apply hermitian_dilation first")
    dense = dense.real
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != dense.shape[0]:
        raise ValueError("dimension mismatch between A and b")
    if np.linalg.norm(b) == 0:
        raise ValueError("right-hand side is the zero vector")

    dim = dense.shape[0]
    nq = int(dim).bit_length() - 1
    if 1 << nq != dim:
        nq = int(np.ceil(np.log2(dim)))
        padded = np.eye(1 << nq)
        padded[:dim, :dim] = dense
        rhs = np.zeros(1 << nq)
        rhs[:dim] = b
        dense, b, dim = padded, rhs, 1 << nq

    # Gershgorin alone wastes clock resolution (its radius runs ~2x above
    # the spectral norm for these dilations), so cap the window with a
    # direct spectral-norm estimate plus safety margin.
    g_lo, g_hi = _gershgorin_window(dense)
    snorm = 1.05 * float(np.linalg.norm(dense, 2))
    g_hi = min(g_hi, snorm)
    g_lo = max(g_lo, -snorm)
    c = cfg.clock_bits
    span = g_hi - g_lo
    if cfg.shift is not None:
        shift = cfg.shift
    elif g_lo > 0:
        shift = 0.0
    else:
        delta = span / (1 << c) if span > 0 else max(abs(g_hi), 1.0)
        shift = g_lo - delta
    lam_max_bound = g_hi - shift
    t0 = cfg.t0 if cfg.t0 is not None else 2 * np.pi * (1 - 2.0 ** (-c)) / lam_max_bound
    if t0 * lam_max_bound > 2 * np.pi or t0 <= 0:
        raise ValueError("clock window violation: eigenphases would leave [0, 1)")

    ham = pauli_decompose(dense).shifted(-shift)

    def eig_of_phase(phase: float) -> float:
        return phase * 2 * np.pi / t0 + shift

    counter = DepthCounter()
    phase_estimation = PhaseEstimation(ham, c, t0, cfg.trotter_m)
    state = phase_estimation.forward(StateVector.from_vector(b), counter)

    # C comes from the smallest represented eigenvalue that the clock grid
    # can actually resolve.  Buckets within one grid tick of zero are
    # phase-estimation leakage (the shift rule keeps real phases at least a
    # tick away); counting them would amplify their content by 1/lambda and
    # swamp the solution.  Whatever a skipped rotation leaves behind falls
    # into the failed-postselection branch.
    clock_mass = state.probabilities().reshape(1 << c, -1).sum(axis=1)
    tick = 2 * np.pi / t0 / (1 << c)
    lam_grid = np.array([eig_of_phase(m / (1 << c)) for m in range(1 << c)])
    usable = (clock_mass > _REPRESENTED_TOL) & (np.abs(lam_grid) >= tick)
    usable[0] = False
    if not usable.any():
        # nothing sits a full tick away from zero: fall back to whatever is
        # represented (severely quantization-limited, but still terminates)
        usable = (clock_mass > _REPRESENTED_TOL) & (lam_grid != 0.0)
        usable[0] = False
    if not usable.any():
        raise SolverError("no invertible eigenvalue is represented on the clock register")
    eigs = lam_grid[usable]
    window = (float(np.min(np.abs(eigs))), float(np.max(np.abs(eigs))))
    c_const = cfg.c_const if cfg.c_const is not None else 0.9 * window[0]

    state = eigenvalue_inversion(
        state, c, c_const, counter, eig_of_phase=eig_of_phase, amp_tol=np.inf
    )
    # the ancilla occupies the least significant qubit and rides along
    state = phase_estimation.adjoint(state, counter)
    state, success_prob = measure_ancilla_postselect(state, ancilla=state.n - 1, want=1)

    # keep the clock-zero block; residual mass there measures phase leakage
    blocks = state.amps.reshape(1 << c, -1)
    live = blocks[0]
    clock_zero = float(np.sum(np.abs(live) ** 2))
    if clock_zero < 1e-14:
        raise SolverError("no amplitude left on the zero clock value after uncomputation")
    live = live / np.sqrt(clock_zero)
    anchor = np.argmax(np.abs(live))
    live = live * np.exp(-1j * np.angle(live[anchor]))
    x_state = live.real / np.linalg.norm(live.real)

    exact = np.linalg.solve(dense, b)
    exact /= np.linalg.norm(exact)
    fidelity = float(abs(np.dot(exact, x_state)))

    scale = recover_normalization(x_state, dense, b)
    return HHLResult(
        x_state=x_state,
        success_prob=success_prob,
        scale=scale,
        depth=counter,
        fidelity_vs_exact=fidelity,
        clock_zero_prob=clock_zero,
        eigenvalue_window=window,
        c_const=float(c_const),
    )


def download_state(x_state: np.ndarray, downloader, iteration: int) -> np.ndarray:
    """Read a solution direction either exactly or through classical shadows."""
    if downloader == "exact" or downloader is None:
        return np.asarray(x_state, dtype=float)
    if isinstance(downloader, ShadowReadout):
        from .shadows import collect_shadows, reconstruct_real_state

        seed = np.random.SeedSequence(entropy=downloader.seed, spawn_key=(iteration,))
        state = StateVector.from_vector(x_state)
        snaps = collect_shadows(state, downloader.samples, seed)
        return reconstruct_real_state(snaps)
    raise ValueError(f"unknown downloader {downloader!r}")


def quantum_step(inner_solve, downloader="exact"):
    """Newton inner step that solves J dU = -F on a quantum linear solver.

    ``inner_solve(a_tilde, b_tilde, iteration)`` receives the padded
    Hermitian dilation and returns (unit_direction, extras dict).  The
    direction is downloaded, rescaled through recover_normalization, and
    compared against the classical LU direction; the cosine joins the
    extras.  Unlike lu_step, this step does not pin the slack coordinate
    u[1]: it carries the inner solve's error, which then shows in the
    slack-angle residual row.
    """

    def step(j, f, iteration):
        a_tilde, b_tilde = hermitian_dilation(j, -f)
        x_unit, extras = inner_solve(a_tilde, b_tilde, iteration)
        x_unit = download_state(x_unit, downloader, iteration)
        scale = recover_normalization(x_unit, a_tilde, b_tilde)
        dim = j.shape[0]
        du = (scale * x_unit)[dim : 2 * dim]

        du_classical = lu_solve(j, -f)
        denom = np.linalg.norm(du) * np.linalg.norm(du_classical)
        cosine = float(np.dot(du, du_classical) / denom) if denom > 0 else 0.0
        return du, {"direction_cosine": cosine, **extras}

    return step


def qpf_hhl(
    problem: PowerFlowProblem,
    cfg_newton: NewtonConfig | None = None,
    cfg_hhl: HHLConfig | None = None,
    downloader="exact",
) -> tuple[np.ndarray, SolveTrace]:
    """Newton power flow with the inner linear solve done by HHL.

    The trace extras carry, besides per-iteration diagnostics, the
    asymptotic-cost estimate K * log2(N_bus) * s**2 * kappa**2 /
    EPS_INVERSE**2 evaluated with the measured iteration count, maximal
    sparsity, and maximal condition number.
    """
    cfg_hhl = cfg_hhl or HHLConfig()

    def inner(a_tilde, b_tilde, iteration):
        result = hhl_solve(a_tilde, b_tilde, cfg_hhl)
        extras = {
            "success_prob": result.success_prob,
            "hhl_fidelity": result.fidelity_vs_exact,
            "depth": result.depth.depth,
        }
        return result.x_state, extras

    u, trace = newton_raphson(problem, cfg_newton, quantum_step(inner, downloader))
    if trace.iterations:
        trace.extras["asymptotic_cost_estimate"] = (
            trace.iterations
            * float(np.log2(problem.n_bus))
            * max(trace.sparsities) ** 2
            * max(trace.kappas) ** 2
            / EPS_INVERSE**2
        )
    return u, trace
