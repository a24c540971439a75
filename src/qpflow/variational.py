"""Variational solvers: VQLS for inner linear systems and the direct
variational power-flow formulation (VQPF).

The ansatz is hardware-efficient and real: an initial layer of per-qubit
Y-rotations followed by ``layers`` repetitions of a ring-CZ entangler plus
another Y-rotation layer.  Real amplitudes suffice because every target
vector in this package is real.  The ansatz is simulated on its 2**n real
amplitudes with index tables cached per qubit count (``_ansatz_tables``):
each Y-rotation is one gather-and-add butterfly over a partner-index table
and a +-1 sign table, and each CZ ring one product with a +-1 diagonal.

Each loss is a smooth function of a few quadratic expectations
E(theta) = <0|U(theta)^T H U(theta)|0>, so exact gradients come from the
parameter-shift rule applied to the expectations plus the chain rule.
VQLS and VQPF both minimise their loss with one optimizer, L-BFGS with an
Armijo backtracking line search (``_descend``), so neither takes a
step-size setting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import PowerFlowProblem, RowKind, SolverError
from .hhl import quantum_step
from .lcu import LCUDecomposition, reconstruct
from .newton import SolveTrace, newton_raphson
from .qsim import StateVector


@dataclass
class Ansatz:
    n: int
    layers: int
    theta: np.ndarray

    def __post_init__(self):
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)
        want = self.n * (self.layers + 1)
        if self.theta.size != want:
            raise ValueError(f"expected {want} parameters, got {self.theta.size}")

    @classmethod
    def random(cls, n: int, layers: int, seed=0, scale: float = 0.1) -> "Ansatz":
        rng = np.random.default_rng(seed)
        return cls(n, layers, scale * rng.standard_normal(n * (layers + 1)))

    @classmethod
    def flat_start(cls, n: int, layers: int, seed=0, noise: float = 0.01) -> "Ansatz":
        """Initial parameters preparing the uniform all-real-part state.

        The final rotation layer puts every qubit but the last into |+>,
        the unit vector along (1,0,1,0,...): the voltage flat start.  All
        earlier layers stay at zero, where the entanglers act trivially on
        |0...0>.  Small seeded noise breaks gradient symmetries.
        """
        rng = np.random.default_rng(seed)
        theta = noise * rng.standard_normal(n * (layers + 1))
        theta[layers * n : layers * n + n - 1] += np.pi / 2
        return cls(n, layers, theta)

    def with_theta(self, theta: np.ndarray) -> "Ansatz":
        return Ansatz(self.n, self.layers, theta)


@dataclass
class OptimizerConfig:
    """L-BFGS settings: stop once the loss is below ``tol`` or after ``max_steps`` iterations."""

    max_steps: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@functools.cache
def _ansatz_tables(n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """Index tables of the n-qubit ansatz, built once per qubit count.

    ``partners[q]`` maps each basis index to the one with qubit q flipped
    (qubit 0 is the most significant bit), ``signs[q]`` is -1 where qubit q
    reads 0 and +1 where it reads 1, and ``ring`` is the whole CZ ring as
    one +-1 diagonal (empty ring for n = 1, a single pair for n = 2).
    """
    idx = np.arange(1 << n)
    bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    partners = tuple(idx ^ (1 << (n - 1 - q)) for q in range(n))
    signs = tuple(2.0 * b - 1.0 for b in bits)
    pairs = [(q, (q + 1) % n) for q in range(n)] if n > 2 else [(0, 1)] if n == 2 else []
    ring = np.ones(1 << n)
    for q1, q2 in pairs:
        ring[(bits[q1] & bits[q2]) == 1] *= -1.0
    for table in (*partners, *signs, ring):
        table.setflags(write=False)
    return partners, signs, ring


def ansatz_amplitudes(a: Ansatz) -> np.ndarray:
    """Real amplitude vector U(theta)|0...0>.

    The Y-rotation of qubit q by theta maps the pair (a0, a1) of amplitudes
    that differ in that qubit to (c a0 - s a1, s a0 + c a1), c = cos(theta/2)
    and s = sin(theta/2): over the whole vector that is one butterfly,
    c * amps + (s * signs[q]) * amps[partners[q]].  Products with +-1 are
    exact and addition commutes, so every amplitude carries the bits of
    the pairwise update.
    """
    partners, signs, ring = _ansatz_tables(a.n)
    amps = np.zeros(1 << a.n)
    amps[0] = 1.0
    for layer, angles in enumerate(a.theta.reshape(a.layers + 1, a.n)):
        if layer:
            amps = amps * ring
        for q in range(a.n):
            half = angles[q] / 2.0
            amps = np.cos(half) * amps + (np.sin(half) * signs[q]) * amps[partners[q]]
    return amps


def apply_ansatz(a: Ansatz) -> StateVector:
    return StateVector(a.n, ansatz_amplitudes(a).astype(complex))


class ExpectationLoss:
    """Loss = g(E_1, ..., E_k) over quadratic expectations of fixed matrices.

    Subclasses provide the Hermitian (real symmetric) matrices and the
    scalar function with its partial derivatives.
    """

    matrices: list[np.ndarray]

    def expectations(self, a: Ansatz) -> np.ndarray:
        psi = ansatz_amplitudes(a)
        return np.array([float(psi @ (h @ psi)) for h in self.matrices])

    def value_from(self, e: np.ndarray) -> float:
        raise NotImplementedError

    def partials_from(self, e: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, a: Ansatz) -> float:
        return self.value_from(self.expectations(a))


def _dense_real(a_mat) -> np.ndarray:
    if isinstance(a_mat, LCUDecomposition):
        return np.ascontiguousarray(reconstruct(a_mat).real)
    return np.ascontiguousarray(a_mat, dtype=float)


def _householder_prep(b: np.ndarray) -> np.ndarray:
    """Real orthogonal B with B e_0 = b/|b| (the state-preparation unitary)."""
    b = np.asarray(b, dtype=float).reshape(-1)
    nrm = np.linalg.norm(b)
    if nrm == 0:
        raise ValueError("cannot prepare the zero vector")
    target = b / nrm
    e0 = np.zeros_like(target)
    e0[0] = 1.0
    v = target - e0
    vn = np.linalg.norm(v)
    if vn < 1e-15:
        return np.eye(target.size)
    v /= vn
    return np.eye(target.size) - 2.0 * np.outer(v, v)


class GlobalVqlsLoss(ExpectationLoss):
    """1 - |<b|psi>|^2 with psi = A U|0> / |A U|0>|."""

    def __init__(self, a_mat, b: np.ndarray):
        a_dense = _dense_real(a_mat)
        b = np.asarray(b, dtype=float).reshape(-1)
        b_unit = b / np.linalg.norm(b)
        self.matrices = [
            a_dense.T @ np.outer(b_unit, b_unit) @ a_dense,  # numerator
            a_dense.T @ a_dense,  # denominator |A U|0>|^2
        ]

    def value_from(self, e):
        if e[1] < 1e-12:
            raise SolverError("ansatz state is annihilated by A")
        return 1.0 - e[0] / e[1]

    def partials_from(self, e):
        return np.array([-1.0 / e[1], e[0] / e[1] ** 2])


class LocalVqlsLoss(ExpectationLoss):
    """1 - <psi|B P B^T|psi> with P = 1/2 + sum_j Z_j / (2n)."""

    def __init__(self, a_mat, b: np.ndarray):
        a_dense = _dense_real(a_mat)
        b_mat = _householder_prep(b)
        dim = a_dense.shape[0]
        n = int(dim).bit_length() - 1
        diag = np.full(dim, 0.5)
        idx = np.arange(dim)
        for q in range(n):
            bits = (idx >> (n - 1 - q)) & 1
            diag += (1.0 - 2.0 * bits) / (2.0 * n)
        p_loc = b_mat @ np.diag(diag) @ b_mat.T
        self.matrices = [a_dense.T @ p_loc @ a_dense, a_dense.T @ a_dense]

    value_from = GlobalVqlsLoss.value_from
    partials_from = GlobalVqlsLoss.partials_from


def vqls_loss_global(a: Ansatz, a_mat, b_state) -> float:
    b = b_state.amps.real if isinstance(b_state, StateVector) else np.asarray(b_state, dtype=float)
    return GlobalVqlsLoss(a_mat, b).value(a)


def vqls_loss_local(a: Ansatz, a_mat, b) -> float:
    return LocalVqlsLoss(a_mat, b).value(a)


def gradient(loss: ExpectationLoss, a: Ansatz) -> np.ndarray:
    """Exact parameter-shift gradient."""
    base = loss.expectations(a)
    partials = loss.partials_from(base)
    grad = np.empty(a.theta.size)
    for k in range(a.theta.size):
        theta_p = a.theta.copy()
        theta_m = a.theta.copy()
        theta_p[k] += np.pi / 2
        theta_m[k] -= np.pi / 2
        de = (loss.expectations(a.with_theta(theta_p)) - loss.expectations(a.with_theta(theta_m))) / 2.0
        grad[k] = float(partials @ de)
    return grad


@dataclass
class VariationalRecord:
    loss_curve: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    converged: bool = False
    steps: int = 0
    x_state: np.ndarray | None = None

    def loss_csv(self) -> bytes:
        lines = ["step,loss,grad_norm"]
        for i, (lo, gn) in enumerate(zip(self.loss_curve, self.grad_norms)):
            lines.append(f"{i},{lo!r},{gn!r}")
        return ("\n".join(lines) + "\n").encode()


LBFGS_MEMORY = 10  # (s, y) pairs kept by the two-loop recursion
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking line search
MIN_STEP = 1e-10  # the line search gives up below this step length


def _lbfgs_direction(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """-H g by the two-loop recursion over the kept pairs, oldest first; H_0 = (s.y / y.y) I."""
    d = -g
    alphas = []
    for s, y in reversed(pairs):
        alpha = (s @ d) / (y @ s)
        d = d - alpha * y
        alphas.append(alpha)
    if pairs:
        s, y = pairs[-1]
        d = d * ((s @ y) / (y @ y))
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        d = d + (alpha - (y @ d) / (y @ s)) * s
    return d


def _descend(loss: ExpectationLoss, a0: Ansatz, opt: OptimizerConfig) -> tuple[Ansatz, VariationalRecord]:
    """L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989) over the parameter-shift gradient.

    Each iteration takes one gradient, at its top, so a solve that meets
    ``tol`` pays for none at its last point.  The step comes from Armijo
    backtracking that halves from t = 1; a pair is kept only when
    y.s > 1e-12, and a direction that does not descend is replaced by
    steepest descent with the memory cleared.  The loss never rises, so
    the last iterate is the best one.  A line search that finds no
    decrease above ``MIN_STEP`` ends the solve.
    """
    rec = VariationalRecord()
    theta = a0.theta
    value = loss.value(a0)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    last = None  # (theta, gradient) of the previous iterate
    for _ in range(opt.max_steps):
        if not np.isfinite(value):
            raise FloatingPointError("loss became non-finite")
        if value < opt.tol:
            break
        g = gradient(loss, a0.with_theta(theta))
        if last is not None:
            s, y = theta - last[0], g - last[1]
            if y @ s > 1e-12:
                pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
        last = theta, g
        d = _lbfgs_direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0:
            pairs, d, slope = [], -g, -float(g @ g)
            if not slope < 0:
                break  # a stationary point
        t = 1.0
        trial = loss.value(a0.with_theta(theta + d))
        while not trial <= value + ARMIJO_C1 * t * slope:  # a NaN trial backtracks too
            t /= 2
            if t < MIN_STEP:
                break
            trial = loss.value(a0.with_theta(theta + t * d))
        if t < MIN_STEP:
            break
        rec.loss_curve.append(float(value))
        rec.grad_norms.append(float(np.linalg.norm(g)))
        theta, value = theta + t * d, trial
    rec.loss_curve.append(float(value))
    rec.grad_norms.append(rec.grad_norms[-1] if rec.grad_norms else 0.0)
    rec.steps = len(rec.loss_curve) - 1
    rec.converged = bool(value < opt.tol)
    return a0.with_theta(theta), rec


def vqls_solve(
    a_mat,
    b: np.ndarray,
    a0: Ansatz,
    opt: OptimizerConfig | None = None,
) -> tuple[Ansatz, VariationalRecord]:
    """L-BFGS on the local VQLS loss for A x = b.

    Returns the optimized ansatz and a record holding the loss curve and
    the final solution state.
    """
    opt = opt or OptimizerConfig()
    ansatz, rec = _descend(LocalVqlsLoss(a_mat, b), a0, opt)
    rec.x_state = ansatz_amplitudes(ansatz)
    return ansatz, rec


@dataclass
class VQPFProblem:
    """Quadratic-form rows embedded into a 2**n space for direct optimization."""

    n: int
    observables: list[np.ndarray]
    rhs: np.ndarray
    reference_row: int
    live_dim: int

    def __post_init__(self):
        if abs(self.rhs[self.reference_row]) < 1e-15:
            raise ValueError("reference row must have a nonzero right-hand side")


def _cross_term_row(full: int, k: int) -> np.ndarray:
    """Symmetric O with u^T O u = u_0 * u_k; vanishes iff u_k = 0 when u_0 != 0."""
    mat = np.zeros((full, full))
    mat[0, k] = mat[k, 0] = 0.5
    return mat


def vqpf_from_power_flow(problem: PowerFlowProblem) -> VQPFProblem:
    """Embed power-flow rows into the padded space.

    Zero-target constraints (the slack angle u_1 = 0 and every padding
    coordinate u_k, k >= dim) are encoded as cross terms u_0 * u_k = 0
    rather than squared projectors u_k^2 = 0, whose quartic flatness
    around zero stalls a gradient-based optimizer.  Both forms vanish at
    every solution.  The cross terms also vanish wherever the slack real
    part u_0 is zero, whatever the other coordinates: the slack magnitude
    row fixes u_0^2 + u_1^2, not u_0, so the loss has zeros at u_0 = 0
    that are not power-flow solutions.  The reference row is the slack
    magnitude row.
    """
    dim = problem.dim
    n = max(1, int(np.ceil(np.log2(dim))))
    full = 1 << n
    observables: list[np.ndarray] = []
    rhs: list[float] = []
    ref = None
    for a, form in enumerate(problem.forms):
        if problem.row_kind[a] is RowKind.THETA_SLACK:
            observables.append(_cross_term_row(full, 1))
        else:
            mat = np.zeros((full, full))
            mat[:dim, :dim] = form
            observables.append(mat)
        rhs.append(float(problem.rhs[a]))
        if problem.row_kind[a] is RowKind.VMAG_SLACK and ref is None:
            ref = a
    for pad in range(dim, full):
        observables.append(_cross_term_row(full, pad))
        rhs.append(0.0)
    if ref is None:
        raise ValueError("problem has no slack magnitude row")
    return VQPFProblem(n, observables, np.array(rhs), ref, dim)


class VqpfLoss(ExpectationLoss):
    """0.5 * sum_a (<O_a>/<O_ref> - f_a/f_ref)^2 over non-reference rows."""

    def __init__(self, p: VQPFProblem):
        self.matrices = list(p.observables)
        self.p = p
        self.ref = p.reference_row
        f = p.rhs
        self.targets = np.array(
            [f[a] / f[self.ref] for a in range(len(f)) if a != self.ref]
        )
        self.rows = [a for a in range(len(f)) if a != self.ref]

    def value_from(self, e):
        if abs(e[self.ref]) < 1e-10:
            raise ValueError("reference expectation is too close to zero")
        ratios = np.array([e[a] for a in self.rows]) / e[self.ref]
        return 0.5 * float(np.sum((ratios - self.targets) ** 2))

    def partials_from(self, e):
        eref = e[self.ref]
        diffs = np.array([e[a] for a in self.rows]) / eref - self.targets
        partials = np.zeros(len(e))
        for d, a in zip(diffs, self.rows):
            partials[a] += d / eref
            partials[self.ref] -= d * e[a] / eref**2
        return partials


def vqpf_loss(p: VQPFProblem, a: Ansatz) -> float:
    return VqpfLoss(p).value(a)


def vqpf_solve(
    p: VQPFProblem,
    a0: Ansatz,
    opt: OptimizerConfig | None = None,
) -> tuple[Ansatz, np.ndarray, float, VariationalRecord]:
    """L-BFGS on the ratio loss, then recover the physical scale.

    The normalization c (with <O_a> * c ~ f_a) comes from a least-squares
    fit over all rows; the returned voltage vector is the live block of
    sqrt(c) * psi with the slack real part fixed positive.  A run that hits
    max_steps returns its best iterate.  The last item is the loss-curve
    record of the descent.
    """
    opt = opt or OptimizerConfig()
    loss = VqpfLoss(p)
    ansatz, rec = _descend(loss, a0, opt)
    psi = ansatz_amplitudes(ansatz)
    expectations = np.array([float(psi @ (h @ psi)) for h in p.observables])
    denom = float(expectations @ expectations)
    if denom < 1e-30:
        raise ValueError("all observable expectations vanish; cannot recover the scale")
    c = float(expectations @ p.rhs) / denom
    if c <= 0:
        raise ValueError(f"recovered normalization {c:.3g} is not positive")
    u = np.sqrt(c) * psi[: p.live_dim]
    if u[0] < 0:
        u = -u
    return ansatz, u, c, rec


def qpf_vqls(
    problem: PowerFlowProblem,
    cfg_newton=None,
    layers: int = 4,
    opt: OptimizerConfig | None = None,
    downloader="exact",
    warm_start: bool = True,
) -> tuple[np.ndarray, SolveTrace]:
    """Newton power flow with VQLS as the inner linear solver.

    The ansatz parameters warm-start from the previous outer iteration.
    The inner solves' records, loss curves included, land in the trace
    extras as ``inner_records``.
    """
    opt = opt or OptimizerConfig()
    state = {"theta": None}
    inner_records: list[VariationalRecord] = []

    def inner(a_tilde, b_tilde, iteration):
        n = int(a_tilde.shape[0]).bit_length() - 1
        if state["theta"] is None or not warm_start:
            a0 = Ansatz.random(n, layers, seed=opt.seed + iteration)
        else:
            a0 = Ansatz(n, layers, state["theta"])
        ansatz, rec = vqls_solve(a_tilde, b_tilde, a0, opt)
        state["theta"] = ansatz.theta.copy()
        inner_records.append(rec)
        return rec.x_state, {
            "inner_loss": rec.loss_curve[-1],
            "inner_steps": rec.steps,
            "inner_converged": rec.converged,
        }

    u, trace = newton_raphson(problem, cfg_newton, quantum_step(inner, downloader))
    trace.extras["inner_records"] = inner_records
    return u, trace
