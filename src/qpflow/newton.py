"""The one Newton-Raphson loop of the package and its exact LU inner step.

Every Newton power flow here (classical, QPF-HHL, QPF-VQLS, the scenario
harvester, ``qpflow lcu --iterate``) runs ``newton_raphson``; only the
inner step that returns dU from J dU = -F differs.  The default step,
lu_step, is one dense LAPACK LU solve on the dense Jacobian; the CLI runs
it, and so does ``scripts/make_goldens.py``, so the golden fixtures are
the CLI's own output, bit for bit on the BLAS kernel that wrote them.  The
quantum step of QPF-HHL and QPF-VQLS lives in ``qpflow.hhl``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .grid import PowerFlowProblem, SolverError, condition_number, flat_start, jacobian, residual, sparsity

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 20


@dataclass
class NewtonConfig:
    u0: np.ndarray | None = None  # None selects the flat start
    k_max: int = DEFAULT_MAX_ITER
    eps0: float = DEFAULT_TOL

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")


@dataclass
class SolveTrace:
    """Per-iteration diagnostics; residuals are post-step infinity norms.

    ``jacobians`` holds each iteration's dense J as built, before its step.
    Its condition numbers and sparsities are computed when read, so loops
    that never report them (the scenario harvester, ``qpflow lcu
    --iterate``) never pay for a dense SVD.
    """

    residuals: list[float] = field(default_factory=list)
    jacobians: list[np.ndarray] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def kappas(self) -> list[float]:
        return [condition_number(j) for j in self.jacobians]

    @property
    def sparsities(self) -> list[int]:
        return [sparsity(j) for j in self.jacobians]


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by dense LU with one step of iterative refinement.

    Guarantees the residual contract ||A x - b||_inf <= 1e-10 * ||b||_inf
    or raises SolverError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    try:
        x = np.linalg.solve(a, b)
        x += np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"linear solve failed: {exc}") from exc
    resid = np.max(np.abs(a @ x - b))
    bound = 1e-10 * max(np.max(np.abs(b)), 1e-300)
    if not np.isfinite(resid) or resid > bound:
        raise SolverError(f"solution residual {resid:.3g} exceeds {bound:.3g}")
    return x


def lu_step(j: np.ndarray, f: np.ndarray, iteration: int) -> tuple[np.ndarray, dict]:
    """Exact Newton step dU = -J^-1 F by lu_solve.

    The slack-angle row of J is the unit row e_1, so the exact step's entry 1
    is -F[1] = -u[1]; taking it verbatim puts u[1] + dU[1] at exactly 0.0
    instead of at round-off that differs between BLAS builds.
    """
    du = lu_solve(j, -f)
    du[1] = -f[1]
    return du, {}


def newton_raphson(
    problem: PowerFlowProblem,
    cfg: NewtonConfig | None = None,
    inner=None,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate u <- u + dU until ||F||_inf < eps0 or k_max steps.

    ``inner(j, f, iteration)`` returns (dU, extras) for the dense Jacobian
    j and residual f; each extras value is appended to the trace-extras list
    of its key.  The default inner step is lu_step.  An already-converged
    initial guess returns immediately with an empty trace.  Non-finite
    iterates raise FloatingPointError.
    """
    cfg = cfg or NewtonConfig()
    inner = inner or lu_step
    u = flat_start(problem.n_bus) if cfg.u0 is None else np.array(cfg.u0, dtype=float)
    if u.size != problem.dim:
        raise ValueError(f"initial guess has length {u.size}, expected {problem.dim}")

    trace = SolveTrace()
    f = residual(problem, u)
    norm = float(np.max(np.abs(f)))
    for iteration in range(cfg.k_max):
        if norm < cfg.eps0:
            break
        j = jacobian(problem, u)
        du, extras = inner(j, f, iteration)
        u = u + du
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("Newton iterate is not finite")
        f = residual(problem, u)
        norm = float(np.max(np.abs(f)))
        trace.residuals.append(norm)
        trace.jacobians.append(j)
        trace.step_norms.append(float(np.max(np.abs(du))))
        for key, value in extras.items():
            trace.extras.setdefault(key, []).append(value)
    trace.iterations = len(trace.residuals)
    trace.converged = norm < cfg.eps0
    return u, trace


def diagnostics_csv(trace: SolveTrace) -> bytes:
    """One row per iteration: iter, residual, kappa, sparsity, step_norm."""
    if trace.iterations == 0:
        raise ValueError("trace is empty")
    buf = io.StringIO()
    buf.write("iter,residual,kappa,sparsity,step_norm\n")
    rows = zip(trace.residuals, trace.kappas, trace.sparsities, trace.step_norms)
    for i, (resid, kappa, s, step) in enumerate(rows, start=1):
        buf.write(f"{i},{resid!r},{kappa!r},{s},{step!r}\n")
    return buf.getvalue().encode()
