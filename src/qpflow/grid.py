"""Cartesian power-flow model: case parsing, admittance, quadratic forms.

Bus voltages are stacked as a real vector u of length 2*N_bus with
(u[2k], u[2k+1]) = (Re V_k, Im V_k) for 0-based bus k.  Every balance
equation is a quadratic form u^T O_a u = f_a except the slack-angle row,
which is the linear constraint u[1] = 0 (slack angle fixed at zero).
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass

import numpy as np

STRUCTURAL_ZERO = 1e-14
_DENSE_SVD_LIMIT = 2048


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


class RowKind(enum.Enum):
    VMAG_SLACK = "vmag_slack"
    THETA_SLACK = "theta_slack"
    P_INJ = "p_inj"
    VMAG = "vmag"
    Q_INJ = "q_inj"


class CaseError(ValueError):
    """Raised for malformed or physically inconsistent case data."""


class SolverError(RuntimeError):
    """Raised when a numerical routine fails on valid input, e.g. through shot noise."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    v_set: float = 0.0
    theta_set: float = 0.0
    p_gen: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0


@dataclass
class GridCase:
    """A parsed grid: buses ordered slack, PV, PQ and renumbered 1..N."""

    buses: list[Bus]
    branches: list[Branch]
    index_map: dict[int, int]  # original id -> 1-based position after reordering

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return sum(b.kind in (BusKind.SLACK, BusKind.PV) for b in self.buses)


@dataclass
class PowerFlowProblem:
    """Quadratic forms O_a and constants f_a, one row per equation.

    forms is a dense (2N, 2N, 2N) array whose slice forms[a] is the
    symmetric O_a; the slack-angle row (linear in u, always row 1) has an
    all-zero slice.  row_bus[a] is the 0-based bus the row balances.
    """

    n_bus: int
    forms: np.ndarray
    rhs: np.ndarray
    row_kind: list[RowKind]
    row_bus: list[int]

    @property
    def dim(self) -> int:
        return 2 * self.n_bus


def flat_start(n_bus: int) -> np.ndarray:
    """All voltages at 1 per-unit, zero angle: u = (1,0,1,0,...)."""
    u = np.zeros(2 * n_bus)
    u[0::2] = 1.0
    return u


def _finite(entry: dict, key: str, where: str, default: float | None = None) -> float:
    """Numeric case field ``key`` as a float: a finite int or float, not a bool."""
    value = entry.get(key, default)
    # the magnitude test also rejects NaN and ints beyond the float range
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise CaseError(f"{where} needs a finite {key}, got {value!r}")


def _v_set(entry: dict, where: str) -> float:
    """A slack or PV bus's voltage set point: positive, with a finite square (the rhs of its row)."""
    v_set = _finite(entry, "v_set", where)
    if v_set <= 0:
        raise CaseError(f"{where} needs v_set > 0")
    if v_set * v_set == float("inf"):
        raise CaseError(f"{where} needs v_set**2 within the float range, got {v_set!r}")
    return v_set


def parse_case(data: bytes | str) -> GridCase:
    """Parse a case file (JSON) into a validated, reordered GridCase."""
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CaseError(f"malformed case JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CaseError("case JSON must be an object")
    for key in ("buses", "branches"):
        if key not in raw:
            raise CaseError(f"case is missing the {key!r} key")
        if not isinstance(raw[key], list) or not all(isinstance(e, dict) for e in raw[key]):
            raise CaseError(f"case {key!r} must be a list of objects")

    buses = []
    seen_ids = set()
    for entry in raw["buses"]:
        bid = entry.get("id")
        if not isinstance(bid, int):
            raise CaseError(f"bus id must be an integer, got {bid!r}")
        if bid in seen_ids:
            raise CaseError(f"duplicate bus id {bid}")
        seen_ids.add(bid)
        kind_raw = entry.get("kind")
        try:
            kind = BusKind(kind_raw)
        except ValueError:
            raise CaseError(f"bus {bid}: unknown kind {kind_raw!r}") from None
        where = f"{kind.value} bus {bid}"
        if kind is BusKind.SLACK:
            v_set = _v_set(entry, where)
            if entry.get("theta_set", 0.0) != 0.0:
                raise CaseError(f"{where}: nonzero theta_set is not supported")
            buses.append(Bus(bid, kind, v_set=v_set, theta_set=0.0))
        elif kind is BusKind.PV:
            buses.append(Bus(bid, kind, v_set=_v_set(entry, where), p_gen=_finite(entry, "p_gen", where)))
        else:
            p_load, q_load = _finite(entry, "p_load", where), _finite(entry, "q_load", where)
            buses.append(Bus(bid, kind, p_load=p_load, q_load=q_load))

    slack_count = sum(b.kind is BusKind.SLACK for b in buses)
    if slack_count == 0:
        raise CaseError("case has no slack bus")
    if slack_count > 1:
        raise CaseError(f"case has {slack_count} slack buses, expected exactly one")

    branches = []
    for entry in raw["branches"]:
        f, t = entry.get("from"), entry.get("to")
        if not (isinstance(f, int) and isinstance(t, int)) or f not in seen_ids or t not in seen_ids:
            raise CaseError(f"branch {f}-{t} references an unknown bus")
        if f == t:
            raise CaseError(f"branch endpoints coincide at bus {f}")
        where = f"branch {f}-{t}"
        r, x = _finite(entry, "r", where, 0.0), _finite(entry, "x", where, 0.0)
        if r == 0.0 and x == 0.0:
            raise CaseError(f"{where} has zero impedance")
        branches.append(Branch(f, t, r, x, _finite(entry, "b_sh", where, 0.0)))

    # connectivity over the branch graph
    if len(buses) > 1:
        adj: dict[int, set[int]] = {b.id: set() for b in buses}
        for br in branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        start = buses[0].id
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(buses):
            missing = sorted(seen_ids - seen)
            raise CaseError(f"grid is disconnected; unreachable buses {missing}")

    order = {BusKind.SLACK: 0, BusKind.PV: 1, BusKind.PQ: 2}
    reordered = sorted(buses, key=lambda b: (order[b.kind], b.id))
    index_map = {b.id: pos + 1 for pos, b in enumerate(reordered)}
    renumbered = [
        Bus(pos + 1, b.kind, b.v_set, b.theta_set, b.p_gen, b.p_load, b.q_load)
        for pos, b in enumerate(reordered)
    ]
    rebranched = [
        Branch(index_map[br.from_bus], index_map[br.to_bus], br.r, br.x, br.b_sh)
        for br in branches
    ]
    return GridCase(renumbered, rebranched, index_map)


def build_admittance(case: GridCase) -> np.ndarray:
    """Dense nodal admittance matrix from the pi-model branch data.

    Parallel branches merge by admittance addition; each branch contributes
    half of its total shunt susceptance at either end.
    """
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if br.r == 0.0 and br.x == 0.0:
            raise CaseError(f"branch {br.from_bus}-{br.to_bus} has zero impedance")
        ys = 1.0 / complex(br.r, br.x)
        f, t = br.from_bus - 1, br.to_bus - 1
        y[f, f] += ys + 0.5j * br.b_sh
        y[t, t] += ys + 0.5j * br.b_sh
        y[f, t] -= ys
        y[t, f] -= ys
    return y


def build_quadratic_forms(case: GridCase) -> PowerFlowProblem:
    """Assemble the per-row quadratic forms and right-hand constants.

    Active/reactive injections at bus k come from S_k = V_k * conj(I_k)
    with I = Y V written in real coordinates and symmetrized so that
    u^T M u is exact and the residual gradient is 2 M u.
    """
    y = build_admittance(case)
    g, b = y.real, y.imag
    dim = 2 * case.n_bus
    forms = np.zeros((dim, dim, dim))
    rhs = np.zeros(dim)
    row_kind: list[RowKind] = []
    for k, bus in enumerate(case.buses):
        re, im = 2 * k, 2 * k + 1
        if bus.kind is BusKind.SLACK:
            row_kind += [RowKind.VMAG_SLACK, RowKind.THETA_SLACK]
            rhs[re] = bus.v_set**2
            forms[re, re, re] = forms[re, im, im] = 1.0
            continue
        # P_k = Re V_k conj(I_k), I = (G + iB) V: before symmetrizing, rows Re V_k and
        # Im V_k hold (G_k, -B_k) and (B_k, G_k) against the columns (Re V, Im V)
        p = forms[re]
        p[re, 0::2], p[re, 1::2], p[im, 0::2], p[im, 1::2] = g[k], -b[k], b[k], g[k]
        if bus.kind is BusKind.PV:
            row_kind += [RowKind.P_INJ, RowKind.VMAG]
            rhs[re], rhs[im] = bus.p_gen, bus.v_set**2
            forms[im, re, re] = forms[im, im, im] = 1.0
        else:
            row_kind += [RowKind.P_INJ, RowKind.Q_INJ]
            rhs[re], rhs[im] = -bus.p_load, -bus.q_load
            # Q_k = Im V_k conj(I_k): rows Re V_k and Im V_k hold (-B_k, -G_k) and (G_k, -B_k)
            q = forms[im]
            q[re, 0::2], q[re, 1::2], q[im, 0::2], q[im, 1::2] = -b[k], -g[k], g[k], -b[k]
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    forms[np.abs(forms) < STRUCTURAL_ZERO] = 0.0
    return PowerFlowProblem(case.n_bus, forms, rhs, row_kind, [a // 2 for a in range(dim)])


def _form_products(problem: PowerFlowProblem, u) -> tuple[np.ndarray, np.ndarray]:
    """The state as a flat float vector and the stack of products O_a u, one per row."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != problem.dim:
        raise ValueError(f"state has length {u.size}, expected {problem.dim}")
    return u, (problem.forms * u).sum(axis=2)


def residual(problem: PowerFlowProblem, u: np.ndarray) -> np.ndarray:
    """F_a(u) = u^T O_a u - f_a; the slack-angle row returns u[1]."""
    u, ou = _form_products(problem, u)
    out = (ou * u).sum(axis=1) - problem.rhs
    out[1] = u[1]
    return out


def jacobian(problem: PowerFlowProblem, u: np.ndarray) -> np.ndarray:
    """Dense J: row a is 2*(O_a u)^T; the slack-angle row is the constant unit row."""
    _, ou = _form_products(problem, u)
    out = 2.0 * ou
    out[1] = 0.0
    out[1, 1] = 1.0
    return out


def sparsity(j: np.ndarray) -> int:
    """Max nonzero count over rows and columns (strict nonzeros)."""
    nonzero = np.asarray(j) != 0
    if nonzero.size == 0:
        return 0
    return int(max(nonzero.sum(axis=1).max(), nonzero.sum(axis=0).max()))


def condition_number(j: np.ndarray) -> float:
    """sigma_max / sigma_min via dense SVD; +inf below 1e-300."""
    dense = np.asarray(j, dtype=float)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("matrix must be square")
    if dense.shape[0] > _DENSE_SVD_LIMIT:
        raise ValueError(f"dimension {dense.shape[0]} exceeds the dense-SVD limit {_DENSE_SVD_LIMIT}")
    sigma = np.linalg.svd(dense, compute_uv=False)
    if sigma[-1] < 1e-300:
        return float("inf")
    return float(sigma[0] / sigma[-1])
