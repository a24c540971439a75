"""Bundled test grids, golden solutions, and the scenario harvester.

Goldens are regenerated by ``scripts/make_goldens.py`` with the default
Newton solve, the one ``qpflow solve --method newton`` runs;
``load_fixture`` refuses nothing but unknown names.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .grid import Bus, BusKind, GridCase, build_quadratic_forms, parse_case
from .lcu import hermitian_dilation
from .newton import NewtonConfig, lu_step, newton_raphson

FIXTURE_NAMES = ("case3", "case5", "case14")
_LOAD_RANGE = (0.8, 1.2)


def case_bytes(name: str) -> bytes:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return resources.files("qpflow.cases").joinpath(f"{name}.json").read_bytes()


def load_fixture(name: str) -> tuple[GridCase, dict]:
    """Parsed bundled case plus its golden solution/trace record."""
    case = parse_case(case_bytes(name))
    golden_path = resources.files("qpflow.cases").joinpath(f"goldens/{name}.json")
    goldens = json.loads(golden_path.read_text())
    return case, goldens


def scale_loads(case: GridCase, factor: float) -> GridCase:
    """A copy of the case with every PQ load scaled by ``factor``."""
    buses = [
        Bus(b.id, b.kind, b.v_set, b.theta_set, b.p_gen, b.p_load * factor, b.q_load * factor)
        if b.kind is BusKind.PQ
        else b
        for b in case.buses
    ]
    return GridCase(buses, list(case.branches), dict(case.index_map))


def harvest_jacobian_dilations(
    case: GridCase,
    count: int = 102,
    seed: int = 0,
    with_rhs: bool = False,
    eps0: float = 1e-4,
):
    """Padded Hermitian dilations of Jacobians from perturbed-loading runs.

    Loading scenarios draw a uniform scale factor in [0.8, 1.2) per
    scenario; every Newton linearization point of every scenario run
    contributes one dilated, padded Jacobian until ``count`` matrices are
    collected.  Runs stop at scenario-screening accuracy (mismatch 1e-4 by
    default) rather than the solver default, matching how operating-scenario
    ensembles are swept.
    With ``with_rhs`` the matching dilated right-hand sides (the Newton
    step systems) are returned alongside.
    """
    rng = np.random.default_rng(seed)
    mats: list[np.ndarray] = []
    rhss: list[np.ndarray] = []

    def recording_lu_step(j, f, iteration):
        dilated, rhs = hermitian_dilation(j, -f)
        mats.append(dilated)
        rhss.append(rhs)
        return lu_step(j, f, iteration)

    # every scenario runs to its end; the rng draws once per scenario, so
    # the first ``count`` matrices do not depend on where collection stops
    while len(mats) < count:
        factor = float(rng.uniform(*_LOAD_RANGE))
        problem = build_quadratic_forms(scale_loads(case, factor))
        newton_raphson(problem, NewtonConfig(eps0=eps0), recording_lu_step)
    if with_rhs:
        return mats[:count], rhss[:count]
    return mats[:count]
