#!/usr/bin/env python3
"""Regenerate the golden fixtures with the default dense-LU Newton solve.

Run from the repository root:

    python3 scripts/make_goldens.py

The oracle is the Newton step that ``qpflow solve --method newton`` runs,
so the goldens are the CLI's own output.  They are deterministic (no
randomness is involved).  The residual and the Jacobian are numpy
reductions that call no BLAS, so they give the same bits on every
OpenBLAS kernel; the LAPACK LU of the Newton step does not, and its
round-off in the last bits of the solution depends on the numpy/OpenBLAS
build and on the CPU kernel it runs.  Forcing another OpenBLAS kernel
(``OPENBLAS_CORETYPE`` set to Haswell, SandyBridge or Prescott) can
therefore move solution coordinates at ulp level.  Regenerate on the
default kernel of the machine whose test suite is to hold them.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from qpflow.fixtures import FIXTURE_NAMES, case_bytes
from qpflow.grid import build_quadratic_forms, parse_case, residual
from qpflow.newton import newton_raphson

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qpflow" / "cases" / "goldens"

PROVENANCE = {
    "case3": "hand-built 3-bus triangle (slack, PV, PQ) covering every row kind",
    "case5": "hand-built 5-bus meshed grid (slack, PV, 3x PQ)",
    "case14": (
        "IEEE 14-bus data, transcribed with transformer taps treated as plain "
        "branches and the bus-9 shunt dropped (both outside the model scope)"
    ),
}


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in FIXTURE_NAMES:
        case = parse_case(case_bytes(name))
        problem = build_quadratic_forms(case)
        u, trace = newton_raphson(problem)
        if not trace.converged:
            raise SystemExit(f"{name}: oracle Newton did not converge")
        final = residual(problem, u)
        golden = {
            "solution": u.tolist(),
            "iterations": trace.iterations,
            "residual_norm": float(np.max(np.abs(final))),
            "trace": {
                "residuals": trace.residuals,
                "kappas": trace.kappas,
                "sparsities": trace.sparsities,
                "step_norms": trace.step_norms,
            },
            "provenance": PROVENANCE[name],
            "oracle": "dense-LU Newton from flat start, tol 1e-8, max 20 iterations",
        }
        path = OUT_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
        print(f"{name}: {trace.iterations} iterations, residual {golden['residual_norm']:.3e} -> {path}")


if __name__ == "__main__":
    main()
