"""The benchmark's workloads: one qpflow CLI command each, plus its oracle.

Each workload is chosen so that a different layer does most of an op's
work; ``stresses`` names that layer's per-layer metric and
``predictions`` says which end-to-end metric a change to each layer
should move on this workload.  Sizes keep the work of one op fixed
whatever the seed (a single Newton step where the iteration count of a
whole solve would depend on shadow noise or VQLS restarts), so per-run
medians are steady across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def reference_pauli_coefficients(a: np.ndarray) -> np.ndarray:
    """Tr(P_p A) / 2**n for every Pauli word p, by one 4x4 contraction per qubit.

    Independent of qpflow's kernel: the word index is base 4 with qubit 0
    (the most significant bit of the row index) in the top digit.
    """
    dim = a.shape[0]
    n = dim.bit_length() - 1
    # axes (r_0, c_0, r_1, c_1, ...) merged pairwise into one axis of 4 per qubit
    t = a.reshape((2,) * (2 * n)).transpose([x for q in range(n) for x in (q, n + q)]).reshape((4,) * n)
    basis = np.stack([p.T.reshape(-1) for p in _PAULIS]) / 2.0  # [p, 2*r + c] = P[c, r] / 2
    for q in range(n):
        t = np.moveaxis(np.tensordot(basis, t, axes=([1], [q])), 0, q)
    return t.reshape(-1).real


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    command: tuple[str, ...]  # "{cases}" stands for the package's case directory
    smoke: tuple[str, ...]  # the same command at reduced size: warm-up and smoke mode
    exits: frozenset[int]  # exit codes an op may end with
    oracle: str  # "lu_first_step" or "lcu_counts"
    tol: float  # largest error, as a share of the reference's largest entry
    cos_min: float = 0.0  # "lu_first_step": least cosine between the op's step and the LU step
    predictions: dict[str, str] = field(default_factory=dict)

    def argv(self, cases: Path, seed: int, out: Path, smoke: bool = False) -> list[str]:
        words = self.smoke if smoke else self.command
        return [w.format(cases=cases) for w in words] + ["--seed", str(seed), "--out", str(out)]

    def case_path(self, cases: Path) -> Path:
        return Path(self.command[1].format(cases=cases))

    def option(self, flag: str, smoke: bool = False) -> str:
        words = self.smoke if smoke else self.command
        return words[words.index(flag) + 1]


_QSIM = "qsim.block_unitaries.s, qsim.qpe.s, qsim.eigenvalue_inversion.s, hhl.inverse_qpe.s"
_SHADOWS = "shadows.collect_shadows.s, shadows.reconstruct_real_state.s, kernels.sample_snapshots.s"
_VARIATIONAL = "variational.gradient.s, variational.vqls_solve.s"
_LCU = "lcu.pauli_decompose.s, kernels.pauli_coefficients.s"
_CLASSICAL = "grid.jacobian.s, grid.residual.s, newton.lu_solve.s"

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="hhl_case5",
            why="One QPF-HHL Newton step on case5 with exact readout, 8 clock bits: qsim block build is ~90% of an op; shadows and variational code do no work",
            stresses="qsim.block_unitaries.s",
            command=(
                "solve", "{cases}/case5.json", "--method", "hhl", "--clock-bits", "8", "--trotter-m", "64",
                "--max-iter", "1",
            ),
            smoke=("solve", "{cases}/case5.json", "--method", "hhl", "--clock-bits", "3", "--trotter-m", "2", "--max-iter", "1"),
            # The whole solve (8 such steps to |u - u_LU| = 5e-10) makes 7 s ops whose
            # rescaled medians spread 7-12% across runs; one step spreads less.  Its
            # error against the exact LU step is 0.262 of that step whatever the seed,
            # set by the clock resolution (direction cosine 0.971, length 0.758).
            exits=frozenset({2}),
            oracle="lu_first_step",
            tol=0.3,
            cos_min=0.95,
            predictions={
                _QSIM: "op_s_p50 moves most here",
                _LCU: "op_s_p50 moves by at most their ~2.5% share",
                f"{_SHADOWS}; {_VARIATIONAL}": "no move",
                _CLASSICAL: "no move (under 1% of an op)",
            },
        ),
        Workload(
            name="hhl_shadows_case3",
            why="One QPF-HHL Newton step on case3 read out by 20000-shot shadows: shadow download is ~63% of an op, qsim blocks most of the rest",
            stresses="hhl.download_state.s",
            command=(
                "solve", "{cases}/case3.json", "--method", "hhl", "--downloader", "shadows",
                "--shots", "20000", "--max-iter", "1",
            ),
            smoke=(
                "solve", "{cases}/case3.json", "--method", "hhl", "--downloader", "shadows",
                "--shots", "500", "--clock-bits", "3", "--trotter-m", "2", "--max-iter", "1",
            ),
            # One step against the exact LU step: over 1800 ops its error is
            # 0.23-0.31 of that step, its cosine 0.92-0.97 and its length
            # 0.83-0.92, set by the 6-bit clock.  Whole shadow-read solves are not
            # used: at 20000 shots some seeds take a backwards or near-orthogonal step
            # after the first (CLI seeds 2004 and 6003 still miss tol 1e-8 after 20
            # steps), so their iteration count, and an op's work, depends on the seed.
            exits=frozenset({2}),
            oracle="lu_first_step",
            tol=0.4,
            cos_min=0.85,
            predictions={
                _SHADOWS: "op_s_p50 moves only here",
                _QSIM: "op_s_p50 moves here by about a third of its hhl_case5 move",
                f"{_VARIATIONAL}; {_LCU}": "no move",
            },
        ),
        Workload(
            name="vqls_case3",
            why="One cold 150-step QPF-VQLS inner solve on case3: variational.gradient is ~97% of an op; qsim, lcu and shadows do no work",
            stresses="variational.gradient.s",
            command=("solve", "{cases}/case3.json", "--method", "vqls", "--max-iter", "1", "--max-steps", "150"),
            smoke=("solve", "{cases}/case3.json", "--method", "vqls", "--max-iter", "1", "--max-steps", "3"),
            # One Newton step against the exact LU step: after 150 descent steps its
            # error is 0.13-0.57 of that step over 400 ops, its cosine 0.74-0.97 and
            # its length 0.76-0.86.  A step from a broken gradient points elsewhere.
            exits=frozenset({2}),
            oracle="lu_first_step",
            tol=0.7,
            cos_min=0.6,
            predictions={
                _VARIATIONAL: "op_s_p50 moves only here",
                f"{_QSIM}; {_LCU}; {_SHADOWS}": "no move",
            },
        ),
        Workload(
            name="lcu_ensemble_case14",
            why="Pauli decomposition of 12 harvested 64x64 case14 dilations: kernels.pauli_coefficients is ~87% of an op; no quantum simulation",
            stresses="kernels.pauli_coefficients.s",
            command=("lcu", "{cases}/case14.json", "--stats", "--count", "12"),
            smoke=("lcu", "{cases}/case14.json", "--stats", "--count", "3"),
            exits=frozenset({0}),
            oracle="lcu_counts",
            tol=1e-10,
            predictions={
                _LCU: "op_s_p50 moves most here",
                "fixtures.harvest_jacobian_dilations.s": "op_s_p50 moves by at most its ~5% share",
                f"{_QSIM}; {_SHADOWS}; {_VARIATIONAL}": "no move",
            },
        ),
    ]
}


# a step's length as a share of the LU step's; every workload's steps are 0.76-0.92 of it
STEP_LENGTH = (0.6, 1.25)


def op_seed(run_seed: int, k: int) -> int:
    """CLI seed of the k-th op of a run: every op of every run sees fresh inputs."""
    return run_seed * 1000 + k


class Oracle:
    """Reference answers computed outside the timed region.

    ``check`` returns (ok, error, note): the op's exit code must be one the
    workload allows, and its output must match the reference within the
    workload's tolerance.  ``error`` is relative to the reference's largest
    entry, and None when there is nothing to measure.

    A Newton step is checked by its error against the exact LU step, as a
    share of that step, and by its cosine with the LU step: an op that
    returns the start point, a short step or a step in a wrong direction
    fails, and so does one whose length is off.  A cosine the CLI reports in ``trace.direction_cosine`` must
    agree with the oracle's.
    """

    def __init__(self, workload: Workload, cases: Path):
        from qpflow.grid import build_quadratic_forms, flat_start, jacobian, parse_case, residual
        from qpflow.newton import lu_solve

        self.workload = workload
        self.case = parse_case(workload.case_path(cases).read_bytes())
        self.round_trip_done = False
        if workload.oracle == "lu_first_step":
            problem = build_quadratic_forms(self.case)
            self.u0 = flat_start(problem.n_bus)
            self.step_ref = lu_solve(jacobian(problem, self.u0), -residual(problem, self.u0))

    def check(self, code: int, out: Path, seed: int, smoke: bool = False) -> tuple[bool, float | None, str]:
        if code not in self.workload.exits and not (smoke and code in (0, 2)):
            return False, None, f"exit code {code}"
        payload = json.loads(out.read_text())
        if self.workload.oracle == "lu_first_step":
            return self._check_step(payload, smoke)
        return self._check_lcu(payload, seed, smoke)

    def _check_step(self, payload: dict, smoke: bool) -> tuple[bool, float | None, str]:
        step = np.asarray(payload["solution"], dtype=float) - self.u0
        ref = self.step_ref
        error = float(np.max(np.abs(step - ref)) / np.max(np.abs(ref)))
        denom = float(np.linalg.norm(step) * np.linalg.norm(ref))
        cosine = float(step @ ref) / denom if denom > 0 else 0.0
        reported = payload.get("trace", {}).get("direction_cosine", [])
        if reported and abs(reported[0] - cosine) > 1e-6:
            return False, error, f"reported direction cosine {reported[0]} is not the step's {cosine}"
        if smoke:
            return True, error, ""
        if cosine < self.workload.cos_min:
            return False, error, f"direction cosine {cosine:.4f} < {self.workload.cos_min}"
        length = float(np.linalg.norm(step) / np.linalg.norm(ref))
        if not STEP_LENGTH[0] <= length <= STEP_LENGTH[1]:
            return False, error, f"step is {length:.3f} times the LU step's length"
        return error <= self.workload.tol, error, ""

    def _check_lcu(self, payload: dict, seed: int, smoke: bool) -> tuple[bool, float | None, str]:
        from qpflow.fixtures import harvest_jacobian_dilations
        from qpflow.lcu import pauli_decompose, reconstruct

        count = int(self.workload.option("--count", smoke))
        if len(payload["counts"]) != count:
            return False, None, f"{len(payload['counts'])} term counts for {count} matrices"
        mats = harvest_jacobian_dilations(self.case, count=count, seed=seed)
        expected = [int(np.sum(np.abs(reference_pauli_coefficients(m)) > 1e-12)) for m in mats]
        if payload["counts"] != expected:
            return False, None, "term counts differ from the reference transform"
        if abs(payload["mean"] - float(np.mean(expected))) > 1e-9:
            return False, None, "mean term count is wrong"
        if self.round_trip_done:  # reconstruct takes ~0.2 s, so one seeded matrix per run
            return True, None, ""
        self.round_trip_done = True
        sample = mats[np.random.default_rng(seed).integers(len(mats))]
        error = float(np.max(np.abs(reconstruct(pauli_decompose(sample)) - sample)) / np.max(np.abs(sample)))
        return error <= self.workload.tol, error, ""
