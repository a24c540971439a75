#!/usr/bin/env python3
"""qpflow benchmark: whole CLI commands run in-process through qpflow.cli.main.

    python3 perfbench/run.py --workload hhl_case5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The load is a closed loop: one client in one process starts the next op
when the previous one ends, with BLAS pinned to one thread.  Op k of a run
passes ``--seed <seed*1000+k>`` to the CLI.  Every op is checked against
its workload's oracle outside the timed region; an op that raises, exits
with a code its workload does not allow, or misses its oracle is counted
in ``failed``.

Op times are wall seconds rescaled to the host's nominal speed by the
reference loop timed between ops (see speed.py); the raw wall times are
in the detail line.  ``--trace 0`` reports the end-to-end metrics of
untraced ops.  ``--trace 1`` alternates an untraced and a traced op on the
same CLI seed and reports per-layer metrics from the traced ones (see
tracer.py), plus the tracing overhead between the two.  The line before
the result holds the details: op times with quartiles, oracle errors,
layer shares, absent layers and the machine's settings.  ``--smoke`` runs
every workload once per mode at reduced size and checks that every metric
BENCHMARK.json names is emitted.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedGauge  # noqa: E402
from tracer import LayerPatch, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Oracle, op_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CASES = SRC / "qpflow" / "cases"
SETUP_REPEATS = 5

# per traced op, from the spans and call counts of tracer.py
SPAN_METRICS = [
    "qsim.block_unitaries.s",
    "qsim.block_unitaries.calls",
    "qsim.qpe.s",
    "qsim.eigenvalue_inversion.s",
    "qsim.measure_ancilla_postselect.s",
    "hhl.inverse_qpe.s",
    "hhl.hhl_solve.s",
    "hhl.hhl_solve.self_s",
    "hhl.hhl_solve.calls",
    "hhl.download_state.s",
    "lcu.pauli_decompose.s",
    "lcu.pauli_decompose.calls",
    "lcu.hermitian_dilation.s",
    "kernels.pauli_coefficients.s",
    "variational.gradient.s",
    "variational.gradient.calls",
    "variational.vqls_solve.s",
    "variational.vqls_solve.calls",
    "variational.ansatz_amplitudes.calls",
    "shadows.collect_shadows.s",
    "shadows.reconstruct_real_state.s",
    "shadows.snapshots_to_arrays.s",
    "kernels.sample_snapshots.s",
    "kernels.ketbra_estimates.s",
    "kernels.ketbra_estimates.calls",
    "grid.jacobian.s",
    "grid.residual.s",
    "grid.condition_number.s",
    "newton.lu_solve.s",
    "fixtures.harvest_jacobian_dilations.s",
    "cli.self_s",
]

# read from the objects the layers return, from the CLI output, or derived
DERIVED_UNITS = {
    "hhl.success_prob_mean": "ratio",
    "hhl.clock_zero_prob_min": "ratio",
    "hhl.fidelity_min": "ratio",
    "hhl.direction_cosine_min": "ratio",
    "lcu.terms_per_decomposition": "count",
    "variational.inner_steps": "count",
    "variational.inner_capped_frac": "ratio",
    "variational.restart_frac": "ratio",
    "shadows.snapshots": "count",
    "newton.iterations": "count",
    "trace.overhead_frac": "ratio",
    "solution.err_max": "ratio",
}

def span_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


def environment() -> dict:
    import numpy
    import scipy
    from qpflow import _kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "using_numba": bool(_kernels.USING_NUMBA),
        "load": "closed loop, 1 client, 1 process",
    }


def measure_setup(workload: str, seed: int, gauge: SpeedGauge) -> tuple[list[float], list[float]]:
    """Wall and rescaled seconds of fresh interpreters that import qpflow and build the first op's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            env=env,
            check=True,
            timeout=60,
        )
        walls.append(time.perf_counter() - start)
        scaled.append(walls[-1] * gauge.after_op())
    return walls, scaled


def build_inputs(workload, seed: int, out: Path) -> None:
    """Parse the first op's command line and case file, as the CLI does before solving."""
    from qpflow import cli
    from qpflow.grid import build_quadratic_forms, parse_case

    cli.build_parser().parse_args(workload.argv(CASES, seed, out))
    build_quadratic_forms(parse_case(workload.case_path(CASES).read_bytes()))


class Runner:
    """Runs, times and checks the ops of one workload."""

    def __init__(self, workload, oracle, work: Path, smoke: bool, gauge: SpeedGauge):
        from qpflow import cli

        self.main = cli.main
        self.workload = workload
        self.oracle = oracle
        self.work = work
        self.smoke = smoke
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.errors: list[float] = []

    def op(self, seed: int, before=None, after=None) -> tuple[float, float, dict]:
        """One op: its wall seconds, its rescaled seconds and, if it finished, its JSON output.

        ``before`` and ``after`` run inside the timed region, around the op.
        """
        out = self.work / f"op-{seed}.json"
        argv = self.workload.argv(CASES, seed, out, smoke=self.smoke)
        self.attempted += 1
        code = None
        start = time.perf_counter()
        if before is not None:
            before()
        try:
            code = self.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            self.notes.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        finally:
            if after is not None:
                after()
        wall = time.perf_counter() - start
        scaled = wall * self.gauge.after_op()
        if code is None:
            self.failed += 1
            return wall, scaled, {}
        ok, error, note = self.oracle.check(code, out, seed, smoke=self.smoke)
        self.errors.append(error)
        payload = json.loads(out.read_text()) if out.exists() else {}
        out.unlink(missing_ok=True)
        if not ok:
            self.failed += 1
            self.notes.append(f"seed {seed}: exit {code}, oracle missed (error {error}) {note}".strip())
        return wall, scaled, payload


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_untraced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    walls: list[float] = []
    scaled: list[float] = []
    while not walls or sum(walls) < seconds:
        wall, rescaled, _ = runner.op(op_seed(seed, len(walls)))
        walls.append(wall)
        scaled.append(rescaled)
    metrics = {
        "op_s_p50": (statistics.median(scaled), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(scaled),
        "op_s": scaled,
        "op_s_quartiles": quartiles(scaled),
        "wall_op_s": walls,
        "wall_op_s_quartiles": quartiles(walls),
        "reference_loop_s": runner.gauge.loops,
    }
    return metrics, detail


def run_traced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    patch = LayerPatch(tracer)
    plain: list[float] = []
    traced: list[float] = []
    factors: dict[int, float] = {}
    cosines: list[float] = []
    root = None

    def begin():
        nonlocal root
        patch.install()
        tracer.op += 1
        root = tracer.begin("cli")

    def finish():
        tracer.end(root)
        patch.uninstall()

    while not traced or sum(plain) + sum(traced) < seconds:
        s = op_seed(seed, len(traced))
        plain.append(runner.op(s)[1])
        wall, rescaled, payload = runner.op(s, before=begin, after=finish)
        traced.append(rescaled)
        factors[tracer.op] = rescaled / wall
        cosines.extend(payload.get("trace", {}).get("direction_cosine", []))

    ops = len(traced)
    spans = layer_metrics(tracer, ops, factors)
    samples = tracer.samples

    def mean(name):
        return statistics.fmean(samples[name]) if samples.get(name) else 0.0

    def least(name):
        return min(samples[name]) if samples.get(name) else 0.0

    iterations = spans.get("grid.jacobian.calls", 0.0)  # one linearisation per Newton iteration
    vqls_calls = spans.get("variational.vqls_solve.calls", 0.0)
    errors = [e for e in runner.errors if e is not None]
    derived = {
        "hhl.success_prob_mean": mean("hhl.success_prob"),
        "hhl.clock_zero_prob_min": least("hhl.clock_zero_prob"),
        "hhl.fidelity_min": least("hhl.fidelity"),
        "hhl.direction_cosine_min": min(cosines) if cosines else 0.0,
        "lcu.terms_per_decomposition": mean("lcu.terms"),
        "variational.inner_steps": sum(samples.get("variational.inner_steps", [])) / ops,
        "variational.inner_capped_frac": mean("variational.inner_capped"),
        "variational.restart_frac": vqls_calls / iterations - 1.0 if vqls_calls and iterations else 0.0,
        "shadows.snapshots": sum(samples.get("shadows.snapshots", [])) / ops,
        "newton.iterations": iterations,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "solution.err_max": max(errors) if errors else 0.0,
    }
    metrics = {name: (spans.get(name, 0.0), span_unit(name)) for name in SPAN_METRICS}
    metrics.update({name: (value, DERIVED_UNITS[name]) for name, value in derived.items()})
    op_time = statistics.fmean(traced)
    detail = {
        "plain_op_s": plain,
        "traced_op_s": traced,
        # each workload's target layer, to show it dominates its own workload only
        "shares_of_traced_op": {w.stresses: spans.get(w.stresses, 0.0) / op_time for w in WORKLOADS.values()},
        "absent_layers": patch.absent,
        "spans_recorded": len(tracer.spans),
    }
    return metrics, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[workload_name]
    gauge = SpeedGauge()
    if not trace:
        wall_setup, setup = measure_setup(workload_name, seed, gauge)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        # warm-up at reduced size: lazy imports and first touches stay out of the timed ops
        Runner(workload, Oracle(workload, CASES), work, True, gauge).op(op_seed(seed, 999))
        runner = Runner(workload, Oracle(workload, CASES), work, smoke, gauge)
        if trace:
            metrics, detail = run_traced(runner, seed, seconds)
        else:
            metrics, detail = run_untraced(runner, seed, seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
            detail["setup_s"] = setup
            detail["wall_setup_s"] = wall_setup
    detail.update(
        workload=workload_name,
        seed=seed,
        trace=int(trace),
        stresses=workload.stresses,
        predictions=workload.predictions,
        oracle_errors=runner.errors,
        failures=runner.notes,
        environment=environment(),
    )
    return {
        "detail": detail,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=0, seconds=0.0, trace=bool(trace), smoke=True)["result"]
            emitted = set(result["metrics"])
            if emitted != wanted[trace]:
                missing, extra = sorted(wanted[trace] - emitted), sorted(emitted - wanted[trace])
                problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}")
            if result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops")
            print(f"smoke {name} trace={trace}: {len(emitted)} metrics, {result['attempted']} ops", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size run of every workload and mode")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qpflow" / "cli.py").is_file():
        print(f"error: no qpflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            build_inputs(WORKLOADS[args.workload], args.seed, Path(tmp) / "out.json")
        return 0
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome["detail"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
