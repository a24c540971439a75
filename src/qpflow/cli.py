"""Command-line surface: solve, lcu, resources, qram, diagnostics.

All outputs are machine-readable JSON or CSV; identical command lines with
identical seeds produce byte-identical files.  Exit codes: 0 success,
1 input error, 2 non-convergence or numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .fixtures import harvest_jacobian_dilations
from .grid import CaseError, SolverError, build_quadratic_forms, flat_start, jacobian, parse_case, residual
from .hhl import HHLConfig, ShadowReadout, qpf_hhl
from .lcu import hermitian_dilation, lcu_statistics, pauli_decompose, truncate
from .newton import NewtonConfig, diagnostics_csv, newton_raphson
from .qsim import ordered_terms
from .resources import (
    LOG_BASE_NOTE,
    DepthQuery,
    QramBudget,
    hhl_depth,
    qram_epsilon_for_infidelity,
    qram_epsilon_hardware,
    qram_infidelity,
    sweep,
)
from .variational import Ansatz, OptimizerConfig, qpf_vqls, vqpf_from_power_flow, vqpf_solve

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

# Desk budget for the largest array of one solve, 2**30 bytes (1 GiB); a
# solve holds a few such arrays at its peak.
DESK_BUDGET_LOG2 = 30


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QPF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CaseError(f"QPF_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_config(args, keys: tuple[str, ...]) -> dict:
    """The ``--config`` file's object; a key outside ``keys``, the ones the subcommand reads, is an input error."""
    if getattr(args, "config", None) is None:
        return {}
    with open(args.config, "rb") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CaseError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise CaseError(f"{args.command} reads no config key {names}; it reads {', '.join(keys)}")
    return cfg


def _number(value, kind, where: str):
    """``value`` as ``kind``: an int for int, a finite int or float for float; never a bool."""
    allowed = int if kind is int else (int, float)
    # the magnitude test also rejects NaN and ints beyond the float range
    if isinstance(value, allowed) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return kind(value)
    raise CaseError(f"{where} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")


def _option(args, cfg: dict, name: str, default, kind=None):
    """Flags override config-file values, which override defaults.

    With ``kind`` (int or float) a config-file value is type-checked by _number.
    """
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name not in cfg:
        return default
    return cfg[name] if kind is None else _number(cfg[name], kind, f"config value {name!r}")


def _sweep_range(grid: dict, key: str, default: list | None = None) -> list:
    """Sweep range ``key`` as a list of integers; only clock_bits may hold None (clock = n)."""
    values = grid.get(key, default)
    if not isinstance(values, list):
        raise CaseError(f"sweep range {key!r} must be a list, got {values!r}")
    where = f"sweep range {key!r} entry"
    return [v if v is None and key == "clock_bits" else _number(v, int, where) for v in values]


def desk_ceilings(n: int) -> tuple[int, int]:
    """Largest ``--clock-bits`` and ``--shots`` for a case whose dilated Jacobian has n qubits.

    The QPF-HHL state on c clock qubits, the n system qubits and one
    ancilla takes 16 * 2**(c+n+1) bytes; a shadow snapshot takes n basis
    bytes, an 8-byte outcome and an 8-byte uniform variate.  Each ceiling
    is the largest value whose array fits the desk budget.
    """
    return DESK_BUDGET_LOG2 - 5 - n, (1 << DESK_BUDGET_LOG2) // (n + 16)


def _capped(name: str, value: int, ceiling: int) -> int:
    if value > ceiling:
        budget = f"2**{DESK_BUDGET_LOG2}-byte budget"
        raise CaseError(f"{name} {value} exceeds this case's ceiling of {ceiling}, set by a {budget}")
    return value


def _write_output(args, payload: bytes) -> None:
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _read_case(path: str):
    with open(path, "rb") as fh:
        return parse_case(fh.read())


def _trace_record(trace) -> dict:
    rec = {
        "residuals": trace.residuals,
        "kappas": trace.kappas,
        "sparsities": trace.sparsities,
        "step_norms": trace.step_norms,
    }
    rec.update({k: v for k, v in trace.extras.items() if k != "inner_records"})
    return rec


def cmd_solve(args) -> int:
    cfg = _load_config(
        args,
        ("method", "max_iter", "tol", "downloader", "shots", "clock_bits", "trotter_m", "layers", "max_steps", "inner_tol"),
    )
    seed = _resolve_seed(args)
    case = _read_case(args.case)
    problem = build_quadratic_forms(case)
    method = _option(args, cfg, "method", "newton")
    max_iter = _option(args, cfg, "max_iter", 20, int)
    tol = _option(args, cfg, "tol", 1e-8, float)
    newton_cfg = NewtonConfig(k_max=max_iter, eps0=tol)
    max_clock_bits, max_shots = desk_ceilings((2 * problem.dim - 1).bit_length())

    downloader = _option(args, cfg, "downloader", "exact")
    if downloader not in ("exact", "shadows"):
        raise CaseError(f"config value 'downloader' must be 'exact' or 'shadows', got {downloader!r}")
    if downloader == "shadows":
        shots = _capped("shots", _option(args, cfg, "shots", 100_000, int), max_shots)
        downloader = ShadowReadout(samples=shots, seed=seed)

    if method == "newton":
        u, trace = newton_raphson(problem, newton_cfg)
        metrics = {}
    elif method == "hhl":
        hhl_cfg = HHLConfig(
            clock_bits=_capped("clock_bits", _option(args, cfg, "clock_bits", 6, int), max_clock_bits),
            trotter_m=_option(args, cfg, "trotter_m", 10, int),
        )
        u, trace = qpf_hhl(problem, newton_cfg, hhl_cfg, downloader)
        metrics = {"clock_bits": hhl_cfg.clock_bits, "trotter_m": hhl_cfg.trotter_m}
    elif method == "vqls":
        opt = OptimizerConfig(
            max_steps=_option(args, cfg, "max_steps", 400, int),
            tol=_option(args, cfg, "inner_tol", 2e-4, float),
            seed=seed,
        )
        layers = _option(args, cfg, "layers", 4, int)
        u, trace = qpf_vqls(problem, newton_cfg, layers, opt, downloader)
        metrics = {"layers": layers}
        if args.loss_curve:
            # the single-instance loss trajectory: the first inner solve
            with open(args.loss_curve, "wb") as fh:
                fh.write(trace.extras["inner_records"][0].loss_csv())
    elif method == "vqpf":
        opt = OptimizerConfig(
            max_steps=_option(args, cfg, "max_steps", 5000, int),
            tol=_option(args, cfg, "inner_tol", 1e-12, float),
            seed=seed,
        )
        layers = _option(args, cfg, "layers", 2, int)
        vp = vqpf_from_power_flow(problem)
        a0 = Ansatz.flat_start(vp.n, layers, seed=seed)
        ansatz, u, scale, record = vqpf_solve(vp, a0, opt)
        if args.loss_curve:
            with open(args.loss_curve, "wb") as fh:
                fh.write(record.loss_csv())
        f = residual(problem, u)
        norm = float(np.max(np.abs(f)))
        payload = {
            "method": method,
            "seed": seed,
            "converged": bool(norm < tol),
            "residual_norm": norm,
            "solution": u.tolist(),
            "scale_c": scale,
            "layers": layers,
        }
        _write_output(args, _json_bytes(payload))
        return EXIT_OK if norm < tol else EXIT_NO_CONVERGENCE
    else:
        raise CaseError(f"unknown method {method!r}")

    payload = {
        "method": method,
        "seed": seed,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "residual_norm": trace.residuals[-1] if trace.residuals else 0.0,
        "solution": u.tolist(),
        "trace": _trace_record(trace),
    }
    payload.update(metrics)
    _write_output(args, _json_bytes(payload))
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_lcu(args) -> int:
    cfg = _load_config(args, ("drop_tol", "count"))
    seed = _resolve_seed(args)
    drop_tol = _option(args, cfg, "drop_tol", 1e-12, float)

    if args.matrix:
        with open(args.matrix) as fh:
            mat = np.array(json.load(fh), dtype=float)
        mats = [hermitian_dilation(mat, np.zeros(mat.shape[0]))[0]] if args.dilate else [mat]
    elif args.case:
        case = _read_case(args.case)
        if args.stats:
            count = _option(args, cfg, "count", 102, int)
            mats = harvest_jacobian_dilations(case, count=count, seed=seed)
        else:
            if args.iterate < 0:
                raise CaseError(f"--iterate must be >= 0, got {args.iterate}")
            problem = build_quadratic_forms(case)
            u = flat_start(problem.n_bus)
            if args.iterate:
                # exactly k steps: eps0 = tiny stops only at a zero residual, where a step is zero
                u, _ = newton_raphson(problem, NewtonConfig(k_max=args.iterate, eps0=np.finfo(float).tiny))
            f = residual(problem, u)
            j = jacobian(problem, u)
            mats = [hermitian_dilation(j, -f)[0]]
    else:
        raise CaseError("need a case file or an explicit matrix")

    if args.stats:
        stats = lcu_statistics(mats, drop_tol=drop_tol)
        _write_output(args, _json_bytes(stats))
        return EXIT_OK

    dec = pauli_decompose(mats[0], drop_tol=drop_tol)
    if args.truncate is not None:
        dec = truncate(dec, args.truncate)
    payload = {
        "n": dec.n,
        "term_count": len(dec),
        "terms": [[p.letters, c] for p, c in ordered_terms(dec.terms)],
    }
    _write_output(args, _json_bytes(payload))
    return EXIT_OK


def cmd_resources(args) -> int:
    cfg = _load_config(args, ("n", "l", "trotter_m"))
    if args.sweep:
        with open(args.sweep) as fh:
            grid = json.load(fh)
        if not isinstance(grid, dict):
            raise CaseError("sweep file must hold a JSON object")
        payload = sweep(
            _sweep_range(grid, "n"),
            _sweep_range(grid, "l"),
            _sweep_range(grid, "trotter_m", [10]),
            _sweep_range(grid, "clock_bits", [None]),
        )
        _write_output(args, payload)
        return EXIT_OK
    query = DepthQuery(
        n=_option(args, cfg, "n", 2, int),
        l=_option(args, cfg, "l", 1, int),
        trotter_m=_option(args, cfg, "trotter_m", 10, int),
        clock_bits=args.clock_bits,
    )
    _write_output(args, _json_bytes(hhl_depth(query)))
    return EXIT_OK


def cmd_qram(args) -> int:
    chosen = [x is not None for x in (args.epsilon, args.target_infidelity, args.kappa_gamma)]
    if sum(chosen) != 1:
        raise CaseError("pass exactly one of --epsilon, --target-infidelity, --kappa-gamma")
    if args.n_data is not None and args.n_data < 2:
        raise CaseError(f"--n-data must be >= 2, got {args.n_data}")
    if args.n_data is not None and args.n_data > sys.float_info.max:
        raise CaseError(f"--n-data must be at most {sys.float_info.max:.6g}, the largest float")
    hardware = {key: value for key in ("g_d", "nu", "c_d") if (value := getattr(args, key)) is not None}
    if hardware and args.kappa_gamma is None:
        flags = ", ".join("--" + key.replace("_", "-") for key in hardware)
        raise CaseError(f"the data-size budgets take no {flags}: these hardware constants go with --kappa-gamma")
    payload: dict = {"note": LOG_BASE_NOTE}
    if args.epsilon is not None:
        if args.n_data is None:
            raise CaseError("--epsilon needs --n-data")
        payload.update(
            n_data=args.n_data,
            epsilon=args.epsilon,
            infidelity=qram_infidelity(args.epsilon, args.n_data),
        )
    elif args.target_infidelity is not None:
        if args.n_data is None:
            raise CaseError("--target-infidelity needs --n-data")
        payload.update(
            n_data=args.n_data,
            target_infidelity=args.target_infidelity,
            epsilon=qram_epsilon_for_infidelity(args.target_infidelity, args.n_data),
        )
    else:
        if args.n_data is not None:
            raise CaseError("--kappa-gamma takes no --n-data: the hardware floor does not depend on the data size")
        budget = QramBudget(kappa_gamma=args.kappa_gamma, **hardware)
        payload.update(
            kappa_gamma=budget.kappa_gamma,
            g_d=budget.g_d,
            nu=budget.nu,
            c_d=budget.c_d,
            epsilon=qram_epsilon_hardware(budget),
        )
    _write_output(args, _json_bytes(payload))
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    case = _read_case(args.case)
    problem = build_quadratic_forms(case)
    u, trace = newton_raphson(problem)
    _write_output(args, diagnostics_csv(trace))
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: main reports it and exits 1, not argparse's 2."""

    def error(self, message):
        raise CaseError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qpflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a power-flow solve")
    solve.add_argument("case")
    solve.add_argument("--method", choices=("newton", "hhl", "vqls", "vqpf"))
    solve.add_argument("--max-iter", dest="max_iter", type=int)
    solve.add_argument("--tol", type=float)
    # n, the qubits of a case's dilated Jacobian, is 4, 5 and 6 on case3, case5 and case14
    budget = f"2**{DESK_BUDGET_LOG2} bytes for a case whose dilated Jacobian has n qubits"
    solve.add_argument(
        "--clock-bits",
        dest="clock_bits",
        type=int,
        help=f"HHL clock qubits c, at most {desk_ceilings(0)[0]} - n ({desk_ceilings(4)[0]} on case3):"
        f" the 16*2**(c+n+1)-byte state fits {budget}",
    )
    solve.add_argument("--trotter-m", dest="trotter_m", type=int)
    solve.add_argument("--layers", type=int)
    solve.add_argument("--max-steps", dest="max_steps", type=int)
    solve.add_argument("--downloader", choices=("exact", "shadows"))
    solve.add_argument(
        "--shots",
        type=int,
        help=f"shadow snapshots S, at most 2**{DESK_BUDGET_LOG2} // (n + 16) ({desk_ceilings(4)[1]} on case3):"
        f" the snapshots' (n + 16)*S bytes fit {budget}",
    )
    solve.add_argument("--seed", type=int)
    solve.add_argument("--config")
    solve.add_argument("--out")
    solve.add_argument("--loss-curve", dest="loss_curve", help="write the variational loss curve CSV here")
    solve.set_defaults(func=cmd_solve)

    lcu = sub.add_parser("lcu", help="Pauli-decompose power-flow matrices")
    lcu.add_argument("case", nargs="?")
    lcu.add_argument("--matrix", help="JSON file holding a dense matrix")
    lcu.add_argument("--dilate", action="store_true", help="dilate the matrix before decomposing")
    lcu.add_argument("--iterate", type=int, default=0, help="Newton iterate whose Jacobian to decompose")
    lcu.add_argument("--truncate", type=int)
    lcu.add_argument("--stats", action="store_true", help="ensemble statistics over harvested Jacobians")
    lcu.add_argument("--count", type=int)
    lcu.add_argument("--seed", type=int)
    lcu.add_argument("--config")
    lcu.add_argument("--out")
    lcu.set_defaults(func=cmd_lcu)

    res = sub.add_parser("resources", help="gate-depth estimates")
    res.add_argument("--n", type=int)
    res.add_argument("--l", type=int)
    res.add_argument("--trotter-m", dest="trotter_m", type=int)
    res.add_argument("--clock-bits", dest="clock_bits", type=int)
    res.add_argument("--sweep", help="JSON file with n/l/trotter_m/clock_bits ranges")
    res.add_argument("--config")
    res.add_argument("--out")
    res.set_defaults(func=cmd_resources)

    qram = sub.add_parser("qram", help="QRAM error budgets")
    qram.add_argument("--n-data", dest="n_data", type=int)
    qram.add_argument("--epsilon", type=float)
    qram.add_argument("--target-infidelity", dest="target_infidelity", type=float)
    qram.add_argument("--kappa-gamma", dest="kappa_gamma", type=float)
    qram.add_argument("--g-d", dest="g_d", type=float)
    qram.add_argument("--nu", type=float)
    qram.add_argument("--c-d", dest="c_d", type=float)
    qram.add_argument("--out")
    qram.set_defaults(func=cmd_qram)

    diag = sub.add_parser("diagnostics", help="per-iteration sparsity and condition number")
    diag.add_argument("case")
    diag.add_argument("--out")
    diag.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CaseError, FileNotFoundError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SolverError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
