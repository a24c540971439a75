import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from qpflow.cli import DESK_BUDGET_LOG2, desk_ceilings, main
from qpflow.fixtures import FIXTURE_NAMES, load_fixture
from qpflow.grid import SolverError, flat_start, jacobian, residual
from qpflow.newton import lu_solve

CASE3 = str(resources.files("qpflow.cases").joinpath("case3.json"))
CASE14 = str(resources.files("qpflow.cases").joinpath("case14.json"))


def run_cli(args):
    return main(args)


# one malformed field each, applied to a copy of case3
BAD_CASE_FIELDS = {
    "v_set-string": lambda c: c["buses"][0].update(v_set="1.0"),
    "p_load-string": lambda c: c["buses"][2].update(p_load="0.1"),
    "r-list": lambda c: c["branches"][0].update(r=[0.01]),
    "from-list": lambda c: c["branches"][0].update({"from": [1]}),
    "buses-of-ints": lambda c: c.update(buses=[1]),
    "buses-object": lambda c: c.update(buses={"a": 1}),
    "slack-v_set-square-overflows": lambda c: c["buses"][0].update(v_set=1e300),
    "pv-v_set-square-overflows": lambda c: c["buses"][1].update(v_set=1e300),
}

# CLI inputs that once ended in an uncaught exception or a silent success;
# each names the file to write (or None) and the command that reads it as {}
BAD_INPUTS = {
    "config-max-iter-null": ("cfg.json", {"max_iter": None}, ["solve", CASE3, "--config", "{}"]),
    "config-max-iter-list": ("cfg.json", {"max_iter": [1]}, ["solve", CASE3, "--config", "{}"]),
    "sweep-n-scalar": ("sweep.json", {"n": 5, "l": [1]}, ["resources", "--sweep", "{}"]),
    "sweep-n-string": ("sweep.json", {"n": ["a"], "l": [1]}, ["resources", "--sweep", "{}"]),
    "sweep-not-object": ("sweep.json", [1], ["resources", "--sweep", "{}"]),
    "vqls-negative-layers": (
        None,
        None,
        ["solve", CASE3, "--method", "vqls", "--layers", "-1", "--max-iter", "1", "--max-steps", "2"],
    ),
    "lcu-truncate-zero": ("m.json", np.eye(2).tolist(), ["lcu", "--matrix", "{}", "--truncate", "0"]),
    "unknown-flag": (None, None, ["solve", CASE3, "--bogus"]),
    "max-iter-not-int": (None, None, ["solve", CASE3, "--max-iter", "x"]),
    "config-downloader-misspelt": ("cfg.json", {"downloader": "shadow"}, ["solve", CASE3, "--config", "{}"]),
    "config-unknown-key": ("cfg.json", {"max_itr": 1}, ["solve", CASE3, "--config", "{}"]),
    "config-seed-key": ("cfg.json", {"seed": 5}, ["solve", CASE3, "--config", "{}"]),
    "eta-flag-removed": (None, None, ["solve", CASE3, "--method", "vqls", "--eta", "1.0"]),
    "qram-n-data-zero": (None, None, ["qram", "--kappa-gamma", "1", "--n-data", "0"]),
    "qram-n-data-beyond-float": (None, None, ["qram", "--epsilon", "1e-3", "--n-data", str(10**400)]),
    "qram-n-data-beyond-float-target": (None, None, ["qram", "--target-infidelity", "1e-4", "--n-data", str(10**400)]),
    "qram-n-data-with-kappa-gamma": (None, None, ["qram", "--kappa-gamma", "1", "--n-data", "5"]),
    "qram-nu-with-epsilon": (None, None, ["qram", "--epsilon", "1e-3", "--n-data", "4", "--nu", "5"]),
    "qram-c-d-with-target-infidelity": (
        None,
        None,
        ["qram", "--target-infidelity", "1e-4", "--n-data", "4", "--c-d", "99"],
    ),
}


class TestSolve:
    def test_newton_case3(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(["solve", CASE3, "--method", "newton", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["residual_norm"] < 1e-8

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_newton_equals_golden(self, name, tmp_path):
        # the goldens are regenerated by the same Newton step the CLI runs
        out = tmp_path / "run.json"
        case = str(resources.files("qpflow.cases").joinpath(f"{name}.json"))
        assert run_cli(["solve", case, "--method", "newton", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        golden = load_fixture(name)[1]
        assert payload["solution"] == golden["solution"]
        assert payload["iterations"] == golden["iterations"]
        for key in ("residuals", "step_norms", "kappas", "sparsities"):
            assert payload["trace"][key] == golden["trace"][key], key

    def test_hhl_matches_newton(self, tmp_path):
        newton_out = tmp_path / "newton.json"
        hhl_out = tmp_path / "hhl.json"
        assert run_cli(["solve", CASE3, "--method", "newton", "--out", str(newton_out)]) == 0
        code = run_cli(
            [
                "solve",
                CASE3,
                "--method",
                "hhl",
                "--clock-bits",
                "8",
                "--trotter-m",
                "64",
                "--out",
                str(hhl_out),
            ]
        )
        assert code == 0
        u_n = np.array(json.loads(newton_out.read_text())["solution"])
        u_h = np.array(json.loads(hhl_out.read_text())["solution"])
        assert np.max(np.abs(u_n - u_h)) < 1e-4

    def test_missing_file(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = run_cli(["solve", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        code = run_cli(["solve", CASE14, "--max-iter", "1", "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [["solve", CASE3], ["diagnostics", CASE3], ["lcu", CASE3, "--iterate", "2"]],
        ids=["solve", "diagnostics", "lcu-iterate"],
    )
    def test_non_finite_iterate_exit_code(self, args, tmp_path, monkeypatch, capsys):
        # a step that leaves the finite numbers is a numerical failure, not an input error
        import qpflow.newton

        monkeypatch.setattr(qpflow.newton, "lu_solve", lambda a, b: np.full(b.shape, np.nan))
        out = tmp_path / "x.out"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert "error: Newton iterate is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_shot_noise_failure_exit_code(self, tmp_path, capsys):
        # 5 shots cannot fix a support: a numerical failure; 0 shots is an input error
        out = tmp_path / "x.json"
        args = ["solve", CASE3, "--method", "hhl", "--downloader", "shadows", "--max-iter", "1", "--seed", "0"]
        assert run_cli(args + ["--shots", "5", "--out", str(out)]) == 2
        assert "error: support estimate is empty" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(args + ["--shots", "0", "--out", str(out)]) == 1
        assert "error: count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", BAD_CASE_FIELDS.values(), ids=BAD_CASE_FIELDS.keys())
    def test_bad_case_field_type_is_input_error(self, edit, tmp_path, capsys):
        with open(CASE3) as fh:
            raw = json.load(fh)
        edit(raw)
        case = tmp_path / "bad.json"
        case.write_text(json.dumps(raw))
        assert run_cli(["solve", str(case), "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_cli_input_is_input_error(self, bad, tmp_path, capsys):
        name, content, args = bad
        if name is not None:
            path = tmp_path / name
            path.write_text(json.dumps(content))
            args = [arg.format(path) for arg in args]
        out = tmp_path / "x.out"
        assert run_cli(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, which, extra",
        [("--clock-bits", 0, []), ("--shots", 1, ["--downloader", "shadows"])],
        ids=["clock-bits", "shots"],
    )
    def test_desk_ceiling(self, flag, which, extra, tmp_path, monkeypatch, capsys):
        # the ceiling itself reaches the solver, one above it is an input error;
        # the solver is a stub, so neither value allocates anything
        reached = []

        def stub(*args):
            reached.append(args)
            raise SolverError("stub solver")

        monkeypatch.setattr("qpflow.cli.qpf_hhl", stub)
        ceiling = desk_ceilings(4)[which]  # case3's dilated Jacobian has 4 qubits
        args = ["solve", CASE3, "--method", "hhl", *extra, "--out", str(tmp_path / "x.json")]
        assert run_cli(args + [flag, str(ceiling)]) == 2
        assert len(reached) == 1
        assert run_cli(args + [flag, str(ceiling + 1)]) == 1
        assert len(reached) == 1
        assert f"exceeds this case's ceiling of {ceiling}," in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(1, 9))
    def test_desk_ceilings_fit_budget(self, n):
        # each ceiling is the largest value whose largest array fits the budget
        budget = 1 << DESK_BUDGET_LOG2
        clock_bits, shots = desk_ceilings(n)
        assert 16 * 2 ** (clock_bits + n + 1) <= budget < 16 * 2 ** (clock_bits + n + 2)
        assert shots * (n + 16) <= budget < (shots + 1) * (n + 16)

    def test_unknown_config_keys_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "max_itr": 1, "eta": -3, "tol": 1e-6}))
        assert run_cli(["solve", CASE3, "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solve reads no config key 'eta', 'max_itr', 'seed';")

    @pytest.mark.parametrize("seed", [2012, 185, 7149])
    def test_vqls_cold_step_follows_lu_step(self, seed, problem3, tmp_path):
        # one cold inner solve capped at 150 steps, as in the vqls_case3 benchmark op;
        # a fixed-step descent stalled at these CLI seeds (cosines 0.24, 0.45, 0.43)
        out = tmp_path / "vqls.json"
        args = ["solve", CASE3, "--method", "vqls", "--max-iter", "1", "--max-steps", "150", "--seed", str(seed)]
        assert run_cli(args + ["--out", str(out)]) == 2
        u0 = flat_start(problem3.n_bus)
        ref = lu_solve(jacobian(problem3, u0), -residual(problem3, u0))
        step = np.array(json.loads(out.read_text())["solution"]) - u0
        assert step @ ref / (np.linalg.norm(step) * np.linalg.norm(ref)) >= 0.95

    def test_shadow_sign_tie_step_follows_lu_step(self, problem3, tmp_path):
        # at this seed one sign edge's dyadic estimates cancel to exactly 0.0;
        # that index leaves the support instead of failing the whole step
        out = tmp_path / "shadows.json"
        args = ["solve", CASE3, "--method", "hhl", "--downloader", "shadows", "--shots", "20000"]
        assert run_cli(args + ["--max-iter", "1", "--seed", "2249", "--out", str(out)]) == 2
        payload = json.loads(out.read_text())
        u0 = flat_start(problem3.n_bus)
        ref = lu_solve(jacobian(problem3, u0), -residual(problem3, u0))
        step = np.array(payload["solution"]) - u0
        assert step @ ref / (np.linalg.norm(step) * np.linalg.norm(ref)) >= 0.9
        assert np.max(np.abs(step - ref)) <= 0.4 * np.max(np.abs(ref))
        assert len(payload["trace"]["forcing_term"]) == 1

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", CASE3, "--method", "newton", "--seed", "5"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "newton", "max_iter": 1}))
        out = tmp_path / "out.json"
        # flag overrides the config's max_iter, so the run converges
        code = run_cli(["solve", CASE3, "--config", str(cfg), "--max-iter", "20", "--out", str(out)])
        assert code == 0

    def test_qpf_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPF_SEED", "7")
        out = tmp_path / "env.json"
        assert run_cli(["solve", CASE3, "--method", "newton", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_vqls_method(self, tmp_path):
        out = tmp_path / "vqls.json"
        code = run_cli(
            [
                "solve", CASE3, "--method", "vqls", "--max-iter", "6", "--tol", "1e-2",
                "--max-steps", "300", "--layers", "4", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["residual_norm"] < 1e-2
        assert "inner_loss" in payload["trace"]

    def test_vqpf_method(self, tmp_path):
        case2 = tmp_path / "case2.json"
        case2.write_text(
            json.dumps(
                {
                    "base_mva": 100.0,
                    "buses": [
                        {"id": 1, "kind": "slack", "v_set": 1.0},
                        {"id": 2, "kind": "pq", "p_load": 0.3, "q_load": 0.1},
                    ],
                    "branches": [{"from": 1, "to": 2, "r": 0.03, "x": 0.12, "b_sh": 0.02}],
                }
            )
        )
        out = tmp_path / "vqpf.json"
        code = run_cli(
            ["solve", str(case2), "--method", "vqpf", "--max-steps", "3000", "--tol", "1e-4", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["residual_norm"] < 1e-4
        assert payload["scale_c"] > 0


class TestLcu:
    def test_identity_matrix_single_term(self, tmp_path):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps(np.eye(4).tolist()))
        out = tmp_path / "terms.json"
        assert run_cli(["lcu", "--matrix", str(mat), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["term_count"] == 1
        assert payload["terms"][0][0] == "II"

    def test_truncate_exact_count(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli(["lcu", CASE3, "--iterate", "0", "--truncate", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["term_count"] == 5

    def test_negative_iterate_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli(["lcu", CASE3, "--iterate", "-1", "--out", str(out)]) == 1
        assert "--iterate" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_schema(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run_cli(["lcu", CASE14, "--stats", "--count", "12", "--seed", "0", "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert set(stats) == {"counts", "mean", "std", "hist"}
        assert len(stats["counts"]) == 12
        assert stats["mean"] > 0


class TestResources:
    def test_single_point(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli(["resources", "--n", "2", "--l", "4", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert set(rec) == {"single_qubit", "two_qubit", "ctrl_rotation", "depth"}

    def test_invalid_l_without_sweep(self):
        assert run_cli(["resources", "--n", "1", "--l", "5"]) == 1

    def test_sweep_with_flags(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1, 2], "l": [1, 9]}))
        out = tmp_path / "sweep.csv"
        assert run_cli(["resources", "--sweep", str(grid), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,L,M,clock_bits,depth")
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["0", "1", "0", "0"]


class TestQram:
    def test_inversion(self, tmp_path):
        out = tmp_path / "q.json"
        code = run_cli(
            ["qram", "--target-infidelity", "1e-4", "--n-data", "100000", "--out", str(out)]
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["epsilon"] == pytest.approx(1.45e-6, rel=0.01)
        assert rec["note"] == "log base 2"

    def test_hardware_floor(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli(["qram", "--kappa-gamma", "0.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["epsilon"] == pytest.approx(1e-8)

    def test_contradictory_flags(self):
        assert run_cli(["qram", "--epsilon", "1e-6", "--target-infidelity", "1e-4"]) == 1

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["qram", "--epsilon", "2e-6", "--n-data", "4096", "--out", str(a)])
        run_cli(["qram", "--epsilon", "2e-6", "--n-data", "4096", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDiagnostics:
    def test_case14_csv(self, tmp_path):
        out = tmp_path / "diag.csv"
        assert run_cli(["diagnostics", CASE14, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,residual,kappa,sparsity,step_norm"
        assert len(lines) >= 3
        # strict nonzero counts match the topology-fixed pattern from
        # iteration 2 on (the flat start blanks a few entries exactly)
        sparsities = [line.split(",")[3] for line in lines[1:]]
        assert len(set(sparsities[1:])) == 1

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qpflow.cli", "qram", "--epsilon", "1e-6", "--n-data", "16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["infidelity"] == pytest.approx(0.25 * 1e-6 * 16)

    def test_cli_import_leaves_scipy_out(self):
        # numpy is the one run-time dependency; scipy serves the tests only
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qpflow.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
