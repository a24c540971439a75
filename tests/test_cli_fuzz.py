"""Fuzzed CLI inputs: every case file, config file and flag value ends in
exit 0, 1 or 2, never a traceback, and an input error says so on stderr.

Only fast paths run: Newton solves of a few steps, the LCU of one
Jacobian, closed-form resources and QRAM budgets.  The examples are
derandomized so that the suite is reproducible; raise ``max_examples``
or drop ``derandomize`` to search further.
"""

import contextlib
import copy
import functools
import io
import json
import operator
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpflow.cli import main

CASE3 = str(resources.files("qpflow.cases").joinpath("case3.json"))
with open(CASE3) as _fh:
    CASE3_RAW = json.load(_fh)

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# any JSON document; json reads and writes NaN and the infinities too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
# a flag value as a shell passes it: numbers of any size and sign, and junk
FLAG_TEXT = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "-0", "0x10", "1_000", " 3", "x"]),
    st.text(max_size=6),
)


def bounded(high):
    """Flag text that is junk or an integer of at most ``high``: the work a run does stays small."""
    return st.integers(-3, high).map(str) | FLAG_TEXT.filter(lambda t: not t.strip().lstrip("+-").isdigit())


# every key and list slot of case3, plus its absent optional fields
CASE_PATHS = [(key,) for key in CASE3_RAW]
for _group, _extra in (("buses", "theta_set"), ("branches", "b_sh")):
    for _i, _entry in enumerate(CASE3_RAW[_group]):
        CASE_PATHS += [(_group, _i)] + [(_group, _i, key) for key in (*_entry, _extra)]
CASE_VALUES = JSON_VALUES | st.sampled_from(["slack", "pv", "pq", 1, 2, 3, 0, 0.0, -1e-300, 1e300])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_clean_exit(argv, work):
    """Run the CLI in-process: it returns 0, 1 or 2 and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(work / "out")])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


def write_json(work, name, doc):
    path = work / name
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(CASE_PATHS), CASE_VALUES, st.booleans()), min_size=1, max_size=3))
def test_fuzzed_case_fields(edits, work):
    raw = copy.deepcopy(CASE3_RAW)
    for path, value, drop in edits:
        try:
            parent = functools.reduce(operator.getitem, path[:-1], raw)
            if drop and isinstance(parent, dict):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced this field's container
    case = write_json(work, "case.json", raw)
    assert_clean_exit(["solve", case, "--method", "newton", "--max-iter", "3"], work)
    assert_clean_exit(["lcu", case, "--iterate", "1"], work)
    assert_clean_exit(["diagnostics", case], work)


@FUZZ
@given(doc=JSON_VALUES)
def test_fuzzed_case_documents(doc, work):
    case = write_json(work, "case.json", doc)
    assert_clean_exit(["solve", case, "--method", "newton", "--max-iter", "2"], work)


SOLVE_KEYS = ("tol", "downloader", "shots", "clock_bits", "trotter_m", "layers", "max_steps", "inner_tol", "seed", "eta")
# method and max_iter choose how much work a solve does: keep them on the Newton path
SOLVE_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        **{key: JSON_VALUES for key in SOLVE_KEYS},
        "method": JSON_VALUES.filter(lambda v: v not in ("hhl", "vqls", "vqpf")),
        "max_iter": JSON_VALUES.filter(lambda v: not isinstance(v, int) or v <= 6),
    },
)


@FUZZ
@given(cfg=SOLVE_CONFIG | JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
def test_fuzzed_solve_config(cfg, work):
    assert_clean_exit(["solve", CASE3, "--config", write_json(work, "cfg.json", cfg)], work)


@FUZZ
@given(
    cfg=st.fixed_dictionaries(
        {},
        optional={
            "drop_tol": JSON_VALUES,
            "count": JSON_VALUES.filter(lambda v: not isinstance(v, int) or v <= 3),
            "seed": JSON_VALUES,
        },
    ),
    stats=st.booleans(),
)
def test_fuzzed_lcu_config(cfg, stats, work):
    argv = ["lcu", CASE3, "--config", write_json(work, "cfg.json", cfg)]
    assert_clean_exit(argv + (["--stats"] if stats else []), work)


@FUZZ
@given(max_iter=bounded(6), tol=FLAG_TEXT, seed=FLAG_TEXT, downloader=FLAG_TEXT | st.just("shadows"), shots=FLAG_TEXT)
def test_fuzzed_solve_flags(max_iter, tol, seed, downloader, shots, work):
    argv = ["solve", CASE3, "--method", "newton", f"--max-iter={max_iter}", f"--tol={tol}", f"--seed={seed}"]
    assert_clean_exit(argv + [f"--downloader={downloader}", f"--shots={shots}"], work)


@FUZZ
@given(n=bounded(40), l=FLAG_TEXT, trotter_m=FLAG_TEXT, clock_bits=bounded(40))
def test_fuzzed_resources_flags(n, l, trotter_m, clock_bits, work):
    argv = ["resources", f"--n={n}", f"--l={l}", f"--trotter-m={trotter_m}", f"--clock-bits={clock_bits}"]
    assert_clean_exit(argv, work)


@FUZZ
@given(
    budget=st.sampled_from(["--epsilon", "--target-infidelity", "--kappa-gamma"]),
    value=FLAG_TEXT,
    n_data=st.none() | FLAG_TEXT,
    hardware=st.dictionaries(st.sampled_from(["--g-d", "--nu", "--c-d"]), FLAG_TEXT, max_size=3),
)
def test_fuzzed_qram_flags(budget, value, n_data, hardware, work):
    argv = ["qram", f"{budget}={value}"] + [f"{flag}={v}" for flag, v in hardware.items()]
    assert_clean_exit(argv + ([] if n_data is None else [f"--n-data={n_data}"]), work)

