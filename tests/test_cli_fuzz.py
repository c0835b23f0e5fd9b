"""Fuzz of the CLI input boundary: spec strings and JSON state documents.

Every run goes through cli.main in process and must either succeed with
finite output or exit 2/3 with a one-line message; never a traceback.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given
from hypothesis import strategies as st

from relphase.cli import main


def mostly(common, rare):
    """`common` three draws in four, `rare` the fourth: mostly valid, sometimes malformed."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


BAD_TOKENS = ["", "x", "1.5", "1e2", "nan", "-0", " 3", "0x3"]
counts = mostly(st.integers(-2, 12).map(str), st.sampled_from(BAD_TOKENS))
weights = st.one_of(
    st.sampled_from(["1", "0.5j", "-1+2j", "0", "nan", "inf", "1e308", "1e-200", "", "x"]),
    st.complex_numbers(max_magnitude=10).map(str),
)
superposition_terms = st.one_of(
    st.tuples(counts, weights).map(",".join), st.sampled_from(["3", "1,2,3", ""])
)

json_numbers = mostly(st.one_of(st.integers(-3, 3), st.floats(-10, 10)), st.floats())
json_indices = mostly(st.integers(0, 6), st.sampled_from([-1, 7, 1.5, "0", None, True]))
json_rows = mostly(
    st.tuples(json_indices, json_indices, json_numbers, json_numbers).map(list),
    st.lists(st.integers(0, 3), max_size=5),
)
documents = mostly(
    st.fixed_dictionaries({
        "kind": mostly(st.sampled_from(["single", "two"]), st.just("three")),
        "n_max": mostly(st.integers(0, 6), st.sampled_from([-1, 2.0, "3", None])),
        "amps": st.lists(json_rows, max_size=6),
    }).map(json.dumps),
    st.sampled_from(["[]", "null", "{", '"x"', '{"kind": "two", "n_max": 2}', "[" * 100_000,
                     '{"kind": "two", "n_max": 1, "amps": [[0, 0, 1%s, 0]]}' % ("0" * 400)]),
)

single_specs = st.one_of(counts.map("num:{}".format), documents)
pol_specs = st.one_of(
    counts.map("xnum:{}".format),
    st.lists(superposition_terms, min_size=1, max_size=4).map(lambda t: "xsup:" + ";".join(t)),
    documents,
)
grid = mostly(st.integers(1, 64), st.integers(-2, 0))  # below 1: fock's one-line refusal
n_max = st.one_of(st.none(), mostly(st.integers(0, 12), st.integers(-2, -1)))
formats = st.sampled_from(["csv", "json"])


def numbers_in(value):
    """Every number in a decoded JSON value (json.loads reads NaN and Infinity)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from numbers_in(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def run_cli(command, flag, spec, options):
    """(exit code, stderr and warnings, [output texts]) of one in-process run;
    file: specs are written to a temporary file first."""
    with tempfile.TemporaryDirectory() as work:
        if not spec.startswith(("num:", "xnum:", "xsup:")):
            path = os.path.join(work, "state.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec)
            spec = f"file:{path}"
        out = os.path.join(work, "out")
        argv = [command, f"{flag}={spec}", *options, "--out", out]
        if command == "pb":
            argv += ["--report", os.path.join(work, "report")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning is a stderr line of the real CLI
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs = []
        for name in ("out", "report"):
            if os.path.exists(os.path.join(work, name)):
                with open(os.path.join(work, name), encoding="utf-8") as fh:
                    outputs.append(fh.read())
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, err.getvalue() + warned, outputs


def check_run(code, err, outputs, fmt):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n")), err
    if code != 0:
        assert err.startswith("error: ") and outputs == [], (err, outputs)
        return
    assert outputs
    for text in outputs:
        if text.startswith(("{", "[")):
            values = list(numbers_in(json.loads(text)))
        else:
            lines = text.splitlines()
            assert fmt == "csv" and lines[0].replace(",", "").isalpha()
            values = [float(v) for line in lines[1:] for v in line.split(",")]
        assert all(math.isfinite(v) for v in values), text[:200]


@given(
    st.sampled_from(["phase", "pb", "moments"]),
    single_specs,
    grid,
    n_max,
    formats,
    st.lists(st.integers(-1, 40).map(str), min_size=1, max_size=3).map(",".join),
)
def test_single_mode_commands_succeed_or_exit_cleanly(command, spec, k, cut, fmt, s_values):
    if command == "moments":  # JSON only; test_cli checks that csv is a usage error
        fmt = "json"
    options = ["--format", fmt]
    if command == "phase":  # the only single-mode command with an angular grid
        options += ["--k", str(k)]
    if cut is not None:
        options += ["--n-max", str(cut)]
    if command == "pb":
        options.append(f"--s={s_values}")
    check_run(*run_cli(command, "--state", spec, options), fmt)


@given(
    st.sampled_from(["ellipse", "ellipse --db", "sweep", "timepdf"]),
    pol_specs,
    grid,
    st.one_of(st.none(), grid),
    n_max,
    formats,
)
def test_polarization_commands_succeed_or_exit_cleanly(command, spec, k, kt, cut, fmt):
    command, *extra = command.split()
    options = [*extra, "--format", fmt]
    if command != "timepdf":  # each command gets only the grids it reads
        options += ["--k", str(k)]
    if kt is not None and command != "ellipse":
        options += ["--kt", str(kt)]
    if cut is not None:
        options += ["--n-max", str(cut)]
    check_run(*run_cli(command, "--pol", spec, options), fmt)
