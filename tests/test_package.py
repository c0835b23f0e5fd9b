"""Import-time behaviour of the package, each check in a fresh interpreter."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's public names; each must resolve both ways
EXPORTS = """
AliasingError RelphaseError SupportError TruncationError
PrimitiveConvention SingleModeState TwoModeState jm_labels make_coherent_state
make_number_state single_to_two_mode state_from_json state_to_json
heterodyne_moments y_moments
kolmogorov_distance pb_pmf phase_cdf
angular_grid phase_pdf phase_wavefunction
LinearPolSpec XCoherent XNumber XSuperposition db_view to_circular
absolute_time_pdf branch_wavefunctions conditioning_probability marginal_pdf
snapshot_sweep
apply_jminus apply_jplus apply_jz commutator_residuals rotate_z
""".split()


def child_env(**env) -> dict:
    """The environment of a new interpreter that sees src/ first, with the
    variables the CLI and the stream buffering read taken out (then env added)."""
    drop = ("OPENBLAS_THREAD_TIMEOUT", "PYTHONUNBUFFERED")
    environ = {k: v for k, v in os.environ.items() if k not in drop}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ.update(env, PYTHONPATH=path)
    return environ


def fresh(code: str, **env) -> str:
    """stdout of `python -c code` in a new interpreter that sees src/ first."""
    done = subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def cli_child(*argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python -m relphase.cli argv` in a new interpreter: the run() entry."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "relphase.cli", *argv], env=child_env(**(env or {})),
                          text=True, timeout=60, **kwargs)


def test_import_loads_no_numpy():
    assert fresh("import sys, relphase; print('numpy' in sys.modules)") == "False"


def test_every_export_resolves_by_star_import_and_attribute():
    code = (
        "import relphase\n"
        "from relphase import *\n"
        f"names = {EXPORTS!r}\n"
        "assert sorted(relphase.__all__) == sorted(names), set(relphase.__all__) ^ set(names)\n"
        "assert set(names) <= set(dir(relphase))\n"
        "for n in names:\n"
        "    assert globals()[n] is getattr(relphase, n), n\n"
        "print(len(names))\n"
    )
    assert fresh(code) == str(len(EXPORTS))


def layout_rows() -> dict[str, str]:
    """{module: contents} of the rows of README's "Library layout" table."""
    section = (SRC.parent / "README.md").read_text(encoding="utf-8").split("## Library layout")[1]
    rows = re.findall(r"^\| `(relphase\.\w+)` \| (.*) \|$", section.split("\n## ")[0], re.MULTILINE)
    assert len(rows) >= 9, "no layout table found"
    return dict(rows)


def test_readme_layout_names_resolve_on_their_module():
    """Every backticked `name(` in a row of README's "Library layout" table is an
    attribute of the module that the row names."""
    calls = [(module, name) for module, text in layout_rows().items()
             for name in re.findall(r"`(\w+)\(", text)]
    assert calls, "no call named in the layout table"
    code = (
        "import importlib\n"
        f"calls = {calls!r}\n"
        "print([c for c in calls if not hasattr(importlib.import_module(c[0]), c[1])])\n"
    )
    assert fresh(code) == "[]"


def test_every_export_is_named_in_its_modules_layout_row():
    """The converse: each name in relphase.__all__ appears backticked (`name`, `name(` or
    `name.`) in the layout row of the module that defines it."""
    rows = layout_rows()
    # the package's own map, since an alias such as LinearPolSpec has typing's __module__
    modules = json.loads(fresh("import json, relphase; print(json.dumps(relphase._MODULE_OF))"))
    assert sorted(modules) == sorted(EXPORTS)
    missing = [n for n, m in modules.items() if not re.search(rf"`{n}\b", rows.get(f"relphase.{m}", ""))]
    assert missing == []


def test_only_jm_labels_and_commutator_residuals_take_a_convention():
    """A two-mode state carries its convention, so no public function over a state
    asks for one: of the package's exports and the public functions of pom and
    schwinger, only the two that take no state have a convention parameter."""
    code = (
        "import inspect, relphase\n"
        "from relphase import pom, schwinger\n"
        "fns = [getattr(relphase, n) for n in relphase.__all__]\n"
        "fns += [f for m in (pom, schwinger) for n, f in vars(m).items()\n"
        "        if not n.startswith('_') and inspect.isfunction(f) and f.__module__ == m.__name__]\n"
        "print(sorted({f.__name__ for f in fns\n"
        "              if inspect.isfunction(f) and 'convention' in inspect.signature(f).parameters}))\n"
    )
    assert fresh(code) == "['commutator_residuals', 'jm_labels']"


def test_unknown_name_is_an_attribute_error():
    code = "import relphase\ntry:\n    relphase.nope\nexcept AttributeError:\n    print('ok')"
    assert fresh(code) == "ok"


@pytest.mark.parametrize("env,expected", [({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "12"}, "12")])
def test_cli_sets_the_openblas_thread_timeout_unless_set(env, expected):
    code = "import os, relphase.cli; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert fresh(code, **env) == expected


def test_cli_import_loads_neither_fractions_nor_decimal():
    """The CSV formatter builds its tables from integers, on first use."""
    code = "import sys, relphase.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert fresh(code) == "[]"


# the modules the CLI imports only in the commands that use them
KERNELS = ("naimark", "pegg_barnett", "phase", "pom", "polarization", "table")
TWO_MODE = ["pom", "polarization", "table"]  # what sweep, ellipse and timepdf load


def test_cli_import_loads_no_kernel_module():
    code = f"import sys, relphase.cli; print([m for m in {KERNELS!r} if 'relphase.' + m in sys.modules])"
    assert fresh(code) == "[]"


FROM_FILE = ["pom", "table"]  # a file: state needs no polarization front end


@pytest.mark.parametrize("argv,loaded", [
    (["phase", "--state", "num:1", "--k", "8"], ["phase", "table"]),
    (["pb", "--state", "num:1", "--s", "4"], ["pegg_barnett", "table"]),
    (["moments", "--state", "num:1"], ["naimark"]),
    (["sweep", "--pol", "xnum:1", "--kt", "8", "--k", "8"], TWO_MODE),
    (["ellipse", "--pol", "xnum:1", "--k", "8"], TWO_MODE),
    (["timepdf", "--pol", "xnum:1"], TWO_MODE),
    (["sweep", "--pol", "file:STATE", "--kt", "8", "--k", "8"], FROM_FILE),
    (["ellipse", "--pol", "file:STATE", "--k", "8"], FROM_FILE),
    (["ellipse", "--pol", "file:STATE", "--k", "8", "--db"], TWO_MODE),  # db_view is polarization's
    (["timepdf", "--pol", "file:STATE"], FROM_FILE),
])
def test_each_command_loads_only_its_kernels(argv, loaded, tmp_path):
    state = tmp_path / "state.json"  # |1, 0>: the two-mode form of xnum:1's photon, one branch
    state.write_text(json.dumps({"kind": "two", "n_max": 1, "amps": [[1, 0, 1, 0]]}))
    argv = [arg.replace("STATE", str(state)) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from relphase.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "assert 'numpy.ma' not in sys.modules  # the CSV formatter's table needs no np.unique\n"
        f"print([m for m in {KERNELS!r} if 'relphase.' + m in sys.modules])"
    )
    assert fresh(code) == str(loaded)


def in_process(argv) -> tuple[int, str, str]:
    """(code, stdout, stderr) of relphase.cli.main(argv) in this interpreter."""
    from relphase.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_run_exits_with_mains_code_and_output(tmp_path):
    gap = tmp_path / "gap.json"  # (|0,0> + |1,1>)/sqrt(2): C(t) vanishes at t = pi/2
    r = 1 / math.sqrt(2)
    gap.write_text(json.dumps({"kind": "two", "n_max": 2, "amps": [[0, 0, r, 0], [1, 1, r, 0]]}))
    sweep = ["sweep", "--pol", f"file:{gap}", "--kt", "21", "--k", "32"]
    cases = [
        (sweep, 0, "skipped 1 time(s) of vanishing conditioning probability\n"),
        (["phase", "--state", "bogus:1"], 2, "error: unknown state spec 'bogus:1'\n"),
        (["phase", "--state", "coh:9", "--k", "8"], 3,
         "error: grid size 8 admits aliasing: need K > 74\n"),
    ]
    for argv, code, err in cases:
        done = cli_child(*argv)
        assert (done.returncode, done.stderr) == (code, err)
        assert (done.returncode, done.stdout, done.stderr) == in_process(argv)
    assert len(cli_child(*sweep).stdout.splitlines()) == 1 + 20 * 32  # header, 20 live slices
    usage = cli_child("phase", "--state", "num:1", "--k", "0")  # argparse's SystemExit
    assert usage.returncode == 2 and usage.stderr.startswith("usage: relphase phase")


@pytest.mark.parametrize("argv", [
    ["phase", "--state", "num:1", "--k", "8"],
    ["moments", "--state", "num:1"],
    ["sweep", "--pol", "xnum:1", "--kt", "8", "--k", "8"],
])
def test_closed_stdout_is_a_one_line_exit_2(argv):
    read, write = os.pipe()
    os.close(read)  # no reader: the buffered table's flush fails with EPIPE
    try:
        done = cli_child(*argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--pol", "xnum:5", "--k", "64"], 2),  # its table outgrows the pipe: EPIPE
    (["ellipse", "--pol", "xcoh:100", "--k", "65536"], 2),
    (["phase", "--state", "coh:9", "--k", "8"], 3),  # aliasing: only the error line is written
])
def test_closed_pipe_for_stdout_and_stderr_keeps_the_exit_code(argv, code):
    """With stderr on the same closed pipe, the error line cannot be written
    either; the exit code still tells what happened."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = cli_child(*argv, stdout=write, stderr=write)
    finally:
        os.close(write)
    assert done.returncode == code


def peak_rss_mib(*argv) -> float:
    """Peak RSS of `python -m relphase.cli argv` in a child, from wait4; it must exit 0."""
    proc = subprocess.Popen([sys.executable, "-m", "relphase.cli", *argv], env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024  # KiB on Linux


def test_sweep_memory_grows_only_by_the_densities_it_returns(tmp_path):
    """A sweep holds each live time's float64 density (its slices), but no complex
    kt x K transient: from kt 1001 to 8001 at K 256 the peak grows by about those
    densities, 13.7 MiB (a blocked kernel: 16.2 MiB; one whole-array one: 56.4 MiB)."""
    if not sys.platform.startswith("linux"):
        pytest.skip("needs Linux's ru_maxrss in KiB")
    gap = tmp_path / "gap.json"  # (|0,0> + |1,1>)/sqrt(2): one gap, at t = pi/2
    r = 1 / math.sqrt(2)
    gap.write_text(json.dumps({"kind": "two", "n_max": 2, "amps": [[0, 0, r, 0], [1, 1, r, 0]]}))
    small, large = (peak_rss_mib("sweep", "--pol", f"file:{gap}", "--kt", str(kt), "--k", "256")
                    for kt in (1001, 8001))
    densities = (8001 - 1001) * 256 * 8 / 2**20
    assert large - small < 1.5 * densities


AS_LIMIT = 3_000_000 * 1024  # room for numpy's import, not for a 1 GiB grid and its FFT


def free_memory() -> int:
    """MemAvailable in bytes (0 where /proc/meminfo is missing)."""
    try:
        text = Path("/proc/meminfo").read_text()
    except OSError:
        return 0
    fields = dict(line.split(":", 1) for line in text.splitlines())
    return int(fields.get("MemAvailable", "0 kB").split()[0]) * 1024


def test_out_of_memory_in_a_child_is_a_one_line_exit_3(tmp_path):
    """A grid within the cell budget can still exhaust the process's memory: here
    numpy's FFT of 2**26 points, in a child whose address space is capped at
    AS_LIMIT. One BLAS thread keeps numpy's reserved address space the same on
    any number of cores; the child touches about 1 GiB before it fails."""
    if not sys.platform.startswith("linux"):
        pytest.skip("needs Linux's RLIMIT_AS")
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < AS_LIMIT:
        pytest.skip("the hard address-space limit is below the test's cap")
    if free_memory() < 2 * AS_LIMIT // 3:
        pytest.skip("too little free memory to run into the address-space cap first")

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, hard))

    out = tmp_path / "ellipse.csv"
    done = cli_child("ellipse", "--pol", "xnum:1", "--k", str(2**26), "--out", str(out),
                     env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap_address_space)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert list(tmp_path.iterdir()) == []
