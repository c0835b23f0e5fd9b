import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    TwoModeState,
    snapshot_sweep,
    state_from_json,
    state_to_json,
)
from relphase import cli, pegg_barnett, pom
from relphase.cli import main
from relphase.table import BLOCK_ROWS, table_chunks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_phase_vacuum_uniform(capsys):
    code, out, _ = run(capsys, "phase", "--state", "num:0", "--k", "16")
    assert code == 0
    header, data = rows_of(out)
    assert header == ["phi", "density"]
    assert np.allclose(data[:, 1], 1 / (2 * np.pi))


def test_phase_coherent_peaks_at_zero(capsys):
    code, out, _ = run(capsys, "phase", "--state", "coh:1", "--k", "1024")
    assert code == 0
    _, data = rows_of(out)
    assert abs(data[np.argmax(data[:, 1]), 0]) < 1e-12


def test_phase_aliasing_is_exit_3(capsys):
    code, _, err = run(capsys, "phase", "--state", "coh:9", "--k", "8")
    assert code == 3
    assert "aliasing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--state", "num:0", "--k", "0"],
        ["ellipse", "--pol", "xnum:1", "--k", "-4"],
        ["timepdf", "--pol", "xnum:1", "--kt", "0"],
        ["sweep", "--pol", "xnum:1", "--k", "1.5"],
    ],
)
def test_non_positive_grid_size_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument {argv[-2]}: grid size must be a positive integer, not '{argv[-1]}'" in err


def test_bad_spec_is_exit_2(capsys):
    code, _, err = run(capsys, "phase", "--state", "wat:7")
    assert code == 2
    assert "wat:7" in err


def test_truncation_error_is_exit_3(capsys):
    code, _, err = run(capsys, "phase", "--state", "coh:9", "--n-max", "5")
    assert code == 3
    assert "n_max" in err


def test_pb_masses_and_report(capsys, tmp_path):
    report = tmp_path / "conv.json"
    code, out, _ = run(
        capsys, "pb", "--state", "coh:1", "--s", "64,128,256", "--report", str(report)
    )
    assert code == 0
    header, data = rows_of(out)
    assert header == ["s", "theta", "mass"]
    assert data.shape[0] == 65 + 129 + 257
    for s in (64, 128, 256):
        sel = data[data[:, 0] == s]
        assert abs(sel[:, 2].sum() - 1.0) < 1e-10
    doc = json.loads(report.read_text())
    ds = [entry["distance"] for entry in doc]
    assert [entry["s"] for entry in doc] == [64, 128, 256]
    assert ds[0] > ds[1] > ds[2]


def test_moments_fields_and_values(capsys):
    code, out, _ = run(capsys, "moments", "--state", "num:5")
    assert code == 0
    doc = json.loads(out)
    for name in ("mean_Y1", "mean_Y2", "second_Y1", "second_Y2", "var_X", "var_P"):
        assert name in doc
    assert doc["mean_Y1"] == doc["mean_Y2"] == 0.0
    assert abs(doc["second_Y1"] + doc["second_Y2"] - 1.0) < 1e-12
    code, out, _ = run(capsys, "moments", "--state", "coh:4")
    doc = json.loads(out)
    assert abs(doc["var_X"] - 0.5) < 1e-8


def test_sweep_slices_normalized(capsys):
    code, out, _ = run(capsys, "sweep", "--pol", "xsup:1,1;2,1", "--kt", "16", "--k", "64")
    assert code == 0
    header, data = rows_of(out)
    assert header == ["t", "phi", "density"]
    t0 = data[data[:, 0] == 0.0]
    assert abs(t0[:, 2].mean() * 2 * np.pi - 1.0) < 1e-8
    assert abs(t0[np.argmax(t0[:, 2]), 1]) < 1e-12  # peak up along x


# (|0,0> + |1,1>)/sqrt(2) loses all conditioning probability at t = pi/2
GAP_STATE = TwoModeState(oracles.to_array({(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}, 2))


def test_sweep_reports_gaps(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(state_to_json(GAP_STATE))
    code, out, err = run(
        capsys, "sweep", "--pol", f"file:{path}", "--kt", "17", "--k", "32"
    )
    assert code == 0
    assert "skipped" in err
    _, data = rows_of(out)
    times = set(data[:, 0])
    assert not any(abs(t - math.pi / 2) < 1e-9 for t in times)


@pytest.mark.parametrize(
    "default, explicit",
    [
        # xcoh:30 needs 308 times, above the default floor of 256
        (["sweep", "--pol", "xcoh:30", "--k", "256"], ["--kt", "308"]),
        (["timepdf", "--pol", "xcoh:100"], ["--kt", "716"]),
        # xcoh:9 needs 152: the default stays 256
        (["sweep", "--pol", "xcoh:9", "--k", "128"], ["--kt", "256"]),
        (["timepdf", "--pol", "xcoh:9"], ["--kt", "256"]),
    ],
)
def test_default_time_grid_is_the_larger_of_256_and_the_state_size(capsys, default, explicit):
    code, out, err = run(capsys, *default)
    assert code == 0 and err == ""
    assert run(capsys, *default, *explicit) == (0, out, "")


@pytest.mark.parametrize("command", ["sweep", "timepdf"])
def test_explicit_time_grid_below_state_size_is_exit_3(capsys, command):
    k = ["--k", "256"] if command == "sweep" else []  # timepdf has no angular grid
    code, out, err = run(capsys, command, "--pol", "xcoh:30", "--kt", "255", *k)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "time grid 255 is below the exact-quadrature size 308" in err


def test_timepdf_reads_the_cells_once(capsys, monkeypatch):
    calls = []
    cells = pom._cells
    monkeypatch.setattr(pom, "_cells", lambda *a: calls.append(a) or cells(*a))
    assert run(capsys, "timepdf", "--pol", "xcoh:9")[0] == 0
    assert len(calls) == 1


def test_sweep_reads_the_cells_once(capsys, monkeypatch):
    calls = []
    cells = pom._cells
    monkeypatch.setattr(pom, "_cells", lambda *a: calls.append(a) or cells(*a))
    assert run(capsys, "sweep", "--pol", "xcoh:9", "--k", "128")[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 1.00 GiB"), "error: Unable to allocate 1.00 GiB\n"),
])
def test_out_of_memory_is_a_one_line_exit_3(capsys, monkeypatch, tmp_path, exc, line):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(pom, "marginal_pdf", exhausted)
    out = tmp_path / "ellipse.csv"
    assert run(capsys, "ellipse", "--pol", "xnum:1", "--out", str(out)) == (3, "", line)
    assert not out.exists()


def test_ellipse_db_contrast(capsys):
    code, out, _ = run(capsys, "ellipse", "--pol", "xcoh:9", "--db", "--k", "512")
    assert code == 0
    header, data = rows_of(out)
    assert header == ["phi", "db"]
    k = data.shape[0]
    assert data[:, 1].max() == 60.0
    y_axis_db = data[3 * k // 4, 1]
    assert 60.0 - y_axis_db == pytest.approx(37.55, abs=0.3)


def test_ellipse_one_photon_zeros(capsys):
    code, out, _ = run(capsys, "ellipse", "--pol", "xnum:1", "--k", "64")
    assert code == 0
    _, data = rows_of(out)
    assert data[16, 1] < 1e-14 and data[48, 1] < 1e-14


def test_ellipse_flat_for_vacuum(capsys):
    code, out, _ = run(capsys, "ellipse", "--pol", "xcoh:0", "--db", "--k", "64")
    assert code == 0
    _, data = rows_of(out)
    assert np.allclose(data[:, 1], 60.0)


def test_timepdf_single_branch_uniform(capsys):
    code, out, _ = run(capsys, "timepdf", "--pol", "xnum:2", "--kt", "64")
    assert code == 0
    header, data = rows_of(out)
    assert header == ["t", "density"]
    assert np.allclose(data[:, 1], 1 / (2 * np.pi))


def test_timepdf_coherent_concentrates(capsys):
    code, out, _ = run(capsys, "timepdf", "--pol", "xcoh:9", "--kt", "256")
    assert code == 0
    _, data = rows_of(out)
    # density lives near t=0 (grid midpoint); the quarter period is suppressed
    k = data.shape[0]
    assert data[3 * k // 4, 1] / data[k // 2, 1] < 1e-3


def test_timepdf_shared_m_interference(capsys):
    # 0+2 photons share m=0 across branches: density 1 + cos(2t)/sqrt(2) up to 2pi
    code, out, _ = run(capsys, "timepdf", "--pol", "xsup:0,1;2,1", "--kt", "64")
    assert code == 0
    _, data = rows_of(out)
    want = (1 + np.cos(2 * data[:, 0]) / math.sqrt(2)) / (2 * np.pi)
    assert np.abs(data[:, 1] - want).max() < 1e-12


def test_timepdf_disjoint_m_uniform(capsys):
    # 1+2 photons share no m value: constant conditioning probability
    code, out, _ = run(capsys, "timepdf", "--pol", "xsup:1,1;2,1", "--kt", "32")
    assert code == 0
    _, data = rows_of(out)
    assert np.allclose(data[:, 1], 1 / (2 * np.pi))


def test_outputs_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "ellipse", "--pol", "xcoh:4", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_format_option(capsys):
    code, out, _ = run(capsys, "phase", "--state", "num:1", "--k", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["phi", "density"]
    assert len(doc["rows"]) == 8


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "relphase" in capsys.readouterr().out


def test_file_state_round_trip(capsys, tmp_path):
    from relphase import make_number_state

    path = tmp_path / "s.json"
    _, out, _ = run(capsys, "phase", "--state", "num:1", "--k", "16")
    path.write_text(state_to_json(make_number_state(1, 1)))
    code, out_file, _ = run(capsys, "phase", "--state", f"file:{path}", "--k", "16")
    assert code == 0
    assert out_file == out


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "phase", "--state", "file:/nonexistent.json")
    assert code == 2


def one_line_error(code, err):
    return code == 2 and err.startswith("error: ") and err.count("\n") == 1


def run_file_state(capsys, tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return run(capsys, "phase", "--state", f"file:{path}", "--k", "16")


def test_json_negative_index_is_exit_2(capsys, tmp_path):
    code, out, err = run_file_state(
        capsys, tmp_path, '{"kind": "single", "n_max": 3, "amps": [[-1, 0, 1, 0]]}'
    )
    assert one_line_error(code, err) and out == ""


def test_json_index_above_n_max_is_exit_2(capsys, tmp_path):
    code, _, err = run_file_state(
        capsys, tmp_path, '{"kind": "single", "n_max": 1, "amps": [[5, 0, 1, 0]]}'
    )
    assert one_line_error(code, err)


def test_json_missing_kind_is_exit_2(capsys, tmp_path):
    code, _, err = run_file_state(capsys, tmp_path, '{"n_max": 1, "amps": [[0, 0, 1, 0]]}')
    assert one_line_error(code, err)
    assert "kind" in err


@pytest.mark.parametrize(
    "command,kind,rows",
    [
        ("phase", "single", "[[0, 0, NaN, 0]]"),
        ("phase", "single", "[[0, 0, 1, Infinity]]"),
        ("phase", "single", "[[0, 0, 1e200, 0], [1, 0, 1e200, 0]]"),
        ("ellipse", "two", "[[0, 0, NaN, 0]]"),
        ("ellipse", "two", "[[0, 0, 1e200, 0], [1, 0, 1e200, 0]]"),
    ],
)
def test_json_non_finite_or_huge_amplitude_is_exit_2(capsys, tmp_path, command, kind, rows):
    path = tmp_path / "state.json"
    path.write_text(f'{{"kind": "{kind}", "n_max": 1, "amps": {rows}}}')
    flag = "--state" if command == "phase" else "--pol"
    code, out, err = run(capsys, command, flag, f"file:{path}", "--k", "16")
    assert one_line_error(code, err) and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # a single-mode document declaring 1e11 levels (a numpy memory-error traceback before)
        ["phase", "--state",
         'file:{"kind": "single", "n_max": 100000000000, "amps": [[0, 0, 1, 0]]}'],
        # a huge declared n_max with a tiny support: exit 0 before, with a dict state
        ["ellipse", "--pol", 'file:{"kind": "two", "n_max": 100000, "amps": [[1, 0, 1, 0]]}'],
        ["ellipse", "--pol", "xcoh:9", "--n-max", "5000"],
        ["ellipse", "--pol", "xnum:5000"],
        ["phase", "--state", "num:0", "--n-max", "100000000000"],
        ["phase", "--state", "coh:1", "--n-max", "100000000000"],
        # the truncation search stops at the budget's n_max of 4095
        ["ellipse", "--pol", "xcoh:1e6"],
    ],
)
def test_state_over_size_budget_is_exit_3(capsys, tmp_path, argv):
    if argv[2].startswith("file:"):
        path = tmp_path / "state.json"
        path.write_text(argv[2][len("file:"):])
        argv = [argv[0], argv[1], f"file:{path}"]
    code, out, err = run(capsys, *argv, "--k", "16")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "amplitudes" in err and "budget is 16777216" in err


HUGE = "1000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--state", "num:1", "--k", HUGE],
        ["ellipse", "--pol", "xnum:1", "--k", HUGE],
        ["timepdf", "--pol", "xnum:1", "--kt", HUGE],
        ["sweep", "--pol", "xnum:1", "--kt", HUGE, "--k", "8"],
        ["sweep", "--pol", "xnum:1", "--kt", "8", "--k", HUGE],
        ["pb", "--state", "num:1", "--s", HUGE],
    ],
)
def test_grid_over_working_set_budget_is_exit_3(capsys, tmp_path, argv):
    out = tmp_path / "table.csv"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 3 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the working-set budget of 67108864 cells" in err


@pytest.mark.parametrize("spec", ["coh:inf", "coh:nan", "coh:-inf", "xcoh:inf", "xcoh:nan"])
def test_non_finite_mean_is_exit_2(capsys, spec):
    command = "phase" if spec.startswith("coh") else "ellipse"
    flag = "--state" if spec.startswith("coh") else "--pol"
    code, _, err = run(capsys, command, flag, spec)
    assert one_line_error(code, err)
    assert "bad mean photon number" in err


@pytest.mark.parametrize("spec", ["xsup:1,inf", "xsup:1,nan", "xsup:1,1;2,-infj"])
def test_non_finite_weight_is_exit_2(capsys, spec):
    code, out, err = run(capsys, "ellipse", "--pol", spec)
    assert one_line_error(code, err) and out == ""
    assert "bad weight" in err


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_overflowing_superposition_is_exit_2_without_warnings(capsys):
    code, out, err = run(capsys, "ellipse", "--pol", "xsup:0,1e308;0,1e308")
    assert one_line_error(code, err) and out == ""
    assert "cannot normalize" in err


def test_refused_pb_report_leaves_no_table(capsys, tmp_path):
    # the report refuses s below n_max; the masses alone would be fine
    table, report = tmp_path / "pb.csv", tmp_path / "pb.json"
    code, _, err = run(capsys, "pb", "--state", "num:0", "--n-max", "1", "--s", "0",
                       "--report", str(report), "--out", str(table))
    assert one_line_error(code, err) and "truncates the state" in err
    assert not table.exists() and not report.exists()


def test_output_file_mode_follows_umask(capsys, tmp_path):
    path = tmp_path / "out.csv"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "phase", "--state", "num:1", "--k", "8", "--out", str(path))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no temp file left


def test_missing_output_directory_names_the_output(capsys, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, _, err = run(capsys, "phase", "--state", "num:1", "--k", "8", "--out", str(path))
    assert one_line_error(code, err)
    assert str(path) in err and ".relphase-" not in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_tail_tol_outside_unit_interval_is_exit_2(capsys, tol):
    code, out, err = run(capsys, "phase", "--state", "coh:9", "--tail-tol", tol)
    assert one_line_error(code, err) and out == ""
    assert "tail_tol" in err


SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 123456789012345.6, 0.1, 1 / 3, 64.0, 3.0, -2.0,
                  math.nan, math.inf, -math.inf]


def first_difference(got, want):
    """None for equal texts, else the first differing offset and the text around it
    (pytest's own diff of megabyte strings takes minutes)."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(i - 40, 0) : i + 40], want[max(i - 40, 0) : i + 40]


def random_rows(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))


def groups_of(rows):
    """The (lead, x, y) groups of a 2- or 3-column table: a 3-column table gets
    one group per row, with its first column as the lead."""
    if rows.shape[1] == 2:
        return [((), rows[:, 0], rows[:, 1])]
    return [((rows[i, 0],), rows[i : i + 1, 1], rows[i : i + 1, 2]) for i in range(len(rows))]


def rows_of_groups(groups):
    return [(*lead, a, b) for lead, x, y in groups for a, b in zip(x, y)]


def rows_per_chunk(chunk, fmt):
    """Rows in a chunk: one line per CSV row, one '[' per JSON row (the JSON
    header chunk counts 2)."""
    return chunk.count("\n" if fmt == "csv" else "[")


@pytest.mark.parametrize(
    "rows",
    [
        np.reshape(SPECIAL_VALUES, (-1, 3)),
        np.reshape(SPECIAL_VALUES, (-1, 2))[:, ::-1],  # not contiguous
        np.empty((0, 3)),
        random_rows(BLOCK_ROWS),
        random_rows(BLOCK_ROWS + 1),
        random_rows(3 * BLOCK_ROWS + 5),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_matches_per_value_writer(rows, fmt):
    header = ("a", "b", "c")[: rows.shape[1]]
    groups = groups_of(rows)
    chunks = list(table_chunks(header, groups, fmt))
    assert first_difference("".join(chunks), oracles.reference_table(header, rows, fmt)) is None
    # the header, one chunk per block of each group's rows, and JSON's closing "]}"
    blocks = sum(-(-len(x) // BLOCK_ROWS) for _, x, _ in groups)
    assert len(chunks) == 1 + blocks + (fmt == "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grouped_table_matches_per_value_writer(fmt):
    """Groups sharing one x array longer than a block (a sweep), a group with
    its own x between them, and special and integer leads (pb's s)."""
    x, y = random_rows(BLOCK_ROWS + 1)[:, :2].T
    groups = [
        ((0.25,), x, y),
        ((4096,), x[:3], y[:3]),
        ((-0.0,), x, y[::-1]),
        ((math.nan,), x, 2.0 * y),
    ]
    chunks = list(table_chunks(("t", "phi", "density"), groups, fmt))
    want = oracles.reference_table(("t", "phi", "density"), rows_of_groups(groups), fmt)
    assert first_difference("".join(chunks), want) is None
    assert max(rows_per_chunk(chunk, fmt) for chunk in chunks) == BLOCK_ROWS


def assert_csv_matches_per_value_writer(values):
    """Each value goes through table_chunks' CSV as a lead, an x and a y."""
    values = np.asarray(values, dtype=float)
    rows = np.column_stack([values, np.roll(values, 1), values[::-1]])
    got = "".join(table_chunks(("a", "b", "c"), groups_of(rows), "csv"))
    assert first_difference(got, oracles.reference_table(("a", "b", "c"), rows, "csv")) is None


def neighbours(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


# exact 15-digit ties (16-digit integers ending in 5), carries into the next
# power of ten, every power of ten's neighbours and the 15-digit numbers just
# below it (where log10 can round up to the power), and the fast path's ends
HARD_VALUES = [
    1000000000000005.0, 1000000000000015.0, 1234567890123455.0, 9007199254740985.0,
    -4503599627370495.0, 999999999999999.5, 999999999999999.7, 9.9999999999999995e-5,
    99999.99999999999, 0.99999999999999994, 9.99999999999999949e22, 1e15, 1e14, 1e-4, 1e-5,
    *(w for k in range(-300, 301) for w in neighbours(float(f"1e{k}"))),
    *(float(f"9.9999999999999{d}e{k}") for k in range(-300, 300) for d in (8, 9)),
    *neighbours(1e-280), *neighbours(1e280), *neighbours(-1e-280), *neighbours(-1e280),
]


def test_csv_numbers_of_hard_cases_match_per_value_writer():
    assert_csv_matches_per_value_writer(HARD_VALUES)


# 15-digit mantissas plus about one half: near-ties the fast path must not round
NEAR_TIES = st.builds(
    lambda m, e, sign: sign * (m + 0.5) * 10.0**e,
    st.integers(10**14, 10**15 - 1), st.integers(-300, 280), st.sampled_from([-1.0, 1.0]),
)


@given(st.lists(st.one_of(st.floats(), NEAR_TIES), min_size=1, max_size=64))
def test_csv_numbers_match_per_value_writer(values):
    """Every float64: NaN, infinities, subnormals and signed zeros included."""
    assert_csv_matches_per_value_writer(values)


def test_csv_numbers_of_random_bit_patterns_match_per_value_writer():
    """2**20 float64s from uniform random bits: every exponent, both signs,
    subnormals, infinities and NaNs with any payload, as a two-column table."""
    bits = np.random.default_rng(20).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    rows = bits.view(float).reshape(-1, 2)
    assert np.isnan(rows).any() and (np.abs(rows[rows != 0]) < 2.2250738585072014e-308).any()
    got = "".join(table_chunks(("a", "b"), groups_of(rows), "csv"))
    assert first_difference(got, oracles.reference_table(("a", "b"), rows, "csv")) is None


@pytest.mark.parametrize("spec, k", [("xcoh:9", 1024), ("xcoh:30", 256)])
def test_csv_numbers_of_sweep_densities_match_per_value_writer(spec, k):
    """The densities of the benchmark's sweeps: from above 1 down to 1e-8
    (xcoh:9) and 1e-20 (xcoh:30), in fixed and in exponent notation."""
    state = cli.parse_pol_spec(spec, None, 1e-12)
    times = np.linspace(0.0, np.pi, 40)
    groups = [((t,), pdf.phi, pdf.density) for t, pdf in zip(times, snapshot_sweep(state, times, k))]
    assert min(g[2].min() for g in groups) < 1e-7 and max(g[2].max() for g in groups) > 1
    got = "".join(table_chunks(("t", "phi", "density"), groups, "csv"))
    want = oracles.reference_table(("t", "phi", "density"), rows_of_groups(groups), "csv")
    assert first_difference(got, want) is None


def test_csv_writer_memory_stays_per_block():
    """64 groups of BLOCK_ROWS rows (about 25 MB of text) are written a block at a
    time. The per-value writer peaked at 1.4 MB on this table; the bound adds, per
    block, what the byte-gather writer held with its 22-byte fields: its intp
    gather index, the row matrix, the source words, the formatted rows and about
    16 float64 temporaries. The word-built fields must fit the same bound."""
    rng = np.random.default_rng(9)
    x = np.linspace(-math.pi, math.pi, BLOCK_ROWS, endpoint=False)
    groups = [((0.01 * i,), x, rng.random(BLOCK_ROWS) * 10.0 ** -rng.integers(0, 30, BLOCK_ROWS))
              for i in range(64)]
    list(table_chunks(("t", "phi", "density"), groups[:1], "csv"))  # builds the lazy tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        size = sum(len(chunk) for chunk in table_chunks(("t", "phi", "density"), groups, "csv"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert size > 20e6
    field = 22  # the byte-gather writer's field: the longest text, -1.23456789012345e-300
    assert peak < 1.5e6 + BLOCK_ROWS * (8 * field + 3 * (field + 1) + 32 + field + 16 * 8)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pb_table_of_two_truncations_matches_per_value_writer(capsys, fmt):
    s_values = (64, BLOCK_ROWS + 7)  # the second spans two blocks
    code, out, _ = run(capsys, "pb", "--state", "coh:4", "--s", "%d,%d" % s_values, "--format", fmt)
    assert code == 0
    state = cli.parse_single_spec("coh:4", None, 1e-12)
    pmfs = [pegg_barnett.pb_pmf(state, s) for s in s_values]
    rows = rows_of_groups([((p.s,), p.theta, p.masses) for p in pmfs])
    assert first_difference(out, oracles.reference_table(("s", "theta", "mass"), rows, fmt)) is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_multi_block_sweep_with_gaps_matches_per_value_writer(capsys, tmp_path, monkeypatch, fmt):
    """The sweep writer against the per-value writer, through the CLI (many short
    slices with a gap; slices longer than a block with a gap) and on its own
    (one-time sweeps, which no CLI time grid makes)."""
    chunk_rows = []

    def counted(chunks):
        for chunk in chunks:
            chunk_rows.append(rows_per_chunk(chunk, fmt))
            yield chunk

    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda path, chunks: write(path, counted(chunks)))
    path, out = tmp_path / "state.json", tmp_path / "sweep.out"
    path.write_text(state_to_json(GAP_STATE))
    state = state_from_json(path.read_text())

    def reference(times, k):
        slices = snapshot_sweep(state, times, k)
        rows = [
            (t, phi, dens) for t, pdf in zip(times, slices) if pdf is not None
            for phi, dens in zip(pdf.phi, pdf.density)
        ]
        return oracles.reference_table(("t", "phi", "density"), rows, fmt), len(rows)

    for kt, k in ((1025, 32), (13, 2 * BLOCK_ROWS + 3)):
        code, _, err = run(
            capsys, "sweep", "--pol", f"file:{path}", "--kt", str(kt), "--k", str(k),
            "--format", fmt, "--out", str(out),
        )
        assert code == 0 and "skipped 1 time(s)" in err
        want, n_rows = reference(np.linspace(0.0, np.pi, kt), k)
        assert n_rows > 3 * BLOCK_ROWS
        assert first_difference(out.read_text(), want) is None
    for t, k in ((0.3, 64), (1.0, BLOCK_ROWS + 1)):
        (pdf,) = snapshot_sweep(state, [t], k)
        chunks = table_chunks(("t", "phi", "density"), [((t,), pdf.phi, pdf.density)], fmt)
        got = "".join(counted(chunks))
        assert first_difference(got, reference([t], k)[0]) is None
    assert max(chunk_rows) == BLOCK_ROWS


@pytest.mark.parametrize(
    "command,kind,rows",
    [
        ("phase", "single", "[[0, 0, 1e-160, 0]]"),
        ("phase", "single", "[[0, 0, 1e-170, 0]]"),
        ("ellipse", "two", "[[0, 1, 1e-160, 0]]"),
    ],
)
def test_json_state_whose_squared_norm_underflows_is_read(capsys, tmp_path, command, kind, rows):
    # the state is |0> (or |0,1>): its density is flat at 1/(2 pi)
    path = tmp_path / "state.json"
    path.write_text(f'{{"kind": "{kind}", "n_max": 1, "amps": {rows}}}')
    flag = "--state" if command == "phase" else "--pol"
    code, out, err = run(capsys, command, flag, f"file:{path}", "--k", "8")
    assert code == 0 and err == ""
    _, data = rows_of(out)
    assert np.allclose(data[:, 1], 1 / (2 * np.pi), rtol=1e-14)


@pytest.mark.parametrize(
    "rows, mass",
    [
        ("[[0, 0, 1e-170, 0], [10, 0, 1, 0]]", lambda theta: np.full(theta.shape, 0.2)),
        ("[[0, 0, 1e-160, 0], [1, 0, 1e-160, 0], [10, 0, 1, 0]]",
         lambda theta: (1 + np.cos(theta)) / 5),
    ],
    ids=["zero", "zero-plus-one"],
)
def test_pb_truncation_whose_squared_norm_underflows_is_measured(capsys, tmp_path, rows, mass):
    # at s = 4 the state keeps |0> (|0> + |1>): a squared norm of 1e-340 (2e-320)
    path = tmp_path / "state.json"
    path.write_text(f'{{"kind": "single", "n_max": 10, "amps": {rows}}}')
    code, out, err = run(capsys, "pb", "--state", f"file:{path}", "--s", "4")
    assert code == 0 and err == ""
    _, data = rows_of(out)
    assert np.abs(data[:, 2] - mass(data[:, 1])).max() < 1e-14  # 15 digits each


# reports pinned byte for byte: at 1, 2 and 3 levels the ladder and shift sums run over empty slices
ONE_TO_THREE_LEVELS = [
    ("num:0", {"mean_P": 0.0, "mean_X": 0.0, "mean_Y1": 0.0, "mean_Y2": 0.0, "second_P": 0.5,
               "second_X": 0.5, "second_Y1": 0.5, "second_Y2": 0.5, "vac_prob": 1.0,
               "var_P": 0.5, "var_X": 0.5}),
    ("num:1", {"mean_P": 0.0, "mean_X": 0.0, "mean_Y1": 0.0, "mean_Y2": 0.0, "second_P": 1.0,
               "second_X": 1.0, "second_Y1": 0.5, "second_Y2": 0.5, "vac_prob": 0.0,
               "var_P": 1.0, "var_X": 1.0}),
    ('{"kind": "single", "n_max": 1, "amps": [[0, 0, 0.6, 0], [1, 0, 0, 0.8]]}',
     {"mean_P": 0.48, "mean_X": 0.0, "mean_Y1": 0.0, "mean_Y2": 0.48,
      "second_P": 0.8200000000000001, "second_X": 0.8200000000000001, "second_Y1": 0.5,
      "second_Y2": 0.5, "vac_prob": 0.36, "var_P": 0.5896000000000001,
      "var_X": 0.8200000000000001}),
    ('{"kind": "single", "n_max": 2, "amps": [[0, 0, 0.6, 0], [2, 0, 0.8, 0]]}',
     {"mean_P": 0.0, "mean_X": 0.0, "mean_Y1": 0.0, "mean_Y2": 0.0,
      "second_P": 0.8005887450304573, "second_X": 1.479411254969543, "second_Y1": 0.74,
      "second_Y2": 0.26, "vac_prob": 0.36, "var_P": 0.8005887450304573,
      "var_X": 1.479411254969543}),
]


@pytest.mark.parametrize("spec, want", ONE_TO_THREE_LEVELS)
def test_moments_of_one_to_three_levels_are_exact(capsys, tmp_path, spec, want):
    if spec.startswith("{"):  # a state document
        path = tmp_path / "state.json"
        path.write_text(spec)
        spec = f"file:{path}"
    assert run(capsys, "moments", "--state", spec) == (0, json.dumps(want, sort_keys=True) + "\n", "")


def test_pb_report_computes_each_truncation_once(capsys, tmp_path, monkeypatch):
    calls, pb_pmf = [], pegg_barnett.pb_pmf

    def counting(state, s):
        calls.append(s)
        return pb_pmf(state, s)

    # the one binding site: the command imports it from pegg_barnett when it runs
    monkeypatch.setattr(pegg_barnett, "pb_pmf", counting)
    code, _, _ = run(capsys, "pb", "--state", "coh:4", "--s", "64,128",
                     "--report", str(tmp_path / "r.json"), "--out", str(tmp_path / "pb.csv"))
    assert code == 0 and calls == [64, 128]


def test_moments_offers_json_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--state", "num:1", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


NOT_READ = {  # each command with an option it has no use for
    "phase--kt": ["phase", "--state", "num:1", "--kt", "8"],
    "ellipse--kt": ["ellipse", "--pol", "xnum:1", "--kt", "8"],
    "pb--k": ["pb", "--state", "num:1", "--s", "4", "--k", "8"],
    "pb--kt": ["pb", "--state", "num:1", "--s", "4", "--kt", "8"],
    "moments--k": ["moments", "--state", "num:1", "--k", "8"],
    "moments--kt": ["moments", "--state", "num:1", "--kt", "8"],
    "timepdf--k": ["timepdf", "--pol", "xnum:1", "--k", "8"],
}


def usage_error(capsys, argv):
    """stderr of a run that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", NOT_READ.values(), ids=NOT_READ.keys())
def test_command_rejects_options_it_does_not_read(capsys, argv):
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["timepdf", "--pol", "xnum:1", "--k", "3"],  # once read as --kt
        ["phase", "--state", "num:1", "--n", "3"],  # --n-max
        ["phase", "--state", "num:1", "--o", "-"],  # --out
        ["phase", "--state", "num:1", "--f", "json"],  # --format
        ["--vers", "phase", "--state", "num:1"],  # --version
    ],
)
def test_abbreviated_option_is_a_usage_error(capsys, argv):
    assert "unrecognized arguments" in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--state", "coh:1"],  # exit 3 once, from the truncation search
        ["phase", "--state", "num:0"],
        ["phase", "--state", "coh:0"],
        ["ellipse", "--pol", "xnum:0"],  # exit 3 once, from the photon count
        ["sweep", "--pol", "xcoh:0"],
        ["pb", "--state", "num:0", "--s", "4"],
    ],
)
def test_negative_n_max_is_a_usage_error(capsys, argv):
    err = usage_error(capsys, [*argv, "--n-max", "-1"])
    assert "argument --n-max: n_max must be a non-negative integer, not '-1'" in err
