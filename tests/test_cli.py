import json
import math
import os
import stat
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    TwoModeState,
    angular_grid,
    heterodyne_moments,
    make_coherent_state,
    make_number_state,
    snapshot_sweep,
    state_from_json,
    state_to_json,
    y_moments,
)
from relphase import cli, fock, pegg_barnett, pom
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


def no_masses(mean):
    yield pytest.fail(f"built a Poisson mass of mean {mean:g}")


@pytest.mark.parametrize("argv, mean, n_max, modes", [
    (["ellipse", "--pol", "xcoh:1e6", "--k", "16"], "1e+06", 5791, 2),
    (["phase", "--state", "coh:1e9", "--k", "16"], "1e+09", 16777215, 1),
])
def test_a_mean_far_past_the_budget_is_exit_3_before_any_mass_is_built(
        capsys, monkeypatch, argv, mean, n_max, modes):
    monkeypatch.setattr(fock, "_pmf_terms", no_masses)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (f"error: mean {mean} needs n_max > {n_max} for tail mass below 1e-12, so a "
                   f"{modes}-mode state needs more than 16777216 amplitudes; the budget is "
                   "16777216 (256 MiB)\n")


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
GAP_STATE = TwoModeState(*oracles.cells({(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}), 2)


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
        # xcoh:30's display default 4 (j_max + 1) is 308 times, above the floor of 256
        (["sweep", "--pol", "xcoh:30", "--k", "256"], ["--kt", "308"]),
        (["timepdf", "--pol", "xcoh:100"], ["--kt", "716"]),
        # xcoh:9's is 152: the default stays 256
        (["sweep", "--pol", "xcoh:9", "--k", "128"], ["--kt", "256"]),
        (["timepdf", "--pol", "xcoh:9"], ["--kt", "256"]),
    ],
)
def test_default_time_grid_is_the_larger_of_256_and_the_state_size(capsys, default, explicit):
    code, out, err = run(capsys, *default)
    assert code == 0 and err == ""
    assert run(capsys, *default, *explicit) == (0, out, "")


def test_timepdf_time_grid_below_the_exact_size_is_exit_3(capsys):
    # xcoh:30 occupies j = 0..76, so 77 times integrate C(t) exactly and 76 alias
    code, out, err = run(capsys, "timepdf", "--pol", "xcoh:30", "--kt", "76")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "time grid 76 is below the exact-quadrature size 77" in err


@pytest.mark.parametrize("pol, kt, k", [("xcoh:30", 76, 256), ("xcoh:1", 3, 32), ("xcoh:30", 1, 256)])
def test_sweep_takes_a_time_grid_below_the_exact_size(capsys, pol, kt, k):
    # sweep integrates nothing over t: each snapshot is normalized at its own time
    code, out, err = run(capsys, "sweep", "--pol", pol, "--kt", str(kt), "--k", str(k))
    assert code == 0 and err == ""
    _, data = rows_of(out)
    times = data[:, 0].reshape(kt, k)
    assert (times == times[:, :1]).all() and np.allclose(times[:, 0], np.linspace(0.0, math.pi, kt))
    assert np.abs(data[:, 2].reshape(kt, k).mean(axis=1) * 2 * math.pi - 1.0).max() < 1e-12


def test_exact_time_grid_below_the_display_default_is_accepted(capsys):
    # xcoh:100 occupies j = 0..178: 179 times are exact, though the display default is 716
    code, out, err = run(capsys, "timepdf", "--pol", "xcoh:100", "--kt", "179")
    assert code == 0 and err == ""
    _, data = rows_of(out)
    assert data.shape == (179, 2)
    assert abs(data[:, 1].mean() * 2 * math.pi - 1.0) < 1e-12


def test_grids_and_truncations_are_bounded_by_the_occupied_n_not_n_max(capsys, tmp_path):
    # num:2 at n_max 10 occupies only n = 2: K 8 > 2 n and s 4 >= n are exact
    phase = ["phase", "--state", "num:2", "--k", "8"]
    assert run(capsys, *phase, "--n-max", "10") == run(capsys, *phase)
    outputs = []
    for n_max in ("10", "2"):
        table, report = tmp_path / f"pb{n_max}.csv", tmp_path / f"pb{n_max}.json"
        code, out, err = run(capsys, "pb", "--state", "num:2", "--n-max", n_max, "--s", "4",
                             "--report", str(report), "--out", str(table))
        assert (code, out, err) == (0, "", "")
        outputs.append((table.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


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
        ("phase", "single", "[[0, 0, 1e400, 0], [1, 0, 1, 0]]"),  # beyond the largest float
        ("ellipse", "two", "[[0, 0, NaN, 0]]"),
        ("ellipse", "two", "[[0, 0, 1, 0], [1, 0, 0, -1e400]]"),
        # integer literals beyond the largest float (an OverflowError traceback before)
        pytest.param("phase", "single", f"[[0, 0, 1{'0' * 400}, 0], [1, 0, 1, 0]]",
                     id="phase-single-400-digit-integer"),
        pytest.param("ellipse", "two", f"[[0, 0, 1, 0], [1, 0, 0, -1{'0' * 400}]]",
                     id="ellipse-two-400-digit-integer"),
    ],
)
def test_json_non_finite_or_huge_amplitude_is_exit_2(capsys, tmp_path, command, kind, rows):
    path = tmp_path / "state.json"
    path.write_text(f'{{"kind": "{kind}", "n_max": 1, "amps": {rows}}}')
    flag = "--state" if command == "phase" else "--pol"
    code, out, err = run(capsys, command, flag, f"file:{path}", "--k", "16")
    assert one_line_error(code, err) and out == ""
    assert err.endswith(" is not a finite number\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["phase", "--state", "coh:-1"], "negative mean photon number '-1'"),
        (["phase", "--state", "file:{two}"], "'{two}' holds a two-mode state; this command needs a single mode"),
        (["phase", "--state", "file:{n_a}"], "single-mode rows must have n_a = 0"),
        (["ellipse", "--pol", "wat:1"], "unknown polarization spec 'wat:1'"),
        (["pb", "--state", "coh:1", "--s", ","], "need at least one truncation in --s"),
        (["pb", "--state", "coh:1", "--s=-1"], "truncation -1 is negative"),
    ],
)
def test_each_spec_refusal_is_its_own_line_and_exit_2(capsys, tmp_path, argv, line):
    files = {"two": '[[1, 0, 1, 0]]', "n_a": '[[0, 1, 1, 0]]'}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, rows in files.items():
        kind = "two" if name == "two" else "single"
        paths[name].write_text(f'{{"kind": "{kind}", "n_max": 1, "amps": {rows}}}')
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == "" and err == f"error: {line.format(**paths)}\n"


@pytest.mark.parametrize("command, flag", [("phase", "--state"), ("ellipse", "--pol")])
def test_deeply_nested_json_state_is_exit_2(capsys, tmp_path, command, flag):
    # json's decoder recurses once per level, so 200,000 levels pass the interpreter's limit
    path, out = tmp_path / "deep.json", tmp_path / "out.csv"
    path.write_text("[" * 200_000)
    code, stdout, err = run(capsys, command, flag, f"file:{path}", "--out", str(out))
    assert one_line_error(code, err) and stdout == "" and not out.exists()
    assert "nests too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a single-mode document declaring 1e11 levels (a numpy memory-error traceback before)
        ["phase", "--state",
         'file:{"kind": "single", "n_max": 100000000000, "amps": [[0, 0, 1, 0]]}'],
        # a huge declared n_max with a tiny support: exit 0 before, with a dict state
        ["ellipse", "--pol", 'file:{"kind": "two", "n_max": 100000, "amps": [[1, 0, 1, 0]]}'],
        ["ellipse", "--pol", "xcoh:9", "--n-max", "5792"],
        ["ellipse", "--pol", "xnum:5792"],
        ["phase", "--state", "num:0", "--n-max", "100000000000"],
        ["phase", "--state", "coh:1", "--n-max", "100000000000"],
        # the truncation search stops at the budget's n_max of 5791
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


def test_the_two_mode_budget_counts_the_simplex_not_the_square(capsys, tmp_path):
    # (n_max + 1)(n_max + 2)/2 cells: n_max 5791 fits 2**24, 5792 does not, whatever the support
    for n_max, code, err in ((5791, 0, ""), (5792, 3, "error: a 2-mode state at n_max=5792 needs "
                             "16782321 amplitudes (256.1 MiB); the budget is 16777216 (256 MiB)\n")):
        path = tmp_path / f"state{n_max}.json"
        path.write_text(json.dumps({"kind": "two", "n_max": n_max, "amps": [[1, 0, 1.0, 0.0]]}))
        got = run(capsys, "ellipse", "--pol", f"file:{path}", "--k", "8")
        assert got[0] == code and got[2] == err


def test_an_x_number_state_of_5000_photons_is_measured(capsys):
    # 2,653 nonzero cells (the other binomial amplitudes underflow); a dense square of 25 million
    # cells was over the budget
    code, out, err = run(capsys, "ellipse", "--pol", "xnum:5000", "--k", "16384")
    assert (code, err) == (0, "")
    _, data = rows_of(out)
    assert data.shape == (16384, 2)
    # the oracle's binomial amplitudes through lgamma, not the library's exact integer ratios
    n, k = 5000, np.arange(5001)
    log_amp = 0.5 * (math.lgamma(n + 1) - np.array([math.lgamma(i + 1) + math.lgamma(n - i + 1) for i in k])
                     - n * math.log(2.0))
    jm = {(n, 2 * int(i) - n): math.exp(a) for i, a in zip(k, log_amp)}
    rows = [0, 1, 7, 4096, 8191, 8192, 8200, 12288]
    want = oracles.direct_marginal(jm, data[rows, 0])
    assert np.abs(data[rows, 1] - want).max() < 1e-9 * data[:, 1].max()


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


def test_an_all_gap_sweep_writes_its_header_alone_at_any_grid_size(capsys, tmp_path):
    # C(0) of (|0,0> - |1,1>)/sqrt(2) is 0: no slice is live, so no K-point grid is built
    path = tmp_path / "state.json"
    path.write_text(state_to_json(TwoModeState(*oracles.cells({(0, 0): 1 / math.sqrt(2),
                                                                (1, 1): -1 / math.sqrt(2)}), 2)))
    code, out, err = run(capsys, "sweep", "--pol", f"file:{path}", "--kt", "1", "--k", HUGE)
    assert (code, out) == (0, "t,phi,density\n")
    assert err == "skipped 1 time(s) of vanishing conditioning probability\n"


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


@pytest.mark.parametrize("argv", [
    ["phase", "--state", "num:-1", "--k", "8"],
    ["phase", "--state", "num:-1", "--k", "8", "--n-max", "5"],
    ["moments", "--state", "num:-2"],
    ["ellipse", "--pol", "xnum:-1"],
])
def test_negative_photon_number_is_exit_2(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert one_line_error(code, err) and stdout == "" and not out.exists()
    assert err == "error: photon numbers must be >= 0\n"


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_overflowing_superposition_is_exit_2_without_warnings(capsys):
    code, out, err = run(capsys, "ellipse", "--pol", "xsup:0,1e308;0,1e308")
    assert one_line_error(code, err) and out == ""
    assert "cannot normalize" in err


def test_refused_pb_report_leaves_no_table(capsys, tmp_path):
    # coh:1 occupies n = 0..14: the report refuses s = 2 below that, though the masses
    # of the state cut to n <= 2 are fine
    table, report = tmp_path / "pb.csv", tmp_path / "pb.json"
    code, _, err = run(capsys, "pb", "--state", "coh:1", "--s", "2",
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
    # a missing directory, an --out that is a directory, and a --report that is one: the
    # refusal names the output (not the temp file, whichever step failed), and no temp file is left
    directory = tmp_path / "dir"
    directory.mkdir()
    for argv, path in [
        (["phase", "--state", "num:1", "--k", "8", "--out"], tmp_path / "missing" / "out.csv"),
        (["phase", "--state", "num:1", "--k", "8", "--out"], directory),
        (["pb", "--state", "num:1", "--s", "4", "--report"], directory),
    ]:
        code, _, err = run(capsys, *argv, str(path))
        assert one_line_error(code, err)
        assert str(path) in err and ".relphase-" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any(directory.iterdir())


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "1", "5"])
@pytest.mark.parametrize("argv", [
    ["phase", "--state", "coh:9"],
    ["phase", "--state", "num:3"],
    ["moments", "--state", "num:0"],
    ["ellipse", "--pol", "xnum:2", "--k", "8"],
    ["phase", "--state", "file:{state}"],
], ids=["coh", "num", "moments-num", "ellipse-xnum", "file"])
def test_tail_tol_outside_unit_interval_is_exit_2(capsys, tmp_path, argv, tol):
    # every spec, not only the coherent ones whose truncation reads the tolerance
    state = tmp_path / "state.json"
    state.write_text(state_to_json(make_number_state(1, 1)))
    argv = [arg.replace("{state}", str(state)) for arg in argv]
    code, out, err = run(capsys, *argv, "--tail-tol", tol)
    assert one_line_error(code, err) and out == ""
    assert err == f"error: tail_tol must lie in (0, 1), got {float(tol)!r}\n"


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


def test_power_table_holds_every_power_of_ten_as_a_double_double():
    """All 591 rows of the writer's power table against exact rationals: hi is 10**k
    rounded, lo the rest rounded, and hi1 + hi2 is Dekker's split of hi, whose hi1 has
    at most 26 significant bits. Every row is read, not only those a value needs."""
    from relphase import table

    rows = table._tables().powers.view(float).reshape(-1, 4).tolist()
    assert len(rows) == table._POW_MAX - table._POW_MIN + 1 == 591
    for k, (hi, lo, hi1, hi2) in zip(range(table._POW_MIN, table._POW_MAX + 1), rows):
        exact = Fraction(10) ** k
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), k
        assert Fraction(hi1) + Fraction(hi2) == Fraction(hi), k
        odd = hi1.as_integer_ratio()[0]
        assert (odd // (odd & -odd)).bit_length() <= 26, k


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
    phi = angular_grid(k)
    groups = [((t,), phi, pdf) for t, pdf in zip(times, snapshot_sweep(state, times, k))]
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
    rows = rows_of_groups([((p.size - 1,), angular_grid(p.size), p) for p in pmfs])
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
            for phi, dens in zip(angular_grid(pdf.size), pdf)
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
        chunks = table_chunks(("t", "phi", "density"), [((t,), angular_grid(pdf.size), pdf)], fmt)
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


@pytest.mark.parametrize("command", ["phase", "ellipse"])
def test_json_state_whose_squared_norm_overflows_is_read(capsys, tmp_path, command):
    # (|0> + |1>) at weight 1e200: the squared norm overflows, the state is that of weight 1
    kind, flag = ("single", "--state") if command == "phase" else ("two", "--pol")
    outputs = []
    for weight in ("1e200", "1"):
        path = tmp_path / f"state{weight}.json"
        path.write_text(f'{{"kind": "{kind}", "n_max": 1, "amps": [[0, 0, {weight}, 0], '
                        f'[1, 0, {weight}, 0]]}}')
        outputs.append(run(capsys, command, flag, f"file:{path}", "--k", "16"))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("weight", ["1e200", "1e300"])
def test_superposition_whose_squared_norm_overflows_is_measured(capsys, weight):
    got = run(capsys, "ellipse", "--pol", f"xsup:1,{weight};2,{weight}", "--k", "8")
    assert got == run(capsys, "ellipse", "--pol", "xsup:1,1;2,1", "--k", "8") and got[0] == 0


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


MOMENT_KEYS = ["mean_P", "mean_X", "mean_Y1", "mean_Y2", "second_P", "second_X", "second_Y1",
               "second_Y2", "vac_prob", "var_P", "var_X"]
OFF_UNIT_SINGLE = '{"kind": "single", "n_max": 2, "amps": [[0, 0, 3, 0], [1, 0, 0, 4], [2, 0, -1, 2]]}'


@pytest.mark.parametrize("spec, build", [
    ("num:0", lambda: make_number_state(0, 0)),
    ("num:3", lambda: make_number_state(3, 3)),
    ("coh:9", lambda: make_coherent_state(3.0)),
    ("file", lambda: state_from_json(OFF_UNIT_SINGLE)),
])
def test_moments_writes_the_librarys_report(capsys, tmp_path, spec, build):
    """The document is the two library dicts merged, with no conversion between them."""
    if spec == "file":
        (path := tmp_path / "state.json").write_text(OFF_UNIT_SINGLE)
        spec = f"file:{path}"
    state = build()
    report = {**heterodyne_moments(state), **y_moments(state)}
    assert sorted(report) == MOMENT_KEYS
    assert run(capsys, "moments", "--state", spec) == (0, json.dumps(report, sort_keys=True) + "\n", "")


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


def test_sweep_formats_its_phi_column_once(capsys, tmp_path, monkeypatch):
    """K + n + n K values for n live slices of K <= BLOCK_ROWS rows: the phi grid once,
    then each slice's t and densities. A grid object per slice would format phi n times."""
    from relphase import table

    formatted = []
    format_15g = table._format_15g

    def counted(values, ends):
        formatted.append(np.size(values))
        return format_15g(values, ends)

    monkeypatch.setattr(table, "_format_15g", counted)
    path = tmp_path / "gap.json"
    path.write_text(state_to_json(GAP_STATE))
    for kt, k in ((13, 64), (1025, 32)):  # one gap, at t = pi/2; 1024 slices span four blocks
        formatted.clear()
        code, _, err = run(capsys, "sweep", "--pol", f"file:{path}", "--kt", str(kt), "--k", str(k))
        assert code == 0 and "skipped 1 time(s)" in err
        n = kt - 1
        assert sum(formatted) == k + n + n * k


def test_parity_cases_cover_every_subcommand():
    """tests/parity.py runs each subcommand of the parser and its --help."""
    import argparse

    import parity

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    argvs = [argv for _, argv in parity.CASES]
    assert {argv[0] for argv in argvs if "--help" not in argv} >= set(sub.choices)
    assert {argv[0] for argv in argvs if argv[1:] == ["--help"]} == set(sub.choices)
