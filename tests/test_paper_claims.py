"""The abstract's claims, read from the CLI's CSV or JSON output as a user would read them.

Each test runs commands in-process, parses the tables or JSON they write, and checks one
claim at its acceptance criterion's tolerances. test_acceptance.py checks the same
claims on the library's values; here the CLI layer (spec parsing, grid labels,
formatting, the table writer) sits between the kernel and the assertion.
"""
import json
import math

import numpy as np
import pytest

import oracles
from relphase.cli import main


def table(capsys, *argv):
    """{column: values} of the CSV a command writes to stdout."""
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), data.T))


def rows_at(columns, key, x):
    """Indices of the rows whose `key` column reads x (to 1e-9); at least one must."""
    rows = np.flatnonzero(np.abs(columns[key] - x) < 1e-9)
    assert rows.size > 0, f"no row at {key} = {x}"
    return rows


def at_y_axis(columns):
    """The density at the rows whose phi is -pi/2 or pi/2; a grid of K divisible by 4 has both."""
    rows = {sign: rows_at(columns, "phi", sign * math.pi / 2) for sign in (-1, 1)}
    assert rows[-1].size == rows[1].size
    return columns["density"][np.concatenate([rows[-1], rows[1]])]


# "an odd number of x-polarized photons will never have an angle in correspondence with
# the y-axis; but an even number of x-polarized photons always can"
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_odd_x_photon_numbers_never_point_along_y_and_even_ones_can(capsys, n):
    marginal = at_y_axis(table(capsys, "ellipse", "--pol", f"xnum:{n}", "--k", "1024"))
    snapshots = table(capsys, "sweep", "--pol", f"xnum:{n}", "--kt", "5", "--k", "1024")
    assert np.unique(snapshots["t"]).size == 5  # no time refused: every snapshot is checked
    density = np.concatenate([marginal, at_y_axis(snapshots)])
    assert density.size == 2 + 2 * 5
    if n % 2:
        assert density.max() < 1e-14
    else:
        assert density.min() > 1e-6


# "the marginal measurement corresponds to a quantum version of the polarization ellipse":
# the ellipse's dB view peaks at 60 dB on the x axis and falls by criterion 04's contrast
# at phi = pi/2, and its density there is criterion 03's
def test_the_ellipse_falls_from_its_60_db_peak_by_criterion_04s_contrast_at_the_y_axis(capsys):
    def contrast(mean):
        columns = table(capsys, "ellipse", "--pol", f"xcoh:{mean}", "--k", "1024", "--db")
        (x_axis,), (y_axis,) = (columns["db"][rows_at(columns, "phi", phi)] for phi in (0.0, math.pi / 2))
        assert columns["db"].max() == x_axis == 60.0
        return 60.0 - y_axis

    assert 35.0 <= contrast(9) <= 40.0
    assert 20.0 < contrast(4) <= 30.0


def test_the_ellipse_density_at_the_y_axis_is_criterion_03s(capsys):
    def y_axis(mean):
        columns = table(capsys, "ellipse", "--pol", f"xcoh:{mean}", "--k", "1024")
        (density,) = columns["density"][rows_at(columns, "phi", math.pi / 2)]
        return density

    assert 0.055 <= y_axis(1) <= 0.075  # "slightly over 6%"
    assert y_axis(9) < 2e-4


# "the probability distribution of absolute time ... has an influence on how these snapshot
# angular distributions evolve": at mean 9 the time density all but vanishes at t = pi/2,
# and the snapshot there is broader, its peak between 1/4 and 1 of the peak at t = 0
def test_absolute_time_density_and_snapshot_peaks_at_a_quarter_period_are_criterion_05s(capsys):
    time = table(capsys, "timepdf", "--pol", "xcoh:9", "--kt", "40")
    (c0,), (c_half,) = (time["density"][rows_at(time, "t", t)] for t in (0.0, math.pi / 2))
    assert c0 == time["density"].max() and c_half / c0 < 1e-3  # absolute time peaks at t = 0
    sweep = table(capsys, "sweep", "--pol", "xcoh:9", "--kt", "3", "--k", "1024")
    assert np.unique(sweep["t"]).size == 3
    peak0, peak_half = (sweep["density"][rows_at(sweep, "t", t)].max() for t in (0.0, math.pi / 2))
    assert 0.25 < peak_half / peak0 < 1.0


def single_mode_file(tmp_path, amps):
    """A file: spec of the single-mode state with number amplitudes amps, renormalized on read."""
    rows = [[n, 0, a, 0.0] for n, a in enumerate(amps) if a]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "single", "n_max": len(amps) - 1, "amps": rows}))
    return f"file:{path}"


# "a conditional measurement which takes a snapshot in absolute time (corresponding to adding
# probability amplitudes)": in Eq. 67's state the two branches' amplitudes cancel at phi = -pi
# at t = 0, leaving criterion 02's analytic ratio, and the peak moves from 0 to -pi by t = pi
def test_the_eq67_snapshot_falls_at_minus_pi_by_criterion_02s_ratio_and_its_peak_flips(capsys):
    sweep = table(capsys, "sweep", "--pol", "xsup:1,1;2,1", "--kt", "3", "--k", "1024")
    assert np.abs(np.unique(sweep["t"]) - [0.0, math.pi / 2, math.pi]).max() < 1e-12

    def snapshot(t):
        rows = rows_at(sweep, "t", t)
        return {key: column[rows] for key, column in sweep.items()}

    def peak_phi(snap):
        return snap["phi"][np.argmax(snap["density"])]

    at_0 = snapshot(0.0)
    (minus_pi,), (zero,) = (at_0["density"][rows_at(at_0, "phi", phi)] for phi in (-math.pi, 0.0))
    analytic = ((1 - math.sqrt(2) + 2**-0.5) / (1 + math.sqrt(2) + 2**-0.5)) ** 2
    assert abs(minus_pi / zero - analytic) < 1e-10
    assert abs(peak_phi(at_0)) < 1e-9 and abs(peak_phi(snapshot(math.pi)) + math.pi) < 1e-9


# "the limited dimensionality of the state space is shown to prevent wavefunction collapse":
# the Pegg-Barnett masses on s + 1 angles approach the continuous density as s grows, and
# criterion 09's Kolmogorov distances fall strictly from s = 64 to 128 to 256, ending below 0.02
@pytest.mark.parametrize("state", ["num:0", "num:1", "(|0>+|1>)/sqrt2", "coh:1", "coh:2"])
def test_the_pegg_barnett_distances_fall_with_s_to_criterion_09s_bound(capsys, tmp_path, state):
    spec = single_mode_file(tmp_path, [1.0, 1.0]) if state.startswith("(") else state
    report = tmp_path / "pb.json"
    masses = table(capsys, "pb", "--state", spec, "--s", "64,128,256", "--report", str(report))
    assert np.unique(masses["s"]).tolist() == [64, 128, 256]
    doc = json.loads(report.read_text())
    assert [row["s"] for row in doc] == [64, 128, 256]
    d64, d128, d256 = (row["distance"] for row in doc)
    assert d64 > d128 > d256 and d256 < 0.02


# "an auxiliary system is shown to function as a noise source and the fuzzy statistics
# manifest": criterion 07's moment identities, the joint cosine/sine outcome of unit magnitude
# and each joint quadrature variance the intrinsic one plus 1/4 of inflation
VARIANCES = {  # (var_X, var_P): the intrinsic variances, (2n + 1)/4 and (3 +- sqrt2)/4, plus 1/4
    **{f"num:{n}": ((n + 1) / 2, (n + 1) / 2) for n in range(5)},
    "(|0>+|2>)/sqrt2": (1 + math.sqrt(2) / 4, 1 - math.sqrt(2) / 4),
}


@pytest.mark.parametrize("state", VARIANCES)
def test_the_joint_moments_carry_criterion_07s_unit_magnitude_and_quarter_inflation(capsys, tmp_path, state):
    spec = single_mode_file(tmp_path, [1.0, 0.0, 1.0]) if state.startswith("(") else state
    assert main(["moments", "--state", spec]) == 0
    moments = json.loads(capsys.readouterr().out)
    assert abs(moments["second_Y1"] + moments["second_Y2"] - 1.0) < 1e-12
    var_x, var_p = VARIANCES[state]
    assert abs(moments["var_X"] - var_x) < 1e-12 and abs(moments["var_P"] - var_p) < 1e-12


# "the first layer is comprised of a simple Fourier transform of the complementary
# wavefunction": by Parseval each written density integrates to 1 as the periodic Riemann sum
# on its K-point grid, to criterion 11's normalization tolerance
@pytest.mark.parametrize("argv", [
    ["phase", "--state", "coh:9", "--k", "256"],
    ["ellipse", "--pol", "xsup:0,1;1,0.5;3,0.2", "--k", "256"],
], ids=["phase", "ellipse"])
def test_each_written_density_integrates_to_1_within_criterion_11s_tolerance(capsys, argv):
    columns = table(capsys, *argv)
    assert columns["phi"].size == 256 and abs(columns["phi"][0] + math.pi) < 1e-9
    assert abs(columns["density"].sum() * 2 * math.pi / 256 - 1.0) < 1e-8


# "a marginal measurement which takes an average in absolute time (corresponding to adding
# probabilities)": criterion 08's mixture identity, the C-weighted snapshots averaged over one
# period reproduce the ellipse. A photonic C is pi-periodic and P_C(phi; t + pi) = P_C(phi + pi; t),
# so with t_i = pi i / N the identity reads ellipse(phi) = (1/2N) sum_{i<N} C(t_i) [P_C(phi; t_i) +
# P_C(phi + pi; t_i)], exact once 2N > j_max - j_min (timepdf --kt 2N refuses less). sweep --kt N+1
# writes P_C at t_0..t_N (t_N = pi repeats t_0); timepdf --kt 2N writes C/2pi at -pi + pi i / N, so
# its rows N..2N-1 are t_0..t_{N-1}; a gap time, C <= 1e-12, has no rows and adds 0.
@pytest.mark.parametrize("spec,k,n,gaps", [("xcoh:9", 128, 20, False), ("xcoh:100", 360, 90, True)])
def test_c_weighted_snapshots_average_to_the_ellipse_within_criterion_08s_tolerance(capsys, spec, k, n, gaps):
    ellipse = table(capsys, "ellipse", "--pol", spec, "--k", str(k))["density"]
    time = table(capsys, "timepdf", "--pol", spec, "--kt", str(2 * n))
    assert np.abs(time["t"] - (-math.pi + math.pi * np.arange(2 * n) / n)).max() < 1e-12
    c = 2 * math.pi * time["density"][n:]
    sweep = table(capsys, "sweep", "--pol", spec, "--kt", str(n + 1), "--k", str(k))
    slices = np.rint(sweep["t"] * n / math.pi).astype(int)
    assert np.abs(sweep["t"] - math.pi * slices / n).max() < 1e-12
    assert (np.unique(slices).size < n + 1) == gaps  # the gapped state does skip times
    mixture = np.zeros(k)
    for i in np.unique(slices[slices < n]):
        snapshot = sweep["density"][slices == i]
        assert snapshot.size == k
        mixture += c[i] * (snapshot + np.roll(snapshot, -k // 2))
    assert np.abs(mixture / (2 * n) - ellipse).max() < 1e-8


# "the snapshot angular distributions are seen to evolve into two counter-rotating peaks
# resulting in considerable correspondence with the y-axis at the time for which a classical
# linear polarization vector would shrink to zero length": at mean 30 each snapshot from
# t = pi/4 to 3pi/4 has exactly two peaks, within one grid step of phi = -t and t (side lobes
# stay below 4e-4 of the slice's maximum), and at t = pi/2, where the classical vector
# cos(t) x is zero, the slice is largest on the y-axis
def test_snapshots_split_into_two_counter_rotating_peaks_that_meet_the_y_axis_at_a_quarter_period(capsys):
    k = 720
    sweep = table(capsys, "sweep", "--pol", "xcoh:30", "--kt", "9", "--k", str(k))
    assert np.unique(sweep["t"]).size == 9

    def snapshot(t):
        rows = rows_at(sweep, "t", t)
        return sweep["phi"][rows], sweep["density"][rows]

    for i in range(2, 7):
        t = math.pi * i / 8
        phi, density = snapshot(t)
        peaks = phi[oracles.local_maxima(density, floor=0.01 * density.max())]
        assert peaks.size == 2 and np.abs(peaks - [-t, t]).max() <= 2 * math.pi / k
    phi, density = snapshot(math.pi / 2)
    assert abs(abs(phi[np.argmax(density)]) - math.pi / 2) < 1e-9
    phi, density = snapshot(0.0)  # at t = 0 one peak on the x axis, and the y-axis all but empty
    assert phi[oracles.local_maxima(density)].tolist() == [0.0]
    assert density[np.abs(np.abs(phi) - math.pi / 2) < 1e-9].max() < 1e-12 * density.max()


# "the phenomena of super-resolution are readily apparent in the quantum phase representation
# which also reveals that entanglement is not required": one mode's (|0> + |5>)/sqrt2 has
# fringes of period 2pi/5, (1 + cos 5 phi)/2pi, with no second mode to entangle; the two-mode
# (|5,0> + |0,5>)/sqrt2, photonic m = 5 and -5 in one branch, doubles them: (1 + cos 10 phi)/2pi
def test_super_resolution_fringes_need_no_entanglement(capsys, tmp_path):
    phase = table(capsys, "phase", "--state", single_mode_file(tmp_path, [1.0, 0, 0, 0, 0, 1.0]),
                  "--k", "64")
    assert np.abs(phase["density"] - (1 + np.cos(5 * phase["phi"])) / (2 * math.pi)).max() < 1e-12
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"kind": "two", "n_max": 5, "amps": [[0, 5, 1.0, 0.0], [5, 0, 1.0, 0.0]]}))
    ellipse = table(capsys, "ellipse", "--pol", f"file:{path}", "--k", "64")
    assert np.abs(ellipse["density"] - (1 + np.cos(10 * ellipse["phi"])) / (2 * math.pi)).max() < 1e-12
