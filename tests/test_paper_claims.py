"""The abstract's claims, read from the CLI's CSV output as a user would read them.

Each test runs commands in-process, parses the tables they write, and checks one
claim at its acceptance criterion's tolerances. test_acceptance.py checks the same
claims on the library's values; here the CLI layer (spec parsing, grid labels,
formatting, the table writer) sits between the kernel and the assertion.
"""
import math

import numpy as np
import pytest

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
