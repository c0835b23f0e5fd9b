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


def at_y_axis(columns):
    """The density at the rows whose phi is -pi/2 or pi/2; a grid of K divisible by 4 has both."""
    rows = {sign: np.flatnonzero(np.abs(columns["phi"] - sign * math.pi / 2) < 1e-9) for sign in (-1, 1)}
    assert rows[-1].size == rows[1].size > 0
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
