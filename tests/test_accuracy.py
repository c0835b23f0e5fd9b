"""Accuracy against the 40-digit mpmath oracle of tests/oracles_mp.py, which starts from the
same float64 amplitudes: the phase density of coh:30 and the time density C(t)/2pi of
xcoh:30, each at four points of its grid (its peak among them), are within BOUND of the
output's peak. The largest errors measured are 2.6e-16 and 6.7e-16 of the peak."""
import mpmath
import numpy as np

import oracles
import oracles_mp
from relphase import absolute_time_pdf, angular_grid, phase_pdf
from relphase.cli import parse_pol_spec, parse_single_spec

BOUND = 1e-14


def relative_errors(got, want, points):
    """|got[i] - want(i)| / max(got) at each point i, in float."""
    peak = float(got.max())
    with mpmath.workdps(oracles_mp.DIGITS):
        return [float(abs(mpmath.mpf(float(got[i])) - want(i))) / peak for i in points]


def four_points(values):
    """The peak's index, the indices nearest a half and a tenth of it, and a third of the way."""
    near = [int(np.argmin(np.abs(values - f * values.max()))) for f in (1.0, 0.5, 0.1)]
    return (*near, values.size // 3)


def test_phase_density_of_coh_30_is_within_the_bound_of_the_oracle():
    state = parse_single_spec("coh:30", None, 1e-12)
    k = 1024
    density = phase_pdf(state, k)  # an FFT: its samples sit at the exact grid angles
    errors = relative_errors(density, lambda i: oracles_mp.phase_density(
        state.amplitudes, oracles_mp.grid_angle(i, k)), four_points(density))
    assert max(errors) <= BOUND, errors


def test_time_density_of_xcoh_30_is_within_the_bound_of_the_oracle():
    state = parse_pol_spec("xcoh:30", None, 1e-12)
    density = absolute_time_pdf(state)  # E @ a: it reads the float times of angular_grid
    times = angular_grid(density.size)
    jm = oracles.jm_map(oracles.state_dict(state))
    errors = relative_errors(density, lambda i: oracles_mp.conditioning_probability(
        jm, float(times[i])) / (2 * mpmath.pi), four_points(density))
    assert max(errors) <= BOUND, errors
    assert max(errors) > 0.0  # the oracle is not float64 arithmetic
