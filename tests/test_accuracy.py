"""Accuracy against the 40-digit mpmath oracle of tests/oracles_mp.py, which starts from the
same float64 amplitudes the kernels read. Each output is checked at four points, its peak
among them where it is sampled on a grid, within BOUND of the output's peak: coh:30's phase
density, Pegg-Barnett masses at s = 64 and phase CDF at four float x; xcoh:30's time density
C(t)/2pi, marginal and one live snapshot; and the two-sided density of a shift-subspace state
with negative m."""
import math

import mpmath
import numpy as np

import oracles
import oracles_mp
from relphase import (SingleModeState, TwoModeState, absolute_time_pdf, angular_grid, marginal_pdf,
                      pb_pmf, phase_cdf, phase_pdf, snapshot_sweep)
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


def test_marginal_of_xcoh_30_is_within_the_bound_of_the_oracle():
    state = parse_pol_spec("xcoh:30", None, 1e-12)
    k = 512
    density = marginal_pdf(state, k)  # FFTs: their samples sit at the exact grid angles
    points = four_points(density)
    want = oracles_mp.marginal_density(oracles.jm_map(oracles.state_dict(state)),
                                       [oracles_mp.grid_angle(i, k) for i in points])
    errors = relative_errors(density, dict(zip(points, want)).get, points)
    assert max(errors) <= BOUND, errors


def test_a_live_snapshot_of_xcoh_30_is_within_the_bound_of_the_oracle():
    state = parse_pol_spec("xcoh:30", None, 1e-12)
    k, t = 512, math.pi / 8  # a time of the sweep --kt 9 grid, read as its float
    density = snapshot_sweep(state, [t], k)[0]
    points = four_points(density)
    want = oracles_mp.snapshot_density(oracles.jm_map(oracles.state_dict(state)), t,
                                       [oracles_mp.grid_angle(i, k) for i in points])
    errors = relative_errors(density, dict(zip(points, want)).get, points)
    assert max(errors) <= BOUND, errors


def test_pb_masses_of_coh_30_at_s_64_are_within_the_bound_of_the_oracle():
    state = parse_single_spec("coh:30", None, 1e-12)
    s = 64  # below coh:30's n_max of 76: the masses are of the renormalized truncation
    masses = pb_pmf(state, s)
    psi = SingleModeState.from_amplitudes(state.amplitudes[: s + 1]).amplitudes
    errors = relative_errors(masses, lambda i: oracles_mp.pb_mass(psi, i, s), four_points(masses))
    assert max(errors) <= BOUND, errors


def test_phase_cdf_of_coh_30_at_four_angles_is_within_the_bound_of_the_oracle():
    state = parse_single_spec("coh:30", None, 1e-12)
    xs = np.array([-0.3, -0.05, 0.1, 2.0])  # the tail, near half, the rise, the plateau
    cdf = phase_cdf(state, xs)
    errors = relative_errors(cdf, lambda i: oracles_mp.phase_cdf(state.amplitudes, xs[i]),
                             range(xs.size))
    assert max(errors) <= BOUND, errors


def test_two_sided_density_of_a_shift_subspace_state_is_within_the_bound_of_the_oracle():
    amp = oracles.random_hprime_amp(np.random.default_rng(34), 20)  # m = -20..20
    state = TwoModeState(*oracles.cells(amp), 20)
    k = 128
    density = phase_pdf(state, k)
    m = state.ns - state.na
    # |sum_m c_m z^m| = |sum_m c_m z^(m - m_min)| for |z| = 1: the one-sided oracle reads the
    # coefficients shifted to start at 0
    coeffs = np.zeros(m.max() - m.min() + 1, dtype=complex)
    coeffs[m - m.min()] = state.values
    errors = relative_errors(density, lambda i: oracles_mp.phase_density(
        coeffs, oracles_mp.grid_angle(i, k)), four_points(density))
    assert max(errors) <= BOUND, errors
