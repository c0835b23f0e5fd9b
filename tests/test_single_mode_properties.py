"""Property tests: single-mode kernels on the angular grid against the direct-sum oracles."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    AliasingError,
    SingleModeState,
    heterodyne_moments,
    make_coherent_state,
    make_number_state,
    pb_pmf,
    phase_cdf,
    phase_pdf,
    single_to_two_mode,
    y_moments,
)
from relphase.fock import angular_grid
from relphase.pegg_barnett import kolmogorov_distance

MAX_N = 24
amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
near_unit = st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False)

states = st.one_of(
    st.lists(amplitude, min_size=1, max_size=MAX_N + 1).filter(any).map(SingleModeState.from_amplitudes),
    st.integers(0, MAX_N).flatmap(
        lambda n_max: st.integers(0, n_max).map(lambda n: make_number_state(n, n_max))
    ),
    st.tuples(st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)).map(
        lambda p: make_coherent_state(math.sqrt(p[0]) * cmath.exp(1j * p[1]))
    ),
    # the squared norm underflows: from_amplitudes rescales before it divides
    st.lists(near_unit, min_size=1, max_size=MAX_N + 1).map(
        lambda amps: SingleModeState.from_amplitudes(np.array(amps) * 1e-160)
    ),
)


def series(state):
    return {n: c for n, c in enumerate(state.amplitudes.tolist())}


@given(states)
def test_moments_match_the_tensor_oracles(state):
    """Means and second moments of both extensions, so the +1/4 (heterodyne) and
    +|psi_0|^2/4 (shift) inflations of the second moments are pinned."""
    het, y = heterodyne_moments(state), y_moments(state)
    got = [het["mean_X"], het["mean_P"], het["second_X"], het["second_P"],
           y["mean_Y1"], y["mean_Y2"], y["second_Y1"], y["second_Y2"]]
    want = [*oracles.heterodyne_product_moments(state.amplitudes),
            *oracles.y_product_moments(state.amplitudes)]
    for value, oracle in zip(got, want):
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))


@given(states.flatmap(lambda s: st.tuples(st.just(s), st.integers(s.n_max, 3 * s.n_max + 5))))
def test_phase_cdf_on_the_pmf_grid_is_the_termwise_series(case):
    state, s = case
    theta = angular_grid(pb_pmf(state, s).size)
    assert np.max(np.abs(phase_cdf(state, theta) - oracles.series_cdf(state.amplitudes, theta))) < 1e-12


@given(states.flatmap(lambda s: st.tuples(st.just(s), st.integers(2 * s.n_max + 1, 4 * s.n_max + 8))))
def test_phase_density_integrates_to_one(case):
    state, k = case
    assert abs(oracles.integral(phase_pdf(state, k)) - 1.0) < 1e-12


@given(states.flatmap(lambda s: st.tuples(st.just(s), st.integers(s.n_max, 3 * s.n_max + 5))))
def test_pb_masses_match_the_direct_sum_on_the_angular_grid(case):
    state, s = case
    masses = pb_pmf(state, s)
    assert masses.size == s + 1
    want = np.abs(oracles.direct_series(series(state), angular_grid(s + 1))) ** 2 / (s + 1)
    assert np.max(np.abs(masses - want)) < 1e-12
    assert abs(math.fsum(masses) - 1.0) < 1e-12


@given(states.flatmap(lambda s: st.tuples(st.just(s), st.integers(1, 4 * s.n_max + 8))))
def test_two_sided_density_of_a_single_mode_is_its_phase_density(case):
    state, k = case
    two = single_to_two_mode(state)
    m_max = int(np.flatnonzero(state.amplitudes)[-1])  # the largest |m| of the two-sided support
    if k <= 2 * m_max:
        with pytest.raises(AliasingError):
            phase_pdf(state, k)
        with pytest.raises(AliasingError):
            phase_pdf(two, k)
        return
    two_sided = phase_pdf(two, k)
    want = oracles.direct_phase_pdf(state.amplitudes, angular_grid(k))
    assert np.max(np.abs(two_sided - want)) < 1e-12
    one_sided = phase_pdf(state, k)
    assert two_sided.size == one_sided.size == k
    assert np.max(np.abs(two_sided - one_sided)) < 1e-12


@st.composite
def sparse_states(draw):
    """States at n_max <= 300 with leading and trailing zeros: |n>, or a few occupied n."""
    n_max = draw(st.integers(0, 300))
    if draw(st.booleans()):
        return make_number_state(draw(st.integers(0, n_max)), n_max)
    occupied = draw(st.dictionaries(st.integers(0, n_max), near_unit, min_size=1, max_size=6))
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[list(occupied)] = list(occupied.values())
    return SingleModeState.from_amplitudes(amps)


@given(sparse_states(), st.lists(st.floats(-4.0, 4.0), max_size=8))
def test_the_occupied_support_is_held_once_and_bounds_the_cdf_loop_and_the_truncations(state, xs):
    ns = state.ns
    assert np.array_equal(ns, np.flatnonzero(state.amplitudes)) and not ns.flags.writeable
    assert state.ns is ns
    lo, hi = int(ns[0]), int(ns[-1])
    # the CDF's Horner loop over the occupied span gives the full loop's bits
    for x in (angular_grid(pb_pmf(state, hi).size), np.array(xs, dtype=float)):
        got, want = phase_cdf(state, x), oracles.horner_cdf(state.amplitudes, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # pb_pmf refuses just below the lowest occupied n, kolmogorov_distance just below the highest
    pb_pmf(state, lo)
    with pytest.raises(ValueError, match="is negative" if lo == 0 else "no support at or below"):
        pb_pmf(state, lo - 1)
    kolmogorov_distance(pb_pmf(state, hi), state)
    if hi > lo:
        with pytest.raises(ValueError, match="truncates the state"):
            kolmogorov_distance(pb_pmf(state, hi - 1), state)
