import math

import numpy as np
import pytest

import oracles
from relphase import (
    DiscretePhasePmf,
    SingleModeState,
    make_coherent_state,
    make_number_state,
    pb_convergence,
    pb_pmf,
    phase_cdf,
)
from relphase.pegg_barnett import kolmogorov_distance

TWO_TERM = SingleModeState(np.array([1.0, 1.0]) / math.sqrt(2))


def test_vacuum_masses_uniform():
    pmf = pb_pmf(make_number_state(0, 0), 3)
    assert np.allclose(pmf.masses, 0.25)
    assert np.allclose(pmf.theta, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])


def test_number_state_masses_uniform():
    pmf = pb_pmf(make_number_state(2, 4), 4)
    assert np.allclose(pmf.masses, 0.2)


def test_two_term_s1_concentrates_at_zero():
    pmf = pb_pmf(TWO_TERM, 1)
    assert np.allclose(pmf.theta, [-np.pi, 0.0])
    assert abs(pmf.masses[0]) < 1e-15
    assert abs(pmf.masses[1] - 1.0) < 1e-15


def test_truncation_renormalizes_before_measuring():
    # support beyond s must be cut and the rest renormalized
    state = SingleModeState(np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
    pmf = pb_pmf(state, 1)
    two = pb_pmf(TWO_TERM, 1)
    assert np.allclose(pmf.masses, two.masses)


def test_truncation_whose_squared_norm_underflows_is_renormalized():
    # the amplitudes at n <= 4 have a squared norm of 2e-320, below the smallest normal float
    state = SingleModeState.from_amplitudes([1e-160, 1e-160] + [0.0] * 8 + [1.0])
    pmf = pb_pmf(state, 4)
    assert abs(pmf.masses.sum() - 1.0) < 1e-14
    assert np.allclose(pmf.masses, (1 + np.cos(pmf.theta)) / 5, rtol=0, atol=1e-15)


def test_masses_match_density_pointwise_once_truncation_clears():
    # for s >= n_max the mass at theta_m is exactly 2 pi P(theta_m)/(s+1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        psi = oracles.random_single(rng, 12)
        for s in (16, 64, 256):
            pmf = pb_pmf(SingleModeState(psi), s)
            dens = oracles.direct_phase_pdf(psi, pmf.theta)
            scaled = pmf.masses * (s + 1) / (2 * np.pi)
            assert np.abs(scaled - dens).max() < 1e-12  # calibrated; well under 10/s


def test_phase_cdf_matches_numeric_integration():
    rng = np.random.default_rng(2)
    xs = np.linspace(-np.pi, np.pi, 41)
    for _ in range(5):
        psi = oracles.random_single(rng, 8)
        got = phase_cdf(SingleModeState(psi), xs)
        want = oracles.numeric_cdf(psi, xs)
        assert np.abs(got - want).max() < 1e-7
    assert abs(phase_cdf(SingleModeState(psi), np.array([np.pi]))[0] - 1.0) < 1e-12


@pytest.mark.parametrize("n_max", [0, 1, 2, 300])
def test_phase_cdf_matches_termwise_series(n_max):
    rng = np.random.default_rng(n_max)
    psi = oracles.random_single(rng, n_max)
    on_grid = -np.pi + 2 * np.pi * np.arange(n_max + 2) / (n_max + 2)
    xs = np.concatenate([on_grid, rng.uniform(-10.0, 10.0, 200), [-np.pi, np.pi, 7.5]])
    got = phase_cdf(SingleModeState(psi), xs)
    assert np.abs(got - oracles.series_cdf(psi, xs)).max() < 1e-12


def test_vacuum_distance_bounded_by_grid_spacing():
    for s in (3, 10, 101):
        (d,) = pb_convergence(make_number_state(0, 0), [s])
        assert d <= 1 / (s + 1) + 1e-12


def test_one_photon_distance_bounded_by_grid_spacing():
    for s in (1, 33, 128):
        (d,) = pb_convergence(make_number_state(1, 1), [s])
        assert d <= 1 / (s + 1) + 1e-12


def test_two_term_distances_strictly_decrease():
    d64, d128, d256 = pb_convergence(TWO_TERM, [64, 128, 256])
    assert d64 > d128 > d256


def test_distances_halve_along_doubling_truncations():
    state = make_coherent_state(1.0)
    ds = pb_convergence(state, [32, 64, 128, 256, 512])
    for a, b in zip(ds, ds[1:]):
        assert b < a


def test_rejects_truncating_s():
    with pytest.raises(ValueError):
        pb_convergence(make_number_state(3, 3), [2])


def test_distance_refuses_a_pmf_of_a_truncated_state():
    # occupied n = 0 and 3: s = 2 keeps mass at n = 0 but truncates the state
    state = SingleModeState.from_amplitudes([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="truncates the state"):
        kolmogorov_distance(pb_pmf(state, 2), state)
    # |1> declared at n_max 3 occupies n = 1 alone: s = 1 truncates nothing
    padded, tight = make_number_state(1, 3), make_number_state(1, 1)
    want = kolmogorov_distance(pb_pmf(tight, 1), tight)
    assert kolmogorov_distance(pb_pmf(padded, 1), padded) == want


@pytest.mark.parametrize("s", [-3, -1, 2])
def test_pmf_refuses_a_truncation_without_support(s):
    with pytest.raises(ValueError, match=f"no support at or below n={s}"):
        pb_pmf(make_number_state(3, 5), s)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_discrete_pmf_refuses_non_finite_masses(bad):
    with pytest.raises(ValueError, match="finite"):
        DiscretePhasePmf([bad] * 4)


def test_discrete_pmf_refuses_masses_that_do_not_sum_to_one():
    DiscretePhasePmf([0.5, 0.5])
    with pytest.raises(ValueError, match="^masses must sum to 1$"):
        DiscretePhasePmf([0.5, 0.25])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_cdf_refuses_a_point_that_is_not_finite(bad):
    # a nan point once gave a nan CDF value, and inf a numpy warning
    state = make_coherent_state(1.0)
    with pytest.raises(ValueError) as err:
        phase_cdf(state, np.array([0.0, bad]))
    assert str(err.value) == f"phase {bad} is not finite"


@pytest.mark.parametrize("call, value", [
    # each once met numpy's "slice indices must be integers or None or have an __index__ method"
    (lambda state: pb_pmf(state, 20.5), "20.5"),
    (lambda state: pb_pmf(state, 20.0), "20.0"),
    (lambda state: pb_convergence(state, [20.5]), "20.5"),
], ids=["pb_pmf", "pb_pmf-float", "pb_convergence"])
def test_a_truncation_that_is_not_an_integer_is_refused(call, value):
    with pytest.raises(TypeError) as err:
        call(make_coherent_state(1.0))
    assert str(err.value) == f"truncation {value} is not an integer"


def test_integer_like_truncations_read_as_integers():
    state = make_coherent_state(1.0)
    assert np.array_equal(pb_pmf(state, np.int64(20)).masses, pb_pmf(state, 20).masses)
    assert np.array_equal(pb_pmf(make_number_state(0, 3), True).masses, [0.5, 0.5])
