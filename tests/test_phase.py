import math

import numpy as np
import pytest

import oracles
from relphase import (
    AliasingError,
    SingleModeState,
    make_coherent_state,
    make_number_state,
    ml_phase_pdf,
    number_moment_spectral,
    paley_wiener_diagnostics,
    phase_pdf,
    phase_wavefunction,
)
from relphase.phase import angular_grid, eval_fourier_series

TWO_TERM = SingleModeState(np.array([1.0, 1.0]) / math.sqrt(2))


def test_vacuum_wavefunction_is_flat():
    wf = phase_wavefunction(make_number_state(0, 0), 64)
    assert np.allclose(wf.values, 1.0)
    pdf = phase_pdf(make_number_state(0, 0), 64)
    assert np.allclose(pdf.density, 1 / (2 * np.pi))


def test_number_state_phase_is_uniform():
    wf = phase_wavefunction(make_number_state(3, 5), 64)
    assert np.allclose(np.abs(wf.values), 1.0)


def test_two_term_density_closed_form():
    pdf = phase_pdf(TWO_TERM, 512)
    expected = (1 + np.cos(pdf.phi)) / (2 * np.pi)
    assert np.abs(pdf.density - expected).max() < 1e-14
    assert pdf.phi[np.argmax(pdf.density)] == 0.0


def test_fft_matches_direct_sum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = oracles.random_single(rng, 17)
        wf = phase_wavefunction(SingleModeState(psi), 128)
        direct = oracles.direct_series({n: psi[n] for n in range(18)}, wf.phi)
        assert np.abs(wf.values - direct).max() < 1e-12


def test_batched_series_with_offset_matches_direct_sum():
    # rows are independent series over frequencies lo, lo + 1, ...
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    k = 16
    values = eval_fourier_series(coeffs, k, lo=-4)
    phi = angular_grid(k)
    for row, got in zip(coeffs, values):
        want = oracles.direct_series({m - 4: c for m, c in enumerate(row)}, phi)
        assert np.abs(got - want).max() < 1e-12
    with pytest.raises(AliasingError):
        eval_fourier_series(coeffs, 8, lo=-4)


def test_aliasing_guard():
    with pytest.raises(AliasingError):
        phase_wavefunction(make_number_state(3, 4), 8)
    # K must exceed 2 n_max: at n_max 5, K 10 is refused and K 11 accepted
    state = make_number_state(5, 5)
    with pytest.raises(AliasingError, match="grid size 10 admits aliasing"):
        phase_pdf(state, 10)
    assert abs(phase_pdf(state, 11).integral() - 1.0) < 1e-12


def test_parseval_on_random_states():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n_max = rng.integers(0, 40)
        psi = oracles.random_single(rng, n_max)
        wf = phase_wavefunction(SingleModeState(psi), 256)
        assert abs(wf.norm_squared() - 1.0) < 1e-10


def test_real_amplitudes_give_even_density():
    rng = np.random.default_rng(6)
    psi = np.abs(oracles.random_single(rng, 9))
    pdf = phase_pdf(SingleModeState.from_amplitudes(psi), 128)
    # phi_k and -phi_k live at indices k and K-k
    mirrored = np.roll(pdf.density[::-1], 1)
    assert np.abs(pdf.density - mirrored).max() < 1e-13


def test_shift_property_rotates_density():
    rng = np.random.default_rng(8)
    psi = oracles.random_single(rng, 7)
    k = 128
    steps = 11
    theta = steps * 2 * np.pi / k
    shifted = SingleModeState(psi * np.exp(-1j * np.arange(8) * theta))
    base = phase_pdf(SingleModeState(psi), k).density
    moved = phase_pdf(shifted, k).density
    # moved(phi) = base(phi + theta), a circular shift on the grid
    assert np.abs(moved - np.roll(base, -steps)).max() < 1e-12


def test_ml_pdf_equals_plain_for_nonnegative_real_amplitudes():
    rng = np.random.default_rng(10)
    psi = np.abs(oracles.random_single(rng, 6))
    state = SingleModeState.from_amplitudes(psi)
    assert np.allclose(ml_phase_pdf(state, 128).density, phase_pdf(state, 128).density)


def test_ml_pdf_strips_phases():
    a = SingleModeState(np.array([1.0,  1.0]) / math.sqrt(2))
    b = SingleModeState(np.array([1.0, 1.0j]) / math.sqrt(2))
    assert np.allclose(ml_phase_pdf(b, 64).density, phase_pdf(a, 64).density)


def test_ml_pdf_vacuum_uniform():
    pdf = ml_phase_pdf(make_number_state(0, 0), 64)
    assert np.allclose(pdf.density, 1 / (2 * np.pi))


def test_number_moments_trivial_cases():
    assert abs(number_moment_spectral(make_number_state(0, 0), 1, 64)) < 1e-12
    assert abs(number_moment_spectral(make_number_state(3, 5), 2, 64) - 9.0) < 1e-10


def test_number_moment_coherent_mean():
    state = make_coherent_state(2.0)
    assert abs(number_moment_spectral(state, 1) - 4.0) < 1e-6


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_spectral_moments_match_direct_sums(order):
    rng = np.random.default_rng(order)
    for _ in range(100):
        n_max = rng.integers(0, 25)
        psi = oracles.random_single(rng, n_max)
        got = number_moment_spectral(SingleModeState(psi), order, 256)
        want = float(np.sum(np.arange(n_max + 1) ** order * np.abs(psi) ** 2))
        assert abs(got - want) < 1e-8


def test_paley_wiener_vacuum():
    report = paley_wiener_diagnostics(phase_pdf(make_number_state(0, 0), 64))
    assert report.integral_log_abs == 0.0
    assert abs(report.min_density - 1 / (2 * np.pi)) < 1e-15
    assert not report.floored


def test_paley_wiener_two_term_zero_at_branch_cut():
    k = 1024
    report = paley_wiener_diagnostics(phase_pdf(TWO_TERM, k))
    assert report.min_density < 1e-30  # exact zero at phi = -pi
    assert report.fraction_below(1e-6) == 1 / k
    assert report.floored


def test_paley_wiener_isolated_zeros_fraction_vanishes():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = oracles.random_single(rng, 8)
        report = paley_wiener_diagnostics(phase_pdf(SingleModeState(psi), 512))
        assert report.fraction_below(1e-30) <= 4 / 512
        fr = [report.fraction_below(eps) for eps in (1e-2, 1e-6, 1e-12, 1e-30)]
        assert all(a >= b for a, b in zip(fr, fr[1:]))
