import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    AliasingError,
    PrimitiveConvention,
    SingleModeState,
    SupportError,
    TwoModeState,
    make_coherent_state,
    make_number_state,
    phase_pdf,
    phase_wavefunction,
)
from relphase.fock import angular_grid, scatter_series

TWO_TERM = SingleModeState(np.array([1.0, 1.0]) / math.sqrt(2))


def test_vacuum_wavefunction_is_flat():
    wf = phase_wavefunction(make_number_state(0, 0), 64)
    assert np.allclose(wf, 1.0)
    pdf = phase_pdf(make_number_state(0, 0), 64)
    assert np.allclose(pdf, 1 / (2 * np.pi))


def test_number_state_phase_is_uniform():
    wf = phase_wavefunction(make_number_state(3, 5), 64)
    assert np.allclose(np.abs(wf), 1.0)


def test_two_term_density_closed_form():
    pdf = phase_pdf(TWO_TERM, 512)
    phi = angular_grid(pdf.size)
    expected = (1 + np.cos(phi)) / (2 * np.pi)
    assert np.abs(pdf - expected).max() < 1e-14
    assert phi[np.argmax(pdf)] == 0.0


def test_fft_matches_direct_sum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = oracles.random_single(rng, 17)
        wf = phase_wavefunction(SingleModeState(psi), 128)
        direct = oracles.direct_series({n: psi[n] for n in range(18)}, angular_grid(128))
        assert np.abs(wf - direct).max() < 1e-12


def test_batched_series_with_offset_matches_direct_sum():
    # rows are independent series over frequencies lo, lo + 1, ...
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    k = 16
    values = scatter_series((3,), k, (...,), np.arange(-4, 5), coeffs)
    phi = angular_grid(k)
    for row, got in zip(coeffs, values):
        want = oracles.direct_series({m - 4: c for m, c in enumerate(row)}, phi)
        assert np.abs(got - want).max() < 1e-12


def test_aliasing_guard():
    with pytest.raises(AliasingError):
        phase_wavefunction(make_number_state(4, 4), 8)
    # K must exceed 2 n for the highest occupied n: at n 5, K 10 is refused and K 11
    # accepted, whatever n_max the state declares
    state = make_number_state(5, 9)
    with pytest.raises(AliasingError, match="grid size 10 admits aliasing"):
        phase_pdf(state, 10)
    assert abs(oracles.integral(phase_pdf(state, 11)) - 1.0) < 1e-12


def test_parseval_on_random_states():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n_max = rng.integers(0, 40)
        psi = oracles.random_single(rng, n_max)
        wf = phase_wavefunction(SingleModeState(psi), 256)
        assert abs(np.mean(np.abs(wf) ** 2) - 1.0) < 1e-10


def test_real_amplitudes_give_even_density():
    rng = np.random.default_rng(6)
    psi = np.abs(oracles.random_single(rng, 9))
    pdf = phase_pdf(SingleModeState.from_amplitudes(psi), 128)
    # phi_k and -phi_k live at indices k and K-k
    mirrored = np.roll(pdf[::-1], 1)
    assert np.abs(pdf - mirrored).max() < 1e-13


def test_shift_property_rotates_density():
    rng = np.random.default_rng(8)
    psi = oracles.random_single(rng, 7)
    k = 128
    steps = 11
    theta = steps * 2 * np.pi / k
    shifted = SingleModeState(psi * np.exp(-1j * np.arange(8) * theta))
    base = phase_pdf(SingleModeState(psi), k)
    moved = phase_pdf(shifted, k)
    # moved(phi) = base(phi + theta), a circular shift on the grid
    assert np.abs(moved - np.roll(base, -steps)).max() < 1e-12


def number_moments_from_samples(wf, order):
    """sum_n n^order |psi_n|^2, with psi_n recovered from the K samples by inverting
    psi(phi) = sum_n psi_n e^{-i n phi} over n = 0 .. K-1."""
    n = np.arange(wf.size)
    coeffs = np.exp(1j * np.outer(n, angular_grid(wf.size))) @ wf / wf.size
    return float(np.sum(n.astype(float) ** order * np.abs(coeffs) ** 2))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_wavefunction_samples_recover_number_moments(order):
    # K > n_max samples carry the whole number distribution: nothing aliases
    rng = np.random.default_rng(order)
    for _ in range(20):
        n_max = int(rng.integers(0, 25))
        psi = oracles.random_single(rng, n_max)
        got = number_moments_from_samples(phase_wavefunction(SingleModeState(psi), 256), order)
        want = float(np.sum(np.arange(n_max + 1) ** order * np.abs(psi) ** 2))
        assert abs(got - want) < 1e-8 * max(1.0, want)


def test_number_moment_coherent_mean():
    wf = phase_wavefunction(make_coherent_state(2.0), 1024)
    assert abs(number_moments_from_samples(wf, 1) - 4.0) < 1e-6


def test_two_term_density_zero_at_branch_cut():
    k = 1024
    pdf = phase_pdf(TWO_TERM, k)
    assert pdf[0] < 1e-30 and angular_grid(k)[0] == -np.pi  # exact zero at phi = -pi
    assert np.count_nonzero(pdf < 1e-6) == 1


def test_random_state_density_zeros_are_isolated():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = oracles.random_single(rng, 8)
        density = phase_pdf(SingleModeState(psi), 512)
        assert np.count_nonzero(density < 1e-30) <= 4
        counts = [np.count_nonzero(density < eps) for eps in (1e-2, 1e-6, 1e-12, 1e-30)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("phi, index", [
    (math.inf, None), (math.nan, None), (1e300, None), (4.0, None),
    (math.pi, 0), (-math.pi, 0), (-math.pi / 4, 3),
])
def test_value_at_takes_only_angles_in_minus_pi_to_pi(phi, index):
    # no grid resolves these: inf and nan have no index, and one ulp of 1e300 spans many cells
    pdf = phase_pdf(SingleModeState.from_amplitudes([1.0, 0.5]), 8)
    if index is None:
        with pytest.raises(ValueError, match=re.escape(f"phi={phi} ")):
            oracles.value_at(pdf, phi)
    else:
        assert oracles.value_at(pdf, phi) == pdf[index]


def test_value_at_accepts_grid_angles_and_refuses_off_grid_ones_at_k_2_24():
    # a grid angle's index rounds by up to K 2**-53: a fixed 1e-9 refused some from K 2**24 on
    k = 2**24
    density, phi = np.broadcast_to(1 / (2 * np.pi), (k,)), angular_grid(k)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, k, 2000).tolist():
        assert oracles.value_at(density, float(phi[i])) == 1 / (2 * np.pi)
    step = 2 * np.pi / k
    for i in rng.integers(0, k, 20).tolist():
        for off in (1e-6 * step, -1e-6 * step):
            with pytest.raises(ValueError, match="is not on the 16777216-point grid"):
                oracles.value_at(density, float(phi[i]) + off)


# --- the two-sided series of a shift-subspace state ------------------------------------------

parts = st.floats(-1.0, 1.0, allow_nan=False)
amplitudes = st.builds(complex, parts, parts)


@st.composite
def shift_subspace_cells(draw):
    """{(n_s, n_a): amplitude} on cells (m, 0) and (0, m) of the n_max <= 12 simplex, with at
    least one negative m = n_s - n_a, and that n_max."""
    n_max = draw(st.integers(1, 12))
    cells = [(m, 0) for m in range(n_max + 1)] + [(0, m) for m in range(1, n_max + 1)]
    amps = draw(st.dictionaries(st.sampled_from(cells), amplitudes, max_size=len(cells)))
    amps[(0, draw(st.integers(1, n_max)))] = draw(amplitudes.filter(lambda a: abs(a) >= 1e-3))
    return amps, n_max


def two_mode(amps, n_max, convention):
    cells = sorted(amps)
    ns, na = (np.array(x, dtype=int) for x in zip(*cells))
    return TwoModeState.from_cells(ns, na, [amps[c] for c in cells], n_max, convention)


conventions = st.sampled_from(list(PrimitiveConvention))


@given(shift_subspace_cells(), conventions, st.integers(1, 60))
def test_two_sided_density_is_the_direct_series_over_m(case, convention, k):
    state = two_mode(*case, convention)
    m = state.ns - state.na  # whatever the convention
    if k <= 2 * np.abs(m).max():
        for evaluate in (phase_pdf, phase_wavefunction):
            with pytest.raises(AliasingError, match=f"grid size {k} admits aliasing"):
                evaluate(state, k)
        return
    want = oracles.direct_series(dict(zip(m.tolist(), state.values.tolist())), angular_grid(k))
    assert np.max(np.abs(phase_pdf(state, k) - np.abs(want) ** 2 / (2 * np.pi))) <= 1e-12
    psi = phase_wavefunction(state, k)
    assert type(psi) is np.ndarray and psi.dtype == complex and psi.shape == (k,)
    assert not psi.flags.writeable
    assert abs(np.mean(np.abs(psi) ** 2) - 1.0) <= 1e-12


@given(shift_subspace_cells(), conventions, st.data())
def test_a_cell_with_both_modes_excited_is_refused_at_any_grid(case, convention, data):
    amps, n_max = case
    n_max += 1  # room for a cell with both modes excited
    both = data.draw(st.lists(st.tuples(st.integers(1, n_max - 1), st.integers(1, n_max - 1))
                              .filter(lambda c: sum(c) <= n_max), min_size=1, max_size=3))
    amps.update((cell, 1.0) for cell in both)
    state = two_mode(amps, n_max, convention)
    first = min(both)  # row-major order
    for k in (1, data.draw(st.integers(2, 4 * n_max + 8))):
        for evaluate in (phase_pdf, phase_wavefunction):
            with pytest.raises(SupportError, match=re.escape(f"(n_s, n_a) = {first};")):
                evaluate(state, k)
