import math

import numpy as np
import pytest

import oracles
from relphase import (
    AliasingError,
    SingleModeState,
    SupportError,
    TwoModeState,
    heterodyne_moments,
    make_coherent_state,
    make_number_state,
    phase_pdf,
    single_to_two_mode,
    y_moments,
)


def test_heterodyne_vacuum():
    m = heterodyne_moments(make_number_state(0, 0))
    assert m["mean_X"] == m["mean_P"] == 0.0
    assert abs(m["var_X"] - 0.5) < 1e-15
    assert abs(m["var_P"] - 0.5) < 1e-15


def test_heterodyne_coherent_real_alpha():
    m = heterodyne_moments(make_coherent_state(1.3))
    assert abs(m["mean_X"] - 1.3) < 1e-8
    assert abs(m["mean_P"]) < 1e-12
    assert abs(m["var_X"] - 0.5) < 1e-8
    assert abs(m["var_P"] - 0.5) < 1e-8


def test_heterodyne_one_photon():
    m = heterodyne_moments(make_number_state(1, 1))
    assert m["mean_X"] == 0.0
    assert abs(m["second_X"] - 1.0) < 1e-15  # <chi^2> = 3/4 plus 1/4 of added noise


def test_heterodyne_matches_tensor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        psi = oracles.random_single(rng, 12)
        m = heterodyne_moments(SingleModeState(psi))
        ox, op, ox2, op2 = oracles.heterodyne_product_moments(psi)
        assert abs(m["mean_X"] - ox) < 1e-12
        assert abs(m["mean_P"] - op) < 1e-12
        assert abs(m["second_X"] - ox2) < 1e-12
        assert abs(m["second_P"] - op2) < 1e-12


def test_heterodyne_inflation_is_quarter():
    rng = np.random.default_rng(1)
    for _ in range(30):
        psi = oracles.random_single(rng, 10)
        m = heterodyne_moments(SingleModeState(psi))
        var_chi, var_rho = oracles.single_mode_quadrature_var(psi)
        assert abs((m["var_X"] - var_chi) - 0.25) < 1e-12
        assert abs((m["var_P"] - var_rho) - 0.25) < 1e-12


def test_y_vacuum():
    m = y_moments(make_number_state(0, 0))
    assert m["mean_Y1"] == m["mean_Y2"] == 0.0
    assert abs(m["second_Y1"] - 0.5) < 1e-15
    assert abs(m["second_Y2"] - 0.5) < 1e-15


def test_y_number_state():
    m = y_moments(make_number_state(5, 6))
    assert m["mean_Y1"] == m["mean_Y2"] == 0.0
    assert abs(m["second_Y1"] - 0.5) < 1e-15
    assert abs(m["second_Y2"] - 0.5) < 1e-15
    assert m["vac_prob"] == 0.0


def test_y_two_term():
    m = y_moments(SingleModeState(np.array([1.0, 1.0]) / math.sqrt(2)))
    assert abs(m["mean_Y1"] - 0.5) < 1e-15
    assert abs(m["mean_Y2"]) < 1e-15


def test_y_matches_tensor_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        psi = oracles.random_single(rng, 14)
        m = y_moments(SingleModeState(psi))
        o1, o2, o1s, o2s = oracles.y_product_moments(psi)
        assert abs(m["mean_Y1"] - o1) < 1e-12
        assert abs(m["mean_Y2"] - o2) < 1e-12
        assert abs(m["second_Y1"] - o1s) < 1e-12
        assert abs(m["second_Y2"] - o2s) < 1e-12


def test_unit_magnitude_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        psi = oracles.random_single(rng, 20)
        m = y_moments(SingleModeState(psi))
        assert abs(m["second_Y1"] + m["second_Y2"] - 1.0) < 1e-12


def test_commutator_check_vacuum():
    sum_rule, commutator = oracles.commutator_check(make_number_state(0, 0).amplitudes)
    assert sum_rule < 1e-15
    assert commutator < 1e-15


def test_commutator_check_random_states():
    rng = np.random.default_rng(4)
    for _ in range(25):
        psi = oracles.random_single(rng, 19)
        sum_rule, commutator = oracles.commutator_check(SingleModeState(psi).amplitudes)
        assert sum_rule < 1e-12
        assert commutator < 1e-12


def test_commutator_check_edge_state():
    # support at n_max relies on the oracle's zero padding
    sum_rule, commutator = oracles.commutator_check(make_number_state(6, 6).amplitudes)
    assert sum_rule < 1e-12
    assert commutator < 1e-12


def test_phase_pdf_of_a_single_mode_embedding_is_the_single_modes_bit_for_bit():
    rng = np.random.default_rng(5)
    psi = oracles.random_single(rng, 9)
    single = SingleModeState(psi)
    two = TwoModeState(*oracles.cells({(n, 0): psi[n] for n in range(10)}), 9)
    want = phase_pdf(single, 128)
    assert np.array_equal(phase_pdf(two, 128), want)  # no renormalization of a unit state
    assert np.array_equal(phase_pdf(single_to_two_mode(single), 128), want)


def test_generalized_pdf_flat_two_sided_is_dirichlet():
    for m_range in (2, 4, 8, 16):
        count = 2 * m_range + 1
        amp = {(m, 0): 1 / math.sqrt(count) for m in range(m_range + 1)}
        amp.update({(0, m): 1 / math.sqrt(count) for m in range(1, m_range + 1)})
        pdf = phase_pdf(TwoModeState(*oracles.cells(amp), m_range), 256)
        assert abs(oracles.value_at(pdf, 0.0) - count / (2 * np.pi)) < 1e-10


def test_two_sided_peak_grows_without_single_mode_bound():
    peaks = []
    for m_range in (2, 4, 8, 16):
        count = 2 * m_range + 1
        amp = {(m, 0): 1 / math.sqrt(count) for m in range(m_range + 1)}
        amp.update({(0, m): 1 / math.sqrt(count) for m in range(1, m_range + 1)})
        pdf = phase_pdf(TwoModeState(*oracles.cells(amp), m_range), 256)
        peaks.append(pdf.max())
    assert all(a < b for a, b in zip(peaks, peaks[1:]))


def test_one_auxiliary_photon_is_uniform():
    pdf = phase_pdf(TwoModeState(*oracles.cells({(0, 1): 1.0}), 1), 64)
    assert np.allclose(pdf, 1 / (2 * np.pi))


def test_two_sided_density_refuses_a_grid_that_aliases_its_largest_m():
    # |0,3> + |2,0> spans m = -3..2: K = 6 fits the span but aliases m = -3 onto m = 3
    state = TwoModeState([0, 2], [3, 0], np.array([1.0, 1.0]) / math.sqrt(2), 3)
    with pytest.raises(AliasingError, match="need K > 6"):
        phase_pdf(state, 6)
    assert phase_pdf(state, 7).size == 7


def test_off_subspace_support_is_rejected():
    state = TwoModeState(*oracles.cells({(1, 1): 0.6, (1, 2): 0.48, (2, 1): 0.64}), 3)
    with pytest.raises(SupportError) as err:
        phase_pdf(state, 64)
    assert "(1, 1)" in str(err.value)  # the first such cell in (n_s, n_a) order
