import math

import numpy as np
import pytest

import oracles
from relphase import (
    PrimitiveConvention,
    TwoModeState,
    apply_jminus,
    apply_jplus,
    apply_jz,
    commutator_residuals,
    jm_labels,
    marginal_pdf,
    rotate_z,
)
from relphase.schwinger import CommutatorReport

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC


def two_mode(amp, n_max, convention=PHOTONIC):
    return TwoModeState(oracles.to_array(amp, n_max), convention)


def apply_to(apply_fn, amps, convention=PHOTONIC):
    """apply_fn's image of any amplitude array, by linearity: the operator acts on the
    unit state amps / |amps| (a state is a unit vector) and the image is scaled back."""
    norm = np.linalg.norm(amps)
    return norm * apply_fn(TwoModeState(amps / norm, convention)) if norm else np.zeros_like(amps)


def test_jz_eigenvalues():
    assert apply_jz(two_mode({(1, 0): 1.0}, 1))[(1, 0)] == 1.0
    assert apply_jz(two_mode({(1, 0): 1.0}, 1, FERMIONIC))[(1, 0)] == 0.5
    balanced = two_mode({(1, 1): 1.0}, 2)
    assert apply_jz(balanced)[(1, 1)] == 0  # annihilated


def test_photonic_lowering_skips_m_zero():
    img = apply_jminus(two_mode({(1, 0): 1.0}, 1))
    assert oracles.to_dict(img) == {(0, 1): 2.0}


def test_fermionic_lowering_unit_coefficient():
    img = apply_jminus(two_mode({(1, 0): 1.0}, 1, FERMIONIC))
    assert oracles.to_dict(img) == {(0, 1): 1.0}


def test_raising_annihilates_vacuum():
    img = apply_jplus(two_mode({(0, 0): 1.0}, 0))
    assert not img.any()


def test_ladder_matrix_elements_match_kron_oracle():
    rng = np.random.default_rng(0)
    n_max = 5
    for photonic, conv in ((True, PHOTONIC), (False, FERMIONIC)):
        jp, jm, jz, simplex = oracles.kron_j_ops(photonic, n_max)
        d = n_max + 2
        amp = oracles.random_two_amp(rng, n_max)
        state = two_mode(amp, n_max, conv)
        vec = np.zeros(d * d, complex)
        for (ns, na), v in amp.items():
            vec[ns * d + na] = v
        for apply_fn, mat in ((apply_jplus, jp), (apply_jminus, jm), (apply_jz, jz)):
            img = apply_fn(state)
            want = mat @ vec
            got = np.zeros(d * d, complex)
            for (ns, na), v in oracles.to_dict(img).items():
                got[ns * d + na] = v
            assert np.abs(got - want).max() < 1e-12


def j_squared(state):
    """J^2 = (J_+ J_- + J_- J_+)/2 + J_z^2 applied through the ladder actions."""
    conv = state.convention
    up_down = apply_to(apply_jplus, apply_jminus(state), conv)
    down_up = apply_to(apply_jminus, apply_jplus(state), conv)
    return (up_down + down_up) / 2.0 + apply_to(apply_jz, apply_jz(state), conv)


def assert_casimir(state, value):
    assert np.abs(j_squared(state) - value * state.amplitudes).max() < 1e-12


def test_jsquared_photonic_one_photon():
    # Pauli algebra on the doubled operators: eigenvalue j(j+2) = 3
    assert_casimir(two_mode({(1, 0): 1.0}, 1), 3.0)


def test_jsquared_photonic_two_photon_branch():
    assert_casimir(two_mode(oracles.xnumber_amp(2), 2), 8.0)  # j(j+2) with j=2


def test_jsquared_fermionic():
    assert_casimir(two_mode({(1, 1): 1.0}, 2, FERMIONIC), 2.0)  # j(j+1) with j=1
    assert_casimir(two_mode({(1, 0): 1.0}, 1, FERMIONIC), 0.75)  # j=1/2


def test_casimir_residual_counts_in_max_residual():
    report = CommutatorReport(2.0, cyclic_xyz=0.0, z_ladder=0.0, ladder_pair=0.0, casimir=0.5)
    assert report.max_residual() == 0.5


def test_rotation_full_turn_is_identity():
    rng = np.random.default_rng(1)
    state = two_mode(oracles.random_two_amp(rng, 4), 4)
    back = rotate_z(state, 2 * math.pi)
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


def test_rotation_phases_single_photon():
    img = rotate_z(two_mode({(1, 0): 1.0}, 1), 0.37)
    assert abs(img.amplitudes[(1, 0)] - np.exp(-1j * 0.37)) < 1e-15


def test_rotation_equals_differential_phase_shift():
    rng = np.random.default_rng(2)
    amp = oracles.random_two_amp(rng, 5)
    phi = 0.83
    rotated = rotate_z(two_mode(amp, 5), phi)
    for (nr, nl), v in amp.items():
        differential = v * np.exp(-1j * nr * phi) * np.exp(1j * nl * phi)
        assert abs(rotated.amplitudes[(nr, nl)] - differential) < 1e-15


def test_quarter_turn_maps_x_photon_to_y_photon():
    x_photon = two_mode({(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}, 1)
    y_photon = {(1, 0): -1j / math.sqrt(2), (0, 1): 1j / math.sqrt(2)}
    rotated = rotate_z(x_photon, math.pi / 2)
    overlap = sum(np.conj(y_photon[k]) * v for k, v in oracles.to_dict(rotated.amplitudes).items())
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_rotation_shifts_angle_distribution():
    rng = np.random.default_rng(3)
    state = two_mode(oracles.random_two_amp(rng, 4), 4)
    k = 128
    steps = 9
    theta = steps * 2 * np.pi / k
    base = marginal_pdf(state, k).density
    moved = marginal_pdf(rotate_z(state, theta), k).density
    assert np.abs(moved - np.roll(base, -steps)).max() < 1e-12


@pytest.mark.parametrize("convention", list(PrimitiveConvention))
def test_images_keep_the_state_convention(convention):
    """The rotated state keeps the convention; the ladder images, arrays, are made under it."""
    state = two_mode(oracles.random_two_amp(np.random.default_rng(5), 3), 3, convention)
    assert rotate_z(state, 0.4).convention is convention
    n = np.arange(4)
    assert np.array_equal(apply_jz(state), state.amplitudes * jm_labels(n[:, None], n, convention)[1])
    c = 2.0 if convention is PHOTONIC else 1.0
    assert apply_jplus(state)[1, 0] == c * state.amplitudes[0, 1]
    assert apply_jminus(state)[0, 1] == c * state.amplitudes[1, 0]


def test_photonic_m_parity():
    rng = np.random.default_rng(4)
    amp = oracles.random_two_amp(rng, 6)
    for j, m in (jm_labels(ns, na, PHOTONIC) for ns, na in amp):
        assert (j - m) % 2 == 0
        assert (j % 2) == (abs(m) % 2)


@pytest.mark.parametrize("convention,constant", [(PHOTONIC, 2.0), (FERMIONIC, 1.0)])
def test_commutator_residuals(convention, constant):
    report = commutator_residuals(convention, 6)
    assert report.structure_constant == constant
    assert report.max_residual() < 1e-12


def test_z_ladder_raises_m_by_two_photonic():
    balanced = two_mode({(1, 1): 1.0}, 2)
    jp = apply_jplus(balanced)
    comm = apply_to(apply_jz, jp) - apply_to(apply_jplus, apply_jz(balanced))
    assert jp.any()
    assert np.abs(comm - 2.0 * jp).max() < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rotation_by_an_angle_that_is_not_finite_is_refused(bad):
    # a nan angle once made the image's amplitudes nan, refused with a false reason
    state = two_mode({(1, 0): 1.0}, 2)
    with pytest.raises(ValueError) as err:
        rotate_z(state, bad)
    assert str(err.value) == f"rotation angle {bad} is not finite"
