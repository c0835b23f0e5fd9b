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

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC
RESIDUALS = ("cyclic_xyz", "z_ladder", "ladder_pair", "casimir")  # criterion 10's four


def two_mode(amp, n_max, convention=PHOTONIC):
    return TwoModeState(*oracles.cells(amp), n_max, convention)


def dense(state):
    """The state's (n_max+1) x (n_max+1) amplitude array, as the images are."""
    return oracles.to_array(oracles.state_dict(state), state.n_max)


def apply_to(apply_fn, amps, convention=PHOTONIC):
    """apply_fn's image of any amplitude array, by linearity: the operator acts on the
    unit state amps / |amps| (a state is a unit vector) and the image is scaled back."""
    norm = np.linalg.norm(amps)
    if not norm:
        return np.zeros_like(amps)
    return norm * apply_fn(TwoModeState(*oracles.cells(oracles.to_dict(amps / norm)), len(amps) - 1, convention))


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
    assert np.abs(j_squared(state) - value * dense(state)).max() < 1e-12


def test_jsquared_photonic_one_photon():
    # Pauli algebra on the doubled operators: eigenvalue j(j+2) = 3
    assert_casimir(two_mode({(1, 0): 1.0}, 1), 3.0)


def test_jsquared_photonic_two_photon_branch():
    assert_casimir(two_mode(oracles.xnumber_amp(2), 2), 8.0)  # j(j+2) with j=2


def test_jsquared_fermionic():
    assert_casimir(two_mode({(1, 1): 1.0}, 2, FERMIONIC), 2.0)  # j(j+1) with j=1
    assert_casimir(two_mode({(1, 0): 1.0}, 1, FERMIONIC), 0.75)  # j=1/2


def test_commutator_residuals_report_the_constant_and_four_residuals_as_floats():
    report = commutator_residuals(PHOTONIC, 2)
    assert list(report) == ["structure_constant", *RESIDUALS]
    assert all(type(v) is float for v in report.values())


def test_rotation_full_turn_is_identity():
    rng = np.random.default_rng(1)
    state = two_mode(oracles.random_two_amp(rng, 4), 4)
    back = rotate_z(state, 2 * math.pi)
    assert np.array_equal(back.ns, state.ns) and np.array_equal(back.na, state.na)
    assert np.abs(back.values - state.values).max() < 1e-12


def test_rotation_phases_single_photon():
    img = rotate_z(two_mode({(1, 0): 1.0}, 1), 0.37)
    assert abs(oracles.state_dict(img)[(1, 0)] - np.exp(-1j * 0.37)) < 1e-15


def test_rotation_equals_differential_phase_shift():
    rng = np.random.default_rng(2)
    amp = oracles.random_two_amp(rng, 5)
    phi = 0.83
    rotated = oracles.state_dict(rotate_z(two_mode(amp, 5), phi))
    for (nr, nl), v in amp.items():
        differential = v * np.exp(-1j * nr * phi) * np.exp(1j * nl * phi)
        assert abs(rotated[(nr, nl)] - differential) < 1e-15


def test_quarter_turn_maps_x_photon_to_y_photon():
    x_photon = two_mode({(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}, 1)
    y_photon = {(1, 0): -1j / math.sqrt(2), (0, 1): 1j / math.sqrt(2)}
    rotated = rotate_z(x_photon, math.pi / 2)
    overlap = sum(np.conj(y_photon[k]) * v for k, v in oracles.state_dict(rotated).items())
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_rotation_shifts_angle_distribution():
    rng = np.random.default_rng(3)
    state = two_mode(oracles.random_two_amp(rng, 4), 4)
    k = 128
    steps = 9
    theta = steps * 2 * np.pi / k
    base = marginal_pdf(state, k)
    moved = marginal_pdf(rotate_z(state, theta), k)
    assert np.abs(moved - np.roll(base, -steps)).max() < 1e-12


@pytest.mark.parametrize("convention", list(PrimitiveConvention))
def test_images_keep_the_state_convention(convention):
    """The rotated state keeps the convention; the ladder images, arrays, are made under it."""
    state = two_mode(oracles.random_two_amp(np.random.default_rng(5), 3), 3, convention)
    assert rotate_z(state, 0.4).convention is convention
    n, amps = np.arange(4), dense(state)
    assert np.array_equal(apply_jz(state), amps * jm_labels(n[:, None], n, convention)[1])
    c = 2.0 if convention is PHOTONIC else 1.0
    assert apply_jplus(state)[1, 0] == c * amps[0, 1]
    assert apply_jminus(state)[0, 1] == c * amps[1, 0]


def test_photonic_m_parity():
    rng = np.random.default_rng(4)
    amp = oracles.random_two_amp(rng, 6)
    for j, m in (jm_labels(ns, na, PHOTONIC) for ns, na in amp):
        assert (j - m) % 2 == 0
        assert (j % 2) == (abs(m) % 2)


@pytest.mark.parametrize("convention,constant", [(PHOTONIC, 2.0), (FERMIONIC, 1.0)])
def test_commutator_residuals(convention, constant):
    report = commutator_residuals(convention, 6)
    assert report["structure_constant"] == constant
    assert max(report[name] for name in RESIDUALS) < 1e-12


def test_an_n_max_that_is_not_an_integer_is_refused():
    # 2.5 once met numpy's "'float' object cannot be interpreted as an integer"
    with pytest.raises(TypeError) as err:
        commutator_residuals(PHOTONIC, 2.5)
    assert str(err.value) == "n_max 2.5 is not an integer"
    assert commutator_residuals(PHOTONIC, np.int64(2)) == commutator_residuals(PHOTONIC, 2)
    assert commutator_residuals(PHOTONIC, True) == commutator_residuals(PHOTONIC, 1)


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
