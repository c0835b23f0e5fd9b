import math

import numpy as np
import pytest

import oracles
from relphase import (
    AliasingError,
    ConditioningError,
    PrimitiveConvention,
    SupportError,
    TwoModeState,
    absolute_time_pdf,
    branch_wavefunctions,
    conditioning_probability,
    generalized_phase_pdf,
    marginal_pdf,
    jm_labels,
    snapshot_pdf,
    snapshot_sweep,
)
from relphase.phase import angular_grid
from relphase.pom import DEFAULT_KT, time_grid, time_grid_size
from relphase.polarization import XCoherent, to_circular

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC


def two_mode(amp, n_max):
    return TwoModeState(oracles.to_array(amp, n_max))


def eq67_state():
    amp = {k: v / math.sqrt(2) for k, v in oracles.xnumber_amp(1).items()}
    for k, v in oracles.xnumber_amp(2).items():
        amp[k] = amp.get(k, 0) + v / math.sqrt(2)
    return two_mode(amp, 2)


def random_state(rng, n_max):
    return two_mode(oracles.random_two_amp(rng, n_max), n_max)


# |j=0, m=0> and |j=2, m=0> (photonic) in equal parts: both branches share m = 0
SHARED_M = {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}


def test_branch_wavefunctions_one_plus_two_photons():
    bs = branch_wavefunctions(eq67_state(), 512)
    phi = bs.phi
    # normalized state: the branch pair is cos(phi) and (cos 2 phi + 1/sqrt 2)/sqrt 2
    assert np.abs(bs.branches[1] - np.cos(phi)).max() < 1e-12
    assert np.abs(bs.branches[2] - (np.cos(2 * phi) + 2**-0.5) / math.sqrt(2)).max() < 1e-12


def test_single_branch_is_plain_exponential():
    bs = branch_wavefunctions(two_mode({(1, 0): 1.0}, 1), 64)
    assert np.abs(bs.branches[1] - np.exp(-1j * bs.phi)).max() < 1e-13


def test_vacuum_branch_is_constant():
    bs = branch_wavefunctions(two_mode({(0, 0): 1.0}, 0), 32)
    assert np.allclose(bs.branches[0], 1.0)


def test_marginal_matches_direct_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        amp = oracles.random_two_amp(rng, 6)
        pdf = marginal_pdf(two_mode(amp, 6), 128)
        want = oracles.direct_marginal(oracles.jm_map(amp), pdf.phi)
        assert np.abs(pdf.density - want).max() < 1e-12


def test_marginal_vacuum_uniform():
    pdf = marginal_pdf(two_mode({(0, 0): 1.0}, 0), 64)
    assert np.allclose(pdf.density, 1 / (2 * np.pi))


def test_marginal_of_superposition_peaks_both_ends():
    pdf = marginal_pdf(eq67_state(), 512)
    mid = pdf.value_at(0.0)
    edge = pdf.value_at(-np.pi)
    interior_min = pdf.density.min()
    assert mid > 10 * interior_min
    assert edge > 10 * interior_min
    # both branch squares peak at both ends
    k = pdf.phi.size
    assert pdf.density[k // 2] == pdf.density.max()
    assert pdf.density[0] > pdf.density[k // 4]


def test_single_j_snapshot_equals_marginal_everywhere():
    amp = oracles.xnumber_amp(3)
    state = two_mode(amp, 3)
    pm = marginal_pdf(state, 128)
    for t in (0.0, 0.7, 2.9):
        ps = snapshot_pdf(state, t, 128)
        assert np.abs(ps.density - pm.density).max() < 1e-12
        assert abs(conditioning_probability(state, t) - 1.0) < 1e-12


def test_conditioning_probability_values():
    state = eq67_state()
    for t in (0.0, 0.4, math.pi):
        assert abs(conditioning_probability(state, t) - 1.0) < 1e-12  # no shared m
    mixed = two_mode(SHARED_M, 2)
    assert abs(conditioning_probability(mixed, 0.0) - 2.0) < 1e-12
    assert abs(conditioning_probability(mixed, math.pi / 2)) < 1e-12
    assert abs(conditioning_probability(mixed, math.pi) - 2.0) < 1e-12


def test_snapshot_refuses_vanishing_conditioning():
    mixed = two_mode(SHARED_M, 2)
    with pytest.raises(ConditioningError):
        snapshot_pdf(mixed, math.pi / 2, 64)


def test_snapshot_matches_direct_oracle():
    rng = np.random.default_rng(1)
    phis = angular_grid(128)
    for _ in range(10):
        amp = oracles.random_two_amp(rng, 6)
        state = two_mode(amp, 6)
        t = float(rng.uniform(-math.pi, math.pi))
        got = snapshot_pdf(state, t, 128)
        want = oracles.direct_snapshot(oracles.jm_map(amp), t, phis)
        assert np.abs(got.density - want).max() < 1e-11


def test_snapshot_and_marginal_normalized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = random_state(rng, 8)
        assert abs(marginal_pdf(state, 64).integral() - 1.0) < 1e-8
        assert abs(snapshot_pdf(state, 0.3, 64).integral() - 1.0) < 1e-8


def test_mixture_identity():
    # time average of C-weighted snapshots reproduces the marginal
    rng = np.random.default_rng(4)
    k = 64
    for _ in range(10):
        state = random_state(rng, 8)
        k_t = time_grid_size(state)
        ts = angular_grid(k_t)
        acc = np.zeros(k)
        for t in ts:
            c = conditioning_probability(state, float(t))
            acc += c * snapshot_pdf(state, float(t), k).density
        mixture = acc / k_t
        want = marginal_pdf(state, k).density
        assert np.abs(mixture - want).max() < 1e-8


def test_hprime_snapshot_equals_generalized_pdf():
    rng = np.random.default_rng(5)
    for _ in range(10):
        amp = oracles.random_hprime_amp(rng, 7)
        state = two_mode(amp, 7)
        snap = snapshot_pdf(state, 0.0, 128)
        gen = generalized_phase_pdf(state, 128)
        assert np.abs(snap.density - gen.density).max() < 1e-10


def test_absolute_time_pdf_single_branch_uniform():
    pdf = absolute_time_pdf(two_mode(oracles.xnumber_amp(2), 2), 64)
    assert np.allclose(pdf.density, 1 / (2 * np.pi))


def test_absolute_time_pdf_two_branch_interference():
    pdf = absolute_time_pdf(two_mode(SHARED_M, 2), 64)
    want = (1 + np.cos(2 * pdf.phi)) / (2 * np.pi)
    assert np.abs(pdf.density - want).max() < 1e-12


def test_absolute_time_pdf_normalized_and_matches_c():
    rng = np.random.default_rng(6)
    for _ in range(10):
        state = random_state(rng, 7)
        pdf = absolute_time_pdf(state)
        assert abs(pdf.integral() - 1.0) < 1e-8
        for idx in (0, 5, 11):
            t = float(pdf.phi[idx])
            assert abs(pdf.density[idx] - conditioning_probability(state, t) / (2 * np.pi)) < 1e-12


@pytest.mark.parametrize("convention", [PHOTONIC, FERMIONIC])
def test_one_time_has_the_bits_of_the_same_time_on_a_grid(convention):
    """snapshot_pdf and conditioning_probability at one time equal the sweep's slice
    and absolute_time_pdf's density at that time bit for bit (a one-row product
    would go to gemv, not to a grid's gemm)."""
    coh = to_circular(XCoherent(9.0))  # its even totals: one m lattice in either convention
    n = np.arange(coh.n_max + 1)
    state = TwoModeState.from_amplitudes(coh.amplitudes * ((n[:, None] + n) % 2 == 0))
    times = np.linspace(0.0, math.pi, 17)
    for t, pdf in zip(times.tolist(), snapshot_sweep(state, times, 128, convention=convention)):
        assert np.array_equal(snapshot_pdf(state, t, 128, convention=convention).density, pdf.density)
    pdf = absolute_time_pdf(state, convention=convention)
    one_by_one = [conditioning_probability(state, t, convention=convention) / (2 * np.pi)
                  for t in pdf.phi.tolist()]
    assert one_by_one == pdf.density.tolist()
    assert snapshot_sweep(state, [], 128, convention=convention) == []


def test_default_time_grid_is_the_larger_of_256_and_the_state_size():
    small = two_mode(oracles.xnumber_amp(2), 2)  # exact from 12 times
    assert absolute_time_pdf(small).phi.size == time_grid(small) == DEFAULT_KT == 256
    large = to_circular(XCoherent(100.0))  # exact from 716 times
    assert absolute_time_pdf(large).phi.size == time_grid(large) == time_grid_size(large) == 716
    assert time_grid(large, 800) == 800
    with pytest.raises(AliasingError, match="time grid 715 is below the exact-quadrature size 716"):
        absolute_time_pdf(large, 715)


def test_fermionic_branches_and_time_density():
    # half-integer branches: marginal and time density stay 2 pi-periodic
    rng = np.random.default_rng(7)
    amp = oracles.random_two_amp(rng, 5)
    state = two_mode(amp, 5)
    assert any(jm_labels(*key, FERMIONIC)[0] % 1 for key in amp)  # genuinely half-integer
    assert abs(marginal_pdf(state, 64, convention=FERMIONIC).integral() - 1.0) < 1e-10
    pdf = absolute_time_pdf(state, convention=FERMIONIC)
    assert abs(pdf.integral() - 1.0) < 1e-8


def test_fermionic_snapshot_needs_single_m_lattice():
    # mixed integer/half-integer m interferes with period 4 pi: refused
    rng = np.random.default_rng(7)
    mixed = random_state(rng, 5)
    with pytest.raises(SupportError):
        snapshot_pdf(mixed, 0.9, 64, convention=FERMIONIC)
    # same-parity totals keep all m on one lattice: snapshot is well defined
    amp = {k: v for k, v in oracles.random_two_amp(rng, 6).items() if (k[0] + k[1]) % 2 == 1}
    norm = math.sqrt(sum(abs(v) ** 2 for v in amp.values()))
    amp = {k: v / norm for k, v in amp.items()}
    odd = two_mode(amp, 6)
    assert abs(snapshot_pdf(odd, 0.9, 64, convention=FERMIONIC).integral() - 1.0) < 1e-10


@pytest.mark.parametrize("kernel", [marginal_pdf, branch_wavefunctions])
def test_unnormalized_state_is_refused(kernel):
    state = random_state(np.random.default_rng(3), 4)
    kernel(state, 64)  # unit norm: accepted
    with pytest.raises(ValueError, match="branch norms sum to"):
        kernel(TwoModeState(2 * state.amplitudes), 64)


# |5,0>: |m| up to 5 photonic and 2.5 fermionic, so K must exceed 5 resp. 2.5 twice over
@pytest.mark.parametrize("convention,refused", [(PHOTONIC, 10), (FERMIONIC, 5)])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda state, k, convention: marginal_pdf(state, k, convention=convention),
        lambda state, k, convention: snapshot_sweep(state, [0.0, 1.0], k, convention=convention),
    ],
    ids=["marginal_pdf", "snapshot_sweep"],
)
def test_grid_of_twice_the_largest_m_is_refused(kernel, convention, refused):
    state = two_mode({(5, 0): 1.0}, 5)
    with pytest.raises(AliasingError, match=f"grid size {refused} admits aliasing"):
        kernel(state, refused, convention)
    kernel(state, refused + 1, convention)


def test_grid_check_runs_before_the_m_lattice_check():
    # m = 2.5 and m = 0 mix the lattices; a grid of 5 also aliases m = 2.5
    state = two_mode({(5, 0): 0.6, (1, 1): 0.8}, 5)
    with pytest.raises(AliasingError):
        snapshot_sweep(state, [0.0], 5, convention=FERMIONIC)
    with pytest.raises(SupportError):
        snapshot_sweep(state, [0.0], 6, convention=FERMIONIC)
