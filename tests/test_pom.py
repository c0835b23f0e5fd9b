import math

import numpy as np
import pytest

import oracles
from oracles import time_grid_size
from relphase import (
    AliasingError,
    PrimitiveConvention,
    SupportError,
    TwoModeState,
    absolute_time_pdf,
    branch_wavefunctions,
    conditioning_probability,
    marginal_pdf,
    jm_labels,
    phase_pdf,
    snapshot_sweep,
)
from relphase.fock import angular_grid, check_grid
from relphase.pom import DEFAULT_KT, time_grid
from relphase.polarization import XCoherent, to_circular

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC


def two_mode(amp, n_max, convention=PHOTONIC):
    return TwoModeState(*oracles.cells(amp), n_max, convention)


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
    branches, phi = branch_wavefunctions(eq67_state(), 512), angular_grid(512)
    # normalized state: the branch pair is cos(phi) and (cos 2 phi + 1/sqrt 2)/sqrt 2
    assert np.abs(branches[1] - np.cos(phi)).max() < 1e-12
    assert np.abs(branches[2] - (np.cos(2 * phi) + 2**-0.5) / math.sqrt(2)).max() < 1e-12


def test_single_branch_is_plain_exponential():
    branches = branch_wavefunctions(two_mode({(1, 0): 1.0}, 1), 64)
    assert np.abs(branches[1] - np.exp(-1j * angular_grid(64))).max() < 1e-13


def test_vacuum_branch_is_constant():
    branches = branch_wavefunctions(two_mode({(0, 0): 1.0}, 0), 32)
    assert np.allclose(branches[0], 1.0)


def test_marginal_matches_direct_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        amp = oracles.random_two_amp(rng, 6)
        pdf = marginal_pdf(two_mode(amp, 6), 128)
        want = oracles.direct_marginal(oracles.jm_map(amp), angular_grid(pdf.size))
        assert np.abs(pdf - want).max() < 1e-12


def test_marginal_vacuum_uniform():
    pdf = marginal_pdf(two_mode({(0, 0): 1.0}, 0), 64)
    assert np.allclose(pdf, 1 / (2 * np.pi))


def test_marginal_of_superposition_peaks_both_ends():
    pdf = marginal_pdf(eq67_state(), 512)
    mid = oracles.value_at(pdf, 0.0)
    edge = oracles.value_at(pdf, -np.pi)
    interior_min = pdf.min()
    assert mid > 10 * interior_min
    assert edge > 10 * interior_min
    # both branch squares peak at both ends
    k = pdf.size
    assert pdf[k // 2] == pdf.max()
    assert pdf[0] > pdf[k // 4]


def test_single_j_snapshot_equals_marginal_everywhere():
    amp = oracles.xnumber_amp(3)
    state = two_mode(amp, 3)
    pm = marginal_pdf(state, 128)
    for t in (0.0, 0.7, 2.9):
        ps = snapshot_sweep(state, [t], 128)[0]
        assert np.abs(ps - pm).max() < 1e-12
        assert abs(conditioning_probability(state, t) - 1.0) < 1e-12


def test_conditioning_probability_values():
    state = eq67_state()
    for t in (0.0, 0.4, math.pi):
        assert abs(conditioning_probability(state, t) - 1.0) < 1e-12  # no shared m
    mixed = two_mode(SHARED_M, 2)
    assert abs(conditioning_probability(mixed, 0.0) - 2.0) < 1e-12
    assert abs(conditioning_probability(mixed, math.pi / 2)) < 1e-12
    assert abs(conditioning_probability(mixed, math.pi) - 2.0) < 1e-12


def test_a_one_time_sweep_at_vanishing_conditioning_is_a_gap():
    mixed = two_mode(SHARED_M, 2)
    assert snapshot_sweep(mixed, [math.pi / 2], 64) == [None]


def test_snapshot_matches_direct_oracle():
    rng = np.random.default_rng(1)
    phis = angular_grid(128)
    for _ in range(10):
        amp = oracles.random_two_amp(rng, 6)
        state = two_mode(amp, 6)
        t = float(rng.uniform(-math.pi, math.pi))
        got = snapshot_sweep(state, [t], 128)[0]
        want = oracles.direct_snapshot(oracles.jm_map(amp), t, phis)
        assert np.abs(got - want).max() < 1e-11


def test_snapshot_and_marginal_normalized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = random_state(rng, 8)
        assert abs(oracles.integral(marginal_pdf(state, 64)) - 1.0) < 1e-8
        assert abs(oracles.integral(snapshot_sweep(state, [0.3], 64)[0]) - 1.0) < 1e-8


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
            acc += c * snapshot_sweep(state, [float(t)], k)[0]
        mixture = acc / k_t
        want = marginal_pdf(state, k)
        assert np.abs(mixture - want).max() < 1e-8


def test_hprime_snapshot_equals_generalized_pdf():
    rng = np.random.default_rng(5)
    for _ in range(10):
        amp = oracles.random_hprime_amp(rng, 7)
        state = two_mode(amp, 7)
        snap = snapshot_sweep(state, [0.0], 128)[0]
        gen = phase_pdf(state, 128)
        assert np.abs(snap - gen).max() < 1e-10


def test_absolute_time_pdf_single_branch_uniform():
    pdf = absolute_time_pdf(two_mode(oracles.xnumber_amp(2), 2), 64)
    assert np.allclose(pdf, 1 / (2 * np.pi))


def test_absolute_time_pdf_two_branch_interference():
    pdf = absolute_time_pdf(two_mode(SHARED_M, 2), 64)
    want = (1 + np.cos(2 * angular_grid(pdf.size))) / (2 * np.pi)
    assert np.abs(pdf - want).max() < 1e-12


def test_absolute_time_pdf_normalized_and_matches_c():
    rng = np.random.default_rng(6)
    for _ in range(10):
        state = random_state(rng, 7)
        pdf = absolute_time_pdf(state)
        assert abs(oracles.integral(pdf) - 1.0) < 1e-8
        for idx in (0, 5, 11):
            t = float(angular_grid(pdf.size)[idx])
            assert abs(pdf[idx] - conditioning_probability(state, t) / (2 * np.pi)) < 1e-12


@pytest.mark.parametrize("convention", [PHOTONIC, FERMIONIC])
def test_one_time_has_the_bits_of_the_same_time_on_a_grid(convention):
    """A one-time sweep and conditioning_probability equal the sweep's slice and
    absolute_time_pdf's density at that time bit for bit (a one-row product would
    go to gemv, not to a grid's gemm)."""
    coh = to_circular(XCoherent(9.0))  # its even totals: one m lattice in either convention
    even = (coh.ns + coh.na) % 2 == 0
    state = TwoModeState.from_cells(coh.ns[even], coh.na[even], coh.values[even], coh.n_max, convention)
    times = np.linspace(0.0, math.pi, 17)
    for t, pdf in zip(times.tolist(), snapshot_sweep(state, times, 128)):
        (one,) = snapshot_sweep(state, [t], 128)
        assert pdf is not None and np.array_equal(one, pdf)
    pdf = absolute_time_pdf(state)
    one_by_one = [conditioning_probability(state, t) / (2 * np.pi) for t in angular_grid(pdf.size)]
    assert one_by_one == pdf.tolist()
    assert snapshot_sweep(state, [], 128) == []


def test_default_time_grid_is_the_larger_of_256_and_the_state_size():
    # the default is a display default, max(256, 4 (j_max + 1)); exact grids need j_max - j_min + 1
    small = two_mode(oracles.xnumber_amp(2), 2)  # j = 2 alone: exact from 1 time
    assert absolute_time_pdf(small).size == time_grid(small) == DEFAULT_KT == 256
    assert time_grid_size(small) == 1
    large = to_circular(XCoherent(100.0))  # j = 0..178: exact from 179 times, displayed on 716
    assert absolute_time_pdf(large).size == time_grid(large) == 716
    assert time_grid_size(large) == time_grid(large, 179) == 179
    assert time_grid(large, 800) == 800
    with pytest.raises(AliasingError, match="time grid 178 is below the exact-quadrature size 179"):
        absolute_time_pdf(large, 178)


@pytest.mark.parametrize("k_t, error, message", [
    (2.5, TypeError, "grid size 2.5 is not an integer"),
    (40.5, TypeError, "grid size 40.5 is not an integer"),
    ("8", TypeError, "grid size '8' is not an integer"),
    (0, ValueError, "grid size must be positive"),
    (-1, ValueError, "grid size must be positive"),
], ids=["2.5", "40.5", "str", "0", "-1"])
def test_a_time_grid_size_is_read_as_an_angular_grid_size_is(k_t, error, message):
    """k_t goes through operator.index and angular_grid's refusal below 1, ahead of the budget
    and of xcoh:9's exact-quadrature size 38, in time_grid and so in absolute_time_pdf; so does
    the K that check_grid reads, ahead of its aliasing bound."""
    state = to_circular(XCoherent(9.0))
    for call in (angular_grid, lambda k: time_grid(state, k), lambda k: absolute_time_pdf(state, k),
                 lambda k: check_grid(k, np.array([0]))):
        with pytest.raises(error) as err:
            call(k_t)
        assert str(err.value) == message
    assert type(time_grid(state, np.int64(38))) is int and absolute_time_pdf(state, np.int64(38)).size == 38


def test_fermionic_branches_and_time_density():
    # half-integer branches: marginal and time density stay 2 pi-periodic
    rng = np.random.default_rng(7)
    amp = oracles.random_two_amp(rng, 5)
    state = two_mode(amp, 5, FERMIONIC)
    assert any(jm_labels(*key, FERMIONIC)[0] % 1 for key in amp)  # genuinely half-integer
    assert abs(oracles.integral(marginal_pdf(state, 64)) - 1.0) < 1e-10
    pdf = absolute_time_pdf(state)
    assert abs(oracles.integral(pdf) - 1.0) < 1e-8


def test_fermionic_snapshot_needs_single_m_lattice():
    # mixed integer/half-integer m interferes with period 4 pi: refused
    rng = np.random.default_rng(7)
    mixed = two_mode(oracles.random_two_amp(rng, 5), 5, FERMIONIC)
    with pytest.raises(SupportError):
        snapshot_sweep(mixed, [0.9], 64)
    # same-parity totals keep all m on one lattice: snapshot is well defined
    amp = {k: v for k, v in oracles.random_two_amp(rng, 6).items() if (k[0] + k[1]) % 2 == 1}
    norm = math.sqrt(sum(abs(v) ** 2 for v in amp.values()))
    amp = {k: v / norm for k, v in amp.items()}
    odd = two_mode(amp, 6, FERMIONIC)
    assert abs(oracles.integral(snapshot_sweep(odd, [0.9], 64)[0]) - 1.0) < 1e-10


@pytest.mark.parametrize("kernel", [marginal_pdf, branch_wavefunctions])
def test_unnormalized_state_is_refused(kernel):
    state = random_state(np.random.default_rng(3), 4)
    kernel(state, 64)  # unit norm: accepted
    with pytest.raises(ValueError, match=r"^amplitudes have squared norm (3\.9|4\.0)\d*, not 1$"):
        kernel(TwoModeState(state.ns, state.na, 2 * state.values, state.n_max), 64)  # refused at construction


# |5,0>: |m| up to 5 photonic and 2.5 fermionic, so K must exceed 5 resp. 2.5 twice over
@pytest.mark.parametrize("convention,refused", [(PHOTONIC, 10), (FERMIONIC, 5)])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda state, k: marginal_pdf(state, k),
        lambda state, k: snapshot_sweep(state, [0.0, 1.0], k),
    ],
    ids=["marginal_pdf", "snapshot_sweep"],
)
def test_grid_of_twice_the_largest_m_is_refused(kernel, convention, refused):
    state = two_mode({(5, 0): 1.0}, 5, convention)
    with pytest.raises(AliasingError, match=f"grid size {refused} admits aliasing"):
        kernel(state, refused)
    kernel(state, refused + 1)


def test_all_zero_state_is_refused_at_construction():
    # a state has cells, so no kernel meets an empty label array or a zero norm
    with pytest.raises(ValueError, match="^values must be a non-empty 1-d sequence$"):
        TwoModeState([], [], [], 2)
    with pytest.raises(ValueError, match=r"^amplitude at \(0, 0\) is zero$"):
        TwoModeState([0], [0], [0.0], 2)
    with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
        TwoModeState.from_cells([0, 1], [0, 0], [0.0, -0.0], 2)


def test_grid_check_runs_before_the_m_lattice_check():
    # m = 2.5 and m = 0 mix the lattices; a grid of 5 also aliases m = 2.5
    state = two_mode({(5, 0): 0.6, (1, 1): 0.8}, 5, FERMIONIC)
    with pytest.raises(AliasingError):
        snapshot_sweep(state, [0.0], 5)
    with pytest.raises(SupportError):
        snapshot_sweep(state, [0.0], 6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda state, t: snapshot_sweep(state, [0.0, t], 8),
        lambda state, t: snapshot_sweep(state, [t], 8),
        lambda state, t: conditioning_probability(state, t),
    ],
    ids=["snapshot_sweep", "snapshot_sweep-one-time", "conditioning_probability"],
)
def test_a_time_that_is_not_finite_is_refused(kernel, bad):
    # a nan time once read as a gap, a false refusal of vanishing conditioning or a nan C
    state = two_mode({(1, 0): 0.6, (0, 1): 0.8}, 1)
    with pytest.raises(ValueError) as err:
        kernel(state, bad)
    assert str(err.value) == f"time {bad} is not finite"
