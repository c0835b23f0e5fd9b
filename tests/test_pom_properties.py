"""Property tests: the pom kernels against the direct-sum oracles on generated states."""
import cmath
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import time_grid_size
from relphase import pom
from relphase import (
    AliasingError,
    PrimitiveConvention,
    TwoModeState,
    absolute_time_pdf,
    branch_wavefunctions,
    conditioning_probability,
    marginal_pdf,
    snapshot_sweep,
)
from relphase.fock import angular_grid, scatter_series
from relphase.pom import C_MIN

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC

amplitudes = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
conventions = st.sampled_from([PHOTONIC, FERMIONIC])


@st.composite
def two_mode_states(draw, max_total=5, gap=False):
    """Normalized states with random support on n_s + n_a <= max_total.

    With gap, one more cell per m, at the next j, makes that m's amplitudes sum
    to 0. Across a photonic branch e^{i j pi} is (-1)^m, so C(t) then vanishes
    at t = -pi, the first point of every time grid.
    """
    occupations = st.tuples(st.integers(0, max_total), st.integers(0, max_total))
    occupations = occupations.filter(lambda key: sum(key) <= max_total)
    keys = draw(st.lists(occupations, min_size=1, max_size=8, unique=True))
    amps = {key: draw(amplitudes) for key in keys}
    if gap:
        for m in {ns - na for ns, na in keys}:
            cells = [(ns, na) for ns, na in keys if ns - na == m]
            ns, na = max(cells)
            amps[(ns + 1, na + 1)] = -sum(amps[key] for key in cells)
    return TwoModeState.from_cells(*oracles.cells(amps), max_total + 2 * gap)


def occupation_state(jm_amps, convention, above=0):
    """The two-mode state of (j, m) amplitudes: n_s, n_a = (j +- m)/c, with
    c = 2 photonic and 1 fermionic, declared at n_max `above` its largest n_s + n_a."""
    c = 2 if convention is PHOTONIC else 1
    amps = {(round((j + m) / c), round((j - m) / c)): v for (j, m), v in jm_amps.items()}
    return TwoModeState(*oracles.cells(amps), max(ns + na for ns, na in amps) + above, convention)


@st.composite
def one_lattice_sweeps(draw):
    """(normalized (j, m) amplitudes on one m lattice, convention, time grid).

    Half of the states are built so that every m's branch sum cancels at one
    grid time, which the sweep must refuse.
    """
    photonic = draw(st.booleans())
    offset = 0.0 if photonic else draw(st.sampled_from([0.0, 0.5]))
    step = 2 if photonic else 1  # j - m is even (photonic) or integer (fermionic)
    times = np.linspace(0.0, math.pi, draw(st.integers(2, 9)))
    amps = {}
    for m in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True)):
        m = m + offset
        for p in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)):
            amps[(abs(m) + step * p, m)] = draw(amplitudes)
    if draw(st.booleans()):
        t0 = float(times[draw(st.integers(0, times.size - 1))])
        for m in {m for _, m in amps}:
            total = sum(v * cmath.exp(-1j * j * t0) for (j, mm), v in amps.items() if mm == m)
            j = abs(m) + 3 * step
            amps[(j, m)] = -total * cmath.exp(1j * j * t0)
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in amps.values()))
    amps = {key: v / norm for key, v in amps.items()}
    return amps, PHOTONIC if photonic else FERMIONIC, times


@given(two_mode_states(), conventions)
def test_branch_wavefunctions_and_marginal_match_oracle(state, convention):
    # fermionic states carry half-integer branches, with and without integer ones
    k = 16
    state = TwoModeState(state.ns, state.na, state.values, state.n_max, convention)
    branches = branch_wavefunctions(state, k)
    jm = oracles.jm_map(oracles.state_dict(state), photonic=convention is PHOTONIC)
    want = oracles.branch_values(jm, angular_grid(k))
    assert set(branches) == set(want)
    for j, values in want.items():
        assert np.abs(branches[j] - values).max() < 1e-12
    marginal = marginal_pdf(state, k)
    assert np.abs(marginal - oracles.direct_marginal(jm, angular_grid(marginal.size))).max() < 1e-12


@given(one_lattice_sweeps(), st.sampled_from([8, 9, 16]))
def test_snapshot_sweep_matches_oracle_with_gaps(sweep, k):
    amps, convention, times = sweep
    slices = snapshot_sweep(occupation_state(amps, convention), times, k)
    assert len(slices) == times.size
    phis = angular_grid(k)
    for t, pdf in zip(times, slices):
        c = oracles.direct_C(amps, t)
        assert (pdf is None) == (c <= C_MIN)
        if pdf is not None:
            want = oracles.direct_snapshot(amps, t, phis)
            # densities stay O(1); the round-off of b grows like 1/sqrt(C)
            assert np.abs(pdf - want).max() < 1e-11 / math.sqrt(c)


@given(two_mode_states(), conventions, st.integers(0, 5))
def test_absolute_time_pdf_matches_oracle(state, convention, extra):
    state = TwoModeState(state.ns, state.na, state.values, state.n_max, convention)
    k_t = time_grid_size(state) + extra
    pdf = absolute_time_pdf(state, k_t)
    amps = oracles.jm_map(oracles.state_dict(state), photonic=convention is PHOTONIC)
    want = [oracles.direct_C(amps, t) / (2 * np.pi) for t in angular_grid(pdf.size)]
    assert np.abs(pdf - want).max() < 1e-12


@given(st.data(), st.booleans(), st.sampled_from([None, 0, 1, 5]))
def test_time_average_of_weighted_snapshots_is_the_marginal(data, gap, extra):
    """Criterion 08 over generated states: on the default time grid or an exact
    one, the mean of C(t)-weighted snapshots is the marginal. Gap times, where
    C(t) <= C_MIN, carry almost no weight and are skipped."""
    state = data.draw(two_mode_states(gap=gap))
    k = 16
    times = absolute_time_pdf(state, None if extra is None else time_grid_size(state) + extra)
    slices = snapshot_sweep(state, angular_grid(times.size), k)
    assert slices[0] is None or not gap
    weighted = [2 * np.pi * c * pdf for c, pdf in zip(times, slices)
                if pdf is not None]
    average = sum(weighted) / times.size
    assert np.abs(average - marginal_pdf(state, k)).max() < 1e-10



@given(two_mode_states(), conventions)
def test_time_density_integrates_to_one_on_the_exact_time_grid(state, convention):
    """On time_grid_size times the mean of C(t) is exact, mixed m included: C adds
    |.|^2 over m columns, and within one column j - j' is an integer."""
    state = TwoModeState(state.ns, state.na, state.values, state.n_max, convention)
    assert abs(oracles.integral(absolute_time_pdf(state, time_grid_size(state))) - 1.0) < 1e-12


@given(one_lattice_sweeps())
def test_mixture_identity_holds_on_the_exact_time_grid(sweep):
    """Criterion 08 on time_grid_size times, in both conventions; snapshots need one m
    lattice, on which every j - j' is an integer of at most j_max - j_min."""
    amps, convention, _ = sweep
    state, k = occupation_state(amps, convention), 16
    times = absolute_time_pdf(state, time_grid_size(state))
    assert abs(oracles.integral(times) - 1.0) < 1e-12
    slices = snapshot_sweep(state, angular_grid(times.size), k)
    weighted = [2 * np.pi * c * pdf for c, pdf in zip(times, slices)
                if pdf is not None]
    average = sum(weighted) / times.size
    assert np.abs(average - marginal_pdf(state, k)).max() < 1e-12


# occupations (n_s, n_a) with n_s + n_a up to 200: j_max reaches past 63, where the default
# time grid leaves 256 for 4 (ceil(j_max) + 1), in both conventions
large_occupations = st.integers(0, 200).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@given(st.lists(large_occupations, min_size=1, max_size=6, unique=True), conventions,
       st.integers(0, 3), st.integers(1, 1 << 16))
def test_default_time_grid_reads_the_occupied_support(occupations, convention, above, k_t):
    """The default is max(256, 4 (ceil(j_max) + 1)) with j_max over the nonzero cells, also
    for a state declared up to 3 above its support, whose top rows are empty; a k_t is kept."""
    photonic = convention is PHOTONIC
    ones = {(ns, n - ns): 1 / math.sqrt(len(occupations)) for ns, n in occupations}
    state = occupation_state(oracles.jm_map(ones, photonic), convention, above)
    assert state.n_max == max(n for _, n in occupations) + above
    j_max = max(j for j, _ in oracles.jm_map(oracles.state_dict(state), photonic))
    assert pom.time_grid(state) == max(256, 4 * (math.ceil(j_max) + 1))
    assert pom.time_grid(state, k_t) == k_t


def test_one_time_below_time_grid_size_misses_the_integral():
    """(|0,0> + |1,1>)/sqrt(2), photonic: j = 0 and 2 share the column m = 0, so
    C(t) = 1 + cos 2t, whose mean over 3 times is 1 and over 2 times is 2."""
    r = 1 / math.sqrt(2)
    state = TwoModeState(*oracles.cells({(0, 0): r, (1, 1): r}), 2)
    assert time_grid_size(state) == 3
    assert abs(oracles.integral(absolute_time_pdf(state, 3)) - 1.0) < 1e-12
    assert abs(np.mean([conditioning_probability(state, t) for t in angular_grid(2)]) - 2.0) < 1e-12
    with pytest.raises(AliasingError, match="time grid 2 is below the exact-quadrature size 3"):
        absolute_time_pdf(state, 2)

def whole_array_sweep(state, times, k):
    """(live mask, densities) of a sweep, from one scatter, FFT and |.|^2 / C over
    every live time at once."""
    ms, b, c = pom._conditioned(*pom._cells(state), times)
    live = ~(c <= C_MIN)
    values = scatter_series((int(live.sum()),), k, (...,), np.floor(ms).astype(int), b[live])
    return live, np.abs(values) ** 2 / (2.0 * np.pi * c[live, None])


@contextlib.contextmanager
def blocks_of(rows, k):
    """snapshot_sweep's kernel in blocks of `rows` live times of a K-point grid."""
    saved, pom._BLOCK_CELLS = pom._BLOCK_CELLS, rows * k
    try:
        yield
    finally:
        pom._BLOCK_CELLS = saved


def assert_blocked_sweep_is_the_whole_array_sweep(state, times, k, rows):
    live, whole = whole_array_sweep(state, times, k)
    with blocks_of(rows, k):
        slices = snapshot_sweep(state, times, k)
    assert type(slices) is list and [pdf is not None for pdf in slices] == live.tolist()
    got = np.array([pdf for pdf in slices if pdf is not None]).reshape(whole.shape)
    assert got.tobytes() == whole.tobytes()


@given(two_mode_states(gap=True), st.integers(0, 3), st.integers(1, 5))
def test_blocked_sweep_is_bytewise_one_whole_array_evaluation(state, extra, rows):
    """On an exact time grid, whose first time is these states' gap, in blocks
    of 1 to 5 live times."""
    times = angular_grid(time_grid_size(state) + extra)
    assert_blocked_sweep_is_the_whole_array_sweep(state, times, 16, rows)


@pytest.mark.parametrize("rows", range(1, 12))
def test_blocked_sweep_is_bytewise_one_whole_array_evaluation_around_a_mid_grid_gap(rows):
    """(|0,0> + |1,1>)/sqrt(2) on 11 times of [0, pi]: the gap at pi/2 is the
    sixth, so blocks of 1 to 11 live times put it on either side of a block
    edge, and the 10 live times in blocks of 3 leave a 1-row tail block."""
    r = 1 / math.sqrt(2)
    state = TwoModeState(*oracles.cells({(0, 0): r, (1, 1): r}), 2)
    assert whole_array_sweep(state, np.linspace(0.0, math.pi, 11), 32)[0].tolist().index(False) == 5
    assert_blocked_sweep_is_the_whole_array_sweep(state, np.linspace(0.0, math.pi, 11), 32, rows)


# --- photonic parity: j = m (mod 2) in every photonic cell, so shifting t or phi by pi flips
# the sign of the same cells. Each gap below is a largest deviation over the output's peak.


def time_shift_gap(state):
    """C(t + pi) against C(t) on the default time grid, which is even, so t + pi is on it."""
    c = absolute_time_pdf(state)
    return np.abs(np.roll(c, c.size // 2) - c).max() / c.max()


def snapshot_shift_gap(state, t, k):
    """P_C(phi; t + pi) against P_C(phi + pi; t), phi + pi on the even K-point grid."""
    now, later = snapshot_sweep(state, [t, t + math.pi], k)
    if now is None and later is None:  # C(t) = C(t + pi) below C_MIN: both are gaps
        return 0.0
    return np.abs(later - np.roll(now, -k // 2)).max() / now.max()


def marginal_shift_gap(state, k):
    """P_M(phi + pi) against P_M(phi) on the even K-point grid."""
    p = marginal_pdf(state, k)
    return np.abs(np.roll(p, k // 2) - p).max() / p.max()


even_grids = st.sampled_from([12, 16, 32])  # above 2 max|m| = 10 of two_mode_states()


@given(two_mode_states())
def test_photonic_conditioning_probability_is_pi_periodic(state):
    assert time_shift_gap(state) < 1e-12


@given(two_mode_states(), st.floats(-math.pi, math.pi), even_grids)
def test_photonic_snapshot_a_half_period_later_is_the_snapshot_turned_by_pi(state, t, k):
    assert snapshot_shift_gap(state, t, k) < 1e-12


@given(two_mode_states(), even_grids)
def test_photonic_marginal_is_pi_periodic(state, k):
    assert marginal_shift_gap(state, k) < 1e-12


def test_a_fermionic_witness_breaks_each_parity_symmetry():
    """Cells (0,0), (1,1) and (2,0) read fermionically as (j, m) = (0, 0), (1, 0) and (1, 1):
    the column m = 0 holds j = 0 and 1, and the branch j = 1 holds m = 0 and 1."""
    state = TwoModeState(*oracles.cells({(0, 0): 0.6, (1, 1): 0.64, (2, 0): 0.48}), 2, FERMIONIC)
    assert time_shift_gap(state) > 0.1
    assert snapshot_shift_gap(state, 0.4, 16) > 0.1
    assert marginal_shift_gap(state, 16) > 0.1
