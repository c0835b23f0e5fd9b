"""Property tests: the pom kernels against the direct-sum oracles on generated states."""
import cmath
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    PrimitiveConvention,
    TwoModeState,
    absolute_time_pdf,
    branch_wavefunctions,
    marginal_pdf,
    snapshot_sweep,
)
from relphase.phase import angular_grid
from relphase.pom import C_MIN, time_grid_size

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC

amplitudes = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
conventions = st.sampled_from([PHOTONIC, FERMIONIC])


@st.composite
def two_mode_states(draw, max_total=5):
    """Normalized states with random support on n_s + n_a <= max_total."""
    occupations = st.tuples(st.integers(0, max_total), st.integers(0, max_total))
    occupations = occupations.filter(lambda key: sum(key) <= max_total)
    keys = draw(st.lists(occupations, min_size=1, max_size=8, unique=True))
    amps = {key: draw(amplitudes) for key in keys}
    return TwoModeState.from_amplitudes(oracles.to_array(amps, max_total))


def occupation_state(jm_amps, convention):
    """The two-mode state of (j, m) amplitudes: n_s, n_a = (j +- m)/c, with
    c = 2 photonic and 1 fermionic."""
    c = 2 if convention is PHOTONIC else 1
    amps = {(round((j + m) / c), round((j - m) / c)): v for (j, m), v in jm_amps.items()}
    return TwoModeState(oracles.to_array(amps, max(ns + na for ns, na in amps)))


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
    bs = branch_wavefunctions(state, k, convention=convention)
    jm = oracles.jm_map(oracles.to_dict(state.amplitudes), photonic=convention is PHOTONIC)
    want = oracles.branch_values(jm, bs.phi)
    assert set(bs.branches) == set(want)
    for j, values in want.items():
        assert np.abs(bs.branches[j] - values).max() < 1e-12
    marginal = marginal_pdf(state, k, convention=convention)
    assert np.abs(marginal.density - oracles.direct_marginal(jm, marginal.phi)).max() < 1e-12


@given(one_lattice_sweeps(), st.sampled_from([8, 9, 16]))
def test_snapshot_sweep_matches_oracle_with_gaps(sweep, k):
    amps, convention, times = sweep
    slices = snapshot_sweep(occupation_state(amps, convention), times, k, convention=convention)
    assert len(slices) == times.size
    phis = angular_grid(k)
    for t, pdf in zip(times, slices):
        c = oracles.direct_C(amps, t)
        assert (pdf is None) == (c <= C_MIN)
        if pdf is not None:
            want = oracles.direct_snapshot(amps, t, phis)
            # densities stay O(1); the round-off of b grows like 1/sqrt(C)
            assert np.abs(pdf.density - want).max() < 1e-11 / math.sqrt(c)


@given(two_mode_states(), conventions, st.integers(0, 5))
def test_absolute_time_pdf_matches_oracle(state, convention, extra):
    k_t = time_grid_size(state, convention) + extra
    pdf = absolute_time_pdf(state, k_t, convention=convention)
    amps = oracles.jm_map(oracles.to_dict(state.amplitudes), photonic=convention is PHOTONIC)
    want = [oracles.direct_C(amps, t) / (2 * np.pi) for t in pdf.phi]
    assert np.abs(pdf.density - want).max() < 1e-12
