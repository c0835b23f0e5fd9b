"""A state is a finite unit vector by construction, so every kernel that takes one returns
finite output: each distribution is a read-only array that is finite, non-negative and of
unit total, and amplitude samples have one sample count, are finite and of unit total norm.

The constructors refuse, with one ValueError line, amplitudes whose squared norm is off 1 by
more than 1e-10: nan, +-inf, zero and off-unit arrays alike. The hypothesis property below
calls every public kernel on arrays drawn to include all of these; each named case is an
array that some kernel once read without a refusal.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (PrimitiveConvention, RelphaseError, SingleModeState, TwoModeState,
                      absolute_time_pdf, angular_grid, apply_jminus, apply_jplus, apply_jz,
                      branch_wavefunctions, conditioning_probability, heterodyne_moments,
                      marginal_pdf, pb_pmf, phase_cdf, phase_pdf, phase_wavefunction,
                      rotate_z, single_to_two_mode, snapshot_sweep, state_from_json,
                      state_to_json, y_moments)
from relphase.pegg_barnett import kolmogorov_distance
from relphase.pom import time_grid

K = 16  # above 2 max|m| for every drawn state (n_max <= 4)


def refusal(build):
    """The one-line message of the ValueError that build() raises."""
    with pytest.raises(ValueError) as err:
        build()
    assert "\n" not in str(err.value)
    return str(err.value)


# arrays a kernel read without a refusal while a state could hold them: (class, constructor
# arguments, the squared norm the refusal names; a non-finite one reads nan or inf), a two-mode
# state built from its cells (ns, na, values, n_max)
NAMED = {
    "nan, 1 (phase_cdf gave [nan])": (SingleModeState, ([np.nan, 1.0],), "nan"),
    "zeros(3) (heterodyne_moments gave the vacuum's)": (SingleModeState, (np.zeros(3),), "0.0"),
    "3, 0 (vac_prob 9, a phase_cdf ending at 9)": (SingleModeState, ([3.0, 0.0],), "9.0"),
    "1e300, 1e300": (SingleModeState, ([1e300, 1e300],), "inf"),
    "inf": (SingleModeState, ([np.inf, 0.0],), "nan|inf"),
    "-inf": (SingleModeState, ([-np.inf, 0.0],), "nan|inf"),
    "imaginary nan": (SingleModeState, ([complex(1.0, np.nan)],), "nan"),
    "1e-300, 1e-300": (SingleModeState, ([1e-300, 1e-300],), "0.0"),
    "3|0,0> (conditioning_probability gave 9)": (TwoModeState, ([0], [0], [3.0], 1), "9.0"),
    "two-mode nan (conditioning_probability gave nan)":
        (TwoModeState, ([0, 1], [0, 0], [np.nan, 0.5], 1), "nan"),
    "two-mode 1e300, 1e300 (conditioning_probability gave inf)":
        (TwoModeState, ([0, 0], [0, 1], [1e300, 1e300], 1), "inf"),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_arrays_are_refused_at_construction_with_one_line(name):
    cls, args, squared = NAMED[name]
    message = refusal(lambda: cls(*args))
    assert re.fullmatch(f"amplitudes have squared norm ({squared}), not 1", message)


def test_the_tolerance_is_1e_10_on_the_squared_norm():
    SingleModeState([math.sqrt(1.0 + 0.9e-10)])
    SingleModeState([math.sqrt(1.0 - 0.9e-10)])
    for squared in (1.0 + 1.1e-10, 1.0 - 1.1e-10):
        refusal(lambda: SingleModeState([math.sqrt(squared)]))


FINITE = [0.0, 1e300, -1e300, 1e-300, 3.0]
NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def drawn_arrays(draw, modes):
    """(n_max + 1)^modes amplitudes from [-2, 2] and FINITE, in half the draws NON_FINITE too,
    divided by their norm when unit is drawn (a non-finite or zero array stays so)."""
    n_max = draw(st.integers(0, 4))
    shape = (n_max + 1,) * modes
    size = math.prod(shape)
    special = FINITE + draw(st.sampled_from([[], NON_FINITE]))
    parts = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(special))
    amps = np.zeros(shape, dtype=complex)
    for part in (amps.real, amps.imag):  # re + 1j * im would turn an infinite part into nan
        part[...] = np.reshape(draw(st.lists(parts, min_size=size, max_size=size)), shape)
    n = np.arange(n_max + 1)
    mask = np.add.outer(n, n) <= n_max if modes == 2 else True
    amps = np.where(mask, amps, 0.0)
    if draw(st.booleans()):
        with np.errstate(all="ignore"):  # the largest part first to 1, so 1e300 parts do not overflow
            amps = amps / np.abs(amps).max()
            amps = np.where(mask, amps / np.linalg.norm(amps), 0.0)
    return amps


def unit(amps):
    with np.errstate(all="ignore"):
        return abs(math.fsum(np.abs(amps.ravel()) ** 2) - 1.0) <= 1e-10  # nan fails


def finite(*values):
    return all(np.isfinite(np.asarray(v)).all() for v in values)


def constructed(cls, *args):
    """cls(*args), or None after checking the constructor's one-line refusal."""
    try:
        return cls(*args)
    except ValueError as err:
        assert "\n" not in str(err) and str(err).startswith("amplitudes have squared norm ")
        return None


@given(drawn_arrays(1))
def test_every_single_mode_kernel_gives_finite_checked_output(amps):
    state = constructed(SingleModeState, amps)
    if state is None:
        assert not unit(amps)
        return
    psi = phase_wavefunction(state, K)
    assert psi.shape == (K,) and finite(psi) and abs(np.mean(np.abs(psi) ** 2) - 1.0) <= 1e-10
    oracles.check_density(phase_pdf(state, K))
    masses = pb_pmf(state, state.n_max)
    oracles.check_masses(masses)
    cdf = phase_cdf(state, angular_grid(masses.size))
    assert finite(cdf) and abs(phase_cdf(state, np.array([np.pi]))[0] - 1.0) < 1e-10
    assert finite(kolmogorov_distance(masses, state), kolmogorov_distance(pb_pmf(state, 8), state))
    for moments in (heterodyne_moments(state), y_moments(state)):
        assert finite(list(moments.values()))
    assert 0.0 <= y_moments(state)["vac_prob"] <= 1.0 + 1e-10
    assert single_to_two_mode(state).n_max == state.n_max


@given(drawn_arrays(2), st.sampled_from(list(PrimitiveConvention)))
def test_every_two_mode_kernel_gives_finite_checked_output(amps, convention):
    ns, na = np.nonzero(amps)  # the array's cells; an all-zero array has none, so no state
    state = constructed(TwoModeState, ns, na, amps[ns, na], len(amps) - 1, convention) if ns.size else None
    if state is None:
        assert not unit(amps)
        return
    oracles.check_density(marginal_pdf(state, K))
    rows = np.array(list(branch_wavefunctions(state, K).values()))
    assert rows.shape[1:] == (K,) and finite(rows)
    assert abs(math.fsum(np.mean(np.abs(rows) ** 2, axis=1)) - 1.0) <= 1e-10  # the branch norms
    assert finite(time_grid(state)) and oracles.check_density(absolute_time_pdf(state))
    c = conditioning_probability(state, 0.3)
    assert finite(c) and c >= 0.0
    for kernel in (lambda: snapshot_sweep(state, [0.0, 0.3], K), lambda: snapshot_sweep(state, [0.3], K),
                   lambda: [phase_pdf(state, K)]):
        try:
            pdfs = kernel()
        except RelphaseError:  # a gap time, m lattices mixed, or both modes excited
            continue
        for pdf in pdfs:
            assert pdf is None or oracles.check_density(pdf)
    assert finite(apply_jz(state), apply_jplus(state), apply_jminus(state))
    assert rotate_z(state, 0.7).convention is convention  # a state: its constructor checked it
    assert state_from_json(state_to_json(state)).n_max == state.n_max


# --- value types that hold arrays compare and hash by identity -----------------------------

HOLDERS = {
    "SingleModeState": lambda: SingleModeState([1.0]),
    "TwoModeState": lambda: TwoModeState([0], [0], [1.0], 0),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = HOLDERS[name](), HOLDERS[name]()
    assert a == a and a != b and a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert [a, None, b].count(None) == 1
