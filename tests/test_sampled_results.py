"""Every distribution is a read-only float64 array whose grid is fock's angular_grid of its
size: phase_pdf of either state type, marginal_pdf, absolute_time_pdf, each live slice of
snapshot_sweep (of one time or many) and pb_pmf's masses (s = masses.size - 1). No value type wraps
them: a state is the only validated value type, and it holds a read-only copy of its input,
so the caller's array stays writable and theirs. Amplitude samples are read-only arrays too.

A distribution is fixed once its state is: its finiteness, sign and unit total follow from
the state's, and the hypothesis property below checks them on random states."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relphase import (
    PrimitiveConvention,
    RelphaseError,
    SingleModeState,
    TwoModeState,
    XSuperposition,
    absolute_time_pdf,
    angular_grid,
    branch_wavefunctions,
    make_number_state,
    marginal_pdf,
    pb_pmf,
    phase_pdf,
    phase_wavefunction,
    single_to_two_mode,
    snapshot_sweep,
    to_circular,
)
from relphase.pegg_barnett import kolmogorov_distance

# the value types that hold input arrays: the two states
OWNERS = {
    "SingleModeState": (SingleModeState, np.array([0.6, 0.8j])),
    "TwoModeState": (lambda values: TwoModeState([0, 1], [0, 0], values, 1), np.array([0.6, 0.8j])),
}


@pytest.mark.parametrize("name", OWNERS)
@pytest.mark.parametrize("shape", ["2-d", "empty"])
def test_samples_must_be_a_non_empty_1d_array(name, shape):
    build, unit = OWNERS[name]
    build(unit)  # the 1-d samples are accepted
    bad = np.tile(unit, (2, 1)) if shape == "2-d" else unit[:0]
    with pytest.raises(ValueError, match="must be a non-empty 1-d sequence"):
        build(bad)


@pytest.mark.parametrize("name", OWNERS)
def test_each_value_type_holds_a_copy_and_leaves_the_callers_array_writable(name):
    build, unit = OWNERS[name]
    caller = unit.copy()
    result = build(caller)
    fields = [f.name for f in dataclasses.fields(result)]
    held = getattr(result, "values" if "values" in fields else fields[0])  # a two-mode state's values
    assert caller.flags.writeable and not held.flags.writeable
    kept = held.tobytes()
    caller *= 2  # the caller's array is theirs to change
    assert held.tobytes() == kept and caller.tobytes() != kept


STATE = SingleModeState.from_amplitudes([1.0, 0.5j, -0.25])
TWO_MODE = to_circular(XSuperposition(((1, 1.0), (2, 0.5))))
K = 16


@pytest.mark.parametrize("produce, size", [
    (lambda: phase_pdf(STATE, K), K),
    (lambda: phase_pdf(single_to_two_mode(STATE), K), K),
    (lambda: marginal_pdf(TWO_MODE, K), K),
    (lambda: absolute_time_pdf(TWO_MODE, 40), 40),
    (lambda: snapshot_sweep(TWO_MODE, [0.3], K)[0], K),
    (lambda: pb_pmf(STATE, 6), 7),
])
def test_each_producer_returns_a_read_only_float_array_of_its_grid_size(produce, size):
    result = produce()
    assert type(result) is np.ndarray and result.dtype == np.float64 and result.shape == (size,)
    assert not result.flags.writeable


def test_live_sweep_slices_are_read_only_rows_of_one_block_and_gaps_are_none():
    gap = TwoModeState.from_cells([0, 1], [0, 1], [1.0, 1.0], 2)  # C(pi/2) = 0
    slices = snapshot_sweep(gap, [0.0, math.pi / 2, 1.0], K)
    assert slices[1] is None and sum(pdf is None for pdf in slices) == 1
    live = [slices[0], slices[2]]
    assert all(pdf.shape == (K,) and not pdf.flags.writeable for pdf in live)
    assert live[0].base is not None and live[0].base is live[1].base  # no copy per slice


def test_amplitude_samples_are_read_only_complex_arrays_of_k_samples():
    psi = phase_wavefunction(STATE, K)
    assert type(psi) is np.ndarray and psi.dtype == complex and psi.shape == (K,)
    assert not psi.flags.writeable
    branches = branch_wavefunctions(TWO_MODE, K)  # j = 1 and 2, each a row of one array
    assert list(branches) == [1.0, 2.0]
    rows = list(branches.values())
    assert all(type(row) is np.ndarray and row.dtype == complex and row.shape == (K,) for row in rows)
    assert not any(row.flags.writeable for row in rows)
    assert rows[0].base is not None and all(row.base is rows[0].base for row in rows)


def test_pb_pmf_s_is_its_truncation():
    for s in (2, 6, 31):
        assert pb_pmf(STATE, s).size == s + 1


def test_uniform_masses_sit_on_the_grid_for_the_distance():
    # four equal masses at -pi, -pi/2, 0, pi/2 against |1>'s flat density: steps of 1/4
    masses = np.full(4, 0.25)
    assert math.isclose(kolmogorov_distance(masses, make_number_state(1, 1)), 0.25, abs_tol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 1024, 4097, 100003])
def test_angular_grid_is_read_only_with_the_bits_of_the_written_formula(k):
    grid = angular_grid(k)
    assert grid.dtype == float and not grid.flags.writeable
    assert grid.tobytes() == (-np.pi + 2.0 * np.pi * np.arange(k) / k).tobytes()


# --- every producer on random states --------------------------------------------------------

parts = st.floats(-1.0, 1.0, allow_nan=False)
amplitudes = st.builds(complex, parts, parts)


@st.composite
def single_states(draw):
    """A unit state of n_max <= 12 with at least one amplitude of magnitude 1e-3 or more."""
    amps = draw(st.lists(amplitudes, min_size=1, max_size=13))
    if max(abs(a) for a in amps) < 1e-3:
        amps[draw(st.integers(0, len(amps) - 1))] = 1.0
    return SingleModeState.from_amplitudes(amps)


@st.composite
def two_mode_states(draw):
    """A unit state on up to 8 cells of the n_max <= 5 simplex, in either convention."""
    n_max = draw(st.integers(0, 5))
    cells = st.tuples(st.integers(0, n_max), st.integers(0, n_max)).filter(lambda c: sum(c) <= n_max)
    amps = draw(st.dictionaries(cells, amplitudes, min_size=1, max_size=8))
    if max(abs(a) for a in amps.values()) < 1e-3:
        amps[next(iter(amps))] = 1.0
    ns, na = (np.array(x, dtype=int) for x in zip(*sorted(amps)))
    values = [amps[cell] for cell in sorted(amps)]
    convention = draw(st.sampled_from(list(PrimitiveConvention)))
    return TwoModeState.from_cells(ns, na, values, n_max, convention)


def single_grid(single, extra):
    return 2 * int(single.ns[-1]) + 1 + extra  # above 2 max n


def two_grid(two, extra):
    return 4 * two.n_max + 4 + extra  # above 2 max|m| in either convention


# each producer on a drawn state: (its output, one array or a list with None at gap times; its check)
PRODUCERS = {
    "phase_pdf": lambda single, two, extra, times: (
        phase_pdf(single, single_grid(single, extra)), oracles.check_density),
    "phase_pdf-embedded": lambda single, two, extra, times: (
        phase_pdf(single_to_two_mode(single), single_grid(single, extra)),
        oracles.check_density),
    "pb_pmf": lambda single, two, extra, times: (
        pb_pmf(single, int(single.ns[0]) + extra), oracles.check_masses),
    "marginal_pdf": lambda single, two, extra, times: (
        marginal_pdf(two, two_grid(two, extra)), oracles.check_density),
    "absolute_time_pdf": lambda single, two, extra, times: (
        absolute_time_pdf(two), oracles.check_density),
    "snapshot_sweep": lambda single, two, extra, times: (
        snapshot_sweep(two, times, two_grid(two, extra)), oracles.check_density),
    "snapshot_sweep-one-time": lambda single, two, extra, times: (
        snapshot_sweep(two, times[:1], two_grid(two, extra)), oracles.check_density),
    "phase_pdf-two-mode": lambda single, two, extra, times: (
        phase_pdf(two, two_grid(two, extra)), oracles.check_density),
}


@pytest.mark.parametrize("name", PRODUCERS)
@given(single=single_states(), two=two_mode_states(), extra=st.integers(0, 6),
       times=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))
def test_every_producer_returns_a_checked_read_only_array(name, single, two, extra, times):
    try:
        result, check = PRODUCERS[name](single, two, extra, times)
    except RelphaseError:  # a gap time, m lattices mixed, or both modes excited
        return
    assert all(pdf is None or check(pdf) for pdf in (result if isinstance(result, list) else [result]))


UNIFORM = {  # a sample each check accepts, and the bound on its total that it was given
    "check_density": (oracles.check_density, np.full(8, 1.0 / (2.0 * np.pi)), 1e-8),
    "check_masses": (oracles.check_masses, np.full(8, 1.0 / 8.0), 1e-10),
}
DEFECTS = {
    "nan": lambda x, bound: x.__setitem__(3, np.nan),
    "inf": lambda x, bound: x.__setitem__(3, np.inf),
    "-inf": lambda x, bound: x.__setitem__(3, -np.inf),
    "negative": lambda x, bound: x.__setitem__(3, -1e-300),
    "off-unit": lambda x, bound: x.__imul__(1.0 + 2.0 * bound),
    "writable": None,
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("name", UNIFORM)
def test_each_retired_check_refuses_what_its_value_type_refused(name, defect):
    """The oracle checks carry the retired types' refusals: a property over them shows
    something only if each defect is refused."""
    check, sample, bound = UNIFORM[name]
    sample = sample.copy()
    sample.flags.writeable = False
    assert check(sample)
    sample.flags.writeable = True
    if DEFECTS[defect] is not None:
        DEFECTS[defect](sample, bound)
        sample.flags.writeable = False
    with pytest.raises(AssertionError):
        check(sample)
