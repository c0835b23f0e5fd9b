"""The sampled result types hold only their samples: each grid is fock's angular_grid
of the sample count, read-only and built once per result. Every value type holds a
read-only copy of its input, so the caller's array stays writable and theirs. Amplitude
samples are no value type: they are read-only arrays on angular_grid(K)."""
import dataclasses
import math

import numpy as np
import pytest

from relphase import (
    AngularPdf,
    DiscretePhasePmf,
    SingleModeState,
    TwoModeState,
    XSuperposition,
    absolute_time_pdf,
    angular_grid,
    branch_wavefunctions,
    generalized_phase_pdf,
    make_number_state,
    marginal_pdf,
    pb_pmf,
    phase_pdf,
    phase_wavefunction,
    single_to_two_mode,
    snapshot_pdf,
    to_circular,
)
from relphase.pegg_barnett import kolmogorov_distance

# each type with a valid 4-sample input (the 2-d and empty cases reshape it)
BUILDERS = {
    "AngularPdf": (AngularPdf, np.full(4, 1 / (2 * np.pi))),
    "DiscretePhasePmf": (DiscretePhasePmf, np.full(4, 0.25)),
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("shape", ["2-d", "empty"])
def test_samples_must_be_a_non_empty_1d_array(name, shape):
    build, unit = BUILDERS[name]
    build(unit)  # the 1-d samples are accepted
    bad = np.tile(unit, (2, 1)) if shape == "2-d" else unit[:0]
    with pytest.raises(ValueError, match="must be a non-empty 1-d sequence"):
        build(bad)


# the value types that hold input arrays: the sampled results and the two states
OWNERS = {
    **BUILDERS,
    "SingleModeState": (SingleModeState, np.array([0.6, 0.8j])),
    "TwoModeState": (lambda values: TwoModeState([0, 1], [0, 0], values, 1), np.array([0.6, 0.8j])),
}


@pytest.mark.parametrize("name", OWNERS)
def test_each_value_type_holds_a_copy_and_leaves_the_callers_array_writable(name):
    build, unit = OWNERS[name]
    given = unit.copy()
    result = build(given)
    fields = [f.name for f in dataclasses.fields(result)]
    held = getattr(result, "values" if "values" in fields else fields[0])  # a two-mode state's values
    assert given.flags.writeable and not held.flags.writeable
    kept = held.tobytes()
    given *= 2  # the caller's array is theirs to change
    assert held.tobytes() == kept and given.tobytes() != kept


@pytest.mark.parametrize("cls, fields", [
    (AngularPdf, ["density"]),
    (DiscretePhasePmf, ["masses"]),
])
def test_no_result_type_stores_a_grid(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


STATE = SingleModeState.from_amplitudes([1.0, 0.5j, -0.25])
TWO_MODE = to_circular(XSuperposition(((1, 1.0), (2, 0.5))))
K = 16


@pytest.mark.parametrize("produce, grid, samples", [
    (lambda: phase_pdf(STATE, K), "phi", "density"),
    (lambda: generalized_phase_pdf(single_to_two_mode(STATE), K), "phi", "density"),
    (lambda: marginal_pdf(TWO_MODE, K), "phi", "density"),
    (lambda: snapshot_pdf(TWO_MODE, 0.3, K), "phi", "density"),
    (lambda: absolute_time_pdf(TWO_MODE, 40), "phi", "density"),
    (lambda: pb_pmf(STATE, 6), "theta", "masses"),
])
def test_each_producers_grid_is_angular_grid_of_its_sample_count(produce, grid, samples):
    result = produce()
    count = getattr(result, samples).size
    got = getattr(result, grid)
    assert got.dtype == float and got.tobytes() == angular_grid(count).tobytes()
    assert getattr(result, grid) is got and not got.flags.writeable


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
        pmf = pb_pmf(STATE, s)
        assert pmf.s == s and pmf.theta.size == pmf.masses.size == s + 1


def test_uniform_masses_sit_on_the_grid_for_the_distance():
    # four equal masses at -pi, -pi/2, 0, pi/2 against |1>'s flat density: steps of 1/4
    pmf = DiscretePhasePmf([0.25] * 4)
    assert math.isclose(kolmogorov_distance(pmf, make_number_state(1, 1)), 0.25, abs_tol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 1024, 4097, 100003])
def test_angular_grid_is_read_only_with_the_bits_of_the_written_formula(k):
    grid = angular_grid(k)
    assert grid.dtype == float and not grid.flags.writeable
    assert grid.tobytes() == (-np.pi + 2.0 * np.pi * np.arange(k) / k).tobytes()


# each type's refusal of a sample that is nan, inf or -inf
NON_FINITE = {
    "AngularPdf": "densities must be finite and non-negative",
    "DiscretePhasePmf": "masses must be finite and non-negative",
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_each_sampled_type_refuses_a_non_finite_sample(name, bad):
    build, unit = BUILDERS[name]
    samples = unit.copy()
    samples[0] = bad
    with pytest.raises(ValueError) as err:
        build(samples)
    assert str(err.value) == NON_FINITE[name]
