import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from relphase import (
    PrimitiveConvention,
    RelphaseError,
    SingleModeState,
    TwoModeState,
    TruncationError,
    absolute_time_pdf,
    jm_labels,
    make_coherent_state,
    make_number_state,
    marginal_pdf,
    phase_pdf,
    single_to_two_mode,
    state_from_json,
    state_to_json,
)
from relphase import fock
from relphase.polarization import XCoherent, XNumber, XSuperposition, to_circular
from relphase.schwinger import rotate_z

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC


def test_number_state_vacuum():
    s = make_number_state(0, 4)
    assert np.allclose(s.amplitudes, [1, 0, 0, 0, 0])


def test_number_state_basis_vector():
    s = make_number_state(2, 4)
    assert np.allclose(s.amplitudes, [0, 0, 1, 0, 0])


def test_number_state_beyond_truncation():
    with pytest.raises(TruncationError):
        make_number_state(5, 4)


def test_number_state_truncation_defaults_to_its_photon_number():
    assert make_number_state(3).n_max == 3
    assert np.array_equal(make_number_state(3).amplitudes, [0, 0, 0, 1])


NEGATIVE_N_MAX = {
    "make_number_state": lambda: make_number_state(0, -1),
    "make_coherent_state": lambda: make_coherent_state(3.0, -1),
    "coherent_truncation": lambda: fock.coherent_truncation(9.0, -1, 1e-12),
    "XNumber": lambda: to_circular(XNumber(1), -1),
    "XCoherent": lambda: to_circular(XCoherent(9.0), -1),
    "XSuperposition": lambda: to_circular(XSuperposition(((0, 1.0), (2, 1.0))), -1),
    "TwoModeState": lambda: TwoModeState(np.array([0]), np.array([0]), np.array([1.0]), -1),
}


@pytest.mark.parametrize("build", NEGATIVE_N_MAX.values(), ids=NEGATIVE_N_MAX.keys())
def test_a_negative_n_max_is_refused_by_check_budget_for_every_builder(build):
    """fock.check_budget owns the rule, ahead of the truncation search and the photon count."""
    with pytest.raises(ValueError) as err:
        build()
    assert (type(err.value), str(err.value)) == (ValueError, "n_max must be >= 0")


def test_negative_number_state_is_a_value_error():
    # refused before the truncation check, which raised TruncationError for it
    with pytest.raises(ValueError, match="photon numbers must be >= 0"):
        make_number_state(-1, 5)


def test_coherent_alpha_zero_is_vacuum():
    s = make_coherent_state(0.0, n_max=7)
    assert np.allclose(s.amplitudes, np.eye(8)[0])


def test_coherent_vacuum_probability_matches_poisson():
    s = make_coherent_state(1.0, n_max=20)
    assert abs(abs(s.amplitudes[0]) ** 2 - math.exp(-1)) < 1e-8


def test_coherent_rejects_inadequate_truncation():
    needed = fock.coherent_n_max(9.0, 1e-10)
    assert needed > 9
    with pytest.raises(TruncationError, match=rf"; need n_max >= {needed}$"):
        make_coherent_state(3.0, n_max=9, tail_tol=1e-10)


def test_number_state_refusal_states_the_photon_number():
    with pytest.raises(TruncationError, match=r"^number state n=3 exceeds n_max=2$"):
        make_number_state(3, 2)


def test_x_number_refusal_states_the_photon_count():
    with pytest.raises(TruncationError, match=r"^3 photons exceed n_max=2$"):
        to_circular(XNumber(3), n_max=2)


def test_coherent_default_truncation_obeys_tail():
    for mean in (0.5, 1.0, 9.0, 100.0, 1000.0):
        s = make_coherent_state(math.sqrt(mean))
        assert oracles.poisson_tail(mean, s.n_max) < 1e-12
        assert oracles.poisson_tail(mean, s.n_max - 1) >= 1e-12


@pytest.mark.parametrize(
    "key,convention,expected",
    [
        ((1, 0), PHOTONIC, (1, 1)),
        ((1, 1), PHOTONIC, (2, 0)),
        ((1, 0), FERMIONIC, (0.5, 0.5)),
    ],
)
def test_to_jm_single_key(key, convention, expected):
    assert jm_labels(*key, convention) == expected


@pytest.mark.parametrize("convention", [PHOTONIC, FERMIONIC])
def test_jm_labels_match_oracle_map(convention):
    rng = np.random.default_rng(7)
    amp = oracles.random_two_amp(rng, 6)
    ns, na = np.array(list(amp)).T
    js, ms = jm_labels(ns, na, convention)
    want = oracles.jm_map(amp, photonic=convention is PHOTONIC)
    assert dict(zip(zip(js.tolist(), ms.tolist()), amp.values())) == want


def two_mode(amp, n_max):
    return TwoModeState(*oracles.cells(amp), n_max)


def evolved(state, t):
    """The state freely evolved by t, through the dense oracle."""
    array = oracles.evolve(oracles.to_array(oracles.state_dict(state), state.n_max), t)
    return TwoModeState(*oracles.cells(oracles.to_dict(array)), state.n_max)


def test_evolve_identity_at_t0():
    amps = oracles.to_array({(1, 0): 1.0}, 1)
    out = oracles.evolve(amps, 0.0)
    assert out[(1, 0)] == 1.0


def test_evolve_pi_flips_one_photon():
    amps = oracles.to_array({(1, 0): 1.0}, 1)
    out = oracles.evolve(amps, math.pi)
    assert abs(out[(1, 0)] + 1.0) < 1e-15


def test_evolve_multiplies_each_branch_by_exp_minus_ijt():
    amp = {k: v / math.sqrt(2) for k, v in oracles.xnumber_amp(1).items()}
    for k, v in oracles.xnumber_amp(2).items():
        amp[k] = amp.get(k, 0) + v / math.sqrt(2)
    out = oracles.evolve(oracles.to_array(amp, 2), math.pi)
    for (ns, na), v in amp.items():
        expected = v * np.exp(-1j * (ns + na) * math.pi)
        assert abs(out[(ns, na)] - expected) < 1e-15
    # j=1 branch flips sign relative to j=2
    assert out[(1, 0)].real < 0 < out[(2, 0)].real


def test_evolve_preserves_norm_exactly_and_composes():
    rng = np.random.default_rng(3)
    state = two_mode(oracles.random_two_amp(rng, 5), 5)
    norms = [np.vdot(s.values, s.values).real for s in (evolved(state, 2.31), state)]
    assert abs(norms[0] - norms[1]) < 1e-15
    array = oracles.to_array(oracles.state_dict(state), 5)
    once = oracles.evolve(array, 0.7 + 1.1)
    twice = oracles.evolve(oracles.evolve(array, 0.7), 1.1)
    assert np.abs(once - twice).max() < 1e-12


@pytest.mark.parametrize("side", ["s", "a"])
def test_evolution_shifts_generalized_phase_wavefunction(side):
    # support on one mode only: the density shifts by -t (s side) or +t (a side)
    rng = np.random.default_rng(11)
    k = 256
    steps = 16
    tau = steps * 2 * math.pi / k
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vec /= math.sqrt(float(np.vdot(vec, vec).real))
    if side == "s":
        amp = {(n, 0): vec[n] for n in range(6)}
    else:
        amp = {(0, n): vec[n] for n in range(6)}
    state = two_mode(amp, 6)
    before = phase_pdf(state, k)
    after = phase_pdf(evolved(state, tau), k)
    shift = -steps if side == "s" else steps
    assert np.abs(after - np.roll(before, shift)).max() < 1e-10


def test_json_round_trip_single():
    s = make_coherent_state(1.2 + 0.3j, n_max=12, tail_tol=1e-6)
    back = state_from_json(state_to_json(s))
    assert isinstance(back, SingleModeState)
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_json_round_trip_two():
    rng = np.random.default_rng(5)
    s = two_mode(oracles.random_two_amp(rng, 4), 4)
    back = state_from_json(state_to_json(s))
    assert isinstance(back, TwoModeState)
    assert back.n_max == 4
    assert np.array_equal(back.ns, s.ns) and np.array_equal(back.na, s.na)
    assert np.abs(back.values - s.values).max() < 1e-15


def test_json_field_names_fixed():
    doc = json.loads(state_to_json(make_number_state(1, 2)))
    assert set(doc) == {"kind", "n_max", "amps"}
    assert doc["kind"] == "single"
    assert doc["amps"] == [[1, 0, 1.0, 0.0]]


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "single", "n_max": 3, "amps": [[-1, 0, 1.0, 0.0]]},  # negative
        {"kind": "single", "n_max": 3, "amps": [[1.5, 0, 1.0, 0.0]]},  # non-integer
        {"kind": "single", "n_max": 3, "amps": [["1", 0, 1.0, 0.0]]},  # non-integer
        {"kind": "single", "n_max": 1, "amps": [[5, 0, 1.0, 0.0]]},  # out of range
        {"kind": "two", "n_max": 2, "amps": [[0, 3, 1.0, 0.0]]},  # out of range
        {"kind": "two", "n_max": 2, "amps": [[1, 1, 1.0, 0.0], [1, 1, 0.5, 0.0]]},  # duplicate
        {"n_max": 1, "amps": [[0, 0, 1.0, 0.0]]},  # missing kind
        {"kind": "single", "amps": [[0, 0, 1.0, 0.0]]},  # missing n_max
        {"kind": "single", "n_max": None, "amps": [[0, 0, 1.0, 0.0]]},
        {"kind": "single", "n_max": 1, "amps": [[0, 0, 1.0]]},  # short row
        {"kind": "single", "n_max": 1, "amps": [[0, 0, "1", 0.0]]},  # non-numeric
        {"kind": "single", "n_max": 1, "amps": [[0, 0, float("nan"), 0.0]]},
        {"kind": "two", "n_max": 1, "amps": [[0, 0, 1.0, float("inf")]]},
        ["single", 1, []],
    ],
)
def test_json_reader_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        state_from_json(json.dumps(doc))


def test_json_reader_refuses_a_deeply_nested_document():
    with pytest.raises(ValueError, match="nests too deeply"):
        state_from_json("[" * 100_000)


def test_two_mode_rejects_keys_beyond_truncation():
    with pytest.raises(ValueError, match=r"\(2, 1\) exceeds n_max=2"):
        two_mode({(2, 1): 1.0}, 2)


R = 1 / math.sqrt(2)


@pytest.mark.parametrize("cells, n_max, error, message", [
    (([-1], [0], [1.0]), 2, ValueError, "cell labels ns and na must be non-negative integers"),
    (([0], [-1], [1.0]), 2, ValueError, "cell labels ns and na must be non-negative integers"),
    (([1, 0], [0, 0], [R, R]), 1, ValueError, "cells must strictly increase in row-major (n_s, n_a) order"),
    (([0, 0], [1, 0], [R, R]), 1, ValueError, "cells must strictly increase in row-major (n_s, n_a) order"),
    (([0, 0], [1, 1], [R, R]), 1, ValueError, "cells must strictly increase in row-major (n_s, n_a) order"),
    (([0, 1], [0, 0], [1.0, 0.0]), 1, ValueError, "amplitude at (1, 0) is zero"),
    (([0, 1], [0], [R, R]), 1, ValueError, "2 ns, 1 na and 2 values differ in length"),
    (([0], [0], [R, R]), 1, ValueError, "1 ns, 1 na and 2 values differ in length"),
    (([0.0], [0], [1.0]), 1, ValueError, "cell labels ns and na must be non-negative integers"),
    (([0], [True], [1.0]), 1, ValueError, "cell labels ns and na must be non-negative integers"),
    (([[0]], [[0]], [1.0]), 1, ValueError, "cell labels must be a non-empty 1-d sequence"),
    (([0], [0], [2.0]), 1, ValueError, "amplitudes have squared norm 4.0, not 1"),
    (([], [], []), 1, ValueError, "values must be a non-empty 1-d sequence"),
    (([0], [0], [1.0]), 1.0, TypeError, "n_max 1.0 is not an integer"),
    (([0], [0], [1.0]), 5792, TruncationError,
     "a 2-mode state at n_max=5792 needs 16782321 amplitudes (256.1 MiB); the budget is 16777216 (256 MiB)"),
], ids=["negative n_s", "negative n_a", "out of order", "out of order in a row", "duplicate",
        "zero value", "short na", "long values", "float labels", "bool labels", "2-d labels",
        "off unit", "no cells", "float n_max", "over budget"])
def test_two_mode_constructor_refuses_with_one_line(cells, n_max, error, message):
    with pytest.raises(error) as err:
        TwoModeState(*cells, n_max)
    assert str(err.value) == message


def test_two_mode_cells_are_read_only_copies():
    ns, na, values = np.array([0, 1]), np.array([1, 0]), np.array([R, R * 1j])
    state = TwoModeState(ns, na, values, 1)
    assert state.n_max == 1 and state.ns.dtype == state.na.dtype == np.int64
    for held, given in ((state.ns, ns), (state.na, na), (state.values, values)):
        assert np.array_equal(held, given) and held is not given and given.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0


@pytest.mark.parametrize("convention", ["photonic", None, 1])
def test_two_mode_convention_must_be_a_primitive_convention(convention):
    with pytest.raises(TypeError, match="convention must be a PrimitiveConvention"):
        TwoModeState([0], [0], [1.0], 0, convention)


def test_from_cells_keeps_its_convention():
    cells = oracles.cells(oracles.random_two_amp(np.random.default_rng(8), 3))
    assert TwoModeState.from_cells(*cells, 3).convention is PHOTONIC
    for convention in PrimitiveConvention:
        state = TwoModeState.from_cells(*cells, 3, convention)
        assert state.convention is convention
        assert state.values.tobytes() == TwoModeState.from_cells(*cells, 3).values.tobytes()


def test_constructors_without_a_convention_make_photonic_states():
    fermionic = TwoModeState([1], [0], [1.0], 1, FERMIONIC)
    made = [to_circular(XCoherent(2.0)), single_to_two_mode(make_number_state(1, 2)),
            state_from_json(state_to_json(fermionic))]
    assert [state.convention for state in made] == [PHOTONIC] * 3


def test_json_holds_amplitudes_only():
    cells = oracles.cells(oracles.random_two_amp(np.random.default_rng(6), 4))
    assert state_to_json(TwoModeState(*cells, 4, FERMIONIC)) == state_to_json(TwoModeState(*cells, 4))


def test_constructors_normalize():
    rng = np.random.default_rng(9)
    amp = {k: 3.7 * v for k, v in oracles.random_two_amp(rng, 5).items()}
    state = TwoModeState.from_cells(*oracles.cells(amp), 5)
    assert abs(np.vdot(state.values, state.values).real - 1.0) < 1e-10


@pytest.mark.parametrize("tiny", [1e-160, 1e-170, 1e-300, 1e-320])
def test_constructors_normalize_amplitudes_whose_squares_underflow(tiny):
    # (1, 1, 1j)/sqrt(3) at a scale where the squared norm is subnormal or zero
    single = SingleModeState.from_amplitudes(np.array([1, 1, 1j]) * tiny)
    assert np.allclose(single.amplitudes, np.array([1, 1, 1j]) / math.sqrt(3), rtol=1e-15)
    two = TwoModeState.from_cells([0, 1, 2], [1, 1, 0], np.array([1, 1, 1j]) * tiny, 2)
    assert np.allclose(two.values, np.array([1, 1, 1j]) / math.sqrt(3), rtol=1e-15)


@pytest.mark.parametrize("huge", [1e155, 1e200, 1e300, 1e308])
def test_constructors_normalize_amplitudes_whose_squares_overflow(huge):
    # (1, 1, 1j)/sqrt(3) at a scale where the squared norm is not a finite float
    single = SingleModeState.from_amplitudes(np.array([1, 1, 1j]) * huge)
    assert np.allclose(single.amplitudes, np.array([1, 1, 1j]) / math.sqrt(3), rtol=1e-15)
    two = TwoModeState.from_cells([0, 1, 2], [1, 1, 0], np.array([1, 1, 1j]) * huge, 2)
    assert np.allclose(two.values, np.array([1, 1, 1j]) / math.sqrt(3), rtol=1e-15)


def test_constructors_normalize_amplitudes_whose_moduli_overflow():
    # |1.5e308 (1 + 1j)| is beyond the largest float, though each part is finite
    unit = np.array([1 + 1j, 1 - 1j])
    assert np.allclose(SingleModeState.from_amplitudes(1.5e308 * unit).amplitudes, unit / 2, rtol=1e-15)
    two = TwoModeState.from_cells([0, 0], [0, 1], 1.5e308 * unit, 1)
    assert np.allclose(two.values, unit / 2, rtol=1e-15)


@pytest.mark.parametrize("kind", ["single", "two"])
def test_json_reader_reads_amplitudes_whose_squared_norm_overflows(kind):
    doc = {"kind": kind, "n_max": 1, "amps": [[0, 0, 1e200, 0.0], [1, 0, 1e200, 0.0]]}
    unit = {**doc, "amps": [[0, 0, 1.0, 0.0], [1, 0, 1.0, 0.0]]}
    got, want = (state_from_json(json.dumps(d)) for d in (doc, unit))
    stored = "values" if kind == "two" else "amplitudes"
    assert getattr(got, stored).tobytes() == getattr(want, stored).tobytes()


@pytest.mark.parametrize("amps", [[float("inf"), 1.0], [float("nan"), 1.0], [1e308, -float("inf")]])
def test_constructors_refuse_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="cannot normalize a vector of norm (inf|nan)"):
        SingleModeState.from_amplitudes(amps)
    with pytest.raises(ValueError, match="cannot normalize a vector of norm (inf|nan)"):
        TwoModeState.from_cells([0, 0], [0, 1], amps, 1)


def test_constructors_divide_by_the_plain_norm_when_its_square_is_normal():
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-150, 1e150):
        amps = scale * (rng.normal(size=6) + 1j * rng.normal(size=6))
        norm = math.sqrt(float(np.vdot(amps, amps).real))
        assert SingleModeState.from_amplitudes(amps).amplitudes.tobytes() == (amps / norm).tobytes()
        expected = (amps.view(float) / norm).view(complex)
        two = TwoModeState.from_cells([0, 0, 0, 1, 1, 2], [0, 1, 2, 0, 1, 0], amps, 2)
        assert two.values.tobytes() == expected.tobytes()


PARTS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6), st.sampled_from([5e-324, -1e-310]))


@st.composite
def dense_arrays(draw):
    """A square amplitude array on a simplex of n_max <= 6, zero outside it and in some cells."""
    n_max = draw(st.integers(0, 6))
    ns, na = oracles.simplex_cells(n_max)
    parts = draw(st.lists(PARTS, min_size=2 * ns.size, max_size=2 * ns.size))
    array = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    array[ns, na] = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    return array


@given(dense_arrays())
def test_from_cells_stores_what_the_dense_rule_stored(array):
    """The row-major cells of a dense array, zeros included, renormalize bit for bit as the
    dense array did: the support's norm in row-major order, then each real part divided."""
    support = array[array != 0]
    assume(1e-300 < float(np.vdot(support, support).real) < 1e300)  # no rescaling
    n_max = len(array) - 1
    ns, na = oracles.simplex_cells(n_max)
    state = TwoModeState.from_cells(ns, na, array[ns, na], n_max)
    want = oracles.renormalized_cells(array)
    assert list(zip(state.ns.tolist(), state.na.tolist())) == list(want)
    assert state.values.tobytes() == np.array(list(want.values()), dtype=complex).tobytes()


@given(dense_arrays(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_json_rows_in_any_order_with_zero_rows_read_as_their_sorted_support(array, rnd, zeros):
    support = array[array != 0]
    assume(1e-300 < float(np.vdot(support, support).real) < 1e300)
    n_max = len(array) - 1
    ns, na = oracles.simplex_cells(n_max)
    cells = [[s, a, v.real, v.imag] for s, a, v in zip(ns.tolist(), na.tolist(), array[ns, na].tolist())]
    rows = [row for row in cells if complex(*row[2:]) != 0]
    rows += [[s, a, 0.0, -0.0] for s, a, re, im in cells if complex(re, im) == 0][:zeros]
    rnd.shuffle(rows)
    state = state_from_json(json.dumps({"kind": "two", "n_max": n_max, "amps": rows}))
    want = TwoModeState.from_cells(ns, na, array[ns, na], n_max)
    for name in ("ns", "na", "values"):
        assert getattr(state, name).tobytes() == getattr(want, name).tobytes()
    doc = json.loads(state_to_json(state))
    assert doc["amps"] == [[s, a, v.real, v.imag] for s, a, v in
                           zip(state.ns.tolist(), state.na.tolist(), state.values.tolist())]
    back = state_from_json(state_to_json(state))
    assert np.array_equal(back.ns, state.ns) and np.array_equal(back.na, state.na)
    assert np.abs(back.values - state.values).max() < 1e-15


def test_state_to_json_matches_reference_writer():
    rng = np.random.default_rng(12)
    for n_max in (0, 1, 4, 9):
        psi = oracles.random_single(rng, n_max)
        psi[rng.random(n_max + 1) < 0.3] = 0.0  # exact zeros are left out
        if not psi.any():
            psi[0] = 1.0
        single = SingleModeState(psi / np.linalg.norm(psi))
        psi = single.amplitudes
        amp = {(n, 0): complex(v) for n, v in enumerate(psi)}
        assert state_to_json(single) == oracles.state_json_reference("single", n_max, amp)
        two = two_mode(oracles.random_two_amp(rng, n_max, density=0.6), n_max)
        want = oracles.state_json_reference("two", n_max, oracles.state_dict(two))
        assert state_to_json(two) == want
    rotated = rotate_z(to_circular(XCoherent(9.0)), 0.83)
    want = oracles.state_json_reference("two", rotated.n_max, oracles.state_dict(rotated))
    assert state_to_json(rotated) == want


# --- size budget: every refusal happens before the array is allocated --------


def test_single_mode_document_over_budget_is_refused():
    doc = {"kind": "single", "n_max": 10**11, "amps": [[0, 0, 1.0, 0.0]]}
    with pytest.raises(TruncationError, match="amplitudes"):
        state_from_json(json.dumps(doc))


def test_two_mode_document_over_budget_is_refused():
    # a tiny support does not shrink the simplex of cells the document declares
    doc = {"kind": "two", "n_max": 5792, "amps": [[1, 0, 1.0, 0.0]]}
    with pytest.raises(TruncationError, match="16782321 amplitudes"):
        state_from_json(json.dumps(doc))


def test_budget_edge_is_n_max_5791():
    # the two-mode basis is the simplex of (n_max + 1)(n_max + 2)/2 cells
    assert 5792 * 5793 // 2 <= fock.MAX_AMPLITUDES < 5793 * 5794 // 2
    assert fock.budget_n_max(2) == oracles.TWO_MODE_N_MAX == 5791
    fock.check_budget(5791, 2)
    with pytest.raises(TruncationError):
        fock.check_budget(5792, 2)


def test_working_set_edge_is_2_to_the_26_cells():
    fock.check_cells((2**13, 2**13), "a grid")
    with pytest.raises(RelphaseError, match="a grid of 8192 x 8193 cells is over"):
        fock.check_cells((2**13, 2**13 + 1), "a grid")


def test_truncation_search_stays_within_the_budget(monkeypatch):
    drawn = []
    terms = fock._pmf_terms
    monkeypatch.setattr(fock, "_pmf_terms", lambda mean: (drawn.append(p) or p for p in terms(mean)))
    with pytest.raises(TruncationError, match=r"n_max > 5791 .* budget is 16777216"):
        to_circular(XCoherent(5800.0))  # just past the budget, where the Chernoff bound lets it probe
    assert drawn and len(drawn) <= fock.budget_n_max(2) + 1 == 5792  # the masses p_0..p_5791
    # a mean that fits gets the n_max of the unbounded search, in either budget
    for mean, n_max in ((0.0, 0), (9.0, 37), (100.0, 178), (1000.0, 1232)):
        assert fock.coherent_n_max(mean, 1e-12) == fock.coherent_n_max(mean, 1e-12, 2) == n_max


def xcoherent(mean, *n_max):
    return to_circular(XCoherent(mean), *n_max)


NOT_A_MEAN = "mean photon number must be finite and >= 0, got "


@pytest.mark.parametrize("build, args, got", [
    (make_coherent_state, (math.nan,), "nan"),
    (make_coherent_state, (math.nan, 5), "nan"),  # the explicit path runs the search and its check
    (make_coherent_state, (math.inf,), "inf"),
    (make_coherent_state, (1e200,), "inf"),  # |alpha| ** 2 overflows
    (make_coherent_state, (complex(2.0**512, 0.0),), "inf"),
    (xcoherent, (math.nan,), "nan"),
    (xcoherent, (math.inf,), "inf"),
    (xcoherent, (-1.0,), "-1.0"),
    (xcoherent, (-1.0, 5), "-1.0"),
    (fock.coherent_n_max, (-0.5, 1e-12), "-0.5"),
    (fock.coherent_truncation, (math.nan, 5, 1e-12), "nan"),
], ids=["nan", "nan-n_max", "inf", "1e200", "2**512", "xcoh-nan", "xcoh-inf", "xcoh-negative",
        "xcoh-negative-n_max", "search-negative", "explicit-nan"])
def test_a_coherent_mean_that_is_not_finite_and_non_negative_is_refused(build, args, got):
    with pytest.raises(ValueError) as err:
        build(*args)
    assert str(err.value) == NOT_A_MEAN + got


def test_only_an_alpha_whose_square_overflows_reads_as_an_infinite_mean():
    # the largest |alpha| below 2**512 keeps its finite square, and the budget refuses that mean
    with pytest.raises(TruncationError, match=r"mean 1\.79769e\+308 needs n_max > 16777215"):
        make_coherent_state(math.nextafter(2.0**512, 0.0))


TAIL_TOLS = (1e-15, 1e-12, 1e-6, 0.5, 0.999)


def truncation_outcome(search, mean, tail_tol, modes):
    """The n_max a search returns, or the message of its refusal."""
    try:
        return search(mean, tail_tol, modes)
    except (TruncationError, oracles.Refusal) as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("tail_tol", TAIL_TOLS)
def test_truncation_search_matches_the_bisection(tail_tol, modes):
    for mean in (0.0, 1e-300, 0.5, 1.0, 9.0, 30.0, 100.0, 500.5, 1000.0, 2000.0, 3000.0,
                 3300.0, 5000.0):
        expected = truncation_outcome(oracles.bisection_n_max, mean, tail_tol, modes)
        assert truncation_outcome(fock.coherent_n_max, mean, tail_tol, modes) == expected, mean


@given(st.floats(0.0, 4000.0, exclude_min=True, exclude_max=True),
       st.sampled_from(TAIL_TOLS), st.sampled_from([1, 2]))
def test_truncation_search_matches_the_bisection_at_any_mean(mean, tail_tol, modes):
    expected = truncation_outcome(oracles.bisection_n_max, mean, tail_tol, modes)
    assert truncation_outcome(fock.coherent_n_max, mean, tail_tol, modes) == expected


@given(st.floats(0.0, 4000.0, exclude_min=True, exclude_max=True),
       st.sampled_from(TAIL_TOLS), st.sampled_from([1, 2]), st.data())
def test_an_explicit_n_max_is_kept_exactly_when_its_tail_is_below_tail_tol(
        mean, tail_tol, modes, data):
    expected = truncation_outcome(oracles.bisection_n_max, mean, tail_tol, modes)
    top = min(5000, fock.budget_n_max(modes))
    near = (st.integers(max(0, expected - 2), min(top, expected + 2)) if isinstance(expected, int)
            else st.nothing())  # both sides of the smallest adequate n_max
    n_max = data.draw(st.integers(0, top) | near)
    kept = oracles.poisson_tail(mean, n_max) < tail_tol
    try:
        assert fock.coherent_truncation(mean, n_max, tail_tol, modes) == n_max and kept
    except TruncationError as exc:
        assert not kept
        if isinstance(expected, str):  # the search's own refusal
            assert f"refused: {exc}" == expected
        else:  # an explicit n_max below the smallest adequate one, which the message states
            assert str(exc).endswith(f"is not below {tail_tol:g}; need n_max >= {expected}")


def test_xcoherent_modes_take_the_two_mode_truncation():
    # Poisson(mean/2) lies below Poisson(mean), so each mode's tail at the two-mode
    # n_max is below tail_tol; 1 - fsum of the mean/2 masses rounds to 1.3e-15 here,
    # which a second tail check refused as "no adequate truncation below n=795"
    state = to_circular(XCoherent(15.3), tail_tol=1e-15)
    assert state.n_max == fock.coherent_n_max(15.3, 1e-15, 2) == 55
    assert abs(np.vdot(state.values, state.values).real - 1.0) < 1e-12


def test_single_to_two_mode_over_budget_is_refused():
    with pytest.raises(TruncationError):
        single_to_two_mode(make_number_state(0, 5792))


def test_coherent_truncation_runs_one_search_per_call(monkeypatch):
    calls = []
    search = fock.coherent_n_max
    monkeypatch.setattr(fock, "coherent_n_max", lambda *a: calls.append(a) or search(*a))
    state = to_circular(XCoherent(100.0))
    assert state.n_max == 178 and len(calls) == 1
    assert to_circular(XCoherent(9.0), n_max=40).n_max == 40 and len(calls) == 2
    message = r"n_max=9 is not below 1e-12; need n_max >= 37"
    with pytest.raises(TruncationError, match=message):
        to_circular(XCoherent(9.0), n_max=9)
    assert len(calls) == 3
    with pytest.raises(ValueError, match="tail_tol"):
        to_circular(XCoherent(9.0), n_max=40, tail_tol=0.0)  # checked on the explicit path too


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, 1.0, math.nan])
def test_truncation_search_refuses_tail_tol_outside_unit_interval(tail_tol):
    with pytest.raises(ValueError, match="tail_tol must lie in"):
        fock.coherent_n_max(9.0, tail_tol)



@pytest.mark.parametrize("k", [0, -1])
def test_angular_grid_refuses_a_size_below_one(k):
    with pytest.raises(ValueError, match="^grid size must be positive$"):
        fock.angular_grid(k)


@pytest.mark.parametrize("call", [
    # 8.5 built 9 points spaced 2 pi / 8.5, and the time density sat on angular_grid(9)
    lambda: fock.angular_grid(8.5),
    lambda: absolute_time_pdf(to_circular(XSuperposition(((1, 1.0), (2, 1.0)))), 8.5),
    # every series reads K through check_grid
    lambda: phase_pdf(make_number_state(1, 1), 8.5),
    lambda: marginal_pdf(to_circular(XNumber(1)), 8.5),
], ids=["angular_grid", "absolute_time_pdf", "phase_pdf", "marginal_pdf"])
def test_a_grid_size_that_is_not_an_integer_is_refused(call):
    with pytest.raises(TypeError, match="^grid size 8.5 is not an integer$"):
        call()


def test_integer_like_grid_sizes_read_as_integers():
    assert np.array_equal(fock.angular_grid(np.int64(8)), fock.angular_grid(8))
    assert np.array_equal(fock.angular_grid(True), [-np.pi])


@pytest.mark.parametrize("build, message", [
    (lambda: make_number_state(1.5, 3), "photon number 1.5"),
    (lambda: make_number_state(np.float64(1.0), 3), "photon number np.float64(1.0)"),
    (lambda: make_number_state(1, 3.0), "n_max 3.0"),
    (lambda: make_coherent_state(2.0, n_max=1.5), "n_max 1.5"),
    (lambda: to_circular(XCoherent(1.0), n_max=8.0), "n_max 8.0"),
])
def test_a_photon_number_or_n_max_that_is_not_an_integer_is_refused(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)} is not an integer$"):
        build()


def test_integer_like_photon_numbers_read_as_integers():
    assert np.array_equal(make_number_state(True, 3).amplitudes, [0, 1, 0, 0])
    assert np.array_equal(make_number_state(np.int64(2), np.uint8(3)).amplitudes, [0, 0, 1, 0])
    assert np.array_equal(make_coherent_state(2.0, n_max=np.int32(40)).amplitudes,
                          make_coherent_state(2.0, n_max=40).amplitudes)
