import math

import numpy as np
import pytest

import oracles
from relphase import (
    TruncationError,
    TwoModeState,
    XCoherent,
    XNumber,
    XSuperposition,
    angular_grid,
    db_view,
    marginal_pdf,
    snapshot_sweep,
    to_circular,
)
from relphase.cli import main


def test_one_photon_expansion():
    amp = oracles.state_dict(to_circular(XNumber(1)))
    assert np.allclose(
        [amp[(1, 0)], amp[(0, 1)]],
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
    )


def test_two_photon_expansion():
    amp = oracles.state_dict(to_circular(XNumber(2)))
    assert abs(amp[(2, 0)] - 0.5) < 1e-15
    assert abs(amp[(0, 2)] - 0.5) < 1e-15
    assert abs(amp[(1, 1)] - math.sqrt(2) / 2) < 1e-15


def test_coherent_zero_mean_is_vacuum():
    state = to_circular(XCoherent(0.0))
    assert oracles.state_dict(state) == {(0, 0): (1 + 0j)}


def test_coherent_expansion_matches_oracle():
    state = to_circular(XCoherent(4.0))
    want = oracles.xcoherent_amp(4.0, state.n_max)
    got = oracles.to_array(oracles.state_dict(state), state.n_max)
    assert np.abs(got - oracles.to_array(want, state.n_max)).max() < 1e-13


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        to_circular(XCoherent(9.0), n_max=9)


def test_superposition_normalizes_weights():
    # (j, m) = (1, 1), (2, 0), (2, 2) sit at (n_s, n_a) = (1, 0), (1, 1), (2, 0)
    amp = oracles.state_dict(to_circular(XSuperposition(((1, 1.0), (2, 1.0)))))
    assert abs(amp[(1, 0)] - 0.5) < 1e-15
    assert abs(amp[(1, 1)] - 0.5) < 1e-15
    assert abs(amp[(2, 0)] - 1 / (2 * math.sqrt(2))) < 1e-15


def test_ellipse_one_photon():
    pdf = marginal_pdf(to_circular(XNumber(1)), 512)
    assert abs(oracles.value_at(pdf, 0.0) - oracles.value_at(pdf, -np.pi)) < 1e-14  # equal peaks
    assert oracles.value_at(pdf, np.pi / 2) < 1e-14
    assert oracles.value_at(pdf, -np.pi / 2) < 1e-14
    expected = np.cos(angular_grid(pdf.size)) ** 2 / np.pi
    assert np.abs(pdf - expected).max() < 1e-13


def test_ellipse_vacuum_uniform():
    pdf = marginal_pdf(to_circular(XCoherent(0.0)), 128)
    assert np.allclose(pdf, 1 / (2 * np.pi))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_photon_numbers_never_point_along_y(n):
    pdf = marginal_pdf(to_circular(XNumber(n)), 512)
    assert oracles.value_at(pdf, np.pi / 2) < 1e-14
    assert oracles.value_at(pdf, -np.pi / 2) < 1e-14
    state = to_circular(XNumber(n))
    for t in (0.0, 1.1):
        snap = snapshot_sweep(state, [t], 512)[0]
        assert oracles.value_at(snap, np.pi / 2) < 1e-14


@pytest.mark.parametrize("n", [2, 4])
def test_even_photon_numbers_can_point_along_y(n):
    pdf = marginal_pdf(to_circular(XNumber(n)), 512)
    assert oracles.value_at(pdf, np.pi / 2) > 1e-6
    assert oracles.value_at(pdf, -np.pi / 2) > 1e-6


def test_x_axis_mirror_symmetry():
    for spec in (XNumber(2), XCoherent(3.0), XSuperposition(((0, 1.0), (3, 0.5)))):
        pdf = marginal_pdf(to_circular(spec), 256)
        mirrored = np.roll(pdf[::-1], 1)
        assert np.abs(pdf - mirrored).max() < 1e-13


def test_number_state_ellipse_equals_any_snapshot():
    state = to_circular(XNumber(4))
    pdf = marginal_pdf(to_circular(XNumber(4)), 128)
    for t in (0.0, 0.9, 2.2):
        assert np.abs(snapshot_sweep(state, [t], 128)[0] - pdf).max() < 1e-12


def test_y_axis_probability_decreases_with_mean():
    values = [oracles.value_at(marginal_pdf(to_circular(XCoherent(m)), 256), np.pi / 2) for m in (1, 4, 9)]
    assert values[0] > values[1] > values[2]


def test_db_view_peak_and_floor():
    pdf = marginal_pdf(to_circular(XCoherent(9.0)), 512)
    db = db_view(pdf)
    assert db.max() == 60.0
    assert db.min() >= 0.0
    # one x photon has exact zeros: floored to 0 dB
    db1 = db_view(marginal_pdf(to_circular(XNumber(1)), 512))
    k = db1.size
    assert db1[k // 4] == 0.0


def test_weak_coherent_counter_rotating_peaks():
    (pdf,) = snapshot_sweep(to_circular(XCoherent(1.0)), [math.pi / 2], 512)
    peaks = oracles.local_maxima(pdf)
    assert len(peaks) == 2
    angles = sorted(angular_grid(pdf.size)[i] for i in peaks)
    assert abs(angles[0] + angles[1]) < 1e-9  # symmetric about zero


def test_coherent_mid_range_slices_split_in_two():
    for pdf in snapshot_sweep(to_circular(XCoherent(4.0)), np.linspace(1.0, 2.0, 5), 512):
        peaks = oracles.local_maxima(pdf)
        assert len(peaks) == 2
        angles = sorted(angular_grid(pdf.size)[i] for i in peaks)
        assert abs(angles[0] + angles[1]) < 1e-9


def test_superposition_snapshot_sequence_anchors():
    # t=0 peaks only up along x (above the 0.1 visibility floor);
    # t=pi peaks at the branch cut
    t0, tpi = snapshot_sweep(to_circular(XSuperposition(((1, 1.0), (2, 1.0)))), [0.0, math.pi], 512)
    visible = oracles.local_maxima(t0, floor=0.1)
    assert len(visible) == 1
    assert angular_grid(t0.size)[visible[0]] == 0.0
    assert angular_grid(tpi.size)[np.argmax(tpi)] == -np.pi  # +-pi by periodicity
    # bare-threshold structure is richer: frozen from the direct oracle
    assert len(oracles.local_maxima(t0)) == 4


def test_n9_sidelobes_near_half_pi_on_db_scale():
    # at t = pi/2 the angles 0 and +-pi carry equal positive plateaus,
    # invisible on the 0.1 linear contour but ~28 dB on the 60 dB-peak view
    (pdf,) = snapshot_sweep(to_circular(XCoherent(9.0)), [math.pi / 2], 512)
    assert oracles.value_at(pdf, 0.0) > 1e-4
    assert oracles.value_at(pdf, -np.pi) > 1e-4
    assert abs(oracles.value_at(pdf, 0.0) - oracles.value_at(pdf, -np.pi)) < 1e-6
    db = db_view(pdf)
    assert db[pdf.size // 2] > 25.0
    assert len(oracles.local_maxima(pdf)) == 2


def test_snapshot_gaps_reported_as_none():
    # an x-polarization spec never loses its |m| = j amplitudes, so the gap
    # path needs a state with only shared-m support: C(pi/2) = 0 exactly here
    amp = {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}  # (j, m) = (0, 0), (2, 0)
    slices = snapshot_sweep(TwoModeState(*oracles.cells(amp), 2), [0.0, math.pi / 2], 256)
    assert slices[0] is not None
    assert slices[1] is None


def test_large_x_number_state_matches_exact_binomial():
    # 2.0**n overflows a float for n >= 1024; the integer ratio comb(n, k) / 2**n does not
    state = to_circular(XNumber(1100))
    want = oracles.to_array(oracles.xnumber_amp(1100), 1100)
    assert np.abs(oracles.to_array(oracles.state_dict(state), 1100) - want).max() < 1e-15


def test_large_x_number_ellipse_cli(tmp_path, capsys):
    out = tmp_path / "ellipse.csv"
    assert main(["ellipse", "--pol", "xnum:1100", "--k", "4096", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4097


@pytest.mark.parametrize(
    "spec,n_max",
    [(XCoherent(9.0), 5792), (XCoherent(9.0), 10**11), (XSuperposition(((5792, 1.0),)), None)],
)
def test_circular_state_over_budget_is_refused(spec, n_max):
    with pytest.raises(TruncationError, match="amplitudes"):
        to_circular(spec, n_max)


def test_empty_superposition_is_refused():
    with pytest.raises(ValueError, match="^superposition needs at least one term$"):
        to_circular(XSuperposition(()))


@pytest.mark.parametrize("spec, n_max, message", [
    (XNumber(1.5), None, "photon number 1.5"),
    (XSuperposition(((1.5, 1.0),)), None, "photon number 1.5"),
    (XSuperposition(((1, 1.0), (2.0, 1.0))), None, "photon number 2.0"),
    (XNumber(1), 2.0, "n_max 2.0"),
])
def test_a_photon_number_or_n_max_that_is_not_an_integer_is_refused(spec, n_max, message):
    with pytest.raises(TypeError, match=f"^{message} is not an integer$"):
        to_circular(spec, n_max)


def test_integer_like_photon_numbers_read_as_integers():
    one = oracles.state_dict(to_circular(XNumber(1)))
    assert oracles.state_dict(to_circular(XNumber(True))) == one
    assert oracles.state_dict(to_circular(XSuperposition(((np.int64(1), 1.0),)), np.int64(1))) == one


@pytest.mark.parametrize("spec", ["xcoh:1", 1.0, None])
def test_a_value_that_is_not_a_spec_is_refused(spec):
    with pytest.raises(TypeError, match="^unknown polarization spec "):
        to_circular(spec)
