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
    db_view,
    local_maxima,
    polarization_ellipse,
    snapshot_pdf,
    snapshot_sequence,
    snapshot_sweep,
    to_circular,
)
from relphase.cli import main


def test_one_photon_expansion():
    state = to_circular(XNumber(1))
    assert np.allclose(
        [state.amplitudes[(1, 0)], state.amplitudes[(0, 1)]],
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
    )


def test_two_photon_expansion():
    state = to_circular(XNumber(2))
    assert abs(state.amplitudes[(2, 0)] - 0.5) < 1e-15
    assert abs(state.amplitudes[(0, 2)] - 0.5) < 1e-15
    assert abs(state.amplitudes[(1, 1)] - math.sqrt(2) / 2) < 1e-15


def test_coherent_zero_mean_is_vacuum():
    state = to_circular(XCoherent(0.0))
    assert oracles.to_dict(state.amplitudes) == {(0, 0): (1 + 0j)}


def test_coherent_expansion_matches_oracle():
    state = to_circular(XCoherent(4.0))
    want = oracles.xcoherent_amp(4.0, state.n_max)
    assert np.abs(state.amplitudes - oracles.to_array(want, state.n_max)).max() < 1e-13


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        to_circular(XCoherent(9.0), n_max=9)


def test_superposition_normalizes_weights():
    # (j, m) = (1, 1), (2, 0), (2, 2) sit at (n_s, n_a) = (1, 0), (1, 1), (2, 0)
    state = to_circular(XSuperposition(((1, 1.0), (2, 1.0))))
    assert abs(state.amplitudes[(1, 0)] - 0.5) < 1e-15
    assert abs(state.amplitudes[(1, 1)] - 0.5) < 1e-15
    assert abs(state.amplitudes[(2, 0)] - 1 / (2 * math.sqrt(2))) < 1e-15


def test_ellipse_one_photon():
    pdf = polarization_ellipse(XNumber(1), 512)
    assert abs(pdf.value_at(0.0) - pdf.value_at(-np.pi)) < 1e-14  # equal peaks
    assert pdf.value_at(np.pi / 2) < 1e-14
    assert pdf.value_at(-np.pi / 2) < 1e-14
    expected = np.cos(pdf.phi) ** 2 / np.pi
    assert np.abs(pdf.density - expected).max() < 1e-13


def test_ellipse_vacuum_uniform():
    pdf = polarization_ellipse(XCoherent(0.0), 128)
    assert np.allclose(pdf.density, 1 / (2 * np.pi))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_photon_numbers_never_point_along_y(n):
    pdf = polarization_ellipse(XNumber(n), 512)
    assert pdf.value_at(np.pi / 2) < 1e-14
    assert pdf.value_at(-np.pi / 2) < 1e-14
    state = to_circular(XNumber(n))
    for t in (0.0, 1.1):
        snap = snapshot_pdf(state, t, 512)
        assert snap.value_at(np.pi / 2) < 1e-14


@pytest.mark.parametrize("n", [2, 4])
def test_even_photon_numbers_can_point_along_y(n):
    pdf = polarization_ellipse(XNumber(n), 512)
    assert pdf.value_at(np.pi / 2) > 1e-6
    assert pdf.value_at(-np.pi / 2) > 1e-6


def test_x_axis_mirror_symmetry():
    for spec in (XNumber(2), XCoherent(3.0), XSuperposition(((0, 1.0), (3, 0.5)))):
        pdf = polarization_ellipse(spec, 256)
        mirrored = np.roll(pdf.density[::-1], 1)
        assert np.abs(pdf.density - mirrored).max() < 1e-13


def test_number_state_ellipse_equals_any_snapshot():
    state = to_circular(XNumber(4))
    pdf = polarization_ellipse(XNumber(4), 128)
    for t in (0.0, 0.9, 2.2):
        assert np.abs(snapshot_pdf(state, t, 128).density - pdf.density).max() < 1e-12


def test_y_axis_probability_decreases_with_mean():
    values = [polarization_ellipse(XCoherent(m), 256).value_at(np.pi / 2) for m in (1, 4, 9)]
    assert values[0] > values[1] > values[2]


def test_db_view_peak_and_floor():
    pdf = polarization_ellipse(XCoherent(9.0), 512)
    db = db_view(pdf)
    assert db.max() == 60.0
    assert db.min() >= 0.0
    # one x photon has exact zeros: floored to 0 dB
    db1 = db_view(polarization_ellipse(XNumber(1), 512))
    k = db1.size
    assert db1[k // 4] == 0.0


def test_weak_coherent_counter_rotating_peaks():
    (pdf,) = snapshot_sequence(XCoherent(1.0), [math.pi / 2], 512)
    peaks = local_maxima(pdf.density)
    assert len(peaks) == 2
    angles = sorted(pdf.phi[i] for i in peaks)
    assert abs(angles[0] + angles[1]) < 1e-9  # symmetric about zero


def test_coherent_mid_range_slices_split_in_two():
    for pdf in snapshot_sequence(XCoherent(4.0), np.linspace(1.0, 2.0, 5), 512):
        peaks = local_maxima(pdf.density)
        assert len(peaks) == 2
        angles = sorted(pdf.phi[i] for i in peaks)
        assert abs(angles[0] + angles[1]) < 1e-9


def test_superposition_snapshot_sequence_anchors():
    # t=0 peaks only up along x (above the 0.1 visibility floor);
    # t=pi peaks at the branch cut
    t0, tpi = snapshot_sequence(XSuperposition(((1, 1.0), (2, 1.0))), [0.0, math.pi], 512)
    visible = local_maxima(t0.density, floor=0.1)
    assert len(visible) == 1
    assert t0.phi[visible[0]] == 0.0
    assert tpi.phi[np.argmax(tpi.density)] == -np.pi  # +-pi by periodicity
    # bare-threshold structure is richer: frozen from the direct oracle
    assert len(local_maxima(t0.density)) == 4


def test_n9_sidelobes_near_half_pi_on_db_scale():
    # at t = pi/2 the angles 0 and +-pi carry equal positive plateaus,
    # invisible on the 0.1 linear contour but ~28 dB on the 60 dB-peak view
    (pdf,) = snapshot_sequence(XCoherent(9.0), [math.pi / 2], 512)
    assert pdf.value_at(0.0) > 1e-4
    assert pdf.value_at(-np.pi) > 1e-4
    assert abs(pdf.value_at(0.0) - pdf.value_at(-np.pi)) < 1e-6
    db = db_view(pdf)
    assert db[pdf.phi.size // 2] > 25.0
    assert len(local_maxima(pdf.density)) == 2


def test_snapshot_gaps_reported_as_none():
    # an x-polarization spec never loses its |m| = j amplitudes, so the gap
    # path needs a state with only shared-m support: C(pi/2) = 0 exactly here
    amp = {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}  # (j, m) = (0, 0), (2, 0)
    slices = snapshot_sweep(TwoModeState(oracles.to_array(amp, 2)), [0.0, math.pi / 2], 256)
    assert slices[0] is not None
    assert slices[1] is None


def test_large_x_number_state_matches_exact_binomial():
    # 2.0**n overflows a float for n >= 1024; the integer ratio comb(n, k) / 2**n does not
    state = to_circular(XNumber(1100))
    want = oracles.to_array(oracles.xnumber_amp(1100), 1100)
    assert np.abs(state.amplitudes - want).max() < 1e-15


def test_large_x_number_ellipse_cli(tmp_path, capsys):
    out = tmp_path / "ellipse.csv"
    assert main(["ellipse", "--pol", "xnum:1100", "--k", "4096", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4097


@pytest.mark.parametrize(
    "spec,n_max",
    [(XCoherent(9.0), 5000), (XCoherent(9.0), 10**11), (XSuperposition(((5000, 1.0),)), None)],
)
def test_circular_state_over_budget_is_refused(spec, n_max):
    with pytest.raises(TruncationError, match="amplitudes"):
        to_circular(spec, n_max)
