"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Expected values marked "oracle" were computed with the
independent brute-force routes in oracles.py and frozen here.
"""
import math
import time

import numpy as np
import pytest

import oracles
from oracles import time_grid_size
from relphase import (
    PrimitiveConvention,
    SingleModeState,
    TwoModeState,
    XCoherent,
    XNumber,
    XSuperposition,
    branch_wavefunctions,
    commutator_residuals,
    conditioning_probability,
    heterodyne_moments,
    make_coherent_state,
    kolmogorov_distance,
    make_number_state,
    marginal_pdf,
    pb_pmf,
    phase_pdf,
    phase_wavefunction,
    snapshot_sweep,
    to_circular,
    y_moments,
)
from relphase.fock import angular_grid

PHOTONIC = PrimitiveConvention.PHOTONIC
FERMIONIC = PrimitiveConvention.FERMIONIC


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def eq67_state():
    return to_circular(XSuperposition(((1, 1.0), (2, 1.0))))


def test_criterion_01_branch_wavefunction_golden():
    start = time.perf_counter()
    branches, phi = branch_wavefunctions(eq67_state(), 1024), angular_grid(1024)
    # paper normalization carries sqrt(2) relative to the unit-norm state
    got1 = math.sqrt(2) * branches[1]
    got2 = math.sqrt(2) * branches[2]
    want1 = math.sqrt(2) * np.cos(phi)
    want2 = np.cos(2 * phi) + 2**-0.5
    err = max(np.abs(got1 - want1).max(), np.abs(got2 - want2).max())
    elapsed = time.perf_counter() - start
    assert err < 1e-12
    assert elapsed < 1.0
    report(1, f"branch golden test, max err {err:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_snapshot_suppression():
    state = eq67_state()
    snap0 = snapshot_sweep(state, [0.0], 1024)[0]
    ratio = oracles.value_at(snap0, -np.pi) / oracles.value_at(snap0, 0.0)
    analytic = ((1 - math.sqrt(2) + 2**-0.5) / (1 + math.sqrt(2) + 2**-0.5)) ** 2
    assert abs(ratio - analytic) < 1e-10
    # single visible maximum at phi=0 (0.1 density floor, the plotted contour base)
    visible = oracles.local_maxima(snap0, floor=0.1)
    assert len(visible) == 1 and angular_grid(snap0.size)[visible[0]] == 0.0
    snap_pi = snapshot_sweep(state, [math.pi], 1024)[0]
    assert angular_grid(snap_pi.size)[np.argmax(snap_pi)] == -np.pi
    report(2, f"P_C(pi)/P_C(0) = {ratio:.6e} (analytic {analytic:.6e}); peak flips to +-pi")


def test_criterion_03_weak_coherent_y_axis_probability():
    # statistic selection (oracle, recorded in README): raw marginal density
    # at phi = pi/2; the peak-normalized candidate gives 0.196 for mean 1 and
    # is inconsistent with "slightly over 6%"
    start = time.perf_counter()
    p1 = oracles.value_at(marginal_pdf(to_circular(XCoherent(1.0)), 1024), np.pi / 2)
    p9 = oracles.value_at(marginal_pdf(to_circular(XCoherent(9.0)), 1024), np.pi / 2)
    elapsed = time.perf_counter() - start
    assert 0.055 <= p1 <= 0.075
    assert p9 < 2e-4
    assert elapsed < 5.0
    report(3, f"P(pi/2): mean1 {p1:.4f} in [0.055, 0.075]; mean9 {p9:.3e} < 2e-4")


def test_criterion_04_db_contrasts():
    def contrast(mean):
        pdf = marginal_pdf(to_circular(XCoherent(mean)), 1024)
        return 10 * math.log10(pdf.max() / oracles.value_at(pdf, np.pi / 2))

    c9 = contrast(9.0)
    c4 = contrast(4.0)
    assert 35.0 <= c9 <= 40.0
    assert 20.0 < c4 <= 30.0
    report(4, f"peak/(pi/2): mean9 {c9:.2f} dB in [35,40]; mean4 {c4:.2f} dB in (20,30]")


def test_criterion_05_n9_snapshot_and_time_facts():
    state = to_circular(XCoherent(9.0))
    peak0 = snapshot_sweep(state, [0.0], 1024)[0].max()
    peak_half = snapshot_sweep(state, [math.pi / 2], 1024)[0].max()
    ratio = peak_half / peak0
    assert 0.25 < ratio < 1.0
    time_ratio = conditioning_probability(state, math.pi / 2) / conditioning_probability(state, 0.0)
    assert time_ratio < 1e-3
    report(5, f"snapshot peak ratio {ratio:.4f} in (1/4, 1); time density ratio {time_ratio:.2e}")


def test_criterion_06_odd_even_rule():
    for n in (1, 3, 5):
        state = to_circular(XNumber(n))
        pm = marginal_pdf(state, 1024)
        assert oracles.value_at(pm, np.pi / 2) < 1e-14
        assert oracles.value_at(pm, -np.pi / 2) < 1e-14
        for t in (0.0, 0.8, 2.3):
            snap = snapshot_sweep(state, [t], 1024)[0]
            assert oracles.value_at(snap, np.pi / 2) < 1e-14
            assert oracles.value_at(snap, -np.pi / 2) < 1e-14
    for n in (2, 4):
        pm = marginal_pdf(to_circular(XNumber(n)), 1024)
        assert oracles.value_at(pm, np.pi / 2) > 1e-6
        assert oracles.value_at(pm, -np.pi / 2) > 1e-6
    report(6, "odd x-photon numbers vanish at +-pi/2 (<1e-14); even exceed 1e-6")


def test_criterion_07_moment_identities():
    rng = np.random.default_rng(20)
    worst_unit = worst_sum = worst_inflation = 0.0
    for _ in range(100):
        psi = oracles.random_single(rng, 20)
        state = SingleModeState(psi)
        ym = y_moments(state)
        worst_unit = max(worst_unit, abs(ym["second_Y1"] + ym["second_Y2"] - 1.0))
        # sum rule: <C^2> + <S^2> + vac/2 = 1 with the intrinsic moments
        c2 = ym["second_Y1"] - ym["vac_prob"] / 4
        s2 = ym["second_Y2"] - ym["vac_prob"] / 4
        worst_sum = max(worst_sum, abs(c2 + s2 + ym["vac_prob"] / 2 - 1.0))
        hm = heterodyne_moments(state)
        var_chi, var_rho = oracles.single_mode_quadrature_var(psi)
        worst_inflation = max(
            worst_inflation,
            abs((hm["var_X"] - var_chi) - 0.25),
            abs((hm["var_P"] - var_rho) - 0.25),
        )
    assert worst_unit < 1e-12
    assert worst_sum < 1e-12
    assert worst_inflation < 1e-12
    report(
        7,
        f"unit magnitude {worst_unit:.1e}, sum rule {worst_sum:.1e}, "
        f"inflation-1/4 {worst_inflation:.1e} (100 states)",
    )


def test_criterion_08_mixture_identity():
    rng = np.random.default_rng(21)
    k = 64
    worst = 0.0
    for _ in range(20):
        amp = oracles.random_two_amp(rng, 8)
        state = TwoModeState(*oracles.cells(amp), 8)
        ts = angular_grid(time_grid_size(state))
        acc = np.zeros(k)
        for t in ts:
            c = conditioning_probability(state, float(t))
            acc += c * snapshot_sweep(state, [float(t)], k)[0]
        worst = max(worst, np.abs(acc / ts.size - marginal_pdf(state, k)).max())
    assert worst < 1e-8
    report(8, f"C-weighted snapshot average = marginal, max dev {worst:.2e} (20 states)")


def test_criterion_09_pb_convergence():
    corpus = [
        make_number_state(0, 0),
        make_number_state(1, 1),
        SingleModeState(np.array([1.0, 1.0]) / math.sqrt(2)),
        make_coherent_state(1.0),
        make_coherent_state(math.sqrt(2.0)),
    ]
    worst_final = 0.0
    for state in corpus:
        d64, d128, d256 = (kolmogorov_distance(pb_pmf(state, s), state) for s in (64, 128, 256))
        assert d64 > d128 > d256
        worst_final = max(worst_final, d256)
    assert worst_final < 0.02
    report(9, f"distances strictly decrease; max at s=256 is {worst_final:.4f} < 0.02")


def test_criterion_10_algebra_residuals():
    rp = commutator_residuals(PHOTONIC, 6)
    rf = commutator_residuals(FERMIONIC, 6)
    # the largest of the four residuals: the three commutators and the Casimir
    worst_p, worst_f = (max(r["cyclic_xyz"], r["z_ladder"], r["ladder_pair"], r["casimir"])
                        for r in (rp, rf))
    assert rp["structure_constant"] == 2.0 and worst_p < 1e-12
    assert rf["structure_constant"] == 1.0 and worst_f < 1e-12
    assert rp["casimir"] < 1e-12 and rf["casimir"] < 1e-12
    report(
        10,
        f"photonic (c=2) residual {worst_p:.1e}, Casimir j(j+2) {rp['casimir']:.1e}; "
        f"fermionic (c=1) residual {worst_f:.1e}, Casimir j(j+1) {rf['casimir']:.1e}",
    )


def test_criterion_11_subspace_equivalence_and_normalization():
    rng = np.random.default_rng(22)
    worst_equiv = worst_parseval = worst_norm = 0.0
    for _ in range(20):
        amp = oracles.random_hprime_amp(rng, 9)
        state = TwoModeState(*oracles.cells(amp), 9)
        snap = snapshot_sweep(state, [0.0], 256)[0]
        gen = phase_pdf(state, 256)
        worst_equiv = max(worst_equiv, np.abs(snap - gen).max())
    for _ in range(20):
        psi = oracles.random_single(rng, 25)
        wf = phase_wavefunction(SingleModeState(psi), 256)
        worst_parseval = max(worst_parseval, abs(np.mean(np.abs(wf) ** 2) - 1.0))
        amp = oracles.random_two_amp(rng, 7)
        state = TwoModeState(*oracles.cells(amp), 7)
        worst_norm = max(worst_norm, abs(oracles.integral(marginal_pdf(state, 64)) - 1.0))
        worst_norm = max(worst_norm, abs(oracles.integral(snapshot_sweep(state, [0.4], 64)[0]) - 1.0))
    assert worst_equiv < 1e-10
    assert worst_parseval < 1e-10
    assert worst_norm < 1e-8
    report(
        11,
        f"shift-subspace equivalence {worst_equiv:.1e} (<1e-10); "
        f"Parseval {worst_parseval:.1e} (<1e-10); normalization {worst_norm:.1e} (<1e-8)",
    )
