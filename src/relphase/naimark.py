"""Moment calculus for the two commuting-extension measurements.

The heterodyne extension pairs the mode with an auxiliary image mode in
vacuum: first moments of the joint quadratures reproduce the single-mode
quadrature means while both second moments are inflated by exactly 1/4 of
zero-point noise. The shift-operator extension does the analogue for the
cosine/sine pair built from the one-sided lowering operator, with the
inflation |psi_0|^2/4 carried by the vacuum amplitude, and its joint
outcome has unit magnitude: second_Y1 + second_Y2 = 1.
"""
from __future__ import annotations

import numpy as np

from .fock import SingleModeState


def _ladder_expectations(state: SingleModeState) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, <n>) from the number amplitudes."""
    psi = state.amplitudes
    n = np.arange(psi.size)
    a1 = complex(np.sum(np.conj(psi[:-1]) * psi[1:] * np.sqrt(n[1:])))
    a2 = complex(np.sum(np.conj(psi[:-2]) * psi[2:] * np.sqrt(n[1:-1] * (n[1:-1] + 1))))
    nbar = float(np.sum(n * np.abs(psi) ** 2))
    return a1, a2, nbar


def heterodyne_moments(state: SingleModeState) -> dict[str, float]:
    """Joint X/P statistics with the auxiliary mode in vacuum (X = (a+a†)/2 scale): the
    means, second moments carrying the +1/4 inflation, and variances, keyed as `moments`
    writes them (mean_X, mean_P, second_X, second_P, var_X, var_P)."""
    a1, a2, nbar = _ladder_expectations(state)
    # the single-mode <chi^2>, <rho^2> plus the auxiliary vacuum's 1/4
    second_X = (2.0 * a2.real + 2.0 * nbar + 1.0) / 4.0 + 0.25
    second_P = (-2.0 * a2.real + 2.0 * nbar + 1.0) / 4.0 + 0.25
    return {"mean_X": a1.real, "mean_P": a1.imag, "second_X": second_X, "second_P": second_P,
            "var_X": second_X - a1.real**2, "var_P": second_P - a1.imag**2}


def _shift_expectations(state: SingleModeState) -> tuple[complex, complex, float]:
    """(<A>, <A^2>, |psi_0|^2) for the one-sided shift A = sum |n><n+1|."""
    psi = state.amplitudes
    s1 = complex(np.sum(np.conj(psi[:-1]) * psi[1:]))
    s2 = complex(np.sum(np.conj(psi[:-2]) * psi[2:]))
    return s1, s2, float(abs(psi[0]) ** 2)


def y_moments(state: SingleModeState) -> dict[str, float]:
    """Joint cosine/sine statistics with the auxiliary mode in vacuum, the vacuum amplitude
    setting the inflation, keyed as `moments` writes them (mean_Y1, mean_Y2, second_Y1,
    second_Y2, vac_prob)."""
    s1, s2, vac = _shift_expectations(state)
    # the intrinsic <C^2>, <S^2> plus the inflation |psi_0|^2/4
    second_Y1 = (2.0 * s2.real + 2.0 - vac) / 4.0 + vac / 4.0
    second_Y2 = (-2.0 * s2.real + 2.0 - vac) / 4.0 + vac / 4.0
    return {"mean_Y1": s1.real, "mean_Y2": s1.imag, "second_Y1": second_Y1,
            "second_Y2": second_Y2, "vac_prob": vac}

