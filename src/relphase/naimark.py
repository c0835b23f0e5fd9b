"""Moment calculus for the two commuting-extension measurements.

The heterodyne extension pairs the mode with an auxiliary image mode in
vacuum: first moments of the joint quadratures reproduce the single-mode
quadrature means while both second moments are inflated by exactly 1/4 of
zero-point noise. The shift-operator extension does the analogue for the
cosine/sine pair built from the one-sided lowering operator, with the
inflation |psi_0|^2/4 carried by the vacuum amplitude, and its joint
outcome has unit magnitude: second_Y1 + second_Y2 = 1.

On the subspace where at most one mode is excited (n_s * n_a = 0) the
extension acts as a two-sided shift, and the corresponding two-sided
Fourier series gives the generalized phase density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import SupportError
from .fock import DEFAULT_GRID_SIZE, SingleModeState, TwoModeState, check_grid, scatter_series
from .phase import AngularPdf


@dataclass(frozen=True)
class QuadratureMoments:
    """Joint X/P statistics with the auxiliary mode in vacuum (X=(a+a†)/2 scale)."""

    mean_X: float
    mean_P: float
    second_X: float
    second_P: float

    @property
    def var_X(self) -> float:
        return self.second_X - self.mean_X**2

    @property
    def var_P(self) -> float:
        return self.second_P - self.mean_P**2

    def as_dict(self) -> dict[str, float]:
        d = asdict(self)
        d["var_X"] = self.var_X
        d["var_P"] = self.var_P
        return d


@dataclass(frozen=True)
class YMoments:
    """Joint cosine/sine statistics with the auxiliary mode in vacuum."""

    mean_Y1: float
    mean_Y2: float
    second_Y1: float
    second_Y2: float
    vac_prob: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _ladder_expectations(state: SingleModeState) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, <n>) from the number amplitudes."""
    psi = state.amplitudes
    n = np.arange(psi.size)
    a1 = complex(np.sum(np.conj(psi[:-1]) * psi[1:] * np.sqrt(n[1:])))
    a2 = complex(np.sum(np.conj(psi[:-2]) * psi[2:] * np.sqrt(n[1:-1] * (n[1:-1] + 1))))
    nbar = float(np.sum(n * np.abs(psi) ** 2))
    return a1, a2, nbar


def heterodyne_moments(state: SingleModeState) -> QuadratureMoments:
    """Joint quadrature moments; second moments carry the +1/4 inflation."""
    a1, a2, nbar = _ladder_expectations(state)
    chi2 = (2.0 * a2.real + 2.0 * nbar + 1.0) / 4.0
    rho2 = (-2.0 * a2.real + 2.0 * nbar + 1.0) / 4.0
    return QuadratureMoments(
        mean_X=a1.real,
        mean_P=a1.imag,
        second_X=chi2 + 0.25,
        second_P=rho2 + 0.25,
    )


def _shift_expectations(state: SingleModeState) -> tuple[complex, complex, float]:
    """(<A>, <A^2>, |psi_0|^2) for the one-sided shift A = sum |n><n+1|."""
    psi = state.amplitudes
    s1 = complex(np.sum(np.conj(psi[:-1]) * psi[1:]))
    s2 = complex(np.sum(np.conj(psi[:-2]) * psi[2:]))
    return s1, s2, float(abs(psi[0]) ** 2)


def y_moments(state: SingleModeState) -> YMoments:
    """Joint cosine/sine moments; the vacuum amplitude sets the inflation."""
    s1, s2, vac = _shift_expectations(state)
    c2 = (2.0 * s2.real + 2.0 - vac) / 4.0
    s2_mom = (-2.0 * s2.real + 2.0 - vac) / 4.0
    return YMoments(
        mean_Y1=s1.real,
        mean_Y2=s1.imag,
        second_Y1=c2 + vac / 4.0,
        second_Y2=s2_mom + vac / 4.0,
        vac_prob=vac,
    )


def generalized_phase_pdf(state: TwoModeState, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """Two-sided phase density |sum_m psi_m e^{-i m phi}|^2 / 2pi of a shift-subspace state,
    with m = n_s - n_a whatever the state's convention: m >= 0 reads psi_{m,0}, m < 0
    reads psi_{0,-m}. Raises SupportError for amplitudes with both modes excited."""
    a = state.amplitudes
    both = np.argwhere(a[1:, 1:])
    if both.size:
        ns, na = (both[0] + 1).tolist()
        raise SupportError(f"state has support at (n_s, n_a) = ({ns}, {na}); need n_s * n_a = 0")
    coeffs = np.concatenate([a[0, :0:-1], a[:, 0]])  # psi_m for m = -n_max..n_max
    occupied = np.flatnonzero(coeffs)
    m, coeffs = occupied - state.n_max, coeffs[occupied]
    check_grid(k, m)
    values = scatter_series((), k, (), m, coeffs)
    norm = math.fsum(abs(c) ** 2 for c in coeffs)
    return AngularPdf(np.abs(values) ** 2 / (2.0 * np.pi * norm))
