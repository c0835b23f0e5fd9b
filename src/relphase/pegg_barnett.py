"""Discrete phase statistics on a truncated space and their convergence.

The s+1 discrete kets live at theta_m = -pi + 2 pi m/(s+1); with the state
truncated to n <= s and renormalized, the mass at theta_m is
|(s+1)^{-1/2} sum_n psi_n e^{-i n theta_m}|^2. As s grows these masses
converge in distribution to the continuous phase density, which the
Kolmogorov distance below quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fock import SingleModeState, _frozen, _index, _support, angular_grid, scatter_series


@dataclass(frozen=True, eq=False)
class DiscretePhasePmf:
    """Masses at the s + 1 angles theta = angular_grid(s + 1), s = masses.size - 1."""

    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _frozen(self.masses, "masses", float))
        if not (self.masses.min() >= 0 and self.masses.max() < np.inf):  # nan fails both
            raise ValueError("masses must be finite and non-negative")
        if abs(self.masses.sum() - 1.0) > 1e-10:
            raise ValueError("masses must sum to 1")

    @property
    def s(self) -> int:
        return self.masses.size - 1

    @cached_property
    def theta(self) -> np.ndarray:
        return angular_grid(self.masses.size)


def pb_pmf(state: SingleModeState, s: int) -> DiscretePhasePmf:
    """Discrete-phase masses of the state truncated to n <= s, renormalized by fock's rule."""
    if _support(state.amplitudes).start > (s := _index(s, "truncation")):
        raise ValueError(f"state has no support at or below n={s}")
    psi = SingleModeState.from_amplitudes(state.amplitudes[: s + 1]).amplitudes
    values = scatter_series((), s + 1, (), np.arange(psi.size), psi)  # a DFT of length s + 1
    return DiscretePhasePmf(np.abs(values) ** 2 / (s + 1))


def phase_cdf(state: SingleModeState, x: np.ndarray) -> np.ndarray:
    """Exact CDF of the continuous phase density, anchored at -pi.

    Uses the closed-form antiderivative of the density's trigonometric
    polynomial, with coefficients c_k = sum_n psi*_n psi_{n+k}; the series
    sum_k c_k e^{-ikx}/(-ik) is evaluated by Horner's rule in z = e^{-ix}.
    """
    psi = state.amplitudes
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"phase {x[~np.isfinite(x)][0]} is not finite")
    c = np.correlate(psi, psi, "full")[psi.size - 1 :]
    k = np.arange(1, psi.size)
    d = c[1:] / (-1j * k)
    z = np.exp(-1j * x)
    series = np.zeros(x.shape, dtype=complex)
    for dk in d[::-1]:
        series *= z
        series += dk
    series *= z
    anchor = np.sum(d * (-1.0) ** k)  # the series at x = -pi
    return (c[0].real * (x + np.pi) + 2.0 * (series - anchor).real) / (2.0 * np.pi)


def kolmogorov_distance(pmf: DiscretePhasePmf, state: SingleModeState) -> float:
    """sup_x |F_discrete(x) - F_continuous(x)| with right-continuous steps.

    Both CDFs are monotone between step angles, so the supremum is attained
    at a step angle approached from either side. A pmf of s below the highest
    occupied n is of a truncated state, not of this one, and is refused.
    """
    if pmf.s < (n := _support(state.amplitudes).stop - 1):
        raise ValueError(f"s={pmf.s} truncates the state (occupied up to n={n})")
    cont = phase_cdf(state, pmf.theta)
    cum = np.cumsum(pmf.masses)
    before = cum - pmf.masses
    return float(max(np.abs(cont - cum).max(), np.abs(cont - before).max()))


def pb_convergence(state: SingleModeState, s_list: Sequence[int]) -> list[float]:
    """Kolmogorov distances to the continuous phase CDF for each truncation."""
    return [kolmogorov_distance(pb_pmf(state, s), state) for s in s_list]
