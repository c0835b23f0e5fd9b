"""Discrete phase statistics on a truncated space and their convergence.

The s+1 discrete kets live at theta_m = -pi + 2 pi m/(s+1); with the state
truncated to n <= s and renormalized, the mass at theta_m is
|(s+1)^{-1/2} sum_n psi_n e^{-i n theta_m}|^2. As s grows these masses
converge in distribution to the continuous phase density, which the
Kolmogorov distance below quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import SingleModeState, check_cells

BRANCH_CUT = -np.pi


@dataclass(frozen=True)
class DiscretePhasePmf:
    s: int
    theta: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for name in ("theta", "masses"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.theta.size != self.s + 1 or self.masses.size != self.s + 1:
            raise ValueError("need exactly s+1 angles and masses")
        if not (np.isfinite(self.theta).all() and np.isfinite(self.masses).all()):
            raise ValueError("angles and masses must be finite")
        if np.any(self.masses < 0):
            raise ValueError("masses must be non-negative")
        if abs(self.masses.sum() - 1.0) > 1e-10:
            raise ValueError("masses must sum to 1")


def _truncated(state: SingleModeState, s: int) -> np.ndarray:
    """The amplitudes at n <= s, renormalized by fock's rule."""
    psi = state.amplitudes[: s + 1]
    if not psi.any():
        raise ValueError(f"state has no support at or below n={s}")
    return SingleModeState.from_amplitudes(psi).amplitudes


def pb_pmf(state: SingleModeState, s: int) -> DiscretePhasePmf:
    """Discrete-phase masses of the state truncated to n <= s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    check_cells((s + 1,), "a discrete phase grid")
    psi = _truncated(state, s)
    theta = BRANCH_CUT + 2.0 * np.pi * np.arange(s + 1) / (s + 1)
    signs = np.where(np.arange(psi.size) % 2, -1.0, 1.0)
    inner = np.fft.fft(psi * signs, n=s + 1)  # e^{-i n theta_m} with theta_0 = -pi
    masses = np.abs(inner) ** 2 / (s + 1)
    return DiscretePhasePmf(s, theta, masses)


def phase_cdf(state: SingleModeState, x: np.ndarray) -> np.ndarray:
    """Exact CDF of the continuous phase density, anchored at -pi.

    Uses the closed-form antiderivative of the density's trigonometric
    polynomial, with coefficients c_k = sum_n psi*_n psi_{n+k}; the series
    sum_k c_k e^{-ikx}/(-ik) is evaluated by Horner's rule in z = e^{-ix}.
    """
    psi = state.amplitudes
    x = np.asarray(x, dtype=float)
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
    at a step angle approached from either side. A pmf of s < n_max is of a
    truncated state, not of this one, and is refused.
    """
    if pmf.s < state.n_max:
        raise ValueError(f"s={pmf.s} truncates the state (n_max={state.n_max})")
    cont = phase_cdf(state, pmf.theta)
    cum = np.cumsum(pmf.masses)
    before = cum - pmf.masses
    return float(max(np.abs(cont - cum).max(), np.abs(cont - before).max()))


def pb_convergence(state: SingleModeState, s_list: Sequence[int]) -> list[float]:
    """Kolmogorov distances to the continuous phase CDF for each truncation."""
    return [kolmogorov_distance(pb_pmf(state, s), state) for s in s_list]
