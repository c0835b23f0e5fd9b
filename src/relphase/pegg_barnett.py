"""Discrete phase statistics on a truncated space and their convergence.

The s+1 discrete kets live at theta_m = -pi + 2 pi m/(s+1); with the state
truncated to n <= s and renormalized, the mass at theta_m is
|(s+1)^{-1/2} sum_n psi_n e^{-i n theta_m}|^2. As s grows these masses
converge in distribution to the continuous phase density, which the
Kolmogorov distance below quantifies.
"""
from __future__ import annotations

import numpy as np

from .fock import SingleModeState, _index, _read_only, angular_grid, scatter_series


def pb_pmf(state: SingleModeState, s: int) -> np.ndarray:
    """Discrete-phase masses of the state truncated to n <= s, renormalized by fock's rule: a
    read-only array of s + 1 masses at theta = angular_grid(s + 1)."""
    if (s := _index(s, "truncation")) < 0:
        raise ValueError(f"truncation {s} is negative")
    if state.ns[0] > s:
        raise ValueError(f"state has no support at or below n={s}")
    psi = SingleModeState.from_amplitudes(state.amplitudes[: s + 1]).amplitudes
    values = scatter_series((), s + 1, (), np.arange(psi.size), psi)  # a DFT of length s + 1
    return _read_only(np.abs(values) ** 2 / (s + 1))


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
    for dk in d[: state.ns[-1] - state.ns[0]][::-1]:  # c_k is exactly 0 past the support's span
        series *= z
        series += dk
    series *= z
    anchor = np.sum(d * (-1.0) ** k)  # the series at x = -pi
    return (c[0].real * (x + np.pi) + 2.0 * (series - anchor).real) / (2.0 * np.pi)


def kolmogorov_distance(masses: np.ndarray, state: SingleModeState) -> float:
    """sup_x |F_discrete(x) - F_continuous(x)| with right-continuous steps, for pb_pmf's
    masses at s = masses.size - 1.

    Both CDFs are monotone between step angles, so the supremum is attained
    at a step angle approached from either side. Masses of s below the highest
    occupied n are of a truncated state, not of this one, and are refused.
    """
    if (s := masses.size - 1) < (n := state.ns[-1]):
        raise ValueError(f"s={s} truncates the state (occupied up to n={n})")
    cont = phase_cdf(state, angular_grid(masses.size))
    cum = np.cumsum(masses)
    before = cum - masses
    return float(max(np.abs(cont - cum).max(), np.abs(cont - before).max()))

