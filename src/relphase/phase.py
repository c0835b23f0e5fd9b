"""Continuous phase representation of one mode, or of two on the shift subspace.

The number amplitudes are the Fourier-series coefficients of the phase
wavefunction, psi(phi) = sum_n psi_n e^{-i n phi}, sampled on the uniform
grid phi_k = -pi + 2 pi k / K. On the two-mode subspace where at most one
mode is excited (n_s * n_a = 0) the same series runs two-sided over
m = n_s - n_a, and a single mode is its n_a = 0 case. All integrands are
trigonometric polynomials, so the plain periodic Riemann sum is an exact
quadrature whenever K exceeds the bandwidth; check_grid enforces K > 2 max|m|.
"""
from __future__ import annotations

import numpy as np

from .errors import SupportError
from .fock import (DEFAULT_GRID_SIZE, SingleModeState, TwoModeState, _read_only, check_grid,
                   scatter_series)


def phase_wavefunction(state: SingleModeState | TwoModeState,
                       k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """psi(phi_k) = sum_m psi_m e^{-i m phi_k} on angular_grid(k), evaluated by FFT: a read-only
    complex array of k samples, finite and of mean |psi|^2 1 as the state is. The m are a single
    mode's occupied n, or a two-mode state's n_s - n_a whatever its convention (m >= 0 reads
    psi_{m,0}, m < 0 reads psi_{0,-m}); SupportError refuses a cell with both modes excited."""
    if isinstance(state, SingleModeState):
        m, coeffs = state.ns, state.amplitudes[state.ns]
    elif (both := state.ns * state.na != 0).any():
        raise SupportError(f"state has support at (n_s, n_a) = ({state.ns[both][0]}, "
                           f"{state.na[both][0]}); need n_s * n_a = 0")
    else:
        m, coeffs = state.ns - state.na, state.values
    check_grid(k, m)  # the series then checks the working set
    return _read_only(scatter_series((), k, (), m, coeffs))


def phase_pdf(state: SingleModeState | TwoModeState, k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """P(phi) = |psi(phi)|^2 / 2pi on angular_grid(k), read-only."""
    return _read_only(np.abs(phase_wavefunction(state, k)) ** 2 / (2.0 * np.pi))
