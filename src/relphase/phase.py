"""Single-mode continuous phase representation.

The number amplitudes are the Fourier-series coefficients of the phase
wavefunction, psi(phi) = sum_n psi_n e^{-i n phi}, sampled on the uniform
grid phi_k = -pi + 2 pi k / K. All integrands are trigonometric polynomials,
so the plain periodic Riemann sum is an exact quadrature whenever K exceeds
the bandwidth; check_grid enforces K > 2 n, n the highest occupied number.
"""
from __future__ import annotations

import numpy as np

from .fock import DEFAULT_GRID_SIZE, SingleModeState, _read_only, check_grid, scatter_series


def phase_wavefunction(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """psi(phi_k) = sum_n psi_n e^{-i n phi_k} over the occupied n on angular_grid(k), evaluated
    by FFT: a read-only complex array of k samples, finite and of mean |psi|^2 1 as the state is."""
    check_grid(k, state.ns)  # the series then checks the working set
    return _read_only(scatter_series((), k, (), state.ns, state.amplitudes[state.ns]))


def phase_pdf(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """P(phi) = |psi(phi)|^2 / 2pi on angular_grid(k), read-only."""
    return _read_only(np.abs(phase_wavefunction(state, k)) ** 2 / (2.0 * np.pi))
