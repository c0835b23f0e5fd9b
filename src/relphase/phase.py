"""Single-mode continuous phase representation.

The number amplitudes are the Fourier-series coefficients of the phase
wavefunction, psi(phi) = sum_n psi_n e^{-i n phi}, sampled on the uniform
grid phi_k = -pi + 2 pi k / K. All integrands are trigonometric polynomials,
so the plain periodic Riemann sum is an exact quadrature whenever K exceeds
the bandwidth; constructors enforce K > 2 n, n the highest occupied number.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (DEFAULT_GRID_SIZE, SingleModeState, _frozen, angular_grid, check_grid,
                   scatter_series)


@dataclass(frozen=True, eq=False)
class AngularPdf:
    """Sampled probability density per radian on the grid angular_grid(density.size)."""

    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "density", _frozen(self.density, "density", float))
        if not (self.density.min() >= 0 and self.density.max() < np.inf):  # nan fails both
            raise ValueError("densities must be finite and non-negative")
        total = self.integral()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {total!r}, not 1")

    @cached_property
    def phi(self) -> np.ndarray:
        return angular_grid(self.density.size)

    def integral(self) -> float:
        return float(self.density.sum() / self.density.size) * 2.0 * np.pi  # np.mean's bits, less overhead


def phase_wavefunction(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """psi(phi_k) = sum_n psi_n e^{-i n phi_k} over the occupied n on angular_grid(k), evaluated
    by FFT: a read-only complex array of k samples, finite and of mean |psi|^2 1 as the state is."""
    check_grid(k, state.ns)  # the series then checks the working set
    values = scatter_series((), k, (), state.ns, state.amplitudes[state.ns])
    values.setflags(write=False)
    return values


def phase_pdf(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """P(phi) = |psi(phi)|^2 / 2pi."""
    return AngularPdf(np.abs(phase_wavefunction(state, k)) ** 2 / (2.0 * np.pi))
