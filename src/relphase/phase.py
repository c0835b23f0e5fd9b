"""Single-mode continuous phase representation.

The number amplitudes are the Fourier-series coefficients of the phase
wavefunction, psi(phi) = sum_n psi_n e^{-i n phi}, sampled on the uniform
grid phi_k = -pi + 2 pi k / K. All integrands are trigonometric polynomials,
so the plain periodic Riemann sum is an exact quadrature whenever K exceeds
the bandwidth; constructors enforce K > 2 n_max.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError
from .fock import SingleModeState, check_cells

DEFAULT_GRID_SIZE = 1024


def angular_grid(k: int) -> np.ndarray:
    """K uniformly spaced angles on [-pi, pi)."""
    if k < 1:
        raise ValueError("grid size must be positive")
    return -np.pi + 2.0 * np.pi * np.arange(k) / k


def check_grid(k: int, m_max: float) -> None:
    """Refuse a K-point grid that aliases frequencies up to |m| = m_max (K <= 2 m_max)."""
    if k <= 2 * m_max:
        raise AliasingError(f"grid size {k} admits aliasing: need K > {2 * m_max:g}")


def scatter_series(shape: tuple, k: int, index: tuple, freqs: np.ndarray, coeffs) -> np.ndarray:
    """Rows sum_f c_f e^{-i f phi_j} on the K-point grid: (-1)^f c_f goes to index +
    (f mod K,) of a zero shape + (K,) array, FFT'd along its last axis, since here
    e^{-i f phi_j} = (-1)^f e^{-2 pi i f j / K}. One row's f must be distinct mod K."""
    check_cells(tuple(shape) + (k,), "an angular grid")
    packed = np.zeros(tuple(shape) + (k,), dtype=complex)
    packed[index + (freqs % k,)] = np.where(freqs % 2, -coeffs, coeffs)
    return np.fft.fft(packed, axis=-1)


def eval_fourier_series(coeffs: np.ndarray, k: int, lo: int = 0) -> np.ndarray:
    """Evaluate f(phi_j) = sum_n c[..., n] e^{-i (lo + n) phi_j} on the K-point grid.

    The last axis holds consecutive integer frequencies starting at lo; leading
    axes are independent series. The frequency span must be < K.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    span = coeffs.shape[-1]
    if span > k:
        raise AliasingError(f"frequency span {span - 1} does not fit a {k}-point grid")
    return scatter_series(coeffs.shape[:-1], k, (...,), lo + np.arange(span), coeffs)


@dataclass(frozen=True)
class PhaseWavefunction:
    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("phi", "values"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.phi.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")

    def norm_squared(self) -> float:
        """(1/2pi) integral |psi|^2 dphi as the periodic Riemann sum."""
        return float(np.mean(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class AngularPdf:
    """Sampled probability density per radian on [-pi, pi)."""

    phi: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        for name in ("phi", "density"):
            arr = np.asarray(getattr(self, name), dtype=float if name == "density" else None)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.phi.shape != self.density.shape:
            raise ValueError("grid and density must have matching shapes")
        if not (np.isfinite(self.phi).all() and np.isfinite(self.density).all()):
            raise ValueError("grid and density must be finite")
        if (self.density < 0).any():
            raise ValueError("densities must be non-negative")
        total = self.integral()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {total!r}, not 1")

    def integral(self) -> float:
        return float(self.density.sum() / self.density.size) * 2.0 * np.pi  # np.mean's bits, less overhead

    def value_at(self, phi: float) -> float:
        """Density at a grid-aligned angle (exact index lookup)."""
        k = self.phi.size
        idx = (phi + np.pi) * k / (2.0 * np.pi)
        j = int(round(idx))
        if abs(idx - j) > 1e-9:
            raise ValueError(f"phi={phi} is not on the {k}-point grid")
        return float(self.density[j % k])


def phase_wavefunction(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> PhaseWavefunction:
    """psi(phi_k) = sum_n psi_n e^{-i n phi_k}, evaluated by FFT."""
    check_grid(k, state.n_max)
    values = eval_fourier_series(state.amplitudes, k)  # checks the working set first
    return PhaseWavefunction(angular_grid(k), values)


def phase_pdf(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """P(phi) = |psi(phi)|^2 / 2pi."""
    wf = phase_wavefunction(state, k)
    return AngularPdf(wf.phi, np.abs(wf.values) ** 2 / (2.0 * np.pi))


def ml_phase_pdf(state: SingleModeState, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """Phase density after stripping the number-amplitude phases (|psi_n|)."""
    stripped = SingleModeState(np.abs(state.amplitudes).astype(complex))
    return phase_pdf(stripped, k)


def number_moment_spectral(
    state: SingleModeState, order: int, k: int = DEFAULT_GRID_SIZE
) -> float:
    """k-th number moment evaluated on the phase grid by spectral differentiation.

    Samples psi(phi) and its differentiated series sum_n n^order psi_n e^{-i n phi},
    and integrates psi* against the latter; agrees with sum_n n^order |psi_n|^2.
    """
    if order < 0 or order != int(order):
        raise ValueError("moment order must be a non-negative integer")
    wf = phase_wavefunction(state, k)
    deriv = eval_fourier_series(np.arange(state.n_max + 1.0) ** order * state.amplitudes, k)
    return float(np.mean(np.conj(wf.values) * deriv).real)


@dataclass(frozen=True)
class PaleyWienerReport:
    """Discretized log-integrability diagnostics of a phase density.

    integral_log_abs is (1/2pi) integral |log |psi(phi)|| dphi with grid
    magnitudes floored at machine epsilon; ``floored`` flags whether the
    floor was hit anywhere.
    """

    integral_log_abs: float
    min_density: float
    floored: bool
    density: np.ndarray = field(repr=False)

    def fraction_below(self, eps: float) -> float:
        return float(np.count_nonzero(self.density < eps)) / self.density.size


def paley_wiener_diagnostics(pdf: AngularPdf) -> PaleyWienerReport:
    """Diagnose how close a density comes to vanishing on the grid."""
    mags = np.sqrt(2.0 * np.pi * pdf.density)
    floor = np.finfo(float).eps
    floored = bool(np.any(mags < floor))
    integral = float(np.mean(np.abs(np.log(np.maximum(mags, floor)))))
    return PaleyWienerReport(
        integral_log_abs=integral,
        min_density=float(pdf.density.min()),
        floored=floored,
        density=pdf.density,
    )
