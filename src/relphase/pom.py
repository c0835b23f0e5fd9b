"""Relative-phase measurement distributions on the full two-mode space.

Every (j, m) amplitude map defines per-branch angular wavefunctions
Psi_j(phi) = sum_m Psi_{j,m} e^{-i m phi}. Eliminating the unmeasurable
absolute time t gives two distributions:

* marginal (time average): P_M(phi) = (1/2pi) sum_j |Psi_j(phi)|^2 --
  probabilities add across branches;
* conditional (snapshot at time t): P_C(phi; t) =
  |sum_j e^{-i j t} Psi_j(phi)|^2 / (2 pi C(t)) -- amplitudes add, and
  C(t) = sum_m |sum_j Psi_{j,m} e^{-i j t}|^2 is 2pi times the probability
  density of the conditioning time itself.

The time average of C-weighted snapshots reproduces the marginal exactly
(the degeneracy-free part of C integrates the cross-branch terms away),
which the test suite uses as the master consistency check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AliasingError, ConditioningError, SupportError
from .fock import PrimitiveConvention, TwoModeState, jm_labels
from .phase import DEFAULT_GRID_SIZE, AngularPdf, angular_grid, eval_fourier_series

C_MIN = 1e-12
PHOTONIC = PrimitiveConvention.PHOTONIC


@dataclass(frozen=True)
class BranchSet:
    """Per-branch angular wavefunctions on a shared grid."""

    convention: PrimitiveConvention
    phi: np.ndarray
    branches: Mapping[float, np.ndarray]

    def __post_init__(self):
        arr = np.asarray(self.phi)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)
        frozen = {}
        for j, vals in dict(self.branches).items():
            v = np.asarray(vals, dtype=complex)
            if v.shape != self.phi.shape:
                raise ValueError("branch samples must match the grid")
            v.setflags(write=False)
            frozen[j] = v
        object.__setattr__(self, "branches", frozen)
        total = math.fsum(float(np.mean(np.abs(v) ** 2)) for v in self.branches.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch norms sum to {total!r}, not 1")


def _pack(state: TwoModeState, convention: PrimitiveConvention):
    """(js, ms, a): the sorted distinct occupied j and m and the amplitudes a[j, m]."""
    ns, na = np.nonzero(state.amplitudes)
    j, m = jm_labels(ns, na, convention)
    js, rows = np.unique(j, return_inverse=True)
    ms, cols = np.unique(m, return_inverse=True)
    a = np.zeros((js.size, ms.size), dtype=complex)
    a[rows, cols] = state.amplitudes[ns, na]
    return js, ms, a


def _angular_series(coeffs: np.ndarray, ms: np.ndarray, k: int) -> np.ndarray:
    """sum_m c[..., m] e^{-i m phi} on the K-point grid, one series per leading index.

    Half-integer m lose their factor e^{-i phi/2} (m = floor(m) + 1/2), which
    cancels under |.|^2. Each series keeps to one m lattice, so no two of its
    nonzero terms share a floor(m).
    """
    n = np.floor(ms).astype(int)
    lo = int(n.min())
    packed = np.zeros(coeffs.shape[:-1] + (int(n.max()) - lo + 1,), dtype=complex)
    np.add.at(packed, (..., n - lo), coeffs)
    return eval_fourier_series(packed, k, lo)


def _conditioned(js, a, ts) -> tuple[np.ndarray, np.ndarray]:
    """(b, C): branch-summed amplitudes b[t, m] = sum_j a[j, m] e^{-i j t} over
    the packed m values, and C(t) = sum_m |b[t, m]|^2."""
    b = np.exp(np.outer(np.asarray(ts, dtype=float), -1j * js)) @ a
    c = np.einsum("tm,tm->t", b.real, b.real) + np.einsum("tm,tm->t", b.imag, b.imag)
    return b, c


def _check_grid(ms: np.ndarray, k: int) -> None:
    m_max = np.abs(ms).max()
    if k <= 2 * m_max:
        raise AliasingError(f"grid size {k} admits aliasing for |m| up to {m_max:g}")


def branch_wavefunctions(
    state: TwoModeState, k: int = DEFAULT_GRID_SIZE, *, convention: PrimitiveConvention = PHOTONIC
) -> BranchSet:
    """Sample Psi_j(phi) = sum_m Psi_{j,m} e^{-i m phi} for every branch."""
    js, ms, a = _pack(state, convention)
    _check_grid(ms, k)
    phi = angular_grid(k)
    values = _angular_series(a, ms, k)
    # a branch keeps to the m lattice of its j; restore e^{-i phi/2} on half-integer ones
    values[js % 1 != 0] *= np.exp(-0.5j * phi)
    return BranchSet(convention, phi, dict(zip(js.tolist(), values)))


def marginal_pdf(
    state: TwoModeState, k: int = DEFAULT_GRID_SIZE, *, convention: PrimitiveConvention = PHOTONIC
) -> AngularPdf:
    """Time-averaged distribution: branch probabilities added."""
    bs = branch_wavefunctions(state, k, convention=convention)
    power = sum(np.abs(v) ** 2 for v in bs.branches.values())
    return AngularPdf(bs.phi, power / (2.0 * np.pi * float(np.mean(power))))


def _check_m_lattice(ms: np.ndarray) -> None:
    """Snapshots add amplitudes across m; mixed integer/half-integer support
    makes that interference 4pi-periodic, outside the [-pi, pi) domain."""
    if np.any(ms % 1 != ms[0] % 1):
        raise SupportError(
            "state mixes integer and half-integer m; its relative-phase "
            "interference is 4pi-periodic and has no density on [-pi, pi)"
        )


def conditioning_probability(
    state: TwoModeState, t: float, *, convention: PrimitiveConvention = PHOTONIC
) -> float:
    """C(t) = sum_m |sum_j Psi_{j,m} e^{-i j t}|^2 (2pi times the time density)."""
    js, _, a = _pack(state, convention)
    return float(_conditioned(js, a, [t])[1][0])


def snapshot_pdf(
    state: TwoModeState, t: float, k: int = DEFAULT_GRID_SIZE, c_min: float = C_MIN,
    *, convention: PrimitiveConvention = PHOTONIC,
) -> AngularPdf:
    """Conditional distribution at time t: branch amplitudes added.

    Refuses times of numerically vanishing conditioning probability instead
    of renormalizing noise.
    """
    (pdf,) = snapshot_sweep(state, [t], k, c_min, convention=convention)
    if pdf is None:
        c = conditioning_probability(state, t, convention=convention)
        raise ConditioningError(f"conditioning probability {c:.3e} at t={t} is below {c_min:g}")
    return pdf


def snapshot_sweep(
    state: TwoModeState, times, k: int = DEFAULT_GRID_SIZE, c_min: float = C_MIN,
    *, convention: PrimitiveConvention = PHOTONIC,
) -> list[AngularPdf | None]:
    """Snapshots along a time grid; refused times yield None (gaps)."""
    js, ms, a = _pack(state, convention)
    _check_grid(ms, k)
    _check_m_lattice(ms)
    b, c = _conditioned(js, a, times)
    refused = c <= c_min
    values = _angular_series(b[~refused], ms, k)
    densities = iter(np.abs(values) ** 2 / (2.0 * np.pi * c[~refused, None]))
    phi = angular_grid(k)
    return [None if gap else AngularPdf(phi, next(densities)) for gap in refused]


def time_grid_size(state: TwoModeState, convention: PrimitiveConvention = PHOTONIC) -> int:
    """Grid large enough to integrate every branch-difference exponential exactly."""
    return _time_grid_size(_pack(state, convention)[0])


def _time_grid_size(js: np.ndarray) -> int:
    return 4 * (int(math.ceil(js.max())) + 1)


def check_time_grid(k_t: int, needed: int) -> None:
    """Refuse a time grid below the exact-quadrature size `needed`."""
    if k_t < needed:
        raise AliasingError(f"time grid {k_t} is below the exact-quadrature size {needed}")


def absolute_time_pdf(
    state: TwoModeState, k_t: int | None = None, *, convention: PrimitiveConvention = PHOTONIC
) -> AngularPdf:
    """Density of the conditioning time, C(t)/2pi, on a uniform grid of [-pi, pi)."""
    js, _, a = _pack(state, convention)
    needed = _time_grid_size(js)
    if k_t is None:
        k_t = needed
    check_time_grid(k_t, needed)
    ts = angular_grid(k_t)
    return AngularPdf(ts, _conditioned(js, a, ts)[1] / (2.0 * np.pi))
