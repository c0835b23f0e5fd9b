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
from .fock import JmState, PrimitiveConvention
from .phase import DEFAULT_GRID_SIZE, AngularPdf, angular_grid, eval_fourier_series

C_MIN = 1e-12


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


def _pack(state: JmState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(js, ms, a): the sorted distinct j and m values and amplitudes a[j, m]."""
    keys = np.array(list(state.amplitudes), dtype=float).reshape(-1, 2)
    js, rows = np.unique(keys[:, 0], return_inverse=True)
    ms, cols = np.unique(keys[:, 1], return_inverse=True)
    a = np.zeros((js.size, ms.size), dtype=complex)
    a[rows, cols] = list(state.amplitudes.values())
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


def _conditioned(state: JmState, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ms, b, C): branch-summed amplitudes b[t, m] = sum_j a[j, m] e^{-i j t}
    over the m values ms, and C(t) = sum_m |b[t, m]|^2."""
    js, ms, a = _pack(state)
    b = np.exp(np.outer(np.asarray(ts, dtype=float), -1j * js)) @ a
    c = np.einsum("tm,tm->t", b.real, b.real) + np.einsum("tm,tm->t", b.imag, b.imag)
    return ms, b, c


def _check_grid(state: JmState, k: int) -> None:
    m_max = max((abs(m) for _, m in state.amplitudes), default=0.0)
    if k <= 2 * m_max:
        raise AliasingError(f"grid size {k} admits aliasing for |m| up to {m_max}")


def branch_wavefunctions(state: JmState, k: int = DEFAULT_GRID_SIZE) -> BranchSet:
    """Sample Psi_j(phi) = sum_m Psi_{j,m} e^{-i m phi} for every branch."""
    _check_grid(state, k)
    phi = angular_grid(k)
    js, ms, a = _pack(state)
    values = _angular_series(a, ms, k)
    # a branch keeps to the m lattice of its j; restore e^{-i phi/2} on half-integer ones
    values[js % 1 != 0] *= np.exp(-0.5j * phi)
    return BranchSet(state.convention, phi, dict(zip(js.tolist(), values)))


def marginal_pdf(state: JmState, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """Time-averaged distribution: branch probabilities added."""
    bs = branch_wavefunctions(state, k)
    power = sum(np.abs(v) ** 2 for v in bs.branches.values())
    return AngularPdf(bs.phi, power / (2.0 * np.pi * float(np.mean(power))))


def _check_m_lattice(state: JmState) -> None:
    """Snapshots add amplitudes across m; mixed integer/half-integer support
    makes that interference 4pi-periodic, outside the [-pi, pi) domain."""
    fracs = {m % 1 for _, m in state.amplitudes}
    if len(fracs) > 1:
        raise SupportError(
            "state mixes integer and half-integer m; its relative-phase "
            "interference is 4pi-periodic and has no density on [-pi, pi)"
        )


def conditioning_probability(state: JmState, t: float) -> float:
    """C(t) = sum_m |sum_j Psi_{j,m} e^{-i j t}|^2 (2pi times the time density)."""
    return float(_conditioned(state, [t])[2][0])


def snapshot_pdf(
    state: JmState, t: float, k: int = DEFAULT_GRID_SIZE, c_min: float = C_MIN
) -> AngularPdf:
    """Conditional distribution at time t: branch amplitudes added.

    Refuses times of numerically vanishing conditioning probability instead
    of renormalizing noise.
    """
    (pdf,) = snapshot_sweep(state, [t], k, c_min)
    if pdf is None:
        c = conditioning_probability(state, t)
        raise ConditioningError(f"conditioning probability {c:.3e} at t={t} is below {c_min:g}")
    return pdf


def snapshot_sweep(
    state: JmState, times, k: int = DEFAULT_GRID_SIZE, c_min: float = C_MIN
) -> list[AngularPdf | None]:
    """Snapshots along a time grid; refused times yield None (gaps)."""
    _check_grid(state, k)
    _check_m_lattice(state)
    ms, b, c = _conditioned(state, times)
    refused = c <= c_min
    values = _angular_series(b[~refused], ms, k)
    densities = iter(np.abs(values) ** 2 / (2.0 * np.pi * c[~refused, None]))
    phi = angular_grid(k)
    return [None if gap else AngularPdf(phi, next(densities)) for gap in refused]


def time_grid_size(state: JmState) -> int:
    """Grid large enough to integrate every branch-difference exponential exactly."""
    return 4 * (int(math.ceil(state.j_max())) + 1)


def absolute_time_pdf(state: JmState, k_t: int | None = None) -> AngularPdf:
    """Density of the conditioning time, C(t)/2pi, on a uniform grid of [-pi, pi)."""
    if k_t is None:
        k_t = time_grid_size(state)
    if k_t < time_grid_size(state):
        raise AliasingError(
            f"time grid {k_t} is below the exact-quadrature size {time_grid_size(state)}"
        )
    ts = angular_grid(k_t)
    return AngularPdf(ts, _conditioned(state, ts)[2] / (2.0 * np.pi))
