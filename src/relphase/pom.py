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
from .fock import PrimitiveConvention, TwoModeState, check_cells, jm_labels
from .phase import DEFAULT_GRID_SIZE, AngularPdf, angular_grid, check_grid, scatter_series

C_MIN = 1e-12
DEFAULT_KT = 256  # smallest default time grid
_BLOCK_CELLS = 1 << 16  # cells of one block of snapshot_sweep's angular transients
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
        _check_norm(math.fsum(float(np.mean(np.abs(v) ** 2)) for v in self.branches.values()))


def _check_norm(total: float) -> None:  # total: the branch norms' sum
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"branch norms sum to {total!r}, not 1")


def _cells(state: TwoModeState, convention: PrimitiveConvention):
    """(j, m, v): the labels and amplitudes of the nonzero cells, in (n_s, n_a) order."""
    ns, na = np.nonzero(state.amplitudes)
    j, m = jm_labels(ns, na, convention)
    return j, m, state.amplitudes[ns, na]


def _branches(state: TwoModeState, convention: PrimitiveConvention, k: int):
    """(js, values): the occupied j, ascending, and Psi_j on the K-point grid.
    A cell lands in its branch's row at frequency floor(m), distinct there (one m
    lattice per j); half-integer branches get back the e^{-i phi/2} this drops."""
    j, m, v = _cells(state, convention)
    check_grid(k, np.abs(m).max())
    js, rows = np.unique(j, return_inverse=True)
    values = scatter_series((js.size,), k, (rows,), np.floor(m).astype(int), v)
    values[js % 1 != 0] *= np.exp(-0.5j * angular_grid(k))
    return js, values


def _conditioned(j, m, v, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ms, b, C) of the cells (j, m, v): the distinct m, ascending, the
    branch-summed amplitudes b[t, m] = sum_j a[j, m] e^{-i j t} and
    C(t) = sum_m |b[t, m]|^2."""
    js, rows = np.unique(j, return_inverse=True)
    ms, cols = np.unique(m, return_inverse=True)
    ts = np.asarray(ts, dtype=float)
    check_cells((ts.size, max(js.size, ms.size)), "a time-by-branch product")
    a = np.zeros((js.size, ms.size), dtype=complex)
    a[rows, cols] = v
    # numpy sends a 1-row product to gemv, whose last bits differ from a grid's gemm:
    # one time runs as two equal rows, so it gets the bits of the same time on a grid
    b = np.exp(np.outer(np.repeat(ts, 2) if ts.size == 1 else ts, -1j * js)) @ a
    c = np.einsum("tm,tm->t", b.real, b.real) + np.einsum("tm,tm->t", b.imag, b.imag)
    return ms, b[: ts.size], c[: ts.size]


def branch_wavefunctions(
    state: TwoModeState, k: int = DEFAULT_GRID_SIZE, *, convention: PrimitiveConvention = PHOTONIC
) -> BranchSet:
    """Sample Psi_j(phi) = sum_m Psi_{j,m} e^{-i m phi} for every branch."""
    js, values = _branches(state, convention, k)
    return BranchSet(convention, angular_grid(k), dict(zip(js.tolist(), values)))


def marginal_pdf(
    state: TwoModeState, k: int = DEFAULT_GRID_SIZE, *, convention: PrimitiveConvention = PHOTONIC
) -> AngularPdf:
    """Time-averaged distribution: branch probabilities added in ascending j."""
    power = sum(np.abs(row) ** 2 for row in _branches(state, convention, k)[1])
    total = float(np.mean(power))  # the branch norms' sum
    _check_norm(total)
    return AngularPdf(angular_grid(k), power / (2.0 * np.pi * total))


def conditioning_probability(
    state: TwoModeState, t: float, *, convention: PrimitiveConvention = PHOTONIC
) -> float:
    """C(t) = sum_m |sum_j Psi_{j,m} e^{-i j t}|^2 (2pi times the time density)."""
    return float(_conditioned(*_cells(state, convention), [t])[2][0])


def snapshot_pdf(
    state: TwoModeState, t: float, k: int = DEFAULT_GRID_SIZE,
    *, convention: PrimitiveConvention = PHOTONIC,
) -> AngularPdf:
    """Conditional distribution at time t: branch amplitudes added.

    Refuses times of numerically vanishing conditioning probability instead
    of renormalizing noise.
    """
    (pdf,) = snapshot_sweep(state, [t], k, convention=convention)
    if pdf is None:
        c = conditioning_probability(state, t, convention=convention)
        raise ConditioningError(f"conditioning probability {c:.3e} at t={t} is below {C_MIN:g}")
    return pdf


def snapshot_sweep(
    state: TwoModeState, times, k: int = DEFAULT_GRID_SIZE,
    *, convention: PrimitiveConvention = PHOTONIC,
) -> list[AngularPdf | None]:
    """Snapshots along a time grid; refused times yield None (gaps). The live times'
    densities fill one float64 array _BLOCK_CELLS at a time: no complex kt x K transient."""
    j, m, v = _cells(state, convention)
    check_grid(k, np.abs(m).max())
    # snapshots add amplitudes across m: mixed integer/half-integer m interfere 4pi-periodically
    if np.any(m % 1 != m[0] % 1):
        raise SupportError(
            "state mixes integer and half-integer m; its relative-phase "
            "interference is 4pi-periodic and has no density on [-pi, pi)"
        )
    ms, b, c = _conditioned(j, m, v, times)
    refused = c <= C_MIN
    live = np.flatnonzero(~refused)
    check_cells((live.size, k), "an angular grid")
    density = np.empty((live.size, k))
    freqs, step = np.floor(ms).astype(int), max(1, _BLOCK_CELLS // k)
    for lo in range(0, live.size, step):
        rows = live[lo : lo + step]
        values = scatter_series((rows.size,), k, (...,), freqs, b[rows])
        np.divide(np.abs(values) ** 2, 2.0 * np.pi * c[rows, None], out=density[lo : lo + step])
    phi, densities = angular_grid(k), iter(density)
    return [None if gap else AngularPdf(phi, next(densities)) for gap in refused]


def time_grid_size(state: TwoModeState, convention: PrimitiveConvention = PHOTONIC) -> int:
    """Grid large enough to integrate every branch-difference exponential exactly:
    4 (ceil(j_max) + 1), j_max from each n_s row's last amplitude (no read of the cells)."""
    occupied = state.amplitudes[:, ::-1] != 0  # row n_s's last amplitude is at n_a = n_max - argmax
    n_sum = (np.arange(state.n_max + 1) - occupied.argmax(axis=1))[occupied.any(axis=1)].max() + state.n_max
    return 4 * (int(math.ceil(jm_labels(n_sum, 0, convention)[0])) + 1)


def time_grid(state: TwoModeState, k_t: int | None = None) -> int:
    """k_t, by default the larger of DEFAULT_KT and time_grid_size; refuses a grid
    below time_grid_size or over the working-set budget."""
    return _time_grid(time_grid_size(state), k_t)


def _time_grid(needed: int, k_t: int | None) -> int:
    k_t = max(DEFAULT_KT, needed) if k_t is None else k_t
    if k_t < needed:
        raise AliasingError(f"time grid {k_t} is below the exact-quadrature size {needed}")
    check_cells((k_t,), "a time grid")
    return k_t


def absolute_time_pdf(
    state: TwoModeState, k_t: int | None = None, *, convention: PrimitiveConvention = PHOTONIC
) -> AngularPdf:
    """Density of the conditioning time, C(t)/2pi, on time_grid(state, k_t) points of [-pi, pi)."""
    j, m, v = _cells(state, convention)
    ts = angular_grid(_time_grid(time_grid_size(state, convention), k_t))
    return AngularPdf(ts, _conditioned(j, m, v, ts)[2] / (2.0 * np.pi))
