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

import numpy as np

from .errors import AliasingError, SupportError
from .fock import (DEFAULT_GRID_SIZE, DEFAULT_KT, TwoModeState, _grid_size, _read_only, angular_grid,
                   check_cells, check_grid, jm_labels, scatter_series)

C_MIN = 1e-12
_BLOCK_CELLS = 1 << 16  # cells of one block of snapshot_sweep's angular transients


def _cells(state: TwoModeState):
    """(j, m, v): the labels and amplitudes of the state's cells, in (n_s, n_a) order."""
    j, m = jm_labels(state.ns, state.na, state.convention)
    return j, m, state.values


def _branches(state: TwoModeState, k: int):
    """(js, values): the occupied j, ascending, and Psi_j on the K-point grid.
    A cell lands in its branch's row at frequency floor(m), distinct there (one m
    lattice per j); half-integer branches get back the e^{-i phi/2} this drops."""
    j, m, v = _cells(state)
    check_grid(k, m)
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
    if not np.isfinite(ts).all():
        raise ValueError(f"time {ts[~np.isfinite(ts)][0]} is not finite")
    check_cells((ts.size, max(js.size, ms.size)), "a time-by-branch product")
    a = np.zeros((js.size, ms.size), dtype=complex)
    a[rows, cols] = v
    # numpy sends a 1-row product to gemv, whose last bits differ from a grid's gemm:
    # one time runs as two equal rows, so it gets the bits of the same time on a grid
    b = np.exp(np.outer(np.repeat(ts, 2) if ts.size == 1 else ts, -1j * js)) @ a
    c = np.einsum("tm,tm->t", b.real, b.real) + np.einsum("tm,tm->t", b.imag, b.imag)
    return ms, b[: ts.size], c[: ts.size]


def branch_wavefunctions(state: TwoModeState, k: int = DEFAULT_GRID_SIZE) -> dict[float, np.ndarray]:
    """{j: Psi_j} with Psi_j(phi) = sum_m Psi_{j,m} e^{-i m phi} on angular_grid(k), for every
    occupied j: read-only rows of one array, whose mean |Psi_j|^2 sum to 1 as the state's norm."""
    js, values = _branches(state, k)
    return dict(zip(js.tolist(), _read_only(values)))


def marginal_pdf(state: TwoModeState, k: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Time-averaged density on angular_grid(k): branch probabilities added in ascending j."""
    power = sum(np.abs(row) ** 2 for row in _branches(state, k)[1])
    total = float(np.mean(power))  # the branch norms' sum
    return _read_only(power / (2.0 * np.pi * total))


def conditioning_probability(state: TwoModeState, t: float) -> float:
    """C(t) = sum_m |sum_j Psi_{j,m} e^{-i j t}|^2 (2pi times the time density)."""
    return float(_conditioned(*_cells(state), [t])[2][0])


def snapshot_sweep(state: TwoModeState, times, k: int = DEFAULT_GRID_SIZE) -> list[np.ndarray | None]:
    """Snapshots along a time grid; refused times yield None (gaps). The live times' densities
    are made _BLOCK_CELLS at a time, each a read-only row of its block: no kt x K transient."""
    j, m, v = _cells(state)
    check_grid(k, m)
    # snapshots add amplitudes across m: mixed integer/half-integer m interfere 4pi-periodically
    if np.any(m % 1 != m[:1] % 1):
        raise SupportError(
            "state mixes integer and half-integer m; its relative-phase "
            "interference is 4pi-periodic and has no density on [-pi, pi)"
        )
    ms, b, c = _conditioned(j, m, v, times)
    live = np.flatnonzero(c > C_MIN)
    check_cells((live.size, k), "an angular grid")
    pdfs, freqs, step = [None] * c.size, np.floor(ms).astype(int), max(1, _BLOCK_CELLS // k)
    for lo in range(0, live.size, step):
        rows = live[lo : lo + step]
        values = scatter_series((rows.size,), k, (...,), freqs, b[rows])
        densities = _read_only(np.abs(values) ** 2 / (2.0 * np.pi * c[rows, None]))
        for t, density in zip(rows.tolist(), densities):
            pdfs[t] = density
    return pdfs


def time_grid(state: TwoModeState, k_t: int | None = None) -> int:
    """k_t, by default max(DEFAULT_KT, 4 (ceil(j_max) + 1)), j_max from the largest occupied
    n_s + n_a; refuses a k_t that is not a positive integer, then one over the working-set budget.
    Sweep times need nothing more: each snapshot is normalized at its own time."""
    if k_t is None:
        n_sum = (state.ns + state.na).max()
        k_t = max(DEFAULT_KT, 4 * (math.ceil(jm_labels(n_sum, 0, state.convention)[0]) + 1))
    check_cells((k_t := _grid_size(k_t),), "a time grid")
    return k_t


def absolute_time_pdf(state: TwoModeState, k_t: int | None = None) -> np.ndarray:
    """Density of the conditioning time, C(t)/2pi, on time_grid(state, k_t) points of [-pi, pi).
    Refuses fewer than int(j_max - j_min) + 1 points, the size from which a periodic grid
    integrates C(t), and on one m lattice each C-weighted snapshot, exactly: j - m is an integer
    in both conventions, so C, a sum of |.|^2 over m columns, has integer t-frequencies j - j'."""
    j, m, v = _cells(state)
    k_t = time_grid(state, k_t)
    if k_t < (needed := int(j.max() - j.min()) + 1):
        raise AliasingError(f"time grid {k_t} is below the exact-quadrature size {needed}")
    return _read_only(_conditioned(j, m, v, angular_grid(k_t))[2] / (2.0 * np.pi))
