"""Linear-polarization front end in the circular two-mode basis.

An x-polarized excitation with the y mode in vacuum maps onto the right/left
circular modes through a_x† = (a_R† + a_L†)/sqrt(2) (zero relative phase).
Snapshots of the angular distribution of the field direction come from the
conditional measurement; the time-averaged marginal traces out the quantum
polarization ellipse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import TruncationError
from .fock import DEFAULT_TAIL_TOL, TwoModeState, _coherent_state, check_budget, coherent_truncation, simplex
from .phase import DEFAULT_GRID_SIZE, AngularPdf
from .pom import marginal_pdf, snapshot_sweep


@dataclass(frozen=True)
class XNumber:
    """n x-polarized photons, y mode in vacuum."""

    n: int


@dataclass(frozen=True)
class XCoherent:
    """x-polarized coherent excitation of mean photon number mean_n."""

    mean_n: float


@dataclass(frozen=True)
class XSuperposition:
    """Weighted superposition of x-polarized number states."""

    terms: tuple[tuple[int, complex], ...]


LinearPolSpec = Union[XNumber, XCoherent, XSuperposition]


def to_circular(
    spec: LinearPolSpec,
    n_max: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TwoModeState:
    """Expand a linear-polarization spec over the circular basis."""
    if isinstance(spec, XNumber):
        spec = XSuperposition(((spec.n, 1.0),))

    if isinstance(spec, XCoherent):
        mean = float(spec.mean_n)
        if mean < 0:
            raise ValueError("mean photon number must be >= 0")
        n_max = coherent_truncation(mean, n_max, tail_tol, modes=2)
        # R and L coherent states of mean mean/2 (tails below mean's), cut to the simplex
        psi = _coherent_state(math.sqrt(mean / 2.0), n_max).amplitudes
        return TwoModeState.from_amplitudes(np.outer(psi, psi) * simplex(n_max))

    if isinstance(spec, XSuperposition):
        if not spec.terms:
            raise ValueError("superposition needs at least one term")
        if min(n for n, _ in spec.terms) < 0:
            raise ValueError("photon numbers must be >= 0")
        top = max(n for n, _ in spec.terms)
        if n_max is None:
            n_max = top
        if top > n_max:
            raise TruncationError(f"{top} photons exceed n_max={n_max}", required_n_max=top)
        check_budget(n_max, 2)
        amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is refused below
            for n, w in spec.terms:
                # (a_R† + a_L†)^n / sqrt(2^n n!) |0,0>; the exact ratio stays finite for n >= 1024
                k = np.arange(n + 1)
                amps[k, n - k] += complex(w) * np.sqrt([math.comb(n, i) / 2**n for i in range(n + 1)])
        return TwoModeState.from_amplitudes(amps)

    raise TypeError(f"unknown polarization spec {spec!r}")


def polarization_ellipse(spec: LinearPolSpec, k: int = DEFAULT_GRID_SIZE) -> AngularPdf:
    """Quantum polarization ellipse: the marginal angular distribution."""
    return marginal_pdf(to_circular(spec), k)


def db_view(pdf: AngularPdf) -> np.ndarray:
    """10 log10(p/p_peak) + 60 (the peak at 60 dB), floored at 0 so polar radii stay positive."""
    peak = pdf.density.max()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(pdf.density / peak) + 60.0
    return np.maximum(db, 0.0)


def snapshot_sequence(
    spec: LinearPolSpec, t_grid: Sequence[float], k: int = DEFAULT_GRID_SIZE
) -> list[AngularPdf | None]:
    """Normalized snapshot distributions along a grid of absolute times; refused
    times give None (gaps, not failures)."""
    return snapshot_sweep(to_circular(spec), t_grid, k)


def local_maxima(density: np.ndarray, floor: float = 0.0) -> list[int]:
    """Indices of grid points at or above floor that exceed both periodic neighbors by 1e-9."""
    d = np.asarray(density)
    up = d > np.roll(d, 1) + 1e-9
    down = d > np.roll(d, -1) + 1e-9
    return [int(i) for i in np.nonzero(up & down & (d >= floor))[0]]
