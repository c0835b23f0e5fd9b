"""Linear-polarization front end in the circular two-mode basis.

An x-polarized excitation with the y mode in vacuum maps onto the right/left
circular modes through a_x† = (a_R† + a_L†)/sqrt(2) (zero relative phase).
Snapshots of the angular distribution of the field direction come from the
conditional measurement; the time-averaged marginal traces out the quantum
polarization ellipse.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import TruncationError
from .fock import (DEFAULT_TAIL_TOL, TwoModeState, _coherent_state, _from_mapping, _index,
                   check_budget, coherent_truncation)


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
        n_max = coherent_truncation(mean, n_max, tail_tol, modes=2)
        # R and L coherent states of mean mean/2 (tails below mean's) on the simplex, row by row
        psi = _coherent_state(math.sqrt(mean / 2.0), n_max).amplitudes
        ns = np.repeat(np.arange(n_max + 1), np.arange(n_max + 1, 0, -1))
        na = np.arange(ns.size) - ns * (2 * n_max + 3 - ns) // 2  # less row n_s's first index
        return TwoModeState.from_cells(ns, na, psi[ns] * psi[na], n_max)

    if isinstance(spec, XSuperposition):
        if not spec.terms:
            raise ValueError("superposition needs at least one term")
        terms = [(_index(n, "photon number"), w) for n, w in spec.terms]
        if min(n for n, _ in terms) < 0:
            raise ValueError("photon numbers must be >= 0")
        top = max(n for n, _ in terms)
        check_budget(n_max := top if n_max is None else _index(n_max, "n_max"), 2)
        if top > n_max:
            raise TruncationError(f"{top} photons exceed n_max={n_max}")
        amps = {}  # (n_s, n_a) -> amplitude; a repeated photon number adds in term order
        for n, w in terms:
            # (a_R† + a_L†)^n / sqrt(2^n n!) |0,0>, C(n, i + 1) = C(n, i) (n - i) / (i + 1) exactly
            binomials = itertools.accumulate(range(n), lambda c, i: c * (n - i) // (i + 1), initial=1)
            for k, v in enumerate((complex(w) * np.sqrt([c / 2**n for c in binomials])).tolist()):
                amps[k, n - k] = amps.get((k, n - k), 0) + v
        return _from_mapping(amps, n_max)  # an overflowing norm is refused here

    raise TypeError(f"unknown polarization spec {spec!r}")


def db_view(density: np.ndarray) -> np.ndarray:
    """10 log10(p/p_peak) + 60 (the peak at 60 dB), floored at 0 so polar radii stay positive."""
    peak = density.max()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(density / peak) + 60.0
    return np.maximum(db, 0.0)
