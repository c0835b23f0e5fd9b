"""Angular-momentum operators built from two oscillators (hbar = 1).

Two conventions are supported. The fermionic primitives carry the textbook
normalization: J_z = (n_u - n_d)/2, J_+ = a_u† a_d, structure constant 1.
The photonic primitives absorb the missing m = 0 by doubling everything:
J_z = n_r - n_l, J_+ = 2 a_r† a_l, so m steps by 2 and the structure
constant is 2. The doubled algebra fixes the Casimir at j(j+2) (it is four
times the fermionic j/2 value); j(j+1) only holds for the fermionic form.

All ladder actions conserve n_s + n_a, so the truncated two-mode space is
closed under the algebra and the commutation relations hold on it exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import PrimitiveConvention, TwoModeState, jm_labels, simplex


def _scale(convention: PrimitiveConvention) -> float:
    return 2.0 if convention is PrimitiveConvention.PHOTONIC else 1.0


def apply_jz(state: TwoModeState) -> np.ndarray:
    """J_z image's amplitudes (unnormalized): each amplitude times its m."""
    n = np.arange(state.n_max + 1)
    return state.amplitudes * jm_labels(n[:, None], n, state.convention)[1]


def apply_jplus(state: TwoModeState) -> np.ndarray:
    """J_+ image's amplitudes (unnormalized): one quantum moves from the second mode to the first."""
    n = np.arange(1, state.n_max + 1)
    out = np.zeros_like(state.amplitudes)
    # (n_s, n_a) -> (n_s + 1, n_a - 1) with weight sqrt((n_s + 1) n_a)
    out[1:, :-1] = _scale(state.convention) * np.sqrt(np.outer(n, n)) * state.amplitudes[:-1, 1:]
    return out


def apply_jminus(state: TwoModeState) -> np.ndarray:
    """J_- image's amplitudes (unnormalized): one quantum moves from the first mode to the second."""
    n = np.arange(1, state.n_max + 1)
    out = np.zeros_like(state.amplitudes)
    # (n_s, n_a) -> (n_s - 1, n_a + 1) with weight sqrt(n_s (n_a + 1))
    out[:-1, 1:] = _scale(state.convention) * np.sqrt(np.outer(n, n)) * state.amplitudes[1:, :-1]
    return out


def rotate_z(state: TwoModeState, phi: float) -> TwoModeState:
    """Rotation about z in the circular (photonic) basis: phase e^{-i(n_r-n_l)phi}
    whatever the state's convention, which the image keeps."""
    if not np.isfinite(phi):
        raise ValueError(f"rotation angle {phi} is not finite")
    n = np.arange(state.n_max + 1)
    _, m = jm_labels(n[:, None], n, PrimitiveConvention.PHOTONIC)
    return TwoModeState(state.amplitudes * np.exp(-1j * m * phi), state.convention)


@dataclass(frozen=True)
class CommutatorReport:
    """Max-abs residuals of the algebra on the truncated two-mode space."""

    structure_constant: float
    cyclic_xyz: float      # [J_i, J_j] - i c eps_ijk J_k over the three pairs
    z_ladder: float        # [J_z, J_pm] -+ c J_pm
    ladder_pair: float     # [J_+, J_-] - 2 c J_z
    casimir: float         # J^2 - j(j + c) over the basis

    def max_residual(self) -> float:
        return max(self.cyclic_xyz, self.z_ladder, self.ladder_pair, self.casimir)


def _dense_operators(convention: PrimitiveConvention, n_max: int):
    """(J_+, J_-, J_z, j) on the simplex basis: the dense matrices and each basis state's j."""
    basis = np.nonzero(simplex(n_max))

    def build(apply_fn):
        mat = np.zeros((basis[0].size,) * 2, dtype=complex)
        for col, key in enumerate(zip(*basis)):
            unit = np.zeros((n_max + 1,) * 2, dtype=complex)
            unit[key] = 1.0
            mat[:, col] = apply_fn(TwoModeState(unit, convention))[basis]
        return mat

    return build(apply_jplus), build(apply_jminus), build(apply_jz), jm_labels(*basis, convention)[0]


def commutator_residuals(convention: PrimitiveConvention, n_max: int) -> CommutatorReport:
    """Explicit-matrix residuals of the commutation relations and of the Casimir,
    J^2 = (J_+ J_- + J_- J_+)/2 + J_z^2 = j(j + c): j(j+2) photonic, j(j+1) fermionic."""
    jp, jm, jz, j = _dense_operators(convention, n_max)
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    c = _scale(convention)

    def comm(a, b):
        return a @ b - b @ a

    cyclic = max(
        np.abs(comm(jx, jy) - 1j * c * jz).max(),
        np.abs(comm(jy, jz) - 1j * c * jx).max(),
        np.abs(comm(jz, jx) - 1j * c * jy).max(),
    )
    z_ladder = max(
        np.abs(comm(jz, jp) - c * jp).max(),
        np.abs(comm(jz, jm) + c * jm).max(),
    )
    ladder_pair = np.abs(comm(jp, jm) - 2.0 * c * jz).max()
    casimir = np.abs((jp @ jm + jm @ jp) / 2.0 + jz @ jz - np.diag(j * (j + c))).max()
    return CommutatorReport(
        structure_constant=c,
        cyclic_xyz=float(cyclic),
        z_ladder=float(z_ladder),
        ladder_pair=float(ladder_pair),
        casimir=float(casimir),
    )
