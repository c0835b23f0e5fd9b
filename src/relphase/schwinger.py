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

import numpy as np

from .fock import PrimitiveConvention, TwoModeState, _index, jm_labels


def _scale(convention: PrimitiveConvention) -> float:
    return 2.0 if convention is PrimitiveConvention.PHOTONIC else 1.0


def _image(state: TwoModeState, shift: int, weights: np.ndarray) -> np.ndarray:
    """The (n_max+1) x (n_max+1) amplitude array of an image: each cell's weight times its amplitude
    at (n_s + shift, n_a - shift); a cell of weight 0 (no quantum to move) adds nothing."""
    out = np.zeros((state.n_max + 1,) * 2, dtype=complex)
    moved = weights != 0
    out[state.ns[moved] + shift, state.na[moved] - shift] = weights[moved] * state.values[moved]
    return out


def apply_jz(state: TwoModeState) -> np.ndarray:
    """J_z image's amplitudes (unnormalized): each amplitude times its m."""
    return _image(state, 0, jm_labels(state.ns, state.na, state.convention)[1])


def apply_jplus(state: TwoModeState) -> np.ndarray:
    """J_+ image's amplitudes (unnormalized): one quantum moves from the second mode to the first,
    (n_s, n_a) -> (n_s + 1, n_a - 1) with weight sqrt((n_s + 1) n_a)."""
    return _image(state, 1, _scale(state.convention) * np.sqrt((state.ns + 1) * state.na))


def apply_jminus(state: TwoModeState) -> np.ndarray:
    """J_- image's amplitudes (unnormalized): one quantum moves from the first mode to the second,
    (n_s, n_a) -> (n_s - 1, n_a + 1) with weight sqrt(n_s (n_a + 1))."""
    return _image(state, -1, _scale(state.convention) * np.sqrt(state.ns * (state.na + 1)))


def rotate_z(state: TwoModeState, phi: float) -> TwoModeState:
    """Rotation about z in the circular (photonic) basis: phase e^{-i(n_r-n_l)phi}
    whatever the state's convention, which the image keeps."""
    if not np.isfinite(phi):
        raise ValueError(f"rotation angle {phi} is not finite")
    _, m = jm_labels(state.ns, state.na, PrimitiveConvention.PHOTONIC)
    values = state.values * np.exp(-1j * m * phi)
    return TwoModeState(state.ns, state.na, values, state.n_max, state.convention)


def _dense_operators(convention: PrimitiveConvention, n_max: int):
    """(J_+, J_-, J_z, j) on the simplex basis: the dense matrices and each basis state's j."""
    basis = tuple(np.array([(s, a) for s in range(n_max + 1) for a in range(n_max + 1 - s)]).T)

    def build(apply_fn):
        mat = np.zeros((basis[0].size,) * 2, dtype=complex)
        for col, (ns, na) in enumerate(zip(*basis)):
            mat[:, col] = apply_fn(TwoModeState([ns], [na], [1.0], n_max, convention))[basis]
        return mat

    return build(apply_jplus), build(apply_jminus), build(apply_jz), jm_labels(*basis, convention)[0]


def commutator_residuals(convention: PrimitiveConvention, n_max: int) -> dict[str, float]:
    """Explicit-matrix max-abs residuals on the truncated two-mode space: the structure constant
    c and, keyed cyclic_xyz, z_ladder, ladder_pair and casimir, those of [J_i, J_j] = i c eps_ijk
    J_k over the three pairs, [J_z, J_pm] = +-c J_pm, [J_+, J_-] = 2 c J_z and the Casimir
    J^2 = (J_+ J_- + J_- J_+)/2 + J_z^2 = j(j + c): j(j+2) photonic, j(j+1) fermionic."""
    jp, jm, jz, j = _dense_operators(convention, _index(n_max, "n_max"))
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
    return {"structure_constant": c, "cyclic_xyz": float(cyclic), "z_ladder": float(z_ladder),
            "ladder_pair": float(ladder_pair), "casimir": float(casimir)}
