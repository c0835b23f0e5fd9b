"""High-precision oracles: mpmath at DIGITS significant digits.

Each function starts from the float64 amplitudes that the library's kernels read, and
converts every one exactly, so its difference from a kernel's output measures that
kernel's arithmetic, not the truncation that made the amplitudes. Keep this module free
of relphase imports.
"""
import mpmath

DIGITS = 40


def _mpc(z):
    """complex z as an mpmath complex, exactly (a double converts without rounding)."""
    return mpmath.mpc(z.real, z.imag)


def grid_angle(index, k):
    """The exact angle -pi + 2 pi index / k of an angular grid, not its float64 rounding."""
    with mpmath.workdps(DIGITS):
        return -mpmath.pi + 2 * mpmath.pi * index / k


def phase_density(amplitudes, phi):
    """|sum_n psi_n e^{-i n phi}|^2 / 2pi over the single-mode amplitudes, at the mpmath
    angle phi (grid_angle), as an mpf."""
    with mpmath.workdps(DIGITS):
        z = mpmath.expj(-phi)
        series = mpmath.mpc(0)
        for a in reversed(list(amplitudes)):  # Horner's rule in z = e^{-i phi}, exact powers
            series = series * z + _mpc(a)
        return abs(series) ** 2 / (2 * mpmath.pi)


def conditioning_probability(jm, t):
    """C(t) = sum_m |sum_j a_{j,m} e^{-i j t}|^2 over {(j, m): a} at the float time t (read
    exactly, as the kernels read it), as an mpf."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(t)
        phases = {j: mpmath.expj(-mpmath.mpf(j) * x) for j in {j for j, _ in jm}}
        columns = {}
        for (j, m), a in jm.items():
            columns[m] = columns.get(m, mpmath.mpc(0)) + _mpc(a) * phases[j]
        return mpmath.fsum(abs(b) ** 2 for b in columns.values())
