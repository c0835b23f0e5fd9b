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


def marginal_density(jm, phis):
    """P_M(phi) = sum_j |sum_m a_{j,m} e^{-i m phi}|^2 / (2pi sum |a|^2) over {(j, m): a}, at
    each mpmath angle phi of phis: the branch powers added and divided by the amplitudes' own
    squared norm, as a list of mpf."""
    with mpmath.workdps(DIGITS):
        rows = {}
        for (j, m), a in jm.items():
            rows.setdefault(j, []).append((m, _mpc(a)))
        norm = mpmath.fsum(abs(a) ** 2 for row in rows.values() for _, a in row)
        ms = {m for _, m in jm}
        out = []
        for phi in phis:
            phases = {m: mpmath.expj(-mpmath.mpf(m) * phi) for m in ms}
            power = mpmath.fsum(abs(mpmath.fdot((a, phases[m]) for m, a in row)) ** 2
                                for row in rows.values())
            out.append(power / (2 * mpmath.pi * norm))
        return out


def snapshot_density(jm, t, phis):
    """P_C(phi; t) = |sum_m b_m e^{-i m phi}|^2 / (2pi C(t)) over {(j, m): a}, with the branch sums
    b_m = sum_j a_{j,m} e^{-i j t} at the float time t (read exactly) and C(t) = sum_m |b_m|^2,
    at each mpmath angle phi of phis, as a list of mpf."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(t)
        times = {j: mpmath.expj(-mpmath.mpf(j) * x) for j in {j for j, _ in jm}}
        columns = {}
        for (j, m), a in jm.items():
            columns.setdefault(m, []).append((_mpc(a), times[j]))
        b = {m: mpmath.fdot(column) for m, column in columns.items()}
        c = mpmath.fsum(abs(bm) ** 2 for bm in b.values())
        return [abs(mpmath.fdot((bm, mpmath.expj(-mpmath.mpf(m) * phi)) for m, bm in b.items())) ** 2
                / (2 * mpmath.pi * c) for phi in phis]


def pb_mass(amplitudes, index, s):
    """The Pegg-Barnett mass |sum_n psi_n e^{-i n theta}|^2 / (s + 1) at the exact angle theta =
    grid_angle(index, s + 1), over the amplitudes of the truncated state as given, as an mpf."""
    with mpmath.workdps(DIGITS):
        return phase_density(amplitudes, grid_angle(index, s + 1)) * 2 * mpmath.pi / (s + 1)


def phase_cdf(amplitudes, x):
    """The integral of |sum_n psi_n e^{-i n phi}|^2 / 2pi from -pi to the float x (read exactly),
    term by term: c_0 (x + pi) + sum_{k >= 1} 2 Re[c_k (e^{-i k x} - (-1)^k) / (-i k)], over 2pi,
    with c_k = sum_n conj(psi_n) psi_{n+k}, as an mpf."""
    with mpmath.workdps(DIGITS):
        psi = [_mpc(a) for a in amplitudes]
        x = mpmath.mpf(x)
        total = mpmath.fsum(abs(a) ** 2 for a in psi) * (x + mpmath.pi)
        for k in range(1, len(psi)):
            c = mpmath.fsum(mpmath.conj(psi[n]) * psi[n + k] for n in range(len(psi) - k))
            total += 2 * mpmath.re(c * (mpmath.expj(-k * x) - (-1) ** k) / mpmath.mpc(0, -k))
        return total / (2 * mpmath.pi)
