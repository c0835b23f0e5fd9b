"""Independent brute-force implementations used to validate the package.

Everything here is computed by a different route than the library: dense
matrices on padded spaces, direct trigonometric sums instead of FFTs, and
explicit tensor products for the extended-space moments. Keep this module
free of relphase imports.
"""
import json
import math

import numpy as np


def ladder(dim):
    """Annihilation matrix a|n> = sqrt(n)|n-1> on dim levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def unit_shift(dim):
    """One-sided shift A|n> = |n-1> (A|0> = 0)."""
    return np.eye(dim, k=1).astype(complex)


def pad(psi, extra=1):
    out = np.zeros(len(psi) + extra, dtype=complex)
    out[: len(psi)] = psi
    return out


def poisson_pmf(mean, n):
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def poisson_tail(mean, n_max):
    return max(0.0, 1.0 - math.fsum(poisson_pmf(mean, n) for n in range(n_max + 1)))


MAX_AMPLITUDES = 2**24  # the library's state budget, in cells of a state's basis
# the largest two-mode n_max whose simplex of (n_max+1)(n_max+2)/2 cells fits the budget
TWO_MODE_N_MAX = max(n for n in range(6000) if (n + 1) * (n + 2) // 2 <= MAX_AMPLITUDES)


class Refusal(Exception):
    """Raised by bisection_n_max where the library raises TruncationError."""


def bisection_n_max(mean, tail_tol, modes=1):
    """The library's truncation search as a plain bisection over poisson_tail
    (the same 1 - fsum arithmetic), with every probe summing its own masses:
    the reference that any faster search must match exactly."""
    if not 0.0 < tail_tol < 1.0:  # nan included
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    # generous cap; the tail decays superexponentially past the mean
    limit = TWO_MODE_N_MAX if modes == 2 else MAX_AMPLITUDES - 1
    cap = min(int(mean + 200 * math.sqrt(mean + 1) + 200), limit)
    lo, hi = -1, cap + 1  # tail(lo) >= tail_tol > tail(hi), the ends taken on trust
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poisson_tail(mean, mid) >= tail_tol:
            lo = mid
        else:
            hi = mid
    if hi <= cap:
        return hi
    if cap == limit:
        raise Refusal(
            f"mean {mean:g} needs n_max > {limit} for tail mass below {tail_tol:g}, so a "
            f"{modes}-mode state needs more than {MAX_AMPLITUDES} amplitudes; "
            f"the budget is {MAX_AMPLITUDES} (256 MiB)"
        )
    raise Refusal(f"no adequate truncation below n={cap} for mean {mean}")


def coherent_amps(alpha, n_max):
    n = np.arange(n_max + 1)
    if alpha == 0:
        out = np.zeros(n_max + 1, complex)
        out[0] = 1.0
        return out
    logmag = n * math.log(abs(alpha)) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in n]
    ) - abs(alpha) ** 2 / 2
    amps = np.exp(logmag) * np.exp(1j * np.angle(alpha) * n)
    return amps / math.sqrt(float(np.vdot(amps, amps).real))


# --- extended-space moment oracles (explicit tensor products) ---------------


def heterodyne_product_moments(psi):
    """(mean_X, mean_P, second_X, second_P) of the commuting pair on
    mode (x) auxiliary-vacuum, by dense tensor algebra with one pad slot."""
    d = len(psi) + 1
    a = ladder(d)
    eye = np.eye(d, dtype=complex)
    y = np.kron(a, eye) + np.kron(eye, a.conj().T)
    x_op = (y + y.conj().T) / 2
    p_op = (y - y.conj().T) / 2j
    vac = np.zeros(d, complex)
    vac[0] = 1.0
    state = np.kron(pad(psi, 1), vac)
    xs = x_op @ state
    ps = p_op @ state
    return (
        float(np.vdot(state, xs).real),
        float(np.vdot(state, ps).real),
        float(np.vdot(xs, xs).real),
        float(np.vdot(ps, ps).real),
    )


def y_product_moments(psi):
    """(mean_Y1, mean_Y2, second_Y1, second_Y2) of the shift extension."""
    d = len(psi) + 1
    shift = unit_shift(d)
    vproj = np.zeros((d, d), complex)
    vproj[0, 0] = 1.0
    y = np.kron(shift, vproj) + np.kron(vproj, shift.conj().T)
    y1 = (y + y.conj().T) / 2
    y2 = (y - y.conj().T) / 2j
    vac = np.zeros(d, complex)
    vac[0] = 1.0
    state = np.kron(pad(psi, 1), vac)
    v1 = y1 @ state
    v2 = y2 @ state
    return (
        float(np.vdot(state, v1).real),
        float(np.vdot(state, v2).real),
        float(np.vdot(v1, v1).real),
        float(np.vdot(v2, v2).real),
    )


def commutator_check(psi):
    """(sum rule, commutator) residuals of the one-sided cosine/sine pair,
    |C^2 + S^2 - 1 + |psi_0|^2/2| and |<[C, S]> - i|psi_0|^2/2|, by dense
    matrices with one pad slot, so the shift identities hold for support at n_max."""
    v = pad(psi, 1)
    shift = unit_shift(len(v))  # A|n+1> = |n>
    c_op = (shift + shift.conj().T) / 2.0
    s_op = (shift - shift.conj().T) / 2.0j
    vac = float(abs(v[0]) ** 2)
    c2 = np.vdot(v, c_op @ (c_op @ v))
    s2 = np.vdot(v, s_op @ (s_op @ v))
    comm = np.vdot(v, (c_op @ s_op - s_op @ c_op) @ v)
    return abs(c2.real + s2.real + vac / 2.0 - 1.0), abs(comm - 1j * vac / 2.0)


def single_mode_quadrature_var(psi):
    """Intrinsic (<chi^2> - <chi>^2, <rho^2> - <rho>^2) on the mode alone."""
    a = ladder(len(psi) + 2)
    chi = (a + a.conj().T) / 2
    rho = (a - a.conj().T) / 2j
    v = pad(psi, 2)
    cs = chi @ v
    rs = rho @ v
    return (
        float(np.vdot(cs, cs).real - np.vdot(v, cs).real ** 2),
        float(np.vdot(rs, rs).real - np.vdot(v, rs).real ** 2),
    )


# --- direct angular sums -----------------------------------------------------


def direct_series(coeffs, phis):
    """sum_m c_m e^{-i m phi} by direct summation (dict m -> c)."""
    out = np.zeros(len(phis), complex)
    for m, c in coeffs.items():
        out += c * np.exp(-1j * m * np.asarray(phis))
    return out


def direct_phase_pdf(psi, phis):
    vals = direct_series({n: psi[n] for n in range(len(psi))}, phis)
    return np.abs(vals) ** 2 / (2 * np.pi)


def numeric_cdf(psi, xs, fine=1 << 16):
    """CDF by trapezoid integration of the direct density on a fine grid."""
    grid = np.linspace(-np.pi, np.pi, fine + 1)
    dens = direct_phase_pdf(psi, grid)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2) * (grid[1] - grid[0])])
    return np.interp(xs, grid, cum)


def series_cdf(psi, xs):
    """Closed-form CDF anchored at -pi, one exponential per coefficient
    c_k = sum_n psi*_n psi_{n+k}: the antiderivative of the density term by term."""
    xs = np.asarray(xs, dtype=float)
    out = float(np.vdot(psi, psi).real) * (xs + np.pi) / (2.0 * np.pi)
    for k in range(1, len(psi)):
        ck = np.vdot(psi[: len(psi) - k], psi[k:])
        term = ck * (np.exp(-1j * k * xs) - np.exp(1j * k * np.pi)) / (-1j * k)
        out += 2.0 * term.real / (2.0 * np.pi)
    return out


def horner_cdf(psi, xs):
    """The closed-form CDF by the library's own arithmetic, with its Horner loop over every
    coefficient c_1..c_n_max, the exact zeros past the occupied span included: the reference
    that a loop over the span alone must match bit for bit."""
    xs = np.asarray(xs, dtype=float)
    c = np.correlate(psi, psi, "full")[psi.size - 1 :]
    k = np.arange(1, psi.size)
    d = c[1:] / (-1j * k)
    z = np.exp(-1j * xs)
    series = np.zeros(xs.shape, dtype=complex)
    for dk in d[::-1]:
        series *= z
        series += dk
    series *= z
    anchor = np.sum(d * (-1.0) ** k)
    return (c[0].real * (xs + np.pi) + 2.0 * (series - anchor).real) / (2.0 * np.pi)


def value_at(density, phi):
    """A sampled density (on the K-point grid -pi + 2 pi j / K, K = density.size) at a
    grid-aligned angle in [-pi, pi], by exact index lookup; pi reads the -pi cell."""
    if not -np.pi <= phi <= np.pi:  # nan included
        raise ValueError(f"phi={phi} is not an angle in [-pi, pi]")
    k = density.size
    idx = (phi + np.pi) * k / (2.0 * np.pi)
    j = int(round(idx))
    # a grid angle's rounding grows like K ulp(pi) / 2pi in index units (K 2**-53 at most to K 2**26)
    if abs(idx - j) > 1e-9 + k * 2.0**-50:
        raise ValueError(f"phi={phi} is not on the {k}-point grid")
    return float(density[j % k])


def integral(density):
    """The periodic Riemann sum of a sampled density over [-pi, pi): mean * 2pi, np.mean's bits."""
    return float(density.sum() / density.size) * 2.0 * np.pi


def _check_samples(values):
    assert type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1
    assert values.size > 0 and not values.flags.writeable
    assert values.min() >= 0 and values.max() < np.inf  # nan fails both


def check_density(density):
    """A produced density: a read-only float64 1-d array, finite and non-negative, whose
    Riemann sum is 1 within 1e-8. True if so."""
    _check_samples(density)
    assert abs(integral(density) - 1.0) <= 1e-8, integral(density)
    return True


def check_masses(masses):
    """Produced Pegg-Barnett masses: as check_density, but summing to 1 within 1e-10. True if so."""
    _check_samples(masses)
    assert abs(masses.sum() - 1.0) <= 1e-10, masses.sum()
    return True


def local_maxima(density, floor=0.0):
    """Indices of grid points at or above floor that exceed both periodic neighbors by 1e-9."""
    d = np.asarray(density)
    up = d > np.roll(d, 1) + 1e-9
    down = d > np.roll(d, -1) + 1e-9
    return [int(i) for i in np.nonzero(up & down & (d >= floor))[0]]


# --- output tables -------------------------------------------------------------


def reference_table(header, rows, fmt):
    """CSV or JSON text of a table, one f"{x:.15g}" per value."""
    if fmt == "json":
        doc = {"columns": list(header), "rows": [[float(v) for v in r] for r in rows]}
        return json.dumps(doc) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(f"{v:.15g}" for v in r) for r in rows)
    return "\n".join(lines) + "\n"


# --- two-mode / (j, m) helpers ----------------------------------------------


def simplex_cells(n_max):
    """(ns, na) of every cell n_s + n_a <= n_max, in row-major order."""
    pairs = [(s, a) for s in range(n_max + 1) for a in range(n_max + 1 - s)]
    return tuple(np.array(pairs, dtype=int).T)


def cells(amp):
    """(ns, na, values) of the nonzero cells of a {(ns, na): v} literal, in row-major order."""
    rows = sorted((key, v) for key, v in amp.items() if v != 0)
    ns, na = np.array([key for key, _ in rows], dtype=int).reshape(-1, 2).T
    return ns, na, np.array([v for _, v in rows], dtype=complex)


def renormalized_cells(array):
    """{(ns, na): v} of a dense amplitude array renormalized by the two-mode rule, on the square:
    the norm of the nonzero entries taken in row-major order, then each real part divided by it,
    and the entries that are then nonzero (no rescaling: for squared norms that are normal)."""
    support = array[array != 0]
    norm = math.sqrt(float(np.vdot(support, support).real))
    return to_dict((np.ascontiguousarray(array, dtype=complex).view(float) / norm).view(complex))


def to_array(amp, n_max):
    """(n_max+1)^2 amplitude array of a {(ns, na): v} literal (no simplex check)."""
    out = np.zeros((n_max + 1, n_max + 1), complex)
    for (ns, na), v in amp.items():
        out[ns, na] = v
    return out


def state_dict(state):
    """{(ns, na): v} of a two-mode state's cells (its .ns, .na and .values)."""
    return {(int(s), int(a)): complex(v) for s, a, v in zip(state.ns, state.na, state.values)}


def evolve(array, t):
    """Free evolution by t radians at unit frequency: a[n_s, n_a] e^{-i(n_s+n_a)t}."""
    n = np.arange(len(array))
    return np.asarray(array) * np.exp(-1j * np.add.outer(n, n) * t)


def to_dict(array):
    """{(ns, na): v} of the nonzero cells of an amplitude array."""
    return {(int(ns), int(na)): complex(array[ns, na]) for ns, na in zip(*np.nonzero(array))}


def state_json_reference(kind, n_max, amp):
    """The state document of {(ns, na): v}, one row per nonzero amplitude in key
    order (single-mode states use na = 0 keys)."""
    rows = [[ns, na, v.real, v.imag] for (ns, na), v in sorted(amp.items()) if v != 0]
    return json.dumps({"kind": kind, "n_max": n_max, "amps": rows})


def jm_map(amp, photonic=True):
    """Re-index {(ns, na): v} by (j, m) under the chosen convention."""
    out = {}
    for (ns, na), v in amp.items():
        key = (ns + na, ns - na) if photonic else ((ns + na) / 2, (ns - na) / 2)
        out[key] = out.get(key, 0j) + v
    return out


def time_grid_size(state):
    """int(j_max - j_min) + 1 over the cells of a two-mode state (its .ns and .na, its
    .convention photonic, j = n_s + n_a, or fermionic, j = (n_s + n_a) / 2): C(t)'s
    t-frequencies are integers j - j', so from this many periodic times a grid
    integrates it exactly."""
    n_sums = np.asarray(state.ns) + np.asarray(state.na)
    c = 1 if state.convention.value == "photonic" else 0.5
    return int(c * (n_sums.max() - n_sums.min())) + 1


def branch_values(jm, phis):
    js = sorted({j for j, _ in jm})
    out = {}
    for j in js:
        vals = np.zeros(len(phis), complex)
        for (jj, m), v in jm.items():
            if jj == j:
                vals += v * np.exp(-1j * m * np.asarray(phis))
        out[j] = vals
    return out


def direct_marginal(jm, phis):
    bs = branch_values(jm, phis)
    return sum(np.abs(v) ** 2 for v in bs.values()) / (2 * np.pi)


def direct_C(jm, t):
    ms = sorted({m for _, m in jm})
    total = 0.0
    for m in ms:
        s = sum(v * np.exp(-1j * j * t) for (j, mm), v in jm.items() if mm == m)
        total += abs(s) ** 2
    return total


def direct_snapshot(jm, t, phis):
    c = direct_C(jm, t)
    shifted = {(j, m): v * np.exp(-1j * j * t) for (j, m), v in jm.items()}
    total = sum(branch_values(shifted, phis).values())
    return np.abs(total) ** 2 / (2 * np.pi * c)


def xnumber_amp(n):
    return {(k, n - k): math.sqrt(math.comb(n, k) / 2**n) for k in range(n + 1)}


def xcoherent_amp(mean, n_max):
    beta = math.sqrt(mean / 2)
    amp = {}
    for nr in range(n_max + 1):
        for nl in range(n_max + 1 - nr):
            if beta == 0:
                amp[(nr, nl)] = 1.0 if nr == nl == 0 else 0.0
                continue
            amp[(nr, nl)] = math.exp(
                -mean / 2
                + (nr + nl) * math.log(beta)
                - 0.5 * math.lgamma(nr + 1)
                - 0.5 * math.lgamma(nl + 1)
            )
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in amp.values()))
    return {k: v / norm for k, v in amp.items() if v != 0}


def kron_j_ops(photonic, n_max):
    """(J+, J-, Jz, simplex indices) on the padded product space.

    Built from per-mode ladder matrices so the route differs from the
    package's sparse-map application.
    """
    d = n_max + 2
    a = ladder(d)
    eye = np.eye(d, dtype=complex)
    ar, al = np.kron(a, eye), np.kron(eye, a)
    nr = np.kron(np.diag(np.arange(d)).astype(complex), eye)
    nl = np.kron(eye, np.diag(np.arange(d)).astype(complex))
    c = 2.0 if photonic else 1.0
    zscale = 1.0 if photonic else 0.5
    jp = c * (ar.conj().T @ al)
    jm = c * (al.conj().T @ ar)
    jz = zscale * (nr - nl)
    simplex = [i * d + k for i in range(n_max + 1) for k in range(n_max + 1 - i)]
    return jp, jm, jz, simplex


# --- random state factories ---------------------------------------------------


def random_single(rng, n_max):
    amps = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return amps / math.sqrt(float(np.vdot(amps, amps).real))


def random_two_amp(rng, n_max, density=0.5):
    amp = {}
    for ns in range(n_max + 1):
        for na in range(n_max + 1 - ns):
            if rng.random() < density:
                amp[(ns, na)] = complex(rng.standard_normal(), rng.standard_normal())
    if not amp:
        amp[(0, 0)] = 1.0
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in amp.values()))
    return {k: v / norm for k, v in amp.items()}


def random_hprime_amp(rng, n_max):
    """Random state supported on n_s * n_a = 0."""
    amp = {}
    for n in range(n_max + 1):
        amp[(n, 0)] = complex(rng.standard_normal(), rng.standard_normal())
        if n > 0:
            amp[(0, n)] = complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in amp.values()))
    return {k: v / norm for k, v in amp.items()}
