"""One- and two-mode truncated Fock states.

States are immutable finite unit vectors: the class constructors refuse any other
amplitudes, and `from_amplitudes` and `from_cells` renormalize before them. Every operation
returns a new state; constructors report inadequate truncation instead of silently losing norm.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import AliasingError, RelphaseError, TruncationError

DEFAULT_TAIL_TOL = 1e-12  # largest Poisson tail mass a coherent truncation may discard
DEFAULT_GRID_SIZE = 1024  # angular grid size K of every density on [-pi, pi)
DEFAULT_KT = 256  # smallest default time grid
# state budget: a basis of 2**24 cells (256 MiB of complex128), a two-mode n_max <= 5791
MAX_AMPLITUDES = 2**24
# working-set budget: the largest array a kernel builds, 2**26 complex128 cells (1 GiB)
MAX_CELLS = 2**26


class PrimitiveConvention(Enum):
    """How two oscillator occupations map to total/difference quantum numbers.

    PHOTONIC:  j = n_s + n_a, m = n_s - n_a  (m steps by 2 inside a branch)
    FERMIONIC: j = (n_s + n_a)/2, m = (n_s - n_a)/2  (m steps by 1; half-integers)
    """

    PHOTONIC = "photonic"
    FERMIONIC = "fermionic"


def _norm(amps: np.ndarray) -> tuple[int, float]:
    """(e, norm): a constructor divides amps * 2**e by norm. e is 0 unless the squared norm
    underflows or overflows (is not a finite normal float); then 2**e brings the largest real
    or imaginary part (an |amplitude| can overflow where its parts do not) into [0.5, 1), so
    the squares keep their precision. Zero and non-finite norms are refused."""
    squared = float(np.vdot(amps, amps).real)
    e = 0
    if not sys.float_info.min <= squared <= sys.float_info.max and np.any(amps):
        e = -math.frexp(float(np.max(np.abs([amps.real, amps.imag]))))[1]
        amps = _ldexp(amps, e)
        squared = float(np.vdot(amps, amps).real)
    norm = math.sqrt(squared)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of norm {norm}")
    return e, norm


def _check_unit(amps: np.ndarray) -> None:
    """Refuse a squared norm off 1 by over 1e-10; in one vdot nan, +-inf and zero fail too."""
    squared = float(np.vdot(amps, amps).real)
    if not abs(squared - 1.0) <= 1e-10:  # nan included
        raise ValueError(f"amplitudes have squared norm {squared!r}, not 1")


def _ldexp(amps: np.ndarray, e: int) -> np.ndarray:
    """amps * 2**e, exact for any e: each real part goes through np.ldexp."""
    if e == 0:
        return amps
    return np.ldexp(np.ascontiguousarray(amps).view(float), e).view(complex)


def _frozen(samples, what: str, dtype=None) -> np.ndarray:
    """A read-only copy of the samples a caller hands in (theirs stays writable); 1-d, non-empty."""
    samples = np.array(samples, dtype=dtype)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d sequence")
    return _read_only(samples)


def _read_only(array: np.ndarray) -> np.ndarray:
    """array itself, made read-only: a kernel's result is handed out without a copy."""
    array.setflags(write=False)
    return array


def _index(value, what: str) -> int:
    """value as an int by operator.index, so np.integer and bool read as integers; else refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True, eq=False)
class SingleModeState:
    """Amplitudes over n = 0..n_max; ns, the occupied n in ascending order, is found on first read."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes, "amplitudes", complex))
        _check_unit(self.amplitudes)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "SingleModeState":
        """Build and renormalize; rejects the zero vector."""
        amps = np.asarray(amplitudes, dtype=complex)
        e, norm = _norm(amps)
        return cls(_ldexp(amps, e) / norm)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    @cached_property
    def ns(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.amplitudes), "occupied numbers")


def jm_labels(ns, na, convention: PrimitiveConvention = PrimitiveConvention.PHOTONIC):
    """(j, m) of occupations (n_s, n_a), scalars or broadcasting arrays:
    j = c (n_s + n_a), m = c (n_s - n_a), with c = 1 photonic and 1/2 fermionic."""
    c = 1.0 if convention is PrimitiveConvention.PHOTONIC else 0.5
    return c * np.add(ns, na), c * np.subtract(ns, na)


def check_budget(n_max: int, modes: int) -> None:
    """Refuse, before it is built, a state whose basis has over MAX_AMPLITUDES cells."""
    size = n_max + 1 if modes == 1 else (n_max + 1) * (n_max + 2) // 2
    if size > MAX_AMPLITUDES:
        raise TruncationError(
            f"a {modes}-mode state at n_max={n_max} needs {size} amplitudes "
            f"({size * 16 / 2**20:.1f} MiB); the budget is {MAX_AMPLITUDES} (256 MiB)"
        )


def check_cells(shape: tuple[int, ...], what: str) -> None:
    """Refuse, before allocating it, a kernel array of more than MAX_CELLS cells."""
    if math.prod(shape) > MAX_CELLS:
        raise RelphaseError(
            f"{what} of {' x '.join(map(str, shape))} cells is over the working-set "
            f"budget of {MAX_CELLS} cells"
        )


# --- the angular grid phi_j = -pi + 2 pi j / K and its one Fourier placement rule ---


def _grid_size(k) -> int:
    """k read by operator.index, refused unless positive: the size of an angular or time grid."""
    if (k := _index(k, "grid size")) < 1:
        raise ValueError("grid size must be positive")
    return k


def angular_grid(k: int) -> np.ndarray:
    """K uniformly spaced angles -pi + 2 pi j / K on [-pi, pi), built in place and read-only."""
    grid = np.arange(k := _grid_size(k), dtype=float)
    np.add(np.divide(np.multiply(grid, 2.0 * np.pi, out=grid), k, out=grid), -np.pi, out=grid)
    return _read_only(grid)


def check_grid(k: int, freqs: np.ndarray) -> None:
    """Refuse a K that is not an integer or that aliases the non-empty freqs: K <= 2 max|f|."""
    if _index(k, "grid size") <= (bound := 2 * np.abs(freqs).max()):
        raise AliasingError(f"grid size {k} admits aliasing: need K > {bound:g}")


def scatter_series(shape: tuple, k: int, index: tuple, freqs: np.ndarray, coeffs) -> np.ndarray:
    """Rows sum_f c_f e^{-i f phi_j} on the K-point grid: (-1)^f c_f goes to index +
    (f mod K,) of a zero shape + (K,) array, FFT'd along its last axis, since here
    e^{-i f phi_j} = (-1)^f e^{-2 pi i f j / K}. One row's f must be distinct mod K."""
    check_cells(tuple(shape) + (k,), "an angular grid")
    packed = np.zeros(tuple(shape) + (k,), dtype=complex)
    packed[index + (freqs % k,)] = np.where(freqs % 2, -coeffs, coeffs)
    return np.fft.fft(packed, axis=-1)


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Unit-norm amplitudes of the nonzero cells (n_s, n_a) of the simplex n_s + n_a <= n_max, held
    as read-only integer labels ns, na and complex values in strictly increasing row-major order,
    and the convention that reads the occupations as (j, m)."""

    ns: np.ndarray
    na: np.ndarray
    values: np.ndarray
    n_max: int
    convention: PrimitiveConvention = PrimitiveConvention.PHOTONIC

    def __post_init__(self):
        if not isinstance(self.convention, PrimitiveConvention):
            raise TypeError(f"convention must be a PrimitiveConvention, not {self.convention!r}")
        check_budget(n_max := _index(self.n_max, "n_max"), 2)
        values = _frozen(self.values, "values", complex)
        labels = [np.asarray(x) for x in (self.ns, self.na)]
        if any(x.dtype.kind not in "iu" or np.any(x < 0) for x in labels):
            raise ValueError("cell labels ns and na must be non-negative integers")
        ns, na = (_frozen(x, "cell labels", np.int64) for x in labels)
        if not ns.size == na.size == values.size:
            raise ValueError(f"{ns.size} ns, {na.size} na and {values.size} values differ in length")
        if (off := ns > n_max - na).any():
            raise ValueError(f"amplitude at ({ns[off][0]}, {na[off][0]}) exceeds n_max={n_max}")
        if not np.all((ns[1:] > ns[:-1]) | (ns[1:] == ns[:-1]) & (na[1:] > na[:-1])):
            raise ValueError("cells must strictly increase in row-major (n_s, n_a) order")
        if not values.all():
            raise ValueError(f"amplitude at ({ns[values == 0][0]}, {na[values == 0][0]}) is zero")
        _check_unit(values)
        for name, value in (("ns", ns), ("na", na), ("values", values), ("n_max", n_max)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_cells(cls, ns, na, values, n_max: int, convention=PrimitiveConvention.PHOTONIC):
        """Build from cells in row-major order and renormalize: drop zero values, and divide each real
        part of the rest by their norm, taken in that order; rejects the zero state."""
        values = np.asarray(values, dtype=complex)
        e, norm = _norm(values[values != 0])
        values = (_ldexp(values, e).view(float) / norm).view(complex)
        cells = values != 0  # the zeros, and any part the division underflows to 0
        return cls(*(np.asarray(x)[cells] for x in (ns, na, values)), n_max, convention)


def make_number_state(n: int, n_max: int) -> SingleModeState:
    """|n> on the truncated basis 0..n_max."""
    n, n_max = _index(n, "photon number"), _index(n_max, "n_max")
    if n < 0:
        raise ValueError("photon numbers must be >= 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    check_budget(n_max, 1)
    if not 0 <= n <= n_max:
        raise TruncationError(f"number state n={n} exceeds n_max={n_max}", required_n_max=n)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return SingleModeState(amps)


def _pmf_terms(mean: float) -> Iterator[float]:
    """The Poisson(mean) masses p_0, p_1, ... (mean > 0)."""
    log_mean = math.log(mean)
    return (math.exp(-mean + n * log_mean - math.lgamma(n + 1)) for n in itertools.count())


def budget_n_max(modes: int) -> int:
    """Largest n_max whose basis fits MAX_AMPLITUDES cells: 5791 for two modes."""
    return (math.isqrt(8 * MAX_AMPLITUDES + 1) - 1) // 2 - 1 if modes == 2 else MAX_AMPLITUDES - 1


def coherent_n_max(mean: float, tail_tol: float, modes: int = 1) -> int:
    """Smallest n_max with Poisson tail mass 1 - fsum(p_0..p_n_max) below tail_tol.

    One pass upward from 0 holds the running sum exactly, as an integer count of
    2**-1074 (every float is a whole number of those), and rounds it once per step:
    int / int rounds correctly, as fsum does, so each step reads the tail 1 - fsum
    would. It looks no further than the largest n_max a `modes`-mode state can hold
    within the size budget.
    """
    _check_tail_tol(tail_tol)
    if not 0.0 <= mean < math.inf:  # nan included
        raise ValueError(f"mean photon number must be finite and >= 0, got {mean!r}")
    # generous cap; the tail decays superexponentially past the mean
    limit = budget_n_max(modes)
    cap = min(int(mean + 200 * math.sqrt(mean + 1) + 200), limit)
    if mean == 0.0:
        return 0
    # Chernoff: P(X <= limit) <= e^(limit - mean + limit ln(mean/limit)); below e^-800 every tail reads 1
    hopeless = mean > limit and limit - mean + limit * math.log(mean / limit) < -800
    if not hopeless:
        total, unit = 0, 2**1074  # p_0 + ... + p_n, exactly, in units of 1 / unit
        for n, p in zip(range(cap + 1), _pmf_terms(mean)):
            num, den = p.as_integer_ratio()
            total += num << 1075 - den.bit_length()
            if 1.0 - total / unit < tail_tol:
                return n
    if cap == limit:
        raise TruncationError(
            f"mean {mean:g} needs n_max > {limit} for tail mass below {tail_tol:g}, so a "
            f"{modes}-mode state needs more than {MAX_AMPLITUDES} amplitudes; "
            f"the budget is {MAX_AMPLITUDES} (256 MiB)"
        )
    raise TruncationError(f"no adequate truncation below n={cap} for mean {mean}")


def _check_tail_tol(tail_tol: float) -> None:
    if not 0.0 < tail_tol < 1.0:  # nan included
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")


def coherent_truncation(mean: float, n_max: int | None, tail_tol: float, modes: int = 1) -> int:
    """Truncation for a coherent excitation: the smallest adequate one when n_max
    is None; an explicit n_max is kept if it is at least that one (the tail falls in
    n_max, and every mass past the search's cap is 0.0) and otherwise refused with
    it. `modes` sets the size budget that an explicit n_max and the search must fit."""
    if n_max is None:
        return coherent_n_max(mean, tail_tol, modes)
    check_budget(n_max := _index(n_max, "n_max"), modes)  # before the search's own checks
    if n_max >= (needed := coherent_n_max(mean, tail_tol, modes)):
        return n_max
    raise TruncationError(
        f"coherent tail mass at n_max={n_max} is not below {tail_tol:g}; "
        f"need n_max >= {needed}",
        required_n_max=needed,
    )


def make_coherent_state(
    alpha: complex, n_max: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> SingleModeState:
    """Truncated coherent state, psi_n ~ alpha^n/sqrt(n!), renormalized.

    Raises TruncationError when the discarded Poisson tail mass at the given
    n_max is not below tail_tol; n_max=None picks the smallest adequate value.
    """
    mean = math.inf if abs(alpha) >= 2.0**512 else abs(alpha) ** 2  # ** 2 overflows from 2**512
    return _coherent_state(alpha, coherent_truncation(mean, n_max, tail_tol))


def _coherent_state(alpha: complex, n_max: int) -> SingleModeState:
    """psi_n ~ alpha^n/sqrt(n!) on 0..n_max (its tail already checked), renormalized."""
    if abs(alpha) ** 2 == 0.0:
        return make_number_state(0, n_max)
    n = np.arange(n_max + 1)
    lgammas = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    log_mag = n * math.log(abs(alpha)) - 0.5 * lgammas
    log_mag -= log_mag.max()
    amps = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    return SingleModeState.from_amplitudes(amps)


def single_to_two_mode(state: SingleModeState) -> TwoModeState:
    """Embed |psi>_s |0>_a as a two-mode state (auxiliary mode off)."""
    return TwoModeState(state.ns, np.zeros_like(state.ns), state.amplitudes[state.ns], state.n_max)


def _from_mapping(amps: dict[tuple[int, int], complex], n_max: int) -> TwoModeState:
    """TwoModeState.from_cells of {(n_s, n_a): amplitude}, its cells sorted into row-major order."""
    cells = sorted(amps.items())
    ns, na = np.array([key for key, _ in cells], dtype=int).reshape(-1, 2).T
    return TwoModeState.from_cells(ns, na, [v for _, v in cells], n_max)


# --- JSON interchange -------------------------------------------------------
# {"kind": "single"|"two", "n_max": int, "amps": [[n_s, n_a, re, im], ...]}
# Single-mode states use n_a = 0 rows. Documents hold amplitudes only: a two-mode
# state's convention is not written, and a two-mode document reads as photonic.


def state_to_json(state: SingleModeState | TwoModeState) -> str:
    """One [n_s, n_a, re, im] row per nonzero amplitude, in (n_s, n_a) order."""
    two, ns = isinstance(state, TwoModeState), state.ns
    na, values = (state.na, state.values) if two else (np.zeros_like(ns), state.amplitudes[ns])
    rows = [[s, a, v.real, v.imag] for s, a, v in zip(ns.tolist(), na.tolist(), values.tolist())]
    return json.dumps({"kind": "two" if two else "single", "n_max": state.n_max, "amps": rows})


def _json_int(value, hi: float, what: str) -> int:
    if type(value) is not int or not 0 <= value <= hi:
        raise ValueError(f"{what} {value!r} is not an integer in 0..{hi}")
    return value


def _json_real(value) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # exact for ints
        raise ValueError(f"amplitude part {value!r} is not a finite number")
    return float(value)


def state_from_json(text: str) -> SingleModeState | TwoModeState:
    """Read a state document; any malformed field raises ValueError."""
    try:
        doc = json.loads(text)
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise ValueError("state document nests too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("amps"), list):
        raise ValueError('state document needs "kind", "n_max" and an "amps" list')
    kind, n_max = doc.get("kind"), _json_int(doc.get("n_max"), math.inf, "n_max")
    if kind not in ("single", "two"):
        raise ValueError(f"unknown state kind {kind!r}")
    check_budget(n_max, 1 if kind == "single" else 2)
    amps: dict[tuple[int, int], complex] = {}
    for row in doc["amps"]:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"state row {row!r} is not [n_s, n_a, re, im]")
        key = (_json_int(row[0], n_max, "occupation"), _json_int(row[1], n_max, "occupation"))
        if kind == "single" and key[1] != 0:
            raise ValueError("single-mode rows must have n_a = 0")
        if key in amps:
            raise ValueError(f"duplicate state row for {key}")
        amps[key] = complex(_json_real(row[2]), _json_real(row[3]))
    if kind == "two":
        return _from_mapping(amps, n_max)
    array = np.zeros(n_max + 1, dtype=complex)
    array[[n_s for n_s, _ in amps]] = list(amps.values())
    return SingleModeState.from_amplitudes(array)
