"""One- and two-mode truncated Fock states.

States are immutable value objects; every operation returns a new state.
Constructors renormalize after truncation and report inadequate truncation
instead of silently losing norm.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import RelphaseError, TruncationError

NORM_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-12  # largest Poisson tail mass a coherent truncation may discard
# dense state budget: 2**24 complex128 amplitudes (256 MiB), a two-mode n_max <= 4095
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
    """(e, norm): a constructor divides amps * 2**e by norm. e is 0 unless the squared
    norm underflows (lies below the smallest normal float); then 2**e brings the
    largest |amplitude| into [0.5, 1), so the squares keep their precision. Zero and
    non-finite norms are refused."""
    squared = float(np.vdot(amps, amps).real)
    e = 0
    if squared < sys.float_info.min and np.any(amps):
        e = -math.frexp(float(np.max(np.abs(amps))))[1]
        amps = _ldexp(amps, e)
        squared = float(np.vdot(amps, amps).real)
    norm = math.sqrt(squared)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of norm {norm}")
    return e, norm


def _ldexp(amps: np.ndarray, e: int) -> np.ndarray:
    """amps * 2**e, exact for any e: each real part goes through np.ldexp."""
    if e == 0:
        return amps
    return np.ldexp(np.ascontiguousarray(amps).view(float), e).view(complex)


@dataclass(frozen=True)
class SingleModeState:
    """Amplitudes over the number basis n = 0..n_max."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "SingleModeState":
        """Build and renormalize; rejects the zero vector."""
        amps = np.asarray(amplitudes, dtype=complex)
        e, norm = _norm(amps)
        return cls(_ldexp(amps, e) / norm)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def jm_labels(ns, na, convention: PrimitiveConvention = PrimitiveConvention.PHOTONIC):
    """(j, m) of occupations (n_s, n_a), scalars or broadcasting arrays:
    j = c (n_s + n_a), m = c (n_s - n_a), with c = 1 photonic and 1/2 fermionic."""
    c = 1.0 if convention is PrimitiveConvention.PHOTONIC else 0.5
    return c * np.add(ns, na), c * np.subtract(ns, na)


def simplex(n_max: int) -> np.ndarray:
    """Mask of the cells n_s + n_a <= n_max of an (n_max+1)^2 amplitude array."""
    n = np.arange(n_max + 1)
    return np.less_equal.outer(n, n_max - n)  # no (n_max+1)^2 integer temporary


def check_budget(n_max: int, modes: int) -> None:
    """Refuse, before allocating it, a state array of more than MAX_AMPLITUDES."""
    size = (n_max + 1) ** modes
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


@dataclass(frozen=True)
class TwoModeState:
    """Amplitudes a[n_s, n_a] on the simplex n_s + n_a <= n_max, held dense.

    The array is (n_max+1) x (n_max+1) and zero wherever n_s + n_a > n_max.
    The container itself admits any norm (operator images are returned
    unnormalized); the public constructors always produce unit norm.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1] or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty square 2-d array")
        outside = np.argwhere((amps != 0) & ~simplex(amps.shape[0] - 1))
        if outside.size:
            ns, na = outside[0].tolist()
            raise ValueError(f"amplitude at ({ns}, {na}) exceeds n_max={amps.shape[0] - 1}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "TwoModeState":
        """Build and renormalize; rejects the zero array."""
        amps = np.ascontiguousarray(amplitudes, dtype=complex)
        # the norm of the support alone, in row-major order, then real division of
        # each part (numpy's complex / real multiplies by a rounded reciprocal)
        e, norm = _norm(amps[amps != 0])
        return cls((_ldexp(amps, e).view(float) / norm).view(complex))

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def make_number_state(n: int, n_max: int) -> SingleModeState:
    """|n> on the truncated basis 0..n_max."""
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


def poisson_tail(mean: float, n_max: int, pmf: Sequence[float] | None = None) -> float:
    """P(X > n_max) for X ~ Poisson(mean), as 1 - fsum(p_0..p_n_max). pmf, if
    given, holds at least those n_max + 1 masses."""
    if mean == 0.0:
        return 0.0
    terms = _pmf_terms(mean) if pmf is None else pmf
    return max(0.0, 1.0 - math.fsum(itertools.islice(terms, n_max + 1)))


def budget_n_max(modes: int) -> int:
    """Largest n_max whose state array fits MAX_AMPLITUDES: 4095 for two modes."""
    return (math.isqrt(MAX_AMPLITUDES) if modes == 2 else MAX_AMPLITUDES) - 1


def coherent_n_max(mean: float, tail_tol: float, modes: int = 1) -> int:
    """Smallest n_max with Poisson tail mass below tail_tol.

    The tail falls monotonically in n_max (fsum rounds correctly), so a search
    that gallops out from a plain running sum's estimate and then bisects finds
    the same n_max as a scan upward from 0. It looks no further than the
    largest n_max a `modes`-mode state can hold within the size budget.
    """
    _check_tail_tol(tail_tol)
    # generous cap; the tail decays superexponentially past the mean
    limit = budget_n_max(modes)
    cap = min(int(mean + 200 * math.sqrt(mean + 1) + 200), limit)
    if mean == 0.0:
        return 0
    terms, pmf, total = _pmf_terms(mean), array("d"), 0.0  # the masses, built as read
    while len(pmf) <= cap and 1.0 - total >= tail_tol:
        pmf.append(next(terms))
        total += pmf[-1]
    lo, hi = -1, cap + 1  # tail(lo) >= tail_tol > tail(hi), the ends taken on trust
    n, step = len(pmf) - 1, 1
    while hi - lo > 1:  # steps double away from the estimate, then the bracket halves
        pmf.extend(itertools.islice(terms, max(0, n + 1 - len(pmf))))
        if poisson_tail(mean, n, pmf) < tail_tol:
            hi, n = n, n - step
        else:
            lo, n = n, n + step
        step *= 2
        if not lo < n < hi:
            n = (lo + hi) // 2
    if hi <= cap:
        return hi
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
    is None; an explicit n_max keeps it if its tail mass is below tail_tol and
    otherwise raises with the smallest adequate one. `modes` sets the size
    budget that an explicit n_max and the search must fit."""
    if n_max is None:
        return coherent_n_max(mean, tail_tol, modes)
    check_budget(n_max, modes)  # before a tail sum over n_max terms
    _check_tail_tol(tail_tol)  # the search checks it again only on a refusal
    if poisson_tail(mean, n_max) < tail_tol:
        return n_max
    needed = coherent_n_max(mean, tail_tol, modes)
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
    return _coherent_state(alpha, coherent_truncation(abs(alpha) ** 2, n_max, tail_tol))


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
    check_budget(state.n_max, 2)
    amps = np.zeros((state.n_max + 1,) * 2, dtype=complex)
    amps[:, 0] = state.amplitudes
    return TwoModeState(amps)


def evolve(state: TwoModeState, t: float) -> TwoModeState:
    """Free evolution by t radians at unit frequency: phase e^{-i(n_s+n_a)t}."""
    n = np.arange(state.n_max + 1)
    j, _ = jm_labels(n[:, None], n)
    return TwoModeState(state.amplitudes * np.exp(-1j * j * t))


# --- JSON interchange -------------------------------------------------------
# {"kind": "single"|"two", "n_max": int, "amps": [[n_s, n_a, re, im], ...]}
# Single-mode states use n_a = 0 rows.


def state_to_json(state: SingleModeState | TwoModeState) -> str:
    """One [n_s, n_a, re, im] row per nonzero amplitude, in (n_s, n_a) order."""
    kind = "single" if isinstance(state, SingleModeState) else "two"
    amps = state.amplitudes if kind == "two" else state.amplitudes[:, None]
    ns, na = np.nonzero(amps)
    values = amps[ns, na].tolist()
    rows = [[s, a, v.real, v.imag] for s, a, v in zip(ns.tolist(), na.tolist(), values)]
    return json.dumps({"kind": kind, "n_max": state.n_max, "amps": rows})


def _json_int(value, hi: float, what: str) -> int:
    if type(value) is not int or not 0 <= value <= hi:
        raise ValueError(f"{what} {value!r} is not an integer in 0..{hi}")
    return value


def _json_real(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"amplitude part {value!r} is not a finite number")
    return float(value)


def state_from_json(text: str) -> SingleModeState | TwoModeState:
    """Read a state document; any malformed field raises ValueError."""
    doc = json.loads(text)
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
    array = np.zeros((n_max + 1, 1 if kind == "single" else n_max + 1), dtype=complex)
    array[tuple(np.array(list(amps), dtype=int).reshape(-1, 2).T)] = list(amps.values())
    if kind == "single":
        return SingleModeState.from_amplitudes(array[:, 0])
    return TwoModeState.from_amplitudes(array)
