"""One- and two-mode truncated Fock states.

States are immutable value objects; every operation returns a new state.
Constructors renormalize after truncation and report inadequate truncation
instead of silently losing norm.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import TruncationError

NORM_TOL = 1e-10


class PrimitiveConvention(Enum):
    """How two oscillator occupations map to total/difference quantum numbers.

    PHOTONIC:  j = n_s + n_a, m = n_s - n_a  (m steps by 2 inside a branch)
    FERMIONIC: j = (n_s + n_a)/2, m = (n_s - n_a)/2  (m steps by 1; half-integers)
    """

    PHOTONIC = "photonic"
    FERMIONIC = "fermionic"


def _norm(amps: np.ndarray) -> float:
    """The norm a constructor divides by; zero and non-finite norms are refused."""
    norm = math.sqrt(float(np.vdot(amps, amps).real))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of norm {norm}")
    return norm


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
        return cls(amps / _norm(amps))

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class TwoModeState:
    """Sparse amplitudes over pairs (n_s, n_a) with n_s + n_a <= n_max.

    The container itself admits any norm (operator images are returned
    unnormalized); the public constructors always produce unit norm.
    """

    amplitudes: Mapping[tuple[int, int], complex]
    n_max: int

    def __post_init__(self):
        amps = {}
        for (ns, na), v in dict(self.amplitudes).items():
            if ns < 0 or na < 0:
                raise ValueError(f"negative occupation in key ({ns}, {na})")
            if ns + na > self.n_max:
                raise ValueError(f"key ({ns}, {na}) exceeds n_max={self.n_max}")
            if v != 0:
                amps[(int(ns), int(na))] = complex(v)
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))

    @classmethod
    def from_amplitudes(
        cls,
        amplitudes: Mapping[tuple[int, int], complex],
        n_max: int | None = None,
    ) -> "TwoModeState":
        """Build and renormalize; n_max defaults to the largest occupied total."""
        if n_max is None:
            n_max = max((ns + na for ns, na in amplitudes), default=0)
        norm = _norm(np.array(list(amplitudes.values()), dtype=complex))
        return cls({k: v / norm for k, v in amplitudes.items()}, n_max)

    def norm_squared(self) -> float:
        return math.fsum(abs(v) ** 2 for v in self.amplitudes.values())


@dataclass(frozen=True)
class JmState:
    """Sparse amplitudes keyed by (j, m) under a primitive convention.

    Keys are integers for the photonic convention and exact half-integer
    floats for the fermionic one.
    """

    amplitudes: Mapping[tuple[float, float], complex]
    convention: PrimitiveConvention

    def __post_init__(self):
        amps = {}
        for (j, m), v in dict(self.amplitudes).items():
            if abs(m) > j + 1e-12:
                raise ValueError(f"|m| > j for key ({j}, {m})")
            if self.convention is PrimitiveConvention.PHOTONIC:
                if (j - m) % 2 != 0:
                    raise ValueError(f"photonic key ({j}, {m}) breaks m parity")
            else:
                if (2 * j) % 1 != 0 or (j - m) % 1 != 0:
                    raise ValueError(f"fermionic key ({j}, {m}) off the half-integer lattice")
            if v != 0:
                amps[(j, m)] = complex(v)
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))

    def j_values(self) -> list[float]:
        return sorted({j for j, _ in self.amplitudes})

    def j_max(self) -> float:
        return max((j for j, _ in self.amplitudes), default=0.0)

    def norm_squared(self) -> float:
        return math.fsum(abs(v) ** 2 for v in self.amplitudes.values())


def make_number_state(n: int, n_max: int) -> SingleModeState:
    """|n> on the truncated basis 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not 0 <= n <= n_max:
        raise TruncationError(f"number state n={n} exceeds n_max={n_max}", required_n_max=n)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return SingleModeState(amps)


def poisson_tail(mean: float, n_max: int) -> float:
    """P(X > n_max) for X ~ Poisson(mean)."""
    if mean == 0.0:
        return 0.0
    logs = [-mean + n * math.log(mean) - math.lgamma(n + 1) for n in range(n_max + 1)]
    return max(0.0, 1.0 - math.fsum(math.exp(v) for v in logs))


def coherent_n_max(mean: float, tail_tol: float) -> int:
    """Smallest n_max with Poisson tail mass below tail_tol.

    The tail falls monotonically in n_max, so a bisection finds the same
    n_max as a scan upward from 0.
    """
    if not 0.0 < tail_tol < 1.0:  # nan included
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    # generous cap; the tail decays superexponentially past the mean
    cap = int(mean + 200 * math.sqrt(mean + 1) + 200)
    lo, hi = -1, cap + 1  # tail(lo) >= tail_tol > tail(hi), the ends taken on trust
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poisson_tail(mean, mid) >= tail_tol:
            lo = mid
        else:
            hi = mid
    if hi > cap:
        raise TruncationError(f"no adequate truncation below n={cap} for mean {mean}")
    return hi


def coherent_truncation(mean: float, n_max: int | None, tail_tol: float) -> int:
    """Truncation for a coherent excitation: the smallest adequate one when n_max
    is None; an explicit n_max below it keeps tail mass >= tail_tol and raises."""
    needed = coherent_n_max(mean, tail_tol)
    if n_max is None:
        return needed
    if n_max < needed:
        raise TruncationError(
            f"coherent tail mass at n_max={n_max} is not below {tail_tol:g}; "
            f"need n_max >= {needed}",
            required_n_max=needed,
        )
    return n_max


def make_coherent_state(
    alpha: complex, n_max: int | None = None, tail_tol: float = 1e-12
) -> SingleModeState:
    """Truncated coherent state, psi_n ~ alpha^n/sqrt(n!), renormalized.

    Raises TruncationError when the discarded Poisson tail mass at the given
    n_max is not below tail_tol; n_max=None picks the smallest adequate value.
    """
    mean = abs(alpha) ** 2
    n_max = coherent_truncation(mean, n_max, tail_tol)
    if mean == 0.0:
        return make_number_state(0, n_max)
    n = np.arange(n_max + 1)
    log_mag = n * math.log(abs(alpha)) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(n_max + 1)]
    )
    log_mag -= log_mag.max()
    amps = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    return SingleModeState.from_amplitudes(amps)


def single_to_two_mode(state: SingleModeState) -> TwoModeState:
    """Embed |psi>_s |0>_a as a two-mode state (auxiliary mode off)."""
    amps = {(n, 0): state.amplitudes[n] for n in range(state.n_max + 1)}
    return TwoModeState(amps, state.n_max)


def _jm_key(ns: int, na: int, convention: PrimitiveConvention) -> tuple[float, float]:
    if convention is PrimitiveConvention.PHOTONIC:
        return (ns + na, ns - na)
    return ((ns + na) / 2, (ns - na) / 2)


def _occupations(j: float, m: float, convention: PrimitiveConvention) -> tuple[int, int]:
    if convention is PrimitiveConvention.PHOTONIC:
        ns, na = (j + m) / 2, (j - m) / 2
    else:
        ns, na = j + m, j - m
    return int(round(ns)), int(round(na))


def to_jm(state: TwoModeState, convention: PrimitiveConvention) -> JmState:
    """Re-index occupation amplitudes by (j, m); amplitude preserving."""
    amps = {
        _jm_key(ns, na, convention): v for (ns, na), v in state.amplitudes.items()
    }
    return JmState(amps, convention)


def from_jm(state: JmState, n_max: int | None = None) -> TwoModeState:
    """Inverse of :func:`to_jm`; exact round trip."""
    amps = {
        _occupations(j, m, state.convention): v for (j, m), v in state.amplitudes.items()
    }
    if n_max is None:
        n_max = max((ns + na for ns, na in amps), default=0)
    return TwoModeState(amps, n_max)


def evolve(state: TwoModeState, t: float) -> TwoModeState:
    """Free evolution by t radians at unit frequency: phase e^{-i(n_s+n_a)t}."""
    amps = {
        (ns, na): v * np.exp(-1j * (ns + na) * t)
        for (ns, na), v in state.amplitudes.items()
    }
    return TwoModeState(amps, state.n_max)


# --- JSON interchange -------------------------------------------------------
# {"kind": "single"|"two", "n_max": int, "amps": [[n_s, n_a, re, im], ...]}
# Single-mode states use n_a = 0 rows.


def state_to_json(state: SingleModeState | TwoModeState) -> str:
    kind = "single" if isinstance(state, SingleModeState) else "two"
    two = single_to_two_mode(state) if kind == "single" else state
    rows = [[ns, na, v.real, v.imag] for (ns, na), v in sorted(two.amplitudes.items())]
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
    if kind == "single":
        single = np.zeros(n_max + 1, dtype=complex)
        single[[ns for ns, _ in amps]] = list(amps.values())
        return SingleModeState.from_amplitudes(single)
    return TwoModeState.from_amplitudes(amps, n_max)
