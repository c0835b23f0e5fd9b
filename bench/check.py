"""Correctness checks for the benchmark's relphase outputs.

Every output file is parsed and checked for shape, row count, finite and
non-negative values, and normalization (each density, each sweep slice and
each discrete pmf integrates to 1 within NORM_TOL). Values are compared
against the independent oracles in ``tests/oracles.py`` within the
tolerances below: every row of a density or pmf, a seeded sample of the
slices of a sweep, every Kolmogorov distance and every moment. Outputs are never compared byte for byte: a faster kernel may
legitimately change the 15th significant digit.

Oracle values depend only on the command's input, so each check computes them
once, when it is built, and every pass then compares against them.

``python3 bench/check.py`` runs the checker self-test and prints its report.
"""
from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NORM_TOL = 1e-8      # |integral - 1| of a density, slice or pmf
ORACLE_RTOL = 1e-9   # |output - oracle| as a share of the oracle's peak value
GRID_ATOL = 1e-12    # phi / t / theta columns against the nominal grid
DB_ATOL = 1e-6       # dB view; the log amplifies relative error in the tails
CDF_ATOL = 1e-6      # Kolmogorov distance; the oracle CDF is trapezoid-integrated
MOMENT_RTOL = 1e-9   # moment report, relative to max(1, |oracle|)
C_MIN = 1e-12        # sweep times with conditioning probability below this are gaps
SAMPLE_SLICES = 2    # oracle-checked slices per sweep output
MOMENT_KEYS = (
    "mean_X", "mean_P", "second_X", "second_P", "var_X", "var_P",
    "mean_Y1", "mean_Y2", "second_Y1", "second_Y2", "vac_prob",
)


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = load_oracles()


# --- oracle inputs --------------------------------------------------------------


def coherent_n_max(mean: float, tail_tol: float = 1e-12) -> int:
    """Smallest n_max whose Poisson tail is below tail_tol, as the CLI picks it."""
    pmf = []
    n = 0
    while True:
        pmf.append(oracles.poisson_pmf(mean, n))
        if max(0.0, 1.0 - math.fsum(pmf)) < tail_tol:
            return n
        n += 1


def read_state(path: Path):
    """Amplitudes of a JSON state document, normalized: an array for kind
    "single", a {(n_s, n_a): amplitude} dict for kind "two"."""
    doc = json.loads(path.read_text())
    if doc["kind"] == "single":
        psi = np.zeros(doc["n_max"] + 1, dtype=complex)
        for n, _, re, im in doc["amps"]:
            psi[n] = complex(re, im)
        return psi / math.sqrt(float(np.vdot(psi, psi).real))
    amps = {(ns, na): complex(re, im) for ns, na, re, im in doc["amps"]}
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in amps.values()))
    return {key: v / norm for key, v in amps.items()}


def grid(k: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(k) / k


def product_moments(psi: np.ndarray) -> dict[str, float]:
    """Moments of both commuting extensions on mode (x) auxiliary vacuum.

    The construction of ``oracles.heterodyne_product_moments`` and
    ``oracles.y_product_moments`` (dense mode matrices with one pad slot),
    with the auxiliary mode cut to the levels |0>, |1>: each operator is
    applied once to a vacuum auxiliary, so no higher level is reached. A
    two-mode vector is a (d, 2) array V, and A (x) B acts as A V B^T.
    """
    d = len(psi) + 1
    state = np.zeros((d, 2), dtype=complex)
    state[: len(psi), 0] = psi
    aux_lower = oracles.unit_shift(2)  # on two levels, a|1> = |0> = A|1>
    aux_vac = np.diag([1.0, 0.0]).astype(complex)
    mode_vac = np.zeros_like(state)  # |0><0| (x) 1 keeps the n = 0 row
    mode_vac[0] = state[0]

    def pair(y_s, ydag_s, prefix1, prefix2):
        v1 = (y_s + ydag_s) / 2
        v2 = (y_s - ydag_s) / 2j
        return {
            prefix1[0]: float(np.vdot(state, v1).real),
            prefix2[0]: float(np.vdot(state, v2).real),
            prefix1[1]: float(np.vdot(v1, v1).real),
            prefix2[1]: float(np.vdot(v2, v2).real),
        }

    a = oracles.ladder(d)
    # y = a (x) 1 + 1 (x) a^dag ; y^dag = a^dag (x) 1 + 1 (x) a
    y_s = a @ state + state @ aux_lower.conj()
    ydag_s = a.conj().T @ state + state @ aux_lower.T
    out = pair(y_s, ydag_s, ("mean_X", "second_X"), ("mean_P", "second_P"))
    shift = oracles.unit_shift(d)
    # y = A (x) |0><0| + |0><0| (x) A^dag
    y_s = shift @ state @ aux_vac.T + mode_vac @ aux_lower.conj()
    ydag_s = shift.conj().T @ state @ aux_vac.T + mode_vac @ aux_lower.T
    out.update(pair(y_s, ydag_s, ("mean_Y1", "second_Y1"), ("mean_Y2", "second_Y2")))
    out["var_X"] = out["second_X"] - out["mean_X"] ** 2
    out["var_P"] = out["second_P"] - out["mean_P"] ** 2
    out["vac_prob"] = float(abs(psi[0]) ** 2)
    return out


# --- parsing and shared checks ---------------------------------------------------


def read_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def table_problems(data: np.ndarray, columns: int, rows: int, value_col: int) -> list[str]:
    if data.shape != (rows, columns):
        return [f"shape {data.shape}, expected {(rows, columns)}"]
    out = []
    if not np.all(np.isfinite(data)):
        out.append("non-finite values")
    if np.any(data[:, value_col] < 0):
        out.append("negative values")
    return out


def grid_problem(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(got - want), initial=0.0))
    return [f"{what} column off its grid by {err:.3g}"] if err > GRID_ATOL else []


def norm_problem(what: str, density: np.ndarray) -> list[str]:
    err = float(np.mean(density)) * 2.0 * np.pi - 1.0
    return [f"{what} integrates to 1{err:+.3g}"] if abs(err) > NORM_TOL else []


def oracle_problem(what: str, got: np.ndarray, want: np.ndarray, atol: float) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    return [f"{what} differs from the oracle by {err:.3g} > {atol:.3g}"] if err > atol else []


class Check:
    """Checks one command's outputs; ``problems`` lists what is wrong."""

    def problems(self) -> list[str]:
        try:
            return self.inspect()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def inspect(self) -> list[str]:
        raise NotImplementedError


class SweepCheck(Check):
    """``sweep`` CSV: t,phi,density in slices of k rows over linspace(0, pi, kt)."""

    def __init__(self, out: Path, amps: dict, kt: int, k: int, rng):
        self.out, self.k = out, k
        jm = oracles.jm_map(amps)
        self.times = np.linspace(0.0, np.pi, kt)
        c = np.asarray(oracles.direct_C(jm, self.times))
        # the CLI and the oracle may disagree within rounding right at C_MIN
        self.must_have = set(np.flatnonzero(c > C_MIN * (1 + 1e-6)).tolist())
        self.must_skip = set(np.flatnonzero(c < C_MIN * (1 - 1e-6)).tolist())
        picks = rng.choice(sorted(self.must_have), size=SAMPLE_SLICES, replace=False)
        self.expected = {int(i): oracles.direct_snapshot(jm, self.times[i], grid(k)) for i in picks}

    def inspect(self) -> list[str]:
        data = read_csv(self.out, "t,phi,density")
        if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] % self.k:
            return [f"shape {data.shape} is not whole slices of {self.k} rows"]
        out = table_problems(data, 3, data.shape[0], 2)
        slices = data.reshape(-1, self.k, 3)
        t = slices[:, :, 0]
        idx = np.rint(t[:, 0] * (len(self.times) - 1) / np.pi).astype(int)
        if np.any(idx < 0) or np.any(idx >= len(self.times)) or np.any(np.diff(idx) <= 0):
            return out + ["slice times are not increasing points of the time grid"]
        out += grid_problem("t", t, self.times[idx][:, None])
        out += grid_problem("phi", slices[:, :, 1], grid(self.k)[None, :])
        present = set(idx.tolist())
        if not self.must_have <= present:
            out.append(f"{len(self.must_have - present)} slice(s) missing")
        if present & self.must_skip:
            out.append(f"{len(present & self.must_skip)} slice(s) at vanishing C(t)")
        for s in np.flatnonzero(np.abs(slices[:, :, 2].mean(axis=1) * 2.0 * np.pi - 1.0) > NORM_TOL):
            out.append(f"slice t={t[s, 0]:.6g} does not integrate to 1")
        where = {int(i): s for s, i in enumerate(idx)}
        for i, want in self.expected.items():
            if i in where:
                got = slices[where[i], :, 2]
                out += oracle_problem(f"slice t={self.times[i]:.6g}", got, want, ORACLE_RTOL * want.max())
        return out


class DensityCheck(Check):
    """Single-density CSV (``phase``, ``ellipse``, ``timepdf``): x,density on
    the angular grid of the oracle's length, compared with it on every row."""

    def __init__(self, out: Path, header: str, expected: np.ndarray):
        self.out, self.header, self.expected = out, header, expected

    def inspect(self) -> list[str]:
        data = read_csv(self.out, self.header)
        k = len(self.expected)
        out = table_problems(data, 2, k, 1)
        if out:
            return out
        out += grid_problem(self.header.split(",")[0], data[:, 0], grid(k))
        out += norm_problem("density", data[:, 1])
        atol = ORACLE_RTOL * self.expected.max()
        return out + oracle_problem("density", data[:, 1], self.expected, atol)


class DbCheck(Check):
    """``ellipse --db --format json``: rows of [phi, dB] with the peak at 60 dB,
    against the 60 dB view of the oracle marginal ``density``."""

    def __init__(self, out: Path, density: np.ndarray):
        self.out = out
        with np.errstate(divide="ignore"):
            self.expected = np.maximum(10.0 * np.log10(density / density.max()) + 60.0, 0.0)

    def inspect(self) -> list[str]:
        doc = json.loads(self.out.read_text())
        if doc["columns"] != ["phi", "db"]:
            return [f"columns {doc['columns']!r}"]
        data = np.array(doc["rows"], dtype=float)
        k = len(self.expected)
        out = table_problems(data, 2, k, 1)
        if out:
            return out
        out += grid_problem("phi", data[:, 0], grid(k))
        if abs(data[:, 1].max() - 60.0) > DB_ATOL:
            out.append(f"peak reads {data[:, 1].max()!r} dB, not 60")
        return out + oracle_problem("dB view", data[:, 1], self.expected, DB_ATOL)


class PbCheck(Check):
    """``pb`` CSV (s,theta,mass per truncation) and its convergence report."""

    def __init__(self, out: Path, report: Path, psi: np.ndarray, s_values):
        self.out, self.report, self.s_values = out, report, list(s_values)
        self.thetas = [-np.pi + 2.0 * np.pi * np.arange(s + 1) / (s + 1) for s in self.s_values]
        # with s >= n_max, the mass at theta_m is 2 pi / (s+1) times the phase density there
        self.masses = [2.0 * np.pi / (s + 1) * oracles.direct_phase_pdf(psi, theta)
                       for s, theta in zip(self.s_values, self.thetas)]
        cdf = oracles.numeric_cdf(psi, np.concatenate(self.thetas))
        self.cdfs = np.split(cdf, np.cumsum([s + 1 for s in self.s_values])[:-1])

    def inspect(self) -> list[str]:
        data = read_csv(self.out, "s,theta,mass")
        rows = sum(s + 1 for s in self.s_values)
        out = table_problems(data, 3, rows, 2)
        if out:
            return out
        distances = []
        start = 0
        for s, want, theta, cdf in zip(self.s_values, self.masses, self.thetas, self.cdfs):
            block = data[start : start + s + 1]
            start += s + 1
            if np.any(block[:, 0] != s):
                out.append(f"block for s={s} holds other truncations")
            out += grid_problem("theta", block[:, 1], theta)
            masses = block[:, 2]
            if abs(masses.sum() - 1.0) > NORM_TOL:
                out.append(f"masses for s={s} sum to 1{masses.sum() - 1.0:+.3g}")
            out += oracle_problem(f"masses for s={s}", masses, want, ORACLE_RTOL * want.max())
            # sup |F_discrete - F_continuous|, steps approached from either side
            cum = np.cumsum(masses)
            distances.append(max(np.abs(cdf - cum).max(), np.abs(cdf - cum + masses).max()))
        report = json.loads(self.report.read_text())
        if [r["s"] for r in report] != self.s_values:
            return out + [f"report lists s={[r['s'] for r in report]}"]
        got = np.array([r["distance"] for r in report], dtype=float)
        return out + oracle_problem("Kolmogorov distance", got, np.array(distances), CDF_ATOL)


class MomentsCheck(Check):
    """``moments`` JSON report against the product-space moments."""

    def __init__(self, out: Path, psi: np.ndarray):
        self.out, self.expected = out, product_moments(psi)

    def inspect(self) -> list[str]:
        doc = json.loads(self.out.read_text())
        if sorted(doc) != sorted(MOMENT_KEYS):
            return [f"report keys {sorted(doc)}"]
        out = []
        for key in MOMENT_KEYS:
            got, want = float(doc[key]), self.expected[key]
            if not math.isfinite(got) or abs(got - want) > MOMENT_RTOL * max(1.0, abs(want)):
                out.append(f"{key} = {got!r}, oracle {want!r}")
        return out


def command_failed(rc: int, problems: list[str]) -> bool:
    """A command fails on a non-zero exit code or any output problem."""
    return rc != 0 or bool(problems)


# --- self-test ---------------------------------------------------------------------


def selftest(work: Path, cli_main) -> dict:
    """Show that the checker can fail.

    Runs a small sweep through ``cli_main``, then feeds the sweep check the
    clean output and three corruptions: one perturbed row, one slice scaled
    off unit integral, and a wrong exit code. Also checks ``product_moments``
    against the full tensor-product oracles on a random state. Returns a
    report whose ``ok`` is true only if the clean case passes and every
    corruption is counted as failed.
    """
    from relphase.fock import state_to_json
    from relphase.polarization import XCoherent, to_circular

    rng = np.random.default_rng(0)
    state_path, out = work / "selftest_state.json", work / "selftest_sweep.csv"
    state_path.write_text(state_to_json(to_circular(XCoherent(2.0))))
    kt, k = 80, 64  # kt >= 4 (n_max + 1) for n_max = 18
    rc = cli_main(["sweep", "--pol", f"file:{state_path}", "--kt", str(kt), "--k", str(k), "--out", str(out)])
    check = SweepCheck(out, read_state(state_path), kt, k, rng)
    clean = out.read_text()
    lines = clean.splitlines()
    sampled = min(check.expected)  # first oracle-checked slice
    row = 1 + sum(i < sampled for i in check.must_have) * k + k // 2
    t, phi, dens = lines[row].split(",")
    perturbed = lines.copy()
    perturbed[row] = f"{t},{phi},{float(dens) * (1 + 1e-6):.15g}"
    scaled = lines.copy()
    for r in range(1 + k, 1 + 2 * k):  # second slice, off its integral by 1%
        t, phi, dens = scaled[r].split(",")
        scaled[r] = f"{t},{phi},{float(dens) * 1.01:.15g}"
    cases = {
        "clean": (rc, clean),
        "perturbed_row": (rc, "\n".join(perturbed) + "\n"),
        "slice_not_normalized": (rc, "\n".join(scaled) + "\n"),
        "wrong_exit_code": (3, clean),
    }
    report = {"attempted": 0, "failed": 0, "cases": {}}
    for name, (case_rc, text) in cases.items():
        out.write_text(text)
        problems = check.problems()
        failed = command_failed(case_rc, problems)
        report["attempted"] += 1
        report["failed"] += failed
        report["cases"][name] = {"failed": failed, "problems": problems}
    report["fail_ratio"] = report["failed"] / report["attempted"]
    psi = oracles.random_single(rng, 6)
    full = oracles.heterodyne_product_moments(psi) + oracles.y_product_moments(psi)
    cut = product_moments(psi)
    names = ("mean_X", "mean_P", "second_X", "second_P", "mean_Y1", "mean_Y2", "second_Y1", "second_Y2")
    report["moment_oracle_err"] = max(abs(cut[n] - v) for n, v in zip(names, full))
    report["ok"] = (
        all(case["failed"] == (name != "clean") for name, case in report["cases"].items())
        and report["moment_oracle_err"] < 1e-12
    )
    return report


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    from relphase.cli import main as cli_main

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        result = selftest(Path(tmp), cli_main)
    print(json.dumps(result, indent=1))
    sys.exit(0 if result["ok"] else 1)
