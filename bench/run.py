"""Benchmark of the relphase CLI over three fixed workloads.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-contour --seed 1 --seconds 20 --trace 0

Every workload is a closed loop: one client runs one command at a time, and
the next command starts when the previous one has exited.

--trace 0 runs each command as ``python -m relphase.cli ... --out FILE`` in a
fresh process, pass after pass for about --seconds, and reports the
end-to-end metrics named in BENCHMARK.json: the median over passes of the
pass wall time, the children's user+system CPU (from ``os.wait4``) and their
peak RSS, plus ``setup_s``, the median time of a fresh interpreter that
imports ``relphase.cli`` and exits.

--trace 1 runs the same commands in this process through ``relphase.cli.main``,
alternating untraced passes with passes under the outside-in tracer of
``layertrace.py``, and reports the per-layer metrics named in BENCHMARK.json.
``trace.overhead_s`` is the median traced pass minus the median untraced pass.

Inputs are made from --seed before any timing; the program receives only the
generated files. Every output of every pass is checked by ``check.py``; a
command that exits with an unexpected code or whose output fails a check
counts as failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it records the
run environment, the per-pass figures and the checker self-test.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

sys.path.insert(0, str(SRC))
try:
    import relphase
    import relphase.cli
    from relphase.fock import SingleModeState, state_to_json
    from relphase.polarization import XCoherent, to_circular
    from relphase.schwinger import rotate_z
except ImportError as exc:
    sys.exit(f"bench: cannot import relphase from {SRC}: {exc}")
if not Path(relphase.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: relphase resolved to {relphase.__file__}, outside {SRC}")

from check import (  # noqa: E402  (needs relphase on the path first)
    Check,
    DbCheck,
    DensityCheck,
    MomentsCheck,
    PbCheck,
    SweepCheck,
    coherent_n_max,
    command_failed,
    grid,
    oracles,
    read_state,
    selftest,
)
from layertrace import Tracer  # noqa: E402


@dataclass
class Command:
    argv: list[str]  # relphase CLI arguments
    outputs: list[Path]
    check: Check  # over ``outputs``


def sweep_contour(rng, work: Path) -> list[Command]:
    """Time-resolved contour figure: the only workload where both the ``pom``
    snapshot kernel and the CLI's CSV output do most of the work. xcoh:9 at
    K 1024 writes 14.3 MB; xcoh:30 at K 256 spends more in the kernel, so the
    two states shift the split between kernel and writer. The seed sets a
    random z-rotation of each state."""
    cmds = []
    for mean, kt, k in ((9.0, 256, 1024), (30.0, 308, 256)):
        state = rotate_z(to_circular(XCoherent(mean)), rng.uniform(-np.pi, np.pi))
        path, out = work / f"xcoh{mean:g}.json", work / f"sweep{mean:g}.csv"
        path.write_text(state_to_json(state))
        argv = ["sweep", "--pol", f"file:{path}", "--kt", str(kt), "--k", str(k), "--out", str(out)]
        cmds.append(Command(argv, [out], SweepCheck(out, read_state(path), kt, k, rng)))
    return cmds


def pol_marginals(rng, work: Path) -> list[Command]:
    """Polarization ellipse and time density of xcoh:100: a large state
    (16,110 amplitudes) with outputs under 40 KB. The marginal and time
    kernels in ``pom`` and the two-mode state build do the work and the
    writer almost none, so a writer change should leave it flat. The inputs
    do not depend on the seed."""
    jm = oracles.jm_map(oracles.xcoherent_amp(100.0, coherent_n_max(100.0)))
    marginal = oracles.direct_marginal(jm, grid(1024))
    time_density = np.asarray(oracles.direct_C(jm, grid(716))) / (2.0 * np.pi)
    ellipse, db, timepdf = work / "ellipse.csv", work / "ellipse_db.json", work / "timepdf.csv"
    return [
        Command(["ellipse", "--pol", "xcoh:100", "--out", str(ellipse)], [ellipse],
                DensityCheck(ellipse, "phi,density", marginal)),
        Command(["ellipse", "--pol", "xcoh:100", "--db", "--format", "json", "--out", str(db)], [db],
                DbCheck(db, marginal)),
        Command(["timepdf", "--pol", "xcoh:100", "--kt", "716", "--out", str(timepdf)], [timepdf],
                DensityCheck(timepdf, "t,density", time_density)),
    ]


def single_mode(rng, work: Path) -> list[Command]:
    """Single-mode phase statistics of coh:1000: never enters ``pom`` or
    ``polarization``, so a two-mode kernel change should leave it flat. The
    truncation search in ``fock`` and ``phase_cdf`` in ``pegg_barnett``
    dominate, and ``pb`` reads its state through the JSON path of ``fock``.
    The seed sets the phase of the coherent amplitude in that JSON state."""
    mean = 1000.0
    n_max = coherent_n_max(mean)
    alpha = math.sqrt(mean) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    path = work / "coh1000.json"
    path.write_text(state_to_json(SingleModeState(oracles.coherent_amps(alpha, n_max))))
    psi = oracles.coherent_amps(math.sqrt(mean), n_max)
    phase, pb, report, moments = (work / n for n in ("phase.csv", "pb.csv", "pb.json", "moments.json"))
    s_values = [4096, 16384]
    return [
        Command(["phase", "--state", "coh:1000", "--k", "4096", "--out", str(phase)], [phase],
                DensityCheck(phase, "phi,density", oracles.direct_phase_pdf(psi, grid(4096)))),
        Command(["pb", "--state", f"file:{path}", "--s", ",".join(map(str, s_values)),
                 "--report", str(report), "--out", str(pb)], [pb, report],
                PbCheck(pb, report, read_state(path), s_values)),
        Command(["moments", "--state", "coh:1000", "--out", str(moments)], [moments],
                MomentsCheck(moments, psi)),
    ]


WORKLOADS = {"sweep-contour": sweep_contour, "pol-marginals": pol_marginals, "single-mode": single_mode}


# --- running commands -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], work: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, user+system CPU s, peak RSS MB) of one fresh interpreter.

    Its stderr (error messages, sweep gap notices) passes through to ours."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, env=child_env(), cwd=work)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def clear_outputs(cmd: Command) -> None:
    for path in cmd.outputs:
        path.unlink(missing_ok=True)


class Tally:
    """Commands attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd: Command, rc: int) -> None:
        problems = cmd.check.problems()
        self.attempted += 1
        if command_failed(rc, problems):
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{cmd.argv[0]}: exit {rc}; {'; '.join(problems[:3])}")


def subprocess_pass(cmds: list[Command], work: Path, tally: Tally) -> dict:
    wall = cpu = rss = 0.0
    for cmd in cmds:
        clear_outputs(cmd)
        rc, w, c, r = run_child(["-m", "relphase.cli", *cmd.argv], work)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        tally.record(cmd, rc)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def call_main(argv: list[str]) -> int:
    try:
        return relphase.cli.main(argv)  # looked up per call, so the tracer's wrapper applies
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def inprocess_pass(cmds: list[Command], tally: Tally) -> tuple[float, int]:
    """(seconds inside cli.main, output bytes) of one pass in this process."""
    wall, size = 0.0, 0
    for cmd in cmds:
        clear_outputs(cmd)
        start = time.perf_counter()
        rc = call_main(cmd.argv)
        wall += time.perf_counter() - start
        size += sum(p.stat().st_size for p in cmd.outputs if p.exists())
        tally.record(cmd, rc)
    return wall, size


def repeat_until(deadline: float, run_pass) -> list:
    """Run passes until the next one is predicted to end after the deadline (at least one)."""
    results, took = [], []
    while not results or time.perf_counter() + statistics.median(took) <= deadline:
        start = time.perf_counter()
        results.append(run_pass(len(results)))
        took.append(time.perf_counter() - start)
    return results


# --- metrics ----------------------------------------------------------------------


def end_to_end(cmds: list[Command], work: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup = []

    def import_cli():
        rc, wall, _, _ = run_child(["-c", "import relphase.cli"], work)
        if rc != 0:
            sys.exit(f"bench: 'import relphase.cli' exited {rc}")
        return wall

    def run_pass(_):
        result = subprocess_pass(cmds, work, tally)
        # set-up samples spread over the run, so a slow spell of the machine weighs
        # on them no more than on the passes
        setup.extend(import_cli() for _ in range(SETUP_PER_PASS))
        return result

    import_cli()  # warms the bytecode cache
    passes = repeat_until(time.perf_counter() + seconds, run_pass)
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, {"passes": passes, "setup_s": setup}


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass."""
    fn_self, layer_self, calls = tracer.self_times()
    m = {f"{name}.self_s": t for name, t in fn_self.items()}
    m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    m.update({f"{name}.calls": n for name, n in calls.items()})
    m.update(tracer.counts)
    cli_self = fn_self.get("cli.main", 0.0)
    sweep_self = fn_self.get("pom.snapshot_sweep", 0.0)
    m["cli.bytes_out"] = bytes_out
    m["cli.out_MBps"] = bytes_out / 1e6 / cli_self if cli_self else 0.0
    m["pom.slices_per_s"] = tracer.counts["pom.slices"] / sweep_self if sweep_self else 0.0
    return m


def per_layer(cmds: list[Command], seconds: float, tally: Tally) -> tuple[dict, dict]:
    tracer = Tracer()

    def traced_pass():
        tracer.clear()
        tracer.install()
        try:
            wall, bytes_out = inprocess_pass(cmds, tally)
        finally:
            tracer.uninstall()
        return wall, layer_metrics(tracer, bytes_out)

    def pair(i):
        """(untraced wall, traced wall, layer metrics); the order alternates."""
        if i % 2:
            traced_wall, m = traced_pass()
            return inprocess_pass(cmds, tally)[0], traced_wall, m
        untraced_wall = inprocess_pass(cmds, tally)[0]
        return (untraced_wall, *traced_pass())

    deadline = time.perf_counter() + seconds
    inprocess_pass(cmds, tally)  # warm-up: first-call costs of this process are not a layer's
    pairs = repeat_until(deadline, pair)
    untraced, traced, samples = zip(*pairs)
    names = set().union(*samples)
    # counts repeat exactly across passes; median_low keeps them whole numbers
    metrics = {n: statistics.median_low(s.get(n, 0) for s in samples) for n in names}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "self_s": {n[: -len(".self_s")]: metrics[n] for n in sorted(names) if n.endswith(".self_s")},
    }
    return metrics, detail


def openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, if this numpy links a loaded OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_report = selftest(work, call_main)
        cmds = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        tally = Tally()
        if args.trace:
            values, detail = per_layer(cmds, args.seconds, tally)
        else:
            values, detail = end_to_end(cmds, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    info = {
        "workload": args.workload,
        "env": environment(args.seed),
        "detail": detail,
        "fail_ratio": tally.failed / tally.attempted,
        "problems": tally.problems,
        "checker_selftest": check_report,
    }
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": check_report["ok"] and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
