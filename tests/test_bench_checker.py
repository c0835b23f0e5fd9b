"""The benchmark's output checker must still accept this program's outputs.

``bench/check.py`` runs its self-test through the CLI: a clean sweep must
pass and three corrupted ones must be caught. A writer or CLI change that
breaks the checker then fails here, not only in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_checker_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "check.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["cases"]["clean"]["failed"] is False


HARNESS_PASS = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
sys.path.insert(0, "bench")
import run
report = {}
for name in run.WORKLOADS:
    with tempfile.TemporaryDirectory() as tmp:
        cmds = run.WORKLOADS[name](np.random.default_rng(1), Path(tmp))
        tally = run.Tally()
        run.inprocess_pass(cmds, tally)
        report[name] = {"attempted": tally.attempted, "failed": tally.failed,
                        "problems": tally.problems}
print(json.dumps(report))
"""


def test_bench_workloads_pass_their_checks():
    """One in-process pass of every workload's builders and checks: a state-API
    or command change that breaks the harness fails here, not only in a
    benchmark run."""
    proc = subprocess.run(
        [sys.executable, "-c", HARNESS_PASS],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert {name: tally["attempted"] for name, tally in report.items()} == {
        "sweep-contour": 2, "pol-marginals": 3, "single-mode": 3,
    }
    assert all(tally["failed"] == 0 for tally in report.values()), report
