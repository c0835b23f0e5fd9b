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
