"""Byte parity of the relphase CLI between this tree and another checkout.

    python3 tests/parity.py OTHER_ROOT

Runs every case in CASES twice in fresh interpreters, once with this tree's
src on PYTHONPATH and once with OTHER_ROOT/src, each run in an empty working
directory. Both runs read the same input files, written once with this tree's
relphase. A case is identical when the exit code, stdout, stderr and every
file left in its working directory match byte for byte. Each pair in TWINS,
two cases of this tree, must match each other the same way. Prints one line
per case and per pair, and exits 1 if any differs (2 on a usage error).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, argv); {inputs} is the shared input directory, and outputs go to the working directory
CASES = [
    # the benchmark's eight commands on inputs built the way it builds them (seed 1)
    ("sweep xcoh:9 file", ["sweep", "--pol", "file:{inputs}/xcoh9.json", "--kt", "256", "--k", "1024",
                           "--out", "sweep9.csv"]),
    ("sweep xcoh:30 file", ["sweep", "--pol", "file:{inputs}/xcoh30.json", "--kt", "308", "--k", "256",
                            "--out", "sweep30.csv"]),
    ("ellipse xcoh:100", ["ellipse", "--pol", "xcoh:100", "--out", "ellipse.csv"]),
    ("ellipse --db json xcoh:100", ["ellipse", "--pol", "xcoh:100", "--db", "--format", "json",
                                    "--out", "ellipse_db.json"]),
    ("timepdf xcoh:100 kt 716", ["timepdf", "--pol", "xcoh:100", "--kt", "716", "--out", "timepdf.csv"]),
    ("phase coh:1000", ["phase", "--state", "coh:1000", "--k", "4096", "--out", "phase.csv"]),
    ("pb coh:1000 file", ["pb", "--state", "file:{inputs}/coh1000.json", "--s", "4096,16384",
                          "--report", "pb.json", "--out", "pb.csv"]),
    ("moments coh:1000", ["moments", "--state", "coh:1000", "--out", "moments.json"]),
    # default time grids, to stdout
    ("sweep xcoh:9 default kt", ["sweep", "--pol", "xcoh:9", "--k", "128"]),
    ("timepdf xcoh:100 default kt", ["timepdf", "--pol", "xcoh:100"]),
    # ... of a state declared above its support: kt 284 from j_max 70, not 324 from n_max 80
    ("timepdf xnum:70 n-max 80 default kt", ["timepdf", "--pol", "xnum:70", "--n-max", "80"]),
    ("sweep xnum:70 n-max 80 default kt", ["sweep", "--pol", "xnum:70", "--n-max", "80", "--k", "160"]),
    # the help texts and the version
    ("--help", ["--help"]),
    ("--version", ["--version"]),
    *((f"{c} --help", [c, "--help"]) for c in ("phase", "pb", "moments", "sweep", "ellipse", "timepdf")),
    # refusals: a usage error (exit 2) and a numerical precondition (exit 3)
    ("exit 2: unknown spec", ["phase", "--state", "wat:7"]),
    ("exit 3: aliasing grid", ["phase", "--state", "coh:9", "--k", "8"]),
    # the occupied support bounds K, s and kt: refusals it lifts, and one it keeps per bound
    ("phase num:2 n-max 10 k 8", ["phase", "--state", "num:2", "--n-max", "10", "--k", "8"]),
    ("exit 3: phase num:2 k 4", ["phase", "--state", "num:2", "--k", "4"]),
    ("pb num:2 n-max 10 s 4", ["pb", "--state", "num:2", "--n-max", "10", "--s", "4",
                               "--report", "pb.json", "--out", "pb.csv"]),
    ("exit 2: pb coh:1 s 2", ["pb", "--state", "coh:1", "--s", "2", "--report", "pb.json",
                              "--out", "pb.csv"]),
    ("timepdf xcoh:100 kt 179", ["timepdf", "--pol", "xcoh:100", "--kt", "179"]),
    ("exit 3: timepdf xcoh:30 kt 76", ["timepdf", "--pol", "xcoh:30", "--kt", "76"]),
    # sweep's times are snapshot instants, not a quadrature: no exact-size refusal
    ("sweep xcoh:30 kt 76", ["sweep", "--pol", "xcoh:30", "--kt", "76", "--k", "256",
                             "--out", "sweep30.csv"]),
    # a superposition whose squared norm overflows
    ("ellipse xsup 1e200", ["ellipse", "--pol", "xsup:1,1e200;2,1e200", "--k", "8"]),
    # --tail-tol is checked for every spec, not only the coherent ones
    ("exit 2: phase num:3 tail-tol nan", ["phase", "--state", "num:3", "--tail-tol", "nan"]),
    # an --out that names a directory: the refusal names the output, not a temp file
    ("exit 2: phase --out a directory", ["phase", "--state", "num:1", "--k", "8", "--out", "{inputs}"]),
    # the paper's own examples, as tests/test_paper_claims.py runs them
    ("sweep eq67 kt 3", ["sweep", "--pol", "xsup:1,1;2,1", "--kt", "3", "--k", "1024"]),
    ("pb coh:1 s 64,128,256", ["pb", "--state", "coh:1", "--s", "64,128,256", "--report", "pb.json"]),
    ("moments num:3", ["moments", "--state", "num:3"]),
    # an angular column at a K that is not a power of two, where the grid's division rounds
    ("phase coh:9 k 1000", ["phase", "--state", "coh:9", "--k", "1000"]),
    # a mean far past the budget, refused before any Poisson mass is built
    ("exit 3: phase coh:1e9 k 16", ["phase", "--state", "coh:1e9", "--k", "16"]),
    # the readers renormalize before a state is built: off-unit documents read as their unit twin
    # (xcoh9.json's amplitudes times 4, and times 2**-540, whose squared norm underflows)
    ("ellipse xcoh:9 file", ["ellipse", "--pol", "file:{inputs}/xcoh9.json", "--k", "128"]),
    ("ellipse xcoh:9 file x4", ["ellipse", "--pol", "file:{inputs}/xcoh9x4.json", "--k", "128"]),
    ("ellipse xcoh:9 file underflow", ["ellipse", "--pol", "file:{inputs}/xcoh9tiny.json",
                                       "--k", "128"]),
    ("exit 2: ellipse all-zero file", ["ellipse", "--pol", "file:{inputs}/zero.json", "--k", "8"]),
    ("ellipse xsup 3,4", ["ellipse", "--pol", "xsup:1,3;2,4", "--k", "8"]),
    # an integer amplitude of 400 digits, beyond the largest float, under both readers
    ("exit 2: phase 400-digit amplitude", ["phase", "--state", "file:{inputs}/huge1.json", "--k", "8"]),
    ("exit 2: ellipse 400-digit amplitude", ["ellipse", "--pol", "file:{inputs}/huge2.json", "--k", "8"]),
    # spec refusals: a negative coherent mean and an empty truncation list
    ("exit 2: phase coh:-1", ["phase", "--state", "coh:-1"]),
    ("exit 2: pb empty --s", ["pb", "--state", "coh:1", "--s", ","]),
    # the moments document is the library's two dicts merged, on a single-mode file off unit norm too
    ("moments coh:9", ["moments", "--state", "coh:9"]),
    ("moments num:0", ["moments", "--state", "num:0"]),
    ("moments off-unit file", ["moments", "--state", "file:{inputs}/single345.json"]),
    # an explicit --n-max on a coherent spec: kept when adequate, refused with the smallest one not
    ("phase coh:9 n-max 40", ["phase", "--state", "coh:9", "--n-max", "40", "--k", "128"]),
    ("exit 3: phase coh:9 n-max 9", ["phase", "--state", "coh:9", "--n-max", "9"]),
    ("ellipse xcoh:9 n-max 60", ["ellipse", "--pol", "xcoh:9", "--n-max", "60", "--k", "256"]),
    ("exit 3: ellipse xcoh:9 n-max 20", ["ellipse", "--pol", "xcoh:9", "--n-max", "20"]),
    ("phase coh:9 n-max 4000", ["phase", "--state", "coh:9", "--n-max", "4000", "--k", "2048"]),
    ("moments coh:9 tail-tol 1e-15", ["moments", "--state", "coh:9", "--tail-tol", "1e-15"]),
    # a two-mode state is its occupied cells: a sparse state at a large n_max, cells that cancel
    # to exactly 0, document rows out of order with explicit zero rows, and a single-mode embedding
    ("ellipse xnum:4095 k 8192", ["ellipse", "--pol", "xnum:4095", "--k", "8192", "--out", "ellipse.csv"]),
    ("ellipse xsup 3,1;3,-1;5,1", ["ellipse", "--pol", "xsup:3,1;3,-1;5,1", "--k", "16"]),
    ("timepdf shuffled file", ["timepdf", "--pol", "file:{inputs}/shuffled.json"]),
    ("sweep single-mode file", ["sweep", "--pol", "file:{inputs}/single345.json", "--kt", "9",
                                "--k", "16"]),
    # a single-mode state holds its occupied n: the CDF's Horner loop spans them, not 0..n_max
    ("pb num:2000 s 2000", ["pb", "--state", "num:2000", "--s", "2000", "--report", "pb.json",
                            "--out", "pb.csv"]),
    ("pb sparse file s 400,1000,2048", ["pb", "--state", "file:{inputs}/sparse.json",
                                        "--s", "400,1000,2048", "--report", "pb.json", "--out", "pb.csv"]),
    # a gap sweep: C(pi/2) of (|0,0> + |1,1>)/sqrt(2) is 0, and stderr counts the skipped time
    ("sweep gap file kt 3", ["sweep", "--pol", "file:{inputs}/gap.json", "--kt", "3", "--k", "16"]),
    # ... and C(0) of (|0,0> - |1,1>)/sqrt(2) is 0: every time is a gap, and the table is its header
    ("sweep all-gap file kt 1", ["sweep", "--pol", "file:{inputs}/allgap.json", "--kt", "1",
                                 "--k", "16"]),
    # ... and a live one-time sweep: its single time runs as two equal rows of E @ a, not gemv's one
    ("sweep xcoh:9 kt 1", ["sweep", "--pol", "xcoh:9", "--kt", "1", "--k", "128"]),
]

# cases whose outputs must match each other's in one tree, byte for byte
TWINS = [("ellipse xcoh:9 file", "ellipse xcoh:9 file x4"),
         ("ellipse xcoh:9 file", "ellipse xcoh:9 file underflow")]


def write_inputs(inputs: Path) -> None:
    """The benchmark's seeded input states, from this tree's relphase."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from relphase import XCoherent, make_coherent_state, rotate_z, state_to_json, to_circular

    rng = np.random.default_rng(1)
    for mean in (9, 30):
        state = rotate_z(to_circular(XCoherent(float(mean))), rng.uniform(-np.pi, np.pi))
        (inputs / f"xcoh{mean}.json").write_text(state_to_json(state))
    alpha = np.sqrt(1000.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    (inputs / "coh1000.json").write_text(state_to_json(make_coherent_state(alpha)))
    doc = json.loads((inputs / "xcoh9.json").read_text())
    for name, scale in (("xcoh9x4", 4.0), ("xcoh9tiny", 2.0**-540)):  # exact scalings
        rows = [[ns, na, re * scale, im * scale] for ns, na, re, im in doc["amps"]]
        (inputs / f"{name}.json").write_text(json.dumps({**doc, "amps": rows}))
    (inputs / "single345.json").write_text(
        '{"kind": "single", "n_max": 2, "amps": [[0, 0, 3, 0], [1, 0, 0, 4], [2, 0, -1, 2]]}')
    (inputs / "shuffled.json").write_text(
        '{"kind": "two", "n_max": 3, "amps": [[2, 0, 0.5, 0], [0, 0, 0.0, 0.0], [0, 1, 0.3, -0.2], '
        '[1, 1, 0, -0.0], [0, 3, 0.1, 0.4], [1, 0, -0.6, 0.1]]}')
    (inputs / "sparse.json").write_text(
        '{"kind": "single", "n_max": 1000, "amps": [[10, 0, 0.6, -0.3], [400, 0, 0.2, 0.7]]}')
    r = 1 / np.sqrt(2)
    (inputs / "gap.json").write_text(json.dumps({"kind": "two", "n_max": 2,
                                                 "amps": [[0, 0, r, 0], [1, 1, r, 0]]}))
    (inputs / "allgap.json").write_text(json.dumps({"kind": "two", "n_max": 2,
                                                    "amps": [[0, 0, r, 0], [1, 1, -r, 0]]}))
    (inputs / "zero.json").write_text('{"kind": "two", "n_max": 1, "amps": [[0, 0, 0.0, 0.0]]}')
    huge = "1" + "0" * 400
    (inputs / "huge1.json").write_text(f'{{"kind": "single", "n_max": 1, "amps": [[0, 0, {huge}, 0]]}}')
    (inputs / "huge2.json").write_text(f'{{"kind": "two", "n_max": 1, "amps": [[1, 0, 0, -{huge}]]}}')


def run_case(src: Path, argv: list[str], work: Path) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one CLI run in the empty dir work."""
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "relphase.cli", *argv], cwd=work, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(ours: tuple, theirs: tuple) -> list[str]:
    what = []
    if ours[0] != theirs[0]:
        what.append(f"exit {ours[0]} vs {theirs[0]}")
    what += [name for name, a, b in (("stdout", ours[1], theirs[1]), ("stderr", ours[2], theirs[2]))
             if a != b]
    return what + [name for name in sorted(ours[3].keys() | theirs[3].keys())
                   if ours[3].get(name) != theirs[3].get(name)]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "relphase" / "cli.py").is_file():
        print("usage: python3 tests/parity.py OTHER_ROOT (a checkout with src/relphase)", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() / "src"
    failed = 0
    with tempfile.TemporaryDirectory(prefix="relphase-parity-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        outputs = {}
        for i, (name, case) in enumerate(CASES):
            case = [arg.replace("{inputs}", str(inputs)) for arg in case]
            outputs[name] = ours = run_case(ROOT / "src", case, Path(tmp) / "ours" / str(i))
            theirs = run_case(other, case, Path(tmp) / "theirs" / str(i))
            what = differences(ours, theirs)
            failed += bool(what)
            status = "DIFFERS" if what else "identical"
            print(f"{status:9}  exit {ours[0]}  {name}" + (f": {', '.join(what)}" if what else ""))
    for a, b in TWINS:
        what = differences(outputs[a], outputs[b])
        failed += bool(what)
        print(f"{'DIFFERS' if what else 'identical':9}  twins  {a} | {b}"
              + (f": {', '.join(what)}" if what else ""))
    print(f"{len(CASES) + len(TWINS) - failed} of {len(CASES) + len(TWINS)} cases and twins identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
