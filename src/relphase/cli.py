"""Command-line front door: build states, run the measurements, emit CSV/JSON.

State mini-language:
  num:n       number state |n>
  coh:N       coherent state of mean photon number N (alpha = sqrt(N), real)
  xnum:n      n x-polarized photons (two-mode, circular basis)
  xcoh:N      x-polarized coherent excitation of mean N
  xsup:n1,w1;n2,w2   weighted superposition of x-polarized number states
  file:path   JSON state document (kind "single" or "two")

Each command takes only the options it reads, and no option may be
abbreviated. Tables are written by relphase.table, imported by the commands
that write one (all but moments, which writes its JSON report directly).

Exit codes: 0 success, 2 usage error, 3 numerical precondition violation.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Iterable, Sequence

# Set before the first numpy import, since OpenBLAS reads it when numpy loads it
# (the package's __init__ imports no numpy). By default OpenBLAS's idle pool
# worker spins for 2**28 cycles, about 0.1 s of CPU in each short CLI run that
# barely uses the pool; at 4 it sleeps at once, and the pool keeps its threads
# for the large products. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402

from . import __version__
from .errors import RelphaseError
from .fock import (
    DEFAULT_GRID_SIZE,
    DEFAULT_KT,
    DEFAULT_TAIL_TOL,
    SingleModeState,
    TwoModeState,
    _check_tail_tol,
    angular_grid,
    make_coherent_state,
    make_number_state,
    single_to_two_mode,
    state_from_json,
)

STATE_FORMAT_VERSION = 1


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad {what} {token!r}") from None


def _finite(token: str, what: str, cast):
    """cast(token) (float or complex), refused unless finite."""
    try:
        if np.isfinite(value := cast(token)):
            return value
    except ValueError:
        pass
    raise ValueError(f"bad {what} {token!r}")


def _mean(token: str) -> float:
    """A finite, non-negative mean photon number."""
    if (value := _finite(token, "mean photon number", float)) < 0:
        raise ValueError(f"negative mean photon number {token!r}")
    return value


def parse_single_spec(text: str, n_max: int | None, tail_tol: float) -> SingleModeState:
    kind, _, rest = text.partition(":")
    if kind == "num":
        return make_number_state(_int(rest, "photon number"), n_max)
    if kind == "coh":
        return make_coherent_state(math.sqrt(_mean(rest)), n_max, tail_tol)
    if kind == "file":
        state = state_from_json(_read(rest, n_max))
        if not isinstance(state, SingleModeState):
            raise ValueError(f"{rest!r} holds a two-mode state; this command needs a single mode")
        return state
    raise ValueError(f"unknown state spec {text!r}")


def parse_pol_spec(text: str, n_max: int | None, tail_tol: float) -> TwoModeState:
    kind, _, rest = text.partition(":")
    if kind == "file":
        state = state_from_json(_read(rest, n_max))
        return single_to_two_mode(state) if isinstance(state, SingleModeState) else state
    from .polarization import XCoherent, XNumber, XSuperposition, to_circular  # x specs only
    if kind == "xnum":
        return to_circular(XNumber(_int(rest, "photon number")), n_max, tail_tol)
    if kind == "xcoh":
        return to_circular(XCoherent(_mean(rest)), n_max, tail_tol)
    if kind == "xsup":
        terms = []
        for part in rest.split(";"):
            pieces = part.split(",")
            if len(pieces) != 2:
                raise ValueError(f"bad superposition term {part!r}")
            weight = _finite(pieces[1], "weight", complex)
            terms.append((_int(pieces[0], "photon number"), weight))
        return to_circular(XSuperposition(tuple(terms)), n_max, tail_tol)
    raise ValueError(f"unknown polarization spec {text!r}")


def _read(path: str, n_max: int | None) -> str:
    if n_max is not None:  # a document declares its own truncation
        raise ValueError(f"--n-max does not apply to file:{path}, which declares its own n_max")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write text chunks atomically (temp file + rename); '-' means stdout.

    The file gets open()'s mode (0666 less the umask); errors name the path.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe fails here, inside main's error handling
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".relphase-{os.urandom(8).hex()}")
    try:  # an OSError of any step names the output, never the temp file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_table(args, header: Sequence[str], groups) -> None:
    """Stream a table of groups of rows (lead, x, y) to --out in --format."""
    from .table import table_chunks
    _write(args.out, table_chunks(header, groups, args.format))


def cmd_phase(args) -> int:
    from .phase import phase_pdf
    density = phase_pdf(parse_single_spec(args.state, args.n_max, args.tail_tol), args.k)
    _write_table(args, ("phi", "density"), [((), angular_grid(density.size), density)])
    return 0


def cmd_pb(args) -> int:
    from .pegg_barnett import kolmogorov_distance, pb_pmf
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    s_values = [_int(tok, "truncation") for tok in args.s.split(",") if tok]
    if not s_values:
        raise ValueError("need at least one truncation in --s")
    pmfs = [pb_pmf(state, s) for s in s_values]
    # the report may refuse the truncations: find out before anything is written
    distances = None if args.report is None else [kolmogorov_distance(p, state) for p in pmfs]
    groups = [((p.size - 1,), angular_grid(p.size), p) for p in pmfs]
    _write_table(args, ("s", "theta", "mass"), groups)
    if distances is not None:
        doc = [{"s": s, "distance": d} for s, d in zip(s_values, distances)]
        _write(args.report, [json.dumps(doc) + "\n"])
    return 0


def cmd_moments(args) -> int:
    from .naimark import heterodyne_moments, y_moments
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    report = {**heterodyne_moments(state), **y_moments(state)}
    _write(args.out, [json.dumps(report, sort_keys=True) + "\n"])
    return 0


def cmd_sweep(args) -> int:
    from .pom import snapshot_sweep, time_grid
    state = parse_pol_spec(args.pol, args.n_max, args.tail_tol)
    times = np.linspace(0.0, np.pi, time_grid(state, args.kt))
    slices = snapshot_sweep(state, times, args.k)
    live = [(t, pdf) for t, pdf in zip(times.tolist(), slices) if pdf is not None]
    if gaps := len(slices) - len(live):
        print(f"skipped {gaps} time(s) of vanishing conditioning probability", file=sys.stderr)
    # one grid, of the kernel's size, for every slice: the table formats its column once
    phi = angular_grid(live[0][1].size) if live else None
    _write_table(args, ("t", "phi", "density"), [((t,), phi, pdf) for t, pdf in live])
    return 0


def cmd_ellipse(args) -> int:
    from .pom import marginal_pdf
    density = marginal_pdf(parse_pol_spec(args.pol, args.n_max, args.tail_tol), args.k)
    if args.db:
        from .polarization import db_view
    header, values = (("phi", "db"), db_view(density)) if args.db else (("phi", "density"), density)
    _write_table(args, header, [((), angular_grid(density.size), values)])
    return 0


def cmd_timepdf(args) -> int:
    from .pom import absolute_time_pdf
    density = absolute_time_pdf(parse_pol_spec(args.pol, args.n_max, args.tail_tol), args.kt)
    _write_table(args, ("t", "density"), [((), angular_grid(density.size), density)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One parser per command, with only the options its cmd_* reads; no
    option may be abbreviated."""
    parser = argparse.ArgumentParser(
        prog="relphase",
        description="Quantum phase/angle measurement statistics toolkit.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (state-format {STATE_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *, pol=False, k=False, kt=False, formats=("csv", "json")):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if k:
            p.add_argument(
                "--k", type=int, default=DEFAULT_GRID_SIZE,
                help=f"angular grid size (default {DEFAULT_GRID_SIZE})",
            )
        if kt:
            p.add_argument(
                "--kt", type=int, default=None,
                help=f"time grid size; timepdf refuses fewer than j_max - j_min + 1 points, sweep "
                f"does not (display default: the larger of {DEFAULT_KT} and 4 (ceil(j_max) + 1))",
            )
        p.add_argument("--n-max", type=int, default=None, help="Fock truncation override")
        p.add_argument(
            "--tail-tol", type=float, default=DEFAULT_TAIL_TOL, help="coherent tail tolerance"
        )
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if pol:
            p.add_argument(
                "--pol", required=True, help="polarization spec (xnum:/xcoh:/xsup:/file:)"
            )
        else:
            p.add_argument("--state", required=True, help="state spec (num:/coh:/file:)")
        p.set_defaults(fn=fn)
        return p

    command("phase", cmd_phase, "continuous phase density of a single mode", k=True)
    p = command("pb", cmd_pb, "discrete phase masses and convergence distances")
    p.add_argument("--s", required=True, help="comma-separated truncations, e.g. 64,128,256")
    p.add_argument("--report", default=None, help="write convergence JSON here")
    command("moments", cmd_moments, "quadrature and cosine/sine moment report (JSON)",
            formats=("json",))
    command("sweep", cmd_sweep, "snapshot distributions over absolute times in [0, pi]",
            pol=True, k=True, kt=True)
    p = command("ellipse", cmd_ellipse, "quantum polarization ellipse (marginal distribution)",
                pol=True, k=True)
    p.add_argument("--db", action="store_true", help="emit the 60 dB-peak view")
    command("timepdf", cmd_timepdf, "absolute-time density over [-pi, pi)", pol=True, kt=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tail_tol(args.tail_tol)  # every spec, not only the coherent ones that read it
        return args.fn(args)
    except (OSError, ValueError) as exc:
        code, text = 2, str(exc)
    except (RelphaseError, MemoryError) as exc:  # the cell budget bounds arrays, not the process
        code, text = 3, str(exc) or "out of memory"
    with contextlib.suppress(OSError):  # stderr may be a closed pipe too: the code still tells
        print(f"error: {text}", file=sys.stderr)
    return code


def run() -> None:
    """The console entry: main(), then os._exit with its code once stderr is flushed
    (_write flushes stdout), skipping atexit handlers and the interpreter's teardown."""
    code = main()
    with contextlib.suppress(OSError):  # a closed pipe: main's code stands
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
