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
    DEFAULT_TAIL_TOL,
    SingleModeState,
    TwoModeState,
    make_coherent_state,
    make_number_state,
    single_to_two_mode,
    state_from_json,
)

STATE_FORMAT_VERSION = 1


class SpecError(ValueError):
    """Malformed state/polarization spec string (usage error)."""


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpecError(f"bad {what} {token!r}") from None


def _finite(token: str, what: str, cast):
    """cast(token) (float or complex), refused unless finite."""
    try:
        if np.isfinite(value := cast(token)):
            return value
    except ValueError:
        pass
    raise SpecError(f"bad {what} {token!r}")


def _mean(token: str) -> float:
    """A finite, non-negative mean photon number."""
    if (value := _finite(token, "mean photon number", float)) < 0:
        raise SpecError(f"negative mean photon number {token!r}")
    return value


def _int_at_least(low: int, rule: str):
    """argparse type of an integer >= low; anything else exits 2 with usage and
    "<rule>, not '<text>'"."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, not {text!r}")

    return parse


_grid_size = _int_at_least(1, "grid size must be a positive integer")  # --k and --kt
_n_max = _int_at_least(0, "n_max must be a non-negative integer")


def parse_single_spec(text: str, n_max: int | None, tail_tol: float) -> SingleModeState:
    kind, _, rest = text.partition(":")
    if kind == "num":
        n = _int(rest, "photon number")
        return make_number_state(n, n_max if n_max is not None else n)
    if kind == "coh":
        return make_coherent_state(math.sqrt(_mean(rest)), n_max, tail_tol)
    if kind == "file":
        state = state_from_json(_read(rest))
        if not isinstance(state, SingleModeState):
            raise SpecError(f"{rest!r} holds a two-mode state; this command needs a single mode")
        return state
    raise SpecError(f"unknown state spec {text!r}")


def parse_pol_spec(text: str, n_max: int | None, tail_tol: float) -> TwoModeState:
    kind, _, rest = text.partition(":")
    if kind == "file":
        state = state_from_json(_read(rest))
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
                raise SpecError(f"bad superposition term {part!r}")
            weight = _finite(pieces[1], "weight", complex)
            terms.append((_int(pieces[0], "photon number"), weight))
        return to_circular(XSuperposition(tuple(terms)), n_max, tail_tol)
    raise SpecError(f"unknown polarization spec {text!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write text chunks atomically (temp file + rename); '-' or None means stdout.

    The file gets open()'s mode (0666 less the umask); errors name the path.
    """
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe fails here, inside main's error handling
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".relphase-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_table(args, header: Sequence[str], groups) -> None:
    """Stream a table of groups of rows (lead, x, y) to --out in --format."""
    from .table import table_chunks
    _write(args.out, table_chunks(header, groups, args.format))


def cmd_phase(args) -> int:
    from .phase import phase_pdf
    pdf = phase_pdf(parse_single_spec(args.state, args.n_max, args.tail_tol), args.k)
    _write_table(args, ("phi", "density"), [((), pdf.phi, pdf.density)])
    return 0


def cmd_pb(args) -> int:
    from .pegg_barnett import kolmogorov_distance, pb_pmf
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    s_values = [_int(tok, "truncation") for tok in args.s.split(",") if tok]
    if not s_values:
        raise SpecError("need at least one truncation in --s")
    pmfs = [pb_pmf(state, s) for s in s_values]
    # the report may refuse the truncations: find out before anything is written
    distances = None if args.report is None else [kolmogorov_distance(p, state) for p in pmfs]
    _write_table(args, ("s", "theta", "mass"), [((p.s,), p.theta, p.masses) for p in pmfs])
    if distances is not None:
        doc = [{"s": s, "distance": d} for s, d in zip(s_values, distances)]
        _write(args.report, [json.dumps(doc) + "\n"])
    return 0


def cmd_moments(args) -> int:
    from .naimark import heterodyne_moments, y_moments
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    report = {**heterodyne_moments(state).as_dict(), **y_moments(state).as_dict()}
    _write(args.out, [json.dumps(report, sort_keys=True) + "\n"])
    return 0


def cmd_sweep(args) -> int:
    from .pom import snapshot_sweep, time_grid
    state = parse_pol_spec(args.pol, args.n_max, args.tail_tol)
    times = np.linspace(0.0, np.pi, time_grid(state, args.kt))
    slices = snapshot_sweep(state, times, args.k)
    if gaps := slices.count(None):
        print(f"skipped {gaps} time(s) of vanishing conditioning probability", file=sys.stderr)
    live = [((t,), pdf.phi, pdf.density) for t, pdf in zip(times.tolist(), slices) if pdf is not None]
    _write_table(args, ("t", "phi", "density"), live)
    return 0


def cmd_ellipse(args) -> int:
    from .pom import marginal_pdf
    pdf = marginal_pdf(parse_pol_spec(args.pol, args.n_max, args.tail_tol), args.k)
    if args.db:
        from .polarization import db_view
    header, values = (("phi", "db"), db_view(pdf)) if args.db else (("phi", "density"), pdf.density)
    _write_table(args, header, [((), pdf.phi, values)])
    return 0


def cmd_timepdf(args) -> int:
    from .pom import absolute_time_pdf
    pdf = absolute_time_pdf(parse_pol_spec(args.pol, args.n_max, args.tail_tol), args.kt)
    _write_table(args, ("t", "density"), [((), pdf.phi, pdf.density)])
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
                "--k", type=_grid_size, default=1024, help="angular grid size (default 1024)"
            )
        if kt:
            p.add_argument(
                "--kt", type=_grid_size, default=None,
                help="time grid size (default: the larger of 256 and the state's "
                "exact-quadrature size)",
            )
        p.add_argument("--n-max", type=_n_max, default=None, help="Fock truncation override")
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
        return args.fn(args)
    except (OSError, ValueError) as exc:  # SpecError included
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
