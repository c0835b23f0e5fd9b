"""Command-line front door: build states, run the measurements, emit CSV/JSON.

State mini-language:
  num:n       number state |n>
  coh:N       coherent state of mean photon number N (alpha = sqrt(N), real)
  xnum:n      n x-polarized photons (two-mode, circular basis)
  xcoh:N      x-polarized coherent excitation of mean N
  xsup:n1,w1;n2,w2   weighted superposition of x-polarized number states
  file:path   JSON state document (kind "single" or "two")

Exit codes: 0 success, 2 usage error, 3 numerical precondition violation.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import RelphaseError
from .fock import (
    SingleModeState,
    TwoModeState,
    make_coherent_state,
    make_number_state,
    single_to_two_mode,
    state_from_json,
)
from .naimark import heterodyne_moments, y_moments
from .pegg_barnett import pb_convergence, pb_pmf
from .phase import AngularPdf, phase_pdf
from .polarization import XCoherent, XNumber, XSuperposition, db_view, to_circular
from .pom import absolute_time_pdf, check_time_grid, marginal_pdf, snapshot_sweep, time_grid_size

STATE_FORMAT_VERSION = 1
DEFAULT_KT = 256  # smallest default time grid of sweep and timepdf


class SpecError(ValueError):
    """Malformed state/polarization spec string (usage error)."""


def _mean(token: str) -> float:
    """A finite, non-negative mean photon number."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SpecError(f"bad mean photon number {token!r}")
    if value < 0:
        raise SpecError(f"negative mean photon number {token!r}")
    return value


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpecError(f"bad {what} {token!r}") from None


def _grid_size(text: str) -> int:
    """argparse type of --k and --kt: a positive integer (else exit 2 with usage)."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"grid size must be a positive integer, not {text!r}")


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
            try:
                weight = complex(pieces[1])
            except ValueError:
                weight = complex(math.nan)
            if not np.isfinite(weight):
                raise SpecError(f"bad weight {pieces[1]!r}")
            terms.append((_int(pieces[0], "photon number"), weight))
        return to_circular(XSuperposition(tuple(terms)), n_max, tail_tol)
    if kind == "file":
        state = state_from_json(_read(rest))
        if isinstance(state, SingleModeState):
            state = single_to_two_mode(state)
        return state
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


BLOCK_ROWS = 8192  # CSV rows formatted per chunk: bounds the text held at once


def _table(header: Sequence[str], rows: np.ndarray, fmt: str) -> Iterator[str]:
    """Text chunks of a table of the rows of a 2-d float array; '%.15g' is f"{x:.15g}"."""
    if fmt == "json":
        yield json.dumps({"columns": list(header), "rows": rows.tolist()}) + "\n"
        return
    yield ",".join(header) + "\n"
    line = ",".join(["%.15g"] * len(header)) + "\n"
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def cmd_phase(args) -> int:
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    pdf = phase_pdf(state, args.k)
    rows = np.column_stack([pdf.phi, pdf.density])
    _write(args.out, _table(("phi", "density"), rows, args.format))
    return 0


def cmd_pb(args) -> int:
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    s_values = [_int(tok, "truncation") for tok in args.s.split(",") if tok]
    if not s_values:
        raise SpecError("need at least one truncation in --s")
    pmfs = [pb_pmf(state, s) for s in s_values]
    # the report may refuse the truncations: find out before anything is written
    distances = None if args.report is None else pb_convergence(state, s_values)
    rows = np.column_stack([
        np.concatenate([np.full(pmf.theta.size, pmf.s) for pmf in pmfs]),
        np.concatenate([pmf.theta for pmf in pmfs]),
        np.concatenate([pmf.masses for pmf in pmfs]),
    ])
    _write(args.out, _table(("s", "theta", "mass"), rows, args.format))
    if distances is not None:
        doc = [{"s": s, "distance": d} for s, d in zip(s_values, distances)]
        _write(args.report, [json.dumps(doc) + "\n"])
    return 0


def cmd_moments(args) -> int:
    state = parse_single_spec(args.state, args.n_max, args.tail_tol)
    report = {}
    report.update(heterodyne_moments(state).as_dict())
    report.update(y_moments(state).as_dict())
    _write(args.out, [json.dumps(report, sort_keys=True) + "\n"])
    return 0


def _kt(args, state: TwoModeState) -> int:
    """--kt; by default the larger of DEFAULT_KT and the state's exact-quadrature
    size. A given --kt below that size is refused (exit 3)."""
    needed = time_grid_size(state)
    kt = max(DEFAULT_KT, needed) if args.kt is None else args.kt
    check_time_grid(kt, needed)
    return kt


def _sweep_table(live: Sequence[tuple[float, AngularPdf]], fmt: str) -> Iterator[str]:
    """Text chunks of the live (t, slice) pairs of a sweep, byte for byte _table's.

    CSV formats the phi grid once into row templates "T,<phi>,%.15g" of at
    most BLOCK_ROWS rows; each slice fills in its t with one replace and its
    densities with one % operation per template.
    """
    if fmt == "json":
        rows = np.column_stack([
            np.ravel([np.full_like(pdf.phi, t) for t, pdf in live]),
            np.ravel([pdf.phi for _, pdf in live]),
            np.ravel([pdf.density for _, pdf in live]),
        ])
        yield from _table(("t", "phi", "density"), rows, fmt)
        return
    yield "t,phi,density\n"
    if not live:
        return
    phi = live[0][1].phi
    spans = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, phi.size, BLOCK_ROWS)]
    templates = [("T,%.15g,%%.15g\n" * phi[s].size) % tuple(phi[s].tolist()) for s in spans]
    for t, pdf in live:
        t_text = "%.15g" % t
        for s, template in zip(spans, templates):
            yield template.replace("T", t_text) % tuple(pdf.density[s].tolist())


def cmd_sweep(args) -> int:
    state = parse_pol_spec(args.pol, args.n_max, args.tail_tol)
    times = np.linspace(0.0, np.pi, _kt(args, state))
    slices = snapshot_sweep(state, times, args.k)
    gaps = slices.count(None)
    if gaps:
        print(f"skipped {gaps} time(s) of vanishing conditioning probability", file=sys.stderr)
    live = [(t, pdf) for t, pdf in zip(times.tolist(), slices) if pdf is not None]
    _write(args.out, _sweep_table(live, args.format))
    return 0


def cmd_ellipse(args) -> int:
    pdf = marginal_pdf(parse_pol_spec(args.pol, args.n_max, args.tail_tol), args.k)
    header, values = (("phi", "db"), db_view(pdf)) if args.db else (("phi", "density"), pdf.density)
    _write(args.out, _table(header, np.column_stack([pdf.phi, values]), args.format))
    return 0


def cmd_timepdf(args) -> int:
    state = parse_pol_spec(args.pol, args.n_max, args.tail_tol)
    pdf = absolute_time_pdf(state, _kt(args, state))
    rows = np.column_stack([pdf.phi, pdf.density])
    _write(args.out, _table(("t", "density"), rows, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relphase",
        description="Quantum phase/angle measurement statistics toolkit.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (state-format {STATE_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pol=False):
        p.add_argument("--k", type=_grid_size, default=1024, help="angular grid size (default 1024)")
        p.add_argument(
            "--kt", type=_grid_size, default=None,
            help=f"time grid size (default: the larger of {DEFAULT_KT} and the state's "
            "exact-quadrature size)",
        )
        p.add_argument("--n-max", type=int, default=None, help="Fock truncation override")
        p.add_argument("--tail-tol", type=float, default=1e-12, help="coherent tail tolerance")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if pol:
            p.add_argument("--pol", required=True, help="polarization spec (xnum:/xcoh:/xsup:/file:)")
        else:
            p.add_argument("--state", required=True, help="state spec (num:/coh:/file:)")

    p = sub.add_parser("phase", help="continuous phase density of a single mode")
    common(p)
    p.set_defaults(fn=cmd_phase)

    p = sub.add_parser("pb", help="discrete phase masses and convergence distances")
    common(p)
    p.add_argument("--s", required=True, help="comma-separated truncations, e.g. 64,128,256")
    p.add_argument("--report", default=None, help="write convergence JSON here")
    p.set_defaults(fn=cmd_pb)

    p = sub.add_parser("moments", help="quadrature and cosine/sine moment report (JSON)")
    common(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("sweep", help="snapshot distributions over absolute times in [0, pi]")
    common(p, pol=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("ellipse", help="quantum polarization ellipse (marginal distribution)")
    common(p, pol=True)
    p.add_argument("--db", action="store_true", help="emit the 60 dB-peak view")
    p.set_defaults(fn=cmd_ellipse)

    p = sub.add_parser("timepdf", help="absolute-time density over [-pi, pi)")
    common(p, pol=True)
    p.set_defaults(fn=cmd_timepdf)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RelphaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
