"""Timings of two "Parked" candidates for the photonic time density, against today's kernel.

    python3 tests/parked_probe.py

For xcoh:100 and xcoh:1000, on the default time grid, times today's
absolute_time_pdf and two candidates built from pom._cells, in process, best of 3:

- half grid: C on the first half of the grid, copied to the second half. A photonic
  C(t + pi) equals C(t), and the default grid has an even number of points, so
  the second half is the first shifted by pi;
- parity split: E @ a as two products, one per parity. A photonic a[j, m] is zero
  unless j and m have the same parity, so the even and odd j rows each meet only
  their own m columns.

For each candidate it prints the time and the largest deviation of its density
from today's, relative to today's largest density. The high-precision oracle of
ROADMAP item 10 does not exist yet, so the deviations are measured against
today's float64 kernel, not against the exact C. The half-FFT marginal, the
third parity candidate, is not probed here. pytest does not collect this file.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from relphase import cli, pom  # noqa: E402
from relphase.fock import angular_grid  # noqa: E402

SPECS = ("xcoh:100", "xcoh:1000")
REPEATS = 3


def half_grid(state):
    """C on the first half of the default grid, copied to the second half."""
    j, m, v = pom._cells(state)
    ts = angular_grid(pom.time_grid(state))
    c = pom._conditioned(j, m, v, ts[: ts.size // 2])[2]
    return np.concatenate([c, c]) / (2.0 * np.pi)


def parity_split(state):
    """C on the default grid from one product per parity of j (and of m)."""
    j, m, v = pom._cells(state)
    ts = angular_grid(pom.time_grid(state))
    js, rows = np.unique(j, return_inverse=True)
    ms, cols = np.unique(m, return_inverse=True)
    a = np.zeros((js.size, ms.size), dtype=complex)
    a[rows, cols] = v
    c = np.zeros(ts.size)
    for parity in (0, 1):
        jp, mp = js % 2 == parity, ms % 2 == parity
        b = np.exp(np.outer(ts, -1j * js[jp])) @ a[np.ix_(jp, mp)]
        c += np.einsum("tm,tm->t", b.real, b.real) + np.einsum("tm,tm->t", b.imag, b.imag)
    return c / (2.0 * np.pi)


def best_of(kernel, state):
    """(the smallest of REPEATS wall times, the last result)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = kernel(state)
        times.append(time.perf_counter() - start)
    return min(times), result


def main() -> None:
    print("deviations are against today's float64 kernel: the high-precision oracle "
          "(ROADMAP item 10) is still missing")
    for spec in SPECS:
        state = cli.parse_pol_spec(spec, None, 1e-12)
        seconds, today = best_of(pom.absolute_time_pdf, state)
        print(f"{spec}  kt {today.size}  {'absolute_time_pdf':17}  {seconds * 1e3:8.1f} ms")
        for name, kernel in (("half grid", half_grid), ("parity split", parity_split)):
            seconds, density = best_of(kernel, state)
            deviation = np.abs(density - today).max() / today.max()
            print(f"{spec}  kt {density.size}  {name:17}  {seconds * 1e3:8.1f} ms  "
                  f"max deviation {deviation:.2e} of max C")


if __name__ == "__main__":
    main()
