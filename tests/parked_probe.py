"""Timings and errors of two "Parked" candidates for the photonic time density.

    python3 tests/parked_probe.py

For xcoh:100 and xcoh:1000, on the default time grid, times today's
absolute_time_pdf and two candidates built from pom._cells, in process, best of 3:

- half grid: C on the first half of the grid, copied to the second half. A photonic
  C(t + pi) equals C(t), and the default grid has an even number of points, so
  the second half is the first shifted by pi;
- parity split: E @ a as two products, one per parity. A photonic a[j, m] is zero
  unless j and m have the same parity, so the even and odd j rows each meet only
  their own m columns.

For today's kernel and each candidate it prints the time, the largest deviation of
its density from today's, and its largest error against the 40-digit oracle
tests/oracles_mp.conditioning_probability (from the same float64 amplitudes, at the
same float times), each relative to today's largest density. The oracle takes about
0.3 s per time at xcoh:100 and 8 s at xcoh:1000, so it reads four times of xcoh:100,
today's peak and the largest deviation of a candidate from today's in each half of
the grid (the half-grid candidate copies the first half into the second), and one of
xcoh:1000, the largest deviation. The half-FFT marginal, the third parity candidate,
is not probed here. pytest does not collect this file.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import mpmath
import numpy as np

import oracles
import oracles_mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from relphase import cli, pom  # noqa: E402
from relphase.fock import angular_grid  # noqa: E402

SPECS = (("xcoh:100", 4), ("xcoh:1000", 1))  # the spec and the times its oracle reads
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


KERNELS = (("absolute_time_pdf", pom.absolute_time_pdf), ("half grid", half_grid),
           ("parity split", parity_split))


def best_of(kernel, state):
    """(the smallest of REPEATS wall times, the last result)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = kernel(state)
        times.append(time.perf_counter() - start)
    return min(times), result


def oracle_points(today, densities, count):
    """count grid indices to read against the oracle: the largest deviation of any candidate
    from today's density, and for count 4, that and today's peak in each half of the grid."""
    deviation = np.max([np.abs(density - today) for density in densities], axis=0)
    if count == 1:
        return [int(np.argmax(deviation))]
    size = today.size // 2
    return [half * size + int(np.argmax(x[half * size : (half + 1) * size]))
            for half in (0, 1) for x in (today, deviation)]


def main() -> None:
    for spec, count in SPECS:
        state = cli.parse_pol_spec(spec, None, 1e-12)
        runs = {name: best_of(kernel, state) for name, kernel in KERNELS}
        today = runs["absolute_time_pdf"][1]
        times = angular_grid(today.size)
        points = oracle_points(today, [density for _, density in runs.values()], count)
        jm = oracles.jm_map(oracles.state_dict(state))
        with mpmath.workdps(oracles_mp.DIGITS):
            exact = {i: oracles_mp.conditioning_probability(jm, float(times[i])) / (2 * mpmath.pi)
                     for i in points}
        print(f"{spec}  kt {today.size}  oracle at t = {', '.join(f'{times[i]:.4f}' for i in exact)}")
        for name, (seconds, density) in runs.items():
            deviation = np.abs(density - today).max() / today.max()
            with mpmath.workdps(oracles_mp.DIGITS):
                error = max(float(abs(mpmath.mpf(float(density[i])) - exact[i])) for i in exact)
            print(f"{spec}  {name:17}  {seconds * 1e3:8.1f} ms  max deviation {deviation:.2e}, "
                  f"max error {error / today.max():.2e} of max C")


if __name__ == "__main__":
    main()
