"""Sweep of random half-line grids: which start set certifies ``sigma(H)``,
and whether the extremes of ``sigma(G)`` are the bisection's.

Run with ``PYTHONPATH=src python tests/halfline_sweep.py`` (the seeds are
fixed).  Every grid runs through ``samsonov_report``, alone or, in the
``schedules`` family, in its schedule, and
the script prints, per family of grids, how many took start set 1, 2 or 3
of ``halfline._start_sets``, how many have a real Robin coefficient (no
start set), and every grid that raised
``ConvergenceFailure`` or gave a non-finite ``max_im_lambda_H``.  It also
compares ``halfline._metric_extremes`` with the bisection of
``dense_oracle.bisected_metric_extremes`` (the report's floor applied to
both) bit for bit, and prints the
mismatches (each grid, and their count) and the median and largest number
of O(n) secular evaluations per grid.  The families:

* ``random``: ``d, b`` in [-5, 5], ``L`` in [0.5, 100], ``n`` in [16, 1600];
* ``near-unit``: ``|1 + hc|`` within 1e-12 to 1e-1 of 1, either side, with
  ``|d|, |b| <= 5``;
* ``threshold``: ``d L`` in [0.5, 1.5], where the bound state binds, with
  ``|b|`` from 1e-4 to 5 and ``n`` in [16, 400];
* ``large``: as ``random`` with ``n`` in [2000, 8192];
* ``huge``: as ``random`` with ``n`` in [8193, 262144];
* ``tiny-b``: as ``random`` with ``|b|`` from 1e-300 to 1e-6, where
  ``Im lambda`` lies far below the rounding of ``|lambda|``;
* ``imaginary-beta``: ``1 + hc = +-i r``, so ``arg(1 + hc) = +-pi/2``,
  with ``n`` in [16, 500], ``h`` from 0.2 (``d = -1/h``, ``|d| <= 5``),
  ``|b| <= 5`` and ``r`` within 1e-12 to 1e-1 of 1 or from 0.01 up; at
  ``r = 1.1``, ``n = 30`` a root's Newton steps stay above four units in
  the last place in every start set;
* ``schedules``: as ``random`` with 2 to 4 ascending sizes in [16, 3000]
  per schedule, more than ``halfline._PASS_POINTS`` points in all, so that
  the first grids share a pass and the last runs alone.

``--record PATH`` also writes one line per grid: its family, the grid
``(d, b, L, n)`` (``(d, b, L, schedule, n)`` in ``schedules``), the start
set that certified it (or ``failed``, for each grid of a schedule that
raised) and
every field of its report row in hex.  ``--compare PATH`` prints every
grid whose line differs from the one in ``PATH``, a record written
before, and exits 1 if any does; so a change that moves a grid to
another start set or changes one bit of its row shows by name.  A line
holds ``dataclasses.astuple`` of the row, so only records of the same
``SamsonovRow`` fields compare: a record written while the row still had
its ``residual_interior`` field (one field more) differs on every grid.
A record written while ``residual_full`` came from a product of the bands
of ``H`` and ``G`` differs from one of its closed form in
``residual_full`` and ``order_estimate`` alone: on 5862 of the 7089
grids, by 3.6e-16 relative in the median and by up to 3.3e-7 where the
entries of the band product cancel, with every start set the same.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from collections import Counter

import numpy as np

from dense_oracle import bisected_metric_extremes
from helpers import metric_extremes_counted, near_unit_beta, start_sets_taken
from qherm import ConvergenceFailure, HalfLineSpec, halfline, samsonov_report


def _random(gen, n_low=16, n_high=1600):
    d, b = gen.uniform(-5.0, 5.0, 2)
    return d, b, gen.uniform(0.5, 100.0), int(gen.integers(n_low, n_high + 1))


def _near_unit(gen):
    n, box = int(gen.integers(16, 1601)), gen.uniform(0.5, 100.0)
    delta = 10.0 ** gen.uniform(-12.0, -1.0) * gen.choice([-1.0, 1.0])
    d, b = near_unit_beta(box / n, delta, gen.uniform(-1.0, 1.0))
    return (d, b, box, n) if abs(d) <= 5.0 and b != 0.0 else None


def _threshold(gen):
    d = gen.uniform(0.01, 5.0)
    box = gen.uniform(0.5, 1.5) / d
    b = 10.0 ** gen.uniform(-4.0, math.log10(5.0)) * gen.choice([-1.0, 1.0])
    return (d, b, box, int(gen.integers(16, 401))) if 0.5 <= box <= 100.0 else None


def _tiny_b(gen):
    d, _, box, n = _random(gen)
    return d, 10.0 ** gen.uniform(-300.0, -6.0) * gen.choice([-1.0, 1.0]), box, n


def _imaginary_beta(gen):
    n = int(gen.integers(16, 501))
    h = gen.uniform(0.2, 100.0 / n)
    if gen.uniform() < 0.5:
        r = 1.0 + 10.0 ** gen.uniform(-12.0, -1.0) * gen.choice([-1.0, 1.0])
    else:
        r = 10.0 ** gen.uniform(-2.0, math.log10(5.0 * h))
    b = gen.choice([-1.0, 1.0]) * r / h
    return (-1.0 / h, b, h * n, n) if abs(b) <= 5.0 else None


def _schedule(gen):
    d, b, box, _ = _random(gen)
    sizes = sorted({int(n) for n in gen.integers(16, 3001, int(gen.integers(2, 5)))})
    return (d, b, box, sizes) if len(sizes) > 1 and sum(sizes) > halfline._PASS_POINTS else None


FAMILIES = [
    ("random", 2026, 2500, _random),
    ("near-unit", 2027, 1000, _near_unit),
    ("threshold", 2028, 1000, _threshold),
    ("large", 2029, 60, lambda gen: _random(gen, 2000, 8192)),
    ("huge", 2031, 30, lambda gen: _random(gen, 8193, 262144)),
    ("tiny-b", 2030, 500, _tiny_b),
    ("imaginary-beta", 2032, 1000, _imaginary_beta),
    ("schedules", 2033, 300, _schedule),
]


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def sweep(seed: int, count: int, draw) -> tuple[Counter, list, list, list, list]:
    """Run ``count`` draws: a grid ``(d, b, L, n)`` or a schedule ``(d, b,
    L, sizes)``, reported as a whole."""
    gen = np.random.default_rng(seed)
    taken, bad, mismatched, evaluations, records = Counter(), [], [], [], []
    done = 0
    while done < count:
        grid = draw(gen)
        if grid is None:
            continue
        done += 1
        params = tuple(float(v) for v in grid[:3])
        schedule = grid[3] if isinstance(grid[3], list) else [int(grid[3])]
        spec = HalfLineSpec(*params, schedule[0])
        for n in schedule:
            extremes, calls = metric_extremes_counted(spec.with_n(n))
            evaluations.append(calls)
            if [v.hex() for v in extremes] != [v.hex() for v in bisected_metric_extremes(spec.with_n(n))]:
                mismatched.append(params + (n,))
        # a line is keyed by (d, b, L, n), or (d, b, L, schedule, n)
        prefix = params if len(schedule) == 1 else params + (tuple(schedule),)
        try:
            start_sets = start_sets_taken(spec, schedule) or ["real c"] * len(schedule)
            rows = samsonov_report(spec, schedule).rows
        except ConvergenceFailure as exc:
            bad.append((grid, str(exc)))
            records += [f"{prefix + (n,)!r}\tfailed" for n in schedule]
            continue
        for start_set, row in zip(start_sets, rows):
            records.append("\t".join([repr(prefix + (row.n,)), str(start_set),
                                       *map(_hex, dataclasses.astuple(row))]))
            if not math.isfinite(row.max_im_lambda_H):
                bad.append((grid, f"max_im_lambda_H = {row.max_im_lambda_H} at n = {row.n}"))
            taken[start_set] += 1
    return taken, bad, mismatched, evaluations, records


def differing_lines(old: list[str], new: list[str]) -> list[tuple[str, str | None, str | None]]:
    """``(family and grid, old line, new line)`` for every grid whose line
    differs between two records, ``None`` where a record lacks the grid."""
    def keyed(lines):
        return {"\t".join(line.split("\t")[:2]): line for line in lines}

    before, after = keyed(old), keyed(new)
    keys = list(before) + [key for key in after if key not in before]
    return [(key, before.get(key), after.get(key)) for key in keys
            if before.get(key) != after.get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", metavar="PATH",
                        help="write one line per grid: family, grid, start set, row in hex")
    parser.add_argument("--compare", metavar="PATH",
                        help="print every grid whose line differs from PATH's; exit 1 if any")
    args = parser.parse_args(argv)
    lines = []
    for name, seed, count, draw in FAMILIES:
        start = time.perf_counter()
        taken, bad, mismatched, evaluations, records = sweep(seed, count, draw)
        lines += [f"{name}\t{record}" for record in records]
        counts = ", ".join(f"set {k}: {v}" for k, v in sorted(taken.items(), key=str))
        print(f"{name} (seed {seed}): {count} draws, {len(evaluations)} grids; {counts}; "
              f"failed: {len(bad)}; "
              f"{time.perf_counter() - start:.1f} s")
        for grid, reason in bad:
            print(f"  {grid}: {reason}")
        print(f"  extremes of sigma(G): {len(mismatched)} differ from bisection; "
              f"secular evaluations per grid: median {np.median(evaluations):g}, "
              f"max {max(evaluations)}")
        for grid in mismatched:
            print(f"  {grid}: extremes of sigma(G) differ from bisection")
    if args.record:
        with open(args.record, "w") as handle:
            handle.writelines(line + "\n" for line in lines)
    if not args.compare:
        return 0
    with open(args.compare) as handle:
        differ = differing_lines(handle.read().splitlines(), lines)
    for key, before, after in differ:
        print(f"differs: {key}\n  was: {before}\n  now: {after}")
    print(f"{len(differ)} grids differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
