"""Sweep of random half-line grids: which start set certifies ``sigma(H)``,
and whether the extremes of ``sigma(G)`` are the bisection's.

Run with ``PYTHONPATH=src python tests/halfline_sweep.py`` (no arguments;
the seeds are fixed).  Every grid runs through ``samsonov_report`` with
``build_pair`` refused, and the script prints, per family of grids, how
many took start set 1, 2 or 3 of ``halfline._start_sets``, how many have a
real Robin coefficient (no start set), and every grid that raised
``ConvergenceFailure`` or gave a non-finite ``max_im_lambda_H``.  It also
compares ``halfline._metric_extremes`` with the bisection of
``dense_oracle.bisected_metric_extremes`` bit for bit, and prints the
mismatches (each grid, and their count) and the median and largest number
of O(n) secular evaluations per grid.  The families:

* ``random``: ``d, b`` in [-5, 5], ``L`` in [0.5, 100], ``n`` in [16, 1600];
* ``near-unit``: ``|1 + hc|`` within 1e-12 to 1e-1 of 1, either side, with
  ``|d|, |b| <= 5``;
* ``threshold``: ``d L`` in [0.5, 1.5], where the bound state binds, with
  ``|b|`` from 1e-4 to 5 and ``n`` in [16, 400];
* ``large``: as ``random`` with ``n`` in [2000, 8192];
* ``tiny-b``: as ``random`` with ``|b|`` from 1e-300 to 1e-6, where
  ``Im lambda`` lies far below the rounding of ``|lambda|``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from unittest import mock

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


FAMILIES = [
    ("random", 2026, 2500, _random),
    ("near-unit", 2027, 1000, _near_unit),
    ("threshold", 2028, 1000, _threshold),
    ("large", 2029, 60, lambda gen: _random(gen, 2000, 8192)),
    ("tiny-b", 2030, 500, _tiny_b),
]


def sweep(seed: int, count: int, draw) -> tuple[Counter, list, list, list]:
    gen = np.random.default_rng(seed)
    taken, bad, mismatched, evaluations = Counter(), [], [], []
    while len(evaluations) < count:
        grid = draw(gen)
        if grid is None:
            continue
        spec = HalfLineSpec(*(float(v) for v in grid[:3]), grid[3])
        extremes, calls = metric_extremes_counted(spec)
        evaluations.append(calls)
        if [v.hex() for v in extremes] != [v.hex() for v in bisected_metric_extremes(spec)]:
            mismatched.append(grid)
        try:
            (start_set,) = start_sets_taken(spec, [spec.n]) or ["real c"]
            max_im = samsonov_report(spec, [spec.n]).rows[0].max_im_lambda_H
        except ConvergenceFailure as exc:
            bad.append((grid, str(exc)))
            continue
        if not math.isfinite(max_im):
            bad.append((grid, f"max_im_lambda_H = {max_im}"))
        taken[start_set] += 1
    return taken, bad, mismatched, evaluations


def main() -> None:
    refuse = mock.patch.object(halfline, "build_pair", side_effect=AssertionError("dense"))
    with refuse:
        for name, seed, count, draw in FAMILIES:
            start = time.perf_counter()
            taken, bad, mismatched, evaluations = sweep(seed, count, draw)
            counts = ", ".join(f"set {k}: {v}" for k, v in sorted(taken.items(), key=str))
            print(f"{name} (seed {seed}): {count} grids; {counts}; failed: {len(bad)}; "
                  f"{time.perf_counter() - start:.1f} s")
            for grid, reason in bad:
                print(f"  {grid}: {reason}")
            print(f"  extremes of sigma(G): {len(mismatched)} differ from bisection; "
                  f"secular evaluations per grid: median {np.median(evaluations):g}, "
                  f"max {max(evaluations)}")
            for grid in mismatched:
                print(f"  {grid}: extremes of sigma(G) differ from bisection")


if __name__ == "__main__":
    main()
