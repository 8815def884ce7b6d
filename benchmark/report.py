"""Run every workload once and print all end-to-end metrics in one table.

Run from the root of a qherm checkout::

    python3 benchmark/report.py --seed 1            # end-to-end metrics, fail_ratio
    python3 benchmark/report.py --seed 1 --layers   # also a traced run per workload

``--layers`` adds each workload's per-layer self time and checks the shape
each workload is meant to have (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import gen
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
# the seconds behind the end-to-end metrics, printed by run.py's info line
WALL_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "ref_s": "s"}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def shape_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    v = {k: x["value"] for k, x in m.items()}
    if workload == "spectral_x":
        top = max(LAYERS, key=lambda mod: v[f"{mod}.self_s"])
        return [(f"largest self time is spectralfamily (got {top})", top == "spectralfamily")]
    if workload == "classify_mix":
        sf = sum(x for k, x in v.items() if k.startswith("spectralfamily.") and k.endswith(".calls"))
        hl = sum(x for k, x in v.items() if k.startswith("halfline.") and k.endswith(".calls"))
        ratio = v["linalg.eig.distinct_ratio"]
        return [(f"spectralfamily calls {sf:g}, halfline calls {hl:g}", sf == 0 and hl == 0),
                (f"linalg.eig.distinct_ratio {ratio:.3f} < 1", ratio < 1)]
    total = sum(v[f"{mod}.self_s"] for mod in LAYERS)
    share = (v["halfline.self_s"] + v["linalg.self_s"]) / total
    return [(f"halfline + linalg share of op time {share:.2f} > 0.5", share > 0.5)]


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()

    ok = True
    print(f"{'workload':16s} {'metric':14s} {'value':>12s} unit")
    for workload in gen.WORKLOADS:
        info, result = run(workload, args.seed, spec["run_seconds"], 0)
        ok &= result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:16s} {name:14s} {metric['value']:12.5g} {metric['unit']}")
        for name, value in info["wall_clock"].items():
            print(f"{workload:16s} {name:14s} {value:12.5g} {WALL_UNITS[name]}")
        print(f"{workload:16s} {'fail_ratio':14s} {info['fail_ratio']:12.5g} "
              f"({result['failed']}/{result['attempted']} ops, correct={result['correct']})")
    if args.layers:
        for workload in gen.WORKLOADS:
            info, result = run(workload, args.seed, spec["run_seconds"], 1)
            m = result["metrics"]
            selfs = "  ".join(f"{mod} {m[mod + '.self_s']['value']:.3f}" for mod in LAYERS)
            print(f"\n{workload}: self s/op  {selfs}")
            print(f"{workload}: tracing overhead {m['trace.overhead_share']['value']:+.1%} "
                  f"of untraced ops_per_s")
            for text, passed in shape_checks(workload, m):
                ok &= passed
                print(f"{workload}: {'PASS' if passed else 'FAIL'} {text}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
