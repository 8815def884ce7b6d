"""qherm benchmark: one workload, one seed, one measured run.

Run from the root of a qherm checkout::

    python3 benchmark/run.py --workload spectral_x --seed 1 --seconds 25 --trace 0

Set-up generates the workload's operator files from the seed (outside
the timed phase) and times ``import qherm.cli`` in fresh interpreters.
A fresh worker process (``worker.py``) then drives ``qherm.cli.main`` in
a closed loop with one client; afterwards every operation's output is
checked by the numpy oracle (``oracle.py``), and a corrupted copy of one
output per distinct operation must be caught by it.  The last line of standard
output is the result: ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics from traced
rounds (``tracing.py``) that alternate with untraced ones.  The line
before it records the environment, the sample counts, ``fail_ratio`` and
the timings in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
import oracle

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS threads for every qherm process; one thread keeps runs comparable
# on a shared two-core machine
BLAS_THREADS = "1"
SETUP_REPEATS = 11
DEADLINE_S = 170.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qherm.cli; "
    "print(time.perf_counter() - t)"
)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict) -> float:
    """Median cold start of ``import qherm.cli`` in a fresh interpreter."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def check_records(plan: dict, records: list[dict], arrays) -> tuple[int, list[str], list[str]]:
    """Verify every record; then show the oracle catches a corruption of each op."""
    failed = 0
    problems: list[str] = []
    samples: dict[tuple[str, str], tuple[dict, dict]] = {}
    for rec in records:
        op = plan["ops"][rec["k"]]
        try:
            outputs = oracle.load(op, rec["prefix"])
        except (OSError, ValueError, KeyError):
            outputs = None
        try:
            found = oracle.verify(op, rec, outputs, arrays)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            found = [f"malformed output: {exc!r}"]
        if found:
            failed += 1
            problems.append(f"{rec['prefix']} {op['kind']} {op['input']}: {'; '.join(found)}")
        else:
            samples.setdefault((op["kind"], op["input"]), (op, outputs))
    selftest = []
    for (kind, name), (op, outputs) in samples.items():
        bad = oracle.corrupt(op, outputs)
        if not oracle.verify(op, {"error": None, "exit": op["exit"], "stderr": ""}, bad, arrays):
            selftest.append(f"oracle accepted a corrupted {kind} output for {name}")
    return failed, problems, selftest


def timings(records: list[dict]) -> dict[str, float]:
    """The run's timings, in seconds and in units of the reference.

    ``op_p50_s`` is the geometric mean over the round's operations of
    each one's median time, so a mix of unequal commands cannot make it
    jump from one command to another; ``ops_per_s`` is the median over
    rounds of a round's operations over its seconds.  The ``_ref`` forms
    divide each operation's time by the reference time measured just
    before it (see ``worker.Reference``).
    """
    timed = [rec for rec in records if rec["t"] is not None]
    rounds: dict[tuple[str, int], list[dict]] = {}
    for rec in timed:
        rounds.setdefault((rec["phase"], rec["round"]), []).append(rec)

    def p50(cost) -> float:
        by_op: dict[int, list[float]] = {}
        for rec in timed:
            by_op.setdefault(rec["k"], []).append(cost(rec))
        return statistics.geometric_mean([statistics.median(v) for v in by_op.values()])

    def rate(cost) -> float:
        return statistics.median(len(recs) / sum(map(cost, recs)) for recs in rounds.values())

    def seconds(rec: dict) -> float:
        return rec["t"]

    def in_ref(rec: dict) -> float:
        return rec["t"] / rec["ref"]

    return {
        "op_p50_s": p50(seconds),
        "ops_per_s": rate(seconds),
        "ref_s": statistics.median(rec["ref"] for rec in timed),
        "op_p50_ref": p50(in_ref),
        "ops_per_ref": rate(in_ref),
    }


def end_to_end(times: dict[str, float], maxrss_kb: int, setup_s: float) -> dict[str, float]:
    return {
        "op_p50_ref": times["op_p50_ref"],
        "ops_per_ref": times["ops_per_ref"],
        "peak_mem_mb": maxrss_kb / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(records: list[dict], spans_path: str) -> dict[str, float]:
    import tracing

    plain = [r["t"] for r in records if r["phase"] == "plain" and r["t"] is not None]
    traced = [r["t"] for r in records if r["phase"] == "traced" and r["t"] is not None]
    with open(spans_path) as handle:
        spans = json.load(handle)
    out = tracing.summarize(spans, len(traced))
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    out["trace.overhead_ops_per_s"] = traced_rate - plain_rate
    out["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qherm", "cli.py")):
        print(f"error: no qherm sources under {src}; run from the root of a qherm checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    indir, outdir = os.path.join(work, "in"), os.path.join(work, "out")
    plan = gen.make_plan(args.workload, args.seed, indir)
    env = child_env(src)
    setup_s = None if args.trace else measure_setup(env)

    cfg = {
        "plan": os.path.join(indir, "plan.json"),
        "src": src,
        "indir": indir,
        "outdir": outdir,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "threads": BLAS_THREADS,
        "spans": os.path.join(work, "spans.json"),
        "result": os.path.join(work, "worker.json"),
    }
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as handle:
        json.dump(cfg, handle)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                              env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {remaining:.0f} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    with open(cfg["result"]) as handle:
        result = json.load(handle)
    records = result["records"]

    failed, problems, selftest = check_records(plan, records, oracle.load_arrays(indir))
    times = timings(records)
    if args.trace:
        values = per_layer(records, cfg["spans"])
    else:
        values = end_to_end(times, result["maxrss_kb"], setup_s)
    shutil.rmtree(indir, ignore_errors=True)
    shutil.rmtree(outdir, ignore_errors=True)

    kinds: dict[str, int] = {}
    for rec in records:
        kind = plan["ops"][rec["k"]]["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "samples": {"ops": len(records), "rounds": len({(r["phase"], r["round"]) for r in records}),
                    "by_command": kinds, "setup_imports": 0 if args.trace else SETUP_REPEATS},
        "fail_ratio": failed / len(records),
        "wall_clock": {k: times[k] for k in ("op_p50_s", "ops_per_s", "ref_s")},
        "problems": problems[:20],
        "oracle_selftest": selftest or "every corrupted output was rejected",
    }
    print(json.dumps(info))
    for line in problems + selftest:
        print(line, file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0 and not selftest,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
