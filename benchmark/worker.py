"""Benchmark worker: one fresh process runs one workload's closed loop.

Usage: ``python3 benchmark/worker.py CONFIG.json`` (started by
``run.py``, which sets the BLAS thread count and ``PYTHONPATH`` before
numpy loads).  A single client calls ``qherm.cli.main(argv)`` in-process,
each call starting only after the previous one returned, repeating
whole rounds of the plan's operations for the phase's seconds after one
untimed round.  With tracing on, untraced and traced rounds alternate.
The result (per-op records, peak resident set, environment) goes to the
file named in the config; spans go to their own file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _fill(argv: list[str], indir: str, prefix: str) -> list[str]:
    return [a.replace("{in}", indir).replace("{out}", prefix) for a in argv]


def _metric_file(report_path: str, out_path: str) -> None:
    """Turn the ``G`` of a ``qherm metric`` report into an operator file."""
    with open(report_path) as handle:
        g = json.load(handle)["G"]
    with open(out_path, "w") as handle:
        handle.write(json.dumps({"format": 1, "kind": "dense", "dim": g["dim"],
                                 "entries": g["entries"], "label": "G"}))


def run_op(cli, op: dict, indir: str, prefix: str, metric_prefix: str | None) -> dict:
    """One timed ``cli.main`` call; ``t`` is None when the op could not start.

    An op whose input the client cannot build (``transform`` after a
    ``metric`` that wrote no report) or that raises is a failed op, not a
    crashed run.
    """
    out = io.StringIO()
    err = io.StringIO()
    code = None
    try:
        if metric_prefix is not None:
            _metric_file(metric_prefix + ".json", prefix + ".g.json")
    except (OSError, ValueError, KeyError, TypeError):
        return {"exit": None, "t": None, "error": traceback.format_exc(limit=2), "stderr": ""}
    argv = _fill(op["argv"], indir, prefix)
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    return {"exit": code, "t": elapsed, "error": error, "stderr": err.getvalue()[-500:]}


class Reference:
    """A fixed computation that does not use qherm, timed before every operation.

    The speed of a shared machine drifts by up to a factor of two within
    minutes, and the drift moves this computation and the operation timed
    next to it alike, so dividing one by the other cancels most of it.
    It is LAPACK's ``eigvals`` of one fixed real 200 x 200 matrix, about
    30 ms.  Of the candidates measured (see README.md, "Steadiness") it
    tracked all three workloads best.
    """

    N = 200

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).standard_normal((self.N, self.N))
        # bound now, so a tracer installed later does not wrap it
        self._eigvals = np.linalg.eigvals

    def seconds(self) -> float:
        start = time.perf_counter()
        self._eigvals(self._matrix)
        return time.perf_counter() - start


def run_phase(cli, plan: dict, indir: str, outdir: str, tag: str, seconds: float,
              reference: Reference, tracer=None) -> list[dict]:
    """Run whole rounds of the plan's operations for about ``seconds``.

    Every phase measures the same mix.  Another round starts when, at the
    mean round time so far, it would end nearer to ``seconds`` than
    stopping now; at least one round runs.  The reference is timed just
    before each operation, and the operation's record carries that time
    as ``ref``.  With a tracer, every second round runs traced (phase
    ``traced``), so a drift in the machine's speed falls on the traced and
    the untraced rounds alike.
    """
    ops = plan["ops"]
    records = []
    start = time.perf_counter()
    rnd = 0
    while True:
        elapsed = time.perf_counter() - start
        if rnd and elapsed + 0.5 * elapsed / rnd > seconds:
            break
        traced = tracer is not None and rnd % 2 == 1
        phase = "traced" if traced else tag
        if traced:
            tracer.install()
        try:
            for k, op in enumerate(ops):
                prefix = os.path.join(outdir, f"{phase}-r{rnd:03d}-{k:02d}")
                mf = op.get("metric_from")
                metric_prefix = (os.path.join(outdir, f"{phase}-r{rnd:03d}-{mf:02d}")
                                 if mf is not None else None)
                if traced:
                    tracer.op = len(records)
                ref = reference.seconds()
                rec = run_op(cli, op, indir, prefix, metric_prefix)
                rec.update({"phase": phase, "round": rnd, "k": k, "prefix": prefix, "ref": ref})
                records.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        rnd += 1
    return records


def environment(threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(config_path: str) -> int:
    with open(config_path) as handle:
        cfg = json.load(handle)
    with open(cfg["plan"]) as handle:
        plan = json.load(handle)
    from qherm import cli

    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qherm imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    indir, outdir = cfg["indir"], cfg["outdir"]
    os.makedirs(outdir, exist_ok=True)

    # the first call of each op in a process runs slow: one untimed round first
    reference = Reference()
    run_phase(cli, plan, indir, outdir, "warmup", 0.0, reference)

    seconds = cfg["seconds"]
    result = {"env": environment(cfg["threads"])}
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        records = run_phase(cli, plan, indir, outdir, "plain", seconds, reference, tracer)
        tracer.dump(cfg["spans"])
    else:
        records = run_phase(cli, plan, indir, outdir, "timed", seconds, reference)
    result["records"] = records
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(cfg["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
