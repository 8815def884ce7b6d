"""Byte-for-byte regression of the CLI on fixed inputs.

Every subcommand runs on the operator files in ``tests/golden/inputs`` and
its exit code, stdout, ``--json-out`` and ``--csv-out`` are compared with
the files recorded under ``tests/golden``.  The recorded files come from
numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64: floats are written with 17
significant digits, so another BLAS/LAPACK build can differ in the last
digits without any change in qherm.  After an intended change of output,
rewrite the cases it moves with
``PYTHONPATH=src python tests/test_golden.py NAME...`` (no names rewrites
every case).  For each file it rewrites, that command prints whether its
bytes changed, how many of its numbers changed and the largest relative
change of any of them.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest

from qherm.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

# name -> argv; "{in}" is the input directory, "{json}"/"{csv}" the outputs
CASES = {
    "analyze_hermitian": ["analyze", "{in}/hermitian.json", "--json-out", "{json}"],
    "analyze_worked": ["analyze", "{in}/worked.json", "--json-out", "{json}"],
    "analyze_quasi5": ["analyze", "{in}/quasi5.json", "--json-out", "{json}"],
    "analyze_rotation": ["analyze", "{in}/rotation.json", "--json-out", "{json}"],
    "analyze_pseudo4": ["analyze", "{in}/pseudo4.json", "--json-out", "{json}"],
    "analyze_jordan": ["analyze", "{in}/jordan.json", "--json-out", "{json}"],
    "analyze_unpaired": ["analyze", "{in}/unpaired.json", "--json-out", "{json}"],
    "metric_worked": ["metric", "{in}/worked.json", "--json-out", "{json}"],
    "metric_quasi5": ["metric", "{in}/quasi5.json", "--json-out", "{json}"],
    "transform_worked": ["transform", "{in}/worked.json", "--json-out", "{json}"],
    "transform_quasi5": ["transform", "{in}/quasi5.json", "--json-out", "{json}"],
    "transform_worked_metric": [
        "transform", "{in}/worked.json", "--metric", "{in}/metric.json", "--json-out", "{json}",
    ],
    "qsim_worked": [
        "qsim", "{in}/worked.json", "{in}/worked_adjoint.json", "{in}/metric.json",
        "--json-out", "{json}",
    ],
    "spectral_worked": [
        "spectral", "{in}/worked.json", "--samples", "3", "--seed", "1",
        "--csv-out", "{csv}", "--json-out", "{json}",
    ],
    "spectral_quasi5": [
        "spectral", "{in}/quasi5.json", "--samples", "4", "--seed", "2",
        "--csv-out", "{csv}", "--json-out", "{json}",
    ],
    "lattice_metric": [
        "lattice", "{in}/metric.json", "--samples", "5", "--seed", "3", "--json-out", "{json}",
    ],
    "samsonov_free": [
        "samsonov", "--d", "0", "--b", "0", "--L", "40", "--n", "64,128",
        "--csv-out", "{csv}", "--json-out", "{json}",
    ],
    "samsonov_robin": [
        "samsonov", "--d", "-1", "--b", "1", "--L", "20", "--n", "50,100,200",
        "--csv-out", "{csv}", "--json-out", "{json}",
    ],
    # the floor on sigma(G) binds: min_eig_G is sigma_min(L)^2, ~1e-40
    "samsonov_floor": [
        "samsonov", "--d", "1", "--b", "0.5", "--L", "40", "--n", "64,128",
        "--csv-out", "{csv}", "--json-out", "{json}",
    ],
}


def run_case(name: str, outdir: str) -> dict[str, bytes]:
    """Run one case; returns its artifacts keyed by golden file suffix."""
    paths = {"json": os.path.join(outdir, name + ".json"), "csv": os.path.join(outdir, name + ".csv")}
    argv = [a.format(**{"in": INPUTS}, **paths) for a in CASES[name]]
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    artifacts = {"out": f"exit {code}\n{out.getvalue()}".encode()}
    for suffix, path in paths.items():
        if "{" + suffix + "}" in CASES[name]:
            with open(path, "rb") as handle:
                artifacts[suffix] = handle.read()
    return artifacts


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for suffix, data in run_case(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{suffix}"), "rb") as handle:
            assert data == handle.read(), f"{name}.{suffix} differs from the recorded output"


def test_every_case_matches_golden_with_one_blas_thread():
    # the benchmark runs qherm with one BLAS thread (benchmark/run.py), so
    # every recorded case must come out the same under that setting too
    import qherm

    here = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(qherm.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([here, package_root])
    script = (
        "import os, sys, tempfile\n"
        "from test_golden import CASES, GOLDEN, run_case\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    for name in sorted(CASES):\n"
        "        for suffix, data in run_case(name, out).items():\n"
        "            with open(os.path.join(GOLDEN, f'{name}.{suffix}'), 'rb') as handle:\n"
        "                if data != handle.read():\n"
        "                    print(f'{name}.{suffix}')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "", f"differ under one BLAS thread: {done.stdout.split()}"


_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def describe_change(old: bytes | None, new: bytes) -> str:
    """How ``new`` differs from ``old``: bytes, count of changed numbers, largest relative change."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    before, after = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(before) != len(after):
        return f"changed; {len(before)} numbers before, {len(after)} after"
    moved = [(float(a), float(b)) for a, b in zip(before, after) if float(a) != float(b)]
    worst = max(
        (abs(b - a) / abs(a) if a else math.inf for a, b in moved), default=0.0
    )
    return (
        f"changed; {len(moved)} of {len(before)} numbers changed, "
        f"largest relative change {worst:.3g}"
    )



def test_describe_change_counts_the_numbers_that_moved():
    old = b'{"a":1.5,"b":[2,-0.25],"c":"x3"}'
    assert describe_change(None, old) == "new file"
    assert describe_change(old, old) == "unchanged"
    new = b'{"a":1.5000000000000002,"b":[2,-0.5],"c":"x3"}'
    assert describe_change(old, new) == (
        "changed; 2 of 4 numbers changed, largest relative change 1"
    )
    assert describe_change(old, b'{"a":1.5}') == "changed; 4 numbers before, 1 after"

if __name__ == "__main__":
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}; known: {' '.join(sorted(CASES))}")
    with tempfile.TemporaryDirectory() as scratch:
        for case in sys.argv[1:] or sorted(CASES):
            for suffix, data in run_case(case, scratch).items():
                golden = os.path.join(GOLDEN, f"{case}.{suffix}")
                old = open(golden, "rb").read() if os.path.exists(golden) else None
                with open(golden, "wb") as handle:
                    handle.write(data)
                print(f"{case}.{suffix}: {describe_change(old, data)}")
