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
bytes changed and matches the numbers of the old and the new file by their
place: the key path in a JSON file, the row and column in a CSV file, the
text around them in stdout.  It prints how many of the matched numbers
changed, the largest relative change of any of them, and how many numbers
only one of the two files holds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
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
    # n = 24: the matrices and the CSV table are above cli's size switch, so
    # these cases write through the vectorized number formatter; T holds
    # roundoff-sized imaginary parts, written in exponent form
    "analyze_pseudo24": ["analyze", "{in}/pseudo24.json", "--json-out", "{json}"],
    "analyze_quasi24": ["analyze", "{in}/quasi24.json", "--json-out", "{json}"],
    "transform_quasi24": ["transform", "{in}/quasi24.json", "--json-out", "{json}"],
    "spectral_quasi24": [
        "spectral", "{in}/quasi24.json", "--samples", "16", "--seed", "5",
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


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def placed_numbers(data: bytes, suffix: str) -> dict:
    """The numbers of a recorded file keyed by their place: the key path in
    a ``json`` file, the row and column in a ``csv`` file, and in stdout the
    line with its numbers blanked and its spaces collapsed, the count of
    such lines before it and the number's place in the line."""
    text, numbers = data.decode(), {}
    if suffix == "json":
        def walk(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                walk(value, path + (key,))
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                numbers[path] = float(node)

        walk(json.loads(text), ())
    elif suffix == "csv":
        for row, record in enumerate(csv.DictReader(StringIO(text))):
            for column, value in record.items():
                try:
                    numbers[row, column] = float(value)
                except (TypeError, ValueError):  # an empty cell or a word
                    pass
    else:
        seen = Counter()
        for line in text.splitlines():
            template = " ".join(_NUMBER.sub("#", line).split())
            for place, value in enumerate(_NUMBER.findall(line)):
                numbers[template, seen[template], place] = float(value)
            seen[template] += 1
    return numbers


def _relative_change(a: float, b: float) -> float:
    if a == b or math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(b - a) / abs(a) if a and math.isfinite(a) and math.isfinite(b) else math.inf


def describe_change(old: bytes | None, new: bytes, suffix: str) -> str:
    """How ``new`` differs from ``old``: bytes, and of the numbers at the
    same place (:func:`placed_numbers`) the count that changed and the
    largest relative change; then the numbers that only one file holds."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    before, after = placed_numbers(old, suffix), placed_numbers(new, suffix)
    changes = [_relative_change(before[key], after[key]) for key in before if key in after]
    moved = [change for change in changes if change > 0.0]
    text = (
        f"changed; {len(moved)} of {len(changes)} numbers changed, "
        f"largest relative change {max(moved, default=0.0):.3g}"
    )
    dropped, added = len(before) - len(changes), len(after) - len(changes)
    return text + (f"; {dropped} numbers dropped, {added} added" if dropped or added else "")


def test_describe_change_counts_the_numbers_that_moved():
    old = b'{"a":1.5,"b":[2,-0.25],"c":"x3"}'
    assert describe_change(None, old, "json") == "new file"
    assert describe_change(old, old, "json") == "unchanged"
    new = b'{"a":1.5000000000000002,"b":[2,-0.5],"c":"x3"}'
    assert describe_change(old, new, "json") == (
        "changed; 2 of 3 numbers changed, largest relative change 1"
    )
    # a dropped key keeps the largest change of the numbers left
    assert describe_change(old, b'{"a":3,"c":"x3"}', "json") == (
        "changed; 1 of 1 numbers changed, largest relative change 1; 2 numbers dropped, 0 added"
    )
    # a new CSV column, and a stdout line that moved down
    assert describe_change(b"n,r\n1,2\n2,4\n", b"n,q,r\n1,7,2.5\n2,8,4\n", "csv") == (
        "changed; 1 of 4 numbers changed, largest relative change 0.25; 0 numbers dropped, 2 added"
    )
    assert describe_change(b"exit 0\nn=  50 r=1.0\n", b"exit 0\nnew 7\nn=  50 r=1.5\n", "out") == (
        "changed; 1 of 3 numbers changed, largest relative change 0.5; 0 numbers dropped, 1 added"
    )


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
                print(f"{case}.{suffix}: {describe_change(old, data, suffix)}")
