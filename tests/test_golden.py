"""Byte-for-byte regression of the CLI on fixed inputs.

Every subcommand runs on the operator files in ``tests/golden/inputs`` and
its exit code, stdout, ``--json-out`` and ``--csv-out`` are compared with
the files recorded under ``tests/golden``.  The recorded files come from
numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64: floats are written with 17
significant digits, so another BLAS/LAPACK build can differ in the last
digits without any change in qherm.  After an intended change of output,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import os
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for suffix, data in run_case(case, scratch).items():
                with open(os.path.join(GOLDEN, f"{case}.{suffix}"), "wb") as handle:
                    handle.write(data)
