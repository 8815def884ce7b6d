"""How many LAPACK-backed kernels the pipelines run.

``qherm analyze`` diagonalizes its input once, whatever the class, and
condition numbers are computed only where a report or warning reads them.
"""

import os

import numpy as np
import pytest

from helpers import diagonalizable_real_spectrum, rng
from qherm import Operator, solve_metric, x_family, x_properties
from qherm.cli import main

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _count_calls(monkeypatch, name: str) -> list[int]:
    counter = [0]
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return counter


@pytest.mark.parametrize(
    "name", ["hermitian", "worked", "rotation", "jordan", "unpaired", "quasi5", "pseudo4"]
)
def test_analyze_diagonalizes_once(monkeypatch, capsys, name):
    eig_calls = _count_calls(monkeypatch, "eig")
    assert main(["analyze", os.path.join(INPUTS, f"{name}.json")]) == 0
    assert eig_calls[0] == 1
    capsys.readouterr()


def test_simple_spectrum_pipeline_computes_no_condition_number(monkeypatch):
    a, _ = diagonalizable_real_spectrum(rng(11), 12)
    gen = rng(12)
    samples = [
        (gen.standard_normal(12) + 0j, gen.standard_normal(12) + 0j) for _ in range(3)
    ]
    cond_calls = _count_calls(monkeypatch, "cond")
    A = Operator(a)
    sol = solve_metric(A)
    props = x_properties(x_family(A, sol.canonical), A, samples)
    assert props.passed
    assert cond_calls[0] == 0
