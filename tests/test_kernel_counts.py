"""How many LAPACK-backed kernels and clustering passes the pipelines run.

``qherm analyze`` diagonalizes its input once, whatever the class,
``qherm qsim`` diagonalizes each of ``A`` and ``B`` once and takes one SVD
of ``T``, ``qherm spectral`` builds its X family from one ``eig`` and one
``inv`` with no Hermitian eigensolver, no singular vectors and no metric
root (nor does ``qherm lattice`` read a root), condition numbers are
computed only where a report or warning reads them and at most once per
eigensystem, the eigensolver's clustering pass is the only one, and the
half-line refinement study calls no ``numpy.linalg`` kernel, forms no
dense matrix and, on the benchmark's inputs, certifies the spectrum of
``H`` from its first set of Newton starts and finds the extremes of the
spectrum of ``G`` in a few O(n) evaluations of its secular equation.
"""

import os
import sys

import numpy as np
import pytest

from helpers import (
    diagonalizable_real_spectrum,
    metric_extremes_counted,
    rng,
    start_sets_taken,
)
import qherm
from qherm import (
    HalfLineSpec,
    MetricOperator,
    Operator,
    adjoint,
    eig_general,
    push_eigenvectors,
    samsonov_report,
    solve_metric,
    solve_pseudo_metric,
    spectral_comparison,
    x_family,
    x_properties,
)
from qherm import halfline
from qherm.cli import main
from test_golden import run_case

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _count_calls(monkeypatch, name: str, **only) -> list[int]:
    """Count calls of ``np.linalg.<name>``; with ``only``, those passing these keywords."""
    counter = [0]
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        if all(kwargs.get(key, True) == value for key, value in only.items()):
            counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return counter


def _count_qherm_calls(monkeypatch, name: str) -> list[int]:
    """Count calls of ``qherm.<name>`` through every ``qherm.*`` namespace that binds it."""
    counter = [0]
    original = getattr(qherm, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for key, module in sorted(sys.modules.items()):
        if key == "qherm" or key.startswith("qherm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counter


@pytest.mark.parametrize(
    "name", ["hermitian", "worked", "rotation", "jordan", "unpaired", "quasi5", "pseudo4"]
)
def test_analyze_diagonalizes_once(monkeypatch, capsys, name):
    eig_calls = _count_calls(monkeypatch, "eig")
    assert main(["analyze", os.path.join(INPUTS, f"{name}.json")]) == 0
    assert eig_calls[0] == 1
    capsys.readouterr()


@pytest.mark.parametrize("name", ["analyze_quasi5", "metric_quasi5", "spectral_quasi5"])
def test_pipelines_cluster_the_spectrum_once(monkeypatch, tmp_path, name):
    passes = _count_qherm_calls(monkeypatch, "cluster_eigenvalues")
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert passes[0] == 1


@pytest.mark.parametrize("name", ["pseudo4", "rotation"])
def test_analyze_computes_one_condition_number(monkeypatch, capsys, name):
    cond_calls = _count_calls(monkeypatch, "cond")
    assert main(["analyze", os.path.join(INPUTS, f"{name}.json")]) == 0
    assert cond_calls[0] == 1
    capsys.readouterr()


def test_qsim_diagonalizes_each_operator_once(monkeypatch, tmp_path):
    eig_calls = _count_calls(monkeypatch, "eig")
    svd_calls = _count_calls(monkeypatch, "svd")
    assert run_case("qsim_worked", str(tmp_path))["out"].startswith(b"exit 0\n")
    assert (eig_calls[0], svd_calls[0]) == (2, 1)


@pytest.mark.parametrize("name", ["spectral_worked", "spectral_quasi5"])
def test_spectral_diagonalizes_once_with_no_metric(monkeypatch, tmp_path, name):
    names = ("eig", "eigh", "inv")
    counters = [_count_calls(monkeypatch, kernel) for kernel in names]
    svd_uv = _count_calls(monkeypatch, "svd", compute_uv=True)
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert {k: c[0] for k, c in zip(names, counters)} == {"eig": 1, "eigh": 0, "inv": 1}
    assert svd_uv[0] == 0


@pytest.mark.parametrize("name", ["spectral_quasi5", "lattice_metric"])
def test_spectral_and_lattice_read_no_metric_root(monkeypatch, tmp_path, name):
    def unread(self):
        raise AssertionError("a metric root was read")

    for root in ("G_half", "G_invhalf"):
        monkeypatch.setattr(MetricOperator, root, property(unread))
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")


def test_simple_spectrum_pipeline_computes_no_condition_number(monkeypatch):
    a, _ = diagonalizable_real_spectrum(rng(11), 12)
    gen = rng(12)
    samples = [
        (gen.standard_normal(12) + 0j, gen.standard_normal(12) + 0j) for _ in range(3)
    ]
    cond_calls = _count_calls(monkeypatch, "cond")
    A = Operator(a)
    solve_metric(A)
    props = x_properties(x_family(A), A, samples)
    assert props.passed
    assert cond_calls[0] == 0


def test_builders_reuse_a_passed_eigensystem(monkeypatch):
    a, _ = diagonalizable_real_spectrum(rng(13), 8)
    A = Operator(a)
    es = eig_general(A)
    es_star = eig_general(adjoint(A))
    G = solve_metric(A).canonical.G
    eig_calls = _count_calls(monkeypatch, "eig")
    solve_metric(es)
    x_family(es)
    solve_pseudo_metric(es)
    spectral_comparison(es, es_star)
    assert push_eigenvectors(es, adjoint(A), G).passed
    assert eig_calls[0] == 0


def _refuse(*args, **kwargs):
    raise AssertionError("the half-line study formed a dense matrix")


# (d, b, box, schedule, verdict): the benchmark-like and golden inputs, two
# where the floor on sigma(G) binds and H has a bound state (the second with
# sigma_min(L)^2 below the float range), and one with a bound state alone
_HALFLINE_INPUTS = [
    (-1.0, 1.0, 40.0, [100, 200, 400], True),
    (-1.0, 1.0, 20.0, [50, 100, 200], True),
    (0.0, 0.0, 40.0, [64, 128], True),
    (1.0, 0.5, 40.0, [64, 128, 2048], False),
    (5.0, 3.0, 100.0, [1000], True),
    (1.0, 1.0, 4.0, [400, 1600], False),
]


def test_samsonov_runs_no_dense_eigensolver(monkeypatch):
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name[0].isupper():
            monkeypatch.setattr(np.linalg, name, _refuse)
    monkeypatch.setattr(halfline, "build_pair", _refuse)
    for d, b, box, schedule, passed in _HALFLINE_INPUTS:
        rep = samsonov_report(HalfLineSpec(d, b, box, schedule[0]), schedule)
        assert [row.n for row in rep.rows] == schedule
        assert rep.passed is passed, (d, b, box)


# three draws from the halfline_refine workload's range, d in [-1.5, -0.5]
# and b in [0.5, 1.5], rounded as the workload rounds them
_REFINE_DRAWS = np.round(rng(10).uniform([-1.5, 0.5], [-0.5, 1.5], (3, 2)), 6).tolist()


@pytest.mark.parametrize("d, b", [(-1.0, 1.0), *_REFINE_DRAWS])
def test_samsonov_solves_the_spectrum_by_newton_alone(monkeypatch, d, b):
    names = ("eig", "eigh", "eigvals", "eigvalsh")
    counters = [_count_calls(monkeypatch, name) for name in names]
    taken = start_sets_taken(HalfLineSpec(d, b, 40.0, 100), [100, 200, 400])
    assert taken == [1, 1, 1]
    assert {name: c[0] for name, c in zip(names, counters)} == dict.fromkeys(names, 0)


_REFINE_CORNERS = [(-1.5, 0.5), (-1.5, 1.5), (-0.5, 0.5), (-0.5, 1.5)]


@pytest.mark.parametrize("d, b", [*_REFINE_CORNERS, *_REFINE_DRAWS])
def test_metric_extremes_take_few_secular_evaluations(d, b):
    # 9 per grid at the corners of the halfline_refine range and on each of
    # 600 grids drawn from it; bisection to the last bit takes about 97,
    # plain Newton steps about 19
    for n in (100, 200, 400):
        _, calls = metric_extremes_counted(HalfLineSpec(d, b, 40.0, n))
        assert calls <= 12, n
