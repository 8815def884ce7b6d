"""How many LAPACK-backed kernels and clustering passes the pipelines run.

``qherm analyze`` diagonalizes its input once, whatever the class, with
``eigh`` when it is Hermitian entry for entry and with ``eig`` else, in
real arithmetic when its imaginary parts are all zero, and takes no SVD
of the eigenvector basis of a pseudo-Hermitian input.  ``qherm qsim``
diagonalizes each of ``A`` and ``B`` once, clusters each spectrum once
(one record of ``A``, at the match tolerance, serves the push and the
match) and takes one SVD of ``T``.  ``qherm spectral`` builds its X family
from one ``eig`` and one ``inv`` with no Hermitian eigensolver, no SVD of
its basis (the bound ``||S||_F ||S^-1||_F`` rules the conditioning warning
out), no ``||A||_2`` and no metric root (nor does ``qherm lattice`` read a
root), and takes the coordinates of its samples once.  ``verify_lattice``
holds no n x n temporary.  Condition numbers are computed only where a
report or warning reads them and at most once per eigensystem, a spectrum
is clustered at most once, when a verdict of its eigensystem is first
read, and a metric read from a file not at all.  ``eig_general`` decides
defectiveness from one n x m SVD per cluster of m > 1 eigenvalues, with
no n x n SVD and no ``||A||_2``.  The half-line refinement study calls no
``numpy.linalg`` kernel, forms no dense matrix and, on the benchmark's
inputs, certifies the spectrum of ``H`` from its first set of Newton
starts and finds the extremes of the spectrum of ``G`` in a few O(n)
evaluations of its secular equation, also where ``min sigma(G)`` is below
the floor.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (
    diagonalizable_real_spectrum,
    jordan_case,
    metric_extremes_counted,
    random_pd,
    rng,
    start_sets_taken,
    well_conditioned,
)
import qherm
from qherm import (
    HalfLineSpec,
    MetricOperator,
    Operator,
    adjoint,
    eig_general,
    make_metric,
    push_eigenvectors,
    samsonov_report,
    solve_metric,
    solve_pseudo_metric,
    spectral_comparison,
    verify_lattice,
    x_family,
    x_properties,
)
from qherm import halfline
from qherm.spectralfamily import XFamily
from qherm.cli import main
from test_golden import run_case

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count calls of ``np.linalg.<name>``."""
    counter = [0]
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
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
    # an exactly Hermitian input is diagonalized by eigh, any other by eig
    eig_calls = _count_calls(monkeypatch, "eig")
    eigh_calls = _count_calls(monkeypatch, "eigh")
    assert main(["analyze", os.path.join(INPUTS, f"{name}.json")]) == 0
    assert eig_calls[0] + eigh_calls[0] == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, driver",
    [
        ("hermitian", ("eigh", np.complex128)),
        ("metric", ("eigh", np.float64)),
        ("pseudo4", ("eig", np.float64)),
        ("quasi5", ("eig", np.complex128)),
    ],
)
def test_analyze_picks_the_driver_from_the_entries(monkeypatch, capsys, name, driver):
    # Hermitian bit for bit: eigh; imaginary parts all zero: the real driver
    calls = []
    for kernel in ("eig", "eigh"):
        original = getattr(np.linalg, kernel)

        def recorded(a, *args, _kernel=kernel, _original=original, **kwargs):
            calls.append((_kernel, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, recorded)
    assert main(["analyze", os.path.join(INPUTS, f"{name}.json")]) == 0
    assert calls == [driver]
    capsys.readouterr()


@pytest.mark.parametrize("name", ["analyze_quasi5", "metric_quasi5", "spectral_quasi5"])
def test_pipelines_cluster_the_spectrum_once(monkeypatch, tmp_path, name):
    passes = _count_qherm_calls(monkeypatch, "cluster_eigenvalues")
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert passes[0] == 1


@pytest.mark.parametrize("name", ["transform_worked_metric", "lattice_metric"])
def test_metric_file_pipelines_cluster_nothing(monkeypatch, tmp_path, name):
    # make_metric reads the eigenvalues of G, never their clusters
    passes = _count_qherm_calls(monkeypatch, "cluster_eigenvalues")
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert passes[0] == 0


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


def test_qsim_clusters_each_spectrum_once(monkeypatch, tmp_path):
    # the match reads the clusters of the records; it clusters nothing itself
    passes = _count_qherm_calls(monkeypatch, "cluster_eigenvalues")
    eig_calls = _count_calls(monkeypatch, "eig")
    svd_calls = _count_calls(monkeypatch, "svd")
    assert run_case("qsim_worked", str(tmp_path))["out"].startswith(b"exit 0\n")
    assert (passes[0], eig_calls[0], svd_calls[0]) == (2, 2, 1)


def _record_norm_orders(monkeypatch) -> list:
    """The ``ord`` of every ``np.linalg.norm`` call, in call order."""
    orders, norm = [], np.linalg.norm

    def recorded(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    return orders


def _record_svd_shapes(monkeypatch) -> list:
    """The shape of every matrix passed to ``np.linalg.svd``, in call order."""
    shapes, svd = [], np.linalg.svd

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


# the only SVD is that of the 5 x 2 eigenvector block of quasi5's double
# eigenvalue, which decides defectiveness
@pytest.mark.parametrize(
    "name, svd_shapes",
    [
        pytest.param("spectral_worked", [], id="spectral_worked"),
        pytest.param("spectral_quasi5", [(5, 2)], id="spectral_quasi5"),
    ],
)
def test_spectral_diagonalizes_once_with_no_metric(monkeypatch, tmp_path, name, svd_shapes):
    # the bound ||S||_F ||S^-1||_F rules the conditioning warning out, and
    # the reconstruction residual is scaled without ||A||_2
    names = ("eig", "eigh", "inv")
    counters = [_count_calls(monkeypatch, kernel) for kernel in names]
    shapes = _record_svd_shapes(monkeypatch)
    norm_orders = _record_norm_orders(monkeypatch)
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert {k: c[0] for k, c in zip(names, counters)} == {"eig": 1, "eigh": 0, "inv": 1}
    assert shapes == svd_shapes
    assert 2 not in norm_orders


def test_analyze_takes_no_svd_of_the_pseudo_metric_basis(monkeypatch, capsys):
    svd_calls = _count_calls(monkeypatch, "svd")
    inv_calls = _count_calls(monkeypatch, "inv")
    assert main(["analyze", os.path.join(INPUTS, "pseudo4.json")]) == 0
    assert "pseudo_hermitian_indefinite" in capsys.readouterr().out
    assert (svd_calls[0], inv_calls[0]) == (0, 1)


@pytest.mark.parametrize("name", ["spectral_worked", "spectral_quasi5"])
def test_spectral_takes_the_sample_coordinates_once(monkeypatch, tmp_path, name):
    # the CSV paths are the cumulative sums of the jump values x_properties keeps
    calls = [0]
    original = XFamily._coordinates

    def counted(self, xis, etas):
        calls[0] += 1
        return original(self, xis, etas)

    monkeypatch.setattr(XFamily, "_coordinates", counted)
    assert run_case(name, str(tmp_path))["out"].startswith(b"exit 0\n")
    assert calls[0] == 1


def test_verify_lattice_forms_no_dense_matrix():
    n = 400
    gen = rng(14)
    M = make_metric(random_pd(gen, n))
    samples = [gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(8)]
    tracemalloc.start()
    try:
        verify_lattice(M, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.complex128).itemsize


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


def _clusters_of_four(n: int) -> np.ndarray:
    v = well_conditioned(rng(n), n)
    return (v * np.repeat(np.linspace(-3.0, 3.0, n // 4), 4)) @ np.linalg.inv(v)


@pytest.mark.parametrize(
    "a", [_clusters_of_four(120), jordan_case(rng(15), 40)], ids=["clusters-of-4", "jordan"]
)
def test_eig_general_takes_one_thin_svd_per_cluster(monkeypatch, a):
    svd_shapes = _record_svd_shapes(monkeypatch)
    norm_orders = _record_norm_orders(monkeypatch)
    es = eig_general(a)
    monkeypatch.undo()
    repeated = [c.size for c in es.clusters if c.size > 1]
    assert len(repeated) == (1 if es.defective else 30)
    assert svd_shapes == [(a.shape[0], m) for m in repeated]
    assert 2 not in norm_orders


def _refuse(*args, **kwargs):
    raise AssertionError("the half-line study called a dense numpy.linalg kernel")


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


def test_floor_binding_extremes_skip_the_lowest_root():
    # one evaluation at the floor replaces the ~130 that place a lowest root
    # of rounding size; the maximum still takes its few Newton steps
    (lowest, highest), calls = metric_extremes_counted(HalfLineSpec(1.0, 0.5, 40.0, 1600))
    assert lowest < halfline.FLOOR_EPSILON * highest
    assert calls <= 15
