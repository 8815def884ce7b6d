"""Seeded random matrix constructors and half-line probes shared by the
test modules."""

from __future__ import annotations

import contextlib
import math
import sys
from unittest import mock

import numpy as np

from qherm import cli, halfline, samsonov_report

# the decoders load_operator_file can run on: the stdlib one always, orjson
# where it is installed
DECODERS = ["json"] + (["orjson"] if cli._orjson_loads() else [])


@contextlib.contextmanager
def operator_decoder(name: str):
    """Load operator files with ``"orjson"`` first, as an install with the
    ``fast`` extra does, or with ``"json"`` alone, orjson made unimportable,
    while the context is open."""
    blocked = {"orjson": None} if name == "json" else {}
    saved = {module: sys.modules.pop(module) for module in blocked if module in sys.modules}
    sys.modules.update(blocked)
    cli._orjson_loads.cache_clear()
    try:
        if (cli._orjson_loads() is None) != (name == "json"):
            raise RuntimeError(f"cannot decode with {name}")
        yield
    finally:
        cli._orjson_loads.cache_clear()
        for module in blocked:
            del sys.modules[module]
        sys.modules.update(saved)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(gen: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_hermitian(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return scale * 0.5 * (z + z.conj().T)


def random_pd(gen: np.random.Generator, n: int, spread: float = 10.0) -> np.ndarray:
    """Hermitian positive definite with eigenvalues in [1/spread, spread]."""
    u = random_unitary(gen, n)
    w = np.exp(gen.uniform(-np.log(spread), np.log(spread), n))
    return (u * w) @ u.conj().T


def well_conditioned(
    gen: np.random.Generator, n: int, spread: float = 4.0, real: bool = False
) -> np.ndarray:
    """Invertible matrix with singular values in [1/spread, spread]; real if ``real``."""
    factor = random_orthogonal if real else random_unitary
    u1 = factor(gen, n)
    u2 = factor(gen, n)
    s = np.exp(gen.uniform(-np.log(spread), np.log(spread), n))
    return (u1 * s) @ u2.conj().T


def diagonalizable_real_spectrum(
    gen: np.random.Generator, n: int, lo: float = -3.0, hi: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """A = V diag(lam) V^-1 with real well-separated lam; returns (A, lam).

    ``lam`` ascends on a jittered grid of ``[lo, hi)``, as in the
    benchmark's inputs, so neighbours are at least ``(hi - lo) / (2n)``
    apart; a grid whose gaps could fall below 1e-3 raises ``ValueError``.
    """
    step = (hi - lo) / n
    if step / 2 < 1e-3:
        raise ValueError(f"{n} eigenvalues in [{lo}, {hi}) cannot all be 1e-3 apart")
    lam = lo + step * (np.arange(n) + gen.uniform(0.0, 0.5, n))
    v = well_conditioned(gen, n)
    return v @ np.diag(lam) @ np.linalg.inv(v), lam


def manufactured_quasi_hermitian(
    gen: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(A, G) with A = G^-1/2 H G^1/2 for Hermitian H, so G A = A* G."""
    g = random_pd(gen, n, spread=6.0)
    w, u = np.linalg.eigh(g)
    g_half = (u * np.sqrt(w)) @ u.conj().T
    g_invhalf = (u / np.sqrt(w)) @ u.conj().T
    h = random_hermitian(gen, n)
    return g_invhalf @ h @ g_half, g


def jordan_case(gen: np.random.Generator, n: int) -> np.ndarray:
    """Exactly triangular matrix with a genuine Jordan block.

    Triangular structure keeps LAPACK's eigenvalues exact, so the
    defectiveness verdict is robust.
    """
    block = int(gen.integers(2, min(4, n) + 1))
    lam = float(gen.integers(-3, 4))
    a = np.diag(np.arange(n, dtype=np.complex128) * 2.0 + 5.0)
    a[:block, :block] = lam * np.eye(block) + np.diag(np.ones(block - 1), 1)
    return a


def start_sets_taken(spec, schedule: list[int]) -> list[int]:
    """For each grid of ``samsonov_report(spec, schedule)`` with a complex
    Robin coefficient, the start set (1, 2 or 3, numbered as in
    ``halfline._start_sets``) whose roots gave ``max_im_lambda_H``: the last
    one of its grid size that passed ``halfline._certified``, as the report
    certifies each grid's sets in order, stops at the first that has
    converged and passes, and certifies no set at the last-step bound of
    ``halfline._newton`` after the first that passes."""
    drawn, taken = {}, {}
    start_sets, certified = halfline._start_sets, halfline._certified

    def labelled(n, hc):
        for k, (bound, starts) in enumerate(start_sets(n, hc)):
            drawn[n] = 1 if k == 0 else 2 if bound.size else 3
            yield bound, starts

    def recorded(roots, grid):
        passed = certified(roots, grid)
        if passed:
            taken[grid.n] = drawn[grid.n]
        return passed

    with mock.patch.multiple(halfline, _start_sets=labelled, _certified=recorded):
        samsonov_report(spec, schedule)
    return [taken[n] for n in drawn]


def metric_extremes_counted(grid) -> tuple[tuple[float, float], int]:
    """``halfline._metric_extremes(grid)`` and the number of O(n)
    evaluations of the secular equation of ``G`` it took."""
    calls = []
    secular = halfline._secular

    def counted(*args):
        calls.append(None)
        return secular(*args)

    with mock.patch.object(halfline, "_secular", counted):
        extremes = halfline._metric_extremes(grid)
    return extremes, len(calls)


def near_unit_beta(h: float, delta: float, t: float) -> tuple[float, float]:
    """``(d, b)`` with ``|1 + h (d + ib)| = 1 + delta`` and ``|b| <= 5``.

    ``1 + hc = (1 + delta) e^(i psi)`` with ``psi = t asin(min(1, 5h/(1 + delta)))``
    for ``t`` in ``[-1, 1]``; ``|d|`` may still exceed 5.
    """
    psi = t * math.asin(min(1.0, 5.0 * h / (1.0 + delta)))
    return ((1.0 + delta) * math.cos(psi) - 1.0) / h, (1.0 + delta) * math.sin(psi) / h


def block_sigma_mins(es) -> list[float]:
    """``sigma_min(V_c)`` of each cluster of size > 1 of an ``Eigensystem``:
    the smallest singular value of the cluster's block of unit eigenvectors,
    the number ``core.eig_general`` compares with ``sqrt(tol)``."""
    return [
        float(np.linalg.svd(es.right_vectors[:, c.start : c.start + c.size], compute_uv=False)[-1])
        for c in es.clusters
        if c.size > 1
    ]
