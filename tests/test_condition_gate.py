"""The conditioning warning of ``x_family`` and ``solve_pseudo_metric``.

Both builders form ``S^-1`` for the scaled eigenvector matrix ``S`` and
bound ``kappa_2(S)`` by ``||S||_F ||S^-1||_F`` from it; only where that
bound exceeds ``CONDITION_WARN_THRESHOLD`` do the singular values of ``S``
decide.  The warnings must be those of the SVD alone: one exactly when
``np.linalg.cond(S, 2)`` exceeds the threshold, with the same text.

The records are built from a drawn eigenvector matrix, since ``eig`` cannot
return a basis of condition 1e8 accurately; with no repeated eigenvalue the
builders read only the record's eigenvalues and vectors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_unitary, rng
from qherm import (
    Eigensystem,
    IllConditionedWarning,
    NotPositiveDefinite,
    Operator,
    solve_pseudo_metric,
    x_family,
)
from qherm.core import fro
from qherm.quasihermitian import CONDITION_WARN_THRESHOLD

_CONSEQUENCES = [
    (x_family, "X family is ill-conditioned"),
    (solve_pseudo_metric, "pseudo metric is nearly singular"),
]


def _record(vectors: np.ndarray, operator: np.ndarray | None = None) -> Eigensystem:
    n = vectors.shape[0]
    lam = np.arange(1.0, n + 1.0) + 0j
    v = vectors / np.linalg.norm(vectors, axis=0)
    if operator is None:
        operator = (v * lam) @ np.linalg.inv(v)
    return Eigensystem(Operator(operator), lam, v.astype(np.complex128), 1e-10)


def _vectors(seed: int, n: int, kappa: float, profile: str) -> np.ndarray:
    """``U diag(sigma) V*`` with ``sigma`` from 1 down to ``1/kappa``.

    ``graded`` spaces them geometrically, so ``||S||_F ||S^-1||_F`` is a few
    times ``kappa_2``; ``two-level`` puts half at each end, about ``n/2``
    times, so that between ``2e6/n`` and ``1e6`` the bound exceeds the
    threshold and the SVD decides.
    """
    gen = rng(seed)
    if profile == "graded":
        sigma = np.geomspace(1.0, 1.0 / kappa, n)
    else:
        sigma = np.where(np.arange(n) < n // 2, 1.0, 1.0 / kappa)
    return (random_unitary(gen, n) * sigma) @ random_unitary(gen, n).conj().T


def _expected(s: np.ndarray, consequence: str) -> list[str]:
    cond = np.linalg.cond(s, 2)
    if cond > CONDITION_WARN_THRESHOLD:
        return [f"eigenvector basis condition {cond:.3e}; {consequence}"]
    return []


def _ill_conditioned(caught: list[warnings.WarningMessage]) -> list[str]:
    # the text of each IllConditionedWarning, checked to point at this file
    flagged = [w for w in caught if w.category is IllConditionedWarning]
    assert all(w.filename == __file__ for w in flagged)
    return [str(w.message) for w in flagged]


def _warned(build, es) -> list[str]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build(es)
    return _ill_conditioned(caught)


def _no_svd(*args, **kwargs):
    raise AssertionError("an SVD was taken")


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 64),
    log_kappa=st.floats(4.0, 8.0),
    profile=st.sampled_from(["graded", "two-level"]),
)
@example(seed=0, n=32, log_kappa=5.5, profile="two-level")
@example(seed=1, n=64, log_kappa=5.9, profile="two-level")
@example(seed=2, n=2, log_kappa=6.0, profile="graded")
def test_warning_is_decided_as_by_the_svd(seed, n, log_kappa, profile):
    es = _record(_vectors(seed, n, 10.0**log_kappa, profile))
    for build, consequence in _CONSEQUENCES:
        assert _warned(build, es) == _expected(es.scaled_vectors, consequence)


def test_the_svd_decides_where_the_bound_cannot(monkeypatch):
    es = _record(_vectors(0, 32, 10.0**5.5, "two-level"))
    s = es.scaled_vectors
    assert fro(s) * fro(np.linalg.inv(s)) > CONDITION_WARN_THRESHOLD > np.linalg.cond(s, 2)
    for build, _ in _CONSEQUENCES:
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k))
        assert _warned(build, es) == []
        assert calls == [{"compute_uv": False}]
        monkeypatch.undo()


def test_a_well_conditioned_basis_takes_no_svd(monkeypatch):
    es = _record(_vectors(3, 16, 10.0, "graded"))
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    for build, _ in _CONSEQUENCES:
        assert _warned(build, es) == []


@pytest.mark.parametrize("build, consequence", _CONSEQUENCES)
def test_a_singular_basis_warns_before_the_inverse_fails(build, consequence):
    es = _record(np.ones((2, 2)), operator=np.diag([1.0, 2.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError):
            build(es)
    assert _ill_conditioned(caught) == _expected(es.scaled_vectors, consequence)
    assert len(caught) == 1


def test_an_overflowing_inverse_warns_and_the_pseudo_metric_refuses():
    # S = [[1, 1], [0, 1e-309]]: 1/1e-309 overflows, so S^-1 holds infinities;
    # each builder warns once, and no overflow warning of the condition
    # number's own division comes ahead of it
    es = _record(np.array([[1.0, 1.0], [0.0, 1e-309]]), operator=np.diag([1.0, 2.0]))
    s = es.scaled_vectors
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.inv(s)).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x_family(es)
    assert _ill_conditioned(caught) == _expected(s, "X family is ill-conditioned")
    assert len(caught) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotPositiveDefinite, match="pseudo metric entries overflow") as info:
            solve_pseudo_metric(es)
    assert _ill_conditioned(caught) == _expected(s, "pseudo metric is nearly singular")
    assert len(caught) == 1
    assert f"(eigenvector basis condition {np.linalg.cond(s, 2):.3e})" in str(info.value)
