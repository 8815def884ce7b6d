"""The factored E and X families against the dense oracle, and their cost.

The X family is built from the eigenvectors of ``A`` alone; the oracle
conjugates the spectral family of ``K = G^1/2 A G^-1/2`` by a
manufactured, non-canonical metric ``G``, so agreement also shows that
``X`` does not depend on the metric.
"""

import tracemalloc

import numpy as np
import pytest

from qherm import (
    Operator,
    eig_general,
    make_metric,
    solve_metric,
    spectral_family,
    x_family,
    x_properties,
)
from dense_oracle import dense_evaluate, dense_spectral_family, dense_x_family
from helpers import (
    diagonalizable_real_spectrum,
    manufactured_quasi_hermitian,
    random_pd,
    random_unitary,
    rng,
)

N = 40
TOL = 1e-10


def _random_real_spectrum():
    a, _ = diagonalizable_real_spectrum(rng(61), N)
    return a, solve_metric(Operator(a), 1e-8).canonical


def _clustered_spectrum():
    gen = rng(62)
    lam = np.repeat([-2.0, -0.5, 0.3, 1.7, 2.2, 3.0], [5, 8, 1, 12, 4, 10])
    u = random_unitary(gen, N)
    h = (u * lam) @ u.conj().T
    m = make_metric(Operator(random_pd(gen, N, spread=6.0)))
    return m.G_invhalf.matrix @ h @ m.G_half.matrix, m


def _samples(gen, n, count):
    return [
        (
            gen.standard_normal(n) + 1j * gen.standard_normal(n),
            gen.standard_normal(n) + 1j * gen.standard_normal(n),
        )
        for _ in range(count)
    ]


def _max_diff(x, y) -> float:
    return float(np.abs(np.asarray(x) - np.asarray(y)).max())


@pytest.mark.parametrize("case", [_random_real_spectrum, _clustered_spectrum])
def test_factored_families_match_dense_oracle(case):
    a, m = case()
    xf = x_family(Operator(a))
    thresholds, members = dense_x_family(a, m.G_half.matrix, m.G_invhalf.matrix, TOL)
    # eig(A) and the oracle's eigh(K) round differently: each side is
    # probed at its own thresholds, and between and beyond them
    assert _max_diff(xf.thresholds, thresholds) <= TOL
    if case is _clustered_spectrum:
        assert len(thresholds) == 6
    mids = 0.5 * (thresholds[1:] + thresholds[:-1])
    probes = [thresholds[0] - 1.0, *thresholds, *mids, thresholds[-1] + 1.0]
    own = [thresholds[0] - 1.0, *xf.thresholds, *mids, thresholds[-1] + 1.0]
    for mine, lam in zip(own, probes, strict=True):
        assert _max_diff(xf.evaluate(float(mine)), dense_evaluate(thresholds, members, lam)) <= TOL
    assert not xf.evaluate(float(thresholds[0] - 1.0)).any()
    for got, want in zip(xf.x_projectors, members, strict=True):
        assert _max_diff(got.matrix, want) <= TOL
    prev = np.zeros_like(members[0])
    for got, want in zip(xf.jumps(), members, strict=True):
        assert _max_diff(got, want - prev) <= TOL
        prev = want

    k = m.G_half.matrix @ a @ m.G_invhalf.matrix
    ef = spectral_family(Operator(0.5 * (k + k.conj().T)))
    e_thresholds, projectors, ranks = dense_spectral_family(k, TOL)
    assert np.array_equal(ef.thresholds, e_thresholds)
    assert ef.ends.tolist() == ranks
    for got, want in zip(ef.x_projectors, projectors, strict=True):
        assert _max_diff(got.matrix, want) <= TOL
    for lam in probes:
        assert _max_diff(ef.evaluate(float(lam)), dense_evaluate(e_thresholds, projectors, lam)) <= TOL


@pytest.mark.parametrize("case", [_random_real_spectrum, _clustered_spectrum])
def test_batched_x_properties_matches_per_sample_loop(case):
    a, _ = case()
    xf = x_family(Operator(a))
    g0 = solve_metric(Operator(a)).canonical
    samples = _samples(rng(63), N, 8)
    rep = x_properties(xf, Operator(a), samples, TOL)
    a2 = np.linalg.norm(a, 2)
    rho = np.abs(xf.thresholds).max()
    jumps = xf.jumps()
    per_sample = zip(
        rep.endpoint_residuals,
        rep.total_variations,
        rep.variation_bounds,
        rep.reconstruction_residuals,
        strict=True,
    )
    for (xi, eta), row in zip(samples, per_sample, strict=True):
        got_endpoint, got_variation, got_bound, got_recon = row
        values = [np.vdot(eta, p @ xi) for p in jumps]
        scale = np.linalg.norm(xi) * np.linalg.norm(eta)
        endpoint = abs(sum(values) - np.vdot(eta, xi)) / scale
        variation = sum(abs(v) for v in values)
        bound = np.linalg.norm(g0.G_half.matrix @ xi) * np.linalg.norm(g0.G_invhalf.matrix @ eta)
        stieltjes = sum(t * v for t, v in zip(xf.thresholds, values))
        defect = abs(np.vdot(eta, a @ xi) - stieltjes)
        a_scale = max(np.linalg.norm(a @ xi), rho * np.linalg.norm(xi))
        recon = defect / (a_scale * np.linalg.norm(eta))
        assert got_endpoint == pytest.approx(endpoint, rel=1e-6, abs=1e-14)
        assert got_variation == pytest.approx(variation, rel=1e-12)
        assert got_bound == pytest.approx(bound, rel=1e-12)
        assert got_recon == pytest.approx(recon, rel=1e-6, abs=1e-14)
        # the scale is at most ||A||_2 ||xi|| ||eta||, so the check is never looser
        assert a_scale <= a2 * np.linalg.norm(xi) * (1 + 1e-12)
        assert got_variation <= got_bound * (1 + TOL)
    assert rep.variation_violations == 0
    assert rep.passed


def test_variation_verdict_is_scale_free():
    # for the canonical metric G0, eta = G0 xi attains the bound exactly:
    # every jump value <P xi, G0 xi> is real and nonnegative because
    # G0 P = P* G0
    gen = rng(64)
    a, _ = manufactured_quasi_hermitian(gen, 24)
    xf = x_family(Operator(a), 1e-8)
    g0 = solve_metric(Operator(a), 1e-8).canonical.G.matrix
    xis = [gen.standard_normal(24) + 1j * gen.standard_normal(24) for _ in range(40)]
    samples = [(xi, g0 @ xi) for xi in xis] + _samples(gen, 24, 4)
    reports = [
        x_properties(xf, Operator(a), [(s * xi, s * eta) for xi, eta in samples], 1e-8)
        for s in (1.0, 1e-8, 1e8)
    ]
    assert [r.variation_violations for r in reports] == [0, 0, 0]
    assert [r.passed for r in reports] == [True, True, True]


@pytest.mark.parametrize("case", [_random_real_spectrum, _clustered_spectrum])
def test_variation_bound_is_the_canonical_metric_bound(case):
    # ||L xi|| ||R* eta|| = ||G0^1/2 xi|| ||G0^-1/2 eta|| for G0 = c (S S*)^-1
    a, _ = case()
    es = eig_general(Operator(a))
    xf = x_family(es)
    g0 = solve_metric(es).canonical
    pairs = _samples(rng(66), N, 16)
    xis = np.array([xi for xi, _ in pairs]).T
    etas = np.array([eta for _, eta in pairs]).T
    got = np.linalg.norm(xf.left_vectors @ xis, axis=0) * np.linalg.norm(
        xf.right_vectors.conj().T @ etas, axis=0
    )
    want = np.linalg.norm(g0.G_half.matrix @ xis, axis=0) * np.linalg.norm(
        g0.G_invhalf.matrix @ etas, axis=0
    )
    assert np.abs(got / want - 1.0).max() <= 1e-12
    bounds = x_properties(xf, Operator(a), pairs, TOL).variation_bounds
    assert list(bounds) == pytest.approx(list(want), rel=1e-12)


def test_x_family_memory_is_quadratic():
    gen = rng(65)
    n = 200
    a, _ = manufactured_quasi_hermitian(gen, n)
    a_op = Operator(a)
    samples = _samples(gen, n, 8)
    tracemalloc.start()
    try:
        xf = x_family(a_op, 1e-8)
        rep = x_properties(xf, a_op, samples, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"
