from dataclasses import astuple

import numpy as np
import pytest

from qherm import (
    DimensionMismatch,
    MetricOperator,
    NotPositiveDefinite,
    Operator,
    g_inner,
    lattice_norms,
    make_metric,
    verify_lattice,
)
from dense_oracle import loop_verify_lattice
from helpers import random_pd, rng

G_WORKED = np.array([[1.0, -1.0], [-1.0, 2.0]])


def test_make_metric_examples():
    m = make_metric(Operator.identity(4))
    assert m.eig_min == pytest.approx(1.0) and m.eig_max == pytest.approx(1.0)

    m = make_metric(Operator(G_WORKED))
    assert m.eig_min == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)

    with pytest.raises(NotPositiveDefinite):
        make_metric(Operator([[1, 1], [1, 1]]))


def test_metric_cached_roots():
    m = make_metric(Operator(G_WORKED))
    assert np.abs(m.G_half.matrix @ m.G_half.matrix - G_WORKED).max() <= 1e-12
    assert np.abs(m.G_half.matrix @ m.G_invhalf.matrix - np.eye(2)).max() <= 1e-12
    assert m.eig_min <= m.eig_max


def test_g_inner_examples():
    m = MetricOperator.identity(2)
    xi = np.array([1.0 + 1j, 2.0])
    eta = np.array([0.5, -1j])
    assert g_inner(m, xi, eta) == pytest.approx(np.vdot(eta, xi))

    m = make_metric(Operator(np.diag([4.0, 0.25])))
    e1 = np.array([1.0, 0.0])
    assert g_inner(m, e1, e1) == pytest.approx(4.0)

    m = make_metric(Operator(G_WORKED))
    ones = np.array([1.0, 1.0])
    assert g_inner(m, ones, ones) == pytest.approx(1.0)

    with pytest.raises(DimensionMismatch):
        g_inner(m, np.ones(3), np.ones(2))


def test_g_inner_properties():
    gen = rng(21)
    m = make_metric(Operator(random_pd(gen, 6)))
    xi = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    eta = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    zeta = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    # conjugate symmetry and linearity in the first argument
    assert g_inner(m, xi, eta) == pytest.approx(np.conj(g_inner(m, eta, xi)))
    lhs = g_inner(m, 2.5j * xi + zeta, eta)
    assert lhs == pytest.approx(2.5j * g_inner(m, xi, eta) + g_inner(m, zeta, eta))
    # equals the half-transformed plain inner product
    half = m.G_half.matrix
    assert g_inner(m, xi, eta) == pytest.approx(np.vdot(half @ eta, half @ xi))


def test_lattice_norms_diagonal_example():
    m = make_metric(Operator(np.diag([4.0, 0.25])))
    n = lattice_norms(m, np.array([1.0, 0.0]))
    expected = (1.0, 2.0, 0.5, np.sqrt(5), 1 / np.sqrt(5), np.sqrt(1.25), np.sqrt(0.8))
    assert np.allclose(astuple(n), expected, atol=1e-14)


def test_lattice_norms_identity_and_zero():
    m = MetricOperator.identity(3)
    xi = np.array([0.0, 1.0, 0.0])
    n = lattice_norms(m, xi)
    r2 = np.sqrt(2)
    assert np.allclose(astuple(n), (1, 1, 1, r2, 1 / r2, r2, 1 / r2), atol=1e-14)
    z = lattice_norms(m, np.zeros(3))
    assert all(v == 0.0 for v in astuple(z))


def test_projective_identity_exact():
    gen = rng(22)
    for _ in range(20):
        n = int(gen.integers(2, 30))
        m = make_metric(Operator(random_pd(gen, n)))
        xi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        norms = lattice_norms(m, xi)
        assert abs(norms.rg**2 - norms.plain**2 - norms.g**2) <= 1e-12 * norms.rg**2


def test_metric_norm_bounds():
    gen = rng(23)
    for _ in range(10):
        n = int(gen.integers(2, 65))
        m = make_metric(Operator(random_pd(gen, n)))
        xi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        norms = lattice_norms(m, xi)
        p2 = norms.plain**2
        assert m.eig_min * p2 <= norms.g**2 * (1 + 1e-12)
        assert norms.g**2 <= m.eig_max * p2 * (1 + 1e-12)


def test_verify_lattice_identity_metric():
    gen = rng(24)
    m = MetricOperator.identity(5)
    samples = [gen.standard_normal(5) + 1j * gen.standard_normal(5) for _ in range(6)]
    rep = verify_lattice(m, samples)
    assert rep.passed
    assert rep.max_projective_residual <= 1e-14
    assert rep.rescale_factor == pytest.approx(1.0)


def test_verify_lattice_chain_on_diagonal():
    # after rescaling by 1/4 the chain g <= plain <= g_inv holds on e1, e2
    m = make_metric(Operator(np.diag([4.0, 0.25])))
    rep = verify_lattice(m, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert rep.rescale_factor == pytest.approx(0.25)
    assert rep.chain_holds


def test_verify_lattice_unitarity_oracle():
    # <R_G e1, e1> = 2 for the worked metric, so ||R_G^1/2 e1|| = sqrt(2)
    m = make_metric(Operator(G_WORKED))
    rep = verify_lattice(m, [np.array([1.0, 0.0])])
    rg = rep.norms[3, 0]  # row 3 is field rg of LatticeNorms
    assert rg == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert rep.max_unitarity_residual <= 1e-10
    assert rep.passed


def test_verify_lattice_duality_random():
    gen = rng(25)
    for _ in range(5):
        n = int(gen.integers(2, 20))
        m = make_metric(Operator(random_pd(gen, n)))
        samples = [
            gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(4)
        ]
        rep = verify_lattice(m, samples)
        assert rep.max_duality_residual <= 1e-10
        assert rep.passed
        for slack in rep.duality_sample_slacks:
            assert slack >= 1.0 - 1e-12


def test_verify_lattice_needs_samples():
    with pytest.raises(ValueError):
        verify_lattice(MetricOperator.identity(2), [])


def test_verify_lattice_rejects_a_wrong_length_sample():
    # the bad sample comes second, after a good one has been read
    with pytest.raises(DimensionMismatch):
        verify_lattice(MetricOperator.identity(3), [np.ones(3), np.ones(2)])


def _exact_fields(rep):
    """The report fields that agree with the sample loop bit for bit, in hex."""
    rows = [rep.chain_verdicts.tolist(), (rep.duality_sample_slacks == np.inf).tolist()]
    return rows, rep.rescale_factor.hex(), rep.chain_holds


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 40])
def test_verify_lattice_is_the_sample_loop(n):
    # one zero sample among random ones; the norms come from one block
    # product over all samples where the loop takes one column at a time,
    # and the residuals and the sample slack are sums taken in another
    # order, so they agree with the loop to a few eps
    eps = np.finfo(np.float64).eps
    gen = rng(60 + n)
    for _ in range(12):
        m = make_metric(Operator(random_pd(gen, n)))
        count = int(gen.integers(1, 6))
        samples = [gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(count)]
        samples.insert(int(gen.integers(0, count + 1)), np.zeros(n))
        got, ref = verify_lattice(m, samples), loop_verify_lattice(m, samples, 1e-10)
        assert _exact_fields(got) == _exact_fields(ref)
        assert got.passed == ref.passed
        zero = got.norms[0] == 0.0
        assert np.array_equal(got.norms[:, zero], ref.norms[:, zero])
        assert not got.duality_exact_residuals[zero].any()
        assert not got.unitarity_residuals[zero].any()
        assert np.allclose(got.norms, ref.norms, rtol=8 * eps, atol=0.0)
        assert np.abs(got.projective_residuals - ref.projective_residuals).max() <= 8 * eps
        assert np.abs(got.duality_exact_residuals - ref.duality_exact_residuals).max() <= 8 * eps
        assert np.abs(got.unitarity_residuals - ref.unitarity_residuals).max() <= 8 * eps
        finite = np.isfinite(ref.duality_sample_slacks)
        assert got.duality_sample_slacks[finite] == pytest.approx(
            ref.duality_sample_slacks[finite], rel=8 * eps
        )
        assert abs(got.max_projective_residual - ref.max_projective_residual) <= 8 * eps
        assert abs(got.max_duality_residual - ref.max_duality_residual) <= 8 * eps
        assert abs(got.max_unitarity_residual - ref.max_unitarity_residual) <= 8 * eps


def _worked_samples() -> np.ndarray:
    z = np.random.default_rng(0).standard_normal((4, 2, 2))
    return z[:, 0] + 1j * z[:, 1]


RESIDUALS = ("projective_residuals", "duality_exact_residuals", "unitarity_residuals")


@pytest.mark.parametrize("scale", [2.0**-520, 1e-160, 1e-170, 1e160])
def test_verify_lattice_passes_at_any_sample_scale(scale):
    # near 1e-160 the squares of the entries lose bits to underflow, near
    # 1e-170 they all underflow to 0 and near 1e160 they overflow; the checks
    # are decided on the samples scaled by a power of two, where none does
    m = make_metric(Operator(G_WORKED))
    samples = _worked_samples()
    rep, ref = verify_lattice(m, samples * scale), verify_lattice(m, samples)
    assert rep.passed and rep.chain_holds
    for name in RESIDUALS:
        assert 0.0 < getattr(rep, name).max() <= 8 * np.finfo(np.float64).eps
    assert np.allclose(rep.norms, ref.norms * scale, rtol=1e-14, atol=0.0)
    one = lattice_norms(m, samples[0] * scale)
    assert np.allclose(astuple(one), ref.norms[:, 0] * scale, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("power", [-520, -300, 300, 500])
def test_verify_lattice_is_exact_under_power_of_two_scaling(power):
    # scaling by 2**power changes only the exponent the samples are scaled
    # back by, so every residual keeps its bits and every norm is exact
    m = make_metric(Operator(G_WORKED))
    samples = _worked_samples()
    rep, ref = verify_lattice(m, samples * 2.0**power), verify_lattice(m, samples)
    for name in RESIDUALS + ("duality_sample_slacks", "chain_verdicts"):
        assert np.array_equal(getattr(rep, name), getattr(ref, name))
    assert np.array_equal(rep.norms, np.ldexp(ref.norms, power))
    one, ref_one = lattice_norms(m, samples[1] * 2.0**power), lattice_norms(m, samples[1])
    assert astuple(one) == tuple(np.ldexp(astuple(ref_one), power))


@pytest.mark.parametrize("small, large", [(1e-150, 1e150), (1e-300, 1e300), (2.0**-500, 2.0**500)])
def test_verify_lattice_scales_each_sample_on_its_own(small, large):
    # one exponent for the whole block would push the small rows to where
    # their squares underflow, and every one of their residuals would read 0;
    # each sample is scaled by its own power of two, and the Gram ratios
    # <xi_j, xi_i> / ||xi_i||_rg do not depend on the scale of xi_i
    m = make_metric(Operator(G_WORKED))
    samples = _worked_samples()
    scales = np.array([small, large, small, large])
    rep, ref = verify_lattice(m, samples * scales[:, None]), verify_lattice(m, samples)
    assert rep.passed and rep.chain_holds
    for name in RESIDUALS:
        assert getattr(rep, name)[scales == small].max() > 0.0
        assert getattr(rep, name).max() <= 8 * np.finfo(np.float64).eps
    assert np.allclose(rep.norms, ref.norms * scales, rtol=1e-14, atol=0.0)
    if np.all(np.frexp(scales)[0] == 0.5):  # powers of two: bit for bit
        for name in RESIDUALS + ("duality_sample_slacks", "chain_verdicts"):
            assert np.array_equal(getattr(rep, name), getattr(ref, name))
        assert np.array_equal(rep.norms, ref.norms * scales)
