import numpy as np
import pytest

from qherm import (
    ComplexSpectrum,
    Defective,
    DimensionMismatch,
    IllConditionedWarning,
    NotHermitian,
    Operator,
    cluster_eigenvalues,
    eig_general,
    spectral_family,
    x_family,
    x_properties,
)
from helpers import manufactured_quasi_hermitian, random_hermitian, rng

A_WORKED = np.array([[1.0, 1.0], [0.0, 2.0]])
G_WORKED = np.array([[1.0, -1.0], [-1.0, 2.0]])
X1_WORKED = np.array([[1.0, -1.0], [0.0, 0.0]])


def test_spectral_family_examples():
    ef = spectral_family(Operator(np.diag([1.0, 2.0])))
    assert np.allclose(ef.thresholds, [1.0, 2.0], atol=0)
    assert np.allclose(ef.x_projectors[0].matrix, np.diag([1.0, 0.0]), atol=0)
    assert np.allclose(ef.x_projectors[1].matrix, np.eye(2), atol=1e-15)
    assert ef.ends.tolist() == [1, 2]

    ef = spectral_family(Operator([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ef.thresholds, [-1.0, 1.0], atol=1e-14)
    assert np.abs(ef.x_projectors[0].matrix - 0.5 * np.array([[1, -1], [-1, 1]])).max() <= 1e-14

    ef = spectral_family(Operator.identity(3))
    assert len(ef.thresholds) == 1
    assert np.allclose(ef.x_projectors[0].matrix, np.eye(3), atol=0)

    with pytest.raises(NotHermitian):
        spectral_family(Operator(A_WORKED))


def test_spectral_family_structure():
    gen = rng(51)
    h = random_hermitian(gen, 12)
    ef = spectral_family(Operator(h))
    # cumulative, commuting, reconstructing
    prev = np.zeros((12, 12), dtype=complex)
    recon = np.zeros((12, 12), dtype=complex)
    for t, p in zip(ef.thresholds, ef.x_projectors):
        e = p.matrix
        assert np.linalg.norm(e @ e - e, "fro") <= 1e-12
        assert np.linalg.norm(e @ prev - prev, "fro") <= 1e-12  # E_k E_j = E_min
        recon += t * (e - prev)
        prev = e
    assert np.linalg.norm(prev - np.eye(12), "fro") <= 1e-12
    assert np.linalg.norm(recon - h, "fro") <= 1e-10 * np.linalg.norm(h, "fro")


def test_x_family_hermitian_reduces_to_spectral():
    gen = rng(52)
    h = random_hermitian(gen, 6)
    xf = x_family(Operator(h))
    ef = spectral_family(Operator(h))
    for xp, ep in zip(xf.x_projectors, ef.x_projectors):
        assert np.abs(xp.matrix - ep.matrix).max() <= 1e-12


def test_x_family_worked_oracle():
    xf = x_family(Operator(A_WORKED))
    assert np.allclose(xf.thresholds, [1.0, 2.0], atol=1e-12)
    assert np.abs(xf.x_projectors[0].matrix - X1_WORKED).max() <= 1e-12
    assert np.abs(xf.x_projectors[1].matrix - np.eye(2)).max() <= 1e-12


def test_x_family_scalar_matrix():
    xf = x_family(Operator(2.5 * np.eye(2)))
    assert len(xf.thresholds) == 1
    assert np.abs(xf.x_projectors[0].matrix - np.eye(2)).max() <= 1e-12


def test_x_family_rejects_non_quasi_hermitian():
    with pytest.raises(ComplexSpectrum):
        x_family(Operator([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(Defective):
        x_family(Operator([[1.0, 1.0], [0.0, 1.0]]))


def test_x_family_ill_conditioned_warns():
    # nearly parallel eigenvectors: the family is returned, flagged at the caller
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 2e-7]])
    with pytest.warns(IllConditionedWarning) as record:
        xf = x_family(Operator(a))
    assert record[0].filename == __file__
    assert np.abs(xf.x_projectors[1].matrix - np.eye(2)).max() <= 1e-8


def test_x_family_evaluation_convention():
    xf = x_family(Operator(A_WORKED))
    assert np.all(xf.evaluate(0.0) == 0)
    assert np.abs(xf.evaluate(1.5) - X1_WORKED).max() <= 1e-12
    assert np.abs(xf.evaluate(2.0) - np.eye(2)).max() <= 1e-12
    assert np.abs(xf.evaluate(100.0) - np.eye(2)).max() <= 1e-12


def test_x_properties_worked_oracle():
    xf = x_family(Operator(A_WORKED))
    e1 = np.array([1.0, 0.0])
    rep = x_properties(xf, Operator(A_WORKED), [(e1, e1)])
    # V = 1 <= ||G^1/2 e1|| * ||G^-1/2 e1|| = 1 * sqrt(2) for the canonical
    # metric, proportional to G_WORKED (the scale cancels)
    assert rep.total_variations[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.variation_bounds[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.variation_violations == 0
    # <A e1, e1> = 1 = 1*<X1 e1,e1> + 2*<(I - X1) e1, e1>
    assert rep.reconstruction_residuals[0] <= 1e-12
    assert rep.right_continuous
    assert rep.passed


def test_x_properties_passes_on_a_sample_in_the_kernel():
    # for an eigenvector xi of the eigenvalue 0 both <A xi, eta> and the
    # Stieltjes sum are rounding errors, the sum's of order eps rho ||xi||
    # ||eta|| times the basis condition: scaled by ||A xi|| ||eta|| alone,
    # itself a rounding error, the residual would be of order one
    gen = rng(5)
    for _ in range(20):
        s = gen.standard_normal((6, 6))
        a = (s * np.array([0.0, 0.7, 1.3, 2.0, 2.9, 3.5])) @ np.linalg.inv(s)
        xf = x_family(Operator(a))
        xi = xf.right_vectors[:, 0] + 0j
        rep = x_properties(xf, Operator(a), [(xi, gen.standard_normal(6) + 0j)])
        assert rep.passed
        assert rep.max_reconstruction_residual <= 1e-12


def test_x_properties_identity_metric():
    gen = rng(53)
    h = random_hermitian(gen, 8)
    xf = x_family(Operator(h))
    samples = [
        (
            gen.standard_normal(8) + 1j * gen.standard_normal(8),
            gen.standard_normal(8) + 1j * gen.standard_normal(8),
        )
        for _ in range(10)
    ]
    rep = x_properties(xf, Operator(h), samples)
    assert rep.passed
    assert rep.max_reconstruction_residual <= 1e-11


def test_scalar_type_decomposition_worked():
    # A = sum lam_k P_k over the thresholds and jumps of the X family
    xf = x_family(Operator(A_WORKED))
    (lam1, lam2), (p1, p2) = xf.thresholds, xf.jumps()
    assert lam1 == pytest.approx(1.0, abs=1e-12)
    assert lam2 == pytest.approx(2.0, abs=1e-12)
    assert np.abs(p1 - X1_WORKED).max() <= 1e-12
    assert np.abs(p2 - np.array([[0.0, 1.0], [0.0, 1.0]])).max() <= 1e-12
    assert np.abs(p1 + p2 - np.eye(2)).max() <= 1e-12
    assert np.abs(p1 @ p2).max() <= 1e-12
    recon = lam1 * p1 + lam2 * p2
    assert np.abs(recon - A_WORKED).max() <= 1e-12


def test_scalar_type_decomposition_scalar_input():
    xf = x_family(Operator(3.0 * np.eye(4)))
    assert len(xf.thresholds) == len(xf.jumps()) == 1
    assert xf.thresholds[0] == pytest.approx(3.0)
    assert np.allclose(xf.jumps()[0], np.eye(4), atol=1e-14)


def test_random_pairs_properties_and_idempotence():
    gen = rng(54)
    for _ in range(8):
        n = int(gen.integers(2, 32))
        a, g = manufactured_quasi_hermitian(gen, n)
        a_op = Operator(a)
        xf = x_family(a_op, 1e-8)
        jumps = xf.jumps()
        for i, p in enumerate(jumps):
            assert np.linalg.norm(p @ p - p, "fro") <= 1e-8 * max(np.linalg.norm(p, "fro"), 1)
            for j_, q in enumerate(jumps):
                if i != j_:
                    assert np.linalg.norm(p @ q, "fro") <= 1e-8
        samples = [
            (
                gen.standard_normal(n) + 1j * gen.standard_normal(n),
                gen.standard_normal(n) + 1j * gen.standard_normal(n),
            )
            for _ in range(20)
        ]
        rep = x_properties(xf, a_op, samples, 1e-8)
        assert rep.variation_violations == 0
        assert rep.max_reconstruction_residual <= 1e-8


def test_x_family_matches_oblique_projectors():
    # the dense Riesz projectors from the unscaled eigenvectors against the
    # factored family, which scales them
    gen = rng(55)
    for _ in range(5):
        n = int(gen.integers(2, 16))
        a, _ = manufactured_quasi_hermitian(gen, n)
        xf = x_family(Operator(a), 1e-8)
        es = eig_general(Operator(a), 1e-8)
        s = es.right_vectors
        s_inv = np.linalg.inv(s)
        clusters = cluster_eigenvalues(es.eigenvalues, 1e-8)
        assert len(clusters) == len(xf.thresholds)
        for k, c in enumerate(clusters):
            end = c.start + c.size
            indicator = np.zeros(n)
            indicator[:end] = 1.0
            oblique = (s * indicator) @ s_inv
            assert np.abs(oblique - xf.x_projectors[k].matrix).max() <= 1e-7


def test_thresholds_shared_with_decomposition():
    gen = rng(56)
    a, _ = manufactured_quasi_hermitian(gen, 10)
    xf = x_family(Operator(a), 1e-8)
    # one jump per threshold, and A = sum lam_k P_k
    jumps = xf.jumps()
    assert len(jumps) == len(xf.thresholds)
    recon = sum(lam * p for lam, p in zip(xf.thresholds, jumps))
    assert np.linalg.norm(recon - a, "fro") <= 1e-8 * np.linalg.norm(a, "fro")


def test_jump_projectors_preserve_rank():
    gen = rng(57)
    a, _ = manufactured_quasi_hermitian(gen, 9)
    xf = x_family(Operator(a), 1e-8)
    prev_rank = 0
    for p, rank in zip(xf.jumps(), np.cumsum([1] * len(xf.thresholds))):
        # trace of an idempotent is its rank; conjugation preserves it
        tr = np.trace(p)
        assert abs(tr.imag) <= 1e-10
        assert abs(tr.real - round(tr.real)) <= 1e-8
        assert round(tr.real) >= 1
        prev_rank += int(round(tr.real))
    assert prev_rank == 9


def test_x_properties_needs_samples():
    xf = x_family(Operator(np.eye(2)))
    with pytest.raises(ValueError):
        x_properties(xf, Operator(np.eye(2)), [])


@pytest.mark.parametrize(
    "a_dim, xi_dims, eta_dims",
    [(2, (3, 3), (3, 3)), (3, (2, 2), (3, 3)), (3, (3, 3), (3, 2))],
)
def test_x_properties_rejects_dimension_mismatch(a_dim, xi_dims, eta_dims):
    # an operator, every xi, or one eta that does not match the family
    xf = x_family(Operator(np.diag([1.0, 2.0, 3.0])))
    samples = [(np.ones(p), np.ones(q)) for p, q in zip(xi_dims, eta_dims)]
    with pytest.raises(DimensionMismatch):
        x_properties(xf, Operator(np.eye(a_dim)), samples)


def test_x_properties_keeps_its_jump_values():
    gen = rng(54)
    a, _ = manufactured_quasi_hermitian(gen, 6)
    xf = x_family(Operator(a))
    xis = gen.standard_normal((6, 3)) + 1j * gen.standard_normal((6, 3))
    etas = gen.standard_normal((6, 3)) + 1j * gen.standard_normal((6, 3))
    rep = x_properties(xf, Operator(a), list(zip(xis.T, etas.T)))
    assert np.array_equal(rep.jump_values, xf.jump_values(xis, etas))
    assert not rep.jump_values.flags.writeable


def _worked_pairs() -> np.ndarray:
    z = np.random.default_rng(0).standard_normal((4, 2, 2, 2))
    return z[:, :, 0] + 1j * z[:, :, 1]


RESIDUALS = ("endpoint_residuals", "reconstruction_residuals")


@pytest.mark.parametrize("scale", [2.0**-520, 1e-160, 1e-170, 1e160])
def test_x_properties_passes_at_any_sample_scale(scale):
    # the pair products are quadratic: near 1e-160 they are subnormal and
    # near 1e160 they overflow; the checks are decided on the pairs scaled
    # by a power of two, where neither happens
    xf = x_family(Operator(A_WORKED))
    pairs = _worked_pairs()
    rep = x_properties(xf, A_WORKED, pairs * scale)
    assert rep.passed and rep.variation_violations == 0
    for name in RESIDUALS:
        assert 0.0 < getattr(rep, name).max() <= 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("power", [-500, -300, 300, 500])
def test_x_properties_is_exact_under_power_of_two_scaling(power):
    # the residuals keep their bits; the reported values, quadratic in the
    # pair, are scaled by 2**(2 power) exactly while that stays a normal float
    xf = x_family(Operator(A_WORKED))
    pairs = _worked_pairs()
    rep = x_properties(xf, A_WORKED, pairs * 2.0**power)
    ref = x_properties(xf, A_WORKED, pairs)
    for name in RESIDUALS:
        assert np.array_equal(getattr(rep, name), getattr(ref, name))
    for name in ("total_variations", "variation_bounds"):
        assert np.array_equal(getattr(rep, name), np.ldexp(getattr(ref, name), 2 * power))
    assert np.array_equal(rep.jump_values, ref.jump_values * 2.0 ** (2 * power))


@pytest.mark.parametrize("sx, se", [(1e100, 1e-100), (1e-200, 1e200), (2.0**-600, 2.0**600)])
def test_x_properties_scales_each_vector_on_its_own(sx, se):
    # one exponent for the whole block would push eta to where its squares
    # underflow (or to 0), and the residuals would be floored or vacuous;
    # xi and eta are each scaled by their own power of two
    xf = x_family(Operator(A_WORKED))
    pairs = _worked_pairs()
    rep = x_properties(xf, A_WORKED, pairs * np.array([sx, se])[:, None])
    ref = x_properties(xf, A_WORKED, pairs)
    assert rep.passed and rep.variation_violations == 0
    for name in RESIDUALS:
        assert 0.0 < getattr(rep, name).max() <= 8 * np.finfo(np.float64).eps
    assert np.allclose(rep.jump_values, ref.jump_values * (sx * se), rtol=1e-14, atol=0.0)
    if np.frexp(sx)[0] == np.frexp(se)[0] == 0.5:  # powers of two: bit for bit
        for name in RESIDUALS + ("total_variations", "variation_bounds", "jump_values"):
            assert np.array_equal(getattr(rep, name), getattr(ref, name) * (sx * se))
