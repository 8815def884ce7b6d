import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qherm import (
    DimensionMismatch,
    Eigensystem,
    NotHermitian,
    NotPositiveDefinite,
    Operator,
    SpectrumNotConjugateClosed,
    adjoint,
    cluster_eigenvalues,
    eig_general,
    eig_hermitian,
    make_metric,
    solve_metric,
)
from qherm.core import fro, herm_part, herm_residual, nearest_partner
from dense_oracle import conjugate_pairing
from helpers import random_hermitian, random_orthogonal, random_pd, random_unitary, rng

SQRT5 = np.sqrt(5.0)


def test_operator_invariants():
    with pytest.raises(DimensionMismatch):
        Operator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Operator([[np.nan, 0], [0, 1]])
    op = Operator([[1, 2], [3, 4]], "demo")
    assert op.dim == 2
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0  # frozen storage


def test_adjoint_examples():
    assert np.array_equal(
        adjoint(Operator([[0, 1], [0, 0]])).matrix, np.array([[0, 0], [1, 0]])
    )
    assert np.array_equal(
        adjoint(Operator([[1j, 0], [0, 1j]])).matrix, np.diag([-1j, -1j])
    )
    herm = Operator([[2, 1j], [-1j, 3]])
    assert np.array_equal(adjoint(herm).matrix, herm.matrix)
    a = Operator([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(adjoint(adjoint(a)).matrix, a.matrix)


def test_eig_hermitian_examples():
    es = eig_hermitian(Operator(np.diag([2.0, 1.0])))
    assert np.allclose(es.eigenvalues, [1.0, 2.0], atol=0)
    assert np.allclose(np.abs(es.right_vectors), [[0, 1], [1, 0]], atol=0)

    es = eig_hermitian(Operator([[0, 1], [1, 0]]))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)

    # trace 3, det 1 -> (3 -+ sqrt 5)/2
    es = eig_hermitian(Operator([[1, -1], [-1, 2]]))
    expected = [(3 - SQRT5) / 2, (3 + SQRT5) / 2]
    assert np.allclose(es.eigenvalues, expected, atol=1e-14)
    assert not es.defective


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 32), hermitian=st.booleans())
def test_vector_condition_of_a_normal_operator_is_at_most_sqrt_n(seed, n, hermitian):
    # U diag(lam) U* with eigenvalues at least 1 apart: the columns of S are
    # orthogonal, each of norm between 1 and sqrt(n)
    gen = rng(seed)
    lam = np.arange(n) + (0.0 if hermitian else 1j * gen.uniform(-n, n, n))
    u = random_unitary(gen, n)
    a = (u * lam) @ u.conj().T
    es = eig_general(herm_part(a) if hermitian else a)
    assert 1.0 <= es.vector_condition <= math.sqrt(n) * (1.0 + 1e-10)


@pytest.mark.filterwarnings("ignore::qherm.IllConditionedWarning")
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("log_kappa", [0.0, 3.0, 6.0])
def test_vector_condition_matches_mpmath(n, log_kappa):
    # real V of condition 10**log_kappa and eigenvalues 1..n: the record's own
    # float S against its singular values at 50 digits, where the record takes
    # kappa_2(S) itself and where it keeps the one of solve_metric's SVD
    gen = rng(10 * n + int(log_kappa))
    sigma = np.geomspace(1.0, 10.0**-log_kappa, n)
    v = (random_orthogonal(gen, n) * sigma) @ random_orthogonal(gen, n).T
    a = (v * np.arange(1.0, n + 1.0)) @ np.linalg.inv(v)
    read, kept = eig_general(a), eig_general(a)
    assert solve_metric(kept).vector_condition == kept.vector_condition
    for es in (read, kept):
        with mpmath.workdps(50):
            sv = mpmath.svd_c(mpmath.matrix(es.scaled_vectors.tolist()), compute_uv=False)
            exact = float(max(sv) / min(sv))
        assert es.vector_condition == pytest.approx(exact, rel=1e-8)
        assert 0.1 * 10.0**log_kappa <= exact


def test_eig_hermitian_repeated_eigenvalue_is_not_defective():
    u = random_unitary(rng(3), 4)
    es = eig_hermitian((u * np.array([1.0, 1.0, 1.0, 2.0])) @ u.conj().T)
    assert [c.size for c in es.clusters] == [3, 1]
    assert es.defective is False


def test_eigensystem_fields_and_verdicts_on_first_read():
    assert [f.name for f in dataclasses.fields(Eigensystem)] == [
        "operator", "eigenvalues", "right_vectors", "tol",
    ]
    w = np.array([-1j, 1j, 3.0])
    es = Eigensystem(Operator(np.diag(w)), w, np.eye(3, dtype=np.complex128), 1e-10)
    verdicts = ("clusters", "real", "defective", "conjugate_pairs")
    assert not set(verdicts) & set(vars(es))
    assert es.real.tolist() == [False, False, True]
    assert es.conjugate_pairs == ((0, 1),)
    assert [c.size for c in es.clusters] == [1, 1, 1] and es.defective is False
    # each verdict is computed once and then kept
    assert all(getattr(es, name) is getattr(es, name) for name in verdicts)
    assert set(verdicts) <= set(vars(es))


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(Operator([[0, 1], [0, 0]]))


@pytest.mark.parametrize("solver", [eig_hermitian, eig_general])
def test_eigensystem_arrays_are_read_only(solver):
    # the record keeps verdicts (clusters, real) about these very arrays
    es = solver(np.diag([1.0, 2.0]))
    for values in (es.eigenvalues, es.right_vectors, es.real):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_eig_general_examples():
    es = eig_general(Operator([[1, 1], [0, 2]]))
    assert np.allclose(es.eigenvalues, [1.0, 2.0], atol=0)
    assert not es.defective

    es = eig_general(Operator([[1, 1], [0, 1]]))
    assert np.allclose(es.eigenvalues, [1.0, 1.0], atol=0)
    assert es.defective

    es = eig_general(Operator([[0, 1], [-1, 0]]))
    by_imag = sorted(es.eigenvalues, key=lambda z: z.imag)
    assert np.allclose(by_imag, [-1j, 1j], atol=1e-14)
    assert not es.defective


def test_eig_general_unit_columns_and_residual():
    gen = rng(11)
    a = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
    es = eig_general(Operator(a))
    assert np.allclose(np.linalg.norm(es.right_vectors, axis=0), 1.0, atol=1e-13)
    resid = a @ es.right_vectors - es.right_vectors * es.eigenvalues
    assert np.abs(resid).max() <= 1e-12 * np.linalg.norm(a)


def test_sqrt_pd_examples():
    # the positive-definite square root and its inverse, G^1/2 and G^-1/2
    m = make_metric(Operator(np.diag([4.0, 0.25])))
    half, invhalf = m.G_half, m.G_invhalf
    assert np.allclose(half.matrix, np.diag([2.0, 0.5]), atol=1e-15)
    assert np.allclose(invhalf.matrix, np.diag([0.5, 2.0]), atol=1e-15)

    m = make_metric(Operator.identity(3))
    half, invhalf = m.G_half, m.G_invhalf
    assert np.allclose(half.matrix, np.eye(3), atol=0)
    assert np.allclose(invhalf.matrix, np.eye(3), atol=0)

    # Cayley-Hamilton oracle: G^2 = 3G - I, hence G^1/2 = (I + G)/sqrt(5)
    g = np.array([[1.0, -1.0], [-1.0, 2.0]])
    m = make_metric(Operator(g))
    half, invhalf = m.G_half, m.G_invhalf
    assert np.abs(half.matrix - (np.eye(2) + g) / SQRT5).max() <= 1e-14
    assert np.linalg.norm(half.matrix @ half.matrix - g, "fro") <= 1e-12
    assert np.abs(half.matrix @ invhalf.matrix - np.eye(2)).max() <= 1e-14


def test_sqrt_pd_errors():
    with pytest.raises(NotHermitian):
        make_metric(Operator([[0, 1], [0, 0]]))
    with pytest.raises(NotPositiveDefinite) as info:
        make_metric(Operator([[1, 1], [1, 1]]))
    assert abs(info.value.min_eigenvalue) <= 1e-12


def test_cluster_eigenvalues():
    values = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 5.0])
    clusters = cluster_eigenvalues(values, 1e-10)
    assert [(c.start, c.size) for c in clusters] == [(0, 2), (2, 2), (4, 1)]
    assert cluster_eigenvalues(np.array([]), 1e-10) == ()


def test_random_hermitian_invariants():
    gen = rng(5)
    for _ in range(10):
        n = int(gen.integers(2, 65))
        h = random_hermitian(gen, n)
        es = eig_hermitian(Operator(h))
        v = es.right_vectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(n), "fro") <= 1e-10
        recon = h @ v - v * es.eigenvalues
        assert np.linalg.norm(recon, "fro") <= 1e-10 * np.linalg.norm(h, "fro")


def test_random_pd_sqrt_invariants():
    gen = rng(6)
    for _ in range(10):
        n = int(gen.integers(2, 65))
        g = random_pd(gen, n)
        m = make_metric(Operator(g))
        half, invhalf = m.G_half, m.G_invhalf
        gf = np.linalg.norm(g, "fro")
        assert np.linalg.norm(half.matrix @ half.matrix - g, "fro") <= 1e-10 * gf
        comm = half.matrix @ g - g @ half.matrix
        assert (
            np.linalg.norm(comm, "fro")
            <= 1e-10 * np.linalg.norm(half.matrix, "fro") * gf
        )
        assert np.linalg.norm(half.matrix @ invhalf.matrix - np.eye(n), "fro") <= 1e-10


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d1 = max(np.min(np.abs(b[None, :] - a[:, None]), axis=1))
    d2 = max(np.min(np.abs(a[None, :] - b[:, None]), axis=1))
    return max(d1, d2)


def test_adjoint_spectrum_conjugation():
    gen = rng(7)
    for _ in range(10):
        n = int(gen.integers(2, 40))
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        w = eig_general(Operator(a)).eigenvalues
        w_adj = eig_general(adjoint(Operator(a))).eigenvalues
        assert _hausdorff(w, np.conj(w_adj)) <= 1e-8


def test_tolerance_override():
    # a slightly non-Hermitian matrix passes only with a loosened tolerance
    almost = Operator([[1.0, 1e-6], [0.0, 2.0]])
    with pytest.raises(NotHermitian):
        eig_hermitian(almost)
    es = eig_hermitian(almost, tol=1e-3)
    assert np.allclose(es.eigenvalues, [1.0, 2.0], atol=1e-5)


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1.0, 1e160, 1e200])
def test_herm_residual_at_any_scale(s):
    # squaring the entries underflows below ~1e-162 and overflows above ~1e154
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert herm_residual(s * a) == pytest.approx(herm_residual(a), rel=1e-15, abs=0)
    assert fro(s * a) == pytest.approx(s * fro(a), rel=1e-15, abs=0)


def _fro_without_subnormal_scaling(a: np.ndarray) -> float:
    # fro less its subnormal-peak branch: the bits fro keeps wherever the peak is normal
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(a, "fro"))
    if norm == 0.0 or norm == np.inf:
        peak = float(np.abs(a).max(initial=0.0))
        if 0.0 < peak < np.inf:
            return peak * float(np.linalg.norm(a / peak, "fro"))
    return norm


@pytest.mark.parametrize("seed", range(4))
def test_fro_is_unchanged_where_the_peak_is_normal(seed):
    gen = rng(seed)
    for scale in [1e-307, 1e-300, 1e-200, 1e-170, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300]:
        for shape in [(1, 1), (3, 5), (17, 17)]:
            a = scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
            for x in (a, a.real):
                if np.abs(x).max() >= np.finfo(np.float64).smallest_normal:
                    assert fro(x) == _fro_without_subnormal_scaling(x)


@pytest.mark.parametrize("peak", [5e-317, 3e-309])
def test_fro_of_a_complex_array_with_a_subnormal_peak(peak):
    # numpy's complex / real goes through 1/peak, which overflows here
    real = np.array([[peak, -peak / 3], [peak / 7, 0.0]])
    assert fro(real + 0j) == pytest.approx(fro(real), rel=0, abs=4 * math.ulp(fro(real)))
    gen = rng(3)
    z = peak * np.exp(2j * np.pi * gen.uniform(size=(4, 4))) * gen.uniform(0.5, 1.0, (4, 4))
    parts = z.view(np.float64)  # the same Frobenius norm over real numbers
    assert math.isfinite(fro(z))
    assert fro(z) == pytest.approx(fro(parts), rel=0, abs=4 * math.ulp(fro(parts)))


def test_herm_residual_is_zero_only_for_hermitian():
    assert herm_residual(np.zeros((2, 2))) == 0.0
    assert herm_residual(np.array([[1e-200, 2e-200j], [-2e-200j, 0.0]])) == 0.0
    assert herm_residual(np.array([[0.0, 1e-300], [0.0, 0.0]])) == pytest.approx(np.sqrt(2.0))


@st.composite
def _conjugation_spectra(draw) -> Eigensystem:
    """A diagonal record built from blocks: exact conjugate pairs,
    near-conjugates just inside, exactly at or just outside ``tol``, a
    conjugate with two partners at equal distance, real values, and real
    values next to a partnerless value just above the realness threshold;
    sorted as the eigensolvers sort, or in any order."""
    tol = draw(st.sampled_from([1e-10, 1e-6, 2.0**-10, 2.0**-30]))
    kinds = st.sampled_from(["pair", "near", "edge", "tie", "real", "lone"])
    values: list[complex] = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        x, y = draw(st.integers(-16, 16)) / 8, draw(st.integers(1, 16)) / 8
        z = complex(x, y)
        if kind == "pair":
            values += [z, z.conjugate()]
        elif kind == "near":
            factor = draw(st.sampled_from([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]))
            turn = draw(st.sampled_from([1, -1, 1j, -1j, None]))
            if turn is None:
                turn = cmath.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
            values += [z, z.conjugate() + factor * tol * (1.0 + abs(z)) * turn]
        elif kind == "edge":  # |z| = 5y exactly, so a dyadic tol puts dist on the bound
            z = complex(3 * y, 4 * y)
            values += [z, z.conjugate() + tol * (1.0 + abs(z))]
        elif kind == "tie":
            step = 2.0 ** draw(st.integers(-40, -4)) * draw(st.sampled_from([1, 1j]))
            values += [z.conjugate(), z + step, z - step]
        elif kind == "real":
            values.append(complex(x))
        else:
            above = draw(st.sampled_from([1.01, 1.5, 3.0])) * tol * (1.0 + abs(x))
            values += [complex(x), complex(x, above)]
    w = np.array(values, dtype=np.complex128)
    if draw(st.booleans()):
        w = w[np.lexsort((w.imag, w.real))]
    else:
        w = w[draw(st.permutations(range(w.size)))]
    return Eigensystem(Operator(np.diag(w)), w, np.eye(w.size, dtype=np.complex128), tol)


@settings(max_examples=250, deadline=None)
@given(es=_conjugation_spectra())
def test_conjugate_pairs_match_the_python_loop(es):
    try:
        expected = conjugate_pairing(es)
    except SpectrumNotConjugateClosed as exc:
        with pytest.raises(SpectrumNotConjugateClosed) as info:
            es.conjugate_pairs
        assert str(info.value) == str(exc)
    else:
        assert list(es.conjugate_pairs) == expected


def test_nearest_partner_takes_the_first_free_value_within_tolerance():
    values = np.array([0.5, -0.5, 0.5, 10.5], dtype=np.complex128)
    free = np.array([False, True, True, True])
    # 0 lies 0.5 from -0.5 and from 0.5: the first free one wins
    assert nearest_partner(values, 0.0, free, 0.6) == (1, 0.5)
    assert nearest_partner(values, 0.0, free, 0.4) == (-1, math.inf)
    # the bound tol*(1 + |target|) grows with the target
    assert nearest_partner(values, 10.0, free, 0.05) == (3, 0.5)
    assert nearest_partner(values, 10.0, free, 0.04) == (-1, math.inf)
    # no free value, or none at all, is no partner at any tolerance
    assert nearest_partner(values, 0.5, np.zeros(4, dtype=bool), math.inf) == (-1, math.inf)
    empty = np.array([], dtype=np.complex128)
    assert nearest_partner(empty, 0.5, np.array([], dtype=bool), 1.0) == (-1, math.inf)
    # distances are Python's abs of the complex difference, bit for bit
    z = complex(0.1, 0.7)
    assert nearest_partner(values, z, free, 10.0) == (2, abs(values[2] - z))

