import numpy as np
import pytest

from qherm import (
    ComplexSpectrum,
    Defective,
    DimensionMismatch,
    IllConditionedWarning,
    MetricOperator,
    NotHermitian,
    NotInvolution,
    NotPositiveDefinite,
    NotQuasiHermitian,
    Operator,
    SpectrumNotConjugateClosed,
    adjoint,
    eig_general,
    krein_check,
    make_metric,
    minimal_b0,
    quasi_hermiticity_residual,
    quasi_sa_transform,
    sharp_adjoint,
    solve_metric,
    solve_pseudo_metric,
    x_family,
)
from dense_oracle import dense_swap_pseudo_metric
from helpers import (
    diagonalizable_real_spectrum,
    jordan_case,
    manufactured_quasi_hermitian,
    random_hermitian,
    random_unitary,
    rng,
    well_conditioned,
)

A_WORKED = np.array([[1.0, 1.0], [0.0, 2.0]])
G_WORKED = np.array([[1.0, -1.0], [-1.0, 2.0]])


def test_residual_examples():
    h = Operator([[2, 1j], [-1j, 3]])
    assert quasi_hermiticity_residual(h, Operator.identity(2)) <= 1e-15

    assert quasi_hermiticity_residual(Operator(A_WORKED), Operator(G_WORKED)) <= 1e-15
    ga = G_WORKED @ A_WORKED
    assert np.array_equal(ga, np.array([[1.0, -1.0], [-1.0, 3.0]]))
    assert np.array_equal(ga, (G_WORKED @ A_WORKED).conj().T)

    assert quasi_hermiticity_residual(Operator(A_WORKED), Operator.identity(2)) > 0.1


def test_solve_metric_worked_oracle():
    es = eig_general(Operator(A_WORKED))
    sol = solve_metric(es)
    assert sol.scale == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-14)
    g_unscaled = sol.canonical.G.matrix / sol.scale
    assert np.abs(g_unscaled - G_WORKED).max() <= 1e-12
    assert sol.residual <= 1e-12
    assert sol.canonical.eig_min > 0
    assert sol.canonical.eig_max == pytest.approx(1.0, abs=1e-14)
    # invariant: canonical G = scale * (S S*)^-1
    s = es.scaled_vectors
    rebuilt = sol.scale * np.linalg.inv(s @ s.conj().T)
    assert np.abs(rebuilt - sol.canonical.G.matrix).max() <= 1e-12
    assert [(c.start, c.size) for c in sol.freedom] == [(0, 1), (1, 1)]


def test_solve_metric_hermitian_input():
    gen = rng(31)
    h = random_hermitian(gen, 6)
    sol = solve_metric(Operator(h))
    assert sol.residual <= 1e-11
    k = quasi_sa_transform(Operator(h), sol.canonical, 1e-8)
    assert np.abs(k.matrix - k.matrix.conj().T).max() <= 1e-10 * np.abs(k.matrix).max()


def test_solve_metric_errors():
    with pytest.raises(ComplexSpectrum) as info:
        solve_metric(Operator([[0, 1], [-1, 0]]))
    assert len(info.value.eigenvalues) == 2
    with pytest.raises(Defective):
        solve_metric(Operator([[1, 1], [0, 1]]))


def test_solve_metric_ill_conditioned_warns():
    # nearly parallel eigenvectors: solution returned, but flagged
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 2e-7]])
    with pytest.warns(IllConditionedWarning) as record:
        sol = solve_metric(Operator(a))
    assert record[0].filename == __file__
    assert sol.vector_condition > 1e6
    assert sol.canonical.eig_min > 0


@pytest.mark.parametrize("corner, subnormal", [(1e200, False), (1e160, True)])
def test_solve_metric_below_the_float_range_raises(corner, subnormal):
    # the metric's smallest eigenvalue is about 1/(4 corner^2): zero or subnormal
    with pytest.warns(IllConditionedWarning), pytest.raises(NotPositiveDefinite) as info:
        solve_metric(Operator([[1.0, corner], [0.0, 2.0]]))
    eig_min = info.value.min_eigenvalue
    assert 0.0 <= eig_min < np.finfo(np.float64).tiny
    assert (eig_min > 0.0) == subnormal


def test_a_passed_eigensystem_keeps_its_verdicts():
    # eigenvalues 1 +- 1e-9 i: one real cluster at 1e-6, a conjugate pair at 1e-12
    a = Operator([[1.0, 1e-9], [-1e-9, 1.0]])
    es = eig_general(a, 1e-6)
    assert es.tol == 1e-6
    assert es.real.all() and not es.real.flags.writeable
    assert len(es.clusters) == 1 and not es.defective
    assert solve_metric(es, 1e-12).freedom == es.clusters
    assert len(x_family(es, 1e-12).thresholds) == 1
    assert solve_pseudo_metric(es, 1e-12)[1] == (2, 0)
    with pytest.raises(ComplexSpectrum):
        solve_metric(a, 1e-12)
    assert solve_pseudo_metric(a, 1e-12)[1] == (1, 1)


def test_solve_pseudo_metric_ill_conditioned_warns():
    # eigenvalues +-1e-7 i with nearly parallel eigenvectors (1, +-1e-7 i)
    a = Operator([[0.0, 1.0], [-1e-14, 0.0]])
    with pytest.warns(IllConditionedWarning) as record:
        T, signature = solve_pseudo_metric(a)
    assert record[0].filename == __file__
    assert signature == (1, 1)
    assert quasi_hermiticity_residual(a, T) <= 1e-8


def test_quasi_sa_transform_examples():
    a = Operator(A_WORKED)
    with pytest.warns(UserWarning):
        k_forced = quasi_sa_transform(a, MetricOperator.identity(2), force=True)
    assert np.abs(k_forced.matrix - A_WORKED).max() <= 1e-15

    m = make_metric(Operator(G_WORKED))
    k = quasi_sa_transform(a, m)
    assert np.abs(k.matrix - k.matrix.conj().T).max() <= 1e-12
    kw = np.sort(np.linalg.eigvalsh(0.5 * (k.matrix + k.matrix.conj().T)))
    assert np.allclose(kw, [1.0, 2.0], atol=1e-12)

    with pytest.raises(NotQuasiHermitian):
        quasi_sa_transform(a, MetricOperator.identity(2))
    with pytest.warns(UserWarning):
        quasi_sa_transform(a, MetricOperator.identity(2), force=True)


def test_sharp_adjoint_examples():
    gen = rng(32)
    s = Operator(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
    assert np.abs(
        sharp_adjoint(s, MetricOperator.identity(3)).matrix - s.matrix.conj().T
    ).max() <= 1e-15

    diag_s = Operator(np.diag([1.0, 2.0, 3.0]))
    diag_m = make_metric(Operator(np.diag([2.0, 5.0, 0.5])))
    assert np.abs(sharp_adjoint(diag_s, diag_m).matrix - diag_s.matrix).max() <= 1e-14

    m = make_metric(Operator(G_WORKED))
    sharp = sharp_adjoint(Operator(A_WORKED), m)
    assert np.abs(sharp.matrix - A_WORKED).max() <= 1e-12


def test_sharp_adjoint_properties():
    gen = rng(33)
    m = make_metric(Operator(_pd(gen, 5)))
    s = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    r = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    s_op, r_op = Operator(s), Operator(r)
    # involution
    twice = sharp_adjoint(sharp_adjoint(s_op, m), m)
    assert np.abs(twice.matrix - s).max() <= 1e-10 * np.abs(s).max()
    # conjugate-linear compatibility
    alpha = 1.3 - 0.7j
    lhs = sharp_adjoint(Operator(alpha * s), m).matrix
    assert np.abs(lhs - np.conj(alpha) * sharp_adjoint(s_op, m).matrix).max() <= 1e-10
    add = sharp_adjoint(Operator(s + r), m).matrix
    assert np.abs(add - sharp_adjoint(s_op, m).matrix - sharp_adjoint(r_op, m).matrix).max() <= 1e-10
    # adjoint relation in the G-inner product, sampled
    from qherm import g_inner

    for _ in range(5):
        xi = gen.standard_normal(5) + 1j * gen.standard_normal(5)
        eta = gen.standard_normal(5) + 1j * gen.standard_normal(5)
        lhs = g_inner(m, s @ xi, eta)
        rhs = g_inner(m, xi, sharp_adjoint(s_op, m).matrix @ eta)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _pd(gen, n):
    from helpers import random_pd

    return random_pd(gen, n)


def test_minimal_b0_examples():
    a = Operator(A_WORKED)
    assert np.abs(minimal_b0(a, MetricOperator.identity(2)).matrix - A_WORKED).max() <= 1e-15

    m = make_metric(Operator(G_WORKED))
    b0 = minimal_b0(a, m)
    assert np.abs(b0.matrix - A_WORKED.conj().T).max() <= 1e-12

    diag_a = Operator(np.diag([3.0, 7.0]))
    diag_m = make_metric(Operator(np.diag([2.0, 0.5])))
    assert np.abs(minimal_b0(diag_a, diag_m).matrix - diag_a.matrix).max() <= 1e-14


def test_minimal_b0_intertwines():
    gen = rng(34)
    for _ in range(5):
        n = int(gen.integers(2, 20))
        a = Operator(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
        m = make_metric(Operator(_pd(gen, n)))
        b0 = minimal_b0(a, m)
        lhs = b0.matrix @ m.G.matrix
        rhs = m.G.matrix @ a.matrix
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_krein_check_examples():
    ok, ks = krein_check(Operator([[0, 1], [-1, 0]]), Operator(np.diag([1.0, -1.0])))
    assert ok
    assert ks.signature == (1, 1)
    assert np.allclose(ks.P_plus.matrix, np.diag([1.0, 0.0]), atol=0)

    gen = rng(35)
    h = random_hermitian(gen, 4)
    ok, ks = krein_check(Operator(h), Operator.identity(4))
    assert ok and ks.signature == (4, 0)

    with pytest.raises(NotInvolution):
        krein_check(Operator.identity(2), Operator([[0, 1], [0, 0]]))
    with pytest.raises(NotHermitian):
        # an involution (J^2 = I) that is not Hermitian
        krein_check(Operator.identity(2), Operator([[1, 1], [0, -1]]))


def test_krein_manufactured_suite():
    gen = rng(36)
    for _ in range(20):
        n = int(gen.integers(2, 24))
        signs = np.where(gen.standard_normal(n) > 0, 1.0, -1.0)
        j = Operator(np.diag(signs))
        a = Operator(np.diag(signs) @ random_hermitian(gen, n))
        ok, ks = krein_check(a, j)
        assert ok
        assert ks.signature == (int((signs > 0).sum()), int((signs < 0).sum()))
        # J-self-adjointness forces a conjugation-closed spectrum
        w = eig_general(a).eigenvalues
        for lam in w:
            assert np.min(np.abs(w - np.conj(lam))) <= 1e-8 * (1 + abs(lam))


def test_solve_pseudo_metric_examples():
    gen = rng(37)
    a, _ = diagonalizable_real_spectrum(gen, 5)
    t, sig = solve_pseudo_metric(Operator(a))
    assert sig == (5, 0)
    sol = solve_metric(Operator(a))
    assert np.abs(t.matrix - sol.canonical.G.matrix).max() <= 1e-9

    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t, sig = solve_pseudo_metric(Operator(rot))
    assert sig == (1, 1)
    assert np.abs(t.matrix - t.matrix.conj().T).max() <= 1e-14
    assert np.abs(t.matrix @ rot - rot.conj().T @ t.matrix).max() <= 1e-12

    t, sig = solve_pseudo_metric(Operator(np.diag([1j, -1j])))
    assert sig == (1, 1)
    assert np.abs(t.matrix - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_pseudo_metric_is_the_dense_swap_product(seed):
    # exchanging the columns of S^-* is multiplying by the swap matrix M:
    # each entry of S^-* M is one entry of S^-* times 1 plus zeros, so T
    # comes out bit for bit; real inputs have exactly conjugate spectra
    gen = rng(90 + seed)
    for case in range(12):
        n = int(gen.integers(2, 41))
        a = gen.standard_normal((n, n))
        if case % 3 == 0:
            a = np.round(4.0 * a)
        es = eig_general(Operator(a))
        t, signature = solve_pseudo_metric(es)
        ref, ref_signature = dense_swap_pseudo_metric(es)
        assert t.matrix.tobytes() == ref.tobytes()
        assert signature == ref_signature


def test_solve_pseudo_metric_errors():
    with pytest.raises(Defective):
        solve_pseudo_metric(Operator([[1, 1], [0, 1]]))
    with pytest.raises(SpectrumNotConjugateClosed):
        solve_pseudo_metric(Operator(np.diag([1j, 2.0])))


def test_metric_freedom_blocks():
    gen = rng(38)
    # repeated eigenvalues widen the admissible D blocks
    lam = np.array([1.0, 1.0, 1.0, 4.0, 4.0, 9.0])
    v = well_conditioned(gen, 6)
    a = Operator(v @ np.diag(lam) @ np.linalg.inv(v))
    es = eig_general(a)
    sol = solve_metric(es)
    sizes = [c.size for c in sol.freedom]
    assert sizes == [3, 2, 1]
    s = es.scaled_vectors
    s_inv = np.linalg.inv(s)
    for _ in range(10):
        blocks = []
        for c in sol.freedom:
            z = gen.standard_normal((c.size, c.size)) + 1j * gen.standard_normal(
                (c.size, c.size)
            )
            blocks.append(z @ z.conj().T + 0.1 * np.eye(c.size))
        d = np.zeros((6, 6), dtype=complex)
        pos = 0
        for blk in blocks:
            k = blk.shape[0]
            d[pos : pos + k, pos : pos + k] = blk
            pos += k
        g_d = s_inv.conj().T @ d @ s_inv
        assert quasi_hermiticity_residual(a, Operator(g_d)) <= 1e-9


def _predicates(a: Operator, tol: float = 1e-8):
    es = eig_general(a, tol)
    real_diag = (not es.defective) and bool(
        np.all(np.abs(es.eigenvalues.imag) <= tol * (1 + np.abs(es.eigenvalues)))
    )
    try:
        sol = solve_metric(a, tol)
    except (ComplexSpectrum, Defective):
        return real_diag, False, False, False
    m = sol.canonical
    pd_metric = m.eig_min > 0 and sol.residual <= tol
    k = m.G_half.matrix @ a.matrix @ m.G_invhalf.matrix
    k_herm = np.linalg.norm(k - k.conj().T, "fro") <= tol * np.linalg.norm(k, "fro")
    ga = m.G.matrix @ a.matrix
    ga_herm = np.linalg.norm(ga - ga.conj().T, "fro") <= tol * np.linalg.norm(ga, "fro")
    return real_diag, pd_metric, k_herm, ga_herm


def test_equivalence_chain_randomized():
    gen = rng(39)
    cases = []
    for _ in range(15):
        n = int(gen.integers(2, 24))
        cases.append(Operator(random_hermitian(gen, n)))
        cases.append(Operator(manufactured_quasi_hermitian(gen, n)[0]))
        cases.append(Operator(jordan_case(gen, n)))
        u = random_unitary(gen, n)
        spun = u @ np.diag(gen.standard_normal(n) + 1j * gen.uniform(0.5, 2, n)) @ u.conj().T
        cases.append(Operator(spun))
    for a in cases:
        flags = _predicates(a)
        assert all(flags) or not any(flags), (a.dim, flags)


def test_quasi_sa_transform_randomized_invariant():
    gen = rng(40)
    for _ in range(10):
        n = int(gen.integers(2, 33))
        a, g = manufactured_quasi_hermitian(gen, n)
        m = make_metric(Operator(g))
        k = quasi_sa_transform(Operator(a), m, 1e-8)
        kf = np.linalg.norm(k.matrix, "fro")
        assert np.linalg.norm(k.matrix - k.matrix.conj().T, "fro") <= 1e-8 * kf
        wa = np.sort(eig_general(Operator(a)).eigenvalues.real)
        wk = np.sort(np.linalg.eigvalsh(0.5 * (k.matrix + k.matrix.conj().T)))
        assert np.abs(wa - wk).max() <= 1e-8 * (1 + np.abs(wa).max())


def _loop_eigvec_scaling(v):
    # the per-column reference for the vectorized canonical scaling
    s = np.array(v, dtype=np.complex128)
    for k in range(s.shape[1]):
        pivot = s[np.argmax(np.abs(s[:, k])), k]
        if pivot != 0:
            s[:, k] /= pivot
    return s


def test_canonical_eigvec_scaling_matches_the_column_loop():
    from qherm.core import _canonical_eigvec_scaling

    gen = rng(41)
    v = gen.standard_normal((7, 7)) + 1j * gen.standard_normal((7, 7))
    v[:, 2] = 0.0  # a zero pivot leaves its column alone
    v[:, 4] = -0.0
    v[:, 3] = [0.5, 2.0, 0.1, 0.0, 1j, -2.0, 1.0]  # a tie in modulus picks the first row
    for case in (v, v[:, :3], v.real, eig_general(Operator(A_WORKED)).right_vectors):
        got = _canonical_eigvec_scaling(case)
        want = _loop_eigvec_scaling(case)
        assert got.tobytes() == want.tobytes()
    # the record keeps its S read-only and computes it once
    es = eig_general(Operator(A_WORKED))
    s = es.scaled_vectors
    assert not s.flags.writeable
    assert es.scaled_vectors is s
    assert s.tobytes() == _loop_eigvec_scaling(es.right_vectors).tobytes()


SCALES = [1e-200, 1e-170, 1e-160, 1.0, 1e160, 1e200]


@pytest.mark.parametrize("s", SCALES)
def test_metric_residual_is_scale_free(s):
    # G A and A* G under- or overflow at the ends; the residual must not
    eps = np.finfo(np.float64).eps
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    wrong = quasi_hermiticity_residual(a, np.eye(2))
    assert quasi_hermiticity_residual(s * a, s * np.eye(2)) == pytest.approx(wrong, rel=4 * eps)
    assert quasi_hermiticity_residual(s * A_WORKED, s * G_WORKED) <= 1e-15
    with pytest.raises(NotQuasiHermitian):
        quasi_sa_transform(s * a, make_metric(s * np.eye(2)))


@pytest.mark.parametrize("s", SCALES)
def test_krein_check_is_scale_free(s):
    # the Krein relation is judged alike at every scale of A
    j = np.diag([1.0, -1.0])
    assert krein_check(s * np.array([[0.0, 1.0], [-1.0, 0.0]]), j)[0]
    assert not krein_check(s * np.array([[1.0, 2.0], [0.0, 3.0]]), j)[0]
    if s != 1.0:
        # (s J)^2 = s^2 I under- or overflows at the ends, and is no identity
        with pytest.raises(NotInvolution):
            krein_check([[1.0, 2.0], [0.0, 3.0]], s * j)


def test_krein_check_large_involution_is_judged_as_one():
    # J^2 = I exactly although ||J||_F^2 overflows: it is an involution, not Hermitian
    with pytest.raises(NotHermitian):
        krein_check(Operator.identity(2), Operator([[1.0, 1e200], [0.0, -1.0]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: quasi_hermiticity_residual(np.eye(2), np.eye(3)),
        lambda: quasi_sa_transform(np.eye(3), MetricOperator.identity(2)),
        lambda: sharp_adjoint(np.eye(3), MetricOperator.identity(2)),
        lambda: minimal_b0(np.eye(3), MetricOperator.identity(2)),
        lambda: krein_check(np.eye(2), np.eye(3)),
    ],
    ids=["residual", "transform", "sharp_adjoint", "minimal_b0", "krein_check"],
)
def test_dimension_mismatch_raises(call):
    with pytest.raises(DimensionMismatch):
        call()
