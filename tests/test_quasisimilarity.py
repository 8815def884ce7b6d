from dataclasses import astuple

import numpy as np
import pytest

from qherm import (
    IntertwiningViolated,
    MatchedPair,
    Operator,
    adjoint,
    cluster_eigenvalues,
    eig_general,
    mutual_qs_check,
    push_eigenvectors,
    spectral_comparison,
    verify_intertwining,
)
from dense_oracle import loop_push_eigenvectors
from helpers import (
    diagonalizable_real_spectrum,
    random_unitary,
    rng,
    well_conditioned,
)

A_WORKED = np.array([[1.0, 1.0], [0.0, 2.0]])
G_WORKED = np.array([[1.0, -1.0], [-1.0, 2.0]])


def test_verify_intertwining_examples():
    a = Operator(A_WORKED)
    rep = verify_intertwining(a, a, Operator.identity(2))
    assert rep.residual == 0.0
    assert rep.quasi_affinity
    assert rep.min_sv == pytest.approx(1.0)

    rep = verify_intertwining(a, adjoint(a), Operator(G_WORKED))
    assert rep.residual <= 1e-15
    assert rep.quasi_affinity

    rep = verify_intertwining(a, a, Operator(np.zeros((2, 2))))
    assert not rep.quasi_affinity
    assert rep.numerical_rank == 0
    assert rep.min_sv == 0.0


def test_intertwining_asymmetry_witness():
    # G intertwines A with A*, but not A* with A
    a = Operator(A_WORKED)
    rep = verify_intertwining(adjoint(a), a, Operator(G_WORKED))
    assert rep.residual > 0.1


def test_singular_values_descending():
    gen = rng(41)
    t = Operator(gen.standard_normal((6, 6)))
    rep = verify_intertwining(Operator.identity(6), Operator.identity(6), t)
    sv = rep.singular_values
    assert np.all(np.diff(sv) <= 0)
    assert rep.min_sv == pytest.approx(sv[-1])


def test_spectral_comparison_examples():
    a = Operator(A_WORKED)
    match = spectral_comparison(a, a)
    assert match.total_with_equal_multiplicities
    assert match.inclusion

    match = spectral_comparison(Operator(np.diag([1.0, 5.0])), Operator(np.diag([1.0, 1.0])))
    assert len(match.pairs) == 1
    pair = match.pairs[0]
    assert pair.value_a == pytest.approx(1.0) and pair.mult_a == 1 and pair.mult_b == 2
    assert match.unmatched_a == ((5.0 + 0.0j, 1),)
    assert not match.inclusion

    match = spectral_comparison(a, adjoint(a))
    assert match.total_with_equal_multiplicities


def test_spectral_comparison_reads_a_records_clusters():
    # 1 and 1 + 1e-5 are one cluster at 1e-3 and two at 1e-7; each record
    # keeps its own, and the match tolerance only pairs them
    a = Operator(np.diag([1.0, 1.0 + 1e-5]))
    match = spectral_comparison(eig_general(a, 1e-3), eig_general(a, 1e-7), 1e-3)
    assert [(p.mult_a, p.mult_b) for p in match.pairs] == [(2, 1)]
    assert match.unmatched_b == ((1.0 + 1e-5 + 0j, 1),)
    assert not match.inclusion
    # an operator is clustered at the match tolerance
    assert spectral_comparison(a, a, 1e-3).pairs[0].mult_b == 2


def _loop_match(A, B, tol):
    """The O(n^2) pairwise loop ``spectral_comparison`` used to run: the
    first nearest unused partner of each cluster of ``A``, in order."""
    ca = cluster_eigenvalues(eig_general(A, tol).eigenvalues, tol)
    cb = cluster_eigenvalues(eig_general(B, tol).eigenvalues, tol)
    used = [False] * len(cb)
    pairs, unmatched_a = [], []
    for cl in ca:
        best, best_dist = -1, np.inf
        for j, other in enumerate(cb):
            if used[j]:
                continue
            dist = abs(cl.value - other.value)
            if dist < best_dist:
                best, best_dist = j, dist
        if best >= 0 and best_dist <= tol * (1.0 + abs(cl.value)):
            used[best] = True
            pairs.append(
                MatchedPair(cl.value, cb[best].value, float(best_dist), cl.size, cb[best].size)
            )
        else:
            unmatched_a.append((cl.value, cl.size))
    unmatched_b = [(c.value, c.size) for j, c in enumerate(cb) if not used[j]]
    return tuple(pairs), tuple(unmatched_a), tuple(unmatched_b)


def _hex(items):
    """Every number of matched pairs or ``(value, multiplicity)`` tuples, in hex."""
    rows = [astuple(i) if isinstance(i, MatchedPair) else i for i in items]
    return [[(complex(x).real.hex(), complex(x).imag.hex()) for x in row] for row in rows]


def _match_cases(seed):
    if seed is None:
        # at tol 0.6, 0 lies 0.5 from -0.5 and 0.5, and the first of the tie wins
        return np.array([0.0, 3.0]), np.array([-0.5, 0.5, 3.2])
    gen = rng(40 + seed)
    base = np.round(gen.uniform(-2.0, 2.0, 12), 1) + 1j * gen.integers(0, 2, 12)
    shift = np.where(gen.random(12) < 0.3, 0.1, 0.0) + gen.choice([0.0, 1e-9], 12)
    return np.repeat(base, gen.integers(1, 3, 12)), (base + shift)[gen.permutation(12)]


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_spectral_match_is_the_pairwise_loops(seed):
    # clusters, ties at equal distance, partners lost to an earlier cluster,
    # and unmatched values on both sides
    a, b = _match_cases(seed)
    for lam_a, lam_b in ((a, b), (b, a)):
        A, B = Operator(np.diag(lam_a)), Operator(np.diag(lam_b))
        for tol in (1e-7, 0.15, 0.6):
            got = spectral_comparison(A, B, tol)
            ref = _loop_match(A, B, tol)
            assert _hex(got.pairs) == _hex(ref[0])
            assert _hex(got.unmatched_a) == _hex(ref[1])
            assert _hex(got.unmatched_b) == _hex(ref[2])


def test_push_eigenvectors_worked():
    a = Operator(A_WORKED)
    rep = push_eigenvectors(a, a, Operator.identity(2))
    assert rep.max_residual <= 1e-14

    rep = push_eigenvectors(a, adjoint(a), Operator(G_WORKED))
    assert rep.max_residual <= 1e-12
    assert not rep.annihilated
    # the lam = 1 eigenvector (1, 0) maps to (1, -1), an eigenvector of A*
    image = G_WORKED @ np.array([1.0, 0.0])
    assert np.allclose(image, [1.0, -1.0], atol=0)
    assert np.allclose(A_WORKED.conj().T @ image, image, atol=0)

    with pytest.raises(IntertwiningViolated) as exc:
        push_eigenvectors(a, a, Operator(G_WORKED))
    assert exc.value.report.residual > 1e-10  # the default tol


def test_push_eigenvectors_annihilation():
    a = Operator(np.diag([1.0, 2.0]))
    t = Operator(np.diag([1.0, 0.0]))
    rep = push_eigenvectors(a, a, t)
    assert len(rep.annihilated) == 1
    lam, norm = rep.annihilated[0]
    assert lam == pytest.approx(2.0)
    assert norm <= 1e-15
    assert not rep.intertwiner.quasi_affinity


def _pushed_values(rep):
    """The eigenvalues of the kept and of the annihilated eigenvectors, in order, in hex."""
    return _hex([rep.eigenvalues.tolist(), [lam for lam, _ in rep.annihilated]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 40])
def test_push_eigenvectors_is_the_eigenvector_loop(n):
    # every other case T annihilates one eigenvector of A; images and
    # residuals are sums taken in another order, so they agree with the
    # loop to a few eps of their scale
    eps = np.finfo(np.float64).eps
    gen = rng(70 + n)
    for case in range(8):
        a, _ = diagonalizable_real_spectrum(gen, n)
        t = well_conditioned(gen, n)
        if case % 2:
            v = eig_general(Operator(a)).right_vectors
            t = (v * (np.arange(n) != gen.integers(n))) @ np.linalg.inv(v)
            b = a
        else:
            b = t @ a @ np.linalg.inv(t)
        A, B, T = Operator(a), Operator(b), Operator(t)
        got, ref = push_eigenvectors(A, B, T, 1e-8), loop_push_eigenvectors(A, B, T, 1e-8)
        assert len(ref.annihilated) == case % 2
        assert _pushed_values(got) == _pushed_values(ref)
        assert got.passed == ref.passed
        assert _hex([got.intertwiner.singular_values]) == _hex([ref.intertwiner.singular_values])
        t_norm, b_norm = np.linalg.norm(t), np.linalg.norm(b)
        assert np.abs(got.image_norms - ref.image_norms).max() <= 4 * eps * t_norm
        scale = (b_norm + np.abs(ref.eigenvalues)) * t_norm / ref.image_norms
        assert np.all(np.abs(got.residuals - ref.residuals) <= 4 * eps * scale)
        for (_, x), (_, y) in zip(got.annihilated, ref.annihilated):
            assert abs(x - y) <= 4 * eps * t_norm


def test_mutual_qs_worked():
    a = Operator(A_WORKED)
    rep = mutual_qs_check(a, a, Operator.identity(2), Operator.identity(2))
    assert rep.passed and rep.mutual and rep.sigma_p_equal

    g_inv = np.linalg.inv(G_WORKED)
    rep = mutual_qs_check(a, adjoint(a), Operator(G_WORKED), Operator(g_inv))
    assert rep.mutual
    assert rep.sigma_p_equal
    assert rep.sigma_equal
    assert not rep.both_normal
    assert rep.unitarily_equivalent is None


def test_mutual_qs_flags_impossible_pair():
    a = Operator(np.diag([1.0, 2.0]))
    b = Operator(np.diag([3.0, 4.0]))
    rep = mutual_qs_check(a, b, Operator.identity(2), Operator.identity(2))
    assert not rep.sigma_p_equal
    assert rep.intertwining_ab.residual > 0.1
    assert not rep.passed


def test_manufactured_similarity_suite():
    gen = rng(43)
    for _ in range(10):
        n = int(gen.integers(2, 32))
        a, _ = diagonalizable_real_spectrum(gen, n)
        t = well_conditioned(gen, n)
        b = t @ a @ np.linalg.inv(t)
        a_op, b_op, t_op = Operator(a), Operator(b), Operator(t)
        rep = verify_intertwining(a_op, b_op, t_op)
        assert rep.residual <= 1e-9
        assert rep.quasi_affinity
        match = spectral_comparison(a_op, b_op)
        assert match.total_with_equal_multiplicities
        push = push_eigenvectors(a_op, b_op, t_op, 1e-9)
        assert push.max_residual <= 1e-8
        # generic asymmetry: T does not intertwine the reversed pair
        reverse = verify_intertwining(b_op, a_op, t_op)
        assert reverse.residual > 1e-3


def test_mutual_normal_pairs_unitary_equivalence():
    gen = rng(44)
    for _ in range(5):
        n = int(gen.integers(2, 16))
        w = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        u1, u2 = random_unitary(gen, n), random_unitary(gen, n)
        a = (u1 * w) @ u1.conj().T
        b = (u2 * w) @ u2.conj().T
        t_ab = u2 @ u1.conj().T
        t_ba = u1 @ u2.conj().T
        rep = mutual_qs_check(Operator(a), Operator(b), Operator(t_ab), Operator(t_ba), 1e-8)
        assert rep.both_normal
        assert rep.mutual
        assert rep.unitarily_equivalent


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1e-160, 1.0, 1e160, 1e200])
def test_intertwining_residual_is_scale_free(s):
    # T A - B T under- or overflows at the ends; the residual must not
    eps = np.finfo(np.float64).eps
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    wrong = verify_intertwining(a, a.T, np.eye(2)).residual
    got = verify_intertwining(s * a, s * a.T, s * np.eye(2)).residual
    assert got == pytest.approx(wrong, rel=4 * eps)
    assert verify_intertwining(s * A_WORKED, s * A_WORKED.T, s * G_WORKED).residual <= 1e-15


@pytest.mark.parametrize("s", [1e-200, 1e-12, 1e200])
def test_mutual_qs_check_at_scale_is_the_unit_scale_report(s):
    # ||A||_F^2 and A A* overflow or underflow, and the smallest singular
    # value of s T or of T^-1 / s leaves the unit scale; the normality test
    # and the quasi-affinity behind sigma_equal must not
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    t = np.array([[2.0, 1.0], [1.0, 1.0]])
    t_inv = np.array([[1.0, -1.0], [-1.0, 2.0]])

    def verdicts(rep):
        return (
            rep.mutual,
            rep.sigma_p_equal,
            rep.both_normal,
            rep.unitarily_equivalent,
            rep.sigma_equal,
            rep.passed,
        )

    for b, t_ab, t_ba in ((a, np.eye(2), np.eye(2)), (t @ a @ t_inv, t, t_inv)):
        unit = verdicts(mutual_qs_check(a, b, t_ab, t_ba))
        assert unit[0] and unit[4]
        assert verdicts(mutual_qs_check(s * a, s * b, s * t_ab, t_ba / s)) == unit
    u = random_unitary(rng(80), 3)
    normal = u @ np.diag([1.0, 2.0j, -1.0]) @ u.conj().T
    assert mutual_qs_check(s * normal, s * normal, np.eye(3), np.eye(3)).both_normal


@pytest.mark.parametrize("s", [1e-200, 1e160, 1e200])
def test_push_eigenvectors_at_scale_reports_finite_numbers(s):
    # T V and B (T V) under- or overflow at the ends; the unit eigenvectors
    # of A must come out with image norm s and a finite residual
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    rep = push_eigenvectors(s * a, s * a, s * np.eye(2))
    assert not rep.annihilated
    assert list(rep.image_norms) == pytest.approx([s, s], rel=1e-15, abs=0.0)
    assert np.isfinite(rep.residuals).all()


@pytest.mark.parametrize("s", [1e-200, 1e-12, 1e160, 1e200])
def test_push_eigenvectors_verdict_is_scale_free(s):
    # an image is annihilated at tol ||T||_2 and the residuals, which grow
    # with B, are judged at tol ||B||_F: the scaled push is the unit one
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    d = np.diag([1.0, 2.0])
    for args in ((a, a, np.eye(2)), (d, d, np.diag([1.0, 0.0]))):
        unit = push_eigenvectors(*args)
        rep = push_eigenvectors(*(s * m for m in args))
        assert rep.passed and unit.passed
        assert list(rep.eigenvalues / s) == pytest.approx(list(unit.eigenvalues), rel=1e-15)
        gone = [lam / s for lam, _ in rep.annihilated]
        assert gone == pytest.approx([lam for lam, _ in unit.annihilated], rel=1e-15)
