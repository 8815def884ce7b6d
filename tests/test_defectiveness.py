"""The defectiveness verdict of ``eig_general`` against its references.

``eig_general`` decides each cluster from the smallest singular value of
its own block of unit eigenvectors.  The rank test it replaced, one SVD of
``A - lam I`` per cluster, is kept in ``dense_oracle.rank_defective``; a
property test shows the two agree on diagonalizable inputs with repeated
eigenvalues and on triangular Jordan inputs, and wherever they might
disagree, the Jordan structure in 50 digits (``dense_oracle.mp_defective``)
has to side with ``eig_general``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import mp_defective, mp_jordan_nullities, rank_defective
from helpers import block_sigma_mins, jordan_case, random_unitary, rng, well_conditioned
from qherm import ConvergenceFailure, Operator, eig_general
from qherm.cli import _load_dense

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


@st.composite
def _repeated_spectra(draw) -> tuple[np.ndarray, bool]:
    """``(A, defective)``: a random well-conditioned similarity of a spectrum
    with one to three eigenvalues repeated 2 to 8 times next to up to three
    simple ones, or a triangular matrix with a Jordan block of size 2 to 4."""
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return jordan_case(gen, draw(st.integers(4, 12))), True
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    sizes += [1] * draw(st.integers(0, 3))
    values = gen.permutation(np.arange(-6, 7))[: len(sizes)] * 0.5
    lam = np.repeat(values, sizes)
    v = well_conditioned(gen, lam.size)
    return (v * lam) @ np.linalg.inv(v), False


@settings(max_examples=200, deadline=None)
@given(case=_repeated_spectra())
def test_block_verdict_matches_the_rank_test(case):
    a, defective = case
    es = eig_general(a)
    assert es.defective == defective
    if es.defective != rank_defective(es):
        assert mp_defective(es) == es.defective


@pytest.mark.parametrize("name", ["hermitian", "jordan", "pseudo4", "quasi5", "rotation", "worked"])
def test_golden_inputs_get_the_rank_tests_verdict(name):
    es = eig_general(_load_dense(os.path.join(INPUTS, f"{name}.json")))
    assert es.defective == rank_defective(es) == (name == "jordan")


def test_margins_of_the_golden_blocks():
    # the threshold sqrt(tol) = 1e-5 sits far from either side
    quasi5 = eig_general(_load_dense(os.path.join(INPUTS, "quasi5.json")))
    jordan = eig_general(_load_dense(os.path.join(INPUTS, "jordan.json")))
    assert min(block_sigma_mins(quasi5)) > 0.5
    assert max(block_sigma_mins(jordan)) < 1e-15


def test_unitary_jordan_block_at_a_clustering_tolerance():
    # eig splits a 3 x 3 Jordan block under a unitary similarity by ~eps^(1/3);
    # at tol = 1e-4 the three form one cluster, whose vectors are nearly parallel
    gen = rng(5)
    j = np.diag([2.0, 2.0, 2.0, -1.0, 0.5, 4.0]).astype(np.complex128)
    j[0, 1] = j[1, 2] = 1.0
    u = random_unitary(gen, 6)
    es = eig_general(u @ j @ u.conj().T, 1e-4)
    assert [c.size for c in es.clusters] == [1, 1, 3, 1]
    assert es.defective and rank_defective(es)
    cluster = es.clusters[2]
    assert mp_jordan_nullities(es.operator.matrix, cluster.value, 3, es.tol) == [1, 2, 3]


def test_mp_check_reads_semisimple_and_jordan_structure():
    a = np.diag([1.0, 1.0, 1.0, 3.0]).astype(np.complex128)
    a[0, 1] = 1.0  # blocks of sizes 2 and 1 at eigenvalue 1
    assert mp_jordan_nullities(a, 1.0, 3, 1e-10) == [2, 3, 3]
    es = eig_general(a)
    assert es.defective and mp_defective(es)
    assert not mp_defective(eig_general(np.diag([2.0, 2.0, 5.0])))


def test_exactly_equal_eigenvalues_at_zero_tolerance():
    # the threshold never falls below sqrt(eps), so tol = 0 still finds the block
    assert eig_general(Operator([[1, 1], [0, 1]]), 0.0).defective
    assert not eig_general(Operator(np.eye(3)), 0.0).defective


def test_uncertified_eigenvectors_raise(monkeypatch):
    # vectors that are no eigenvectors fail the residual certificate
    eig = np.linalg.eig

    def scrambled(a):
        w, v = eig(a)
        return w, v[::-1]

    monkeypatch.setattr(np.linalg, "eig", scrambled)
    a = well_conditioned(rng(6), 6)
    with pytest.raises(ConvergenceFailure):
        eig_general((a * np.repeat([1.0, 2.0], 3)) @ np.linalg.inv(a))
