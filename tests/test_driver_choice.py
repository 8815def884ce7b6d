"""The LAPACK driver ``core`` picks from the entries of an operator.

An operator equal to its adjoint entry for entry is diagonalized by
``eigh``, any other by ``eig``, each in real arithmetic when the imaginary
parts are all zero.  The real driver returns eigenvalues closed under
conjugation exactly; its record must reach the verdicts of the complex
driver's record of the same matrix (``dense_oracle.complex_eig_general``).
The choice is exact, so a Jordan block a rounding error away from
Hermitian keeps the general driver and reads defective.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import complex_eig_general
from helpers import random_orthogonal, random_unitary, rng, well_conditioned
from qherm import DEFAULT_TOL, eig_general, eig_hermitian
from qherm.core import fro, herm_part, herm_residual


def _assert_record_shape(es):
    # the record the other modules read, whichever driver built it
    assert es.eigenvalues.dtype == es.right_vectors.dtype == np.complex128
    assert not es.eigenvalues.flags.writeable and not es.right_vectors.flags.writeable
    assert np.allclose(np.linalg.norm(es.right_vectors, axis=0), 1.0, rtol=0, atol=1e-14)


@st.composite
def _real_spectra(draw) -> np.ndarray:
    """A real ``V B V^-1``: ``B`` holds real eigenvalues and 2 x 2 blocks
    ``[[x, y], [-y, x]]`` (eigenvalues ``x +- iy``, ``y`` in [1/4, 2]), all
    real parts distinct on a grid of step 1/2, and ``V`` is real with
    singular values in [1/2, 2]."""
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    pairs = draw(st.integers(0, 4))
    reals = draw(st.integers(0 if pairs else 2, 6))
    centres = gen.permutation(np.arange(-12, 13))[: pairs + reals] * 0.5
    n = 2 * pairs + reals
    b = np.zeros((n, n))
    for k, x in enumerate(centres[:pairs]):
        y = gen.uniform(0.25, 2.0)
        b[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[x, y], [-y, x]]
    b[range(2 * pairs, n), range(2 * pairs, n)] = centres[pairs:]
    v = well_conditioned(gen, n, spread=2.0, real=True)
    return v @ b @ np.linalg.inv(v)


@settings(max_examples=200, deadline=None)
@given(a=_real_spectra())
def test_the_real_driver_agrees_with_the_complex_one(a):
    es = eig_general(a)
    ref = complex_eig_general(a.astype(np.complex128), DEFAULT_TOL)
    _assert_record_shape(es)
    w = es.eigenvalues
    assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))
    assert np.array_equal(es.real, ref.real)
    assert es.defective is ref.defective is False
    assert es.conjugate_pairs == ref.conjugate_pairs
    gap = np.abs(w[:, None] - ref.eigenvalues[None, :])
    bound = DEFAULT_TOL * fro(a)
    assert gap.min(axis=1).max() <= bound and gap.min(axis=0).max() <= bound


@st.composite
def _hermitian_spectra(draw) -> tuple[np.ndarray, list[int]]:
    """``(A, sizes)``: ``Q diag(lam) Q*`` made Hermitian entry for entry, with
    ``Q`` real orthogonal or complex unitary and one to five distinct
    eigenvalues, 1/2 apart or more, repeated 1 to 4 times."""
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    lam = np.repeat(gen.permutation(np.arange(-6, 7))[: len(sizes)] * 0.5, sizes)
    q = random_orthogonal(gen, lam.size) if draw(st.booleans()) else random_unitary(gen, lam.size)
    return herm_part((q * lam) @ q.conj().T), sizes


@settings(max_examples=200, deadline=None)
@given(case=_hermitian_spectra())
def test_a_hermitian_input_keeps_real_eigenvalues_and_its_clusters(case):
    a, sizes = case
    assert np.array_equal(a, a.conj().T)
    for solver in (eig_general, eig_hermitian):
        es = solver(a)
        _assert_record_shape(es)
        assert not es.eigenvalues.imag.any()
        assert es.defective is False
        assert sorted(c.size for c in es.clusters) == sorted(sizes)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("step", [1e-10, 1e-10j], ids=["real", "complex"])
def test_a_nearly_hermitian_jordan_block_reads_defective(n, step):
    # lam I + eps N is Hermitian at tolerance but not entry for entry, so it
    # keeps the general driver, whose eigenvectors come out nearly parallel
    a = 2.0 * np.eye(n) + step * np.eye(n, k=1)
    assert 0.0 < herm_residual(a) <= DEFAULT_TOL
    assert eig_general(a).defective
