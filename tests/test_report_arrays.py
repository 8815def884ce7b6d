"""The per-sample arrays of the lattice, X-family and push reports.

Each is read-only and has one entry per sample, or per kept eigenpair of
the push, in input order; a list of vectors and the stacked array give
the same report.
"""

import numpy as np
import pytest

from qherm import (
    Operator,
    make_metric,
    push_eigenvectors,
    verify_lattice,
    x_family,
    x_properties,
)
from helpers import manufactured_quasi_hermitian, random_pd, rng


def _assert_read_only(arrays, length):
    for a in arrays:
        assert a.shape[-1] == length
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0] = 0


def test_lattice_report_arrays():
    gen = rng(90)
    n, s = 5, 4
    m = make_metric(Operator(random_pd(gen, n)))
    block = gen.standard_normal((s, n)) + 1j * gen.standard_normal((s, n))
    rep = verify_lattice(m, block)
    per_sample = (
        rep.projective_residuals,
        rep.duality_exact_residuals,
        rep.duality_sample_slacks,
        rep.unitarity_residuals,
        rep.chain_verdicts,
    )
    assert rep.norms.shape == (7, s)
    assert all(x.shape == (s,) for x in per_sample)
    assert rep.chain_verdicts.dtype == bool
    _assert_read_only((rep.norms, *per_sample), s)
    listed = verify_lattice(m, list(block))
    assert np.array_equal(listed.norms, rep.norms)
    assert np.array_equal(listed.duality_sample_slacks, rep.duality_sample_slacks)


def test_x_properties_report_arrays():
    gen = rng(91)
    n, s = 6, 3
    a, _ = manufactured_quasi_hermitian(gen, n)
    xf = x_family(Operator(a))
    block = gen.standard_normal((s, 2, n)) + 1j * gen.standard_normal((s, 2, n))
    rep = x_properties(xf, Operator(a), block)
    per_sample = (
        rep.endpoint_residuals,
        rep.total_variations,
        rep.variation_bounds,
        rep.reconstruction_residuals,
    )
    assert all(x.shape == (s,) for x in per_sample)
    assert rep.jump_values.shape == (len(xf.thresholds), s)
    _assert_read_only((*per_sample, rep.jump_values), s)
    listed = x_properties(xf, Operator(a), [(xi, eta) for xi, eta in block])
    assert np.array_equal(listed.jump_values, rep.jump_values)
    assert np.array_equal(listed.variation_bounds, rep.variation_bounds)


def test_push_report_arrays():
    # T annihilates the eigenvector of 2: two of the three pairs are kept
    d = np.diag([1.0, 2.0, 3.0])
    rep = push_eigenvectors(d, d, np.diag([1.0, 0.0, 1.0]))
    kept = (rep.eigenvalues, rep.image_norms, rep.residuals)
    assert all(x.shape == (2,) for x in kept)
    assert list(rep.eigenvalues) == pytest.approx([1.0, 3.0])
    assert [lam for lam, _ in rep.annihilated] == pytest.approx([2.0])
    _assert_read_only(kept, 2)
