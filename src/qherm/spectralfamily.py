"""Spectral families and non-orthogonal resolutions of the identity.

For a quasi-Hermitian ``A`` with metric ``G`` the conjugated family
``X(lam) = G^-1/2 E(lam) G^1/2``, where ``E(lam)`` is the spectral family
of the transform ``K = G^1/2 A G^-1/2``, is an increasing family of
oblique idempotents whose jumps decompose ``A`` as a spectral operator of
scalar type: ``A = sum lam_k P_k`` over the ``thresholds`` ``lam_k`` and
the ``jumps()`` ``P_k`` of :class:`XFamily`.  At finite dimension
``X(lam)`` is the cumulative Riesz projector of ``A`` (Kato,
*Perturbation Theory for Linear Operators*, I.5), the same for every
admissible metric.  The Hermitian spectral family ``E(lam)`` is the case
``G = I``, and :func:`spectral_family` returns it as an :class:`XFamily`
whose factors are an orthonormal eigenbasis and its adjoint.  Families
are finite step functions: evaluation at ``lam`` returns the largest
accumulated projector with threshold at most ``lam``, which makes
right-continuity a representation invariant rather than a numerical
claim.

A family is stored factored.  With ``e_k`` the end of eigenvalue cluster
``k``, ``X(lam_k) = S[:, :e_k] S^-1[:e_k, :]`` for the scaled eigenvector
matrix ``S`` of ``A`` (``E(lam_k) = W[:, :e_k] W[:, :e_k]*`` for the
orthonormal eigenbasis ``W`` of a Hermitian ``H``): thresholds, ends
``e_k`` and two n x n blocks ``R``, ``L`` with ``L R = I``, so O(n^2)
memory, built in O(n^3) time by one eigensolver (and one inverse for
``X``).  ``evaluate`` costs one n x e_k x n product; ``jumps()`` and the
``x_projectors`` tuple materialize O(#clusters * n^2) on each access.
Sampled values ``<P_k xi, eta>`` for a stack of vector pairs come from
``jump_values`` in O(n^2) per pair, without forming any projector;
``x_properties`` reads its pairs as one ``(s, 2, n)`` array and reports
one array entry per pair.

At finite dimension the decomposition forces ``sigma(A) = sigma(K)``; for
unbounded operators with an unbounded metric inverse that equality can
fail, a caveat with no matrix counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import (
    DEFAULT_TOL,
    Eigensystem,
    Operator,
    eig_hermitian,
    ensure_operator,
)
from .errors import DimensionMismatch
from .quasihermitian import canonical_eigenbasis, invert_basis

__all__ = [
    "XFamily",
    "XPropertiesReport",
    "spectral_family",
    "x_family",
    "x_properties",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class XFamily:
    """The step family ``X(lam_k) = R[:, :e_k] @ L[:e_k, :]`` held by its factors.

    Cumulative, idempotent, generally non-Hermitian; the top member is
    the identity.  ``thresholds`` ascend, ``ends`` are the cumulative
    cluster ends ``e_k`` (the last equals the dimension) and
    ``right_vectors`` ``R`` / ``left_vectors`` ``L`` are n x n with
    ``L @ R = I``: column ``i`` of ``R`` and row ``i`` of ``L`` are the
    right and left eigenvectors of the ``i``-th eigenvalue in ascending
    order.  From :func:`x_family`, ``R`` is the canonically scaled
    eigenvector matrix ``S`` of the operator and ``L`` its inverse; from
    :func:`spectral_family`, ``R`` is an orthonormal eigenbasis ``W`` and
    ``L = W*``, so the members are the orthogonal projectors ``E(lam_k)``.
    """

    thresholds: np.ndarray
    ends: np.ndarray
    right_vectors: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)

    def _starts(self) -> np.ndarray:
        return np.concatenate(([0], self.ends[:-1]))

    def evaluate(self, lam: float) -> np.ndarray:
        """Value of the step function at ``lam`` (zero below all thresholds)."""
        k = int(np.searchsorted(self.thresholds, lam, side="right"))
        if k == 0:
            n = self.right_vectors.shape[0]
            return np.zeros((n, n), dtype=np.complex128)
        end = self.ends[k - 1]
        return self.right_vectors[:, :end] @ self.left_vectors[:end, :]

    def jumps(self) -> list[np.ndarray]:
        """The idempotent jumps ``P_k = X(lam_k) - X(lam_{k-1})``, one per cluster.

        With :attr:`thresholds` they are the scalar-type decomposition
        ``A = sum lam_k P_k`` into mutually annihilating idempotents.
        """
        return [
            self.right_vectors[:, s:e] @ self.left_vectors[s:e, :]
            for s, e in zip(self._starts(), self.ends)
        ]

    @property
    def x_projectors(self) -> tuple[Operator, ...]:
        """The cumulative projectors ``X(lam_k)``, built on each access."""
        return tuple(Operator(m) for m in accumulate(self.jumps()))

    def _coordinates(self, xis: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (L xi_j, R* eta_j): the coefficients of xi_j in the columns of R and
        # the inner products of eta_j with them
        return self.left_vectors @ xis, self.right_vectors.conj().T @ etas

    def _jump_sums(self, lx: np.ndarray, rh: np.ndarray) -> np.ndarray:
        return np.add.reduceat(rh.conj() * lx, self._starts(), axis=0)

    def jump_values(self, xis: np.ndarray, etas: np.ndarray) -> np.ndarray:
        """``<P_k xi_j, eta_j>`` for every jump ``P_k`` and sample column ``j``.

        ``xis`` and ``etas`` stack the samples as columns (n x s); the
        result has one row per threshold.  Its cumulative sum over rows is
        the path ``<X(lam_k) xi_j, eta_j>``.
        """
        return self._jump_sums(*self._coordinates(xis, etas))


def _steps(es: Eigensystem) -> tuple[np.ndarray, np.ndarray]:
    # thresholds (cluster means) and cumulative cluster ends of a real spectrum
    thresholds = np.array([c.value.real for c in es.clusters])
    ends = np.array([c.start + c.size for c in es.clusters])
    return _readonly(thresholds), _readonly(ends)


def spectral_family(H: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> XFamily:
    """Self-adjoint spectral family ``E(lam)`` of a Hermitian operator.

    The ``G = I`` case of :func:`x_family`: thresholds are the means of
    the clusters of ``eig_hermitian(H, tol)``, the factors are its
    orthonormal eigenbasis ``W`` and ``W*``, and the members ``x_projectors``
    accumulate the eigenspaces, of ranks ``ends``.
    """
    es = eig_hermitian(H, tol)
    W = es.right_vectors
    return XFamily(*_steps(es), _readonly(W), _readonly(W.conj().T))


def x_family(A: Operator | Eigensystem | np.ndarray, tol: float = DEFAULT_TOL) -> XFamily:
    """Non-orthogonal resolution of identity for a quasi-Hermitian ``A``.

    ``X(lam_k) = S[:, :e_k] S^-1[:e_k, :]`` for the canonically scaled
    eigenvector matrix ``S`` of ``A``; thresholds and ends ``e_k`` come
    from the clusters of its :class:`Eigensystem`.

    Raises :class:`ComplexSpectrum` or :class:`Defective` when no
    positive metric exists; warns :class:`IllConditionedWarning` when the
    eigenvector basis is badly conditioned, which one SVD without vectors
    decides only where ``||S||_F ||S^-1||_F`` exceeds the threshold
    (:func:`~qherm.quasihermitian.invert_basis`).
    """
    es = canonical_eigenbasis(A, tol, "x_family")
    s = es.scaled_vectors
    s_inv, _ = invert_basis(s, "X family is ill-conditioned")
    return XFamily(*_steps(es), s, _readonly(s_inv))


@dataclass(frozen=True, eq=False)
class XPropertiesReport:
    """Verification of the step-family properties on sampled vector pairs.

    Right-continuity is structural for step functions evaluated by the
    "largest threshold <= lam" convention, so it is reported as a
    representation fact, not measured.  The endpoint residuals, total
    variations, variation bounds and reconstruction residuals are
    read-only arrays with one entry per sample.  ``jump_values`` is the
    read-only array of the ``<P_k xi_j, eta_j>`` the checks were computed
    from, one row per threshold and one column per sample, as
    :meth:`XFamily.jump_values` returns it; its cumulative sum over rows
    is the path ``<X(lam_k) xi_j, eta_j>`` of each sample.
    """

    endpoint_residuals: np.ndarray
    total_variations: np.ndarray
    variation_bounds: np.ndarray
    reconstruction_residuals: np.ndarray
    max_endpoint_residual: float
    variation_violations: int
    max_reconstruction_residual: float
    right_continuous: bool
    passed: bool
    jump_values: np.ndarray = field(repr=False)


def x_properties(
    XF: XFamily,
    A: Operator | np.ndarray,
    samples: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> XPropertiesReport:
    """Check the four step-family properties per sampled pair ``(xi, eta)``.

    ``samples`` is an ``(s, 2, n)`` array-like of the pairs, ``xi`` then
    ``eta`` (a list of pairs is one).

    (i) the path vanishes below the spectrum and reaches ``<xi, eta>`` at
    the top; (ii) right-continuity, structural; (iii) total variation of
    ``lam -> <X(lam) xi, eta>`` bounded by ``||L xi|| ||R* eta||`` up to a
    relative margin ``tol``, which is ``||G^1/2 xi|| ||G^-1/2 eta||`` for
    the canonical metric ``G``, proportional to ``(S S*)^-1`` (its scale
    cancels); (iv) ``<A xi, eta>`` equals the Stieltjes sum of the jumps,
    relative to ``max(||A xi||, rho ||xi||) ||eta||`` with ``rho`` the largest
    ``|threshold|``: the Cauchy-Schwarz bound of ``<A xi, eta>``, kept from
    falling below the rounding of the sum where ``xi`` is near the kernel of
    ``A``.  The scale is at most ``||A||_2 ||xi|| ||eta||`` and takes no SVD.

    Raises :class:`DimensionMismatch` when ``A`` or the samples do not
    match the dimension of ``XF``, sample vectors of different lengths
    included.
    """
    if len(samples) == 0:
        raise ValueError("x_properties needs a nonempty sample list")
    A = ensure_operator(A)
    n = XF.right_vectors.shape[0]
    try:
        pairs = np.asarray(samples, dtype=np.complex128)
    except ValueError as exc:  # vectors of different lengths
        raise DimensionMismatch(f"sample vectors of different lengths against dim {n}") from exc
    if A.dim != n or pairs.shape[1:] != (2, n):
        raise DimensionMismatch(f"operator or samples of shape {pairs.shape} against dim {n}")
    xis, etas = pairs[:, 0].T, pairs[:, 1].T
    nx = np.linalg.norm(xis, axis=0)
    ne = np.linalg.norm(etas, axis=0)
    scale = np.maximum(nx * ne, 1e-300)
    lx, rh = XF._coordinates(xis, etas)
    values = _readonly(XF._jump_sums(lx, rh))
    # the path <X(lam) xi, eta> is zero below the first threshold and
    # reaches the sum of the jump values at the top
    top = values.sum(axis=0)
    endpoint = np.abs(top - np.sum(etas.conj() * xis, axis=0)) / scale
    variation = np.abs(values).sum(axis=0)
    bound = np.linalg.norm(lx, axis=0) * np.linalg.norm(rh, axis=0)
    stieltjes = XF.thresholds @ values
    a_xis = A.matrix @ xis
    a_values = np.sum(etas.conj() * a_xis, axis=0)
    rho = float(np.abs(XF.thresholds).max())
    a_scale = np.maximum(np.linalg.norm(a_xis, axis=0), rho * nx)
    recon = np.abs(a_values - stieltjes) / np.maximum(a_scale * ne, 1e-300)
    max_endpoint = float(endpoint.max())
    # Cauchy-Schwarz is exact, so a relative margin is scale-free
    violations = int(np.count_nonzero(variation > bound * (1.0 + tol)))
    max_recon = float(recon.max())
    passed = max_endpoint <= tol and violations == 0 and max_recon <= tol
    per_sample = map(_readonly, (endpoint, variation, bound, recon))
    return XPropertiesReport(
        *per_sample, max_endpoint, violations, max_recon, True, passed, values
    )
