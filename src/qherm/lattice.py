"""Metric operators, their square roots, and the seven-norm lattice they generate.

A metric operator is a Hermitian positive-definite ``G``, held with its
eigendecomposition by :func:`make_metric`; ``G^1/2`` and ``G^-1/2`` are
its ``G_half`` and ``G_invhalf``, reassembled from it on first read.
Around one ``G`` live seven inner products: the plain one, the ``G`` and
``G^-1`` ones, and the four built from the Riesz operators
``R_G = I + G`` and ``I + G^-1`` and their inverses.  At finite dimension
the underlying spaces coincide as sets, so this module materializes the
lattice purely as computable norms, together with verification of the
projective-norm identity, the duality relation and the embedding chain.
No Riesz operator is formed as a matrix.  The seven norms have one
implementation, a block pass over the samples, one ``(s, n)`` array read
as the columns of ``X``, that forms their eigen-coordinates ``Y = V* X``
and ``G X`` once each; :func:`lattice_norms` is its one-column call.  The
``R_G`` norms ``rg`` and ``rg_inv`` come from that pass, and the maximizer
``R_G^-1 xi`` of their duality from :func:`verify_lattice`, which runs one
such pass and reuses its ``Y`` for every check, each an array expression
over the samples that it reports as one array: functions of ``G`` act on
the eigen-coordinates and are never formed as n x n matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    Operator,
    eig_hermitian,
    herm_part,
    inner,
    readonly,
    sample_block,
    unit_scaled_vectors,
)
from .errors import NotPositiveDefinite

_TINY = np.finfo(np.float64).tiny

__all__ = [
    "MetricOperator",
    "LatticeNorms",
    "LatticeReport",
    "make_metric",
    "g_inner",
    "lattice_norms",
    "verify_lattice",
]


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Positive-definite Hermitian ``G`` with its ascending eigendecomposition.

    ``G = V diag(w) V*`` for ``w = eigenvalues`` and ``V = eigenvectors``
    (stored as read-only copies).  The roots ``G_half`` and ``G_invhalf``
    are reassembled from them on first read and then kept; two threads
    reading a root at once at worst both compute the same value.  The
    stored eigendecomposition also makes the Riesz-operator norms
    diagonal arithmetic.
    """

    G: Operator
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("eigenvalues", np.float64), ("eigenvectors", np.complex128)):
            object.__setattr__(self, name, readonly(np.array(getattr(self, name), dtype=dtype)))

    @property
    def dim(self) -> int:
        return self.G.dim

    @property
    def eig_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def eig_max(self) -> float:
        return float(self.eigenvalues[-1])

    @cached_property
    def G_half(self) -> Operator:
        v, root = self.eigenvectors, np.sqrt(self.eigenvalues)
        return Operator(herm_part((v * root) @ v.conj().T), "sqrt")

    @cached_property
    def G_invhalf(self) -> Operator:
        v, root = self.eigenvectors, np.sqrt(self.eigenvalues)
        return Operator(herm_part((v / root) @ v.conj().T), "invsqrt")

    @staticmethod
    def identity(dim: int) -> "MetricOperator":
        return MetricOperator(Operator.identity(dim), np.ones(dim), np.eye(dim))

    def inverse_matrix(self) -> np.ndarray:
        """Dense ``G^-1`` from the stored eigendecomposition."""
        v, w = self.eigenvectors, self.eigenvalues
        return herm_part((v / w) @ v.conj().T)


def make_metric(G: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> MetricOperator:
    """Validate ``G`` and keep its eigendecomposition.

    Raises :class:`NotHermitian` or :class:`NotPositiveDefinite` (the
    positivity margin is ``tol * ||G||_2``).
    """
    es = eig_hermitian(G, tol)
    w = es.eigenvalues.real
    wmin = float(w[0])
    if wmin <= tol * max(float(np.abs(w).max()), _TINY):
        raise NotPositiveDefinite(
            f"minimum eigenvalue {wmin:.3e} fails the positivity margin",
            min_eigenvalue=wmin,
        )
    return MetricOperator(es.operator, w, es.right_vectors)


def g_inner(M: MetricOperator, xi: np.ndarray, eta: np.ndarray) -> complex:
    """The ``G``-inner product ``<G xi, eta>``, linear in ``xi``."""
    xi, eta = sample_block([xi, eta], (M.dim,), "g_inner")
    return inner(M.G.matrix @ xi, eta)


@dataclass(frozen=True)
class LatticeNorms:
    """The seven norms of one vector, keyed by the generating operator."""

    plain: float
    g: float
    g_inv: float
    rg: float
    rg_inv: float
    rginv: float
    rginv_inv: float


def _rg_squared(M: MetricOperator, Z: np.ndarray) -> np.ndarray:
    # <z, z> + <G z, z> per column of Z, the squared R_G-norms from one G product
    return np.sum(Z.conj() * (Z + M.G.matrix @ Z), axis=0).real


def _block_norms(M: MetricOperator, samples, caller: str) -> tuple:
    """The samples as the columns of ``X``, sample ``j`` scaled by ``2**k[j]``;
    the seven norms of every column of ``X``; ``Y = V* X``; and ``k``.

    ``k[j]`` is the exponent :func:`~qherm.core.unit_exponent` picks for
    sample ``j`` alone, so that no square of its entries under- or
    overflows, however its scale compares with the other samples'; the
    norms of sample ``j`` itself are those of column ``j`` times
    ``2**-k[j]``, exactly.  Row ``i`` of the 7 x s norm array is field
    ``i`` of :class:`LatticeNorms`.
    """
    block, k = unit_scaled_vectors(sample_block(samples, (M.dim,), caller))
    # C order, so that the column norms sum each column in row order
    X = np.ascontiguousarray(block.T)
    v, w = M.eigenvectors, M.eigenvalues
    # Y = V* X, taken as (X* V)* so that V is not copied conjugated
    Y = (X.T.conj() @ v).conj().T
    weights = np.array([w, 1.0 / w, 1.0 / (1.0 + w), 1.0 + 1.0 / w, w / (1.0 + w)])
    g, g_inv, rg_inv, rginv, rginv_inv = np.sqrt(weights @ np.abs(Y) ** 2)
    plain = np.linalg.norm(X, axis=0)
    rg = np.sqrt(np.maximum(_rg_squared(M, X), 0.0))
    return X, np.array([plain, g, g_inv, rg, rg_inv, rginv, rginv_inv]), Y, k


def lattice_norms(M: MetricOperator, xi: np.ndarray) -> LatticeNorms:
    """Evaluate all seven lattice norms of ``xi``.

    This is the block pass of :func:`verify_lattice` on one column.
    ``rg`` comes from one ``G`` product and ``plain`` from ``xi`` itself;
    the other five are quadratic forms ``sqrt(sum f(w_k) |y_k|^2)`` in the
    coordinates ``y = V* xi`` of the stored eigenbasis, so the projective
    identity ``rg**2 == plain**2 + g**2`` compares two different
    computations and is a genuine floating-point check.
    """
    _, norms, _, k = _block_norms(M, [xi], "lattice_norms")
    return LatticeNorms(*np.ldexp(norms[:, 0], -k[0]).tolist())


@dataclass(frozen=True, eq=False)
class LatticeReport:
    """Outcome of :func:`verify_lattice` over a sample of vectors.

    ``norms`` is the read-only 7 x s array of the seven norms of every
    sample, row ``k`` field ``k`` of :class:`LatticeNorms` and column ``j``
    sample ``j``.  The per-sample residuals and the chain verdicts are
    read-only arrays with one entry per sample, in sample order.
    """

    tol: float
    rescale_factor: float
    norms: np.ndarray
    projective_residuals: np.ndarray
    duality_exact_residuals: np.ndarray
    duality_sample_slacks: np.ndarray
    unitarity_residuals: np.ndarray
    chain_verdicts: np.ndarray
    max_projective_residual: float
    max_duality_residual: float
    max_unitarity_residual: float
    chain_holds: bool
    passed: bool


def verify_lattice(
    M: MetricOperator,
    samples: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> LatticeReport:
    """Check the lattice relations on a nonempty sample of vectors.

    ``samples`` is an ``(s, n)`` array-like, one sample per row (a list of
    vectors is one), read by :func:`~qherm.core.sample_block`: an empty
    sample raises ``ValueError``, and a shape other than ``(s, M.dim)``,
    rows of different lengths included, :class:`DimensionMismatch`.
    Samples of any scale, each on its own, are accepted: every check is
    decided on the samples each scaled by its own exact power of two, where
    no square of an entry under- or overflows (every residual is a ratio
    per sample, and in a Gram ratio ``<xi_j, xi_i> / ||xi_i||_rg`` the
    scale of ``xi_i`` cancels), and ``norms`` is scaled back exactly.

    Per sample: (a) the projective-norm identity, (b) the duality between
    the ``R_G``-norm and its inverse norm — the supremum is taken over the
    sample augmented with the maximizer ``R_G^-1 xi``, which attains it
    exactly at finite dimension, (c) unitarity of ``R_G^1/2`` from the
    ``R_G``-norm to the plain one, and (d) the embedding chain
    ``g <= plain <= g_inv`` after rescaling ``G`` to unit top eigenvalue.

    The samples are the columns of ``X``; one block pass forms ``Y = V* X``
    and ``G X`` once and reads the seven norms of every sample off them.
    For (c) and the candidates of (b), ``R_G^1/2`` and ``R_G^-1`` act on
    the same ``Y`` as ``V (f(w) Y)`` with ``f(w) = sqrt(1+w)`` and
    ``1/(1+w)``, so no n x n function of ``G`` is formed.  The ratios
    ``|<xi_j, xi_k>| / ||xi_k||_rg`` of (b) come from one s x s Gram block
    ``X* X``, and a candidate with zero ``R_G``-norm is skipped.  Every
    check is one array expression over the samples.
    """
    X, norms, Y, k = _block_norms(M, samples, "verify_lattice")
    plain, g, g_inv, rg, rg_inv = norms[:5]
    v, w = M.eigenvectors, M.eigenvalues
    eta = v @ (Y / (1.0 + w)[:, None])
    unit = np.linalg.norm(v @ (Y * np.sqrt(1.0 + w)[:, None]), axis=0)
    # row i < s: <xi_j, xi_i> over ||xi_i||_rg; last row: <xi_j, eta_j> over
    # ||eta_j||_rg; a candidate's zero denominator is read as inf, its ratio as 0
    dots = np.vstack([X.conj().T @ X, np.sum(eta.conj() * X, axis=0)])
    eta_rg = np.sqrt(np.maximum(_rg_squared(M, eta), 0.0))
    denoms = np.vstack([np.broadcast_to(rg[:, None], dots[:-1].shape), eta_rg])
    ratios = np.hypot(dots.real, dots.imag) / np.where(denoms > _TINY, denoms, np.inf)
    sup_samples, sup_all = ratios[:-1].max(axis=0), ratios.max(axis=0)
    rg2 = rg**2
    proj = abs(rg2 - plain**2 - g**2) / np.maximum(rg2, _TINY)
    dual = abs(sup_all - rg_inv) / np.maximum(rg_inv, _TINY)
    found = sup_samples > _TINY
    slack = np.where(found, rg_inv / np.where(found, sup_samples, 1.0), np.inf)
    unit_res = abs(unit - rg) / np.maximum(rg, _TINY)
    rescale = 1.0 / M.eig_max
    scale_root = float(np.sqrt(rescale))
    room = tol * np.maximum(plain, 1.0)
    chain = (g * scale_root <= plain + room) & (plain <= g_inv / scale_root + room)
    per_sample = map(readonly, (np.ldexp(norms, -k), proj, dual, slack, unit_res, chain))
    max_proj, max_dual, max_unit = (float(r.max()) for r in (proj, dual, unit_res))
    chain_all = bool(chain.all())
    passed = max_proj <= tol and max_dual <= tol and max_unit <= tol and chain_all
    return LatticeReport(
        tol, rescale, *per_sample, max_proj, max_dual, max_unit, chain_all, passed
    )
