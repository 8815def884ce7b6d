"""Metric operators, their square roots, and the seven-norm lattice they generate.

A metric operator is a Hermitian positive-definite ``G``, held with its
eigendecomposition; ``G^1/2`` and ``G^-1/2`` are reassembled from it on
first read, and :func:`sqrt_pd` is such a read.  Around one ``G`` live
seven inner products: the plain one, the ``G`` and ``G^-1`` ones, and the
four built from the Riesz operators ``I + G`` and ``I + G^-1`` and their
inverses.  At finite dimension the underlying spaces coincide as sets, so
this module materializes the lattice purely as computable norms, together
with verification of the projective-norm identity, the duality relation
and the embedding chain.  The verification runs on the whole sample block
at once, in the stored eigenbasis: functions of ``G`` act on the
eigen-coordinates of the samples and are never formed as n x n matrices.
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
)
from .errors import DimensionMismatch, NotPositiveDefinite

_TINY = np.finfo(np.float64).tiny

__all__ = [
    "MetricOperator",
    "LatticeNorms",
    "LatticeReport",
    "make_metric",
    "sqrt_pd",
    "g_inner",
    "riesz_operator",
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
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


def sqrt_pd(G: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """Positive-definite square root and its inverse, ``(G^1/2, G^-1/2)``.

    Both results are Hermitian positive definite; built by spectral
    reassembly so they commute with ``G`` exactly up to rounding.
    """
    M = make_metric(G, tol)
    return M.G_half, M.G_invhalf


def g_inner(M: MetricOperator, xi: np.ndarray, eta: np.ndarray) -> complex:
    """The ``G``-inner product ``<G xi, eta>``, linear in ``xi``."""
    xi = np.asarray(xi, dtype=np.complex128)
    eta = np.asarray(eta, dtype=np.complex128)
    if xi.shape != (M.dim,) or eta.shape != (M.dim,):
        raise DimensionMismatch(
            f"vectors of shape {xi.shape}, {eta.shape} against dim {M.dim}"
        )
    return inner(M.G.matrix @ xi, eta)


def riesz_operator(M: MetricOperator) -> Operator:
    """The Riesz operator ``I + G``; itself a metric with eig_min >= 1."""
    return Operator(np.eye(M.dim) + M.G.matrix, "riesz")


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

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.plain,
            self.g,
            self.g_inv,
            self.rg,
            self.rg_inv,
            self.rginv,
            self.rginv_inv,
        )


def _rg_norm(M: MetricOperator, xi: np.ndarray) -> float:
    # sqrt(<xi, xi> + <G xi, xi>), the R_G-norm from one G-matvec
    return float(np.sqrt(max(inner(xi, xi).real + inner(M.G.matrix @ xi, xi).real, 0.0)))


def lattice_norms(M: MetricOperator, xi: np.ndarray) -> LatticeNorms:
    """Evaluate all seven lattice norms of ``xi``.

    ``rg`` comes from one ``G`` matvec and ``plain`` from ``xi`` itself;
    the other five are quadratic forms ``sqrt(sum f(w_k) |y_k|^2)`` in
    the coordinates ``y = V* xi`` of the stored eigenbasis, so the
    projective identity ``rg**2 == plain**2 + g**2`` compares two
    different computations and is a genuine floating-point check.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.shape != (M.dim,):
        raise DimensionMismatch(f"vector of shape {xi.shape} against dim {M.dim}")
    w = M.eigenvalues
    # |V* xi|^2 as |xi* V|^2: the same products up to sign, and no conjugated
    # copy of V
    y2 = np.abs(xi.conj() @ M.eigenvectors) ** 2
    weights = np.array([w, 1.0 / w, 1.0 / (1.0 + w), 1.0 + 1.0 / w, w / (1.0 + w)])
    g, g_inv, rg_inv, rginv, rginv_inv = map(float, np.sqrt(np.sum(weights * y2, axis=1)))
    plain = float(np.linalg.norm(xi))
    return LatticeNorms(plain, g, g_inv, _rg_norm(M, xi), rg_inv, rginv, rginv_inv)


@dataclass(frozen=True)
class LatticeSampleChecks:
    """Per-sample residuals of the lattice verification."""

    norms: LatticeNorms
    projective_residual: float
    duality_exact_residual: float
    duality_sample_slack: float
    unitarity_residual: float
    chain_holds: bool


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of :func:`verify_lattice` over a sample of vectors."""

    tol: float
    rescale_factor: float
    samples: tuple[LatticeSampleChecks, ...]
    max_projective_residual: float
    max_duality_residual: float
    max_unitarity_residual: float
    chain_holds: bool
    passed: bool


def verify_lattice(
    M: MetricOperator,
    samples: list[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> LatticeReport:
    """Check the lattice relations on a nonempty sample of vectors.

    Per sample: (a) the projective-norm identity, (b) the duality between
    the ``R_G``-norm and its inverse norm — the supremum is taken over the
    sample augmented with the maximizer ``R_G^-1 xi``, which attains it
    exactly at finite dimension, (c) unitarity of ``R_G^1/2`` from the
    ``R_G``-norm to the plain one, and (d) the embedding chain
    ``g <= plain <= g_inv`` after rescaling ``G`` to unit top eigenvalue.

    Once :func:`lattice_norms` has validated every sample, the samples
    are stacked as the columns of ``X`` and taken to the eigenbasis once,
    ``Y = V* X``.  For (c) and the candidates of (b), ``R_G^1/2`` and
    ``R_G^-1`` act as ``V (f(w) Y)`` with ``f(w) = sqrt(1+w)`` and
    ``1/(1+w)``, so no n x n function of ``G`` is formed.  The ratios
    ``|<xi_j, xi_k>| / ||xi_k||_rg`` of (b) come from one s x s Gram block
    ``X* X``, and a candidate with zero ``R_G``-norm is skipped.
    """
    if not samples:
        raise ValueError("verify_lattice needs a nonempty sample list")
    sample_norms = [lattice_norms(M, xi) for xi in samples]
    X = np.array(samples, dtype=np.complex128).T
    v, w = M.eigenvectors, M.eigenvalues
    # Y = V* X, taken as (X* V)* so that V is not copied conjugated
    Y = (X.T.conj() @ v).conj().T
    eta = v @ (Y / (1.0 + w)[:, None])
    unit = np.linalg.norm(v @ (Y * np.sqrt(1.0 + w)[:, None]), axis=0)
    # row k < s: <xi_j, xi_k> over ||xi_k||_rg; last row: <xi_j, eta_j> over ||eta_j||_rg
    dots = np.vstack([X.conj().T @ X, np.sum(eta.conj() * X, axis=0)])
    eta_rg2 = np.sum(eta.conj() * (eta + M.G.matrix @ eta), axis=0).real
    rg = np.array([[norms.rg] for norms in sample_norms])
    denoms = np.vstack([np.repeat(rg, len(samples), axis=1), np.sqrt(np.maximum(eta_rg2, 0.0))])
    live = denoms > _TINY
    ratios = np.where(live, np.hypot(dots.real, dots.imag) / np.where(live, denoms, 1.0), 0.0)
    sup_samples, sup_all = ratios[:-1].max(axis=0), ratios.max(axis=0)
    rescale = 1.0 / M.eig_max
    scale_root = float(np.sqrt(rescale))
    rows = []
    for norms, sup_s, sup_a, u in zip(sample_norms, sup_samples, sup_all, unit):
        rg2 = norms.rg**2
        proj = abs(rg2 - norms.plain**2 - norms.g**2) / max(rg2, _TINY)
        dual_exact = abs(float(sup_a) - norms.rg_inv) / max(norms.rg_inv, _TINY)
        slack = norms.rg_inv / float(sup_s) if sup_s > _TINY else float("inf")
        unit_res = abs(float(u) - norms.rg) / max(norms.rg, _TINY)

        g_scaled = norms.g * scale_root
        ginv_scaled = norms.g_inv / scale_root
        slack_chain = tol * max(norms.plain, 1.0)
        chain = (
            g_scaled <= norms.plain + slack_chain
            and norms.plain <= ginv_scaled + slack_chain
        )
        rows.append(
            LatticeSampleChecks(norms, proj, dual_exact, slack, unit_res, chain)
        )
    max_proj = max(r.projective_residual for r in rows)
    max_dual = max(r.duality_exact_residual for r in rows)
    max_unit = max(r.unitarity_residual for r in rows)
    chain_all = all(r.chain_holds for r in rows)
    passed = max_proj <= tol and max_dual <= tol and max_unit <= tol and chain_all
    return LatticeReport(
        tol, rescale, tuple(rows), max_proj, max_dual, max_unit, chain_all, passed
    )
