"""Metric operators and the seven-norm lattice they generate.

A metric operator is a Hermitian positive-definite ``G``.  Around one
``G`` live seven inner products: the plain one, the ``G`` and ``G^-1``
ones, and the four built from the Riesz operators ``I + G`` and
``I + G^-1`` and their inverses.  At finite dimension the underlying
spaces coincide as sets, so this module materializes the lattice purely
as computable norms, together with verification of the projective-norm
identity, the duality relation and the embedding chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Operator,
    _pd_eigh,
    _pd_roots,
    ensure_operator,
    herm_part,
    inner,
)
from .errors import DimensionMismatch

_TINY = np.finfo(np.float64).tiny

__all__ = [
    "MetricOperator",
    "LatticeNorms",
    "LatticeReport",
    "make_metric",
    "g_inner",
    "riesz_operator",
    "lattice_norms",
    "verify_lattice",
]


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Validated positive-definite Hermitian ``G`` with cached roots.

    ``eigenvalues``/``eigenvectors`` hold the ascending eigendecomposition
    used to build ``G_half`` and ``G_invhalf``; keeping it around makes the
    Riesz-operator norms diagonal arithmetic.
    """

    G: Operator
    G_half: Operator
    G_invhalf: Operator
    eig_min: float
    eig_max: float
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.G.dim

    @staticmethod
    def identity(dim: int) -> "MetricOperator":
        eye = Operator.identity(dim)
        w = np.ones(dim)
        v = np.eye(dim)
        w.setflags(write=False)
        v.setflags(write=False)
        return MetricOperator(eye, eye, eye, 1.0, 1.0, w, v)

    def inverse_matrix(self) -> np.ndarray:
        """Dense ``G^-1`` from the cached eigendecomposition."""
        v, w = self.eigenvectors, self.eigenvalues
        return herm_part((v / w) @ v.conj().T)

    def function_matrix(self, values: np.ndarray) -> np.ndarray:
        """Dense ``f(G)`` for eigenvalue-wise ``values = f(eigenvalues)``."""
        v = self.eigenvectors
        return (v * values) @ v.conj().T


def _metric_from_eigh(G: Operator, w: np.ndarray, v: np.ndarray) -> MetricOperator:
    half, invhalf = _pd_roots(w, v)
    arr_w = np.array(w, dtype=np.float64)
    arr_w.setflags(write=False)
    arr_v = np.array(v, dtype=np.complex128)
    arr_v.setflags(write=False)
    return MetricOperator(
        G, Operator(half), Operator(invhalf), float(w[0]), float(w[-1]), arr_w, arr_v
    )


def make_metric(G: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> MetricOperator:
    """Validate ``G`` and cache its square roots and extremal eigenvalues.

    Raises :class:`NotHermitian` or :class:`NotPositiveDefinite` (the
    positivity margin is ``tol * ||G||_2``).
    """
    G = ensure_operator(G)
    return _metric_from_eigh(G, *_pd_eigh(G.matrix, tol))


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


def _quad_norm(M: MetricOperator, values: np.ndarray, xi: np.ndarray) -> float:
    # sqrt(<f(G) xi, xi>) by diagonal arithmetic in the eigenbasis
    y = M.eigenvectors.conj().T @ xi
    q = float(np.sum(values * np.abs(y) ** 2).real)
    return float(np.sqrt(max(q, 0.0)))


def lattice_norms(M: MetricOperator, xi: np.ndarray) -> LatticeNorms:
    """Evaluate all seven lattice norms of ``xi``.

    ``plain``, ``g`` and ``g_inv`` are computed from matrix products while
    the four Riesz norms use quadratic forms, so the projective identity
    ``rg**2 == plain**2 + g**2`` is a genuine floating-point check.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.shape != (M.dim,):
        raise DimensionMismatch(f"vector of shape {xi.shape} against dim {M.dim}")
    w = M.eigenvalues
    plain = float(np.linalg.norm(xi))
    g = float(np.linalg.norm(M.G_half.matrix @ xi))
    g_inv = float(np.linalg.norm(M.G_invhalf.matrix @ xi))
    rg = _rg_norm(M, xi)
    rg_inv = _quad_norm(M, 1.0 / (1.0 + w), xi)
    rginv = _quad_norm(M, 1.0 + 1.0 / w, xi)
    rginv_inv = _quad_norm(M, w / (1.0 + w), xi)
    return LatticeNorms(plain, g, g_inv, rg, rg_inv, rginv, rginv_inv)


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
    """
    if not samples:
        raise ValueError("verify_lattice needs a nonempty sample list")
    w = M.eigenvalues
    riesz_half = M.function_matrix(np.sqrt(1.0 + w))
    riesz_inv = M.function_matrix(1.0 / (1.0 + w))
    rescale = 1.0 / M.eig_max
    scale_root = float(np.sqrt(rescale))
    candidates = [np.asarray(s, dtype=np.complex128) for s in samples]
    sample_norms = [lattice_norms(M, xi) for xi in candidates]
    denoms = [norms.rg for norms in sample_norms]
    rows = []
    for xi, norms in zip(candidates, sample_norms):
        rg2 = norms.rg**2
        proj = abs(rg2 - norms.plain**2 - norms.g**2) / max(rg2, _TINY)

        eta_star = riesz_inv @ xi
        sup_samples = 0.0
        sup_all = 0.0
        for k, (eta, denom) in enumerate(
            zip(candidates + [eta_star], denoms + [_rg_norm(M, eta_star)])
        ):
            if denom <= _TINY:
                continue
            ratio = abs(inner(xi, eta)) / denom
            sup_all = max(sup_all, ratio)
            if k < len(samples):
                sup_samples = max(sup_samples, ratio)
        dual_exact = abs(sup_all - norms.rg_inv) / max(norms.rg_inv, _TINY)
        slack = norms.rg_inv / sup_samples if sup_samples > _TINY else float("inf")

        unit = float(np.linalg.norm(riesz_half @ xi))
        unit_res = abs(unit - norms.rg) / max(norms.rg, _TINY)

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
