"""Quasi-Hermiticity detection and metric construction.

Solves the metric relation ``G A = A* G`` for a positive-definite ``G``
when one exists (diagonalizable with real spectrum), or for an
indefinite Hermitian intertwiner when the spectrum is merely closed
under conjugation.  Also builds the similarity transform
``K = G^1/2 A G^-1/2``, the adjoint in the ``G``-inner product, the
minimal intertwined operator ``B0 = G A G^-1``, and fundamental-symmetry
checks for the Krein setting.

At finite dimension Hermiticity of ``GA`` is equivalent to ``A`` being
similar to a Hermitian matrix through ``G^1/2``; the subtleties that
separate these notions for unbounded operators (domain inclusions, an
unbounded ``G^-1``) have no matrix counterpart, so the equivalence-chain
tests here assert full agreement.

Both metric builders work from one :class:`~qherm.core.Eigensystem` of
``A``, which may be passed in place of ``A``
(:func:`~qherm.core.ensure_eigensystem`).  Its verdicts decide and this
module makes none of its own: defectiveness and the realness mask for
the positive metric, defectiveness and the conjugate pairing
(``Eigensystem.conjugate_pairs``, which raises
:class:`~qherm.errors.SpectrumNotConjugateClosed`) for the pseudo-metric.
Its canonically scaled eigenvector matrix ``S`` builds both, and its
``vector_condition`` is the one condition number of ``S`` they read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenvalueCluster,
    Eigensystem,
    Operator,
    ensure_eigensystem,
    ensure_operator,
    fro,
    herm_part,
    herm_residual,
    ldexp,
    same_dim,
    unit_exponent,
    unit_scaled,
)
from .errors import (
    ComplexSpectrum,
    Defective,
    IllConditionedWarning,
    NotHermitian,
    NotInvolution,
    NotPositiveDefinite,
    NotQuasiHermitian,
)
from .lattice import MetricOperator

_TINY = np.finfo(np.float64).tiny

# eigenvector-basis condition number beyond which results carry a warning
CONDITION_WARN_THRESHOLD = 1e6

__all__ = [
    "MetricSolution",
    "KreinStructure",
    "canonical_eigenbasis",
    "basis_condition",
    "invert_basis",
    "quasi_hermiticity_residual",
    "solve_metric",
    "quasi_sa_transform",
    "hermitian_partner",
    "sharp_adjoint",
    "minimal_b0",
    "krein_check",
    "solve_pseudo_metric",
]


def quasi_hermiticity_residual(A: Operator | np.ndarray, G: Operator | np.ndarray) -> float:
    """Normalized defect of the metric relation, ``||GA - A*G||_F / (||G||_F ||A||_F)``.

    Zero exactly when ``GA`` is Hermitian.  ``G`` and ``A`` are each scaled
    by an exact power of two first, so that ``GA`` neither over- nor
    underflows; the ratio does not depend on their scales.
    """
    A, G = ensure_operator(A), ensure_operator(G)
    same_dim(A=A.dim, G=G.dim)
    g, a = unit_scaled(G.matrix), unit_scaled(A.matrix)
    ga = g @ a
    return fro(ga - ga.conj().T) / (fro(g) * fro(a) + _TINY)


@dataclass(frozen=True, eq=False)
class MetricSolution:
    """Canonical metric for a diagonalizable real-spectrum operator.

    ``canonical.G`` equals ``scale * (S S*)^-1`` for the scaled eigenvector
    matrix ``S`` (``Eigensystem.scaled_vectors``); the ``scale`` makes
    ``||G||_2 = 1``.  ``freedom`` lists the eigenvalue clusters of the
    eigensystem: any Hermitian positive-definite block-diagonal ``D``
    conforming to them yields another admissible metric ``S^-* D S^-1``.
    ``vector_condition`` is the eigensystem's ``kappa_2(S)``, whose square
    is ``cond(G)``.  ``operator`` is the operator the metric was solved for,
    and ``residual`` its :func:`quasi_hermiticity_residual` against
    ``canonical.G``, computed on first read and then kept.
    """

    canonical: MetricOperator
    freedom: tuple[EigenvalueCluster, ...]
    scale: float
    vector_condition: float
    operator: Operator

    @cached_property
    def residual(self) -> float:
        return quasi_hermiticity_residual(self.operator, self.canonical.G)


def canonical_eigenbasis(A: Operator | Eigensystem | np.ndarray, tol: float, caller: str) -> Eigensystem:
    """The eigensystem of ``A``, checked to admit a positive metric.

    Raises :class:`Defective` or :class:`ComplexSpectrum`, naming ``caller``,
    unless the record is diagonalizable with real spectrum.
    """
    es = ensure_eigensystem(A, tol)
    if es.defective:
        raise Defective(f"{caller}: operator is numerically defective")
    if not es.real.all():
        offending = es.eigenvalues[~es.real]
        raise ComplexSpectrum(
            f"{caller}: spectrum has nonreal eigenvalues {offending}",
            eigenvalues=offending,
        )
    return es


def basis_condition(cond: float, consequence: str, stacklevel: int = 3) -> float:
    """``cond``, the record's ``kappa_2(S)`` or a bound on it, with an
    :class:`IllConditionedWarning` beyond the threshold.

    The warning names ``consequence`` and points ``stacklevel`` frames up,
    by default at the caller's caller.
    """
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"eigenvector basis condition {cond:.3e}; {consequence}",
            IllConditionedWarning,
            stacklevel=stacklevel,
        )
    return cond


def invert_basis(es: Eigensystem, consequence: str) -> tuple[np.ndarray, float]:
    """``S^-1`` of the record's ``scaled_vectors`` and a bound on ``kappa_2(S)``;
    warns as :func:`basis_condition` does, at the caller's caller.

    The bound is ``||S||_F ||S^-1||_F``, O(n^2) from the inverse, which is at
    least ``kappa_2(S)`` (``||M||_2 <= ||M||_F``).  Where it is at most
    ``CONDITION_WARN_THRESHOLD`` it rules the warning out and is returned;
    anywhere else, an infinite or NaN bound included, the record's
    ``vector_condition`` decides and is returned, so the warning and its text
    are those of ``kappa_2(S)`` alone.  A singular ``S`` warns before the
    ``LinAlgError`` of the inverse propagates.
    """
    s = es.scaled_vectors
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        basis_condition(es.vector_condition, consequence, stacklevel=4)
        raise
    bound = fro(s) * fro(s_inv)
    if bound <= CONDITION_WARN_THRESHOLD:
        return s_inv, bound
    return s_inv, basis_condition(es.vector_condition, consequence, stacklevel=4)


def solve_metric(
    A: Operator | Eigensystem | np.ndarray, tol: float = DEFAULT_TOL
) -> MetricSolution:
    """Construct the canonical positive-definite metric for ``A``.

    Requires ``A`` diagonalizable with real spectrum at tolerance; the
    canonical choice fixes ``D = I`` on eigenvector columns scaled to unit
    largest entry, and the result is normalized to unit spectral norm
    (factor recorded in ``scale``).

    Raises :class:`ComplexSpectrum` or :class:`Defective` when no
    positive metric exists, and :class:`NotPositiveDefinite` when the
    normalized metric's smallest eigenvalue falls below the normal float
    range; warns :class:`IllConditionedWarning` when the eigenvector basis
    is badly conditioned.
    """
    es = canonical_eigenbasis(A, tol, "solve_metric")
    u, sig, _ = np.linalg.svd(es.scaled_vectors)
    cond = basis_condition(es.keep_vector_condition(sig), "metric is nearly singular")
    # (S S*)^-1 = U diag(sig^-2) U*, normalized to unit spectral norm;
    # sig is descending, so scale/sig^2 is already ascending
    scale = float(sig[-1] ** 2)
    # w[0] below, the smallest eigenvalue of G: below the normal range (the
    # scale underflowing with it) the metric is not positive definite in floats
    eig_min = scale / float(sig[0] ** 2)
    if not eig_min >= _TINY:
        raise NotPositiveDefinite(
            f"solve_metric: metric eigenvalue {eig_min:.3e} underflows "
            f"(eigenvector basis condition {cond:.3e})",
            min_eigenvalue=eig_min,
        )
    w = scale / sig**2
    G = Operator(herm_part((u * w) @ u.conj().T), "canonical metric")
    return MetricSolution(MetricOperator(G, w, u), es.clusters, scale, cond, es.operator)


def quasi_sa_transform(
    A: Operator | np.ndarray,
    M: MetricOperator,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> Operator:
    """The transform ``K = G^1/2 A G^-1/2``; Hermitian iff ``GA`` is.

    Raises :class:`NotQuasiHermitian` when the metric relation residual
    exceeds ``tol`` (pass ``force=True`` to compute anyway; the result
    then carries a warning instead).
    """
    A = ensure_operator(A)
    residual = quasi_hermiticity_residual(A, M.G)
    if residual > tol:
        if not force:
            raise NotQuasiHermitian(
                f"metric relation residual {residual:.3e} exceeds {tol:.3e}"
            )
        warnings.warn(
            f"forcing transform with metric relation residual {residual:.3e}; "
            "result is not Hermitian",
            stacklevel=2,
        )
    return hermitian_partner(A, M)


def hermitian_partner(A: Operator | np.ndarray, M: MetricOperator) -> Operator:
    """``K = G^1/2 A G^-1/2`` for ``A`` of the metric's dimension, with no
    check of the metric relation: :func:`quasi_sa_transform` with that
    check passed, for a caller that already holds its residual."""
    A = ensure_operator(A)
    same_dim(A=A.dim, metric=M.dim)
    K = M.G_half.matrix @ A.matrix @ M.G_invhalf.matrix
    return Operator(K, "quasi-self-adjoint transform")


def sharp_adjoint(S: Operator | np.ndarray, M: MetricOperator) -> Operator:
    """Adjoint of ``S`` in the ``G``-inner product: ``S# = G^-1 S* G``."""
    S = ensure_operator(S)
    same_dim(S=S.dim, metric=M.dim)
    res = M.inverse_matrix() @ S.matrix.conj().T @ M.G.matrix
    return Operator(res, "sharp adjoint")


def minimal_b0(A: Operator | np.ndarray, M: MetricOperator) -> Operator:
    """The minimal operator intertwined with ``A`` by ``G``: ``B0 = G A G^-1``.

    Satisfies ``B0 G = G A`` up to rounding; equals ``A*`` exactly when
    ``A`` is quasi-Hermitian with metric ``G``.
    """
    A = ensure_operator(A)
    same_dim(A=A.dim, metric=M.dim)
    return Operator(M.G.matrix @ A.matrix @ M.inverse_matrix(), "minimal B0")


@dataclass(frozen=True, eq=False)
class KreinStructure:
    """A fundamental symmetry with its spectral decomposition.

    ``J`` is a Hermitian involution; ``signature`` counts its +1/-1
    eigenvalues; ``P_plus``/``P_minus`` are the complementary projections
    ``(I +- J)/2``.
    """

    J: Operator
    signature: tuple[int, int]
    P_plus: Operator
    P_minus: Operator


def krein_check(
    A: Operator | np.ndarray,
    J: Operator | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, KreinStructure]:
    """Validate ``J`` and test the Krein relation ``JA = A*J``.

    Returns ``(holds, structure)`` where ``holds`` is the residual test
    ``||JA - A*J||_F <= tol * ||A||_F * ||J||_F``.  ``J`` is an involution
    when ``||J^2 - I||_F <= tol * (1 + ||J||_F^2)``.  Both tests run on
    operands scaled by exact powers of two, so no product over- or
    underflows; for the involution test only a large ``J`` is scaled,
    down, with both of its sides.
    """
    A, J = ensure_operator(A), ensure_operator(J)
    same_dim(A=A.dim, J=J.dim)
    k = min(unit_exponent(J.matrix), 0)
    j, c2 = ldexp(J.matrix, k), math.ldexp(1.0, 2 * k)
    if fro(j @ j - c2 * np.eye(J.dim)) > tol * (c2 + fro(j) ** 2):
        raise NotInvolution("J squared does not equal the identity at tolerance")
    if herm_residual(J.matrix) > tol:
        raise NotHermitian("J is not Hermitian at tolerance")
    w = np.linalg.eigvalsh(herm_part(J.matrix))
    n_plus = int(np.count_nonzero(w > 0.0))
    n_minus = J.dim - n_plus
    eye = np.eye(J.dim)
    structure = KreinStructure(
        J,
        (n_plus, n_minus),
        Operator(0.5 * (eye + J.matrix), "P+"),
        Operator(0.5 * (eye - J.matrix), "P-"),
    )
    j, a = unit_scaled(J.matrix), unit_scaled(A.matrix)
    holds = fro(j @ a - a.conj().T @ j) <= tol * fro(a) * fro(j)
    return holds, structure


def solve_pseudo_metric(
    A: Operator | Eigensystem | np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[Operator, tuple[int, int]]:
    """Hermitian invertible ``T`` with ``TA = A*T`` and its inertia.

    Requires ``A`` diagonalizable with spectrum closed under conjugation.
    ``T = S^-* M S^-1`` where ``M`` is the identity on real-eigenvalue
    positions and swaps each conjugate pair; the result is normalized to
    unit spectral norm.  Reduces to the canonical positive metric when
    the spectrum is real.  Warns :class:`IllConditionedWarning` when the
    eigenvector basis is badly conditioned, and raises
    :class:`NotPositiveDefinite` when the entries of ``T`` overflow before
    it is normalized, so that it cannot be formed in floats.
    """
    es = ensure_eigensystem(A, tol)
    if es.defective:
        raise Defective("solve_pseudo_metric: operator is numerically defective")
    # S^-* M is S^-* with the columns of each conjugate pair exchanged
    swap = np.arange(es.dim)
    for i, j in es.conjugate_pairs:
        swap[i], swap[j] = j, i
    # where the O(n^2) bound rules the warning out, ||S^-1||_F <= 1e6 (every
    # column of S has a unit entry, so ||S||_F >= 1) and T cannot overflow:
    # the message below prints the record's kappa_2(S)
    s_inv, cond = invert_basis(es, "pseudo metric is nearly singular")
    with np.errstate(over="ignore", invalid="ignore"):
        t = herm_part(s_inv.conj().T[:, swap] @ s_inv)
    if not np.isfinite(t).all():
        raise NotPositiveDefinite(
            f"solve_pseudo_metric: pseudo metric entries overflow "
            f"(eigenvector basis condition {cond:.3e})"
        )
    wt = np.linalg.eigvalsh(t)
    t = t / max(float(np.abs(wt).max()), _TINY)
    signature = (int(np.count_nonzero(wt > 0.0)), int(np.count_nonzero(wt < 0.0)))
    return Operator(t, "pseudo metric"), signature
