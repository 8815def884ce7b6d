"""Intertwining relations, quasi-affinity diagnostics and spectral matching.

At finite dimension a quasi-affine intertwiner (injective with dense
range) is just a full-rank matrix, so the interesting information is its
conditioning: the smallest singular value stands in for the norm of the
possibly-unbounded inverse.  Reports therefore expose the full singular
value profile rather than hiding it behind a boolean.  Every verdict on
an intertwiner is relative to its largest singular value, and the push of
eigenvectors is judged against ``||B||_F``, so the verdicts read the
same at any scale of the operands.

Two classical facts about the unbounded setting have no content here and
are deliberately untested: every matrix intertwiner is bounded (so a
nonempty resolvent set imposes nothing), and the continuous and residual
spectra are empty, leaving the point spectrum as the whole story.  Only
the intertwiner-based notion of quasi-similarity is implemented; variants
that instead compare resolutions of the identity are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Eigensystem,
    Operator,
    ensure_eigensystem,
    ensure_operator,
    fro,
    ldexp,
    nearest_partner,
    unit_exponent,
    unit_scaled,
)
from .errors import DimensionMismatch, IntertwiningViolated

_TINY = np.finfo(np.float64).tiny

# eigenvalues of non-normal matrices are ill-conditioned, hence the looser default
MATCH_TOL = 1e-7

__all__ = [
    "IntertwinerReport",
    "SpectralMatch",
    "MatchedPair",
    "PushReport",
    "MutualReport",
    "verify_intertwining",
    "spectral_comparison",
    "push_eigenvectors",
    "mutual_qs_check",
]


@dataclass(frozen=True, eq=False)
class IntertwinerReport:
    """Residual and conditioning profile of a candidate intertwiner."""

    residual: float
    singular_values: np.ndarray
    min_sv: float
    numerical_rank: int
    quasi_affinity: bool
    tol: float


def verify_intertwining(
    A: Operator | np.ndarray,
    B: Operator | np.ndarray,
    T: Operator | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> IntertwinerReport:
    """Measure ``TA = BT`` and the quasi-affinity of ``T``.

    The residual is ``||TA - BT||_F / (||T||_F (||A||_F + ||B||_F))``;
    large residuals are recorded, never raised.  It is taken on ``T`` and
    on ``A`` and ``B`` scaled by exact powers of two (one for ``A`` and
    ``B`` together), so no product over- or underflows.  Quasi-affinity
    means full numerical rank at threshold ``tol * max_sv``.
    """
    A, B, T = ensure_operator(A), ensure_operator(B), ensure_operator(T)
    if not (A.dim == B.dim == T.dim):
        raise DimensionMismatch(
            f"incompatible dims A={A.dim}, B={B.dim}, T={T.dim}"
        )
    k = unit_exponent(A.matrix, B.matrix)
    a, b, t = ldexp(A.matrix, k), ldexp(B.matrix, k), unit_scaled(T.matrix)
    residual = fro(t @ a - b @ t) / (fro(t) * (fro(a) + fro(b)) + _TINY)
    sv = np.linalg.svd(T.matrix, compute_uv=False)
    max_sv = float(sv[0]) if len(sv) else 0.0
    rank = int(np.count_nonzero(sv > tol * max_sv)) if max_sv > 0 else 0
    min_sv = float(sv[-1]) if len(sv) else 0.0
    return IntertwinerReport(residual, sv, min_sv, rank, rank == T.dim, tol)


@dataclass(frozen=True)
class MatchedPair:
    value_a: complex
    value_b: complex
    distance: float
    mult_a: int
    mult_b: int


@dataclass(frozen=True)
class SpectralMatch:
    """Greedy matching of two point spectra with multiplicities.

    ``inclusion`` holds when every eigenvalue of ``A`` found a partner and
    no matched multiplicity decreases.  Continuous and residual spectra
    are empty at finite dimension and therefore not represented.
    """

    pairs: tuple[MatchedPair, ...]
    unmatched_a: tuple[tuple[complex, int], ...]
    unmatched_b: tuple[tuple[complex, int], ...]
    inclusion: bool
    tolerance: float

    @property
    def total_with_equal_multiplicities(self) -> bool:
        return (
            not self.unmatched_a
            and not self.unmatched_b
            and all(p.mult_a == p.mult_b for p in self.pairs)
        )


def spectral_comparison(
    A: Operator | Eigensystem | np.ndarray,
    B: Operator | Eigensystem | np.ndarray,
    tol: float = MATCH_TOL,
) -> SpectralMatch:
    """Match the eigenvalue multisets of ``A`` and ``B`` at tolerance.

    The multiplicities are the clusters of each spectrum's record
    (``Eigensystem.clusters``): an operator is diagonalized and clustered
    at ``tol``, and a passed :class:`Eigensystem` keeps the clusters of its
    own tolerance.  In order, each cluster of ``A`` takes the first nearest
    unmatched cluster of ``B`` within ``tol``, as
    :func:`~qherm.core.nearest_partner` decides.
    """
    ca = ensure_eigensystem(A, tol).clusters
    cb = ensure_eigensystem(B, tol).clusters
    values_b = np.array([c.value for c in cb], dtype=np.complex128)
    free = np.ones(len(cb), dtype=bool)
    pairs: list[MatchedPair] = []
    unmatched_a: list[tuple[complex, int]] = []
    for cl in ca:
        j, dist = nearest_partner(values_b, cl.value, free, tol)
        if j < 0:
            unmatched_a.append((cl.value, cl.size))
        else:
            free[j] = False
            pairs.append(MatchedPair(cl.value, cb[j].value, dist, cl.size, cb[j].size))
    unmatched_b = [(c.value, c.size) for c, left in zip(cb, free) if left]
    inclusion = not unmatched_a and all(p.mult_a <= p.mult_b for p in pairs)
    return SpectralMatch(
        tuple(pairs), tuple(unmatched_a), tuple(unmatched_b), inclusion, tol
    )


@dataclass(frozen=True, eq=False)
class PushReport:
    """Where the intertwiner sends the eigenvectors of ``A``.

    ``eigenvalues``, ``image_norms`` and ``residuals`` are read-only
    arrays over the kept eigenpairs of ``A``, in the order of its
    record.  ``annihilated`` lists the eigenpairs whose image under ``T``
    is numerically zero, at most ``tol * ||T||_2`` — possible only when
    quasi-affinity fails.
    """

    eigenvalues: np.ndarray
    image_norms: np.ndarray
    residuals: np.ndarray
    annihilated: tuple[tuple[complex, float], ...]
    max_residual: float
    intertwiner: IntertwinerReport
    passed: bool


def push_eigenvectors(
    A: Operator | Eigensystem | np.ndarray,
    B: Operator | np.ndarray,
    T: Operator | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> PushReport:
    """Check that ``T`` maps eigenvectors of ``A`` to eigenvectors of ``B``.

    Requires the intertwining residual to be below ``tol`` (else
    :class:`IntertwiningViolated`, carrying the report on ``T``).  The
    image of a unit eigenvector is annihilated when its norm is at most
    ``tol * ||T||_2``, the threshold of the rank of ``T``; per kept
    eigenpair the report records ``||B(T xi) - lam (T xi)|| / ||T xi||``,
    and the push passes when the largest of these is at most
    ``tol * ||B||_F``.  All images come from one product ``T V`` with the
    eigenvector matrix ``V`` of ``A``, and the residuals from one product
    with ``B``, column by column.  Image norms and residuals are taken on
    the images and on ``B`` and ``lam`` scaled by exact powers of two, so
    that they neither over- nor underflow.  ``A`` may be given as its
    :class:`Eigensystem`, which is then reused.
    """
    B, T = ensure_operator(B), ensure_operator(T)
    rep = verify_intertwining(A.operator if isinstance(A, Eigensystem) else A, B, T, tol)
    if rep.residual > tol:
        raise IntertwiningViolated(
            f"intertwining residual {rep.residual:.3e} exceeds {tol:.3e}", report=rep
        )
    es = ensure_eigensystem(A, tol)
    t2 = float(rep.singular_values[0]) if len(rep.singular_values) else 0.0
    images = T.matrix @ es.right_vectors
    k = unit_exponent(images)
    y = ldexp(images, k)
    y_norms = np.linalg.norm(y, axis=0)
    norms = np.ldexp(y_norms, -k)
    gone = norms <= tol * t2
    lam, kept = es.eigenvalues[~gone], y[:, ~gone]
    kb = unit_exponent(B.matrix, lam)
    defect = np.linalg.norm(ldexp(B.matrix, kb) @ kept - ldexp(lam, kb) * kept, axis=0)
    res = np.ldexp(defect / y_norms[~gone], -kb)
    kept_pairs = (lam, norms[~gone], res)
    for a in kept_pairs:
        a.setflags(write=False)
    annihilated = tuple(zip(es.eigenvalues[gone].tolist(), norms[gone].tolist()))
    max_res = float(res.max(initial=0.0))
    return PushReport(*kept_pairs, annihilated, max_res, rep, max_res <= tol * fro(B.matrix))


@dataclass(frozen=True, eq=False)
class MutualReport:
    """Outcome of the mutual quasi-similarity checks.

    ``unitarily_equivalent`` is the finite-dimensional criterion for
    normal operators (equal eigenvalue multisets); ``None`` when either
    operator fails the normality test.  ``sigma_equal`` is asserted only
    when both intertwiners are quasi-affinities, of full numerical rank at
    ``tol`` times their largest singular value; ``None`` otherwise.
    """

    intertwining_ab: IntertwinerReport
    intertwining_ba: IntertwinerReport
    match: SpectralMatch
    mutual: bool
    sigma_p_equal: bool
    both_normal: bool
    unitarily_equivalent: bool | None
    sigma_equal: bool | None
    passed: bool


def _is_normal(a: np.ndarray, tol: float) -> bool:
    # scale-free, so taken on a scaled by an exact power of two
    a = unit_scaled(a)
    return fro(a @ a.conj().T - a.conj().T @ a) <= tol * (fro(a) ** 2 + _TINY)


def mutual_qs_check(
    A: Operator | np.ndarray,
    B: Operator | np.ndarray,
    T_ab: Operator | np.ndarray,
    T_ba: Operator | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> MutualReport:
    """Verify both intertwinings, both quasi-affinities, and equal spectra.

    The spectra are matched at ``MATCH_TOL``, whatever ``tol``.
    """
    A, B = ensure_operator(A), ensure_operator(B)
    rep_ab = verify_intertwining(A, B, T_ab, tol)
    rep_ba = verify_intertwining(B, A, T_ba, tol)
    match = spectral_comparison(A, B, MATCH_TOL)
    quasi_affine = rep_ab.quasi_affinity and rep_ba.quasi_affinity
    mutual = rep_ab.residual <= tol and rep_ba.residual <= tol and quasi_affine
    sigma_p_equal = match.total_with_equal_multiplicities
    both_normal = _is_normal(A.matrix, tol) and _is_normal(B.matrix, tol)
    unitary = sigma_p_equal if (both_normal and mutual) else None
    sigma_equal = sigma_p_equal if quasi_affine else None
    passed = mutual and sigma_p_equal
    return MutualReport(
        rep_ab,
        rep_ba,
        match,
        mutual,
        sigma_p_equal,
        both_normal,
        unitary,
        sigma_equal,
        passed,
    )
