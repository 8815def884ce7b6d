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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenvalueCluster,
    Eigensystem,
    Operator,
    adjoint,
    cluster_eigenvalues,
    eig_general,
    ensure_operator,
    fro,
    herm_part,
    herm_residual,
    real_eigenvalue_mask,
)
from .errors import (
    ComplexSpectrum,
    Defective,
    DimensionMismatch,
    IllConditionedWarning,
    NotHermitian,
    NotInvolution,
    NotQuasiHermitian,
    SpectrumNotConjugateClosed,
)
from .lattice import MetricOperator, _metric_from_eigh

_TINY = np.finfo(np.float64).tiny

# eigenvector-basis condition number beyond which results carry a warning
CONDITION_WARN_THRESHOLD = 1e6

__all__ = [
    "MetricSolution",
    "KreinStructure",
    "quasi_hermiticity_residual",
    "solve_metric",
    "quasi_sa_transform",
    "sharp_adjoint",
    "minimal_b0",
    "krein_check",
    "solve_pseudo_metric",
]


def quasi_hermiticity_residual(A: Operator | np.ndarray, G: Operator | np.ndarray) -> float:
    """Normalized defect of the metric relation, ``||GA - A*G||_F / (||G||_F ||A||_F)``.

    Zero exactly when ``GA`` is Hermitian.
    """
    A = ensure_operator(A)
    G = ensure_operator(G)
    if A.dim != G.dim:
        raise DimensionMismatch(f"A has dim {A.dim}, G has dim {G.dim}")
    ga = G.matrix @ A.matrix
    return fro(ga - ga.conj().T) / (fro(G.matrix) * fro(A.matrix) + _TINY)


def _canonical_eigvec_scaling(v: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-modulus entry becomes exactly 1.

    Fixes both the length and the phase freedom of the eigenvectors, so
    the canonical metric below is fully deterministic.
    """
    s = np.array(v, dtype=np.complex128)
    for k in range(s.shape[1]):
        pivot = s[np.argmax(np.abs(s[:, k])), k]
        if pivot != 0:
            s[:, k] /= pivot
    return s


@dataclass(frozen=True, eq=False)
class MetricSolution:
    """Canonical metric for a diagonalizable real-spectrum operator.

    ``canonical.G`` equals ``scale * (S S*)^-1`` for the scaled eigenvector
    matrix ``S``; the ``scale`` makes ``||G||_2 = 1``.  ``freedom`` lists the
    eigenvalue clusters: any Hermitian positive-definite block-diagonal
    ``D`` conforming to them yields another admissible metric
    ``S^-* D S^-1``.
    """

    canonical: MetricOperator
    eigvec_matrix: Operator
    freedom: tuple[EigenvalueCluster, ...]
    residual: float
    scale: float
    vector_condition: float


def _check_real_spectrum(es: Eigensystem, tol: float, context: str) -> None:
    if es.defective:
        raise Defective(f"{context}: operator is numerically defective")
    mask = real_eigenvalue_mask(es.eigenvalues, tol)
    if not bool(mask.all()):
        offending = es.eigenvalues[~mask]
        raise ComplexSpectrum(
            f"{context}: spectrum has nonreal eigenvalues {offending}",
            eigenvalues=offending,
        )


def solve_metric(A: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> MetricSolution:
    """Construct the canonical positive-definite metric for ``A``.

    Requires ``A`` diagonalizable with real spectrum at tolerance; the
    canonical choice fixes ``D = I`` on eigenvector columns scaled to unit
    largest entry, and the result is normalized to unit spectral norm
    (factor recorded in ``scale``).

    Raises :class:`ComplexSpectrum` or :class:`Defective` when no
    positive metric exists; warns :class:`IllConditionedWarning` when the
    eigenvector basis is badly conditioned.
    """
    A = ensure_operator(A)
    return _canonical_metric(A, eig_general(A, tol), tol)


def _canonical_metric(A: Operator, es: Eigensystem, tol: float) -> MetricSolution:
    # solve_metric from the eigensystem es = eig_general(A, tol)
    _check_real_spectrum(es, tol, "solve_metric")
    s = _canonical_eigvec_scaling(es.right_vectors)
    u, sig, _ = np.linalg.svd(s)
    cond = float(sig[0] / sig[-1]) if sig[-1] > 0 else float("inf")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"eigenvector basis condition {cond:.3e}; metric is nearly singular",
            IllConditionedWarning,
            stacklevel=3,
        )
    # (S S*)^-1 = U diag(sig^-2) U*, normalized to unit spectral norm;
    # sig is descending, so scale/sig^2 is already ascending
    scale = float(sig[-1] ** 2)
    w = scale / sig**2
    v = u
    G = Operator(herm_part((v * w) @ v.conj().T), "canonical metric")
    metric = _metric_from_eigh(G, w, v)
    residual = quasi_hermiticity_residual(A, G)
    freedom = cluster_eigenvalues(es.eigenvalues, tol)
    return MetricSolution(metric, Operator(s), freedom, residual, scale, cond)


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
    if A.dim != M.dim:
        raise DimensionMismatch(f"A has dim {A.dim}, metric has dim {M.dim}")
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
    K = M.G_half.matrix @ A.matrix @ M.G_invhalf.matrix
    return Operator(K, "quasi-self-adjoint transform")


def sharp_adjoint(S: Operator | np.ndarray, M: MetricOperator) -> Operator:
    """Adjoint of ``S`` in the ``G``-inner product: ``S# = G^-1 S* G``."""
    S = ensure_operator(S)
    if S.dim != M.dim:
        raise DimensionMismatch(f"S has dim {S.dim}, metric has dim {M.dim}")
    res = M.inverse_matrix() @ S.matrix.conj().T @ M.G.matrix
    return Operator(res, "sharp adjoint")


def minimal_b0(A: Operator | np.ndarray, M: MetricOperator) -> Operator:
    """The minimal operator intertwined with ``A`` by ``G``: ``B0 = G A G^-1``.

    Satisfies ``B0 G = G A`` up to rounding; equals ``A*`` exactly when
    ``A`` is quasi-Hermitian with metric ``G``.
    """
    A = ensure_operator(A)
    if A.dim != M.dim:
        raise DimensionMismatch(f"A has dim {A.dim}, metric has dim {M.dim}")
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
    ``||JA - A*J||_F <= tol * ||A||_F * ||J||_F``.
    """
    A = ensure_operator(A)
    J = ensure_operator(J)
    if A.dim != J.dim:
        raise DimensionMismatch(f"A has dim {A.dim}, J has dim {J.dim}")
    jj = J.matrix @ J.matrix
    if fro(jj - np.eye(J.dim)) > tol * (1.0 + fro(J.matrix) ** 2):
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
    defect = fro(J.matrix @ A.matrix - A.matrix.conj().T @ J.matrix)
    holds = defect <= tol * fro(A.matrix) * fro(J.matrix)
    return holds, structure


def _conjugate_pairing(w: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Greedy nearest-conjugate matching; real eigenvalues pair with themselves."""
    mask = real_eigenvalue_mask(w, tol)
    pairs: list[tuple[int, int]] = []
    unpaired = [k for k in range(len(w)) if not mask[k]]
    while unpaired:
        i = unpaired.pop(0)
        target = np.conj(w[i])
        best, best_dist = -1, np.inf
        for j in unpaired:
            dist = abs(w[j] - target)
            if dist < best_dist:
                best, best_dist = j, dist
        if best < 0 or best_dist > tol * (1.0 + abs(w[i])):
            raise SpectrumNotConjugateClosed(
                f"eigenvalue {w[i]} has no conjugate partner within tolerance"
            )
        unpaired.remove(best)
        pairs.append((i, best))
    return pairs


def solve_pseudo_metric(
    A: Operator | np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[Operator, tuple[int, int]]:
    """Hermitian invertible ``T`` with ``TA = A*T`` and its inertia.

    Requires ``A`` diagonalizable with spectrum closed under conjugation.
    ``T = S^-* M S^-1`` where ``M`` is the identity on real-eigenvalue
    positions and swaps each conjugate pair; the result is normalized to
    unit spectral norm.  Reduces to the canonical positive metric when
    the spectrum is real.
    """
    A = ensure_operator(A)
    return _pseudo_metric(A, eig_general(A, tol), tol)


def _pseudo_metric(
    A: Operator, es: Eigensystem, tol: float
) -> tuple[Operator, tuple[int, int]]:
    # solve_pseudo_metric from the eigensystem es = eig_general(A, tol)
    if es.defective:
        raise Defective("solve_pseudo_metric: operator is numerically defective")
    w = es.eigenvalues
    pairs = _conjugate_pairing(w, tol)
    m = np.eye(A.dim, dtype=np.complex128)
    for i, j in pairs:
        m[i, i] = m[j, j] = 0.0
        m[i, j] = m[j, i] = 1.0
    s = _canonical_eigvec_scaling(es.right_vectors)
    cond = es.vector_condition
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"eigenvector basis condition {cond:.3e}",
            IllConditionedWarning,
            stacklevel=3,
        )
    s_inv = np.linalg.inv(s)
    t = herm_part(s_inv.conj().T @ m @ s_inv)
    wt = np.linalg.eigvalsh(t)
    t = t / max(float(np.abs(wt).max()), _TINY)
    signature = (int(np.count_nonzero(wt > 0.0)), int(np.count_nonzero(wt < 0.0)))
    return Operator(t, "pseudo metric"), signature
