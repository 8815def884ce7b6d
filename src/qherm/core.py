"""Dense complex matrix kernels: the substrate every other module calls.

Adjoints, Hermitian and general eigendecompositions, eigenvalue
clustering, and the tolerance conventions used throughout.  All
tolerance decisions are relative and scale-free; the package default
``DEFAULT_TOL = 1e-10`` leaves about five digits of double-precision
headroom.  Eigenvalues are always reported ascending by real part, ties
broken by imaginary part, so that reports are deterministic.

Every diagonalization runs the LAPACK driver that the entries admit,
read off them exactly and never at a tolerance: ``eigh`` for a matrix
equal to its adjoint entry for entry, ``eig`` otherwise, each in real
arithmetic when every imaginary part is zero.  A Hermitian ``A`` so gets
real eigenvalues and a real ``A`` eigenvalues closed under conjugation
exactly, in a fraction of the time of complex ``eig``; a nearly
Hermitian or nearly real ``A`` keeps complex ``eig``, so a Jordan block
a rounding error away from Hermitian still reads defective.

One :class:`Eigensystem` is the spectral record of the operator it
diagonalizes: the operator, its eigenvalues and unit eigenvectors, and
the tolerance.  Every verdict about the spectrum (clusters, realness,
defectiveness, conjugate pairing) is derived from those four on first
read, at the record's tolerance, and then kept, so no verdict can
contradict the eigenvalues it is about and none is made that nobody
reads.  Clusters, realness and the one partner search
(:func:`nearest_partner`), which the conjugate pairing and the spectral
match of two operators share, decide by one rule,
``|lam - mu| <= tol*(1+|lam|)``, stated only here.  The metric builders
and spectral checks of the other modules accept the record in place of
the operator and read its verdicts instead of deciding again
(:func:`ensure_eigensystem`).  The other costly
quantities are computed the same way: the canonically scaled
eigenvector matrix and ``vector_condition`` (one SVD).  The
defectiveness verdict adds nothing to ``eig`` for a simple spectrum, and
for repeated eigenvalues one product certifying their eigenvectors and
one SVD of each cluster's n x m block of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, SpectrumNotConjugateClosed

DEFAULT_TOL = 1e-10

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_normal

__all__ = [
    "DEFAULT_TOL",
    "Operator",
    "Eigensystem",
    "EigenvalueCluster",
    "adjoint",
    "eig_hermitian",
    "eig_general",
    "cluster_eigenvalues",
    "nearest_partner",
    "ensure_operator",
    "ensure_eigensystem",
]


def _coerce_square(entries) -> np.ndarray:
    mat = np.array(entries, dtype=np.complex128, copy=True, order="C")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense complex square matrix with a free-text label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _coerce_square(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def identity(dim: int, label: str = "I") -> "Operator":
        return Operator(np.eye(dim), label)

    def __repr__(self) -> str:  # keep reprs short; matrices can be large
        tag = f" {self.label!r}" if self.label else ""
        return f"<Operator{tag} dim={self.dim}>"


def ensure_operator(value, label: str = "") -> Operator:
    """Coerce an array-like into an :class:`Operator` (no-op if it is one)."""
    if isinstance(value, Operator):
        return value
    return Operator(value, label)


def fro(a: np.ndarray) -> float:
    """Frobenius norm, also where squaring the entries under- or overflows.

    Only a plain norm of 0 with a nonzero entry, or of ``inf`` with finite
    entries, is recomputed on ``a / max|a|``; every other result is the
    plain one, bit for bit.  A subnormal ``max|a|`` is first scaled up,
    with ``a``, by the exact factor ``2**600``: numpy divides a complex
    array by a real through its reciprocal, which overflows there.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(a, "fro"))
    if norm == 0.0 or norm == math.inf:
        peak = float(np.abs(a).max(initial=0.0))
        if 0.0 < peak < _TINY:
            return peak * float(np.linalg.norm((a * 2.0**600) / (peak * 2.0**600), "fro"))
        if 0.0 < peak < math.inf:
            return peak * float(np.linalg.norm(a / peak, "fro"))
    return norm


def unit_exponent(*arrays: np.ndarray) -> int:
    """The ``k`` for which ``2**k`` brings the largest real or imaginary part
    of ``arrays`` into [0.5, 1); 0 when they are all zero or not all finite.

    Operands scaled by ``2**k`` (:func:`ldexp`) form products that neither
    over- nor underflow, and since the scaling is exact, a scale-free ratio
    of such products keeps every bit it has on well-scaled input.
    """
    peak = max(
        max(float(np.abs(a.real).max(initial=0.0)), float(np.abs(a.imag).max(initial=0.0)))
        for a in arrays
    )
    return -math.frexp(peak)[1] if 0.0 < peak < math.inf else 0


def ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """``a * 2**k`` as a complex array, exact while the entries stay in the normal range."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return np.ldexp(a.view(np.float64), k).view(np.complex128)


def unit_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` scaled by the exact power of two :func:`unit_exponent` picks for it."""
    return ldexp(a, unit_exponent(a))


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product ``<x, y>``, linear in the first argument."""
    return complex(np.vdot(y, x))


def herm_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def herm_residual(a: np.ndarray) -> float:
    """Relative Hermiticity defect ``||A - A*||_F / ||A||_F``, at any scale of ``A``.

    Zero for a Hermitian ``A``, including ``A = 0``.
    """
    denom = fro(a)
    if denom == 0.0:
        return 0.0
    return fro(a - a.conj().T) / denom


def adjoint(A: Operator | np.ndarray) -> Operator:
    """Conjugate transpose; an exact involution."""
    A = ensure_operator(A)
    return Operator(A.matrix.conj().T, A.label + "*" if A.label else "")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _canonical_eigvec_scaling(v: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-modulus entry becomes exactly 1.

    Fixes both the length and the phase freedom of the eigenvectors, so
    the canonical metric built from them is fully deterministic.
    """
    s = np.array(v, dtype=np.complex128)
    pivots = s[np.argmax(np.abs(s), axis=0), np.arange(s.shape[1])]
    return np.divide(s, pivots, out=s, where=pivots != 0)


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigenvalues with unit-norm right eigenvector columns of ``operator``.

    The four fields are the whole record.  Every verdict is derived from
    them at ``tol`` on first read and then kept: ``clusters`` groups the
    eigenvalues within ``tol*(1+|lam|)`` of each other, the read-only mask
    ``real`` marks those with ``|Im lam| <= tol*(1+|lam|)``, ``defective``
    tells whether some cluster has geometric multiplicity below its
    algebraic one, and ``conjugate_pairs`` matches every nonreal
    eigenvalue with a conjugate partner.  Reading ``defective`` raises
    :class:`ConvergenceFailure` when the eigenvectors fail their
    certificate (:func:`eig_general` reads it before it returns), reading
    ``conjugate_pairs`` :class:`SpectrumNotConjugateClosed` when the
    spectrum is not closed under conjugation.
    ``scaled_vectors``, the eigenvector matrix ``S`` with each column
    scaled to unit largest entry (read-only), and ``vector_condition``, the
    2-norm condition number of the eigenvector matrix (1 for a normal
    operator, one SVD), are computed the same way.
    """

    operator: Operator
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    tol: float

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    @cached_property
    def clusters(self) -> tuple[EigenvalueCluster, ...]:
        return cluster_eigenvalues(self.eigenvalues, self.tol)

    @cached_property
    def real(self) -> np.ndarray:
        w = self.eigenvalues
        return _readonly(np.abs(w.imag) <= self.tol * (1.0 + np.abs(w)))

    @cached_property
    def defective(self) -> bool:
        """Whether some cluster's block of unit eigenvectors is numerically
        rank deficient: ``sigma_min(V_c) <= sqrt(tol)``.

        A cluster of ``m`` eigenvalues is diagonalizable at tolerance when its
        ``n x m`` block ``V_c`` of computed eigenvectors has ``m`` independent
        columns; at a Jordan block the computed eigenvectors come out nearly
        parallel (Golub and Wilkinson 1976).  Where ``eig`` splits a Jordan
        block into eigenvalues within ``tol`` of each other, ``sigma_min(V_c)``
        is of order ``tol^(m-1)``; ``sqrt(tol)`` lies halfway, in logarithm,
        between that and the ``O(1)`` of a well-conditioned eigenbasis.  The
        threshold was checked against the rank test of ``A - lam I`` it
        replaces (``tests/defect_sweep.py``).  Before its singular values are
        read, every block is certified as eigenvectors, ``||A V_c - V_c
        Lambda_c||_F <= max(tol, n eps) ||A||_F`` (one product for all blocks),
        else :class:`ConvergenceFailure`.  The threshold never falls below
        ``sqrt(eps)``, so ``tol = 0`` still finds a Jordan block of exactly
        equal eigenvalues.
        """
        a, w, v, tol = self.operator.matrix, self.eigenvalues, self.right_vectors, self.tol
        repeated = [c for c in self.clusters if c.size > 1]
        if not repeated:
            return False
        cols = np.concatenate([np.arange(c.start, c.start + c.size) for c in repeated])
        block = v[:, cols]
        residual = a @ block - block * w[cols]
        col_sq = np.sum(residual.real**2 + residual.imag**2, axis=0)
        starts = np.cumsum([0] + [c.size for c in repeated[:-1]])
        defects = np.sqrt(np.add.reduceat(col_sq, starts))
        bound = max(tol, a.shape[0] * _EPS) * fro(a)
        worst = int(np.argmax(defects))
        if defects[worst] > bound:
            raise ConvergenceFailure(
                f"eigenvectors of the cluster at {repeated[worst].value:.6g} have "
                f"residual {defects[worst]:.3e} above {bound:.3e}"
            )
        threshold = math.sqrt(max(tol, _EPS))
        return any(
            np.linalg.svd(v[:, c.start : c.start + c.size], compute_uv=False)[-1] <= threshold
            for c in repeated
        )

    @cached_property
    def conjugate_pairs(self) -> tuple[tuple[int, int], ...]:
        """Greedy nearest-conjugate matching of the nonreal eigenvalues.

        In ascending index order each unmatched nonreal ``lam_i`` takes the
        first unmatched nonreal ``lam_j`` nearest to ``conj(lam_i)``, if it
        lies within ``tol*(1+|lam_i|)`` (:func:`nearest_partner`); else
        :class:`SpectrumNotConjugateClosed`.  Real eigenvalues pair with
        themselves and are not listed.
        """
        w, free, pairs = self.eigenvalues, ~self.real, []
        while free.any():
            i = int(np.argmax(free))
            free[i] = False
            j, _ = nearest_partner(w, np.conj(w[i]), free, self.tol)
            if j < 0:
                raise SpectrumNotConjugateClosed(
                    f"eigenvalue {w[i]} has no conjugate partner within tolerance"
                )
            free[j] = False
            pairs.append((i, j))
        return tuple(pairs)

    @cached_property
    def scaled_vectors(self) -> np.ndarray:
        return _readonly(_canonical_eigvec_scaling(self.right_vectors))

    @cached_property
    def vector_condition(self) -> float:
        return float(np.linalg.cond(self.right_vectors, 2))


@dataclass(frozen=True)
class EigenvalueCluster:
    """A run of eigenvalues treated as one spectral point at tolerance."""

    start: int
    size: int
    value: complex


def cluster_eigenvalues(values: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[EigenvalueCluster, ...]:
    """Group sorted eigenvalues lying within ``tol*(1+|lam|)`` of each other.

    ``values`` must already be sorted (ascending by real part, then
    imaginary part); each cluster is represented by its running mean.
    """
    clusters: list[EigenvalueCluster] = []
    start = 0
    total = 0.0 + 0.0j
    for k, lam in enumerate(np.asarray(values, dtype=np.complex128)):
        if k == start:
            total = lam
            continue
        mean = total / (k - start)
        if abs(lam - mean) <= tol * (1.0 + abs(lam)):
            total += lam
        else:
            clusters.append(EigenvalueCluster(start, k - start, mean))
            start = k
            total = lam
    n = len(values)
    if n:
        clusters.append(EigenvalueCluster(start, n - start, total / (n - start)))
    return tuple(clusters)


def nearest_partner(
    values: np.ndarray, target: complex, free: np.ndarray, tol: float
) -> tuple[int, float]:
    """The free entry of ``values`` nearest to ``target``, and its distance.

    The first such entry on a tie; ``(-1, inf)`` when no free entry lies
    within ``tol*(1+|target|)``, the rule by which :func:`cluster_eigenvalues`
    and ``Eigensystem.real`` also decide.  Distances are ``np.hypot`` of the
    parts of the differences, which is Python's ``abs`` of a complex, so
    they are symmetric in the two values (``np.abs`` can differ in the last
    bit).
    """
    index = np.flatnonzero(free)
    diff = values[index] - target
    dist = np.hypot(diff.real, diff.imag)
    best = int(np.argmin(dist)) if dist.size else -1
    if best < 0 or dist[best] > tol * (1.0 + abs(target)):
        return -1, math.inf
    return int(index[best]), float(dist[best])


def _sorted_eig(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((w.imag, w.real))
    w = np.ascontiguousarray(w[order])
    v = v[:, order]
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0.0] = 1.0
    return _readonly(w), _readonly(v / norms)


def _eig_by_structure(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of ``a`` from the LAPACK driver its entries admit.

    ``eigh`` when ``a == a*`` entry for entry, else ``eig``; each on the
    float64 ``a.real`` when ``a.imag`` is all zero.  Returns complex128
    arrays in the driver's order.
    """
    m = a if a.imag.any() else a.real
    try:
        if np.array_equal(m, m.conj().T):
            w, v = np.linalg.eigh(m)
        else:
            w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc
    return w.astype(np.complex128, copy=False), v.astype(np.complex128, copy=False)


def eig_hermitian(H: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues come out real and ascending and eigenvectors orthonormal,
    so ``defective`` reads False at every ``tol < 1``.  Raises
    :class:`NotHermitian` when ``||H - H*||_F > tol*||H||_F``.
    """
    H = ensure_operator(H)
    defect = herm_residual(H.matrix)
    if defect > tol:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    w, v = _eig_by_structure(herm_part(H.matrix))
    return Eigensystem(H, _readonly(w), _readonly(v), tol)


def eig_general(A: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> Eigensystem:
    """General eigendecomposition with a numerical defectiveness verdict.

    Defectiveness is decided per eigenvalue cluster from the cluster's own
    block of unit eigenvectors: the record is defective when some block's
    smallest singular value is at most ``sqrt(tol)`` (``Eigensystem.defective``),
    O(n m^2) per cluster of size ``m`` after one certifying product.  The
    verdict is read here, so eigenvectors that fail the certificate raise
    :class:`ConvergenceFailure` from this call; the record's other
    verdicts are decided at the same ``tol`` when first read.
    """
    A = ensure_operator(A)
    w, v = _sorted_eig(*_eig_by_structure(A.matrix))
    es = Eigensystem(A, w, v, tol)
    es.defective  # certifies the eigenvectors here, not at a later read
    return es


def ensure_eigensystem(value, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Diagonalize ``value`` with :func:`eig_general` (no-op for an Eigensystem).

    A passed :class:`Eigensystem` is returned as it is, so it keeps every
    verdict of the tolerance it was computed at and ``tol`` is not read.
    """
    if isinstance(value, Eigensystem):
        return value
    return eig_general(value, tol)

