"""Dense complex matrix kernels: the substrate every other module calls.

Adjoints, Hermitian and general eigendecompositions, eigenvalue
clustering, and the tolerance conventions used throughout.  All
tolerance decisions are relative and scale-free; the package default
``DEFAULT_TOL = 1e-10`` leaves about five digits of double-precision
headroom.  Eigenvalues are always reported ascending by real part, ties
broken by imaginary part, so that reports are deterministic.

One :class:`Eigensystem` carries the operator it diagonalizes, so the
metric builders and spectral checks of the other modules accept it in
place of the operator and reuse it (:func:`ensure_eigensystem`).  Costly
quantities are computed where they are read: ``vector_condition`` (one
SVD) on access, ``||A||_2`` only for a repeated eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "Operator",
    "Eigensystem",
    "EigenvalueCluster",
    "adjoint",
    "eig_hermitian",
    "eig_general",
    "cluster_eigenvalues",
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
    return float(np.linalg.norm(a, "fro"))


def spec_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product ``<x, y>``, linear in the first argument."""
    return complex(np.vdot(y, x))


def herm_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def herm_residual(a: np.ndarray) -> float:
    """Relative Hermiticity defect ``||A - A*||_F / ||A||_F`` (0 for A = 0)."""
    denom = fro(a)
    if denom == 0.0:
        return 0.0
    return fro(a - a.conj().T) / denom


def adjoint(A: Operator | np.ndarray) -> Operator:
    """Conjugate transpose; an exact involution."""
    A = ensure_operator(A)
    return Operator(A.matrix.conj().T, A.label + "*" if A.label else "")


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigenvalues with unit-norm right eigenvector columns of ``operator``.

    ``defective`` is set when some eigenvalue cluster has geometric
    multiplicity below its algebraic one.  ``vector_condition``, the
    2-norm condition number of the eigenvector matrix (1 for a normal
    operator), is computed on access, one SVD per read.
    """

    operator: Operator
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    defective: bool

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    @property
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


def real_eigenvalue_mask(values: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues deemed real when ``|Im lam| <= tol*(1+|lam|)``."""
    values = np.asarray(values, dtype=np.complex128)
    return np.abs(values.imag) <= tol * (1.0 + np.abs(values))


def _sorted_eig(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((w.imag, w.real))
    w = np.ascontiguousarray(w[order])
    v = v[:, order]
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0.0] = 1.0
    v = v / norms
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def eig_hermitian(H: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues come out real and ascending, eigenvectors orthonormal.
    Raises :class:`NotHermitian` when ``||H - H*||_F > tol*||H||_F``.
    """
    H = ensure_operator(H)
    defect = herm_residual(H.matrix)
    if defect > tol:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    w, v = np.linalg.eigh(herm_part(H.matrix))
    return Eigensystem(H, w.astype(np.complex128), v, False)


def eig_general(A: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> Eigensystem:
    """General eigendecomposition with a numerical defectiveness verdict.

    Defectiveness is decided per eigenvalue cluster by comparing the
    algebraic multiplicity (cluster size) against the geometric one, the
    latter obtained from the numerical rank of ``A - lam*I`` at threshold
    ``tol*||A||_2``.
    """
    A = ensure_operator(A)
    try:
        w, v = np.linalg.eig(A.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc
    w, v = _sorted_eig(w, v)
    a2 = None
    defective = False
    for cluster in cluster_eigenvalues(w, tol):
        if cluster.size == 1:
            continue
        if a2 is None:
            a2 = spec_norm(A.matrix)
        shifted = A.matrix - cluster.value * np.eye(A.dim)
        sv = np.linalg.svd(shifted, compute_uv=False)
        rank = int(np.count_nonzero(sv > tol * a2))
        if A.dim - rank < cluster.size:
            defective = True
            break
    return Eigensystem(A, w, v, defective)


def ensure_eigensystem(value, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Diagonalize ``value`` with :func:`eig_general` (no-op for an Eigensystem).

    A passed :class:`Eigensystem` is returned as it is, so it keeps the
    ``defective`` verdict of the tolerance it was computed at.
    """
    if isinstance(value, Eigensystem):
        return value
    return eig_general(value, tol)

