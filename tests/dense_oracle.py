"""Dense metric-conjugation construction of the E and X step families.

The library stores both families factored.  This module builds every
cumulative projector as its own dense matrix, ``E(lam_k) = W_k W_k*`` and
``X(lam_k) = G^-1/2 E(lam_k) G^1/2``, as the reference the tests compare
the factored families against.
"""

from __future__ import annotations

import numpy as np

from qherm import cluster_eigenvalues


def dense_spectral_family(h: np.ndarray, tol: float):
    """``(thresholds, projectors, ranks)`` of a Hermitian ``h``."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    clusters = cluster_eigenvalues(w.astype(np.complex128), tol)
    thresholds = np.array([c.value.real for c in clusters])
    ranks = [c.start + c.size for c in clusters]
    projectors = [v[:, :e] @ v[:, :e].conj().T for e in ranks]
    return thresholds, projectors, ranks


def dense_x_family(a: np.ndarray, g_half: np.ndarray, g_invhalf: np.ndarray, tol: float):
    """``(thresholds, X projectors)`` by conjugating the family of ``K``."""
    thresholds, projectors, _ = dense_spectral_family(g_half @ a @ g_invhalf, tol)
    return thresholds, [g_invhalf @ e @ g_half for e in projectors]


def dense_evaluate(thresholds: np.ndarray, members: list[np.ndarray], lam: float) -> np.ndarray:
    """The member with the largest threshold at most ``lam`` (zero below all)."""
    out = np.zeros_like(members[0])
    for t, m in zip(thresholds, members):
        if lam >= t:
            out = m
    return out
