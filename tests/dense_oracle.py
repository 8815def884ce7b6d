"""Dense references for the library's structured kernels.

The library stores the E and X step families factored, and builds X
from the eigenvectors of ``A`` alone.  This module builds every
cumulative projector as its own dense matrix, ``E(lam_k) = W_k W_k*`` and
``X(lam_k) = G^-1/2 E(lam_k) G^1/2`` through the metric conjugation, as
the reference the tests compare the factored families against.  It also
keeps the dense per-grid computation of the half-line refinement study,
the reference for its secular and banded kernels, the Aberth-Ehrlich
sweeps on the secular equation of the half-line ``H``, an independent
O(n^2) reference for the roots that Newton's method finds, and the
bisection of the secular equation of the half-line ``G``, the float for
float reference for the extremes of its spectrum.
"""

from __future__ import annotations

import numpy as np

from qherm import cluster_eigenvalues

_EPS = np.finfo(np.float64).eps

# Aberth sweeps before the spectrum of H is given up as unconverged
_MAX_SWEEPS = 60

# elements of one row block of an Aberth sweep: each (block x n) temporary
# stays at 1 MiB whatever n is
_BLOCK_ELEMENTS = 1 << 16


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


def dense_samsonov_rows(spec, schedule: list[int]) -> list:
    """The refinement rows of ``samsonov_report`` from dense n x n kernels.

    Each grid runs ``eigh(G)``, floors ``sigma(G)`` at ``FLOOR_EPSILON``
    times its top, forms ``G^+-1/2`` and the commutator densely and takes
    the spectrum of ``H`` from ``eigvals``: the reference the secular and
    factor kernels of :mod:`qherm.halfline` are compared against.  Where
    the floor binds, its ``min sigma(G)`` is rounding noise and its
    Hermiticity residual that of the floored roots, so there it is the
    reference for the other fields only.
    """
    from qherm.core import fro, herm_part
    from qherm.halfline import (
        _BOUNDARY_MARGIN,
        _TINY,
        FLOOR_EPSILON,
        SamsonovRow,
        build_pair,
    )

    def _spectrum(hmat: np.ndarray) -> np.ndarray:
        # the real LAPACK driver keeps an exactly-real spectrum exactly real
        if np.all(hmat.imag == 0.0):
            return np.linalg.eigvals(hmat.real).astype(np.complex128)
        return np.linalg.eigvals(hmat)

    specs = [spec.with_n(n) for n in schedule]
    d2 = spec.d**2
    rows = []
    prev = None
    for grid in specs:
        n = grid.n
        pair = build_pair(grid)
        hmat, gmat = pair.H.matrix, pair.G_raw.matrix

        w_g, v_g = np.linalg.eigh(herm_part(gmat))
        min_eig = float(w_g[0])
        gap = min_eig - d2

        commutator = gmat @ hmat - hmat.conj().T @ gmat
        denom = fro(gmat) * fro(hmat) + _TINY
        residual_full = fro(commutator) / denom
        interior = commutator[_BOUNDARY_MARGIN : n - _BOUNDARY_MARGIN, :]
        residual_interior = fro(interior) / denom

        w_floored = np.maximum(w_g, FLOOR_EPSILON * float(w_g[-1]))
        g_half = (v_g * np.sqrt(w_floored)) @ v_g.conj().T
        g_invhalf = (v_g / np.sqrt(w_floored)) @ v_g.conj().T
        # h - h* equals G^-1/2 (GH - H*G) G^-1/2, so measure the defect on
        # the commutator: exact zeros stay exact instead of being polluted
        # by the conditioning of G^1/2
        h_transformed = g_half @ hmat @ g_invhalf
        defect = fro(g_invhalf @ commutator @ g_invhalf)
        herm_res = defect / max(fro(h_transformed), _TINY)

        max_im = float(np.abs(_spectrum(hmat).imag).max())

        if prev is None or residual_full <= 0.0 or prev.residual_full <= 0.0:
            order = float("nan")
        else:
            order = float(
                np.log(prev.residual_full / residual_full) / np.log(n / prev.n)
            )
        row = SamsonovRow(
            n,
            pair.spacing,
            min_eig,
            gap,
            residual_full,
            residual_interior,
            herm_res,
            max_im,
            order,
        )
        rows.append(row)
        prev = row
    return rows


def aberth(mu: np.ndarray, w: np.ndarray, rho: complex) -> np.ndarray | None:
    """All roots of ``1 = rho sum_k w_k/(mu_k - lam)``, or None if a root
    has not converged after ``_MAX_SWEEPS`` sweeps.

    The roots are the zeros of ``p(lam) = prod_k (mu_k - lam) f(lam)``,
    ``f = 1 - rho sum_k w_k/(mu_k - lam)``.  Each sweep takes the
    Aberth-Ehrlich step ``z_i -= 1/(p'/p(z_i) - sum_{j != i} 1/(z_i - z_j))``
    for every root not yet converged, in row blocks of at most
    ``_BLOCK_ELEMENTS`` entries, so memory stays O(n).  The pole nearest
    each root is factored out of ``p'/p`` analytically, so roots close to
    a pole keep their accuracy.  A root has converged once its step is at
    most four units in the last place of ``max(|z_i|, mu_0)``.
    """
    n = mu.size
    z = (mu - rho * w).astype(np.complex128)
    active = np.ones(n, dtype=bool)
    block_rows = max(1, _BLOCK_ELEMENTS // n)
    for _ in range(_MAX_SWEEPS):
        todo = np.flatnonzero(active)
        if todo.size == 0:
            return z
        for start in range(0, todo.size, block_rows):
            block = todo[start : start + block_rows]
            zb = z[block]
            near = np.clip(np.searchsorted(mu, zb.real), 1, n - 1)
            near = np.where(np.abs(mu[near - 1] - zb) < np.abs(mu[near] - zb), near - 1, near)
            own = np.arange(block.size)
            gap = mu[near] - zb
            inv = mu[None, :] - zb[:, None]
            inv[own, near] = 1.0
            inv = 1.0 / inv
            inv[own, near] = 0.0
            weighted = inv * w
            rest = 1.0 - rho * weighted.sum(axis=1)
            # p = prod_{k != m} (mu_k - lam) g with g = (mu_m - lam) f
            g = gap * rest - rho * w[near]
            g_prime = -rest - gap * rho * (weighted * inv).sum(axis=1)
            pair = zb[:, None] - z[None, :]
            pair[own, block] = np.inf
            # 1/(p'/p - sum_j 1/(z_i - z_j)) with g cleared from the
            # denominator, so an exact root (g = 0) takes a zero step
            step = g / (g_prime - g * (inv.sum(axis=1) + (1.0 / pair).sum(axis=1)))
            z[block] = zb - step
            tol = 4.0 * _EPS * np.maximum(np.abs(z[block]), mu[0])
            active[block] = ~(np.abs(step) <= tol)
    return z if not active.any() else None


def _bisect_decreasing(f, lo: float, hi: float) -> float:
    """The root of a decreasing ``f`` in ``[lo, hi]``, to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def bisected_metric_extremes(grid) -> tuple[float, float]:
    """``min sigma(G)`` and ``max sigma(G)`` of a half-line grid by bisection
    of the secular equation of ``G`` to the last bit, about 97 O(n) steps on
    the benchmark's grids: the float for float reference for
    ``halfline._metric_extremes``.  The equation, its poles ``nu_k`` and
    weights ``z2_k`` are those that function documents.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    inv_h = 1.0 / h
    rho = inv_h * inv_h
    diag = c - inv_h
    mod = abs(diag)
    coupling = mod * inv_h
    if coupling == 0.0:
        return mod * mod, mod * mod + rho
    shift = (abs(c) ** 2 - 2.0 * c.real * inv_h) / (mod + inv_h)
    theta = np.arange(1, n + 1) * (np.pi / (n + 1))
    nu = shift * shift + 4.0 * coupling * np.sin(0.5 * theta) ** 2
    z2 = (2.0 / (n + 1)) * np.sin(theta) ** 2

    def secular(lam: float) -> float:
        return 1.0 - rho * float(np.sum(z2 / (nu - lam)))

    lowest = _bisect_decreasing(secular, float(nu[0] - rho), float(nu[0]))
    highest = _bisect_decreasing(secular, float(nu[-2]), float(nu[-1]))
    return lowest, highest
