"""Dense references for the library's structured kernels.

The library stores the E and X step families factored, and builds X
from the eigenvectors of ``A`` alone.  This module builds every
cumulative projector as its own dense matrix, ``E(lam_k) = W_k W_k*`` and
``X(lam_k) = G^-1/2 E(lam_k) G^1/2`` through the metric conjugation, as
the reference the tests compare the factored families against.  It also
keeps the dense half-line pair, ``H``, ``G = L* L`` and ``L`` by matrix
products, the reference for the bands that ``halfline.build_pair`` writes
in closed form; the five bands of the commutator ``GH - H*G`` by a band
product, the check that only four of its entries are nonzero; the same
commutator of the dense construction formed exactly in integers, the
reference for the closed form of ``residual_full``; the dense per-grid
computation of the half-line refinement study, the reference for its
secular kernels; the
Aberth-Ehrlich sweeps on the secular equation of the half-line ``H``, an
independent O(n^2) reference for the roots that Newton's method finds;
and the bisection of the secular equation of the half-line ``G``, the
float for float reference for the extremes of its spectrum.  Last, it
keeps the rank test that decided defectiveness before the
eigenvector-block test of ``core.eig_general``: one SVD of
``A - lam I`` per repeated eigenvalue, the reference that test is
calibrated against; the record ``eig_general`` built from complex
``eig`` alone, before it chose the driver from the entries, the
reference for the real and Hermitian drivers; and the
Python loop of the greedy conjugate pairing, the element for element
reference for ``Eigensystem.conjugate_pairs``; the pseudo-metric
``S^-* M S^-1`` with the swap matrix ``M`` formed and multiplied, the bit
for bit reference for ``solve_pseudo_metric``'s column exchange; and the
sample-by-sample
loops of ``verify_lattice`` (dense ``R_G^-1`` and ``R_G^1/2``, one inner
product per sample pair) and ``push_eigenvectors`` (one image per
eigenvector), the references for their one-block forms.
"""

from __future__ import annotations

import numpy as np

from dataclasses import astuple

from qherm import (
    Eigensystem,
    IntertwiningViolated,
    SpectrumNotConjugateClosed,
    cluster_eigenvalues,
    ensure_eigensystem,
    ensure_operator,
    lattice_norms,
    verify_intertwining,
)
from qherm.core import _sorted_eig, fro, herm_part, inner
from qherm.lattice import LatticeReport
from qherm.quasisimilarity import PushReport

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny

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


def dense_pair(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``H``, ``G = L* L`` and ``L`` of one half-line grid, by matrix
    products from the forward-difference matrix ``D`` as the
    :mod:`qherm.halfline` docstring defines them."""
    n, h, c = spec.n, spec.spacing, spec.robin_coefficient
    dmat = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    dmat[idx, idx] = -1.0 / h
    dmat[idx[:-1], idx[:-1] + 1] = 1.0 / h

    lmat = dmat + c * np.eye(n)
    gmat = lmat.conj().T @ lmat

    hmat = (dmat.conj().T @ dmat).astype(np.complex128)
    hmat[0, 0] -= c / h
    return hmat, gmat, lmat


def commutator_bands(gb: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """The five bands (offsets -2..2) of ``C = GH - H*G = M - M*``, ``M = GH``,
    from the ``(n, 3)`` bands of ``G`` and ``H``."""
    n = gb.shape[0]
    h_rows = np.zeros((n + 2, 3), dtype=np.complex128)
    h_rows[1:-1] = hb
    # M[i, i + s + u] collects G[i, i + s] H[i + s, i + s + u]; two zero
    # rows pad M at either end
    m = np.zeros((n + 4, 5), dtype=np.complex128)
    for s in (-1, 0, 1):
        m[2:-2, s + 1 : s + 4] += gb[:, s + 1, None] * h_rows[1 + s : n + 1 + s]
    # M*[i, i + t] = conj(M[i + t, i]), band 2 - t of row i + t
    adj = np.stack([m[2 + t : n + 2 + t, 2 - t] for t in range(-2, 3)], axis=1)
    return m[2:-2] - adj.conj()


def _exact_product(a: dict, b: dict) -> dict:
    """``a b`` of two matrices held as ``{(i, j): (re, im)}`` of their
    nonzero entries, with integer parts: every entry that a dense product
    forms, exactly, with the sum over ``k`` run only where both factors
    are nonzero."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), (ur, ui) in a.items():
        for j, (vr, vi) in rows.get(k, ()):
            wr, wi = out.get((i, j), (0, 0))
            out[i, j] = (wr + ur * vr - ui * vi, wi + ur * vi + ui * vr)
    return out


def _exact_adjoint(a: dict) -> dict:
    return {(j, i): (re, -im) for (i, j), (re, im) in a.items()}


def _exact_sum_sq(a: dict) -> int:
    return sum(re * re + im * im for re, im in a.values())


def mp_relation_residual(spec, dps: int = 60):
    """``||GH - H*G||_F / (||G||_F ||H||_F)`` of one half-line grid, from
    the construction of :func:`dense_pair`, exact but for its last steps at
    ``dps`` digits.

    The ratio does not change when ``G`` and ``H`` are each scaled, so it
    is that of ``G' = L'* L'`` and ``H' = 2^k D'* D' - 2^k hc e0 e0*``
    with ``D' = h D``, whose entries are 0 and +-1, and ``L' = 2^k (D' +
    hc I)``.  The float ``h`` and the floats ``d``, ``b`` have dyadic
    products, so some ``2^k`` makes every entry of ``L'`` and ``H'`` a
    Gaussian integer, and every entry of ``G'``, ``M = G'H'`` and ``C =
    M - M*`` is formed exactly in Python integers; ``G'`` is exactly
    Hermitian, so ``C = G'H' - H'*G'``.  The three sums of squares are
    exact too; they are rounded to ``dps`` digits, and the ratio and its
    square root taken at that precision.  Exact integers, unlike ``dps``
    digits, resolve the commutator where its entries are ``1e-300`` of
    those of ``GH`` (a tiny ``b`` or ``hc``).  A grid
    costs O(n) integer products, of ``k`` bits, and no O(n^3) dense
    product: the sums run over the nonzero entries of the factors.
    """
    import mpmath
    from fractions import Fraction

    n, h = spec.n, Fraction(spec.spacing)
    hd, hb = h * Fraction(spec.d), h * Fraction(spec.b)
    one = max(hd.denominator, hb.denominator)  # 2^k
    cr, ci = int(hd * one), int(hb * one)  # 2^k hc
    dmat, lmat = {}, {}
    for i in range(n):
        dmat[i, i], lmat[i, i] = (-1, 0), (cr - one, ci)
        if i + 1 < n:
            dmat[i, i + 1], lmat[i, i + 1] = (1, 0), (one, 0)
    gmat = _exact_product(_exact_adjoint(lmat), lmat)
    hmat = {k: (one * re, one * im) for k, (re, im) in _exact_product(_exact_adjoint(dmat), dmat).items()}
    re, im = hmat[0, 0]
    hmat[0, 0] = (re - cr, im - ci)
    m = _exact_product(gmat, hmat)
    m_adj = _exact_adjoint(m)
    zero = (0, 0)
    commutator = {
        k: (m.get(k, zero)[0] - m_adj.get(k, zero)[0], m.get(k, zero)[1] - m_adj.get(k, zero)[1])
        for k in m.keys() | m_adj.keys()
    }
    with mpmath.workdps(dps):
        num, g_sq, h_sq = (mpmath.mpf(_exact_sum_sq(a)) for a in (commutator, gmat, hmat))
        return mpmath.sqrt(num / (g_sq * h_sq))


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
    from qherm.halfline import _TINY, FLOOR_EPSILON, SamsonovRow

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
        hmat, gmat, _ = dense_pair(grid)

        w_g, v_g = np.linalg.eigh(herm_part(gmat))
        min_eig = float(w_g[0])
        gap = min_eig - d2

        commutator = gmat @ hmat - hmat.conj().T @ gmat
        denom = fro(gmat) * fro(hmat) + _TINY
        residual_full = fro(commutator) / denom

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
            grid.spacing,
            min_eig,
            gap,
            residual_full,
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
    weights ``z2_k`` are those that function documents.  Where the bisected
    minimum falls below ``FLOOR_EPSILON`` times the maximum, it is replaced
    by ``sigma_min(L)^2`` (``halfline._min_singular_squared``), as the
    half-line report replaces it, so this reference also checks that
    function's cheaper decision of where the floor binds.
    """
    from qherm.halfline import FLOOR_EPSILON, _min_singular_squared

    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    inv_h = 1.0 / h
    rho = inv_h * inv_h
    diag = c - inv_h
    mod = abs(diag)
    coupling = mod * inv_h
    if coupling == 0.0:
        lowest, highest = mod * mod, mod * mod + rho
    else:
        shift = (abs(c) ** 2 - 2.0 * c.real * inv_h) / (mod + inv_h)
        theta = np.arange(1, n + 1) * (np.pi / (n + 1))
        nu = shift * shift + 4.0 * coupling * np.sin(0.5 * theta) ** 2
        z2 = (2.0 / (n + 1)) * np.sin(theta) ** 2

        def secular(lam: float) -> float:
            return 1.0 - rho * float(np.sum(z2 / (nu - lam)))

        lowest = _bisect_decreasing(secular, float(nu[0] - rho), float(nu[0]))
        highest = _bisect_decreasing(secular, float(nu[-2]), float(nu[-1]))
    if lowest < FLOOR_EPSILON * highest:
        lowest = _min_singular_squared(grid)
    return lowest, highest


def rank_defective(es) -> bool:
    """The rank test on the clusters of an ``Eigensystem``: defective when
    some cluster's size exceeds the nullity of ``A - lam I``, counted as the
    singular values at most ``tol ||A||_2``; O(n^3) per cluster."""
    a = es.operator.matrix
    a2 = float(np.linalg.norm(a, 2))
    for cluster in es.clusters:
        if cluster.size == 1:
            continue
        sv = np.linalg.svd(a - cluster.value * np.eye(es.dim), compute_uv=False)
        if np.count_nonzero(sv <= es.tol * a2) < cluster.size:
            return True
    return False


def complex_eig_general(a: np.ndarray, tol: float) -> Eigensystem:
    """The record of ``a`` from complex ``eig``, whatever its entries: the
    eigenvalues and unit eigenvectors sorted as ``eig_general`` sorts them."""
    op = ensure_operator(a)
    w, v = np.linalg.eig(op.matrix)
    w, v = _sorted_eig(w, v)
    return Eigensystem(op, w, v, tol)


def mp_jordan_nullities(a: np.ndarray, value: complex, size: int, tol: float, dps: int = 50) -> list[int]:
    """The nullities of ``(A - value I)^k`` for ``k = 1..size`` in ``dps``
    digits: for each power, the number of its singular values at most
    ``tol ||A||_F^k``.  An eigenvalue of algebraic multiplicity ``size`` at
    that tolerance reaches nullity ``size`` by ``k = size``; its geometric
    multiplicity is the first nullity, and its Jordan blocks number
    ``nullity_1``, those longer than ``k`` ``nullity_(k+1) - nullity_k``."""
    import mpmath

    with mpmath.workdps(dps):
        base = mpmath.matrix(np.asarray(a).tolist())
        m = base - mpmath.mpc(value) * mpmath.eye(base.rows)
        scale = mpmath.mnorm(base, "f")
        power, nullities = m, []
        for k in range(1, size + 1):
            sv = mpmath.svd_c(power, compute_uv=False)
            nullities.append(sum(1 for s in sv if s <= tol * scale**k))
            power = power * m
    return nullities


def mp_defective(es, dps: int = 50) -> bool:
    """The Jordan-structure verdict on the clusters of an ``Eigensystem``
    from :func:`mp_jordan_nullities`: defective when some cluster's first
    nullity falls short of its size.  Raises ``ValueError`` for a cluster
    that is no ``size``-fold eigenvalue at the record's tolerance."""
    for cluster in es.clusters:
        if cluster.size == 1:
            continue
        nullities = mp_jordan_nullities(es.operator.matrix, cluster.value, cluster.size, es.tol, dps)
        if nullities[-1] < cluster.size:
            raise ValueError(f"cluster at {cluster.value} has nullities {nullities}")
        if nullities[0] < cluster.size:
            return True
    return False


def conjugate_pairing(es) -> list[tuple[int, int]]:
    """Greedy nearest-conjugate matching at ``es.tol``; real eigenvalues pair with themselves."""
    w, tol = es.eigenvalues, es.tol
    pairs: list[tuple[int, int]] = []
    unpaired = np.flatnonzero(~es.real).tolist()
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


def dense_swap_pseudo_metric(es) -> tuple[np.ndarray, tuple[int, int]]:
    """``solve_pseudo_metric`` of a record, with its n x n swap matrix ``M``:
    the identity on real eigenvalues, exchanging each conjugate pair."""
    m = np.eye(es.dim, dtype=np.complex128)
    for i, j in es.conjugate_pairs:
        m[i, i] = m[j, j] = 0.0
        m[i, j] = m[j, i] = 1.0
    s_inv = np.linalg.inv(es.scaled_vectors)
    t = herm_part(s_inv.conj().T @ m @ s_inv)
    wt = np.linalg.eigvalsh(t)
    t = t / max(float(np.abs(wt).max()), _TINY)
    return t, (int(np.count_nonzero(wt > 0.0)), int(np.count_nonzero(wt < 0.0)))


def _rg_norm(M, xi: np.ndarray) -> float:
    return float(np.sqrt(max(inner(xi, xi).real + inner(M.G.matrix @ xi, xi).real, 0.0)))


def loop_verify_lattice(M, samples, tol: float) -> LatticeReport:
    """``verify_lattice`` one sample at a time, with dense ``R_G^-1`` and ``R_G^1/2``."""
    v, w = M.eigenvectors, M.eigenvalues
    riesz_half = (v * np.sqrt(1.0 + w)) @ v.conj().T
    riesz_inv = (v * (1.0 / (1.0 + w))) @ v.conj().T
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
        rows.append((proj, dual_exact, slack, unit_res, chain))
    proj, dual, slack, unit_res, chain = (np.array(c) for c in zip(*rows))
    max_proj, max_dual, max_unit = (float(c.max()) for c in (proj, dual, unit_res))
    chain_all = bool(chain.all())
    passed = max_proj <= tol and max_dual <= tol and max_unit <= tol and chain_all
    norms = np.array([astuple(n) for n in sample_norms]).T
    return LatticeReport(
        tol, rescale, norms, proj, dual, slack, unit_res, chain,
        max_proj, max_dual, max_unit, chain_all, passed,
    )


def loop_push_eigenvectors(A, B, T, tol: float) -> PushReport:
    """``push_eigenvectors`` one eigenvector image at a time."""
    B, T = ensure_operator(B), ensure_operator(T)
    rep = verify_intertwining(A.operator if isinstance(A, Eigensystem) else A, B, T, tol)
    if rep.residual > tol:
        raise IntertwiningViolated(
            f"intertwining residual {rep.residual:.3e} exceeds {tol:.3e}", report=rep
        )
    es = ensure_eigensystem(A, tol)
    t2 = float(rep.singular_values[0]) if len(rep.singular_values) else 0.0
    lams, norms, residuals, annihilated = [], [], [], []
    for k in range(es.dim):
        lam = es.eigenvalues[k]
        image = T.matrix @ es.right_vectors[:, k]
        norm = float(np.linalg.norm(image))
        if norm <= tol * t2:
            annihilated.append((complex(lam), norm))
            continue
        res = float(np.linalg.norm(B.matrix @ image - lam * image)) / norm
        lams.append(complex(lam))
        norms.append(norm)
        residuals.append(res)
    max_res = max(residuals, default=0.0)
    return PushReport(
        np.array(lams, dtype=np.complex128), np.array(norms), np.array(residuals),
        tuple(annihilated), max_res, rep, max_res <= tol * fro(B.matrix),
    )
