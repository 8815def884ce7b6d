"""Second derivative on the half-line with a complex Robin condition.

Discretizes ``H = -d^2/dx^2`` on ``[0, L]`` (truncating ``[0, inf)`` with
a Dirichlet wall at ``L``) subject to ``xi'(0) + (d + i b) xi(0) = 0``,
together with the metric ``G = -d^2/dx^2 - 2 i b d/dx + d^2 + b^2``.

Writing ``c = d + i b`` and ``D`` for the forward-difference matrix with
the Dirichlet wall, everything is built from one factor:

* ``L = D + c I`` discretizes ``d/dx + c``; its first row is exactly the
  forward-difference Robin functional, so the boundary condition is the
  kernel condition of that row.
* ``G_raw = L* L`` is Hermitian positive semidefinite by construction and
  reproduces ``(-d/dx + c̄)(d/dx + c) = -d^2/dx^2 - 2ib d/dx + d^2 + b^2``.
* ``H = D* D - (c/h) e0 e0*`` is the ghost-point elimination of the Robin
  condition in flux (half-cell) form: its quadratic form is the discrete
  ``int |xi'|^2 - c |xi(0)|^2``, and the ``d = b = 0`` limit is exactly
  Hermitian (it then coincides with ``G_raw``).

The continuum facts to track under grid refinement: ``min sigma(G)`` is
``d^2``, and for ``d < 0`` the spectrum of ``H`` is purely continuous and
real, so the discrete ``max |Im lambda(H)|`` must shrink with ``n``.

The refinement study works on the three diagonals of ``H``, ``G`` and
``L``, forms no n x n matrix and costs O(n) time and memory per grid
unless ``H`` has a bound state.  ``H`` and ``G`` are rank-one corner
updates of Toeplitz tridiagonals with closed-form eigenpairs (Golub 1973).
Newton's method finds each root of the characteristic equation of ``H``,
certified by every step converging and by ``tr H`` and ``tr H^2``; a grid
that fails, as every grid with a bound state does, takes Aberth-Ehrlich
sweeps on the secular equation of ``H`` (Bini-Robol 2014, O(n^2)) and
raises :class:`ConvergenceFailure` if those fail too.  Bisection on the
secular equation of ``G`` gives the extremes of ``sigma(G)``, but
``min sigma(G)`` is ``sigma_min(L)^2`` by inverse iteration where
:data:`FLOOR_EPSILON` binds.  The commutator ``GH - H*G`` comes from its
five bands and the Hermiticity residual of ``G^1/2 H G^-1/2`` from
``L H L^-1`` in closed form.  Only :func:`build_pair` calls BLAS or
LAPACK, so the report does not depend on the BLAS thread count.

One could instead take ``G^-1`` (bounded, with unbounded inverse) as the
metric; it has no closed form, so this module does not represent it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Operator
from .errors import ConvergenceFailure, InvalidSpec, SingularMetric

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps

# rows this close to either end are "boundary" for the interior residual;
# the commutator of the two tridiagonal operators reaches two rows past a
# perturbed entry, so three is one row of slack
_BOUNDARY_MARGIN = 3

# largest grid size: build_pair forms dense n x n matrices (16 * 8192**2
# bytes = 1 GiB each at n = 8192), and the Aberth sweeps take O(n^2) time
MAX_GRID_SIZE = 8192

# min sigma(G) / max sigma(G) below which min sigma(G) is sigma_min(L)^2
FLOOR_EPSILON = 1e-12

# Newton steps per root before the Aberth sweeps take over the spectrum of H
_MAX_NEWTON_STEPS = 10

# Aberth sweeps before the spectrum of H is given up as unconverged
_MAX_SWEEPS = 60

# elements of one row block of an Aberth sweep: each (block x n) temporary
# stays at 1 MiB whatever n is
_BLOCK_ELEMENTS = 1 << 16

# slack for the non-increasing trend tests, absorbing rounding noise on
# quantities that sit at machine level (the interior residual in particular)
_TREND_FLOOR = 1e-13

__all__ = [
    "HalfLineSpec",
    "DiscretizedPair",
    "SamsonovRow",
    "SamsonovReport",
    "default_box_length",
    "build_pair",
    "samsonov_report",
]


def default_box_length(d: float) -> float:
    """Truncation length with O(1/L) Dirichlet pollution kept fixed."""
    return 40.0 / abs(d) if d != 0.0 else 40.0


@dataclass(frozen=True)
class HalfLineSpec:
    """Parameters of the discretized Robin problem.

    Grid nodes sit at ``x_j = j h`` for ``j = 0 .. n-1`` with
    ``h = box_length / n``; the Dirichlet wall removes the node at ``L``.
    ``n`` runs from 16 to :data:`MAX_GRID_SIZE`.
    """

    d: float
    b: float
    box_length: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.d) and np.isfinite(self.b)):
            raise InvalidSpec("d and b must be finite")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise InvalidSpec(f"box_length must be positive, got {self.box_length}")
        try:
            float(self.n)  # the spacing box_length / n must be a float
        except OverflowError:
            raise InvalidSpec("grid size n is too large for a float") from None
        if self.n > MAX_GRID_SIZE:
            raise InvalidSpec(
                f"grid size n = {self.n} exceeds the dense limit {MAX_GRID_SIZE}"
            )
        if int(self.n) != self.n or self.n < 16:
            raise InvalidSpec(f"need at least 16 grid points, got {self.n}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def robin_coefficient(self) -> complex:
        return complex(self.d, self.b)

    def with_n(self, n: int) -> "HalfLineSpec":
        return HalfLineSpec(self.d, self.b, self.box_length, n)


@dataclass(frozen=True, eq=False)
class DiscretizedPair:
    """The discretized operator, metric, and the factor generating both."""

    H: Operator
    G_raw: Operator
    L_factor: Operator
    spacing: float


def build_pair(spec: HalfLineSpec) -> DiscretizedPair:
    """Assemble ``H``, ``L`` and ``G_raw = L* L`` for one grid."""
    n, h, c = spec.n, spec.spacing, spec.robin_coefficient
    dmat = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    dmat[idx, idx] = -1.0 / h
    dmat[idx[:-1], idx[:-1] + 1] = 1.0 / h

    lmat = dmat + c * np.eye(n)
    gmat = lmat.conj().T @ lmat

    hmat = (dmat.conj().T @ dmat).astype(np.complex128)
    hmat[0, 0] -= c / h
    return DiscretizedPair(
        Operator(hmat, "half-line H"),
        Operator(gmat, "half-line G"),
        Operator(lmat, "first-order factor"),
        h,
    )


@dataclass(frozen=True)
class SamsonovRow:
    """One grid size of the refinement study (also one CSV row)."""

    n: int
    spacing: float
    min_eig_G: float
    gap_to_d2: float
    residual_full: float
    residual_interior: float
    herm_residual_h: float  # nan where L is singular (1 - hc = 0)
    max_im_lambda_H: float
    order_estimate: float  # of residual_full against the previous row; nan first


@dataclass(frozen=True, eq=False)
class SamsonovReport:
    """Grid-refinement verdict for the Robin pair.

    Passing means: the interior metric-relation residual and the largest
    spurious imaginary eigenvalue part do not grow with ``n``, and the gap
    ``min sigma(G) - d^2`` shrinks monotonically.
    """

    spec: HalfLineSpec
    rows: tuple[SamsonovRow, ...]
    floor_epsilon: float
    d_squared: float
    interior_residual_nonincreasing: bool
    max_im_nonincreasing: bool
    gap_monotone: bool
    passed: bool

    def csv_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            out.append(
                {
                    "n": r.n,
                    "h": r.spacing,
                    "min_eig_G": r.min_eig_G,
                    "gap_to_d2": r.gap_to_d2,
                    "residual_full": r.residual_full,
                    "residual_interior": r.residual_interior,
                    "herm_residual_h": r.herm_residual_h,
                    "max_im_lambda_H": r.max_im_lambda_H,
                    "order_estimates": r.order_estimate,
                }
            )
        return out


def _nonincreasing(values: list[float], floor: float) -> bool:
    return all(b <= a + floor for a, b in zip(values, values[1:]))


# The kernels below work on tridiagonal matrices stored as (n, 3) band
# arrays, column s + 1 holding the entries [i, i + s]; entries that fall
# outside the matrix are zero.


def _bands(grid: HalfLineSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bands of ``H`` and ``G = L* L``, entry for entry as :func:`build_pair`."""
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    inv_h = 1.0 / h
    s = inv_h * inv_h
    diag = c - inv_h  # the diagonal of L
    hb = np.zeros((n, 3), dtype=np.complex128)
    hb[:, 1] = 2.0 * s
    hb[0, 1] = s - c / h
    hb[1:, 0] = -s
    hb[:-1, 2] = -s
    gb = np.zeros((n, 3), dtype=np.complex128)
    gb[:, 1] = diag.real**2 + diag.imag**2 + s
    gb[0, 1] = diag.real**2 + diag.imag**2
    gb[1:, 0] = inv_h * diag
    gb[:-1, 2] = diag.conjugate() * inv_h
    return hb, gb


def _sum_sq(a: np.ndarray) -> float:
    return float(np.sum(a.real**2 + a.imag**2))


def _commutator_bands(gb: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """The five bands (offsets -2..2) of ``C = GH - H*G = M - M*``, ``M = GH``."""
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


def _metric_extremes(grid: HalfLineSpec) -> tuple[float, float]:
    """``min sigma(G)`` and ``max sigma(G)`` from the metric's secular equation.

    With ``a = c - 1/h`` the phase similarity ``diag(phi^j)``,
    ``phi = -conj(beta)/|beta|``, turns ``G`` into the real
    ``T0 - h^-2 e0 e0^T`` with ``T0 = (|a|^2 + h^-2) I - |beta| (S + S^T)``
    and ``|beta| = |a|/h``.  ``T0`` has eigenvalues
    ``nu_k = (|a| - 1/h)^2 + 4 (|a|/h) sin^2(theta_k/2)``,
    ``theta_k = k pi/(n+1)``, and squared first components
    ``2 sin^2(theta_k)/(n+1)``, so ``sigma(G)`` are the roots of
    ``1 = h^-2 sum_k z_k^2/(nu_k - lam)``: one below ``nu_1`` and one in
    each gap above it.  The two outer roots are found by bisection, in
    O(n) per step.  ``nu_k`` is a sum of two nonnegative terms, so the
    lowest root carries rounding of the size of ``nu_1``, not of ``||G||``.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    inv_h = 1.0 / h
    rho = inv_h * inv_h
    diag = c - inv_h
    mod = abs(diag)
    coupling = mod * inv_h
    if coupling == 0.0:
        # G is diagonal: |a|^2 in the corner, |a|^2 + h^-2 below it
        return mod * mod, mod * mod + rho
    # |a| - 1/h without cancellation: |a|^2 - h^-2 = |c|^2 - 2 d/h
    shift = (abs(c) ** 2 - 2.0 * c.real * inv_h) / (mod + inv_h)
    theta = np.arange(1, n + 1) * (np.pi / (n + 1))
    nu = shift * shift + 4.0 * coupling * np.sin(0.5 * theta) ** 2
    z2 = (2.0 / (n + 1)) * np.sin(theta) ** 2

    def secular(lam: float) -> float:
        return 1.0 - rho * float(np.sum(z2 / (nu - lam)))

    lowest = _bisect_decreasing(secular, float(nu[0] - rho), float(nu[0]))
    highest = _bisect_decreasing(secular, float(nu[-2]), float(nu[-1]))
    return lowest, highest


def _min_singular_squared(grid: HalfLineSpec) -> float:
    """``min sigma(G) = sigma_min(L)^2`` by inverse iteration, to high
    relative accuracy.  ``h L`` is unitarily similar to a unimodular multiple
    of the real ``N = m I - S``, ``m = |1 - hc|``, and ``N^-1[i, j] =
    m^-(j-i+1)`` for ``j >= i``: ``N^-1`` and ``N^-T`` are cumulative sums
    of positive terms.  The floor binds only for ``m < 1``, where ``y_j =
    m^(n-1-j) u_j`` keeps every entry in range and ``m^2n`` is taken by
    logarithms, so a minimum below the float range, or a singular ``L``,
    gives 0.0.  Four steps from ``u = 1``, the dominant direction, converge.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    m2 = abs(1.0 - h * c) ** 2
    if m2 == 0.0:
        return 0.0
    # near m = 1, log m^2 from m^2 - 1 = h (h |c|^2 - 2d), which keeps it relative
    log_m2 = np.log1p(h * (h * abs(c) ** 2 - 2.0 * c.real)) if m2 > 0.5 else np.log(m2)
    weights = np.exp(np.arange(n) * log_m2)  # m^2k; underflow is harmless
    u = np.ones(n)
    for _ in range(4):
        w = np.cumsum(weights * (u / u[-1])[::-1])[::-1]
        u = np.cumsum(weights * w)
    # ||x||^2 / ||N^-T x||^2 at x = N^-1 y, times m^2n and the 1/h^2 of L
    ratio = np.sum(weights * w * w) / np.sum(weights * u[::-1] ** 2)
    return float(np.exp(n * log_m2 + np.log(ratio) - 2.0 * np.log(h)))


def _factor_herm_residual(grid: HalfLineSpec) -> float:
    """``||Z - Z*||_F / ||Z||_F`` with ``Z = L H L^-1``, in closed form.

    ``G^1/2 = Q* L`` and ``G^-1/2 = L^-1 Q``, with ``Q`` the unitary polar
    factor of ``L``, so ``G^1/2 H G^-1/2 = Q* Z Q`` and the Frobenius norms
    of it and of its anti-Hermitian part ``G^-1/2 C G^-1/2 = Q* L^-* C
    L^-1 Q`` are those of ``Z`` and ``Z - Z*``.  ``L = D + cI`` and ``H``
    commute up to rows 0 and n-1, so with ``s = h^-2`` and
    ``q = 1/(1 - hc)``::

        Z = H + e0 w^T - s q e_{n-1} e_{n-1}^T,
        w_0 = s q,  w_j = c^2 q^(j+1) for j >= 1.

    ``Z - Z*`` is then row and column 0 and the last diagonal entry.  Its
    entries are written without cancellation, ``|q|^2 = 1/|1 - hc|^2``, and
    for ``|q| > 1`` both sums are over their largest term ``|q|^2n``.  It is
    the exact transform's residual also where the floor binds (floored roots
    of ``G`` give 0.94, not ``sqrt 2``, at ``d, b, L, n = 1, 0.5, 40, 1600``).
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    d, b = c.real, c.imag
    s = 1.0 / (h * h)
    one_minus = 1.0 - h * c  # -h times the diagonal of L
    m2 = one_minus.real**2 + one_minus.imag**2
    if m2 == 0.0:
        return float("nan")
    q = 1.0 / one_minus
    c2 = c * c
    c4 = c2.real**2 + c2.imag**2
    # |q|^(2k) for k = 2..n, over |q|^2n if |q| > 1: |w_j|^2 = |c|^4 |q|^(2(j+1))
    top = n if m2 < 1.0 else 0
    tail = np.exp((top - np.arange(2, n + 1)) * np.log(m2))
    scale = m2**top
    # Im Z[0,0] = s Im q - b/h and Im Z[n-1,n-1] = -s Im q
    im_corner = b * (2.0 * d - h * abs(c) ** 2) / m2
    im_last = b / (h * m2)
    num_sq = 4.0 * im_corner**2 * scale + 2.0 * c4 * np.sum(tail) + 4.0 * im_last**2 * scale
    z00 = s * (1.0 + q) - c / h
    z01 = c2 * q * q - s
    den_sq = (
        abs(z00) ** 2 * scale
        + abs(z01) ** 2 * scale
        + c4 * np.sum(tail[1:])
        # rows 1..n-2 of H, then row n-1 with its corrected diagonal
        + s * s * (6.0 * (n - 2) + 1.0 + abs(2.0 - q) ** 2) * scale
    )
    return float(np.sqrt(num_sq) / max(np.sqrt(den_sq), _TINY))


def _newton(n: int, h: float, c: complex) -> np.ndarray | None:
    """``sigma(H)`` root by root from its closed-form characteristic
    equation, or None if a root has not converged after
    ``_MAX_NEWTON_STEPS`` steps.

    Write ``h^2 lam = 2 - q - 1/q`` and ``beta = 1 + hc``.  The rows of
    ``h^2 (H - lam)`` below the corner and the Dirichlet wall leave
    ``x_j = q^j - q^(2n-j)``, and the corner row (the ghost value
    ``x_-1 = beta x_0``) then asks ``q^2n (beta - q) = beta - 1/q``, which
    the spurious ``q = +-1`` satisfy too.  With ``q = e^(i phi)`` each root
    is a zero of ``F(phi) = 2n i phi - Log((beta - 1/q)/(beta - q)) -
    2 pi i m``, ``F' = i (2n - 1/(beta q - 1) - q/(beta - q))``, with ``m``
    the nearest integer at every step.  Root ``k`` starts from the ``c = 0``
    root ``phi_k = (2k+1) pi/(2n+1)``, where ``lam`` is the pole ``mu_k``
    of the secular equation, and has converged once its step is at most
    four units in the last place of ``|phi|``.  Nothing keeps two starts
    from reaching one root, or one from reaching ``q = 1``, and no start
    reaches the bound state (``|q| < 1``) that ``H`` has once
    ``|beta| > 1``; the certificate of :func:`_certified` rejects all
    three.

    Everything is formed without cancellation, since ``|Im lam|`` is what
    the study reads: ``beta - q`` as ``hc - 2i sin(phi/2) q^1/2`` (and
    ``beta - 1/q`` alike), the real part of the logarithm from
    ``|beta - 1/q|^2 - |beta - q|^2``, which is proportional to ``Im c``
    for real ``phi``, and ``lam`` as ``(4/h^2) sin^2(phi/2)``.  For
    ``Im c < 0`` the roots are those of ``conj c``, conjugated, since
    ``H(conj c) = conj H(c)``.
    """
    flip = c.imag < 0.0
    hc = h * (c.conjugate() if flip else c)
    phi = ((2 * np.arange(n) + 1) * (np.pi / (2 * n + 1))).astype(np.complex128)
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_NEWTON_STEPS):
        todo = np.flatnonzero(active)
        if todo.size == 0:
            break
        p = phi[todo]
        x, y = p.real, p.imag
        root_q = np.exp(0.5j * p)
        chord = 2j * np.sin(0.5 * p)  # q^1/2 - q^-1/2
        minus = hc - chord * root_q  # beta - q
        plus = hc + chord / root_q  # beta - 1/q
        q = root_q * root_q
        # |beta - 1/q|^2 - |beta - q|^2 as a sum that keeps its relative
        # accuracy; for real phi it is 4 Im(hc) sin(phi)
        excess = 4.0 * hc.imag * np.sin(x) * np.cosh(y) + 4.0 * np.sinh(y) * (
            2.0 * np.sinh(0.5 * y) ** 2 + 2.0 * np.sin(0.5 * x) ** 2 - hc.real * np.cos(x)
        )
        log_modulus = 0.5 * np.log1p(excess / (minus.real**2 + minus.imag**2))
        angle = np.angle(plus / minus)
        m = np.round((2 * n * x - angle) / (2.0 * np.pi))
        f = 2j * n * p - log_modulus - 1j * (angle + 2.0 * np.pi * m)
        f_prime = 1j * (2 * n - 1.0 / (q * plus) - q / minus)
        step = f / f_prime
        phi[todo] = p - step
        active[todo] = ~(np.abs(step) <= 4.0 * _EPS * np.abs(phi[todo]))
    if active.any():
        return None
    roots = (4.0 / (h * h)) * np.sin(0.5 * phi) ** 2
    return roots.conjugate() if flip else roots


def _aberth(mu: np.ndarray, w: np.ndarray, rho: complex) -> np.ndarray | None:
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


def _certified(roots: np.ndarray | None, hb: np.ndarray) -> bool:
    """Whether ``roots`` (None for a solver that did not converge) pass for
    ``sigma(H)``: ``sum lam = tr H`` and ``sum lam^2 = tr H^2`` to ``n``
    units in the last place of ``sum |lam|`` and ``sum |lam|^2``."""
    if roots is None:
        return False
    moduli = np.abs(roots)
    trace = np.sum(hb[:, 1])
    trace_sq = np.sum(hb[:, 1] ** 2) + 2.0 * np.sum(hb[:-1, 2] * hb[1:, 0])
    slack = roots.size * _EPS
    return bool(
        abs(np.sum(roots) - trace) <= slack * np.sum(moduli)
        and abs(np.sum(roots * roots) - trace_sq) <= slack * np.sum(moduli**2)
    )


def _max_im_eigenvalue(grid: HalfLineSpec, hb: np.ndarray) -> float:
    """``max |Im lambda(H)|``, each solver taking over when the one before
    it fails the certificate of :func:`_certified`.

    First :func:`_newton`, O(n) per step.  Then :func:`_aberth` on the
    secular equation: ``H = T - (c/h) e0 e0^T`` where ``T = D^T D`` has
    eigenvalues ``mu_k = (4/h^2) sin^2(theta_k/2)``,
    ``theta_k = (2k+1) pi/(2n+1)``, with squared first components
    ``w_k = 4 cos^2(theta_k/2)/(2n+1)`` (Golub 1973), O(n^2) per sweep.
    Last, :class:`ConvergenceFailure`.  A real ``c`` makes ``H`` real symmetric.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    if c.imag == 0.0:
        return 0.0
    roots = _newton(n, h, c)
    if not _certified(roots, hb):
        half = (np.arange(n) + 0.5) * (np.pi / (2 * n + 1))
        mu = (4.0 / (h * h)) * np.sin(half) ** 2
        w = (4.0 / (2 * n + 1)) * np.cos(half) ** 2
        roots = _aberth(mu, w, c / h)
        if not _certified(roots, hb):
            raise ConvergenceFailure(f"no certified spectrum of H at n = {n}")
    return float(np.abs(roots.imag).max())


def samsonov_report(spec: HalfLineSpec, schedule: list[int]) -> SamsonovReport:
    """Run the refinement study over ascending grid sizes ``schedule``.

    Each grid costs O(n) time and memory, or O(n^2) time when the Aberth
    sweeps take over, and forms no n x n matrix.  Raises
    :class:`ConvergenceFailure` when the Aberth roots fail their certificate.
    """
    sizes = [int(n) for n in schedule]
    if not sizes or sorted(sizes) != sizes:
        raise InvalidSpec(f"schedule must be ascending grid sizes, got {schedule}")
    # every grid size is validated before the first grid is built
    specs = [spec.with_n(n) for n in sizes]
    d2 = spec.d**2
    rows: list[SamsonovRow] = []
    prev: SamsonovRow | None = None
    for grid in specs:
        n = grid.n
        hb, gb = _bands(grid)
        min_eig, max_eig = _metric_extremes(grid)
        if max_eig <= 0.0:
            raise SingularMetric("discretized metric has no positive spectrum")

        cb = _commutator_bands(gb, hb)
        denom = np.sqrt(_sum_sq(gb)) * np.sqrt(_sum_sq(hb)) + _TINY
        residual_full = np.sqrt(_sum_sq(cb)) / denom
        interior = cb[_BOUNDARY_MARGIN : n - _BOUNDARY_MARGIN]
        residual_interior = np.sqrt(_sum_sq(interior)) / denom

        if min_eig < FLOOR_EPSILON * max_eig:
            min_eig = _min_singular_squared(grid)
        gap = min_eig - d2

        max_im = _max_im_eigenvalue(grid, hb)

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
            float(residual_full),
            float(residual_interior),
            _factor_herm_residual(grid),
            max_im,
            order,
        )
        rows.append(row)
        prev = row

    interiors = [r.residual_interior for r in rows]
    max_ims = [r.max_im_lambda_H for r in rows]
    gaps = [r.gap_to_d2 for r in rows]
    interior_ok = _nonincreasing(interiors, _TREND_FLOOR)
    max_im_ok = _nonincreasing(max_ims, _TREND_FLOOR)
    # the discrete minimum of sigma(G) drifts monotonically toward its
    # limit; the direction depends on whether d^2 sits below the truncated
    # box's own minimum, so monotone in either sense passes
    gap_floor = abs(d2) * 1e-12 + _TREND_FLOOR
    gap_ok = _nonincreasing(gaps, gap_floor) or _nonincreasing(gaps[::-1], gap_floor)
    passed = interior_ok and max_im_ok and gap_ok
    return SamsonovReport(
        spec,
        tuple(rows),
        FLOOR_EPSILON,
        d2,
        interior_ok,
        max_im_ok,
        gap_ok,
        passed,
    )
