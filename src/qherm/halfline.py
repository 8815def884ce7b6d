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
``L``, forms no n x n matrix and costs O(n) time and memory per grid.
``H`` and ``G`` are rank-one corner updates of Toeplitz tridiagonals with
closed-form eigenpairs (Golub 1973).  Newton's method finds each root of
the characteristic equation of ``H`` from up to three sets of starts: the
roots at ``c = 0``; the bound state that ``H`` has once ``|1 + hc| > 1``,
by Newton's method on ``det(H - lam)`` in secular form, with the rest of
the circle; and starts that follow the change of layout of the roots near
``|1 + hc| = 1``.  The first set whose steps all converge and whose roots
match ``tr H`` and ``tr H^2`` gives ``sigma(H)``; if none does, the report
raises :class:`ConvergenceFailure`.  Each root keeps ``Im lambda``
relative to ``b``, however small ``b`` is.  Safeguarded Newton steps
on the secular equation of ``G`` give the extremes of ``sigma(G)``, the
same floats as bisection to the last bit, but ``min sigma(G)`` is
``sigma_min(L)^2`` by inverse iteration where :data:`FLOOR_EPSILON`
binds.  The commutator ``GH - H*G`` comes from its five bands and the
Hermiticity residual of ``G^1/2 H G^-1/2`` from ``L H L^-1`` in closed
form.  Only :func:`build_pair` calls BLAS or LAPACK, so the report does
not depend on the BLAS thread count.

One could instead take ``G^-1`` (bounded, with unbounded inverse) as the
metric; it has no closed form, so this module does not represent it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Operator
from .errors import ConvergenceFailure, InvalidSpec

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps

# rows this close to either end are "boundary" for the interior residual;
# the commutator of the two tridiagonal operators reaches two rows past a
# perturbed entry, so three is one row of slack
_BOUNDARY_MARGIN = 3

# largest grid size: build_pair forms dense n x n matrices (16 * 8192**2
# bytes = 1 GiB each at n = 8192); the report itself is O(n)
MAX_GRID_SIZE = 8192

# bound on the scale max(|d|, |b|, 1/h) and its inverse (see HalfLineSpec)
_SCALE_LIMIT = 1e37

# min sigma(G) / max sigma(G) below which min sigma(G) is sigma_min(L)^2
FLOOR_EPSILON = 1e-12

# Newton steps per root before a start set is given up as unconverged
_MAX_NEWTON_STEPS = 10

# Newton steps on the bound state, each O(n): near the threshold where the
# state binds, or near |1 + hc| = 1, it takes up to about 25
_MAX_BOUND_STATE_STEPS = 50

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
        # the report forms up to the eighth power of r = max(|d|, |b|, 1/h):
        # the squared entries of the commutator GH - H*G, each below
        # 150 r^4, summed over five bands of n <= 8192 rows, stay below
        # 1e9 r^8, which r <= 1e37 keeps under 1e305, short of overflow;
        # r >= 1e-37 keeps r^8 a normal float, and the metric nonzero
        scale = max(abs(self.d), abs(self.b), self.n / self.box_length)
        if not 1.0 / _SCALE_LIMIT <= scale <= _SCALE_LIMIT:
            raise InvalidSpec(
                f"max(|d|, |b|, n / box_length) = {scale:g} lies outside "
                f"[{1.0 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]: the report's "
                "numbers would overflow or underflow"
            )

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


def _secular(
    x: float, nu: np.ndarray, z2: np.ndarray, rho: float
) -> tuple[float, float, np.ndarray]:
    """``f(x) = 1 - rho sum_k z2_k/(nu_k - x)``, ``-f'(x)`` and ``nu - x``;
    ``f`` is ``1.0 - rho * np.sum(z2 / (nu - x))``, operation for operation,
    which the argument of :func:`_metric_extremes` rests on."""
    gap = nu - x
    terms = z2 / gap
    f = 1.0 - rho * float(np.sum(terms))
    return f, rho * float(np.sum(terms / gap)), gap


def _secular_root(
    nu: np.ndarray, z2: np.ndarray, rho: float, lo: float, hi: float, pole: int
) -> float:
    """The root of ``f`` of :func:`_secular` in ``(lo, hi)`` next to the
    pole ``nu[pole]``, to the last bit: ``0.5 (lo + hi)`` once no float lies
    between ``lo`` and ``hi``.

    Every ``x`` evaluated lies inside the bracket and replaces ``lo`` where
    ``f(x) > 0``, ``hi`` otherwise.  The next ``x`` is the root of the
    rational model ``A + B/(nu[pole] - lam)`` that matches ``sum_k
    z2_k/(nu_k - lam)`` and its slope at ``x`` (Bunch, Nielsen and Sorensen
    1978), Newton's step where that leaves the bracket, and the bisection
    point where both do.  The first ``x``, ``nu[pole] - rho z2[pole]``,
    bounds the root, since the pole's own term alone reaches ``1/rho``
    there.  A step that rounds to ``x`` probes toward the other side
    instead: 1 ulp at first, twice as far on each further such stall and
    never less than ``eps (hi - lo)``, so where the computed ``f`` is flat
    over many floats, as at a floor-binding ``min sigma(G)``, at most about
    53 probes come before they give way to bisection.
    """
    x = float(nu[pole] - rho * z2[pole])
    probe = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if not lo < x < hi:
            x = mid
        f, slope, gap = _secular(x, nu, z2, rho)
        if f > 0.0:
            lo = x
        else:
            hi = x
        step = x + f / (slope + f / float(gap[pole]))
        if not lo < step < hi:
            step = x + f / slope
        if step == x:
            probe = max(2.0 * probe, math.ulp(x), _EPS * (hi - lo))
            step = x + probe if f > 0.0 else x - probe
        x = step


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
    each gap above it.  :func:`_secular_root` finds the two outer roots, in
    O(n) per step and about 9 steps for both on the benchmark's grids.
    ``nu_k`` is a sum of two nonnegative terms, so the lowest root carries
    rounding of the size of ``nu_1``, not of ``||G||``.

    The result is, bit for bit, the float that bisection of the brackets
    ``(nu_1 - h^-2, nu_1)`` and ``(nu_(n-1), nu_n)`` to the last bit
    returns.  Inside either bracket each ``nu_k - lam`` keeps one sign,
    every operation of ``f`` is correctly rounded and monotone in its
    operands, and ``np.sum`` adds in a fixed order, so the computed ``f``
    is nonincreasing in ``lam`` and changes sign between exactly one pair
    of adjacent floats.  Any method that moves ``lo`` only to floats where
    the computed ``f > 0``, ``hi`` only to floats where it is not, and stops
    on adjacent floats, ends on that pair.
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
    lowest = _secular_root(nu, z2, rho, float(nu[0] - rho), float(nu[0]), 0)
    highest = _secular_root(nu, z2, rho, float(nu[-2]), float(nu[-1]), -1)
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
    for ``|q| > 1`` both sums are over their largest term ``|q|^2n``: every
    entry, at most of size ``|q|^2``, is formed times ``w = |q|^-2`` (so
    ``q w = conj(1 - hc)``) and its square times ``|q|^(4-2n)``, so nothing
    overflows however close ``hc`` is to 1.  For ``|q| <= 1``, ``w = 1``.
    It is the exact transform's residual also where the floor binds
    (floored roots of ``G`` give 0.94, not ``sqrt 2``, at ``d, b, L, n = 1,
    0.5, 40, 1600``).
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
    big = m2 < 1.0  # |q| > 1
    w = m2 if big else 1.0
    qw = one_minus.conjugate() if big else q
    scale = m2 ** (n - 2) if big else 1.0
    # |q|^(2k) for k = 2..n, over |q|^2n if |q| > 1: |w_j|^2 = |c|^4 |q|^(2(j+1))
    top = n if big else 0
    tail = np.exp((top - np.arange(2, n + 1)) * np.log(m2))
    # Im Z[0,0] = s Im q - b/h and Im Z[n-1,n-1] = -s Im q, times w
    im_corner = b * (2.0 * d - h * abs(c) ** 2) / (m2 / w)
    im_last = b / (h * (m2 / w))
    num_sq = 4.0 * im_corner**2 * scale + 2.0 * c4 * np.sum(tail) + 4.0 * im_last**2 * scale
    z00 = s * (w + qw) - c * w / h
    z01 = c2 * q * qw - s * w
    den_sq = (
        abs(z00) ** 2 * scale
        + abs(z01) ** 2 * scale
        + c4 * np.sum(tail[1:])
        # rows 1..n-2 of H, then row n-1 with its corrected diagonal
        + s * s * ((6.0 * (n - 2) + 1.0) * w * w + abs(2.0 * w - qw) ** 2) * scale
    )
    return float(np.sqrt(num_sq) / max(np.sqrt(den_sq), _TINY))


def _characteristic(p: np.ndarray, n: int, hc: complex) -> tuple[np.ndarray, np.ndarray]:
    """``F`` and ``F'`` of :func:`_newton` at ``phi = p``."""
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
    return f, 1j * (2 * n - 1.0 / (q * plus) - q / minus)


def _newton(phi: np.ndarray, n: int, hc: complex) -> np.ndarray | None:
    """Roots ``phi`` of the characteristic equation of ``H`` by Newton's
    method from the starts ``phi``, or None if one has not converged after
    ``_MAX_NEWTON_STEPS`` steps.

    Write ``h^2 lam = 2 - q - 1/q`` and ``beta = 1 + hc`` with ``Im c >= 0``.
    The rows of ``h^2 (H - lam)`` below the corner and the Dirichlet wall
    leave ``x_j = q^j - q^(2n-j)``, and the corner row (the ghost value
    ``x_-1 = beta x_0``) then asks ``q^2n (beta - q) = beta - 1/q``, which
    the spurious ``q = +-1`` satisfy too.  With ``q = e^(i phi)`` each root
    is a zero of ``F(phi) = 2n i phi - Log((beta - 1/q)/(beta - q)) -
    2 pi i m``, ``F' = i (2n - 1/(beta q - 1) - q/(beta - q))``, with ``m``
    the nearest integer at every step.  A root has converged once its step
    is at most four units in the last place of ``|phi|``.  Nothing keeps
    two starts from reaching one root, or one from reaching ``q = 1``; the
    certificate of :func:`_certified` rejects both.

    Everything is formed without cancellation, since ``|Im lam|`` is what
    the study reads: ``beta - q`` as ``hc - 2i sin(phi/2) q^1/2`` (and
    ``beta - 1/q`` alike), and the real part of the logarithm from
    ``|beta - 1/q|^2 - |beta - q|^2``, which is proportional to ``Im c``
    for real ``phi``.  ``Re F'`` is not: it is a difference of terms of
    size 1, so the complex steps leave ``Im phi`` with noise of about
    ``eps^2 |phi|``, which can swamp an ``Im phi`` below the rounding of
    ``|phi|``.  A root with ``|Im phi| <= eps |phi|`` (which takes ``|b|``
    far below ``|d|``) therefore takes its ``Im phi`` from one Newton step
    on ``Re F`` in ``Im phi`` alone, from the real axis: ``Im phi =
    Re F/Im F'`` at ``Re phi``, where ``Re F`` is proportional to ``Im c``
    and the step is exact to first order in ``Im phi``.  Every other root
    is left as the complex steps give it.
    """
    phi = phi.copy()
    active = np.ones(phi.size, dtype=bool)
    for _ in range(_MAX_NEWTON_STEPS):
        todo = np.flatnonzero(active)
        if todo.size == 0:
            break
        f, f_prime = _characteristic(phi[todo], n, hc)
        step = f / f_prime
        phi[todo] -= step
        active[todo] = ~(np.abs(step) <= 4.0 * _EPS * np.abs(phi[todo]))
    if active.any():
        return None
    low = np.abs(phi.imag) <= _EPS * np.abs(phi)
    if low.any():
        f, f_prime = _characteristic(phi.real[low].astype(np.complex128), n, hc)
        phi.imag[low] = f.real / f_prime.imag
    return phi


def _bound_state(n: int, hc: complex) -> complex | None:
    """``h^2 lam`` of the bound state that ``H`` has once ``|1 + hc| > 1``
    and the box is long enough, or None if it is not found.

    Newton's method in ``x = h^2 lam`` on ``det(h^2 H - x)``: a polynomial
    whose roots are ``sigma(h^2 H)`` alone, without the spurious ``q = +-1``
    or the pairs ``q, 1/q`` of :func:`_newton`, so that a state near the
    threshold where it binds is not lost.  ``h^2 H = T - hc e0 e0^T``, where
    ``T`` has eigenvalues ``nu_k = 4 sin^2(theta_k/2)``, ``theta_k =
    (2k+1) pi/(2n+1)``, with squared first components ``w_k = 4
    cos^2(theta_k/2)/(2n+1)`` (Golub 1973).  So ``det(h^2 H - x) = prod_k
    (nu_k - x) f(x)`` with ``f = 1 - hc sum_k w_k/(nu_k - x)``, and
    ``d log det/dx = f'/f - sum_k 1/(nu_k - x)``, O(n) per step.  The start
    is the bound state at ``n = inf``, ``x = -(hc)^2/beta``; the root has
    converged once its step is at most four units in the last place of
    ``max(|x|, nu_0)``.

    The sums run over real weights and poles, and the bound state lies
    below ``nu_0`` (above ``nu_(n-1)`` when ``Re hc < -2``), so the real
    and the imaginary parts of their terms are each of one sign: for small
    ``b`` the imaginary parts are formed without cancellation and ``Im x``
    stays relative to ``b``.
    """
    half = (np.arange(n) + 0.5) * (np.pi / (2 * n + 1))
    nu = 4.0 * np.sin(half) ** 2
    w = (4.0 / (2 * n + 1)) * np.cos(half) ** 2
    x = -hc * hc / (1.0 + hc)
    with np.errstate(all="ignore"):  # a diverging x ends as nan
        for _ in range(_MAX_BOUND_STATE_STEPS):
            r = 1.0 / (nu - x)
            f = 1.0 - hc * np.sum(w * r)
            step = f / (-hc * np.sum(w * r * r) - f * np.sum(r))
            x -= step
            if abs(step) <= 4.0 * _EPS * max(abs(x), nu[0]):
                return complex(x)
    return None


def _start_sets(n: int, hc: complex):
    """``(bound, phi)`` pairs in the order :func:`_max_im_eigenvalue` tries
    them: ``h^2 lam`` of the roots already known, and the starts of
    :func:`_newton` for the rest.

    With ``beta = 1 + hc`` and ``u = pi/(2n+1)``:

    1. ``phi_k = (2k+1) u``, the roots at ``c = 0``.
    2. Only when ``|beta| > 1`` and :func:`_bound_state` finds the bound
       state: ``phi_k = k pi/n`` for ``k = 1 .. n-1``.
    3. Near ``|beta| = 1`` the roots change layout at ``phi = arg beta``:
       below it they sit near even multiples of ``u``, above it near odd
       ones.  So the multiples ``m u``, ``m = 1 .. 2n-1``, with ``m`` even
       below ``a = arg beta/u`` and odd above it; the starts within ``2u``
       of ``a u`` move to ``m u - i u``, and one at ``(a - i) u`` makes up
       the count if it is ``n - 1``.
    """
    u = np.pi / (2 * n + 1)
    none = np.empty(0, dtype=np.complex128)
    yield none, ((2 * np.arange(n) + 1) * u).astype(np.complex128)
    beta = 1.0 + hc
    bound = _bound_state(n, hc) if abs(beta) > 1.0 else None
    if bound is not None:
        yield np.array([bound]), (np.arange(1, n) * (np.pi / n)).astype(np.complex128)
    a = np.angle(beta) / u
    m = np.arange(1, 2 * n)
    m = m[np.where(m % 2 == 0, m < a, m > a)]
    starts = (m * u).astype(np.complex128)
    starts[np.abs(m - a) < 2.0] -= 1j * u
    if starts.size == n - 1:
        starts = np.append(starts, (a - 1j) * u)
    yield none, starts


def _certified(roots: np.ndarray, hb: np.ndarray) -> bool:
    """Whether ``roots`` pass for ``sigma(H)``: ``sum lam = tr H`` and
    ``sum lam^2 = tr H^2`` to ``n`` units in the last place of
    ``sum |lam|`` and ``sum |lam|^2``."""
    moduli = np.abs(roots)
    trace = np.sum(hb[:, 1])
    trace_sq = np.sum(hb[:, 1] ** 2) + 2.0 * np.sum(hb[:-1, 2] * hb[1:, 0])
    slack = roots.size * _EPS
    return bool(
        abs(np.sum(roots) - trace) <= slack * np.sum(moduli)
        and abs(np.sum(roots * roots) - trace_sq) <= slack * np.sum(moduli**2)
    )


def _max_im_eigenvalue(grid: HalfLineSpec, hb: np.ndarray) -> float:
    """``max |Im lambda(H)|`` from the first start set of :func:`_start_sets`
    whose roots, by :func:`_newton`, pass the certificate of
    :func:`_certified`; :class:`ConvergenceFailure` if none does.

    ``lam = (4/h^2) sin^2(phi/2)``, O(n) time and memory per set.  For
    ``Im c < 0`` the roots are those of ``conj c``, conjugated, since
    ``H(conj c) = conj H(c)``; a real ``c`` makes ``H`` real symmetric.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    if c.imag == 0.0:
        return 0.0
    flip = c.imag < 0.0
    hc = h * (c.conjugate() if flip else c)
    for bound, starts in _start_sets(n, hc):
        phi = _newton(starts, n, hc)
        if phi is None:
            continue
        roots = np.append(bound / (h * h), (4.0 / (h * h)) * np.sin(0.5 * phi) ** 2)
        if _certified(roots.conjugate() if flip else roots, hb):
            return float(np.abs(roots.imag).max())
    raise ConvergenceFailure(f"no certified spectrum of H at n = {n}")


def samsonov_report(spec: HalfLineSpec, schedule: list[int]) -> SamsonovReport:
    """Run the refinement study over ascending grid sizes ``schedule``.

    Each grid costs O(n) time and memory and forms no n x n matrix.
    Raises :class:`ConvergenceFailure` when no start set of
    :func:`_start_sets` gives a certified spectrum of ``H``.
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
