"""Second derivative on the half-line with a complex Robin condition.

Discretizes ``H = -d^2/dx^2`` on ``[0, L]`` (truncating ``[0, inf)`` with
a Dirichlet wall at ``L``) subject to ``xi'(0) + (d + i b) xi(0) = 0``,
together with the metric ``G = -d^2/dx^2 - 2 i b d/dx + d^2 + b^2``.

Writing ``c = d + i b`` and ``D`` for the forward-difference matrix with
the Dirichlet wall, everything is built from one factor:

* ``L = D + c I`` discretizes ``d/dx + c``; its first row is exactly the
  forward-difference Robin functional, so the boundary condition is the
  kernel condition of that row.
* ``G = L* L`` is Hermitian positive semidefinite by construction and
  reproduces ``(-d/dx + c̄)(d/dx + c) = -d^2/dx^2 - 2ib d/dx + d^2 + b^2``.
* ``H = D* D - (c/h) e0 e0*`` is the ghost-point elimination of the Robin
  condition in flux (half-cell) form: its quadratic form is the discrete
  ``int |xi'|^2 - c |xi(0)|^2``, and the ``d = b = 0`` limit is exactly
  Hermitian (it then coincides with ``G``).

The continuum facts to track under grid refinement: ``min sigma(G)`` is
``d^2``, and for ``d < 0`` the spectrum of ``H`` is purely continuous and
real, so the discrete ``max |Im lambda(H)|`` must shrink with ``n``.

:func:`build_pair` writes the three diagonals of ``H`` and ``G`` in
closed form.  The refinement study reads no bands: each number it reports
is a closed form in ``(c, h, n)`` or the root of an O(n) equation, so it
forms no n x n matrix and costs O(n) time and memory per grid.
``H`` and ``G`` are rank-one corner updates of Toeplitz tridiagonals with
closed-form eigenpairs (Golub 1973).  Newton's method finds each root of
the characteristic equation of ``H`` from up to three sets of starts: the
roots at ``c = 0``; the bound state that ``H`` has once ``|1 + hc| > 1``,
by Newton's method on ``det(H - lam)`` in secular form, with the rest of
the circle; and starts that follow the change of layout of the roots near
``|1 + hc| = 1``.  The first set whose steps all converge and whose roots
match ``tr H`` and ``tr H^2`` gives ``sigma(H)``; if none does, the report
raises :class:`ConvergenceFailure`.  Each root keeps ``Im lambda``
relative to ``b``, however small ``b`` is.  The report solves the small
grids of a schedule in one pass: one Newton run takes the starts of each
of them, so numpy's cost per call is paid once per pass and not once per
grid, and each row is, bit for bit, that of its grid alone.  Safeguarded
Newton steps on the secular equation of ``G`` give the extremes of
``sigma(G)``, the same floats as bisection to the last bit, but
``min sigma(G)`` is ``sigma_min(L)^2`` by inverse iteration where
:data:`FLOOR_EPSILON` binds.  The commutator ``GH - H*G`` is nonzero at
four entries only, so its residual is a closed form, and so is the
Hermiticity residual of ``G^1/2 H G^-1/2``, from ``L H L^-1``.  No
function here calls BLAS or LAPACK, so the report does not depend on the
BLAS thread count.

One could instead take ``G^-1`` (bounded, with unbounded inverse) as the
metric; it has no closed form, so this module does not represent it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceFailure, InvalidSpec

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps

# np.sum calls np.add.reduce(a, axis=None) after some Python checks; called
# directly it adds in the same order and skips them
_sum = partial(np.add.reduce, axis=None)

# largest grid size: the report's peak traced memory is about 218 bytes
# per grid point, 229 MB at n = 2**20
MAX_GRID_SIZE = 2**20

# the first grids of a schedule share a pass of samsonov_report up to this
# many points in all: joined, 100, 200 and 400 points take about 0.6 of their
# time one by one, where numpy's cost per call sets it, but 1200, 2400 and
# 4800 take about 1.1, as the joined arrays outgrow the cache
_PASS_POINTS = 2**12

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
# quantities that sit at machine level (max |Im lambda(H)| for tiny b)
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
                f"grid size n = {self.n} exceeds the largest grid {MAX_GRID_SIZE}"
            )
        if int(self.n) != self.n or self.n < 16:
            raise InvalidSpec(f"need at least 16 grid points, got {self.n}")
        # the report forms up to about n r^4, r = max(|d|, |b|, 1/h): in
        # tr H^2 = (s - c/h)^2 + 6 (n-1) s^2, s = h^-2, in the sum of the
        # squared roots of H and in the sums of squares of the Hermiticity
        # residual, each below 100 n r^4, which r <= 1e37 keeps under 1e157;
        # r >= 1e-37 keeps r^4 a normal float, and the metric nonzero
        scale = max(abs(self.d), abs(self.b), self.n / self.box_length)
        if not 1.0 / _SCALE_LIMIT <= scale <= _SCALE_LIMIT:
            raise InvalidSpec(
                f"max(|d|, |b|, n / box_length) = {scale:g} lies outside "
                f"[{1.0 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]: the report's "
                "numbers would overflow or underflow"
            )
        # r bounds 1/h but not h: the Hermiticity residual forms |1 - hc|^2
        # and the commutator's residual, a function of hc alone, about
        # sqrt(n) |hc|^3 (see _relation_residual), which |hc| <= 1.5e37
        # keeps under 1e116
        reach = max(abs(self.d), abs(self.b)) * (self.box_length / self.n)
        if reach > _SCALE_LIMIT:
            raise InvalidSpec(
                f"max(|d|, |b|) * box_length / n = {reach:g} exceeds "
                f"{_SCALE_LIMIT:g}: the report's numbers would overflow"
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
    """The three diagonals of ``H`` and of ``G = L* L`` on one grid.

    ``h_bands`` and ``g_bands`` are read-only ``(n, 3)`` complex arrays,
    column ``s + 1`` holding the entries ``[i, i + s]``; entries that fall
    outside the matrix are zero.
    """

    h_bands: np.ndarray
    g_bands: np.ndarray
    spacing: float


def build_pair(spec: HalfLineSpec) -> DiscretizedPair:
    """The bands of ``H`` and ``G = L* L`` for one grid, in closed form."""
    n, h, c = spec.n, spec.spacing, spec.robin_coefficient
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
    hb.flags.writeable = gb.flags.writeable = False
    return DiscretizedPair(hb, gb, h)


@dataclass(frozen=True)
class SamsonovRow:
    """One grid size of the refinement study; the fields are the report's
    columns, in their order."""

    n: int
    spacing: float
    min_eig_G: float
    gap_to_d2: float
    residual_full: float
    herm_residual_h: float  # nan where L is singular (1 - hc = 0)
    max_im_lambda_H: float
    order_estimate: float  # of residual_full against the previous row; nan first


@dataclass(frozen=True, eq=False)
class SamsonovReport:
    """Grid-refinement verdict for the Robin pair.

    Passing means two trends hold over the ascending grid sizes: the
    largest spurious imaginary eigenvalue part ``max |Im lambda(H)|`` does
    not grow with ``n`` (``max_im_nonincreasing``), and the gap
    ``min sigma(G) - d^2`` moves monotonically (``gap_monotone``).  The
    metric-relation residual ``residual_full`` and its order estimate are
    reported per grid and do not enter the verdict.  The commutator
    ``GH - H*G`` is nonzero only at the entries ``(0, 0)``, ``(0, 1)``,
    ``(1, 0)`` and ``(n-1, n-1)``: away from the corner and the last row
    ``G`` is Hermitian and ``H`` real symmetric, both Toeplitz tridiagonal,
    so ``GH`` is Hermitian there, and the Robin corner and the Dirichlet
    wall, which cuts ``G``'s last row, leave those four entries.  So
    ``residual_full`` is a closed form in ``(c, h, n)``
    (:func:`_relation_residual`).
    """

    spec: HalfLineSpec
    rows: tuple[SamsonovRow, ...]
    floor_epsilon: float
    d_squared: float
    max_im_nonincreasing: bool
    gap_monotone: bool
    passed: bool


def _nonincreasing(values: list[float], floor: float) -> bool:
    return all(b <= a + floor for a, b in zip(values, values[1:]))


def _relation_residual(grid: HalfLineSpec) -> float:
    """``||GH - H*G||_F / (||G||_F ||H||_F)`` in closed form.

    With ``s = h^-2``, ``t = hc = x + iy`` and ``m = |1 - t|^2``, the
    commutator ``C = GH - H*G`` has the nonzero entries (see
    :class:`SamsonovReport`)::

        C[0, 0] = 2i (b/h)(2d/h - |c|^2) = 2i s^2 y (2x - |t|^2),
        C[0, 1] = -conj(C[1, 0]) = s conj(c)^2 = s^2 conj(t)^2,
        C[n-1, n-1] = -2i s b/h = -2i s^2 y,

    and with ``a = c - 1/h``, so ``|a|^2 = s m``, the norms are::

        ||H||_F^2 = |s - c/h|^2 + 6 (n-1) s^2 = s^2 (m + 6 (n-1)),
        ||G||_F^2 = |a|^4 + (n-1) ((|a|^2 + s)^2 + 2 |a|^2 s)
                  = s^2 (m^2 + (n-1) ((m + 1)^2 + 2m)).

    The ratio is that of the brackets, a function of ``t`` and ``n``
    alone.  ``2x - |t|^2`` cancels only where ``|t| <= 2``, and each norm
    is ``math.hypot`` of nonnegative terms, which forms no square that
    could underflow, so the ratio keeps its relative accuracy wherever it
    is a normal float (the denominator, about ``sqrt(n) |t|^3``, is finite
    for the ``|t| <= 1.5e37`` that :class:`HalfLineSpec` admits): nothing of
    size ``s^2`` cancels, as the entries of ``GH`` and ``H*G`` do.
    """
    n, t = grid.n, grid.spacing * grid.robin_coefficient
    x, y = t.real, t.imag
    modulus_sq = x * x + y * y
    one_minus = 1.0 - x
    m = one_minus * one_minus + y * y
    commutator = math.hypot(2.0 * y * (2.0 * x - modulus_sq), modulus_sq, modulus_sq, 2.0 * y)
    g_norm = math.hypot(m, math.sqrt(n - 1) * (m + 1.0), math.sqrt(2.0 * (n - 1) * m))
    return commutator / (g_norm * math.sqrt(m + 6.0 * (n - 1)))


def _secular(
    x: float, nu: np.ndarray, z2: np.ndarray, rho: float
) -> tuple[float, float, np.ndarray]:
    """``f(x) = 1 - rho sum_k z2_k/(nu_k - x)``, ``-f'(x)`` and ``nu - x``;
    ``f`` is ``1.0 - rho * np.sum(z2 / (nu - x))``, operation for operation
    (``_sum`` is the reduction ``np.sum`` calls, in the same order), which
    the argument of :func:`_metric_extremes` rests on."""
    gap = nu - x
    terms = z2 / gap
    f = 1.0 - rho * float(_sum(terms))
    return f, rho * float(_sum(terms / gap)), gap


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
    operands, and ``_sum`` (``np.add.reduce``, the reduction ``np.sum``
    calls) adds the terms in an order fixed by their count alone, so the
    computed ``f`` is nonincreasing in ``lam`` and changes sign between
    exactly one pair of adjacent floats.  Any method that moves ``lo`` only
    to floats where the computed ``f > 0``, ``hi`` only to floats where it
    is not, and stops on adjacent floats, ends on that pair.

    Where the floor binds, ``min sigma(G) < FLOOR_EPSILON max sigma(G)``,
    the lowest root is rounding noise and :func:`_min_singular_squared`
    replaces it.  ``sigma(G)`` is ``sigma(N)^2 / h^2`` for the ``N = m I -
    S`` of :func:`_min_singular_squared`, whose singular values lie in
    ``[m - 1, m + 1]``, so the floor can bind only for ``m = |1 - hc|``
    below ``(1 + sqrt(FLOOR_EPSILON)) / (1 - sqrt(FLOOR_EPSILON))``, about
    ``1 + 2e-6``.  It binds mostly for ``m < 1``, and there one evaluation
    decides it before the root is sought: ``f <= 0`` at the float just
    below ``FLOOR_EPSILON max sigma(G)`` puts the root's upper float, and
    so the root, below the threshold, and the up to ~130 evaluations that
    place a root inside a flat stretch of the computed ``f`` are skipped.
    Elsewhere, including the fine grids with ``m`` just above 1 where it
    binds too (``m - 1 = 4.8e-7`` at ``d, b, L, n = -0.5, 1, 1, 2**20``),
    the root is solved and compared, so the pair returned is that of the
    bisection with the floor applied.
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    inv_h = 1.0 / h
    rho = inv_h * inv_h
    diag = c - inv_h
    mod = abs(diag)
    coupling = mod * inv_h
    if coupling == 0.0:
        # G is diagonal: |a|^2 in the corner, |a|^2 + h^-2 below it
        lowest, highest = mod * mod, mod * mod + rho
    else:
        # |a| - 1/h without cancellation: |a|^2 - h^-2 = |c|^2 - 2 d/h
        shift = (abs(c) ** 2 - 2.0 * c.real * inv_h) / (mod + inv_h)
        theta = np.arange(1, n + 1) * (np.pi / (n + 1))
        nu = shift * shift + 4.0 * coupling * np.sin(0.5 * theta) ** 2
        z2 = (2.0 / (n + 1)) * np.sin(theta) ** 2
        highest = _secular_root(nu, z2, rho, float(nu[-2]), float(nu[-1]), -1)
        lo, hi = float(nu[0] - rho), float(nu[0])
        if abs(1.0 - h * c) < 1.0:
            below = math.nextafter(FLOOR_EPSILON * highest, -math.inf)
            if lo < below < hi and _secular(below, nu, z2, rho)[0] <= 0.0:
                return _min_singular_squared(grid), highest
        lowest = _secular_root(nu, z2, rho, lo, hi, 0)
    if lowest < FLOOR_EPSILON * highest:
        lowest = _min_singular_squared(grid)
    return lowest, highest


def _log_square(m2: float, m: float) -> float:
    """``log m^2`` from ``m2 = m^2``, or from ``m`` where ``m2`` has fallen
    below the normal range (to 0 for ``m`` below about 1e-162)."""
    return np.log(m2) if m2 >= _TINY else 2.0 * np.log(m)


def _min_singular_squared(grid: HalfLineSpec) -> float:
    """``min sigma(G) = sigma_min(L)^2`` by inverse iteration, to high
    relative accuracy.  ``h L`` is unitarily similar to a unimodular multiple
    of the real ``N = m I - S``, ``m = |1 - hc|``, and ``N^-1[i, j] =
    m^-(j-i+1)`` for ``j >= i``: ``N^-1`` and ``N^-T`` are cumulative sums
    of positive terms.  The floor binds only for ``m`` below about ``1 +
    2e-6`` (:func:`_metric_extremes`).  For ``m < 1``, ``y_j = m^(n-1-j)
    u_j`` keeps every entry in range and ``m^2n`` is taken by logarithms,
    so a minimum below the float range, or a singular ``L``, gives 0.0;
    for ``m >= 1`` the weights ``m^2k`` stay below ``e^5`` up to
    ``MAX_GRID_SIZE``.  Four steps from ``u = 1``, the dominant direction,
    converge on coarse grids; on fine grids with ``m`` near 1 they stop
    short (3.3e-7 relative at ``d, b, L, n = -0.5, 1, 1, 2**20``).
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    one_minus = 1.0 - h * c
    if one_minus == 0.0:
        return 0.0
    m2 = abs(one_minus) ** 2
    if m2 > 0.5:
        # near m = 1, log m^2 from m^2 - 1 = h (h |c|^2 - 2d), which keeps it relative
        log_m2 = np.log1p(h * (h * abs(c) ** 2 - 2.0 * c.real))
    else:
        log_m2 = _log_square(m2, abs(one_minus))
    weights = np.exp(np.arange(n) * log_m2)  # m^2k; underflow is harmless
    u = np.ones(n)
    for _ in range(4):
        w = np.cumsum(weights * (u / u[-1])[::-1])[::-1]
        u = np.cumsum(weights * w)
    # ||x||^2 / ||N^-T x||^2 at x = N^-1 y, times m^2n and the 1/h^2 of L
    ratio = _sum(weights * w * w) / _sum(weights * u[::-1] ** 2)
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
    ``log |1 - hc|^2`` comes from ``|1 - hc|`` where the square underflows,
    so only an exactly singular ``L`` (``hc = 1``) gives NaN.
    It is the exact transform's residual also where the floor binds
    (floored roots of ``G`` give 0.94, not ``sqrt 2``, at ``d, b, L, n = 1,
    0.5, 40, 1600``).
    """
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    d, b = c.real, c.imag
    s = 1.0 / (h * h)
    one_minus = 1.0 - h * c  # -h times the diagonal of L
    if one_minus == 0.0:
        return float("nan")
    m2 = one_minus.real**2 + one_minus.imag**2
    log_m2 = _log_square(m2, abs(one_minus))
    q = 1.0 / one_minus
    c2 = c * c
    c4 = c2.real**2 + c2.imag**2
    big = m2 < 1.0  # |q| > 1
    w = m2 if big else 1.0
    m2_w = 1.0 if big else m2  # m2 / w, also where m2 underflows to 0
    qw = one_minus.conjugate() if big else q
    scale = m2 ** (n - 2) if big else 1.0
    # |q|^(2k) for k = 2..n, over |q|^2n if |q| > 1: |w_j|^2 = |c|^4 |q|^(2(j+1))
    top = n if big else 0
    tail = np.exp((top - np.arange(2, n + 1)) * log_m2)
    # Im Z[0,0] = s Im q - b/h and Im Z[n-1,n-1] = -s Im q, times w
    im_corner = b * (2.0 * d - h * abs(c) ** 2) / m2_w
    im_last = b / (h * m2_w)
    num_sq = 4.0 * im_corner**2 * scale + 2.0 * c4 * _sum(tail) + 4.0 * im_last**2 * scale
    z00 = s * (w + qw) - c * w / h
    z01 = c2 * q * qw - s * w
    den_sq = (
        abs(z00) ** 2 * scale
        + abs(z01) ** 2 * scale
        + c4 * _sum(tail[1:])
        # rows 1..n-2 of H, then row n-1 with its corrected diagonal
        + s * s * ((6.0 * (n - 2) + 1.0) * w * w + abs(2.0 * w - qw) ** 2) * scale
    )
    return float(np.sqrt(num_sq) / max(np.sqrt(den_sq), _TINY))


def _characteristic(p: np.ndarray, n: np.ndarray, hc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``F`` and ``F'`` of :func:`_newton` at ``phi = p``, element by element."""
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


def _newton(phi: np.ndarray, n: np.ndarray, hc: np.ndarray) -> tuple[np.ndarray, ...]:
    """Roots ``phi`` of the characteristic equation of ``H`` by Newton's
    method from the starts ``phi``, the mask of the roots that have
    converged within ``_MAX_NEWTON_STEPS`` steps and the mask of those that
    pass the last-step bound.  ``n`` and ``hc`` are arrays of the shape of
    ``phi`` that give each start its own grid, or the scalars of one grid;
    each element follows its own iteration, so the starts of many grids run
    as one.  Scalars save numpy's casts of real arrays to complex ones in
    :func:`_characteristic`: a report on one grid of 32768 or 131072 points
    takes about 0.8 of its time with arrays of ``n`` and ``hc``.

    Write ``h^2 lam = 2 - q - 1/q`` and ``beta = 1 + hc`` with ``Im c >= 0``.
    The rows of ``h^2 (H - lam)`` below the corner and the Dirichlet wall
    leave ``x_j = q^j - q^(2n-j)``, and the corner row (the ghost value
    ``x_-1 = beta x_0``) then asks ``q^2n (beta - q) = beta - 1/q``, which
    the spurious ``q = +-1`` satisfy too.  With ``q = e^(i phi)`` each root
    is a zero of ``F(phi) = 2n i phi - Log((beta - 1/q)/(beta - q)) -
    2 pi i m``, ``F' = i (2n - 1/(beta q - 1) - q/(beta - q))``, with ``m``
    the nearest integer at every step.  A root has converged once its step
    is at most four units in the last place of ``|phi|``.  Where ``|F'|`` is
    far below ``2n``, the rounding of ``F``, of the size of ``eps 2n |phi|``,
    moves ``phi`` by more than that on every step (7 to 15 units at
    ``beta = 1.1i``, ``n = 30``, where ``|F'| = 6.3``); the last-step bound
    passes a root still moving after the last step if that step is within
    four units of ``max(|phi|, 2n |phi|/|F'|)``.  Every converged root
    passes it.  Nothing keeps two starts from reaching one root, or one
    from reaching ``q = 1``; the certificate of :func:`_certified` rejects
    both.

    Everything is formed without cancellation, since ``|Im lam|`` is what
    the study reads: ``beta - q`` as ``hc - 2i sin(phi/2) q^1/2`` (and
    ``beta - 1/q`` alike), and the real part of the logarithm from
    ``|beta - 1/q|^2 - |beta - q|^2``, which is proportional to ``Im c``
    for real ``phi``.  ``Re F'`` is not: it is a difference of terms of
    size 1, so the complex steps leave ``Im phi`` with noise of about
    ``eps^2 |phi|``, which can swamp an ``Im phi`` below the rounding of
    ``|phi|``.  A root that passes the last-step bound with ``|Im phi| <=
    eps |phi|`` (which takes ``|b|`` far below ``|d|``) therefore takes its
    ``Im phi`` from one Newton step on ``Re F`` in ``Im phi`` alone, from
    the real axis: ``Im phi = Re F/Im F'`` at ``Re phi``, where ``Re F`` is
    proportional to ``Im c`` and the step is exact to first order in ``Im
    phi``.  Every other root is left as the complex steps give it.
    """
    def at(index):  # n and hc of the starts at index, or one grid's scalars
        return (n[index], hc[index]) if np.ndim(n) else (n, hc)

    phi = phi.copy()
    converged, accepted = np.zeros((2, phi.size), dtype=bool)
    for k in range(_MAX_NEWTON_STEPS):
        todo = np.flatnonzero(~converged)
        if todo.size == 0:
            break
        f, f_prime = _characteristic(phi[todo], *at(todo))
        step = f / f_prime
        phi[todo] -= step
        size, step = np.abs(phi[todo]), np.abs(step)
        converged[todo] = step <= 4.0 * _EPS * size
        if k == _MAX_NEWTON_STEPS - 1:
            size = np.maximum(size, 2 * at(todo)[0] * size / np.abs(f_prime))
        accepted[todo] = step <= 4.0 * _EPS * size
        del f, f_prime, step, size  # freed before the next step's temporaries
    low = accepted & (np.abs(phi.imag) <= _EPS * np.abs(phi))
    if low.any():
        f, f_prime = _characteristic(phi.real[low].astype(np.complex128), *at(low))
        phi.imag[low] = f.real / f_prime.imag
    return phi, converged, accepted


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
    ``max(|x|, nu_0)``, or once the iterates repeat with period two: Newton
    at the rounding of ``x``, where the rounding of the sums can exceed
    those four units (``(d, b, L, n) = (1.988, 0.01, 1.36, 136)`` alternates
    between two values 6.5 units apart).  Where an iterate repeats, no
    later step would pass the first test.

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
    two_back = one_back = None
    with np.errstate(all="ignore"):  # a diverging x ends as nan
        for _ in range(_MAX_BOUND_STATE_STEPS):
            r = 1.0 / (nu - x)
            f = 1.0 - hc * _sum(w * r)
            step = f / (-hc * _sum(w * r * r) - f * _sum(r))
            x -= step
            if abs(step) <= 4.0 * _EPS * max(abs(x), nu[0]) or x == two_back:
                return complex(x)
            two_back, one_back = one_back, x
    return None


def _start_sets(n: int, hc: complex):
    """``(bound, phi)`` pairs in the order :func:`_max_im_eigenvalues` tries
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


def _certified(roots: np.ndarray, grid: HalfLineSpec) -> bool:
    """Whether ``roots`` pass for ``sigma(H)`` of ``grid``: ``sum lam = tr
    H`` and ``sum lam^2 = tr H^2`` to ``n`` units in the last place of
    ``sum |lam|`` and ``sum |lam|^2``.  With ``s = h^-2``, ``H`` has the
    corner ``s - c/h``, the rest of its diagonal ``2s`` and ``-s`` off it,
    so ``tr H = (s - c/h) + 2 (n-1) s`` and ``tr H^2 = (s - c/h)^2 +
    6 (n-1) s^2``."""
    n, h, c = grid.n, grid.spacing, grid.robin_coefficient
    s = 1.0 / (h * h)
    corner = s - c / h
    trace, trace_sq = corner + 2.0 * (n - 1) * s, corner * corner + 6.0 * (n - 1) * s * s
    moduli, slack = np.abs(roots), roots.size * _EPS
    return bool(
        abs(_sum(roots) - trace) <= slack * _sum(moduli)
        and abs(_sum(roots * roots) - trace_sq) <= slack * _sum(moduli**2)
    )


def _max_im_eigenvalues(grids: list[HalfLineSpec]) -> list[float]:
    """``max |Im lambda(H)|`` of each of ``grids`` from the first start set
    of :func:`_start_sets` whose roots, by :func:`_newton`, pass the
    certificate of :func:`_certified` on the grid's traces of ``H``.

    One Newton run takes the first start set of every grid, and the grids
    whose roots fail go on to their next sets together.  Each root follows
    its own iteration, so every grid ends on the floats it reaches alone.
    A set counts once all its roots have converged; a set whose roots only
    pass the last-step bound of :func:`_newton` counts if no set of its
    grid converges and passes, so that a set that converges exactly always
    goes first.  :class:`ConvergenceFailure` names the first grid, in
    order, that no set certifies either way.

    ``lam = (4/h^2) sin^2(phi/2)``, O(n) time and memory per grid and set.
    For ``Im c < 0`` the roots are those of ``conj c``, conjugated, since
    ``H(conj c) = conj H(c)``; a real ``c`` makes ``H`` real symmetric.
    """
    c = grids[0].robin_coefficient
    if c.imag == 0.0:
        return [0.0] * len(grids)
    flip = c.imag < 0.0
    hcs = [g.spacing * (c.conjugate() if flip else c) for g in grids]
    # max |Im lambda| by grid: of a set that converges, and of the first set
    # at the last-step bound
    found, rounded = {}, {}
    sets = {k: _start_sets(g.n, hc) for k, (g, hc) in enumerate(zip(grids, hcs))}
    drawn = {k: next(start_sets) for k, start_sets in sets.items()}
    while drawn:
        counts = [starts.size for _, starts in drawn.values()]
        n, hc = [grids[k].n for k in drawn], [hcs[k] for k in drawn]
        # one grid keeps its scalars, which numpy combines with complex
        # arrays without casts (see _newton)
        n, hc = (n[0], hc[0]) if len(n) == 1 else (np.repeat(n, counts), np.repeat(hc, counts))
        phi, converged, accepted = _newton(np.concatenate([s for _, s in drawn.values()]), n, hc)
        for (k, (bound, _)), end, count in zip(drawn.items(), np.cumsum(counts), counts):
            part, hh = slice(end - count, end), grids[k].spacing * grids[k].spacing
            exact = converged[part].all()
            # a set at the last-step bound matters only if it is the first
            if exact or accepted[part].all() and k not in rounded:
                roots = np.append(bound / hh, (4.0 / hh) * np.sin(0.5 * phi[part]) ** 2)
                if _certified(roots.conjugate() if flip else roots, grids[k]):
                    (found if exact else rounded)[k] = float(np.abs(roots.imag).max())
        # the grids not certified go on to their next start sets, if any
        drawn = {k: s for k in drawn if k not in found and (s := next(sets[k], None))}
    max_im = [found.get(k, rounded.get(k)) for k in range(len(grids))]
    if None in max_im:
        raise ConvergenceFailure(f"no certified spectrum of H at n = {grids[max_im.index(None)].n}")
    return max_im


def samsonov_report(spec: HalfLineSpec, schedule: list[int]) -> SamsonovReport:
    """Run the refinement study over strictly ascending grid sizes ``schedule``.

    Consecutive grids share a pass while it holds at most ``_PASS_POINTS``
    points, and a larger grid runs alone: the spectra of ``H`` of a pass
    come from one run of Newton's method, so on small grids numpy's cost
    per call is paid once per pass rather than per grid, and no pass holds
    more points than the larger of ``_PASS_POINTS`` and the largest grid.
    Everything else is a closed form in ``(c, h, n)`` or the root of the
    grid's own secular equation of ``G``, and each row is bit for bit that
    of its grid by itself.  No grid's bands are built: each grid costs
    O(n) time and memory, in the solvers alone, and forms no n x n matrix.
    Raises :class:`ConvergenceFailure`, naming the first grid in order,
    when no start set of :func:`_start_sets` gives a certified spectrum of
    ``H``.
    """
    sizes = [int(n) for n in schedule]
    if not sizes or sorted(set(sizes)) != sizes:
        raise InvalidSpec(f"schedule must be ascending grid sizes, got {schedule}")
    # every grid size is validated before the first grid is solved
    specs = [spec.with_n(n) for n in sizes]
    # the first grids, up to _PASS_POINTS points in all, share a pass; each
    # later grid runs alone
    joined = max(1, int(np.searchsorted(np.cumsum(sizes), _PASS_POINTS, side="right")))
    d2 = spec.d**2
    rows: list[SamsonovRow] = []
    for grids in [specs[:joined]] + [[grid] for grid in specs[joined:]]:
        for grid, max_im in zip(grids, _max_im_eigenvalues(grids)):
            min_eig, _ = _metric_extremes(grid)
            residual_full = _relation_residual(grid)
            prev = rows[-1] if rows else None
            if prev is None or residual_full <= 0.0 or prev.residual_full <= 0.0:
                order = float("nan")
            else:
                order = float(np.log(prev.residual_full / residual_full) / np.log(grid.n / prev.n))
            herm = _factor_herm_residual(grid)
            rows.append(SamsonovRow(grid.n, grid.spacing, min_eig, min_eig - d2, residual_full,
                                    herm, max_im, order))

    max_im_ok = _nonincreasing([r.max_im_lambda_H for r in rows], _TREND_FLOOR)
    gaps = [r.gap_to_d2 for r in rows]
    # the discrete minimum of sigma(G) drifts monotonically toward its
    # limit; the direction depends on whether d^2 sits below the truncated
    # box's own minimum, so monotone in either sense passes
    gap_floor = abs(d2) * 1e-12 + _TREND_FLOOR
    gap_ok = _nonincreasing(gaps, gap_floor) or _nonincreasing(gaps[::-1], gap_floor)
    passed = max_im_ok and gap_ok
    return SamsonovReport(spec, tuple(rows), FLOOR_EPSILON, d2, max_im_ok, gap_ok, passed)
