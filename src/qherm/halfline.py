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

One could instead take ``G^-1`` (bounded, with unbounded inverse) as the
metric; it has no closed form, so this module does not represent it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Operator, fro, herm_part
from .errors import InvalidSpec, SingularMetric

_TINY = np.finfo(np.float64).tiny

# rows this close to either end are "boundary" for the interior residual;
# the commutator of the two tridiagonal operators reaches two rows past a
# perturbed entry, so three is one row of slack
_BOUNDARY_MARGIN = 3

# largest grid size: every kernel here is dense, and one n x n complex128
# matrix at n = 8192 already takes 16 * 8192**2 bytes = 1 GiB
MAX_GRID_SIZE = 8192

# spectrum floor applied to G before forming G^{+-1/2}
FLOOR_EPSILON = 1e-12

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
    herm_residual_h: float
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


def _spectrum(hmat: np.ndarray) -> np.ndarray:
    # the real LAPACK driver keeps an exactly-real spectrum exactly real
    if np.all(hmat.imag == 0.0):
        return np.linalg.eigvals(hmat.real).astype(np.complex128)
    return np.linalg.eigvals(hmat)


def samsonov_report(spec: HalfLineSpec, schedule: list[int]) -> SamsonovReport:
    """Run the refinement study over ascending grid sizes ``schedule``."""
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

        w_max = float(w_g[-1])
        if w_max <= 0.0:
            raise SingularMetric("discretized metric has no positive spectrum")
        w_floored = np.maximum(w_g, FLOOR_EPSILON * w_max)
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
