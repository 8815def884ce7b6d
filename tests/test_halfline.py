import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_oracle import commutator_bands, dense_pair, mp_relation_residual
from helpers import rng
from qherm import (
    HalfLineSpec,
    InvalidSpec,
    build_pair,
    default_box_length,
    halfline,
    quasi_hermiticity_residual,
    samsonov_report,
)
from qherm.halfline import _TINY, MAX_GRID_SIZE

_EPS = np.finfo(np.float64).eps


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        HalfLineSpec(-1.0, 1.0, 40.0, 8)
    with pytest.raises(InvalidSpec):
        HalfLineSpec(-1.0, 1.0, -5.0, 64)
    with pytest.raises(InvalidSpec):
        HalfLineSpec(np.nan, 0.0, 40.0, 64)
    assert default_box_length(-2.0) == pytest.approx(20.0)
    assert default_box_length(0.0) == pytest.approx(40.0)


@pytest.mark.parametrize(
    "d, b, box, valid",
    [
        (1e37, 1e37, 16e-37, True),
        (-1e37, 1e37, 16.0, True),
        (1.0, -1.0, 16e-37, True),
        (-1e-37, 1e-37, 16e37, True),
        (2e37, 0.0, 16.0, False),
        (0.0, -2e37, 16.0, False),
        (1.0, 0.0, 8e-37, False),
        (0.0, 0.0, 32e37, False),
    ],
)
def test_scale_bound_keeps_the_report_finite(d, b, box, valid):
    # max(|d|, |b|, 1/h) in [1e-37, 1e37]: inside, no number the report
    # forms overflows; outside, the spec is refused before any grid
    if not valid:
        with pytest.raises(InvalidSpec, match="lies outside"):
            HalfLineSpec(d, b, box, 16)
        return
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        row = samsonov_report(HalfLineSpec(d, b, box, 16), [16]).rows[0]
    fields = [f for f in row.__dataclass_fields__ if f != "order_estimate"]
    assert all(np.isfinite(getattr(row, f)) for f in fields)
    assert row.min_eig_G > 0.0


def _bands_of(m: np.ndarray) -> np.ndarray:
    """The three diagonals of a dense ``m`` in the band layout of ``build_pair``."""
    out = np.zeros((m.shape[0], 3), dtype=np.complex128)
    out[1:, 0] = np.diagonal(m, -1)
    out[:, 1] = np.diagonal(m)
    out[:-1, 2] = np.diagonal(m, 1)
    return out


def test_interior_stencil():
    spec = HalfLineSpec(-1.0, 1.0, 32.0, 32)
    h = spec.spacing
    hb = build_pair(spec).h_bands
    j = 10
    assert hb[j, 1] == pytest.approx(2.0 / h**2)
    assert hb[j, 0] == pytest.approx(-1.0 / h**2)
    assert hb[j, 2] == pytest.approx(-1.0 / h**2)
    # Robin data only in the corner entry
    c = spec.robin_coefficient
    assert hb[0, 1] == pytest.approx(1.0 / h**2 - c / h)
    assert hb[0, 2] == pytest.approx(-1.0 / h**2)


def test_neumann_limit_collapses_to_hermitian():
    spec = HalfLineSpec(0.0, 0.0, 40.0, 64)
    pair = build_pair(spec)
    hb, gb = pair.h_bands, pair.g_bands
    assert np.all(hb[:, 1].imag == 0.0)
    assert np.abs(hb[1:, 0] - hb[:-1, 2].conj()).max() <= 1e-12
    # the metric and the operator coincide at the self-adjoint point
    assert np.abs(hb - gb).max() <= 1e-12
    h = spec.spacing
    assert hb[0, 1] == pytest.approx(1.0 / h**2)
    assert hb[0, 2] == pytest.approx(-1.0 / h**2)


def test_factorization_identity_and_psd():
    for d, b in [(-1.0, 1.0), (0.5, -2.0), (0.0, 3.0)]:
        _, gm, lm = dense_pair(HalfLineSpec(d, b, 40.0, 48))
        assert np.abs(lm.conj().T @ lm - gm).max() == 0.0
        w = np.linalg.eigvalsh(0.5 * (gm + gm.conj().T))
        assert w[0] >= -1e-12 * np.abs(w).max()


def test_robin_row_is_kernel_condition():
    # a vector satisfying the discrete Robin condition is killed by row 0 of L
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 32)
    h, c = spec.spacing, spec.robin_coefficient
    _, _, lm = dense_pair(spec)
    xi = np.zeros(32, dtype=complex)
    xi[0] = 1.0
    xi[1] = 1.0 - h * c  # (xi_1 - xi_0)/h + c xi_0 = 0
    assert abs(lm[0] @ xi) <= 1e-14 / h


def test_constant_vector_through_metric():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 128)
    # G times the constant vector is the sum of each row's bands
    out = build_pair(spec).g_bands.sum(axis=1)
    d2b2 = spec.d**2 + spec.b**2
    assert np.abs(out[3:125] - d2b2).max() <= 1e-9


def test_b_flip_gives_adjoint():
    plus, _, _ = dense_pair(HalfLineSpec(-1.0, 1.0, 40.0, 64))
    minus = build_pair(HalfLineSpec(-1.0, -1.0, 40.0, 64)).h_bands
    assert np.abs(minus - _bands_of(plus.conj().T)).max() <= 1e-12


def test_export_round_trip_and_cross_module():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 64)
    pair = build_pair(spec)
    assert pair.spacing == spec.spacing
    for bands in (pair.h_bands, pair.g_bands):
        assert bands.shape == (64, 3)
        # entries outside the matrix are zero, and the bands are read-only
        assert bands[0, 0] == 0.0 and bands[-1, 2] == 0.0
        with pytest.raises(ValueError):
            bands[1, 1] = 0.0
    # the report's residual is the module-level residual of the dense pair
    hm, gm, _ = dense_pair(spec)
    rep = samsonov_report(spec, [64])
    direct = quasi_hermiticity_residual(hm, gm)
    assert rep.rows[0].residual_full == pytest.approx(direct, rel=1e-12)


# 60 fixed-seed random grids, then the Neumann point, real c, d = 0 and hc = 1
_GEN = rng(2024)
_GRIDS = [
    (*_GEN.uniform(-5.0, 5.0, 2).tolist(), _GEN.uniform(0.5, 100.0), int(_GEN.integers(16, 129)))
    for _ in range(60)
] + [(0.0, 0.0, 40.0, 64), (-1.0, 0.0, 40.0, 64), (0.0, 1.0, 40.0, 64), (16.0, 0.0, 1.0, 16)]


@pytest.mark.parametrize("d, b, box, n", _GRIDS)
def test_bands_match_the_dense_pair(d, b, box, n):
    # H bit for bit; G = L* L within 2 eps of each entry, since the closed
    # form adds |c - 1/h|^2 and 1/h^2 in another order than the product
    spec = HalfLineSpec(d, b, box, n)
    pair = build_pair(spec)
    hm, gm, _ = dense_pair(spec)
    assert np.array_equal(pair.h_bands, _bands_of(hm))
    assert np.abs(hm - np.triu(np.tril(hm, 1), -1)).max() == 0.0
    ref = _bands_of(gm)
    assert np.all(np.abs(pair.g_bands - ref) <= 2.0 * _EPS * np.abs(ref))
    assert np.abs(gm - np.triu(np.tril(gm, 1), -1)).max() == 0.0


def test_scale_bound_holds_at_the_largest_grid():
    # the overflow argument of the scale bound counts n <= MAX_GRID_SIZE
    # rows: at n = MAX_GRID_SIZE and r = max(|d|, |b|, 1/h) = 1e37 the
    # report stays finite
    n = MAX_GRID_SIZE
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        row = samsonov_report(HalfLineSpec(-1e37, 1e37, n * 1e-37, n), [n]).rows[0]
    fields = [f for f in row.__dataclass_fields__ if f != "order_estimate"]
    assert all(np.isfinite(getattr(row, f)) for f in fields)
    assert row.min_eig_G > 0.0


def test_refinement_study_frozen_oracle():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 200)
    rep = samsonov_report(spec, [200, 400, 800])
    assert rep.passed
    rows = rep.rows
    # frozen from the calibration run of this discretization
    assert rows[0].min_eig_G == pytest.approx(1.179475118999, rel=1e-9)
    assert rows[0].gap_to_d2 == pytest.approx(0.179475118999, rel=1e-8)
    gaps = [r.gap_to_d2 for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    fulls = [r.residual_full for r in rows]
    assert fulls[0] > fulls[1] > fulls[2]
    assert rows[1].order_estimate == pytest.approx(2.0, abs=0.25)
    assert rows[2].order_estimate == pytest.approx(2.0, abs=0.25)
    ims = [r.max_im_lambda_H for r in rows]
    assert ims[0] >= ims[1] >= ims[2]


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(-5.0, 5.0),
    b=st.one_of(st.floats(-5.0, 5.0), st.floats(1e-300, 1e-6), st.just(0.0)),
    scale=st.sampled_from([1.0, 1e30]),
    box=st.floats(0.5, 100.0),
    n=st.integers(16, 3000),
)
# grids on which the sum of the four squares of the commutator depends on
# the order of addition in its last bit
@example(d=4.99, b=1.52, scale=1.0, box=23.8, n=16)
@example(d=1.77, b=-4.39, scale=1.0, box=55.8, n=18)
@example(d=2.07, b=-4.99, scale=1.0, box=50.6, n=21)
@example(d=3.06, b=-1.84, scale=1.0, box=15.3, n=24)
@example(d=-4.0, b=2.5, scale=1e30, box=25.0, n=26)
def test_commutator_is_nonzero_only_at_the_corner_and_the_last_diagonal(d, b, scale, box, n):
    # away from the corner row both operators are Toeplitz tridiagonal, with
    # H real there and G's off-diagonals each other's conjugates, so the
    # interior entries of GH and H*G come from the same operands and agree
    # to the bit (addition commutes, conjugation is exact).  The entries left are
    # (0, 0), (0, 1), (1, 0) and (n-1, n-1), where the Dirichlet wall cuts
    # G's last row; so the band reference is exactly 0 off them on every
    # grid, and the report's closed form of residual_full, which rests on
    # that, agrees with the exact commutator of the dense construction
    try:
        spec = HalfLineSpec(scale * d, scale * b, box, n)
    except InvalidSpec:
        assume(False)
    pair = build_pair(spec)
    bands = commutator_bands(pair.g_bands, pair.h_bands)  # offsets -2..2
    allowed = np.zeros(bands.shape, dtype=bool)
    allowed[0, [2, 3]] = allowed[1, 1] = allowed[-1, 2] = True
    assert not bands[~allowed].any()
    row = samsonov_report(spec, [n]).rows[0]
    # relative to the exact oracle, or absolute where the residual falls
    # below the normal floats, which hold no relative accuracy
    exact = mp_relation_residual(spec)
    assert abs(row.residual_full - exact) <= 1e-14 * max(exact, _TINY)


@pytest.mark.parametrize(
    "d, b, box, n",
    [(7.453514162126297e-07, 0.0, 1.0, 16), (-1.0, 1e-6, 0.4, 64), (-1.0, 1.0, 40.0, 64), (1.0, 0.5, 40.0, 64)],
)
def test_relation_residual_matches_the_exact_commutator(d, b, box, n):
    # where the entries of GH and H*G, of size h^-4, cancel to far less
    # (tiny c, or tiny b beside h = 0.00625), and on the grids of the
    # benchmark and of the floor golden
    spec = HalfLineSpec(d, b, box, n)
    exact = mp_relation_residual(spec)
    assert abs(samsonov_report(spec, [n]).rows[0].residual_full - exact) <= 1e-14 * exact


@pytest.mark.parametrize("d, b, box, n", [(-1.0, 1.0, 40.0, 64), (1.0, -0.5, 3.0, 17), (16.0, 0.0, 1.0, 16)])
def test_certificate_reads_the_traces_of_the_dense_h(d, b, box, n):
    # n - 2 roots at 0 and two with sum tr H and sum of squares tr H^2 of the
    # dense H pass; moving either sum by more than the slack fails
    spec = HalfLineSpec(d, b, box, n)
    hm, _, _ = dense_pair(spec)
    trace, trace_sq = np.trace(hm), np.trace(hm @ hm)
    spread = np.sqrt(2.0 * trace_sq - trace * trace)
    roots = np.zeros(n, dtype=np.complex128)
    roots[:2] = 0.5 * (trace + spread), 0.5 * (trace - spread)
    assert halfline._certified(roots, spec)
    size = np.abs(roots).sum()
    moved = roots.copy()
    moved[2] = 1e-12 * size  # the sum moves by 1e-12 of sum |lam|
    assert not halfline._certified(moved, spec)
    moved[2:4] = 1e-6 * size, -1e-6 * size  # only the sum of squares moves
    assert not halfline._certified(moved, spec)


@pytest.mark.parametrize(
    "d, b, box, schedule", [(0.0, 0.0, 40.0, [64, 128]), (-1.0, 1.0, 20.0, [50, 100, 200]), (1.0, 0.5, 40.0, [64, 128])]
)
def test_golden_schedules_build_no_bands(d, b, box, schedule, monkeypatch):
    # the schedules of the samsonov goldens: every row comes from closed
    # forms and the solvers, none from the bands of build_pair
    def no_bands(spec):
        raise AssertionError("the report builds no bands")

    rows = samsonov_report(HalfLineSpec(d, b, box, schedule[0]), schedule).rows
    monkeypatch.setattr(halfline, "build_pair", no_bands)
    again = samsonov_report(HalfLineSpec(d, b, box, schedule[0]), schedule).rows
    assert [repr(dataclasses.astuple(r)) for r in again] == [repr(dataclasses.astuple(r)) for r in rows]


def test_one_grid_peaks_below_260_bytes_per_point():
    # the report holds the O(n) vectors of the Newton run and of the
    # secular equations, and no bands of H or G: about 218 bytes per point
    n = 65536
    spec = HalfLineSpec(-1.0, 1.0, 40.0, n)
    samsonov_report(spec, [16])
    tracemalloc.start()
    try:
        samsonov_report(spec, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 260 * n, f"peak {peak / n:.0f} bytes per point"


def test_control_run_all_residuals_zero():
    rep = samsonov_report(HalfLineSpec(0.0, 0.0, 40.0, 64), [64, 128])
    assert rep.passed
    for row in rep.rows:
        assert row.residual_full <= 1e-12
        assert row.herm_residual_h <= 1e-12
        assert row.max_im_lambda_H <= 1e-12


def test_schedule_must_be_ascending():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 64)
    for schedule in ([128, 64], [64, 64]):
        with pytest.raises(InvalidSpec, match="schedule must be ascending grid sizes"):
            samsonov_report(spec, schedule)


def test_bound_state_for_positive_d():
    # d > 0 turns the Robin condition attractive: lowest eigenvalue near -d^2
    hm, _, _ = dense_pair(HalfLineSpec(1.0, 0.0, 40.0, 800))
    w = np.linalg.eigvalsh(0.5 * (hm + hm.conj().T))
    assert w[0] == pytest.approx(-1.0, abs=0.06)
    # while d < 0 keeps the spectrum nonnegative up to truncation effects
    hm, _, _ = dense_pair(HalfLineSpec(-1.0, 0.0, 40.0, 800))
    w = np.linalg.eigvalsh(0.5 * (hm + hm.conj().T))
    assert w[0] >= -1e-10
