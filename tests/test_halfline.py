import numpy as np
import pytest

from qherm import (
    HalfLineSpec,
    InvalidSpec,
    Operator,
    build_pair,
    default_box_length,
    quasi_hermiticity_residual,
    samsonov_report,
)


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


def test_interior_stencil():
    spec = HalfLineSpec(-1.0, 1.0, 32.0, 32)
    h = spec.spacing
    pair = build_pair(spec)
    hm = pair.H.matrix
    j = 10
    assert hm[j, j] == pytest.approx(2.0 / h**2)
    assert hm[j, j - 1] == pytest.approx(-1.0 / h**2)
    assert hm[j, j + 1] == pytest.approx(-1.0 / h**2)
    assert hm[j, j + 2] == 0.0
    # Robin data only in the corner entry
    c = spec.robin_coefficient
    assert hm[0, 0] == pytest.approx(1.0 / h**2 - c / h)
    assert hm[0, 1] == pytest.approx(-1.0 / h**2)


def test_neumann_limit_collapses_to_hermitian():
    spec = HalfLineSpec(0.0, 0.0, 40.0, 64)
    pair = build_pair(spec)
    hm, gm = pair.H.matrix, pair.G_raw.matrix
    assert np.abs(hm - hm.conj().T).max() <= 1e-12
    # the metric and the operator coincide at the self-adjoint point
    assert np.abs(hm - gm).max() <= 1e-12
    h = spec.spacing
    assert hm[0, 0] == pytest.approx(1.0 / h**2)
    assert hm[0, 1] == pytest.approx(-1.0 / h**2)


def test_factorization_identity_and_psd():
    for d, b in [(-1.0, 1.0), (0.5, -2.0), (0.0, 3.0)]:
        spec = HalfLineSpec(d, b, 40.0, 48)
        pair = build_pair(spec)
        lm = pair.L_factor.matrix
        assert np.abs(lm.conj().T @ lm - pair.G_raw.matrix).max() == 0.0
        w = np.linalg.eigvalsh(0.5 * (pair.G_raw.matrix + pair.G_raw.matrix.conj().T))
        assert w[0] >= -1e-12 * np.abs(w).max()


def test_robin_row_is_kernel_condition():
    # a vector satisfying the discrete Robin condition is killed by row 0 of L
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 32)
    h, c = spec.spacing, spec.robin_coefficient
    pair = build_pair(spec)
    xi = np.zeros(32, dtype=complex)
    xi[0] = 1.0
    xi[1] = 1.0 - h * c  # (xi_1 - xi_0)/h + c xi_0 = 0
    assert abs(pair.L_factor.matrix[0] @ xi) <= 1e-14 / h


def test_constant_vector_through_metric():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 128)
    pair = build_pair(spec)
    out = pair.G_raw.matrix @ np.ones(128)
    d2b2 = spec.d**2 + spec.b**2
    assert np.abs(out[3:125] - d2b2).max() <= 1e-9


def test_b_flip_gives_adjoint():
    plus = build_pair(HalfLineSpec(-1.0, 1.0, 40.0, 64))
    minus = build_pair(HalfLineSpec(-1.0, -1.0, 40.0, 64))
    assert np.abs(minus.H.matrix - plus.H.matrix.conj().T).max() <= 1e-12


def test_export_round_trip_and_cross_module():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 64)
    pair = build_pair(spec)
    h_op, g_op = pair.H, pair.G_raw
    assert isinstance(h_op, Operator) and isinstance(g_op, Operator)
    assert h_op.dim == 64
    # tridiagonal away from the boundary rows
    mask = np.abs(h_op.matrix) > 0
    for i in range(1, 63):
        cols = np.nonzero(mask[i])[0]
        assert set(cols) <= {i - 1, i, i + 1}
    # the report's residual is the module-level residual, reproduced exactly
    rep = samsonov_report(spec, [64])
    direct = quasi_hermiticity_residual(h_op, g_op)
    assert rep.rows[0].residual_full == pytest.approx(direct, rel=1e-12)


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
    # interior rows of the commutator vanish identically for this stencil
    assert max(r.residual_interior for r in rows) <= 1e-14
    ims = [r.max_im_lambda_H for r in rows]
    assert ims[0] >= ims[1] >= ims[2]


def test_control_run_all_residuals_zero():
    rep = samsonov_report(HalfLineSpec(0.0, 0.0, 40.0, 64), [64, 128])
    assert rep.passed
    for row in rep.rows:
        assert row.residual_full <= 1e-12
        assert row.residual_interior <= 1e-12
        assert row.herm_residual_h <= 1e-12
        assert row.max_im_lambda_H <= 1e-12


def test_schedule_must_be_ascending():
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 64)
    for schedule in ([128, 64], [64, 64]):
        with pytest.raises(InvalidSpec, match="schedule must be ascending grid sizes"):
            samsonov_report(spec, schedule)


def test_bound_state_for_positive_d():
    # d > 0 turns the Robin condition attractive: lowest eigenvalue near -d^2
    pair = build_pair(HalfLineSpec(1.0, 0.0, 40.0, 800))
    w = np.linalg.eigvalsh(0.5 * (pair.H.matrix + pair.H.matrix.conj().T))
    assert w[0] == pytest.approx(-1.0, abs=0.06)
    # while d < 0 keeps the spectrum nonnegative up to truncation effects
    pair = build_pair(HalfLineSpec(-1.0, 0.0, 40.0, 800))
    w = np.linalg.eigvalsh(0.5 * (pair.H.matrix + pair.H.matrix.conj().T))
    assert w[0] >= -1e-10
