"""The half-line kernels against the dense path and mpmath.

``samsonov_report`` takes ``sigma(H)`` from its characteristic or secular
equation, the extremes of ``sigma(G)`` by bisection (``min sigma(G)`` as
``sigma_min(L)^2`` where the floor binds) and the residuals from bands
and the factor ``L``.  The dense per-grid computation in
``tests/dense_oracle.py`` is the reference; where the two differ by more
than rounding, the mpmath oracles below show which one is right.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_samsonov_rows
from qherm import ConvergenceFailure, HalfLineSpec, samsonov_report
from qherm import halfline
from qherm.cli import main

EPS = np.finfo(np.float64).eps


def _close(new: float, ref: float, atol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(new)
    return abs(new - ref) <= 1e-10 * abs(ref) + atol


def _agreement_problems(
    spec: HalfLineSpec, schedule: list[int], skip: tuple[str, ...] = ()
) -> list[str]:
    """Fields of ``samsonov_report``, other than ``skip``, that differ from
    the dense rows.

    Each field may differ by 1e-10 relative plus the dense kernel's own
    rounding: ``eigh`` places ``min sigma(G)`` to a few ``eps ||G||``,
    ``eigvals`` the imaginary parts to a few ``eps ||H||``, and the dense
    ``G^-1/2`` carries ``eps kappa(G)`` into the Hermiticity residual.  The
    normalized commutator residuals sit at machine level when they vanish.
    """
    rows = samsonov_report(spec, schedule).rows
    problems = []
    prev = None
    for row, ref in zip(rows, dense_samsonov_rows(spec, schedule)):
        g_min, g_max = halfline._metric_extremes(spec.with_n(row.n))
        h_norm = 4.0 / row.spacing**2 + abs(spec.robin_coefficient) / row.spacing
        r_atol = 64 * EPS
        atol = {
            "min_eig_G": 16 * EPS * g_max,
            "gap_to_d2": 16 * EPS * g_max,
            "residual_full": r_atol,
            "residual_interior": r_atol,
            "herm_residual_h": 16 * EPS * g_max / max(g_min, 16 * EPS * g_max),
            "max_im_lambda_H": 64 * EPS * h_norm,
            "order_estimate": 0.0,
        }
        if prev is not None and not math.isnan(ref.order_estimate):
            # the order is a log-ratio of two full residuals
            slack = sum(
                1e-10 + r_atol / r.residual_full for r in (prev, ref)
            )
            atol["order_estimate"] = slack / math.log(row.n / prev.n)
        for field, tol in atol.items():
            if field in skip:
                continue
            new, old = getattr(row, field), getattr(ref, field)
            if not _close(new, old, tol):
                problems.append(f"n={row.n} {field}: {new!r} vs dense {old!r}")
        prev = ref
    return problems


@pytest.mark.parametrize(
    "d, b, box, schedule",
    [
        pytest.param(0.5, 1.0, 4.0, [16, 100, 400], id="bound-state"),
        pytest.param(1.0, 0.0, 3.0, [16, 64], id="bound-state-real-c"),
        pytest.param(3.0, -4.0, 2.0, [32, 100], id="bound-state-c5"),
        pytest.param(-1.0, 0.0, 20.0, [50, 200], id="b0"),
        pytest.param(-2.5, 0.0, 10.0, [16, 400], id="b0-steep"),
        pytest.param(0.0, 1.0, 40.0, [64, 400], id="d0"),
        pytest.param(0.0, -0.01, 40.0, [100, 200], id="d0-small-b"),
        pytest.param(-3.0, 4.0, 5.0, [16, 128], id="c5"),
        pytest.param(-5.0, 0.0, 8.0, [16, 300], id="c5-real"),
        pytest.param(-1.0, 1.0, 20.0, [50, 100, 200], id="golden-robin"),
        pytest.param(0.0, 0.0, 40.0, [64, 128], id="golden-free"),
        pytest.param(-1.0, 1.0, 40.0, [100, 200, 400], id="benchmark-like"),
    ],
)
def test_rows_agree_with_dense_oracle(d, b, box, schedule):
    assert _agreement_problems(HalfLineSpec(d, b, box, schedule[0]), schedule) == []


# --- mpmath oracles ---------------------------------------------------------


def _mp_grid(d: float, b: float, box: float, n: int):
    h = mpmath.mpf(box) / n
    return h, mpmath.mpc(d, b)


def mp_min_eig_g(d: float, b: float, box: float, n: int, dps: int = 40) -> mpmath.mpf:
    """``min sigma(L* L)`` by Sturm-count bisection on the tridiagonal, at
    ``dps`` digits: a minimum ``10^-k`` below ``||G||`` keeps about
    ``dps - k`` of them."""
    with mpmath.workdps(dps):
        h, c = _mp_grid(d, b, box, n)
        a = c - 1 / h
        diag = [abs(a) ** 2] + [abs(a) ** 2 + 1 / h**2] * (n - 1)
        off_sq = (abs(a) / h) ** 2

        def below(lam):
            count, pivot = 0, diag[0] - lam
            for k in range(1, n):
                count += pivot < 0
                # an exactly zero pivot is perturbed, as in LAPACK's dstebz
                pivot = diag[k] - lam - off_sq / (pivot or mpmath.mpf(10) ** -(dps + 20))
            return count + (pivot < 0)

        lo, hi = mpmath.mpf(0), 4 * diag[1]
        while hi - lo > mpmath.mpf(10) ** -(dps - 6) * hi:
            mid = (lo + hi) / 2
            if below(mid) >= 1:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def mp_max_im_h(d: float, b: float, box: float, n: int) -> mpmath.mpf:
    """``max |Im lambda(H)|``: Newton on the continuant ``det(H - z)``.

    Starts from the three dense eigenvalues with the largest imaginary
    parts and polishes each to 40 digits.
    """
    pair = halfline.build_pair(HalfLineSpec(d, b, box, n))
    dense = np.linalg.eigvals(pair.H.matrix)
    starts = dense[np.argsort(-np.abs(dense.imag))[:3]]
    with mpmath.workdps(40):
        h, c = _mp_grid(d, b, box, n)
        s = 1 / h**2
        diag = [s - c / h] + [2 * s] * (n - 1)
        best = mpmath.mpf(0)
        for start in starts:
            z = mpmath.mpc(complex(start))
            for _ in range(50):
                p_prev, p = mpmath.mpc(1), diag[0] - z
                dp_prev, dp = mpmath.mpc(0), mpmath.mpc(-1)
                for k in range(1, n):
                    p_prev, p, dp_prev, dp = (
                        p,
                        (diag[k] - z) * p - s * s * p_prev,
                        dp,
                        -p + (diag[k] - z) * dp - s * s * dp_prev,
                    )
                step = p / dp
                z -= step
                if abs(step) <= mpmath.mpf(10) ** -34 * abs(z):
                    break
            best = max(best, abs(z.imag))
        return best


@pytest.mark.parametrize(
    "d, b, box, n",
    [
        (-1.0, 1.0, 20.0, 50),
        (-1.0, 1.0, 20.0, 100),
        (1.0, 1.0, 40.0, 100),
        (0.0, -3.0, 1.0, 64),
        (-0.5, 1.5, 40.0, 100),
        (2.0, -3.0, 2.0, 16),
        (-1.2, 0.8, 40.0, 200),
    ],
)
def test_max_im_matches_mpmath(d, b, box, n):
    ref = mp_max_im_h(d, b, box, n)
    got = samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0].max_im_lambda_H
    assert abs(got - ref) <= 1e-13 * ref


def _newton_certifies(spec: HalfLineSpec) -> bool:
    hb, _ = halfline._bands(spec)
    roots = halfline._newton(spec.n, spec.spacing, spec.robin_coefficient)
    return halfline._certified(roots, hb)


def test_mpmath_cases_cover_both_solvers():
    # the benchmark-range case is solved by Newton's method; at d = -0.5,
    # b = 1.5, n = 100 the grid has |1 + hc| = 1 and falls back to Aberth
    assert _newton_certifies(HalfLineSpec(-1.2, 0.8, 40.0, 200))
    assert not _newton_certifies(HalfLineSpec(-0.5, 1.5, 40.0, 100))


@pytest.mark.parametrize(
    "d, b, box, schedule",
    [(-1.0, 1.0, 20.0, [50, 100, 200]), (0.0, 0.0, 40.0, [64, 128])],
    ids=["samsonov_robin", "samsonov_free"],
)
def test_golden_fields_no_less_accurate_than_dense(d, b, box, schedule):
    spec = HalfLineSpec(d, b, box, schedule[0])
    rows = samsonov_report(spec, schedule).rows
    dense = dense_samsonov_rows(spec, schedule)
    for row, ref in zip(rows, dense):
        exact = mp_min_eig_g(d, b, box, row.n)
        assert abs(row.min_eig_G - exact) <= max(abs(ref.min_eig_G - exact), 2 * EPS * exact)
        if b != 0.0:
            exact = mp_max_im_h(d, b, box, row.n)
            error = abs(row.max_im_lambda_H - exact)
            assert error <= max(abs(ref.max_im_lambda_H - exact), 4 * EPS * exact)
        else:
            assert row.max_im_lambda_H == ref.max_im_lambda_H == 0.0


# --- a spectrum that no solver certifies ------------------------------------


def _record_calls(monkeypatch, name: str) -> list[tuple[int, ...]]:
    """Shapes of the matrices passed to ``np.linalg.<name>`` from now on."""
    calls = []
    original = getattr(np.linalg, name)

    def recorded(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_failed_certificate_raises_convergence_failure(monkeypatch):
    spec = HalfLineSpec(-1.0, 1.0, 20.0, 50)
    monkeypatch.setattr(halfline, "_MAX_NEWTON_STEPS", 1)
    monkeypatch.setattr(halfline, "_MAX_SWEEPS", 1)
    calls = _record_calls(monkeypatch, "eigvals")
    with pytest.raises(ConvergenceFailure, match="n = 50"):
        samsonov_report(spec, [50, 100])
    assert calls == []


def test_certificate_rejects_a_lost_root(monkeypatch):
    # Newton's method fails; every Aberth step converged, but one root is a
    # copy of its neighbour: the trace checks must reject the grid
    original = halfline._aberth

    def lose_one(mu, w, rho):
        roots = original(mu, w, rho)
        low = np.argsort(roots.real)
        roots[low[0]] = roots[low[1]]
        return roots

    spec = HalfLineSpec(-1.0, 1.0, 20.0, 100)
    monkeypatch.setattr(halfline, "_MAX_NEWTON_STEPS", 1)
    monkeypatch.setattr(halfline, "_aberth", lose_one)
    calls = _record_calls(monkeypatch, "eigvals")
    with pytest.raises(ConvergenceFailure):
        samsonov_report(spec, [100])
    assert calls == []
    # the same grid passes with the copy undone
    monkeypatch.setattr(halfline, "_aberth", original)
    assert samsonov_report(spec, [100]).rows[0].max_im_lambda_H > 0.0


def test_certificate_sends_a_lost_newton_root_to_aberth(monkeypatch):
    # every Newton step converged, but one root is a copy of its neighbour:
    # the trace checks must send the grid to the Aberth sweeps, and the
    # rows are then those of Aberth alone
    spec = HalfLineSpec(-1.0, 1.0, 20.0, 50)
    schedule = [50, 100]
    monkeypatch.setattr(halfline, "_MAX_NEWTON_STEPS", 1)
    aberth_rows = samsonov_report(spec, schedule).rows
    monkeypatch.undo()

    newton, aberth = halfline._newton, halfline._aberth
    sweeps = []

    def lose_one(n, h, c):
        roots = newton(n, h, c)
        low = np.argsort(roots.real)
        roots[low[0]] = roots[low[1]]
        return roots

    def counted(mu, w, rho):
        sweeps.append(mu.size)
        return aberth(mu, w, rho)

    monkeypatch.setattr(halfline, "_newton", lose_one)
    monkeypatch.setattr(halfline, "_aberth", counted)
    calls = _record_calls(monkeypatch, "eigvals")
    rows = samsonov_report(spec, schedule).rows
    monkeypatch.undo()
    assert calls == []
    assert sweeps == schedule
    # repr, because the first row's order estimate is nan
    assert [repr(r) for r in rows] == [repr(r) for r in aberth_rows]


def test_floor_binding_min_eig_matches_mpmath(monkeypatch):
    # d = +1 over L = 40: L is near-singular, min sigma(G) ~ e^{-2dL}, far
    # below what bisection or a dense eigh of G can resolve
    spec = HalfLineSpec(1.0, 0.5, 40.0, 64)
    schedule = [64, 128]
    for n in schedule:
        g_min, g_max = halfline._metric_extremes(spec.with_n(n))
        assert g_min < halfline.FLOOR_EPSILON * g_max
    calls = _record_calls(monkeypatch, "eigh")
    rows = samsonov_report(spec, schedule).rows
    monkeypatch.undo()
    assert calls == []
    for row in rows:
        exact = mp_min_eig_g(1.0, 0.5, 40.0, row.n, dps=90)
        assert 0.0 < row.min_eig_G
        assert abs(row.min_eig_G - exact) <= 1e-12 * exact
        # the residual of the exact transform, not of floored roots of G:
        # row 0 of L H L^-1 dominates it, and Z - Z* is that row and column
        assert row.herm_residual_h == halfline._factor_herm_residual(spec.with_n(row.n))
        assert row.herm_residual_h == pytest.approx(math.sqrt(2.0), rel=1e-12)
    floored = ("min_eig_G", "gap_to_d2", "herm_residual_h")
    assert _agreement_problems(spec, schedule, skip=floored) == []


@pytest.mark.parametrize(
    "d, b, box, n, singular",
    [
        # |1 - hc|^-2n ~ e^1080 would overflow the closed form's tail, and
        # sigma_min(L)^2 ~ e^-1000 lies below the float range
        pytest.param(5.0, 3.0, 100.0, 1000, False, id="underflow"),
        # 1 - hc = 0 exactly: L is singular and has no transform
        pytest.param(1.6, 0.0, 10.0, 16, True, id="singular-L"),
    ],
)
def test_edge_inputs_of_the_closed_forms(tmp_path, capsys, d, b, box, n, singular):
    row = samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0]
    assert row.min_eig_G == 0.0
    assert math.isnan(row.herm_residual_h) if singular else row.herm_residual_h > 0.0

    json_out, csv_out = tmp_path / "s.json", tmp_path / "s.csv"
    argv = ["samsonov", f"--d={d}", f"--b={b}", f"--L={box}", f"--n={n}"]
    assert main(argv + ["--json-out", str(json_out), "--csv-out", str(csv_out)]) == 0
    capsys.readouterr()
    reported = json.loads(json_out.read_text())["rows"][0]
    header, values = csv_out.read_text().splitlines()
    field = dict(zip(header.split(","), values.split(",")))
    assert reported["min_eig_G"] == 0.0
    if singular:
        assert reported["herm_residual_h"] is None and field["herm_residual_h"] == ""
    else:
        assert reported["herm_residual_h"] == row.herm_residual_h


# --- the certificate holds on every input -----------------------------------

_parameter = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    d=_parameter,
    b=_parameter,
    box=st.floats(0.5, 100.0, allow_nan=False),
    n=st.integers(16, 100),
)
def test_secular_spectrum_never_falls_back(d, b, box, n):
    # a grid that neither solver certifies would raise ConvergenceFailure
    with mock.patch.object(halfline, "build_pair", side_effect=AssertionError("dense")):
        row = samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0]
    # the interior rows of the commutator vanish identically
    assert row.residual_interior == 0.0
    if b == 0.0:
        assert row.max_im_lambda_H == 0.0


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(-3.0, 3.0, allow_nan=False),
    b=st.floats(1e-3, 3.0, allow_nan=False),
    b_sign=st.sampled_from([-1.0, 1.0]),
    h=st.floats(0.01, 0.15, allow_nan=False),
    n=st.integers(16, 200),
)
def test_certified_newton_roots_agree_with_aberth(d, b, b_sign, h, n):
    # h <= 0.15 keeps |hc| <= 0.64; at larger |hc| the Aberth roots
    # themselves miss the mpmath max |Im lam| by up to ~6e-14 relative
    spec = HalfLineSpec(d, b_sign * b, h * n, n)
    hb, _ = halfline._bands(spec)
    h, c = spec.spacing, spec.robin_coefficient
    roots = halfline._newton(n, h, c)
    if not halfline._certified(roots, hb):
        return
    half = (np.arange(n) + 0.5) * (np.pi / (2 * n + 1))
    mu = (4.0 / (h * h)) * np.sin(half) ** 2
    w = (4.0 / (2 * n + 1)) * np.cos(half) ** 2
    reference = halfline._aberth(mu, w, c / h)
    assert halfline._certified(reference, hb)
    new, ref = np.abs(roots.imag).max(), np.abs(reference.imag).max()
    assert abs(new - ref) <= 1e-13 * ref
