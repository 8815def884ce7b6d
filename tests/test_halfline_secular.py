"""The half-line kernels against the dense path and mpmath.

``samsonov_report`` takes ``sigma(H)`` by Newton's method on its
characteristic equation from up to three start sets, the extremes of
``sigma(G)`` by safeguarded Newton steps on its secular equation
(``min sigma(G)`` as ``sigma_min(L)^2`` where the floor binds) and the
residuals from bands and the factor ``L``.  The dense per-grid computation
in ``tests/dense_oracle.py`` is the reference, with its Aberth sweeps on
the secular equation of ``H`` for the roots and its bisection of the
secular equation of ``G`` for the extremes, float for float; where they
differ by more than rounding, the mpmath oracles below show which one is
right.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dense_oracle import aberth, bisected_metric_extremes, dense_samsonov_rows
from helpers import near_unit_beta, start_sets_taken
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


def mp_herm_residual(d: float, b: float, box: float, n: int) -> mpmath.mpf:
    """``||Z - Z*||_F / ||Z||_F`` with ``Z = L H L^-1`` from the n x n
    matrices at 60 digits, ``L^-1`` the Toeplitz inverse of the bidiagonal
    ``L = a I + S/h``, ``a = c - 1/h``: ``L^-1[i, j] = (-1/(h a))^(j-i)/a``."""
    with mpmath.workdps(60):
        h, c = _mp_grid(d, b, box, n)
        a = c - 1 / h
        lmat, hmat, inv = (mpmath.zeros(n, n) for _ in range(3))
        for i in range(n):
            lmat[i, i], hmat[i, i] = a, 2 / h**2
            if i + 1 < n:
                lmat[i, i + 1] = 1 / h
                hmat[i, i + 1] = hmat[i + 1, i] = -1 / h**2
            for j in range(i, n):
                inv[i, j] = (-1 / (h * a)) ** (j - i) / a
        hmat[0, 0] = 1 / h**2 - c / h
        z = lmat * hmat * inv
        return mpmath.mnorm(z - z.transpose_conj(), "f") / mpmath.mnorm(z, "f")


def mp_max_im_h(d: float, b: float, box: float, n: int) -> mpmath.mpf:
    """``max |Im lambda(H)|``: Newton on the continuant ``det(H - z)``.

    Starts from the three eigenvalues with the largest imaginary parts and
    polishes each to 40 digits, real and imaginary part alike.  For
    ``|b| <= 1e-6`` the dense ``Im lambda`` are rounding noise of ``||H||``,
    so the starts come from first order in ``b`` instead: the real
    symmetric ``H(d)`` perturbed by ``-i (b/h) e0 e0^T`` has
    ``Im lambda_k = -(b/h) v_k(0)^2``.
    """
    if abs(b) > 1e-6:
        dense = np.linalg.eigvals(halfline.build_pair(HalfLineSpec(d, b, box, n)).H.matrix)
        starts = dense[np.argsort(-np.abs(dense.imag))[:3]]
    else:
        real = halfline.build_pair(HalfLineSpec(d, 0.0, box, n)).H.matrix.real
        lam, vec = np.linalg.eigh(real)
        first_order = -(b * n / box) * vec[0] ** 2
        top = np.argsort(-np.abs(first_order))[:3]
        starts = lam[top] + 1j * first_order[top]
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
                tol = mpmath.mpf(10) ** -34
                if abs(step) <= tol * abs(z) and abs(step.imag) <= tol * abs(z.imag):
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
        # |1 + hc| within 1% of 1, where the roots change layout
        (0.4673410036306187, -1.8935259798395876, 2.1752210690293268, 130),
        (0.013570796443578281, -0.16333475154431643, 47.15161271271455, 546),
        # d L = 1.013, where the bound state has just formed and sets max |Im|
        (1.9622286705733536, 0.010566999720754361, 0.5164495664009346, 182),
        # d L = 0.99 with b/d = 1e-10: the state is about to bind, and its
        # Im lam must stay relative to b
        (0.9921875, 1e-10, 1.0, 16),
        (0.9921875, 4.6363331894926065e-272, 1.0, 16),
        # Im lam ~ b far below the rounding of |lam|: start sets 2 (bound
        # states below and, for Re(hc) < -2, above the band) and 1
        (1.0, 1e-20, 40.0, 100),
        (1.0, 1e-40, 40.0, 100),
        (2.0, 1e-20, 4.0, 200),
        (2.0, 1e-40, 4.0, 200),
        (-2.4, -1e-140, 70.0, 73),
        (0.5, 1e-40, 1.9, 300),
    ],
)
def test_max_im_matches_mpmath(d, b, box, n):
    ref = mp_max_im_h(d, b, box, n)
    got = samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0].max_im_lambda_H
    assert abs(got - ref) <= 1e-13 * ref


def test_deep_bound_state_keeps_im_relative():
    # |q|^4n = 7e-18, with h^2 lam = 2.08 - 0.09i inside the band: Newton
    # on the Chebyshev closed form of det(h^2 H - x) held Im x only to the
    # rounding of |x| here (9.9e-14 relative); the secular form of the
    # determinant gets 4.4e-15, close to the Aberth sweeps' 3.6e-15
    d, b, box, n = -3.320888004450201, 3.3316266914012687, 68.10967628777163, 217
    ref = mp_max_im_h(d, b, box, n)
    got = samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0].max_im_lambda_H
    assert abs(got - ref) <= 1e-14 * ref


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(-5.0, 5.0, allow_nan=False),
    box=st.floats(0.5, 100.0, allow_nan=False),
    n=st.integers(16, 200),
    exponent=st.floats(-250.0, -25.0, allow_nan=False),
)
def test_im_lambda_stays_relative_to_tiny_b(d, box, n, exponent):
    # Im lam_k = b s_k + O(b^2) for the real symmetric H(d) perturbed by
    # -i (b/h) e0 e0^T, so below b = 1e-20 max |Im lam|/b must not move
    # with b; an absolute noise floor would make it grow as b falls
    assume(abs(d) >= 1e-3)
    rows = [
        samsonov_report(HalfLineSpec(d, b, box, n), [n]).rows[0].max_im_lambda_H / b
        for b in (1e-20, 10.0**exponent)
    ]
    assert rows[1] == pytest.approx(rows[0], rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "d, b, box, n, start_set",
    [
        (-1.2, 0.8, 40.0, 200, 1),
        (1.0, 1.0, 4.0, 1600, 2),
        (1.0, 1.0, 40.0, 100, 2),
        # |1 + hc| = 1 exactly
        (-0.5, 1.5, 40.0, 100, 3),
    ],
)
def test_named_grids_take_each_start_set(d, b, box, n, start_set):
    assert start_sets_taken(HalfLineSpec(d, b, box, n), [n]) == [start_set]


# grids that the c = 0 starts and a bound state by Newton in q alone miss:
# |1 + hc| within 1% of 1, where the roots change layout at arg(1 + hc), and
# d L near 1, where the bound state forms next to the spurious root q = 1
_HARD_GRIDS = [
    (-0.07063837810045914, 1.373601174260564, 53.47856105991169, 693),
    (-0.17797728189149176, -4.5454059251544, 20.371586906262447, 997),
    (0.4673410036306187, -1.8935259798395876, 2.1752210690293268, 130),
    (0.013570796443578281, -0.16333475154431643, 47.15161271271455, 546),
    (0.984375, 0.03125, 1.0, 16),
    (0.9921875, 4.6363331894926065e-272, 1.0, 16),
    (1.284527833453456, -0.00011810506276760486, 0.6965010227375406, 274),
    (1.8030185549783544, 0.01496412607376542, 0.5072913204298293, 234),
]


@pytest.mark.parametrize("d, b, box, n", _HARD_GRIDS)
def test_hard_grids_certify(d, b, box, n):
    assert start_sets_taken(HalfLineSpec(d, b, box, n), [n]) in ([1], [2], [3])


@settings(max_examples=100, deadline=None)
@given(
    d=st.floats(0.01, 5.0, allow_nan=False),
    binding=st.floats(0.5, 1.5, allow_nan=False),
    b=st.floats(1e-4, 5.0, allow_nan=False),
    b_sign=st.sampled_from([-1.0, 1.0]),
    n=st.integers(16, 400),
)
def test_grids_near_the_binding_threshold_certify(d, binding, b, b_sign, n):
    # d L = binding: the bound state of H forms near d L = 1
    box = binding / d
    assume(0.5 <= box <= 100.0)
    assert start_sets_taken(HalfLineSpec(d, b_sign * b, box, n), [n]) in ([1], [2], [3])


@settings(max_examples=200, deadline=None)
@given(
    b_fraction=st.floats(-1.0, 1.0, allow_nan=False),
    box=st.floats(0.5, 100.0, allow_nan=False),
    n=st.integers(16, 200),
    exponent=st.floats(-12.0, -1.0, allow_nan=False),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_grids_near_unit_beta_certify(b_fraction, box, n, exponent, side):
    # |1 + hc| = 1 + side 10^exponent, where the roots change layout at
    # phi = arg(1 + hc); ConvergenceFailure would fail the test
    h = box / n
    d, b = near_unit_beta(h, side * 10.0**exponent, b_fraction)
    assume(abs(d) <= 5.0 and b != 0.0)
    spec = HalfLineSpec(d, b, box, n)
    assert abs(abs(1.0 + spec.spacing * spec.robin_coefficient) - 1.0) <= 1.01 * 10.0**exponent
    assert start_sets_taken(spec, [n]) in ([1], [2], [3])


# benchmark-range grids with max_im_lambda_H as Newton's method from the
# c = 0 roots gave it before start sets 2 and 3 existed, bit for bit
@pytest.mark.parametrize(
    "d, b, n, max_im",
    [
        (-0.838524, 1.192279, 200, 0.06396795306878769),
        (-0.88902, 0.731663, 100, 0.03814558567749543),
        (-1.488668, 1.092423, 100, 0.05873915189522446),
    ],
)
def test_first_start_set_keeps_its_bits(d, b, n, max_im):
    assert samsonov_report(HalfLineSpec(d, b, 40.0, n), [n]).rows[0].max_im_lambda_H == max_im


@settings(max_examples=100, deadline=None)
@given(
    d=st.floats(-1.5, -0.5, allow_nan=False),
    b=st.floats(0.5, 1.5, allow_nan=False),
)
def test_benchmark_grids_take_the_first_start_set(d, b):
    # the halfline_refine workload's range, rounded as it rounds: set 1
    # keeps its rows bit for bit those of Newton from the c = 0 roots.  The
    # corner (-0.5, 1.5) has |1 + hc| = 1 at n = 100 and takes set 3; a
    # scan finds no other miss farther than 0.003 from it
    d, b = round(d, 6), round(b, 6)
    assume(math.hypot(d + 0.5, b - 1.5) > 0.01)
    assert start_sets_taken(HalfLineSpec(d, b, 40.0, 100), [100, 200, 400]) == [1, 1, 1]


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


def _record_linalg_calls(monkeypatch) -> list[str]:
    """Names of the ``np.linalg`` functions called from now on."""
    calls = []
    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if callable(original) and not name[0].isupper():

            def recorded(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_failed_certificate_raises_convergence_failure(monkeypatch):
    spec = HalfLineSpec(-1.0, 1.0, 20.0, 50)
    monkeypatch.setattr(halfline, "_MAX_NEWTON_STEPS", 1)
    calls = _record_linalg_calls(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="n = 50"):
        samsonov_report(spec, [50, 100])
    assert calls == []


def _losing_a_root(newton, lost: list[int]):
    """``newton`` with one converged root replaced by a copy of its
    neighbour on the calls whose (0-based) index is in ``lost``."""
    calls = []

    def lose_one(phi, n, hc):
        roots = newton(phi, n, hc)
        if roots is not None and len(calls) in lost:
            low = np.argsort(roots.real)
            roots[low[0]] = roots[low[1]]
        calls.append(phi.size)
        return roots

    return lose_one, calls


def test_certificate_rejects_a_lost_root(monkeypatch):
    # a bound-state grid, which start set 2 alone certifies (set 1 does not
    # converge): with one root of each set a copy of its neighbour, every
    # set must fail
    spec = HalfLineSpec(1.0, 1.0, 40.0, 100)
    lose_one, calls = _losing_a_root(halfline._newton, lost=[0, 1, 2])
    monkeypatch.setattr(halfline, "_newton", lose_one)
    linalg = _record_linalg_calls(monkeypatch)
    with pytest.raises(ConvergenceFailure):
        samsonov_report(spec, [100])
    monkeypatch.undo()
    assert linalg == []
    # sets 1 and 3 with n starts, set 2 with the bound state and n - 1
    assert calls == [100, 99, 100]
    # the same grid passes with the copies undone
    assert samsonov_report(spec, [100]).rows[0].max_im_lambda_H > 0.0


def test_certificate_sends_a_lost_root_to_the_next_start_set(monkeypatch):
    # every Newton step of start set 1 converged, but one root is a copy of
    # its neighbour: the trace checks must send each grid to the next set,
    # here set 3 (|1 + hc| < 1, so set 2 does not apply)
    spec = HalfLineSpec(-1.0, 1.0, 20.0, 50)
    schedule = [50, 100]
    assert start_sets_taken(spec, schedule) == [1, 1]
    reference = samsonov_report(spec, schedule).rows

    lose_one, calls = _losing_a_root(halfline._newton, lost=[0, 2])
    monkeypatch.setattr(halfline, "_newton", lose_one)
    linalg = _record_linalg_calls(monkeypatch)
    rows = samsonov_report(spec, schedule).rows
    monkeypatch.undo()
    assert linalg == []
    # two sets of n starts per grid: 1, then 3
    assert calls == [50, 50, 100, 100]
    for row, ref in zip(rows, reference):
        assert row.max_im_lambda_H == pytest.approx(ref.max_im_lambda_H, rel=1e-13, abs=0.0)
        assert row.min_eig_G == ref.min_eig_G and row.herm_residual_h == ref.herm_residual_h


def test_floor_binding_min_eig_matches_mpmath(monkeypatch):
    # d = +1 over L = 40: L is near-singular, min sigma(G) ~ e^{-2dL}, far
    # below what the secular equation or a dense eigh of G can resolve
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


@pytest.mark.parametrize(
    "d, b, box, n",
    [
        # 1 - hc = -6.25e-152 i: |q| = 1/|1 - hc| = 1.6e151, so |c^2 q^2|^2
        # overflowed before the |1 - hc|^2n that brings it back
        pytest.param(16.0, 1e-150, 1.0, 16, id="hc-next-to-1"),
        pytest.param(0.5, 1.0, 4.0, 16, id="q-above-1"),
    ],
)
def test_herm_residual_does_not_overflow(tmp_path, capsys, d, b, box, n):
    json_out = tmp_path / "s.json"
    argv = ["samsonov", f"--d={d}", f"--b={b}", f"--L={box}", f"--n={n}"]
    assert main(argv + ["--json-out", str(json_out)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    got = json.loads(json_out.read_text())["rows"][0]["herm_residual_h"]
    assert math.isfinite(got)
    ref = mp_herm_residual(d, b, box, n)
    assert abs(got - ref) <= 1e-14 * ref


# --- the extremes of sigma(G) are the bisection's, float for float ----------


@st.composite
def _metric_grids(draw) -> HalfLineSpec:
    """Grids with ``d`` of either sign; ``d > 0`` with ``d L`` from 15 to
    100, where ``min sigma(G)`` falls below the floor; tiny ``|b|``; and
    ``|1 + hc|`` within 1e-12 to 1e-1 of 1; ``n`` from 16 to 8192."""
    n = draw(st.integers(16, 8192))
    family = draw(st.sampled_from(["signed", "floor", "tiny-b", "near-unit"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    box = draw(st.floats(0.5, 100.0, allow_nan=False))
    d = draw(st.floats(-5.0, 5.0, allow_nan=False))
    b = draw(st.floats(-5.0, 5.0, allow_nan=False))
    if family == "floor":
        d = draw(st.floats(0.5, 5.0, allow_nan=False))
        b, box = b * d / 5.0, draw(st.floats(15.0, 100.0, allow_nan=False)) / d
    elif family == "tiny-b":
        b = sign * 10.0 ** draw(st.floats(-300.0, -6.0, allow_nan=False))
    elif family == "near-unit":
        exponent = draw(st.floats(-12.0, -1.0, allow_nan=False))
        d, b = near_unit_beta(box / n, sign * 10.0**exponent, b / 5.0)
    return HalfLineSpec(d, b, box, n)


@settings(max_examples=250, deadline=None)
@given(grid=_metric_grids())
def test_metric_extremes_are_the_bisections(grid):
    # the computed secular function is monotone in each bracket, so every
    # bracketing method that stops on adjacent floats returns the same float
    got = halfline._metric_extremes(grid)
    assert [v.hex() for v in got] == [v.hex() for v in bisected_metric_extremes(grid)]


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
    # the roots of whichever start set passed the certificate; h <= 0.15
    # keeps |hc| <= 0.64, and at larger |hc| the Aberth roots themselves
    # miss the mpmath max |Im lam| by up to ~6e-14 relative
    spec = HalfLineSpec(d, b_sign * b, h * n, n)
    hb, _ = halfline._bands(spec)
    certify, certified = halfline._certified, []

    def recorded(roots, bands):
        passed = certify(roots, bands)
        certified.extend([roots] if passed else [])
        return passed

    with mock.patch.object(halfline, "_certified", recorded):
        new = samsonov_report(spec, [n]).rows[0].max_im_lambda_H
    (roots,) = certified
    assert new == np.abs(roots.imag).max()
    h, c = spec.spacing, spec.robin_coefficient
    half = (np.arange(n) + 0.5) * (np.pi / (2 * n + 1))
    mu = (4.0 / (h * h)) * np.sin(half) ** 2
    w = (4.0 / (2 * n + 1)) * np.cos(half) ** 2
    reference = aberth(mu, w, c / h)
    assert certify(reference, hb)
    ref = np.abs(reference.imag).max()
    assert abs(new - ref) <= 1e-13 * ref
