"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import time

import numpy as np

from qherm import (
    ComplexSpectrum,
    Defective,
    HalfLineSpec,
    Operator,
    adjoint,
    eig_general,
    krein_check,
    make_metric,
    mutual_qs_check,
    push_eigenvectors,
    quasi_hermiticity_residual,
    samsonov_report,
    solve_metric,
    solve_pseudo_metric,
    spectral_comparison,
    verify_intertwining,
    verify_lattice,
    x_family,
    x_properties,
)
from helpers import (
    diagonalizable_real_spectrum,
    jordan_case,
    manufactured_quasi_hermitian,
    random_hermitian,
    random_pd,
    random_unitary,
    rng,
    well_conditioned,
)

A_WORKED = np.array([[1.0, 1.0], [0.0, 2.0]])
G_WORKED = np.array([[1.0, -1.0], [-1.0, 2.0]])


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_metric_equation_suite():
    start = time.monotonic()
    gen = rng(101)
    ok = True
    for k in range(200):
        n = int(gen.integers(2, 65))
        a, _ = diagonalizable_real_spectrum(gen, n)
        sol = solve_metric(Operator(a))
        if sol.residual > 1e-9 or sol.canonical.eig_min <= 0:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60.0
    _verdict(1, f"metric-equation suite ({elapsed:.1f}s)", ok)


def _chain_predicates(a: Operator, tol: float = 1e-8) -> tuple[bool, bool, bool, bool]:
    es = eig_general(a, tol)
    real_diag = (not es.defective) and bool(
        np.all(np.abs(es.eigenvalues.imag) <= tol * (1 + np.abs(es.eigenvalues)))
    )
    try:
        sol = solve_metric(a, tol)
    except (ComplexSpectrum, Defective):
        return real_diag, False, False, False
    m = sol.canonical
    pd_metric = m.eig_min > 0 and sol.residual <= tol
    k = m.G_half.matrix @ a.matrix @ m.G_invhalf.matrix
    k_herm = np.linalg.norm(k - k.conj().T, "fro") <= tol * np.linalg.norm(k, "fro")
    ga = m.G.matrix @ a.matrix
    ga_herm = np.linalg.norm(ga - ga.conj().T, "fro") <= tol * np.linalg.norm(ga, "fro")
    return real_diag, pd_metric, k_herm, ga_herm


def test_acceptance_2_equivalence_chain():
    gen = rng(102)
    agreements = 0
    total = 0
    for _ in range(100):
        n = int(gen.integers(2, 33))
        cases = [
            Operator(random_hermitian(gen, n)),
            Operator(manufactured_quasi_hermitian(gen, n)[0]),
            Operator(jordan_case(gen, n)),
        ]
        u = random_unitary(gen, n)
        w = gen.standard_normal(n) + 1j * gen.uniform(0.5, 2.0, n)
        cases.append(Operator((u * w) @ u.conj().T))
        for a in cases:
            flags = _chain_predicates(a)
            total += 1
            if all(flags) or not any(flags):
                agreements += 1
    _verdict(2, f"equivalence chain ({agreements}/{total} agree)", agreements == total == 400)


def test_acceptance_3_worked_2x2_oracle():
    sol = solve_metric(Operator(A_WORKED))
    g = sol.canonical.G.matrix / sol.scale
    ok = np.abs(g - G_WORKED).max() <= 1e-12
    ga = g @ A_WORKED
    ok = ok and np.abs(ga - np.array([[1.0, -1.0], [-1.0, 3.0]])).max() <= 1e-12
    ok = ok and np.abs(ga - (g @ A_WORKED).conj().T).max() <= 1e-12
    xf = x_family(Operator(A_WORKED))
    ok = ok and np.abs(xf.x_projectors[0].matrix - [[1.0, -1.0], [0.0, 0.0]]).max() <= 1e-12
    _verdict(3, "worked 2x2 oracle", bool(ok))


def test_acceptance_4_x_family_properties():
    gen = rng(104)
    violations = 0
    worst_recon = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 33))
        a, _ = manufactured_quasi_hermitian(gen, n)
        xf = x_family(Operator(a), 1e-8)
        samples = [
            (
                gen.standard_normal(n) + 1j * gen.standard_normal(n),
                gen.standard_normal(n) + 1j * gen.standard_normal(n),
            )
            for _ in range(100)
        ]
        rep = x_properties(xf, Operator(a), samples, 1e-8)
        violations += rep.variation_violations
        worst_recon = max(worst_recon, rep.max_reconstruction_residual)
    ok = violations == 0 and worst_recon <= 1e-8
    _verdict(4, f"X-family properties (recon {worst_recon:.2e})", ok)


def test_acceptance_5_quasi_similarity_suite():
    gen = rng(105)
    ok = True
    for _ in range(50):
        n = int(gen.integers(2, 33))
        a, _ = diagonalizable_real_spectrum(gen, n)
        t = well_conditioned(gen, n)
        b = t @ a @ np.linalg.inv(t)
        a_op, b_op, t_op = Operator(a), Operator(b), Operator(t)
        match = spectral_comparison(a_op, b_op, 1e-7)
        push = push_eigenvectors(a_op, b_op, t_op, 1e-8)
        ok = ok and match.total_with_equal_multiplicities
        ok = ok and push.max_residual <= 1e-8 and not push.annihilated
        ok = ok and verify_intertwining(a_op, b_op, t_op).residual <= 1e-9
        if not ok:
            break
    for _ in range(20):
        n = int(gen.integers(2, 17))
        w = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        u1, u2 = random_unitary(gen, n), random_unitary(gen, n)
        a = (u1 * w) @ u1.conj().T
        b = (u2 * w) @ u2.conj().T
        rep = mutual_qs_check(
            Operator(a), Operator(b), Operator(u2 @ u1.conj().T), Operator(u1 @ u2.conj().T), 1e-8
        )
        ok = ok and rep.both_normal and bool(rep.unitarily_equivalent)
        if not ok:
            break
    _verdict(5, "quasi-similarity suite", ok)


def test_acceptance_6_samsonov_refinement():
    start = time.monotonic()
    spec = HalfLineSpec(-1.0, 1.0, 40.0, 200)
    rep = samsonov_report(spec, [200, 400, 800])
    gaps = [r.gap_to_d2 for r in rep.rows]
    # gap at n = 200 frozen from the calibration oracle run
    ok = abs(gaps[0] - 0.179475118999) <= 1e-8
    ok = ok and gaps[0] > gaps[1] > gaps[2] > 0
    ims = [r.max_im_lambda_H for r in rep.rows]
    ok = ok and all(b <= a + 1e-13 for a, b in zip(ims, ims[1:]))
    ok = ok and rep.passed

    control = samsonov_report(HalfLineSpec(0.0, 0.0, 40.0, 200), [200, 400, 800])
    for row in control.rows:
        ok = ok and row.residual_full <= 1e-12
        ok = ok and row.herm_residual_h <= 1e-12
        ok = ok and row.max_im_lambda_H <= 1e-12
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300.0
    _verdict(6, f"half-line refinement ({elapsed:.1f}s)", ok)


def test_acceptance_7_lattice_suite():
    gen = rng(107)
    ok = True
    for _ in range(50):
        n = int(gen.integers(2, 25))
        m = make_metric(Operator(random_pd(gen, n)))
        samples = [
            gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(50)
        ]
        rep = verify_lattice(m, samples, 1e-10)
        ok = ok and rep.max_projective_residual <= 1e-12
        ok = ok and rep.max_unitarity_residual <= 1e-10
        ok = ok and rep.max_duality_residual <= 1e-10
        if not ok:
            break
    _verdict(7, "lattice suite", ok)


def test_acceptance_8_krein_suite():
    gen = rng(108)
    ok = True
    for _ in range(100):
        n = int(gen.integers(2, 25))
        signs = np.where(gen.standard_normal(n) > 0, 1.0, -1.0)
        j_op = Operator(np.diag(signs))
        a_op = Operator(np.diag(signs) @ random_hermitian(gen, n))
        holds, _ = krein_check(a_op, j_op)
        ok = ok and holds
        w = eig_general(a_op).eigenvalues
        for lam in w:
            ok = ok and float(np.min(np.abs(w - np.conj(lam)))) <= 1e-8 * (1 + abs(lam))
        t, _ = solve_pseudo_metric(a_op, 1e-8)
        ok = ok and quasi_hermiticity_residual(a_op, t) <= 1e-9
        ok = ok and np.abs(t.matrix - t.matrix.conj().T).max() <= 1e-12
        if not ok:
            break
    t, sig = solve_pseudo_metric(Operator(np.diag([1j, -1j])))
    ok = ok and sig == (1, 1)
    ok = ok and np.abs(t.matrix - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-12
    _verdict(8, "Krein suite", ok)
