"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or look at the failure
output).  Tolerances are pinned here, not configurable.
"""
import time

import numpy as np

from hessecubic import (PolyMatrix, ThetaContext, UlrichSpec, automorphy_residuals,
                        build_algebraic, build_analytic, calibrate_by_order,
                        curve_sample_points, det_scalar_fit, double_neg, doubling_orbit,
                        elimination_consequence_residual, elimination_fit, embed,
                        eval_matrix, evaluate, hesse_form, hesse_psi, l_from_coords,
                        moore_from_coords, numeric_rank, offcurve_sample_triples,
                        relation_annihilation_residual,
                        relation_matrix, theta_jet, theta_relation_residuals,
                        verify_factorization, verify_presentation)
from oracles import moore_derivative, proj_distance, theta_vector

A_Z = 0.3


def _report(number: int, name: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {verdict} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_hesse_identity():
    start = time.perf_counter()
    worst = 0.0
    for tau in (1j, 0.2 + 1.3j):
        ctx = ThetaContext(tau=tau)
        psi = hesse_psi(ctx)
        w = hesse_form(psi)
        for j in range(10):
            z = complex(-0.45 + 0.1 * j, 0.31 - 0.07 * j)
            worst = max(worst, abs(evaluate(w, theta_vector(z, ctx))))
    elapsed = time.perf_counter() - start
    _report(1, "hesse-identity", worst < 1e-9 and elapsed < 1.0,
            f"max residual {worst:.2e} < 1e-9 over 2 tau x 10 z [{elapsed:.2f}s < 1s]")


def test_criterion_2_moore_relations(ctx_i):
    start = time.perf_counter()
    a_grid = [0.13, 0.22 + 0.09j, 0.31, -0.17 + 0.11j, 0.41 + 0.05j]
    z_grid = [0.11, -0.23 + 0.07j, 0.29, 0.37 + 0.13j, -0.41 + 0.03j]
    worst = 0.0
    for a_z in a_grid:
        for z in z_grid:
            for rep in theta_relation_residuals(a_z, z, ctx_i, 4):
                worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    _report(2, "moore-relations", worst < 1e-7 and elapsed < 5.0,
            f"max residual {worst:.2e} < 1e-7, orders 0..4 on 5x5 grid [{elapsed:.2f}s < 5s]")


def test_criterion_3_rank_one_factorization(ctx_i, psi_i):
    w_id = PolyMatrix.diagonal(hesse_form(psi_i), 3)
    worst_ml = 0.0
    for p in curve_sample_points(ctx_i, 20, 101):
        ml = moore_from_coords(p.coords) @ l_from_coords(p.coords)
        worst_ml = max(worst_ml, (ml - w_id).coefficient_norm())

    rng = np.random.default_rng(102)
    worst_off = 0.0
    trials = 0
    while trials < 10:
        coords = tuple(complex(rng.normal(), rng.normal()) for _ in range(3))
        from hessecubic import ProjectivePoint
        p = ProjectivePoint.from_coords(coords)
        if min(abs(c) for c in p.coords) < 1e-2:
            continue
        ml = moore_from_coords(p.coords) @ l_from_coords(p.coords)
        worst_off = max(worst_off, max(np.linalg.norm(ml.coeffs[i, j])
                                       for i in range(3) for j in range(3) if i != j))
        trials += 1

    worst_scalar = 0.0
    off = offcurve_sample_triples(psi_i, 10, 43)
    w_off = evaluate(hesse_form(psi_i), off)
    for p in curve_sample_points(ctx_i, 5, 103):
        c, fit = det_scalar_fit(eval_matrix(moore_from_coords(p.coords), off), w_off)
        ok = fit < 1e-8
        prod = p.coords[0] * p.coords[1] * p.coords[2]
        worst_scalar = max(worst_scalar, abs(c - prod) / abs(prod))
        if not ok:
            worst_scalar = 1.0
    passed = worst_ml < 1e-8 and worst_off < 1e-12 and worst_scalar < 1e-8
    _report(3, "rank-one-factorization", passed,
            f"|ML-wI| {worst_ml:.2e} < 1e-8 (20 pts), off-diag {worst_off:.2e} < 1e-12, "
            f"det scalar dev {worst_scalar:.2e} < 1e-8")


def test_criterion_4_analytic_block_factorization(ctx_i, psi_i):
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3, 4):
        a, b = build_analytic(UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z))
        worst = max(worst, *(r.residual for pair in verify_factorization(a, b, psi_i)
                             for r in pair))
    elapsed = time.perf_counter() - start
    _report(4, "analytic-block-factorization", worst < 1e-7 and elapsed < 30.0,
            f"max |AB-wI|, |BA-wI| {worst:.2e} < 1e-7 for k in 1..4 [{elapsed:.1f}s < 30s]")


def test_criterion_5_presentation_law(ctx_i, psi_i):
    on = curve_sample_points(ctx_i, 10, 42)
    off = offcurve_sample_triples(psi_i, 10, 43)
    failures = []
    worst = 0.0
    for k in (1, 2, 3):
        spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
        lambdas, _ = calibrate_by_order(spec, [k])
        stack = [build_analytic(spec)[0], build_algebraic(embed(A_Z, ctx_i), k, lambdas)]
        for tag, reports in zip(("analytic", "algebraic"),
                                verify_presentation(stack, psi_i, on, off)[-1]):
            for rep in reports:
                if not rep.passed:
                    failures.append(f"{tag}.k{k}.{rep.name}")
                if rep.name == "presentation.det":
                    worst = max(worst, rep.residual)
    _report(5, "presentation-law", not failures,
            f"det = w^(k+1) up to scalar (max residual {worst:.2e} < 1e-7), corank k+1 on "
            f"10 curve pts, full rank on 10 off pts, k <= 3, both constructions"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_derivative_elimination(ctx_i):
    points = (0.2, 0.3, 0.41 + 0.1j, 0.23 + 0.05j, -0.31 + 0.07j)
    fits = [elimination_fit(theta_jet(a_z, ctx_i, 1)) for a_z in points]
    worst_fit = max(f[2] for f in fits)
    c0 = fits[0][1]
    drift = max(abs(f[1] - c0) / abs(c0) for f in fits)
    jet = theta_jet(A_Z, ctx_i, 1)
    consequence = elimination_consequence_residual(jet, *elimination_fit(jet)[:2])
    passed = worst_fit < 1e-8 and drift < 1e-6 and consequence < 1e-7
    _report(6, "derivative-elimination", passed,
            f"fit residual {worst_fit:.2e} < 1e-8 at 5 pts, c drift {drift:.2e} < 1e-6, "
            f"|M'-sM-cM_(-2a)| {consequence:.2e} < 1e-7")


def test_criterion_7_point_map_oracle(ctx_i):
    rng = np.random.default_rng(777)
    worst = 0.0
    count = 0
    while count < 50:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        p = embed(z, ctx_i)
        if min(abs(c) for c in p.coords) < 1e-4:
            continue
        worst = max(worst, proj_distance(double_neg(p), embed(-2 * z, ctx_i)))
        count += 1
    worst_iter = 0.0
    orbit = doubling_orbit(embed(0.21, ctx_i), 3)
    for l in (1, 2, 3):
        worst_iter = max(worst_iter, proj_distance(orbit[l], embed((-2) ** l * 0.21, ctx_i)))
    passed = worst < 1e-8 and worst_iter < 1e-8
    _report(7, "point-map-oracle", passed,
            f"double_neg vs embed(-2z): {worst:.2e} < 1e-8 (50 pts); "
            f"iterates l<=3: {worst_iter:.2e}")


def test_criterion_8_automorphy(ctx_i):
    worst_t = worst_c = 0.0
    for k in range(1, 9):
        # transport is the worse of lambda = 1 and lambda = tau; cocycle is
        # lambda = 1 + tau with the factor f(1, z + tau) f(tau, z)
        transport, cocycle = automorphy_residuals(UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z),
                                                  0.13 + 0.05j)[-1]
        worst_t, worst_c = max(worst_t, transport), max(worst_c, cocycle)
    passed = worst_t < 1e-7 and worst_c < 1e-7
    _report(8, "automorphy", passed,
            f"f v(z) = v(z+lambda) residual {worst_t:.2e} < 1e-7 (k <= 8, lambda in {{1,tau}}), "
            f"cocycle {worst_c:.2e} < 1e-7")


def test_criterion_9_rank_two_bookkeeping(ctx_i):
    spec = UlrichSpec(k=1, ctx=ctx_i, a_z=A_Z)
    a = build_analytic(spec)[0]
    worst = max(relation_annihilation_residual(spec, a, z)
                for z in (0.11, 0.29 + 0.07j, -0.21 + 0.13j))
    rel = relation_matrix(a)
    rank = numeric_rank(rel)
    passed = worst < 1e-7 and rel.shape == (6, 18) and rank == 6
    _report(9, "rank-two-bookkeeping", passed,
            f"6 relation rows annihilate the 6 sections (residual {worst:.2e} < 1e-7); "
            f"6x18 relation matrix has rank {rank} == 6")


def test_criterion_10_mutation_sanity(ctx_i, psi_i):
    broke = []

    # zero an off-diagonal block of the analytic k=1 matrix: criterion 4 check
    a, b = build_analytic(UlrichSpec(k=1, ctx=ctx_i, a_z=A_Z))
    a.coeffs[:3, 3:6] = 0.0
    if any(not r.passed for pair in verify_factorization(a, b, psi_i) for r in pair):
        broke.append("zero-block->criterion4")

    # drop the binomial coefficient on block (0,1) at k=2: criterion 4 check
    a2, b2 = build_analytic(UlrichSpec(k=2, ctx=ctx_i, a_z=A_Z))
    a2.coeffs[:3, 3:6] = moore_derivative(A_Z, ctx_i, 1).coeffs
    if any(not r.passed for pair in verify_factorization(a2, b2, psi_i) for r in pair):
        broke.append("drop-binomial->criterion4")

    # perturb psi by 1e-3: criterion 3 check
    w_id = PolyMatrix.diagonal(hesse_form(psi_i + 1e-3), 3)
    p = curve_sample_points(ctx_i, 1, 101)[0]
    ml = moore_from_coords(p.coords) @ l_from_coords(p.coords)
    if (ml - w_id).coefficient_norm() >= 1e-8:
        broke.append("perturb-psi->criterion3")

    _report(10, "mutation-sanity", len(broke) == 3,
            f"every mutation breaks a criterion among 3-5: {broke}")
