"""Block presentations: factorization, calibration, sections, automorphy."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hessecubic import (CalibrationFailed, DegenerateOrbit, DenominatorZero,
                        HesseCubicError, IllConditioned, PolyMatrix, ProjectivePoint,
                        SamplingFailed, SizeMismatch, ThetaContext,
                        UlrichSpec, automorphy_residuals, build_algebraic,
                        build_analytic, calibrate_by_order, curve_sample_points,
                        doubling_orbit, elimination_consequence_residual, elimination_fit,
                        embed, jet_kernel_residual, l_derivative,
                        numeric_rank, offcurve_sample_triples,
                        relation_annihilation_residual, relation_matrix,
                        section_basis, tangent_rep, theta_jet,
                        verify_factorization, verify_presentation)
from hessecubic import bundles, cli
from hessecubic.bundles import _finite_at, _offset_blocks, _rejection_sample, equilibrate
from hessecubic.curve import is_three_torsion
from hessecubic.poly import eval_matrix, evaluate, hesse_form
from hessecubic.theta import automorphy_factor, hesse_psi
from hessecubic.moore import moore_from_coords
from oracles import (annihilation_residual_oracle, as_array, automorphy_block_oracle,
                     automorphy_jet, equilibrate_oracle, equivalence_jacobian_oracle,
                     equivalence_residual_oracle, equivalence_solve_oracle,
                     factorization_product_oracle, jet_matrices,
                     matrix_close, moore_derivative, offcurve_triples_oracle, per_point_jet,
                     presentation_oracle, random_poly_matrix, section_components_oracle,
                     theta_vector, transport_residual_oracle, zeros)

A_Z = 0.3


@pytest.fixture(scope="module")
def spec1(ctx_i):
    return UlrichSpec(k=1, ctx=ctx_i, a_z=A_Z)


@pytest.fixture(scope="module")
def spec2(ctx_i):
    return UlrichSpec(k=2, ctx=ctx_i, a_z=A_Z)


@pytest.fixture(scope="module")
def on_samples(ctx_i):
    return curve_sample_points(ctx_i, 10, 42)


@pytest.fixture(scope="module")
def off_samples(psi_i):
    return offcurve_sample_triples(psi_i, 10, 43)


def _block(m: PolyMatrix, i: int, j: int) -> PolyMatrix:
    return PolyMatrix(m.coeffs[3 * i:3 * i + 3, 3 * j:3 * j + 3])


# -- construction shape -----------------------------------------------------

def test_analytic_k0_is_moore_pair(ctx_i):
    a, b = build_analytic(UlrichSpec(k=0, ctx=ctx_i, a_z=A_Z))
    assert matrix_close(a, moore_derivative(A_Z, ctx_i, 0), tol=1e-15)
    assert matrix_close(b, jet_matrices(l_derivative(A_Z, ctx_i, 0))[0], tol=1e-15)


def test_analytic_k1_block_layout(ctx_i, spec1):
    a, b = build_analytic(spec1)
    assert a.rows == a.cols == 6
    m0 = moore_derivative(A_Z, ctx_i, 0)
    m1 = moore_derivative(A_Z, ctx_i, 1)
    assert matrix_close(_block(a, 0, 0), m0, tol=1e-15)
    assert matrix_close(_block(a, 0, 1), m1, tol=1e-15)
    assert matrix_close(_block(a, 1, 1), m0, tol=1e-15)
    assert _block(a, 1, 0).coefficient_norm() == 0.0
    assert a.degree == 1 and b.degree == 2


def test_analytic_k2_binomials(ctx_i, spec2):
    a, _ = build_analytic(spec2)
    m1 = moore_derivative(A_Z, ctx_i, 1)
    m2 = moore_derivative(A_Z, ctx_i, 2)
    assert matrix_close(_block(a, 0, 1), m1.scale(2.0), tol=1e-15)
    assert matrix_close(_block(a, 0, 2), m2, tol=1e-15)
    assert matrix_close(_block(a, 1, 2), m1, tol=1e-15)


# -- factorization ----------------------------------------------------------

def test_factorization_k1(psi_i, spec1):
    a, b = build_analytic(spec1)
    (reports,) = verify_factorization(a, b, psi_i)
    assert [r.name for r in reports] == ["factorization.AB", "factorization.BA"]
    assert all(r.passed and r.tol == 1e-8 for r in reports)


def test_factorization_k3(ctx_i, psi_i):
    a, b = build_analytic(UlrichSpec(k=3, ctx=ctx_i, a_z=A_Z))
    orders = verify_factorization(a, b, psi_i)
    assert [[r.inputs["size"] for r in pair] for pair in orders] == [[6, 6], [9, 9], [12, 12]]
    assert all(r.residual < 1e-7 for pair in orders for r in pair)


def test_factorization_three_configurations():
    from hessecubic import ThetaContext, hesse_psi
    configs = ((1j, 0.3), (0.2 + 1.3j, 0.23 + 0.05j), (0.3 + 1.1j, -0.17 + 0.11j))
    for tau, a_z in configs:
        ctx = ThetaContext(tau=tau)
        psi = hesse_psi(ctx)
        for k in (1, 4):
            a, b = build_analytic(UlrichSpec(k=k, ctx=ctx, a_z=a_z))
            assert all(r.residual < 1e-7 for pair in verify_factorization(a, b, psi)
                       for r in pair)


def test_factorization_detects_zeroed_block(psi_i, spec1):
    a, b = build_analytic(spec1)
    a.coeffs[:3, 3:6] = 0.0
    (reports,) = verify_factorization(a, b, psi_i)
    assert max(r.residual for r in reports) > 1e-3
    assert not all(r.passed for r in reports)


# tau x a where the gate's power is pinned: a = 0.3, a point 1e-4 from the
# 3-torsion point 1/3 (where L carries 1/theta_0(a) ~ 1e4), and one more tau
_POWER_CONFIGS = [(tau, a_z) for tau in (1j, 0.2 + 1.3j, -0.31 + 1.12j)
                  for a_z in (0.3, 1 / 3 + 1e-4j)] + [(1.9j, 0.334)]


def _factorization_residual(a, b, psi) -> float:
    return max(r.residual for r in verify_factorization(a, b, psi)[-1])


def _scaled_block(m: PolyMatrix, i: int, j: int) -> PolyMatrix:
    mutated = PolyMatrix(m.coeffs.copy())
    mutated.coeffs[3 * i:3 * i + 3, 3 * j:3 * j + 3] *= 1 + 1e-4
    return mutated


@pytest.mark.parametrize("tau, a_z", _POWER_CONFIGS)
def test_factorization_gate_catches_perturbed_psi_at_every_k(tau, a_z):
    # every order of every build fails, at its tolerance: 1e-8 at k = 1, 1e-7 above
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    for k in range(1, 9):
        a, b = build_analytic(UlrichSpec(k=k, ctx=ctx, a_z=a_z))
        assert _factorization_residual(a, b, psi) <= 1e-12, k
        assert not any(r.passed for pair in verify_factorization(a, b, psi + 1e-3)
                       for r in pair), k


@pytest.mark.parametrize("tau, a_z", _POWER_CONFIGS)
def test_factorization_gate_sees_a_scaled_diagonal_block_at_every_k(tau, a_z):
    # the pattern defect reads the scaling itself, 1e-4 / (1 + 1e-4), also within
    # 1e-4 of 1/3, where the terms of (M*L)_ii reach 1e3 |w| before they cancel and
    # the whole product read only 9.5e-8
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    first = None
    for k in range(1, 9):
        a, b = build_analytic(UlrichSpec(k=k, ctx=ctx, a_z=a_z))
        tol = 1e-8 if k == 1 else 1e-7
        for block in sorted({0, 1, k}):
            residual = _factorization_residual(_scaled_block(a, block, block), b, psi)
            first = first or residual
            # the residual does not fade as k grows
            assert residual >= 0.9 * first, (k, block)
            assert residual > tol, (k, block)


def test_factorization_gate_is_the_entrywise_backward_error():
    # the series reading against the entrywise backward error of the whole products
    # A*B and B*A (the oracle): on clean builds the two agree to rounding; under each
    # --mutate kind and a 1 + 1e-4 scaling of any one block of A or B, every order
    # the mutation reaches reads at least 0.9 of the oracle, and no record that the
    # oracle fails passes
    for tau in (1j, 0.2 + 1.3j, -0.31 + 1.12j):
        ctx = ThetaContext(tau=tau)
        psi = hesse_psi(ctx)
        for a_z in (0.3, 1 / 3 + 1e-4j, 0.17 + 0.11j):
            for k in range(1, 9):
                a, b = build_analytic(UlrichSpec(k=k, ctx=ctx, a_z=a_z))
                tol = np.where(np.arange(1, k + 1) == 1, 1e-8, 1e-7)[:, None]
                clean = _readings(a, b, psi) / factorization_product_oracle(a, b, psi)
                assert np.all((clean >= 0.85) & (clean <= 1.2)), (tau, a_z, k)
                cases = [(cli._mutate_analytic(a, "zero-block"), b, psi),
                         (a, b, psi + 1e-3)]
                cases += [(cli._mutate_analytic(a, "drop-binomial"), b, psi)] if k >= 2 else []
                cases += [pair for i, j in zip(*np.triu_indices(k + 1))
                          for pair in ((_scaled_block(a, i, j), b, psi),
                                       (a, _scaled_block(b, i, j), psi))]
                for x, y, p in cases:
                    new, old = _readings(x, y, p), factorization_product_oracle(x, y, p)
                    floor = np.where(old > 1e-12, 0.9, 0.85)  # rounding only where unreached
                    assert np.all(new >= floor * old), (tau, a_z, k)
                    assert not np.any((old >= tol) & (new < tol)), (tau, a_z, k)


def _readings(a: PolyMatrix, b: PolyMatrix, psi: complex) -> np.ndarray:
    return np.array([[r.residual for r in pair] for pair in verify_factorization(a, b, psi)])


@pytest.mark.parametrize("tau, a_z", _POWER_CONFIGS)
def test_every_order_reads_the_corner_of_one_product(tau, a_z):
    # each order's records match those of its own build to rounding: the top-order
    # kernel's matmul sums over a longer inner dimension; the top order's are equal
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    orders = verify_factorization(*build_analytic(UlrichSpec(k=8, ctx=ctx, a_z=a_z)), psi)
    for k, pair in enumerate(orders, 1):
        alone = verify_factorization(*build_analytic(UlrichSpec(k=k, ctx=ctx, a_z=a_z)), psi)[-1]
        assert [(r.name, r.tol, r.inputs) for r in pair] == [(r.name, r.tol, r.inputs)
                                                             for r in alone]
        for got, want in zip(pair, alone):
            assert abs(got.residual - want.residual) <= 1e-15, (k, got.name)
            if k == 8:
                assert got.residual == want.residual
    assert len(orders) == 8


def test_factorization_shape_guard(psi_i, spec1):
    a, b = build_analytic(spec1)
    with pytest.raises(SizeMismatch):
        verify_factorization(a, zeros(3, 3, 2), psi_i)


# -- algebraic construction and calibration ---------------------------------

def test_algebraic_k0_is_moore(ctx_i):
    a = build_algebraic(embed(A_Z, ctx_i), 0)
    assert matrix_close(a, moore_from_coords(embed(A_Z, ctx_i).coords), tol=1e-12)


def test_algebraic_k1_block_layout(ctx_i, spec1):
    lambdas, _ = calibrate_by_order(spec1, [1])
    base = embed(A_Z, ctx_i)
    a = build_algebraic(base, 1, lambdas)
    m_base = moore_from_coords(base.coords)
    m_next = moore_from_coords(doubling_orbit(base, 1)[1].coords)
    assert matrix_close(_block(a, 0, 0), m_base, tol=1e-12)
    assert matrix_close(_block(a, 1, 1), m_base, tol=1e-12)
    assert matrix_close(_block(a, 0, 1), m_next.scale(lambdas[0]), tol=1e-12)


def test_algebraic_k2_offset_two_block(ctx_i, spec2):
    lambdas, _ = calibrate_by_order(spec2, [2])
    a = build_algebraic(embed(A_Z, ctx_i), 2, lambdas)
    orbit = doubling_orbit(embed(A_Z, ctx_i), 2)
    pt2 = orbit[2]
    expected = moore_from_coords(pt2.coords).scale(lambdas[1] * math.comb(2, 2))
    assert matrix_close(_block(a, 0, 2), expected, tol=1e-10)
    expected01 = moore_from_coords(orbit[1].coords)
    assert matrix_close(_block(a, 0, 1), expected01.scale(2 * lambdas[0]), tol=1e-10)


def test_algebraic_rejects_torsion_orbit(ctx_i):
    with pytest.raises(DenominatorZero):
        build_algebraic(embed(1.0 / 3.0, ctx_i), 1)


def test_calibration_rejects_orbit_through_torsion(ctx_i):
    # (-2)^2 * 0.25 = 1, the origin: the doubling orbit leaves the good locus
    spec = UlrichSpec(k=2, ctx=ctx_i, a_z=0.25)
    with pytest.raises(DenominatorZero) as err:
        calibrate_by_order(spec, [spec.k])
    assert err.value.iteration == 2


def test_calibration_names_the_overflowing_jet_order(ctx_i):
    # at Im a = 8.41 the theta values fit in a double, their 9th derivatives
    # not (8.4i itself is 5-torsion: (-2)^4 a = a, a DegenerateOrbit)
    with pytest.raises(CalibrationFailed, match="overflow at offset l = 9$"):
        calibrate_by_order(UlrichSpec(k=9, ctx=ctx_i, a_z=8.41j), [9])


def test_finite_at_maps_series_overflow_to_the_offset(ctx_i):
    with pytest.raises(CalibrationFailed, match="overflow at offset l = 3$"):
        _finite_at(3, lambda: theta_jet(0.1 + 40j, ctx_i))


def test_calibration_converges_at_k4(ctx_i):
    _, (reports,) = calibrate_by_order(UlrichSpec(k=4, ctx=ctx_i, a_z=A_Z), [4])
    assert all(r.passed for r in reports)


def _calibration_inputs(ctx, a_z, k):
    """Jets and tangent iterates as calibrate_by_order forms them, and the loop solver's start."""
    jets = theta_jet(a_z, ctx, k)
    reps = [jets[0]]
    for _ in range(k):
        reps.append(tangent_rep(reps[-1]))
    _, c, _ = elimination_fit(theta_jet(a_z, ctx, 1))
    chain = np.array([c ** d * (-2.0) ** (d * (d - 1) // 2) for d in range(1, k + 1)])
    return list(jets), reps, chain


@pytest.mark.parametrize("k", range(1, 9))
def test_block_residual_and_jacobian_match_loop_oracle(ctx_i, k):
    rng = np.random.default_rng(k)
    jets, reps, _ = _calibration_inputs(ctx_i, 0.301 + 0.05j, k)

    def unit_upper():
        return np.eye(k + 1) + np.triu(rng.normal(size=(k + 1, k + 1))
                                       + 1j * rng.normal(size=(k + 1, k + 1)), 1)

    u, w = unit_upper(), unit_upper()
    lam = np.concatenate([[1.0 + 0j], rng.normal(size=k) + 1j * rng.normal(size=k)])
    residual, jac = bundles._equivalence_system(bundles._offset_blocks(jets),
                                                bundles._offset_blocks(reps), u, w, lam)
    expected = equivalence_residual_oracle(jets, reps, u, w, lam)
    assert residual.shape == expected.shape
    assert np.linalg.norm(residual - expected) <= 1e-12 * np.linalg.norm(expected)
    got, expected = jac, equivalence_jacobian_oracle(jets, reps, u, w)
    assert got.shape == expected.shape
    assert np.array_equal(got == 0, expected == 0)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("k", range(1, 6))
def test_block_solve_matches_loop_solver(ctx_i, k):
    jets, reps, chain = _calibration_inputs(ctx_i, 0.301 + 0.05j, k)
    lam, [(residual, *_)] = bundles._equivalence_solve(jets, reps, [k])
    lam_oracle, residual_oracle = equivalence_solve_oracle(jets, reps, chain)
    assert residual < 1e-8 and residual_oracle < 1e-8
    assert np.max(np.abs(lam - lam_oracle) / np.abs(lam_oracle)) <= 1e-10


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j])
def test_row_solves_reproduce_the_lower_order_solves(tau):
    # the bottom-right corner of the order-k system is the order-k' system
    ctx = ThetaContext(tau=tau)
    lam_k, _ = calibrate_by_order(UlrichSpec(k=7, ctx=ctx, a_z=0.3 + 0.05j), [7])
    for k_low in range(1, 7):
        lam_low, _ = calibrate_by_order(UlrichSpec(k=k_low, ctx=ctx, a_z=0.3 + 0.05j), [k_low])
        assert np.allclose(lam_k[:k_low], lam_low, rtol=1e-10, atol=0)


@pytest.mark.parametrize("k, r", [(1, 0), (4, 1), (6, 0), (6, 4)])
def test_row_solve_sees_only_the_sum_of_its_last_unknowns(ctx_i, k, r):
    # u_{r,k} and w_{r,k} enter block row r only in block (r, k), both with
    # A[k, k] = jets[0]: the row's residual moves along their sum alone, so
    # the solve pins w_{r,k} = 0
    rng = np.random.default_rng(k + r)
    jets, reps, _ = _calibration_inputs(ctx_i, 0.301 + 0.05j, k)
    a, t = bundles._offset_blocks(jets), bundles._offset_blocks(reps)
    u = np.eye(k + 1) + np.triu(rng.normal(size=(k + 1, k + 1)), 1)
    w = np.eye(k + 1) + np.triu(rng.normal(size=(k + 1, k + 1)), 1)
    lam = np.concatenate([[1.0], rng.normal(size=k)]).astype(complex)
    row = np.repeat(bundles._triu(k + 1)[0] == r, 3)

    def row_residual(du, dw):
        u2, w2 = u.copy(), w.copy()
        u2[r, k] += du
        w2[r, k] += dw
        return bundles._equivalence_system(a, t, u2, w2, lam)[0][row]

    base = row_residual(0.0, 0.0)
    assert np.allclose(row_residual(0.7, -0.7), base, rtol=1e-12, atol=1e-12 * np.abs(base).max())
    assert not np.allclose(row_residual(0.7, 0.0), base, rtol=1e-6)


@pytest.mark.parametrize("tau, a_z", [(-0.40080 + 1.98830j, 0.42615 + 0.01607j),
                                      (-0.41910 + 1.33115j, 0.31119 + 0.07261j)])
def test_gauge_pinned_k8_calibration_is_a_presentation(tau, a_z):
    # the row solves with both last unknowns free read 8.4e6 and 5.2e7 here
    ctx = ThetaContext(tau=tau)
    lambdas, (reports,) = calibrate_by_order(UlrichSpec(k=8, ctx=ctx, a_z=a_z), [8])
    assert all(r.passed for r in reports), [r.to_dict() for r in reports]
    psi = hesse_psi(ctx)
    a = build_algebraic(embed(a_z, ctx), 8, lambdas)
    (checks,) = verify_presentation([a], psi, curve_sample_points(ctx, 10, 42),
                                    offcurve_sample_triples(psi, 10, 43))[-1]
    assert all(r.passed for r in checks), [r.to_dict() for r in checks]


def test_equivalence_record_carries_the_row_conditioning(ctx_i):
    _, (reports,) = calibrate_by_order(UlrichSpec(k=4, ctx=ctx_i, a_z=0.301), [4])
    inputs = next(r for r in reports if r.name == "calibration.equivalence").inputs
    assert 0 < inputs["row_sigma"] < 1
    # the rounding floor of a passing solve lies under the tolerance
    assert 0 < inputs["floor"] < 1e-8


def test_calibration_survives_an_lstsq_failure_at_the_rounding_floor():
    # Gauss-Newton from the elimination chain stalled at ~1e-12 here, and
    # LAPACK's SVD failed on the Jacobian of a later iterate
    spec = UlrichSpec(k=5, ctx=ThetaContext(tau=0.34161358082023807 + 0.982635655079061j),
                      a_z=0.4149917991988276 - 0.12876540806486045j)
    _, (reports,) = calibrate_by_order(spec, [spec.k])
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("k", [4, 6])
def test_a_failed_polish_step_keeps_the_current_iterate(monkeypatch, ctx_i, k):
    # every least-squares solve of the polish fails, as LAPACK's SVD can: the
    # calibration is then that of the row solves alone, judged as it is
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=0.301)
    with monkeypatch.context() as patch:
        patch.setattr(bundles, "_POLISH_STEPS", 0)
        lambdas, (reports,) = calibrate_by_order(spec, [spec.k])
    lstsq, failed = np.linalg.lstsq, []

    def failing(lhs, rhs, rcond=None):
        # the polish system has a row per component of every block on or above the diagonal
        if len(lhs) == 3 * (k + 1) * (k + 2) // 2:
            failed.append(lhs.shape)
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        return lstsq(lhs, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", failing)
    kept, (kept_reports,) = calibrate_by_order(spec, [spec.k])
    assert len(failed) == 1
    assert kept == lambdas
    assert [r.to_dict() for r in kept_reports] == [r.to_dict() for r in reports]
    assert all(r.passed for r in reports)


def test_calibration_failure_names_the_worst_record(ctx_i):
    # 1e-6 from the 5-torsion point 0.2, whose orbit collides at m = 4: no
    # exact collision, but the orbit blocks nearly coincide
    with pytest.raises(CalibrationFailed) as info:
        calibrate_by_order(UlrichSpec(k=5, ctx=ctx_i, a_z=0.2 + 1e-6), [5])
    match = re.fullmatch(r"calibration residuals exceed tolerance "
                         r"\(worst (\S+)x: (calibration\.\w+) (\S+); "
                         r"row solve sigma/sigma_0 (\S+); rounding floor (\S+)\); "
                         r"nearest orbit collision \(l = 0, m = 4\) (\S+) away modulo the lattice",
                         str(info.value))
    assert match is not None
    tols = {"calibration.fit": 1e-6, "calibration.equivalence": 1e-8,
            "calibration.representative": 1e-8, "calibration.c_constancy": 1e-6,
            "calibration.block01": 1e-6}
    ratio, name, residual = float(match[1]), match[2], float(match[3])
    assert ratio == pytest.approx(residual / tols[name], rel=1e-3)
    assert ratio > 1.0
    assert 0 <= float(match[4]) < 1
    assert float(match[5]) > 0
    assert float(match[6]) == pytest.approx(1.5e-5, rel=1e-6)  # 15 * 1e-6


@pytest.mark.parametrize("a_z, k, l, m, gap", [(0.2 + 1e-6, 5, 0, 4, 15e-6),
                                               (0.3 + 1e-6, 6, 1, 5, 30e-6)])
def test_calibration_failure_names_the_nearest_orbit_collision(ctx_i, a_z, k, l, m, gap):
    # (-2)^m a - (-2)^l a = ((-2)^m - (-2)^l) a is a lattice point plus
    # ((-2)^m - (-2)^l) * 1e-6: 15 * 1e-6 at 0.2 (m = 4), -30 * 1e-6 at 0.3 (m = 5)
    with pytest.raises(CalibrationFailed) as info:
        calibrate_by_order(UlrichSpec(k=k, ctx=ctx_i, a_z=a_z), [k])
    message = str(info.value)
    assert message.startswith("calibration residuals exceed ")
    fact = re.search(r"; nearest orbit collision \(l = (\d), m = (\d)\) (\S+) away "
                     r"modulo the lattice$", message)
    assert fact is not None, message
    assert (int(fact[1]), int(fact[2])) == (l, m)
    assert float(fact[3]) == pytest.approx(gap, rel=1e-6)


def test_orbit_gaps_measure_the_distance_to_a_collision(ctx_i):
    # 0.3 + 1e-5 still calibrates at k = 6; its nearest collision is m = 5, l = 1
    gaps = bundles._orbit_gaps(0.3 + 1e-5, ctx_i.tau, 6)
    assert [(l, m) for _, l, m in gaps] == [(l, m) for m in range(3, 7) for l in (0, 1)]
    assert min(gaps)[1:] == (1, 5)
    assert min(gaps)[0] == pytest.approx(30e-5, rel=1e-6)
    _, (reports,) = calibrate_by_order(UlrichSpec(k=6, ctx=ctx_i, a_z=0.3 + 1e-5), [6])
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("a_z, l, m", [(0.2, 0, 4), (0.3, 1, 5), (1 / 7, 0, 6)])
def test_orbit_collision_is_a_named_error(ctx_i, a_z, l, m):
    # ((-2)^m - (-2)^l) a lies in the lattice: (-2)^m a = (-2)^l a on the curve
    assert abs(bundles._lattice_reduced(((-2) ** m - (-2) ** l) * a_z, ctx_i.tau)) < 1e-12
    for k in range(m, 9):
        with pytest.raises(DegenerateOrbit, match=f"l = {l}, m = {m}") as info:
            calibrate_by_order(UlrichSpec(k=k, ctx=ctx_i, a_z=a_z), [k])
        assert (info.value.l, info.value.m) == (l, m)


def test_orbit_collision_is_found_before_any_theta_work(ctx_i, monkeypatch):
    def no_theta(*args, **kwargs):
        raise AssertionError("theta evaluated")

    monkeypatch.setattr(bundles, "embed", no_theta)
    monkeypatch.setattr(bundles, "theta_jet", no_theta)
    with pytest.raises(DegenerateOrbit):
        calibrate_by_order(UlrichSpec(k=5, ctx=ctx_i, a_z=0.3), [5])


@pytest.mark.parametrize("a_z, ks, multiple", [
    (1 / 7, range(3, 6), -7),       # (-2)^3 a = -a
    (0.2, range(2, 4), 5),          # (-2)^2 a = -a
    (0.3 + 0.05j, [6], 60),         # (-2)^6 a = (-2)^2 a, two later points
])
def test_harmless_orbit_collisions_calibrate(ctx_i, a_z, ks, multiple):
    assert abs(bundles._lattice_reduced(multiple * a_z, ctx_i.tau)) < 1e-12
    for k in ks:
        _, (reports,) = calibrate_by_order(UlrichSpec(k=k, ctx=ctx_i, a_z=a_z), [k])
        assert all(r.passed for r in reports)


@pytest.mark.parametrize("a_z, k", [(0.301, 5), (0.301, 6), (0.3 + 0.05j, 7)])
def test_high_k_calibration_is_a_presentation(ctx_i, psi_i, on_samples, off_samples, a_z, k):
    lambdas, (reports,) = calibrate_by_order(UlrichSpec(k=k, ctx=ctx_i, a_z=a_z), [k])
    assert all(r.passed for r in reports)
    a = build_algebraic(embed(a_z, ctx_i), k, lambdas)
    (checks,) = verify_presentation([a], psi_i, on_samples, off_samples)[-1]
    assert all(r.passed for r in checks), [r.to_dict() for r in checks]


@settings(max_examples=40, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15), k=st.integers(1, 8))
def test_calibration_passes_or_names_its_failure(re_tau, lift, re_a, im_a, k):
    # tau and a over the benchmark's domain; LAPACK errors must not escape
    floor = math.sqrt(1.0 - re_tau ** 2)
    ctx = ThetaContext(tau=complex(re_tau, floor + lift * (2.0 - floor)))
    try:
        _, (reports,) = calibrate_by_order(UlrichSpec(k=k, ctx=ctx, a_z=complex(re_a, im_a)), [k])
    except HesseCubicError:
        return
    assert all(r.passed for r in reports)


def _calibration_outcome(spec: UlrichSpec, orders):
    try:
        return calibrate_by_order(spec, orders)
    except HesseCubicError as exc:
        return exc


@pytest.mark.parametrize("orders", [[0], [4], [1, 2, 5]])
def test_calibration_orders_lie_inside_the_solve(ctx_i, orders):
    with pytest.raises(ValueError, match="orders must lie in 1..3"):
        calibrate_by_order(UlrichSpec(k=3, ctx=ctx_i, a_z=A_Z), orders)


@settings(max_examples=30, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15), k=st.integers(1, 8))
def test_every_order_is_the_corner_of_one_build(re_tau, lift, re_a, im_a, k):
    # tau and a over the benchmark's domain: each order k' < k is read from the
    # order-k build and calibration instead of being built and solved alone
    floor = math.sqrt(1.0 - re_tau ** 2)
    ctx = ThetaContext(tau=complex(re_tau, floor + lift * (2.0 - floor)))
    a_z = complex(re_a, im_a)
    spec = UlrichSpec(k=k, ctx=ctx, a_z=a_z)
    try:
        a, b = build_analytic(spec)
    except DenominatorZero:  # a in E[3]: no order builds
        with pytest.raises(DenominatorZero):
            build_analytic(UlrichSpec(k=0, ctx=ctx, a_z=a_z))
        return
    for low in range(k):
        a_low, b_low = build_analytic(UlrichSpec(k=low, ctx=ctx, a_z=a_z))
        start = 3 * (k - low)
        assert np.array_equal(a.coeffs[start:, start:], a_low.coeffs), low
        assert np.array_equal(b.coeffs[start:, start:], b_low.coeffs), low

    whole = _calibration_outcome(spec, range(1, k + 1))
    alone = [_calibration_outcome(UlrichSpec(k=n, ctx=ctx, a_z=a_z), [n])
             for n in range(1, k + 1)]
    if isinstance(whole, HesseCubicError):
        # some order fails on its own too, with the same named error
        assert any(type(one) is type(whole) for one in alone), (whole, alone)
        return
    lambdas, by_order = whole
    for n, one in zip(range(1, k + 1), alone):
        assert not isinstance(one, HesseCubicError), (n, one)
        lambdas_n, (reports,) = one
        assert [(r.name, r.passed) for r in by_order[n - 1]] == [(r.name, r.passed)
                                                                 for r in reports]
        assert by_order[n - 1][1].inputs["k"] == n
        assert np.allclose(lambdas[:n], lambdas_n, rtol=1e-10, atol=0)


@pytest.mark.parametrize("l", range(9))
def test_lattice_reduction_is_a_translate_into_the_parallelogram(ctx_c, l):
    tau = ctx_c.tau
    z = (-2) ** l * (0.41 - 0.08j)
    reduced = bundles._lattice_reduced(z, tau)
    n = (z - reduced).imag / tau.imag
    m = (z - reduced - round(n) * tau).real
    assert abs(n - round(n)) < 1e-9 and abs(m - round(m)) < 1e-9
    assert abs(reduced.imag) <= tau.imag / 2 + 1e-12
    assert abs(reduced.real) <= 0.5


@settings(max_examples=60, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15),
       m=st.integers(-2, 2), n=st.integers(-2, 2))
def test_elimination_scalar_is_lattice_invariant(re_tau, lift, re_a, im_a, m, n):
    # tau and a over the benchmark's domain; a = 1/3 is the one E[3] point in it
    floor = math.sqrt(1.0 - re_tau ** 2)
    ctx = ThetaContext(tau=complex(re_tau, floor + lift * (2.0 - floor)))
    a_z = complex(re_a, im_a)
    assume(abs(a_z - 1.0 / 3.0) > 1e-3)
    _, c, _ = elimination_fit(theta_jet(a_z, ctx, 1))
    _, c_moved, _ = elimination_fit(theta_jet(a_z + m + n * ctx.tau, ctx, 1))
    assert abs(c_moved - c) <= 1e-10 * abs(c)


def test_presentation_complex_tau_k3(ctx_c, psi_c):
    spec = UlrichSpec(k=3, ctx=ctx_c, a_z=0.23 + 0.05j)
    lambdas, _ = calibrate_by_order(spec, [spec.k])
    on = curve_sample_points(ctx_c, 10, 42)
    off = offcurve_sample_triples(psi_c, 10, 43)
    (reports,) = verify_presentation([build_algebraic(embed(spec.a_z, ctx_c), 3, lambdas)],
                                     psi_c, on, off)[-1]
    assert all(r.passed for r in reports)


def test_calibration_lambda1_oracle(ctx_i, spec1):
    # independent least squares: lambda1 minimizes || (M'-sM)/nu0 - x*M_P1 ||
    lambdas, (reports,) = calibrate_by_order(spec1, [1])
    s, c, _ = elimination_fit(theta_jet(A_Z, ctx_i, 1))
    vec = np.array(theta_vector(A_Z, ctx_i))
    base = embed(A_Z, ctx_i)
    nu0 = complex(np.vdot(as_array(base), vec) / np.vdot(as_array(base), as_array(base)))
    target = (moore_derivative(A_Z, ctx_i, 1)
              - moore_derivative(A_Z, ctx_i, 0).scale(s)).scale(1.0 / nu0)
    basis = moore_from_coords(doubling_orbit(base, 1)[1].coords)
    fit = np.vdot(basis.coeffs, target.coeffs) / basis.coefficient_norm() ** 2
    assert abs(lambdas[0] - fit) < 1e-8 * abs(lambdas[0])
    assert all(r.passed for r in reports)


def test_calibration_chain_values(ctx_i, spec2):
    # lambda_1 and lambda_2 follow the iterated elimination chain c, -2c^2
    lambdas, _ = calibrate_by_order(spec2, [2])
    _, c, _ = elimination_fit(theta_jet(A_Z, ctx_i, 1))
    vec = np.array(theta_vector(A_Z, ctx_i))
    base = embed(A_Z, ctx_i)
    nu0 = complex(np.vdot(as_array(base), vec) / np.vdot(as_array(base), as_array(base)))
    rep = tangent_rep(vec)
    for l, mu in ((1, c), (2, -2 * c ** 2)):
        point = as_array(doubling_orbit(base, l)[l])
        nu = complex(np.vdot(point, rep) / np.vdot(point, point))
        assert abs(lambdas[l - 1] - mu * nu / nu0) < 1e-7 * abs(lambdas[l - 1])
        if l < 2:
            rep = tangent_rep(rep)


def test_zeroed_lambda1_breaks_block_agreement(ctx_i, psi_i, spec1, on_samples, off_samples):
    # det and corank cannot see lambda1 = 0 (the decoupled matrix presents a
    # decomposable bundle); the block-agreement check is what catches it
    lambdas, _ = calibrate_by_order(spec1, [1])
    base = embed(A_Z, ctx_i)
    mutated = build_algebraic(base, 1, [0.0 + 0.0j])
    for rep in verify_presentation([mutated], psi_i, on_samples, off_samples)[-1][0]:
        assert rep.passed
    good = build_algebraic(base, 1, lambdas)
    diff = (_block(good, 0, 1) - _block(mutated, 0, 1)).coefficient_norm()
    assert diff > 1e-2 * good.coefficient_norm()


def test_wrong_lambda2_breaks_corank(ctx_i, psi_i, spec2, on_samples, off_samples):
    lambdas, _ = calibrate_by_order(spec2, [2])
    mutated = build_algebraic(embed(A_Z, ctx_i), 2, [lambdas[0], lambdas[1] * 1.05])
    reports = {r.name: r for r in verify_presentation([mutated], psi_i,
                                                      on_samples, off_samples)[-1][0]}
    assert not reports["presentation.corank_on_curve"].passed


# -- presentation law --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_presentation_both_constructions(ctx_i, psi_i, on_samples, off_samples, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    a_an, _ = build_analytic(spec)
    lambdas, _ = calibrate_by_order(spec, [spec.k])
    a_alg = build_algebraic(embed(A_Z, ctx_i), k, lambdas)
    for reports in verify_presentation([a_an, a_alg], psi_i, on_samples, off_samples)[-1]:
        assert all(r.passed for r in reports), [r.to_dict() for r in reports]


def test_presentation_rejects_generic_matrix(psi_i, on_samples, off_samples):
    rng = np.random.default_rng(55)
    (reports,) = verify_presentation([random_poly_matrix(rng, 6, 6, 1)], psi_i,
                                     on_samples, off_samples)[-1]
    named = {r.name: r for r in reports}
    assert not named["presentation.det"].passed
    assert not named["presentation.corank_on_curve"].passed


def test_det_scalar_value_k1(ctx_i, psi_i, spec1, on_samples, off_samples):
    # det A = c * w^2 with c = det(M_0 jet)^2 / w^2 = (th0 th1 th2)(a)^2
    a, _ = build_analytic(spec1)
    named = {r.name: r
             for r in verify_presentation([a], psi_i, on_samples, off_samples)[-1][0]}
    th = theta_vector(A_Z, ctx_i)
    expected = (th[0] * th[1] * th[2]) ** 2
    assert named["presentation.det"].residual < 1e-7
    assert abs(named["presentation.det"].inputs["scalar"] - expected) < 1e-10 * abs(expected)


def _diagonal_mutations(matrix: PolyMatrix, k: int) -> list[PolyMatrix]:
    """One coefficient of a diagonal block scaled by 1 + 1e-4, at three entries of each block."""
    out = []
    for i in range(k + 1):
        for r, c in ((0, 0), (1, 2), (2, 1)):
            mutated = PolyMatrix(matrix.coeffs.copy())
            entry = mutated.coeffs[3 * i + r, 3 * i + c]
            entry[np.flatnonzero(entry)[0]] *= 1 + 1e-4
            out.append(mutated)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_det_gate_catches_perturbed_diagonal_block(ctx_i, psi_i, on_samples, off_samples, k):
    # scaling one coefficient of a diagonal block by 1 + 1e-4 breaks the equal
    # diagonal; in block (0, 0), the block det and rank are read from, it also
    # breaks det D = c * w
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    lambdas, _ = calibrate_by_order(spec, [spec.k])
    mutations = [(i, r, c) for i in range(k + 1) for r, c in ((0, 0), (1, 2), (2, 1))]
    for matrix in (build_analytic(spec)[0], build_algebraic(embed(A_Z, ctx_i), k, lambdas)):
        stack = [matrix] + _diagonal_mutations(matrix, k)
        # the intact matrix and every mutation judged in one stacked call
        intact, *mutated = verify_presentation(stack, psi_i, on_samples, off_samples)[-1]
        assert all(r.passed for r in intact), [r.to_dict() for r in intact]
        for where, reports in zip(mutations, mutated):
            named = {r.name: r for r in reports}
            assert not named["presentation.structure"].passed, where
            assert where[0] > 0 or not named["presentation.det"].passed, where


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.129 + 1.161j])
def test_structure_gate_catches_every_block_mutation(tau):
    # scaling all of block (0, 0) only scales det A and keeps its rank, so
    # det and rank alone cannot see it; the exact block structure does
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    a_z = 0.3 + 0.05j
    lambdas, _ = calibrate_by_order(UlrichSpec(k=8, ctx=ctx, a_z=a_z), [8])
    on, off = curve_sample_points(ctx, 10, 42), offcurve_sample_triples(psi, 10, 43)

    def below(m):
        m.coeffs[-3, 0, 0] = 1e-300

    def scale_block(i):
        def mutate(m):
            m.coeffs[3 * i:3 * i + 3, 3 * i:3 * i + 3] *= 1 + 1e-6
        return mutate

    mutations = {"below": below, "block 1": scale_block(1), "block 0": scale_block(0)}
    for k in range(1, 9):
        spec = UlrichSpec(k=k, ctx=ctx, a_z=a_z)
        for matrix in (build_analytic(spec)[0],
                       build_algebraic(embed(a_z, ctx), k, lambdas[:k])):
            stack = [matrix]
            for mutate in mutations.values():
                stack.append(PolyMatrix(matrix.coeffs.copy()))
                mutate(stack[-1])
            intact, *mutated = verify_presentation(stack, psi, on, off)[-1]
            assert all(r.passed for r in intact), (k, [r.to_dict() for r in intact])
            for what, reports in zip(mutations, mutated):
                assert not {r.name: r for r in reports}["presentation.structure"].passed, \
                    (k, what)


def test_off_curve_rank_reads_the_diagonal_block():
    # the whole 57-square A reads sigma_min/sigma_max under 1e-7 at one of the
    # off-curve samples, where its diagonal block has full rank
    ctx = ThetaContext(tau=-0.129 + 1.161j)
    psi = hesse_psi(ctx)
    a, _ = build_analytic(UlrichSpec(k=8, ctx=ctx, a_z=0.295 + 0.013j))
    (reports,) = verify_presentation([a], psi, curve_sample_points(ctx, 10, 7),
                                     offcurve_sample_triples(psi, 10, 8))[-1]
    assert all(r.passed for r in reports), [r.to_dict() for r in reports]


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.31 + 1.12j])
def test_all_orders_presentation_is_the_per_order_computation(tau):
    # every order read from one stacked test of the top-order matrices gives
    # the records of the old test of that order's corners, byte for byte,
    # also where a diagonal block is perturbed
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    on, off = curve_sample_points(ctx, 10, 42), offcurve_sample_triples(psi, 10, 43)
    for top in (1, 2, 3):
        spec = UlrichSpec(k=top, ctx=ctx, a_z=A_Z)
        lambdas, _ = calibrate_by_order(spec, [spec.k])
        stack = []
        for matrix in (build_analytic(spec)[0], build_algebraic(embed(A_Z, ctx), top, lambdas)):
            stack += [matrix] + _diagonal_mutations(matrix, top)
        for k, got in enumerate(verify_presentation(stack, psi, on, off), 1):
            start = 3 * (top - k)
            corners = [PolyMatrix(m.coeffs[start:, start:]) for m in stack]
            expected = presentation_oracle(corners, psi, k, on, off)
            assert [[r.to_json() for r in reports] for reports in got] == \
                [[r.to_json() for r in reports] for reports in expected], (top, k)


def test_presentation_of_an_order_zero_stack_has_no_records(ctx_i, psi_i, on_samples,
                                                            off_samples):
    a, _ = build_analytic(UlrichSpec(k=0, ctx=ctx_i, a_z=A_Z))
    assert verify_presentation([a], psi_i, on_samples, off_samples) == []


def test_automorphy_of_order_zero_has_no_records_and_sums_nothing(ctx_i, monkeypatch):
    monkeypatch.setattr(bundles, "theta_jet", lambda *args, **kwargs: pytest.fail("summed"))
    assert automorphy_residuals(UlrichSpec(k=0, ctx=ctx_i, a_z=A_Z), 0.13 + 0.05j) == []


def test_equilibrate_is_the_pass_by_pass_scaling(ctx_i, psi_i, on_samples, off_samples):
    # the stacks the presentation and bookkeeping gates scale, and one with a
    # zero row and column
    stacks = []
    for k in (1, 2, 3):
        spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
        analytic = build_analytic(spec)[0]
        algebraic = build_algebraic(embed(A_Z, ctx_i), k, calibrate_by_order(spec, [spec.k])[0])
        for m in (analytic, algebraic):
            stacks.append(eval_matrix(m, [p.coords for p in on_samples]))
            stacks.append(eval_matrix(_block(m, 0, 0), off_samples))
        stacks.append(relation_matrix(analytic))
    rng = np.random.default_rng(3)
    sparse = rng.normal(size=(4, 7, 5)) + 1j * rng.normal(size=(4, 7, 5))
    sparse[:, 2] = 0.0
    sparse[:, :, 4] = 0.0
    stacks.append(sparse * np.logspace(-6, 6, 5))
    for n in stacks:
        got, expected = equilibrate(n), equilibrate_oracle(n)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))
        assert np.array_equal(numeric_rank(got), numeric_rank(expected))


# -- elimination fit ----------------------------------------------------------

def test_elimination_fit_residual(ctx_i):
    s, c, residual = elimination_fit(theta_jet(A_Z, ctx_i, 1))
    assert residual < 1e-8
    assert abs(c) > 1e-3


def test_elimination_scalar_constant_across_points(ctx_i):
    cs = [elimination_fit(theta_jet(az, ctx_i, 1))[1]
          for az in (0.2, 0.3, 0.41 + 0.1j)]
    for c in cs[1:]:
        assert abs(c - cs[0]) / abs(cs[0]) < 1e-6


def test_elimination_consequence_matrix_level(ctx_i):
    jet = theta_jet(A_Z, ctx_i, 1)
    assert elimination_consequence_residual(jet, *elimination_fit(jet)[:2]) < 1e-7


def test_elimination_rejects_torsion(ctx_i):
    with pytest.raises(DenominatorZero):
        elimination_fit(theta_jet(1.0 / 3.0, ctx_i, 1))


def test_elimination_next_to_torsion_is_ill_conditioned(ctx_i):
    # 1e-9 from the origin theta(a) and V(a) are parallel to 1e-10, while the
    # smallest coordinate still clears the E[3] guard of tangent_rep
    with pytest.raises(IllConditioned, match="lost rank"):
        elimination_fit(theta_jet(1e-9, ctx_i, 1))


def test_elimination_fits_from_one_sum_are_the_one_point_fits(ctx_i):
    points = [A_Z, A_Z + 0.1, A_Z - 0.07 + 0.1j, 0.2, 0.41 + 0.1j]
    fits = [elimination_fit(jet) for jet in theta_jet(np.array(points), ctx_i, 1)]
    assert fits == [elimination_fit(theta_jet(p, ctx_i, 1)) for p in points]


# -- sample points ---------------------------------------------------------------

def test_rejection_sampler_stops_after_its_draw_budget():
    chunks = []

    def draw(n):
        # draw number d scores d / 1e4, always under the cut
        first = sum(chunks)
        chunks.append(n)
        return [1] * n, np.arange(first, first + n) / 1e4

    with pytest.raises(SamplingFailed, match=r"^found 0 of 3 points in 3000 draws; "
                                             r"the largest score drawn is 2\.999e-01$"):
        _rejection_sample(draw, 1.0, 3, "points", "score")
    # each chunk as large as all before it, the last one what is left of the budget
    assert chunks == [3, 3, 6, 12, 24, 48, 96, 192, 384, 768, 1464]


def test_rejection_sampler_stops_drawing_once_complete():
    draws = iter(range(100))

    def take(n):
        items = [next(draws) for _ in range(n)]
        return items, np.array(items) % 2

    # the chunks hold 0..2 and 3..5: the third odd number ends the sampling
    assert _rejection_sample(take, 0.5, 3, "odd", "parity") == [1, 3, 5]
    assert next(draws) == 6


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, 4j])
def test_samplers_draw_the_unbounded_loop_sequence(tau):
    # the draw budget only adds an exit: the samples equal the plain loop's
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    rng = np.random.default_rng(5)
    expected = []
    while len(expected) < 10:
        p = embed(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)), ctx)
        if not is_three_torsion(p) and min(abs(v) for v in p.coords) > 1e-3:
            expected.append(p)
    assert curve_sample_points(ctx, 10, 5) == expected
    rng = np.random.default_rng(6)
    expected = []
    while len(expected) < 10:
        xs = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        if abs(evaluate(hesse_form(psi), xs)) > 1e-2:
            expected.append(xs)
    assert offcurve_sample_triples(psi, 10, 6) == expected


def test_offcurve_triples_are_the_per_triple_filter(psi_i):
    # each chunk of draws is judged by one stacked evaluation of w; about 4 in
    # 1e5 draws fall under the cut, 5 of these 100,000 at tau = i
    for seed in range(200):
        assert offcurve_sample_triples(psi_i, 500, seed) == offcurve_triples_oracle(psi_i, 500,
                                                                                   seed)


@pytest.mark.parametrize("tau, seed", [(1j, 42), (0.2 + 1.3j, 7), (-0.45 + 0.95j, 123)])
def test_curve_samples_are_the_one_point_loop_samples(tau, seed):
    # drawn one pair and embedded by one one-point sum at a time, as before chunking
    ctx = ThetaContext(tau=tau)
    rng = np.random.default_rng(seed)
    expected = []
    while len(expected) < 20:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        p = ProjectivePoint.from_coords(per_point_jet(z, ctx, 0)[0])
        if min(abs(v) for v in p.coords) > 1e-3:
            expected.append(p)
    assert curve_sample_points(ctx, 20, seed) == expected


def test_curve_sampler_fails_by_name_near_the_cusp():
    # at Im tau = 5 every sampled point has a coordinate below 1e-3, though
    # none lies near E[3]: the failure names the cut and the closest miss
    with pytest.raises(SamplingFailed, match=r"curve points with every normalized coordinate "
                                             r"above 1e-3 .* the largest smallest coordinate "
                                             r"drawn is 4\.781e-04$"):
        curve_sample_points(ThetaContext(tau=5j), 2, 0)


# -- sections and automorphy ---------------------------------------------------

def test_section_basis_k0(ctx_i):
    spec = UlrichSpec(k=0, ctx=ctx_i, a_z=A_Z)
    basis = section_basis(spec, 0.11)
    assert basis.shape == (1, 3, 1)
    vec = theta_vector(0.11 + A_Z, ctx_i)
    for i in range(3):
        assert abs(basis[0, i, 0] - vec[i]) < 1e-12


def test_section_basis_k1_shape(ctx_i, spec1):
    basis = section_basis(spec1, 0.11)
    assert basis.shape == (2, 3, 2)
    th0 = theta_vector(0.11 + A_Z, ctx_i)
    th1 = theta_vector(0.11 + A_Z, ctx_i, order=1)
    for i in range(3):
        plain = basis[0, i]
        assert abs(plain[0] - th0[i]) < 1e-12
        assert plain[1] == 0.0
        deriv = basis[1, i]
        assert abs(deriv[0] - th1[i]) < 1e-12
        assert abs(deriv[1] - th0[i]) < 1e-12


def test_section_count_and_zero_pattern(ctx_i):
    spec = UlrichSpec(k=3, ctx=ctx_i, a_z=A_Z)
    basis = section_basis(spec, 0.07)
    assert basis.shape == (4, 3, 4)
    for column in range(4):
        for r in range(column + 1, 4):
            assert np.all(basis[column, :, r] == 0.0)


def test_sections_linearly_independent(ctx_i, spec2):
    # evaluate all 9 section functions at several z: full column rank
    zs = (0.11, 0.23 + 0.09j, -0.17 + 0.13j, 0.31, 0.05 + 0.21j)
    columns = []
    for z in zs:
        columns.append(section_basis(spec2, z).reshape(9, 3).T)
    stacked = np.vstack(columns)  # (len(zs)*(k+1)) x 3(k+1)
    assert numeric_rank(equilibrate(stacked)) == 9


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_section_basis_matches_entrywise_oracle(ctx_i, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    basis = section_basis(spec, 0.11)
    expected = section_components_oracle(theta_jet(0.11 + A_Z, ctx_i, k).tolist(), k)
    assert basis.shape == (k + 1, 3, k + 1)
    assert basis.reshape(3 * (k + 1), k + 1).tolist() == expected


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_automorphy_block_matches_entrywise_oracle(ctx_i, k):
    for lam in (1.0, ctx_i.tau):
        jets = automorphy_jet(A_Z, lam, 0.11, ctx_i, k)
        assert np.array_equal(_offset_blocks(jets), automorphy_block_oracle(jets, k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_transport_residual_matches_loop_oracle(monkeypatch, ctx_i, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    z, tau = 0.13 + 0.05j, ctx_i.tau
    at = z + A_Z
    wrong = np.linspace(1.05, 1.1, k + 1)
    original = bundles.automorphy_factor

    def block(m, n, w, scale=1.0):
        return automorphy_block_oracle(original(m, n, w, tau, k) * scale, k)

    here = section_basis(spec, z)
    # (broken factor, residual it breaks, the broken lambda's block, lambda);
    # the third is the cocycle's f(1, z + tau) f(tau, z) at lambda = 1 + tau
    cases = (((1, 0, at), 0, block(1, 0, at, wrong), 1.0),
             ((0, 1, at), 0, block(0, 1, at, wrong), tau),
             ((1, 0, at + tau), 1, block(1, 0, at + tau, wrong) @ block(0, 1, at), 1 + tau))
    for target, which, f, lam in cases:
        # a wrong factor breaks the identity at this lambda only, so its residual
        # is of the size of its terms and comparable between implementations,
        # and the other lambda's stays at rounding level below it
        expected = transport_residual_oracle(f, here, section_basis(spec, z + lam))
        with monkeypatch.context() as patch:
            patch.setattr(bundles, "automorphy_factor", lambda m, n, w, tau, order: original(
                m, n, w, tau, order) * (wrong if (m, n, w) == target else 1.0))
            got = automorphy_residuals(spec, z)[-1]
        assert expected > 1e-3
        assert abs(got[which] - expected) <= 1e-12 * expected
        if target[1] == 0:  # f(tau, z) is intact, so the other record is too
            assert got[1 - which] < 1e-13


@pytest.mark.parametrize("k", [1, 3, 6])
def test_automorphy_residuals_read_the_one_point_jets(ctx_i, k):
    # the batched residuals equal the ones built from one jet at a time and
    # the closed-form factor
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    z, tau = 0.13 + 0.05j, ctx_i.tau
    at = z + A_Z

    def factor(m, n, w):
        return _offset_blocks(automorphy_factor(m, n, w, tau, k))

    def residual(f, lam):
        # comps[column, index, row]; each component sized by the largest of its three thetas
        here, rhs = section_basis(spec, z), bundles._sections(k, theta_jet(at + lam, ctx_i, k))
        terms = np.abs(here).max(axis=1) @ np.abs(f).T + np.abs(rhs).max(axis=1)
        scale = np.repeat(np.max(terms, axis=1), 3)
        lhs = here.reshape(spec.size, -1) @ f.T
        return float(np.max(np.max(np.abs(lhs - rhs.reshape(spec.size, -1)), axis=1) / scale))

    transport = max(residual(factor(1, 0, at), 1.0), residual(factor(0, 1, at), tau))
    cocycle = residual(factor(1, 0, at + tau) @ factor(0, 1, at), 1 + tau)
    assert automorphy_residuals(spec, z)[-1] == (transport, cocycle)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_annihilation_residual_matches_loop_oracle(monkeypatch, ctx_i, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    # sections at another point break the identity (see above)
    shifted = section_basis(spec, 0.16)
    a = build_analytic(spec)[0]
    expected = annihilation_residual_oracle(relation_matrix(a), theta_vector(0.11, ctx_i),
                                            shifted, k)
    monkeypatch.setattr(bundles, "section_basis", lambda spec, z: shifted)
    got = relation_annihilation_residual(spec, a, 0.11)
    assert expected > 1e-3
    assert abs(got - expected) <= 1e-12 * expected


def test_automorphy_block_at_one(ctx_i, spec2):
    # e(1, z) = -1 with vanishing derivatives: the block is -identity
    f = _offset_blocks(automorphy_jet(A_Z, 1.0, 0.11, ctx_i, spec2.k))
    assert np.max(np.abs(f + np.eye(3))) < 1e-7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_automorphy_transport(ctx_i, k):
    # the worse of lambda = 1 and lambda = tau
    transport, _ = automorphy_residuals(UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z), 0.13 + 0.05j)[-1]
    assert transport < 1e-7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_automorphy_cocycle(ctx_i, k):
    _, cocycle = automorphy_residuals(UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z), 0.13 + 0.05j)[-1]
    assert cocycle < 1e-7


@settings(max_examples=150, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15),
       re_z=st.floats(-0.5, 0.5), im_z=st.floats(-0.5, 0.5), k=st.integers(1, 8))
# tau = 4i, z + a = 1/3 in E[3]: theta_i(z + a) is rounding noise there, and a
# scale with an absolute 1 in it read the cocycle at 4.7e-3
@example(re_tau=0.0, lift=1.0, re_a=1 / 3, im_a=0.0, re_z=0.0, im_z=0.0, k=1)
@example(re_tau=0.0, lift=1.0, re_a=1 / 3, im_a=0.0, re_z=0.0, im_z=0.0, k=8)
def test_automorphy_holds_to_rounding_at_every_k(re_tau, lift, re_a, im_a, re_z, im_z, k):
    # |Re tau| <= 1/2, |tau| >= 1, Im tau <= 4: the closed-form factor leaves
    # only the rounding of the theta jets, at every derivative order
    floor = math.sqrt(1.0 - re_tau ** 2)
    ctx = ThetaContext(tau=complex(re_tau, floor + lift * (4.0 - floor)))
    spec = UlrichSpec(k=k, ctx=ctx, a_z=complex(re_a, im_a))
    transport, cocycle = automorphy_residuals(spec, complex(re_z, im_z))[-1]
    assert transport < 1e-11 and cocycle < 1e-11


@settings(max_examples=40, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15),
       re_z=st.floats(-0.5, 0.5), im_z=st.floats(-0.5, 0.5), top=st.integers(1, 8))
def test_all_orders_automorphy_is_the_per_order_computation(re_tau, lift, re_a, im_a,
                                                            re_z, im_z, top):
    # every order read from the first rows of one sum at the top order gives
    # the residuals of that order's own sum, bit for bit
    floor = math.sqrt(1.0 - re_tau ** 2)
    ctx = ThetaContext(tau=complex(re_tau, floor + lift * (4.0 - floor)))
    a_z, z = complex(re_a, im_a), complex(re_z, im_z)
    got = automorphy_residuals(UlrichSpec(k=top, ctx=ctx, a_z=a_z), z)
    assert got == [automorphy_residuals(UlrichSpec(k=k, ctx=ctx, a_z=a_z), z)[-1]
                   for k in range(1, top + 1)]


@pytest.mark.parametrize("k", range(2, 9))
def test_automorphy_gates_see_a_perturbed_second_derivative(monkeypatch, ctx_i, k):
    # theta'' off by 1e-6 relative breaks transport at lambda = tau and 1 + tau
    original = bundles.theta_jet

    def perturbed(z, ctx, max_order=0):
        jets = original(z, ctx, max_order).copy()
        jets[..., 2, :] *= 1 + 1e-6
        return jets

    monkeypatch.setattr(bundles, "theta_jet", perturbed)
    transport, cocycle = automorphy_residuals(UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z),
                                              0.13 + 0.05j)[-1]
    assert transport > 1e-7 and cocycle > 1e-7


# -- evaluation-map bookkeeping -------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_jet_kernel(ctx_i, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    assert jet_kernel_residual(spec, build_analytic(spec)[0], 0.11) < 1e-7


def test_relations_annihilate_sections_k1(ctx_i, spec1):
    a = build_analytic(spec1)[0]
    for z in (0.11, 0.29 + 0.07j):
        assert relation_annihilation_residual(spec1, a, z) < 1e-7


def test_relation_matrix_rank_k1(ctx_i, spec1):
    rel = relation_matrix(build_analytic(spec1)[0])
    assert rel.shape == (6, 18)
    assert numeric_rank(rel) == 6


@pytest.mark.parametrize("k", [2, 3])
def test_relations_annihilate_sections_higher_rank(ctx_i, k):
    spec = UlrichSpec(k=k, ctx=ctx_i, a_z=A_Z)
    a = build_analytic(spec)[0]
    assert relation_annihilation_residual(spec, a, 0.11) < 1e-7
    rel = relation_matrix(a)
    assert rel.shape == (3 * (k + 1), 9 * (k + 1))
    assert numeric_rank(equilibrate(rel)) == 3 * (k + 1)


# -- spec validation ---------------------------------------------------------

def test_spec_requires_a_point(ctx_i):
    with pytest.raises(TypeError):
        UlrichSpec(k=1, ctx=ctx_i)
    with pytest.raises(ValueError):
        UlrichSpec(k=-1, ctx=ctx_i, a_z=0.3)


def test_spec_size(ctx_i, spec2):
    assert spec2.size == 9


def test_analytic_needs_a_z(ctx_i):
    # a spec always carries the analytic point; a projective point alone
    # only builds the algebraic form
    with pytest.raises(TypeError):
        UlrichSpec(k=1, ctx=ctx_i, point=embed(0.3, ctx_i))
    assert build_algebraic(embed(0.3, ctx_i), 1).rows == 6
