"""Moore matrices, L partners, derivative matrices, theta relations."""
import math

import numpy as np
import pytest

from hessecubic import (DenominatorZero, PolyMatrix, ProjectivePoint,
                        det_scalar_fit, embed, eval_matrix, evaluate, hesse_form,
                        l_derivative, offcurve_sample_triples, theta_relation_residuals)
from hessecubic import moore
from hessecubic.moore import l_from_coords, moore_from_coords
from hessecubic.poly import monomials
from hessecubic.theta import CHECK_TOL, ThetaContext, theta_jet
from oracles import (adjugate3, jet_matrices, l_entrywise, matrix_close, moore_derivative,
                     moore_entrywise, random_triple, relation_residual_oracle,
                     theta_vector, zeros)


def _terms(coeffs) -> dict:
    """Nonzero terms of one entry, keyed by exponent triple."""
    degree = {3: 1, 6: 2, 10: 3}[len(coeffs)]
    return {exp: c for exp, c in zip(monomials(degree), coeffs) if c}


def test_moore_symmetric_point_row_sums():
    m = moore_from_coords(ProjectivePoint.from_coords((1, 1, 1)).coords)
    for r in range(3):
        assert _terms(m.coeffs[r].sum(axis=0)) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_moore_det_degenerate_at_inflection(psi_i):
    # det M vanishes identically at [0:1:-1]: the sampled fit gives c = 0
    m = moore_from_coords(ProjectivePoint.from_coords((0, 1, -1)).coords)
    off = offcurve_sample_triples(psi_i, 10, 43)
    with np.errstate(all="raise"):
        c, residual = det_scalar_fit(eval_matrix(m, off), evaluate(hesse_form(psi_i), off))
    assert abs(c) < 1e-12
    assert np.isfinite(residual)


def test_moore_det_is_cubic_with_product_scalar(ctx_i, psi_i):
    a = embed(0.3 + 0.07j, ctx_i)
    off = offcurve_sample_triples(psi_i, 10, 43)
    c, residual = det_scalar_fit(eval_matrix(moore_from_coords(a.coords), off),
                                 evaluate(hesse_form(psi_i), off))
    prod = a.coords[0] * a.coords[1] * a.coords[2]
    assert residual < 1e-8
    assert abs(c - prod) < 1e-8 * abs(prod)


def test_l_matrix_symmetric_point_entry():
    l = l_from_coords(ProjectivePoint.from_coords((1, 1, 1)).coords)
    assert _terms(l.coeffs[0, 0]) == {(2, 0, 0): 1, (0, 1, 1): -1}


def test_l_matrix_is_scaled_adjugate(ctx_i):
    a = embed(0.3, ctx_i)
    prod = a.coords[0] * a.coords[1] * a.coords[2]
    m, l = moore_from_coords(a.coords), l_from_coords(a.coords)
    rng = np.random.default_rng(16)
    for _ in range(5):
        xs = random_triple(rng)
        oracle = adjugate3(eval_matrix(m, xs)) / prod
        assert np.max(np.abs(eval_matrix(l, xs) - oracle)) < 1e-12 * (1 + np.max(np.abs(oracle)))


def test_l_matrix_rejects_inflection_points():
    with pytest.raises(DenominatorZero):
        l_from_coords(ProjectivePoint.from_coords((0, 1, -1)).coords)


def test_ml_off_diagonal_vanishes_identically():
    # holds for any coordinates with nonzero entries, on the curve or not
    rng = np.random.default_rng(17)
    for _ in range(5):
        coords = tuple(complex(rng.normal(), rng.normal()) for _ in range(3))
        p = ProjectivePoint.from_coords(coords)
        if min(abs(c) for c in p.coords) < 1e-2:
            continue
        ml = moore_from_coords(p.coords) @ l_from_coords(p.coords)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.linalg.norm(ml.coeffs[i, j]) < 1e-10


def test_ml_diagonal_is_cubic_on_curve(ctx_i, psi_i):
    a = embed(0.3, ctx_i)
    ml = moore_from_coords(a.coords) @ l_from_coords(a.coords)
    w = hesse_form(psi_i)
    for i in range(3):
        assert np.linalg.norm(ml.coeffs[i, i] - w) < 1e-8 * np.linalg.norm(w)


@pytest.mark.parametrize("tau_fixture", ["ctx_i", "ctx_c"])
def test_factorization_both_orders_random_points(request, tau_fixture):
    ctx = request.getfixturevalue(tau_fixture)
    psi = request.getfixturevalue("psi_i" if tau_fixture == "ctx_i" else "psi_c")
    w_id = PolyMatrix.diagonal(hesse_form(psi), 3)
    rng = np.random.default_rng(19)
    count = 0
    while count < 10:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        a = embed(z, ctx)
        if min(abs(c) for c in a.coords) < 1e-2:
            continue
        m, l = moore_from_coords(a.coords), l_from_coords(a.coords)
        assert ((m @ l) - w_id).coefficient_norm() < 1e-8
        assert ((l @ m) - w_id).coefficient_norm() < 1e-8
        count += 1


def test_moore_derivative_order_zero_matches_normalized(ctx_i):
    a_z = 0.3
    raw = moore_derivative(a_z, ctx_i, 0)
    normalized = moore_from_coords(embed(a_z, ctx_i).coords)
    vec = theta_vector(a_z, ctx_i)
    scalar = vec[int(np.argmax(np.abs(vec)))]
    assert matrix_close(raw, normalized.scale(scalar), tol=1e-12)


def test_moore_derivative_matches_finite_difference(ctx_i):
    a_z, h = 0.3, 1e-5
    exact = moore_derivative(a_z, ctx_i, 1)
    plus = moore_derivative(a_z + h, ctx_i, 0)
    minus = moore_derivative(a_z - h, ctx_i, 0)
    fd = (plus - minus).scale(1.0 / (2 * h))
    assert (exact - fd).coefficient_norm() < 1e-6 * (1 + exact.coefficient_norm())


def test_l_derivative_order_zero_matches_l_matrix(ctx_i):
    a_z = 0.3
    jet0 = jet_matrices(l_derivative(a_z, ctx_i, 0))[0]
    direct = l_from_coords(embed(a_z, ctx_i).coords)
    vec = theta_vector(a_z, ctx_i)
    scalar = vec[int(np.argmax(np.abs(vec)))]
    # L is homogeneous of degree -1 in the point coordinates
    assert matrix_close(jet0, direct.scale(1.0 / scalar), tol=1e-10)


def test_l_derivative_matches_finite_difference(ctx_i):
    a_z, h = 0.3, 1e-5
    exact = jet_matrices(l_derivative(a_z, ctx_i, 1))[1]
    fd = (jet_matrices(l_derivative(a_z + h, ctx_i, 0))[0]
          - jet_matrices(l_derivative(a_z - h, ctx_i, 0))[0]).scale(1 / (2 * h))
    assert (exact - fd).coefficient_norm() < 1e-6 * (1 + exact.coefficient_norm())


def test_l_derivative_rejects_inflection(ctx_i):
    with pytest.raises(DenominatorZero):
        l_derivative(1.0 / 3.0, ctx_i, 1)


def test_product_rule_leibniz(ctx_i):
    # ML = w*I is constant in a, so M'L + ML' = 0; checked both directly and
    # against the finite-difference derivative of the product
    a_z, h = 0.3, 1e-4
    m0, m1 = moore_derivative(a_z, ctx_i, 0), moore_derivative(a_z, ctx_i, 1)
    l0, l1 = jet_matrices(l_derivative(a_z, ctx_i, 1))
    combo = m1 @ l0 + m0 @ l1
    assert combo.coefficient_norm() < 1e-8
    prod_plus = (moore_derivative(a_z + h, ctx_i, 0)
                 @ jet_matrices(l_derivative(a_z + h, ctx_i, 0))[0])
    prod_minus = (moore_derivative(a_z - h, ctx_i, 0)
                  @ jet_matrices(l_derivative(a_z - h, ctx_i, 0))[0])
    fd = (prod_plus - prod_minus).scale(1 / (2 * h))
    assert (combo - fd).coefficient_norm() < 1e-6


def test_iterated_leibniz(ctx_i):
    a_z = 0.3
    m = [moore_derivative(a_z, ctx_i, d) for d in range(4)]
    l = jet_matrices(l_derivative(a_z, ctx_i, 3))
    for i in range(1, 4):
        total = zeros(3, 3, 3)
        for j in range(i + 1):
            total = total + (m[j] @ l[i - j]).scale(math.comb(i, j))
        assert total.coefficient_norm() < 1e-7


def test_relation_order_zero(ctx_i):
    rep = theta_relation_residuals(0.3, 0.11, ctx_i, max_order=0)[0]
    assert rep.residual < 1e-9
    assert rep.passed


def test_relation_order_one(ctx_i):
    rep = theta_relation_residuals(0.3, 0.11, ctx_i, max_order=1)[1]
    assert rep.residual < 1e-8
    assert rep.passed


def test_relation_holds_at_torsion_base(ctx_i):
    # the identity survives at a in E[3]; only invertibility degenerates
    rep = theta_relation_residuals(0.0, 0.11, ctx_i, max_order=0)[0]
    assert rep.residual < 1e-9


def test_relation_order_cap(ctx_i):
    with pytest.raises(ValueError):
        theta_relation_residuals(0.3, 0.11, ctx_i, max_order=9)


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.31 + 1.12j])
def test_relation_residuals_match_loop_oracle(monkeypatch, tau):
    ctx = ThetaContext(tau=tau)
    a_z, z = 0.23 + 0.04j, -0.27 + 0.09j
    # move x off the relation's locus so every residual is of the size of its terms
    monkeypatch.setattr(moore, "embed", lambda z, ctx: embed(z + 0.05, ctx))
    reports = theta_relation_residuals(a_z, z, ctx, max_order=8)
    a_jet = theta_jet(a_z, ctx, 8).tolist()
    y_jet = theta_jet(z + a_z, ctx, 8).tolist()
    x = embed(z + 0.05, ctx).coords
    for order, rep in enumerate(reports):
        expected = max(abs(v) for v in relation_residual_oracle(a_jet, y_jet, x, order))
        assert expected > 1e-3
        assert abs(rep.residual - expected) <= 1e-12 * expected


def test_relation_reports_keep_names_tolerances_and_inputs(ctx_i):
    reports = theta_relation_residuals(0.3, 0.11, ctx_i, max_order=4)
    assert [r.name for r in reports] == [f"moore.relation.order{n}" for n in range(5)]
    assert [r.tol for r in reports] == [CHECK_TOL * 10 ** min(n, 2) for n in range(5)]
    assert [r.inputs["order"] for r in reports] == list(range(5))
    assert all(sorted(r.inputs) == ["a_z", "order", "tau", "z"] for r in reports)
    assert all(r.passed for r in reports)


def _oracle_points(ctx):
    rng = np.random.default_rng(34)
    points = [random_triple(rng) for _ in range(20)]
    points += [embed(z, ctx).coords for z in (0.1, 0.3 + 0.07j, -0.21 + 0.13j)]
    return points + [(1.0, 1.0, 1.0), (2.0, 3.0, 5.0)]


def test_moore_from_coords_matches_entrywise_oracle(ctx_i):
    points = _oracle_points(ctx_i)
    for point in points:
        assert np.array_equal(moore_from_coords(point).coeffs, moore_entrywise(point))
    stacked = moore_from_coords(np.array(points)).coeffs
    assert np.array_equal(stacked, [moore_entrywise(p) for p in points])


def test_l_from_coords_matches_entrywise_oracle(ctx_i):
    # bit for bit: emitted L coefficients must not change
    points = _oracle_points(ctx_i)
    for point in points:
        assert np.array_equal(l_from_coords(point).coeffs, l_entrywise(point))
    stacked = l_from_coords(np.array(points)).coeffs
    assert np.array_equal(stacked, [l_entrywise(p) for p in points])


def test_l_from_coords_rejects_a_torsion_point_in_a_stack(ctx_i):
    points = [embed(0.1, ctx_i).coords, (0.0, 1.0, -1.0)]
    with pytest.raises(DenominatorZero):
        l_from_coords(points)


def test_moore_from_coords_pattern():
    m = moore_from_coords((2.0, 3.0, 5.0))
    assert _terms(m.coeffs[0, 0]) == {(1, 0, 0): 2.0}
    assert _terms(m.coeffs[0, 1]) == {(0, 0, 1): 5.0}
    assert _terms(m.coeffs[0, 2]) == {(0, 1, 0): 3.0}
    assert _terms(m.coeffs[1, 0]) == {(0, 1, 0): 5.0}
    assert _terms(m.coeffs[2, 0]) == {(0, 0, 1): 3.0}
