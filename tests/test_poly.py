"""Dense polynomial matrices: products, evaluation, sampled determinants, ranks."""
import json

import numpy as np
import pytest

from hessecubic import (NotSquare, PolyMatrix, UlrichSpec, ZeroReference,
                        build_analytic, det_scalar_fit, embed, eval_matrix,
                        evaluate, hesse_form, l_from_coords, moore_from_coords, numeric_rank,
                        offcurve_sample_triples)
from hessecubic.bundles import equilibrate
from hessecubic.poly import monomials
from oracles import (brute_det3, matrix_close, moore_det_closed_form,
                     random_poly_matrix, random_triple, to_json, zeros)


def _decode(entry) -> dict:
    """One entry's JSON term list, read back without the package."""
    return {tuple(t["exp"]): complex(*t["coeff"]) for t in entry}


def test_hesse_form_fermat_case():
    w = hesse_form(0.0)
    terms = {exp: c for exp, c in zip(monomials(3), w) if c}
    assert terms == {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}


def test_hesse_form_at_ones():
    psi = 0.7 - 0.2j
    assert abs(evaluate(hesse_form(psi), (1, 1, 1)) - (3 - 3 * psi)) < 1e-14


def test_hesse_form_vanishes_on_curve(ctx_i, psi_i):
    x = embed(0.3, ctx_i).coords
    assert abs(evaluate(hesse_form(psi_i), x)) < 1e-9


def test_monomials_sorted():
    for d in range(5):
        exps = monomials(d)
        assert list(exps) == sorted(exps)
        assert len(exps) == (d + 1) * (d + 2) // 2
        assert all(sum(e) == d and min(e) >= 0 for e in exps)


def test_ring_distributivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p, q = (random_poly_matrix(rng, 2, 3, 1) for _ in range(2))
        r = random_poly_matrix(rng, 3, 2, 2)
        assert matrix_close((p + q) @ r, p @ r + q @ r, tol=1e-13)


def test_degree_additivity_generic():
    rng = np.random.default_rng(4)
    for d1, d2 in ((0, 0), (1, 1), (1, 2), (3, 2)):
        prod = random_poly_matrix(rng, 2, 2, d1) @ random_poly_matrix(rng, 2, 2, d2)
        assert prod.degree == d1 + d2
        assert np.all(np.abs(prod.coeffs) > 0)


def test_eval_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p, q = random_poly_matrix(rng, 2, 3, 2), random_poly_matrix(rng, 3, 2, 1)
        xs = random_triple(rng)
        lhs = eval_matrix(p @ q, xs)
        rhs = eval_matrix(p, xs) @ eval_matrix(q, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


@pytest.mark.parametrize("k", range(9))
def test_block_product_matches_numpy_both_orders(ctx_i, k):
    # (A@B)(x) = A(x)@B(x) and (B@A)(x) = B(x)@A(x), componentwise
    a, b = build_analytic(UlrichSpec(k=k, ctx=ctx_i, a_z=0.3))
    rng = np.random.default_rng(20 + k)
    points = [random_triple(rng) for _ in range(3)]
    for left, right in ((a, b), (b, a)):
        prod = left @ right
        for xs in points:
            l_x, r_x = eval_matrix(left, xs), eval_matrix(right, xs)
            err = np.abs(eval_matrix(prod, xs) - l_x @ r_x) / (1 + np.abs(l_x) @ np.abs(r_x))
            assert err.max() < 1e-13


def test_eval_stack_matches_single_points(ctx_i):
    m = l_from_coords(embed(0.3, ctx_i).coords)
    rng = np.random.default_rng(7)
    xs = [random_triple(rng) for _ in range(4)]
    stacked = eval_matrix(m, xs)
    assert stacked.shape == (4, 3, 3)
    for values, x in zip(stacked, xs):
        assert np.array_equal(values, eval_matrix(m, x))


def _low_rank(rng, size: int, rank: int, scale: float) -> np.ndarray:
    left = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    right = rng.normal(size=(rank, size)) + 1j * rng.normal(size=(rank, size))
    return scale * (left @ right)


def _svd_rank(m: np.ndarray) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals > 1e-7 * svals[0])) if svals[0] > 0 else 0


def test_stacked_rank_and_equilibrate_match_per_matrix():
    # one stack: a zero matrix, rank-deficient matrices, scales 1e-8..1e8
    rng = np.random.default_rng(30)
    ranks = [0, 1, 3, 5, 6, 2, 6, 4, 6]
    scales = [1.0, 1e-8, 1e-4, 1.0, 1e8, 1e8, 1e-8, 1e3, 1e-2]
    stack = np.array([_low_rank(rng, 6, r, s) for r, s in zip(ranks, scales)])
    # a 1e10 row/column spread inside one matrix, as in jet block matrices:
    # the plain rank loses it, the equilibrated one does not
    spread = np.diag(10.0 ** np.arange(-3, 3))
    stack[-1] = spread @ stack[-1] @ spread
    plain = [_svd_rank(m) for m in stack]
    assert plain[:-1] == ranks[:-1] and plain[-1] < 6
    assert numeric_rank(stack).tolist() == plain
    assert [numeric_rank(m) for m in stack] == plain
    eq = equilibrate(stack)
    assert eq.shape == stack.shape
    for single, stacked in zip(stack, eq):
        assert np.allclose(equilibrate(single), stacked, rtol=1e-14, atol=0)
    assert numeric_rank(eq).tolist() == ranks
    assert [_svd_rank(m) for m in eq] == ranks
    # leading axes of any depth
    assert numeric_rank(stack.reshape(3, 3, 6, 6)).tolist() == np.reshape(plain, (3, 3)).tolist()


def test_stacked_product_matches_per_slice():
    rng = np.random.default_rng(31)
    left = np.array([random_poly_matrix(rng, 3, 4, 1).coeffs for _ in range(5)])
    right = np.array([random_poly_matrix(rng, 4, 2, 2).coeffs for _ in range(5)])
    prod = PolyMatrix(left) @ PolyMatrix(right)
    assert prod.coeffs.shape == (5, 3, 2, 10)
    for i in range(5):
        single = (PolyMatrix(left[i]) @ PolyMatrix(right[i])).coeffs
        assert np.allclose(prod.coeffs[i], single, rtol=1e-14, atol=1e-14)
    # an unstacked factor broadcasts against the stack
    shared = PolyMatrix(right[0])
    broadcast = PolyMatrix(left) @ shared
    for i in range(5):
        single = (PolyMatrix(left[i]) @ shared).coeffs
        assert np.allclose(broadcast.coeffs[i], single, rtol=1e-14, atol=1e-14)


def test_stacked_eval_matches_per_slice():
    rng = np.random.default_rng(32)
    coeffs = np.array([[random_poly_matrix(rng, 2, 3, 2).coeffs for _ in range(3)]
                       for _ in range(2)])
    xs = np.array([[random_triple(rng) for _ in range(4)] for _ in range(5)])
    values = eval_matrix(PolyMatrix(coeffs), xs)
    assert values.shape == (2, 3, 5, 4, 2, 3)
    for i in range(2):
        for j in range(3):
            single = PolyMatrix(coeffs[i, j])
            assert np.allclose(values[i, j], eval_matrix(single, xs), rtol=1e-14, atol=1e-14)
            for a in range(5):
                for b in range(4):
                    assert np.allclose(values[i, j, a, b], eval_matrix(single, xs[a, b]),
                                       rtol=1e-14, atol=1e-14)


def test_stacked_det_fit_matches_per_slice(ctx_i, psi_i):
    off = offcurve_sample_triples(psi_i, 10, 43)
    w_off = evaluate(hesse_form(psi_i), off)
    rng = np.random.default_rng(33)
    stack = np.array([moore_from_coords(embed(0.1, ctx_i).coords).coeffs,
                      random_poly_matrix(rng, 3, 3, 1).coeffs,
                      np.zeros((3, 3, 3)),
                      moore_from_coords(embed(0.23 + 0.05j, ctx_i).coords).coeffs])
    values = eval_matrix(PolyMatrix(stack), off)
    c, residual = det_scalar_fit(values, w_off)
    assert c.shape == residual.shape == (len(stack),)
    for i in range(len(stack)):
        c_i, residual_i = det_scalar_fit(values[i], w_off)
        assert abs(c[i] - c_i) <= 1e-13 * abs(c_i)
        assert abs(residual[i] - residual_i) <= 1e-13 * max(residual_i, 1e-3)
    # a vanishing determinant fits c = 0 with residual 0, as in a single call
    assert c[2] == 0 and residual[2] == 0
    assert max(residual[0], residual[3]) < 1e-8 and residual[1] > 1e-3


def test_det_identity(psi_i):
    # det(w * I_3) = w^3 exactly: c = 1
    off = offcurve_sample_triples(psi_i, 10, 43)
    w = hesse_form(psi_i)
    c, residual = det_scalar_fit(eval_matrix(PolyMatrix.diagonal(w, 3), off),
                                 evaluate(w, off) ** 3)
    assert abs(c - 1.0) < 1e-13 and residual < 1e-14


def test_det_not_square():
    with pytest.raises(NotSquare):
        det_scalar_fit(np.zeros((4, 2, 3)), np.ones(4))


def test_moore_det_closed_form(ctx_i):
    a = embed(0.3, ctx_i)
    m = moore_from_coords(a.coords)
    rng = np.random.default_rng(9)
    for _ in range(10):
        xs = random_triple(rng)
        expected = moore_det_closed_form(a.coords, xs)
        assert abs(np.linalg.det(eval_matrix(m, xs)) - expected) < 1e-12 * (1 + abs(expected))


def test_det_multiplicative_numeric():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p1, p2 = random_poly_matrix(rng, 3, 3, 0), random_poly_matrix(rng, 3, 3, 0)
        xs = random_triple(rng)
        lhs = np.linalg.det(eval_matrix(p1 @ p2, xs))
        rhs = brute_det3(p1.coeffs[:, :, 0]) * brute_det3(p2.coeffs[:, :, 0])
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_det_block_triangular(ctx_i, psi_i):
    m = moore_from_coords(embed(0.3, ctx_i).coords)
    n = moore_from_coords(embed(0.17 + 0.2j, ctx_i).coords)
    rng = np.random.default_rng(12)
    big = zeros(6, 6, 1)
    big.coeffs[:3, :3] = m.coeffs
    big.coeffs[3:, 3:] = n.coeffs
    big.coeffs[:3, 3:] = random_poly_matrix(rng, 3, 3, 1).coeffs
    off = offcurve_sample_triples(psi_i, 10, 43)
    reference = np.linalg.det(eval_matrix(m, off)) * np.linalg.det(eval_matrix(n, off))
    c, residual = det_scalar_fit(eval_matrix(big, off), reference)
    assert abs(c - 1.0) < 1e-12 and residual < 1e-12


def test_eval_linear_matrix_at_origin(ctx_i):
    m = moore_from_coords(embed(0.3, ctx_i).coords)
    assert np.max(np.abs(eval_matrix(m, (0.0, 0.0, 0.0)))) == 0.0


def test_eval_hesse_diagonal_on_curve(ctx_i, psi_i):
    diag = PolyMatrix.diagonal(hesse_form(psi_i), 3)
    x = embed(0.21 + 0.13j, ctx_i).coords
    assert np.linalg.norm(eval_matrix(diag, x)) < 1e-8


def test_numeric_rank_zero_matrix():
    assert numeric_rank(np.zeros((4, 4))) == 0


def test_numeric_rank_moore_off_curve(ctx_i):
    m = moore_from_coords(embed(0.3, ctx_i).coords)
    assert numeric_rank(eval_matrix(m, (0.9, -0.2 + 0.4j, 0.3))) == 3


def test_numeric_rank_moore_on_curve(ctx_i):
    m = moore_from_coords(embed(0.3, ctx_i).coords)
    x = embed(0.11 + 0.07j, ctx_i).coords
    assert numeric_rank(eval_matrix(m, x)) == 2


# -- the scalar fit behind both determinant gates ----------------------------

def _one_by_one(poly: np.ndarray) -> PolyMatrix:
    return PolyMatrix(poly[None, None, :])


def test_equal_up_to_scalar_basic(psi_i):
    off = offcurve_sample_triples(psi_i, 10, 43)
    w = hesse_form(psi_i)
    c, residual = det_scalar_fit(eval_matrix(_one_by_one(2.0 * w), off), evaluate(w, off))
    assert residual < 1e-14 and abs(c - 2.0) < 1e-12


def test_equal_up_to_scalar_distinct_support(psi_i):
    off = offcurve_sample_triples(psi_i, 10, 43)
    w = hesse_form(psi_i)
    other = w.copy()
    other[monomials(3).index((2, 1, 0))] = 1.0
    _, residual = det_scalar_fit(eval_matrix(_one_by_one(other), off), evaluate(w, off))
    assert residual > 1e-3


def test_equal_up_to_scalar_reflexive_symmetric():
    rng = np.random.default_rng(14)
    xs = [random_triple(rng) for _ in range(10)]
    p = random_poly_matrix(rng, 1, 1, 3)
    p_vals = eval_matrix(p, xs)
    c, residual = det_scalar_fit(p_vals, p_vals[:, 0, 0])
    assert residual < 1e-14 and abs(c - 1.0) < 1e-12
    q_vals = p_vals * (0.3 - 1.7j)
    c1, r1 = det_scalar_fit(p_vals, q_vals[:, 0, 0])
    c2, r2 = det_scalar_fit(q_vals, p_vals[:, 0, 0])
    assert r1 < 1e-9 and r2 < 1e-9
    assert abs(c1 * c2 - 1.0) < 1e-10


def test_equal_up_to_scalar_zero_reference():
    with pytest.raises(ZeroReference):
        det_scalar_fit(np.ones((3, 1, 1)), np.zeros(3))


def test_det_fit_of_vanishing_determinant():
    # a determinant that is exactly zero at every sample fits c = 0
    with np.errstate(all="raise"):
        c, residual = det_scalar_fit(np.zeros((5, 3, 3)), np.ones(5))
    assert c == 0 and residual == 0.0


# -- serialization -------------------------------------------------------------

def test_multipoly_json_round_trip():
    # one entry with every monomial present: its term list round trips in order
    rng = np.random.default_rng(15)
    p = random_poly_matrix(rng, 1, 1, 3)
    entry = to_json(p)["entries"][0][0]
    assert [tuple(t["exp"]) for t in entry] == list(monomials(3))
    decoded = _decode(entry)
    assert all(decoded[e] == c for e, c in zip(monomials(3), p.coeffs[0, 0]))


def test_polymatrix_json_round_trip(ctx_i):
    m = moore_from_coords(embed(0.3, ctx_i).coords)
    data = json.loads(json.dumps(to_json(m)))
    assert (data["rows"], data["cols"]) == (3, 3)
    decoded = zeros(3, 3, 1)
    for i, row in enumerate(data["entries"]):
        for j, entry in enumerate(row):
            for exp, c in _decode(entry).items():
                decoded.coeffs[i, j, monomials(1).index(exp)] = c
    assert matrix_close(m, decoded, tol=1e-15)
    # zero coefficients are not serialized: one term per Moore entry
    assert all(len(entry) == 1 for row in data["entries"] for entry in row)


def test_linear_flag(ctx_i):
    assert moore_from_coords(embed(0.3, ctx_i).coords).degree == 1
    assert l_from_coords(embed(0.3, ctx_i).coords).degree == 2
    assert zeros(2, 2, 3).degree == 3
