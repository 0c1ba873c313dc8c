"""Projective points, curve membership, negation and the -2a map."""
import cmath

import numpy as np
import pytest

from hessecubic import (AllZero, CurveConfig, DenominatorZero, HesseCubicError,
                        ProjectivePoint, SingularCurve, double_neg, doubling_orbit, embed,
                        is_three_torsion, on_curve)
from oracles import iterate_double_neg_oracle, negate, point_from_json, proj_distance

ORIGIN = ProjectivePoint.from_coords((0.0, 1.0, -1.0))


@pytest.fixture(scope="module")
def cfg(psi_i):
    return CurveConfig(psi=psi_i)


def test_embed_origin(ctx_i):
    assert proj_distance(embed(0.0, ctx_i), ORIGIN) < 1e-12


def test_embed_lattice_periodicity(ctx_i):
    z = 0.23 + 0.11j
    p = embed(z, ctx_i)
    assert proj_distance(p, embed(z + 1, ctx_i)) < 1e-8
    assert proj_distance(p, embed(z + ctx_i.tau, ctx_i)) < 1e-8


def test_embedded_point_on_curve(ctx_i, cfg):
    assert on_curve(embed(0.3, ctx_i), cfg) < 1e-9
    assert on_curve(embed(0.3 + 0.1j, ctx_i), cfg) < 1e-9


def test_on_curve_closed_forms(psi_i):
    assert on_curve(ORIGIN, CurveConfig(psi=psi_i)) < 1e-15
    ones = ProjectivePoint.from_coords((1, 1, 1))
    assert abs(on_curve(ones, CurveConfig(psi=0.0)) - 3.0) < 1e-12


def test_normalization_representation():
    p = ProjectivePoint.from_coords((3 - 2j, 1.0, 0.5j))
    moduli = [abs(c) for c in p.coords]
    assert max(moduli) == 1.0
    assert p.coords[int(np.argmax(moduli))] == 1.0


def test_all_zero_rejected():
    with pytest.raises(AllZero):
        ProjectivePoint.from_coords((0.0, 0.0, 0.0))


def test_proj_distance_scale_invariant():
    p = ProjectivePoint.from_coords((0.3 + 0.2j, -1.1, 0.7j))
    q = ProjectivePoint.from_coords(tuple((3 - 2j) * c for c in p.coords))
    assert proj_distance(p, q) < 1e-14


def test_proj_distance_orthogonal_classes():
    e0 = ProjectivePoint.from_coords((1, 0, 0))
    e1 = ProjectivePoint.from_coords((0, 1, 0))
    assert abs(proj_distance(e0, e1) - 1.0) < 1e-15


def test_proj_distance_perturbation(ctx_i):
    p = embed(0.3, ctx_i)
    q = ProjectivePoint.from_coords(tuple(c + 1e-10 for c in p.coords))
    assert proj_distance(p, q) < 1e-9


def test_proj_distance_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = ProjectivePoint.from_coords(tuple(complex(rng.normal(), rng.normal())
                                              for _ in range(3)))
        q = ProjectivePoint.from_coords(tuple(complex(rng.normal(), rng.normal())
                                              for _ in range(3)))
        assert abs(proj_distance(p, q) - proj_distance(q, p)) < 1e-14
        assert 0.0 <= proj_distance(p, q) <= 1.0


def test_negate_origin_is_fixed():
    assert proj_distance(negate(ORIGIN), ORIGIN) < 1e-15


def test_negate_involution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = ProjectivePoint.from_coords(tuple(complex(rng.normal(), rng.normal())
                                              for _ in range(3)))
        assert negate(negate(p)).coords == p.coords


def test_negate_matches_theta_oracle(ctx_i):
    assert proj_distance(negate(embed(0.3, ctx_i)), embed(-0.3, ctx_i)) < 1e-8


def test_double_neg_matches_theta_oracle(ctx_i):
    assert proj_distance(double_neg(embed(0.3, ctx_i)), embed(-0.6, ctx_i)) < 1e-8


def test_double_neg_stays_on_curve(ctx_i, cfg):
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        p = embed(z, ctx_i)
        if is_three_torsion(p):
            continue
        assert on_curve(double_neg(p), cfg) < 1e-8


def test_double_neg_fixes_three_torsion(ctx_i):
    p = embed(1.0 / 3.0, ctx_i)
    assert proj_distance(double_neg(p), p) < 1e-8


def test_double_neg_rejects_exact_zero_coordinate():
    with pytest.raises(DenominatorZero):
        double_neg(ORIGIN)


def test_double_neg_commutes_with_negate(ctx_i):
    for z in (0.3, 0.21 + 0.17j, -0.37 + 0.05j):
        p = embed(z, ctx_i)
        assert proj_distance(double_neg(negate(p)), negate(double_neg(p))) < 1e-8


def test_iterate_identity(ctx_i):
    p = embed(0.3, ctx_i)
    assert doubling_orbit(p, 0) == [p]


def test_iterate_two_steps(ctx_i):
    assert proj_distance(doubling_orbit(embed(0.3, ctx_i), 2)[2], embed(1.2, ctx_i)) < 1e-8


def test_iterate_then_negate(ctx_i):
    assert proj_distance(negate(doubling_orbit(embed(0.3, ctx_i), 1)[1]),
                         embed(0.6, ctx_i)) < 1e-8


def test_iterate_error_carries_index():
    with pytest.raises(DenominatorZero) as err:
        doubling_orbit(ORIGIN, 2)
    assert err.value.iteration == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_iterate_names_an_exact_zero_iterate_at_every_length(k):
    # a1 = a2 makes -2a = [0 : 1 : -1] exactly: every orbit length names that iterate
    with pytest.raises(DenominatorZero, match=r"^point \(-2\)\^1 a lies in E\[3\]$") as err:
        doubling_orbit(ProjectivePoint.from_coords((0.5, 1, 1)), k)
    assert err.value.iteration == 1


@pytest.mark.parametrize("z", [0.3, 0.21 + 0.17j, -0.37 + 0.05j, 0.41 - 0.08j])
def test_doubling_orbit_matches_the_iterate_bit_for_bit(ctx_i, z):
    orbit = doubling_orbit(embed(z, ctx_i), 8)
    assert len(orbit) == 9
    for l, p in enumerate(orbit):
        assert p.coords == iterate_double_neg_oracle(embed(z, ctx_i), l).coords


def test_doubling_orbit_rejects_negative_length():
    with pytest.raises(ValueError):
        doubling_orbit(ORIGIN, -1)


def test_is_three_torsion(ctx_i):
    assert is_three_torsion(ORIGIN)
    assert is_three_torsion(embed(1.0 / 3.0, ctx_i))
    assert not is_three_torsion(embed(0.3, ctx_i))


def test_analytic_consistency_sweep(ctx_i):
    rng = np.random.default_rng(33)
    count = 0
    while count < 15:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        p = embed(z, ctx_i)
        if min(abs(c) for c in p.coords) < 1e-3:
            continue
        assert proj_distance(double_neg(p), embed(-2 * z, ctx_i)) < 1e-8
        count += 1


def test_curve_config_rejects_singular_psi():
    with pytest.raises(ValueError):
        CurveConfig(psi=1.0)


def test_singular_curve_is_a_named_error():
    with pytest.raises(SingularCurve, match=r"^psi\^3 = 1 defines a singular Hesse cubic$") as err:
        CurveConfig(psi=1.0)
    assert isinstance(err.value, HesseCubicError)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_singular_locus_is_psi_cubed_one(k):
    # at psi = omega^k every partial 3*x_i^2 - 3*psi*x_j*x_l of w vanishes at
    # [1 : 1 : psi^2], a point of the curve; psi = -1 stays smooth
    psi = cmath.exp(2j * cmath.pi * k / 3)
    x = (1.0, 1.0, psi ** 2)
    grad = [3 * x[i] ** 2 - 3 * psi * x[(i + 1) % 3] * x[(i + 2) % 3] for i in range(3)]
    assert max(abs(g) for g in grad) < 1e-12
    with pytest.raises(ValueError):
        CurveConfig(psi=psi)
    CurveConfig(psi=-1.0)


def test_point_json_round_trip(ctx_i):
    p = embed(0.3 + 0.07j, ctx_i)
    q = point_from_json(p.to_json())
    assert proj_distance(p, q) < 1e-15
