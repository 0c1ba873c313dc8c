"""Theta basis: series values, derivatives, modulus, automorphy factors."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessecubic import (DegenerateProbe, InconsistentPsi, NonconvergentSeries, OrderTooHigh,
                        ThetaContext, ThetaOverflow, hesse_psi, theta_jet)
from hessecubic import theta
from hessecubic.theta import (_CHAR_A, CHECK_TOL, MAX_ORDER, TRUNC_EPS, _half_width, _sum_jet,
                             automorphy_factor)
from oracles import (automorphy_jet, central_difference, per_point_jet, richardson_derivative,
                     theta_series_oracle, theta_vector)


def test_origin_is_inflection_point(ctx_i):
    v = theta_vector(0.0, ctx_i)
    assert abs(v[0]) < 1e-12 * abs(v[1])
    assert abs(v[1] + v[2]) < 1e-12 * abs(v[1])  # [0 : 1 : -1] projectively


def test_first_derivative_matches_central_difference(ctx_i):
    rng = np.random.default_rng(7)
    for index in range(3):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        exact = theta_jet(z, ctx_i, 1)[1, index]
        fd = central_difference(lambda w: theta_vector(w, ctx_i)[index], z, h=1e-5)
        assert abs(exact - fd) < 1e-6 * (1 + abs(exact))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_richardson_orders(ctx_i, order):
    z = 0.21 + 0.13j
    for index in range(3):
        exact = theta_jet(z, ctx_i, order)[order, index]
        approx = richardson_derivative(lambda w: theta_vector(w, ctx_i)[index], z, order)
        assert abs(exact - approx) < 1e-6 * (1 + abs(exact))


def test_hesse_identity_random_points(ctx_i, psi_i):
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        v = theta_vector(z, ctx_i)
        residual = abs(v[0] ** 3 + v[1] ** 3 + v[2] ** 3 - 3 * psi_i * v[0] * v[1] * v[2])
        assert residual < CHECK_TOL


def test_symmetry_relations(ctx_i):
    rng = np.random.default_rng(13)
    for _ in range(10):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        v = theta_vector(z, ctx_i)
        m = theta_vector(-z, ctx_i)
        assert abs(m[0] + v[0]) < CHECK_TOL
        assert abs(m[1] + v[2]) < CHECK_TOL
        assert abs(m[2] + v[1]) < CHECK_TOL


def test_truncation_depth_stability(ctx_i):
    for z in (0.3, 0.1 + 0.4j, -0.45 + 0.2j):
        for order in (0, 2):
            base = theta_jet(z, ctx_i, order)[order, 0]
            # ten more terms per side than the tail bound asks for
            deeper = per_point_jet(z, ctx_i, order, 10)[order, 0]
            assert abs(base - deeper) <= 10 * TRUNC_EPS * (1 + abs(base))


@settings(max_examples=150, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
       re_z=st.floats(-1.0, 1.0), im_z=st.floats(-1.0, 1.0),
       order=st.integers(0, MAX_ORDER))
def test_theta_jet_matches_fixed_window_oracle(re_tau, lift, re_z, im_z, order):
    # tau over the fundamental domain |Re tau| <= 1/2, |tau| >= 1, Im tau <= 2;
    # every value in this box is representable, so no error is expected
    floor = math.sqrt(1.0 - re_tau ** 2)
    tau = complex(re_tau, floor + lift * (2.0 - floor))
    z = complex(re_z, im_z)
    jet = theta_jet(z, ThetaContext(tau=tau), order)
    expected, largest = theta_series_oracle(z, tau, order)
    assert jet.shape == (order + 1, 3)
    assert np.max(np.abs(jet[order] - expected)) <= 1e-12 * largest


def _tau(re_tau: float, lift: float, top: float) -> complex:
    # |Re tau| <= 1/2, |tau| >= 1 and Im tau <= top
    floor = math.sqrt(1.0 - re_tau ** 2)
    return complex(re_tau, floor + lift * (top - floor))


@settings(max_examples=200, deadline=None)
@given(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0), order=st.integers(0, 8),
       zs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-2.5, 2.5)),
                   min_size=1, max_size=12))
def test_batched_jets_are_the_one_point_sums_bit_for_bit(re_tau, lift, order, zs):
    # tau over the benchmark's fundamental domain and on up to Im tau = 4
    ctx = ThetaContext(tau=_tau(re_tau, lift, 4.0))
    points = np.array([complex(x, y) for x, y in zs])
    batch = theta_jet(points, ctx, order)
    assert batch.shape == (len(points), order + 1, 3)
    # laid out as the one-point arrays are: numpy may sum strided input in another order
    assert batch.flags.c_contiguous
    for z, jet in zip(points, batch):
        assert np.array_equal(jet, per_point_jet(z, ctx, order))
        assert np.array_equal(jet, theta_jet(z, ctx, order))


@pytest.mark.parametrize("tau, order, points", [
    (0.8j, 8, [0.1, 0.2 + 6j, -0.3 - 0.2j]),
    (1.3j, 4, [0.1 - 2.5j, 0.1, 0.4 + 1.1j]),
    (0.1 + 4j, 7, [0.1, 0.2 + 6j, -0.3 + 2.5j]),
])
def test_batch_of_mixed_windows_is_the_one_point_sums(tau, order, points):
    # the windows of these batches differ in width, so the zeroed terms matter
    ctx = ThetaContext(tau=tau)

    def radius(z):
        t_star = -complex(z).imag / tau.imag
        n0 = [round(t_star - a) for a in _CHAR_A]
        return _half_width(t_star, [n + a for n, a in zip(n0, _CHAR_A)], 3 * tau.imag, order)

    assert len({radius(z) for z in points}) > 1
    assert np.array_equal(theta_jet(np.array(points), ctx, order),
                          [per_point_jet(z, ctx, order) for z in points])


def test_batch_errors_name_the_first_offending_point(ctx_i):
    with pytest.raises(ThetaOverflow, match=r"at z = \(0\.2\+40j\)") as info:
        theta_jet(np.array([0.1, 0.2 + 40j, 0.3 + 50j]), ctx_i)
    assert info.value.order == 0
    # at Im tau = 2.2e-5 the order-12 window fits the cap at Im z = 0.1, not at 0
    with pytest.raises(NonconvergentSeries, match=r"at z = \(0\.1\+0j\)"):
        theta_jet(np.array([0.1 + 0.1j, 0.1, 0.2]), ThetaContext(tau=2.2e-5j), MAX_ORDER)


def test_lower_orders_do_not_depend_on_the_requested_order(ctx_i):
    z = 0.21 + 0.13j
    full = theta_jet(z, ctx_i, MAX_ORDER)
    for order in range(MAX_ORDER + 1):
        row = theta_jet(z, ctx_i, order)[order]
        assert np.max(np.abs(row - full[order])) <= 1e-14 * np.max(np.abs(full[order]))


def test_jet_is_read_only(ctx_i):
    jet = theta_jet(0.3, ctx_i, 2)
    with pytest.raises(ValueError):
        jet[0, 0] = 1.0
    with pytest.raises(ValueError):
        jet[1] *= 2


def test_jet_cache_stays_bounded():
    for step in range(2 * _sum_jet.cache_info().maxsize):
        theta_jet(0.1, ThetaContext(tau=complex(0.01 * step, 1.0 + 0.001 * step)), 1)
    info = _sum_jet.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_only_one_point_jets_are_cached():
    ctx = ThetaContext(tau=0.05 + 1.3j)
    _sum_jet.cache_clear()
    theta_jet(np.array([0.1, 0.2]), ctx, 1)
    assert _sum_jet.cache_info().currsize == 0
    theta_jet(0.1, ctx, 1)
    theta_jet(np.array([0.1]), ctx, 1)  # a one-point batch shares the scalar's entry
    assert _sum_jet.cache_info()[:2] == (1, 1)  # hits, misses


def test_overflow_at_large_imaginary_part_is_named(ctx_i):
    # |th(z)| grows like exp(3*pi*Im(z)^2/Im(tau)): past Im z ~ 8.6 at tau = i
    # no double holds it
    with pytest.raises(ThetaOverflow) as info:
        theta_jet(0.1 + 40j, ctx_i)
    assert info.value.order == 0


def test_overflow_only_in_unrequested_orders_does_not_fail(ctx_i):
    z = 8.4j  # order 0 fits in a double, the order-12 derivative does not
    assert np.all(np.isfinite(theta_jet(z, ctx_i, 0)))
    with pytest.raises(ThetaOverflow) as info:
        theta_jet(z, ctx_i, MAX_ORDER)
    assert 0 < info.value.order <= MAX_ORDER


def test_window_beyond_the_cap_is_nonconvergent():
    # Im(3 tau) = 3e-5 needs ~860 terms per side for TRUNC_EPS = 1e-30
    with pytest.raises(NonconvergentSeries):
        theta_jet(0.1, ThetaContext(tau=1e-5j))


def test_psi_probes_degenerate_high_in_the_half_plane():
    # at Im tau = 8 |th0 th1 th2| < 1e-6 max|th_i|^3 at every probe point, though
    # none is near a zero: the message states the cut and the largest ratio
    with pytest.raises(DegenerateProbe,
                       match=r"no probe point clears the cut \|th0\*th1\*th2\| >= 1e-06 "
                             r"\* max\|th_i\|\^3: the largest ratio is 1\.06e-07$"):
        hesse_psi(ThetaContext(tau=8j))


def test_psi_probe_independence(ctx_i):
    probes = (0.17, 0.31 + 0.2j)
    values = []
    for z in probes:
        v = theta_vector(z, ctx_i)
        values.append((v[0] ** 3 + v[1] ** 3 + v[2] ** 3) / (3 * v[0] * v[1] * v[2]))
    assert abs(values[0] - values[1]) < 1e-9
    assert abs(hesse_psi(ctx_i) - values[0]) < 1e-9


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
def test_psi_cubed_avoids_one(tau):
    # the Hesse pencil is singular exactly at psi^3 = 1
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    assert abs(psi ** 3 - 1) > CHECK_TOL


def test_hesse_identity_differentiated_at_zero(ctx_i, psi_i):
    d = theta_vector(0.0, ctx_i, order=1)
    assert abs(psi_i * d[0] + d[1] + d[2]) < CHECK_TOL


def test_order_cap():
    ctx = ThetaContext(tau=1j)
    with pytest.raises(OrderTooHigh):
        theta_jet(0.1, ctx, 13)


def test_lower_half_plane_rejected():
    with pytest.raises(NonconvergentSeries):
        ThetaContext(tau=-1j)
    with pytest.raises(NonconvergentSeries):
        ThetaContext(tau=0.5)


# -- automorphy factors ----------------------------------------------------

def test_factor_at_one_is_constant_minus_one(ctx_i):
    # the Hesse basis is anti-periodic: e(1, z) = -1 exactly, derivatives 0
    for z in (0.1, 0.27 + 0.31j, -0.4 + 0.05j):
        e = automorphy_jet(0.3, 1.0, z, ctx_i, 2)
        assert abs(e[0] + 1.0) < 1e-9
        for order in (1, 2):
            assert abs(e[order]) < 1e-7


def test_factor_cocycle(ctx_i):
    tau = ctx_i.tau
    for z in (0.13, 0.22 + 0.09j):
        lhs = automorphy_jet(0.3, 1 + tau, z, ctx_i)[0]
        rhs = (automorphy_jet(0.3, 1.0, z + tau, ctx_i)[0]
               * automorphy_jet(0.3, tau, z, ctx_i)[0])
        assert abs(lhs - rhs) < CHECK_TOL * (1 + abs(lhs))


@pytest.mark.parametrize("lam_name", ["one", "tau"])
def test_factor_transports_theta(ctx_i, lam_name):
    lam = 1.0 if lam_name == "one" else ctx_i.tau
    a_z, z = 0.3, 0.17 + 0.11j
    e = automorphy_jet(a_z, lam, z, ctx_i)[0]
    for i in range(3):
        lhs = e * theta_vector(z + a_z, ctx_i)[i]
        rhs = theta_vector(z + lam + a_z, ctx_i)[i]
        assert abs(lhs - rhs) < CHECK_TOL * (1 + abs(rhs))


def test_factor_derivative_matches_finite_difference(ctx_i):
    tau = ctx_i.tau
    a_z, z = 0.3, 0.19 + 0.07j
    exact = automorphy_jet(a_z, tau, z, ctx_i, 1)[1]
    fd = central_difference(lambda w: automorphy_jet(a_z, tau, w, ctx_i)[0], z, h=1e-5)
    assert abs(exact - fd) < 1e-6 * (1 + abs(exact))


def test_factor_known_form_at_tau(ctx_i):
    # e(tau, z) = -exp(-3 pi i tau - 6 pi i (z + a)) for this basis
    a_z, z = 0.21, 0.05 + 0.13j
    e = automorphy_jet(a_z, ctx_i.tau, z, ctx_i)[0]
    predicted = -cmath.exp(-3j * cmath.pi * ctx_i.tau - 6j * cmath.pi * (z + a_z))
    assert abs(e - predicted) < 1e-9 * (1 + abs(e))


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.31 + 1.12j])
def test_closed_form_factor_matches_the_series_quotient(tau):
    # the closed-form jet against the quotient of two summed series, orders 0..4
    ctx = ThetaContext(tau=tau)
    a_z, z = 0.3, 0.17 + 0.11j
    for m, n in ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)):
        closed = automorphy_factor(m, n, z + a_z, tau, 4)
        quotient = automorphy_jet(a_z, m + n * tau, z, ctx, 4)
        assert np.max(np.abs(closed - quotient)) <= 1e-9 * np.max(np.abs(closed))


def test_quasi_periodicity_large_shifts(ctx_i):
    # theta(z + m + n*tau) = (-1)^(m+n) exp(-3*pi*i*n^2*tau - 6*pi*i*n*z) theta(z);
    # exercises the series far from the fundamental domain
    tau = ctx_i.tau
    z = 0.21 + 0.13j
    for m, n in ((3, 0), (0, 2), (2, -1), (-1, 2)):
        factor = (-1) ** (m + n) * cmath.exp(-3j * cmath.pi * n * n * tau
                                             - 6j * cmath.pi * n * z)
        for i in range(3):
            lhs = theta_vector(z + m + n * tau, ctx_i)[i]
            rhs = factor * theta_vector(z, ctx_i)[i]
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_inconsistent_psi_detects_wrong_tolerance(monkeypatch):
    # an absurdly tight CHECK_TOL flags the (benign) probe spread
    monkeypatch.setattr(theta, "CHECK_TOL", 1e-17)
    with pytest.raises(InconsistentPsi):
        hesse_psi(ThetaContext(tau=1j))
