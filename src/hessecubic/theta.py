"""Theta basis of the Hesse-form embedding of E = C/(Z + Z*tau).

The three functions th0, th1, th2 span the sections of the degree-3 line
bundle O(3o) and map E onto the Hesse cubic

    x0^3 + x1^3 + x2^3 - 3*psi*x0*x1*x2 = 0

with the origin landing on the inflection point [0 : 1 : -1].  Each basis
function is a theta-with-characteristics series

    Theta[a, b](u, sigma) = sum_n exp(pi*i*(n+a)^2*sigma + 2*pi*i*(n+a)*(u+b))

evaluated at (u, sigma) = (3z, 3*tau), with characteristic a and a constant
phase taken from the tables below.  The characteristic/phase assignment is
the unique one (up to a global cube root of unity and curve inversion) under
which the basis satisfies the whole invariant suite at once: the Hesse
identity with a single modulus psi(tau), the negation symmetries

    th0(-z) = -th0(z),   th1(-z) = -th2(z),   th2(-z) = -th1(z),

and [th0 : th1 : th2](0) = [0 : 1 : -1].  Every th_i obeys the same
quasi-periodicity law (Mumford, Tata Lectures on Theta I, 1983),

    th_i(z + m + n*tau) = (-1)^(m+n) * exp(-3*pi*i*n^2*tau - 6*pi*i*n*z) * th_i(z),

so the automorphy factor is known in closed form (automorphy_factor).  One
consequence worth knowing: the basis is anti-periodic in the first lattice
direction, th_i(z + 1) = -th_i(z), so the factor at lambda = 1 is the
constant -1, not +1.  That sign is forced (sections with inflectional zero
sets and plain parity cannot be 1-periodic) and is harmless: every cocycle
and section-transport identity holds with it.

All values come from theta_jet, which sums the three series once over a
window of indices around the peak term and gets every derivative order
0..m from that one sum (term-wise differentiation multiplies each term by a
power of 6*pi*i*(n+a)).  The window is the narrowest one for which an
a-priori Gaussian tail bound (Deconinck et al., "Computing Riemann theta
functions", Math. Comp. 2004) keeps the discarded tail below TRUNC_EPS times
the largest retained term at every requested order.  A window wider than
600 terms per side raises NonconvergentSeries and a sum that overflows
double precision raises ThetaOverflow; nothing is truncated silently.  The
terms are added from the outside in, so a wider window only prepends
negligible terms.  A batch of z, each with its own derivative order, is one
sum over its widest window, with every term outside a point's own window (the
one its order needs) exactly 0: each row, up to its order, is that point's
sum.  Every jet summed is cached per (tau, z, order), and theta_jets and
theta_jet sum only the points they do not find there.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateProbe, InconsistentPsi, NonconvergentSeries, OrderTooHigh,
                     ThetaOverflow)

MAX_ORDER = 12
# relative size of the discarded series tail
TRUNC_EPS = 1e-30
# residual tolerance of the consistency guards built into the evaluators
CHECK_TOL = 1e-9
# window half-width beyond which a series counts as nonconvergent
_MAX_HALF_WIDTH = 600
# jets kept per process, one per (tau, z, order); a check request reads about 90
_CACHE_SIZE = 256
# relative rounding of numpy's log, log1p and expm1 that the window search allows for
_ROUNDING = 1e-12

_TWO_PI_I = 2j * math.pi

# index k -> characteristic a_k of Theta[a_k, 1/2](3z, 3tau), constant phase
_OMEGA = cmath.exp(2j * math.pi / 3)
_CHAR_A = (0.5, 1.0 / 6.0, 5.0 / 6.0)
_PHASE = (1.0 + 0.0j, _OMEGA ** 2, _OMEGA)
_CHAR_B = 0.5
_CHAR_A_ARRAY = np.array(_CHAR_A)
_PHASE_ARRAY = np.array(_PHASE)
_BINOM = np.array([[math.comb(i, j) for j in range(MAX_ORDER + 1)]
                   for i in range(MAX_ORDER + 1)], dtype=float)

# probes for the modulus, chosen away from zeros of theta0*theta1*theta2
_PSI_PROBES = (0.17, 0.31 + 0.2j, 0.23 - 0.11j, 0.41 + 0.07j, 0.13 + 0.29j)
# a probe counts only if |th0*th1*th2| / max|th_i|^3 reaches this
_PROBE_CUT = 1e-6


@dataclass(frozen=True)
class ThetaContext:
    """The lattice parameter tau, in the upper half-plane."""

    tau: complex

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise NonconvergentSeries(f"Im(tau) must be positive, got tau={self.tau}")


def _least_radius(s: float) -> int:
    """The Gaussian estimate of the half-width, where every window search starts."""
    return max(0, math.ceil(math.sqrt(max(0.0, -math.log(TRUNC_EPS)) / (math.pi * s)) - 0.5))


def _half_width(t_star: float, centers: list[float], s: float, order: int) -> int | None:
    """Smallest R >= the Gaussian estimate whose window meets the tail bound.

    Write |exp(pi*i*t^2*sigma + 2*pi*i*t*(u+b))| = P * exp(-pi*s*(t - t*)^2)
    with s = Im sigma, t* = -Im(u)/s and P independent of t.  For one
    characteristic a the window is t = c + j, |j| <= R, around the lattice
    point c = n + a nearest t* (one entry of `centers`).  Every discarded t
    has |t - t*| >= rho = R + 1/2, and the discarded distances on each side
    step by 1.  With |t| <= |t*| + |t - t*| an order-m term there is at most
    P*h(|t - t*|),

        h(y) = (6*pi*(|t*| + y))^m * exp(-pi*s*y^2),

    and for y >= rho

        h(y+1)/h(y) <= q = (1 + 1/(|t*| + rho))^m * exp(-pi*s*(2*rho + 1)).

    If q < 1 each side sums to at most P*h(rho)/(1 - q), a geometric series.
    The window is accepted when 2*h(rho)/(1 - q) <= TRUNC_EPS * |6*pi*c|^m *
    exp(-pi*s*(c - t*)^2) for every characteristic: the discarded tail is
    then at most TRUNC_EPS times the retained term at c, hence at most
    TRUNC_EPS times the largest retained term.  Because |c| <= |t*| + rho and
    q grows with m, the test at m = `order` covers every lower order.  None
    if no R up to _MAX_HALF_WIDTH is accepted.
    """
    log_eps = math.log(TRUNC_EPS)
    reference = log_eps + min(order * math.log(6 * math.pi * abs(c))
                              - math.pi * s * (c - t_star) ** 2 for c in centers)
    r = _least_radius(s)
    while r <= _MAX_HALF_WIDTH:
        rho = r + 0.5
        reach = abs(t_star) + rho
        log_q = order * math.log1p(1.0 / reach) - math.pi * s * (2 * rho + 1)
        if log_q < 0 and (math.log(2.0) + order * math.log(6 * math.pi * reach)
                          - math.pi * s * rho * rho
                          - math.log(-math.expm1(log_q))) <= reference:
            return r
        r += 1
    return None


def _half_widths(t_star: np.ndarray, centers: np.ndarray, s: float,
                 orders: np.ndarray) -> list[int | None]:
    """_half_width of every point, each at its own order, searched over the batch at once.

    numpy's log, log1p and expm1 may round unlike math's in the last ulp.  So
    a test at any R counts only if its sign of log q and its acceptance
    comparison hold by more than _ROUNDING times the size of the terms that
    form them; a point with a closer test, or with a non-finite one, is
    searched again by _half_width.  Every radius is therefore _half_width's.
    """
    log_eps = math.log(TRUNC_EPS)
    radii = np.full(len(t_star), -1)
    with np.errstate(all="ignore"):
        powers = orders[:, None] * np.log(6 * math.pi * np.abs(centers))
        gauss = math.pi * s * (centers - t_star[:, None]) ** 2
        reference = log_eps + np.min(powers - gauss, axis=1)
        size = -log_eps + np.max(np.abs(powers) + gauss, axis=1)
        recheck = ~np.isfinite(reference)
        pending, distance = np.flatnonzero(~recheck), np.abs(t_star)
        r = _least_radius(s)
        while pending.size and r <= _MAX_HALF_WIDTH:
            rho = r + 0.5
            reach, order = distance[pending] + rho, orders[pending]
            growth, decay = order * np.log1p(1.0 / reach), math.pi * s * (2 * rho + 1)
            log_q, peak = growth - decay, math.pi * s * rho * rho
            power, tail = order * np.log(6 * math.pi * reach), np.log(-np.expm1(log_q))
            margin = reference[pending] - (math.log(2.0) + power - peak - tail)
            # an error e in log q moves tail by e * q / (1 - q) <= e / (1 - q) = e * exp(-tail)
            slack = _ROUNDING * (size[pending] + np.abs(power) + peak + np.abs(tail)
                                 + (growth + decay) * np.exp(-tail))
            converges = log_q < -_ROUNDING * (growth + decay)
            accept = converges & (margin >= slack)
            reject = (log_q > _ROUNDING * (growth + decay)) | (converges & (margin < -slack))
            radii[pending[accept]] = r
            recheck[pending[~(accept | reject)]] = True
            pending = pending[reject]
            r += 1
    out = [None if r < 0 else r for r in radii.tolist()]
    for i in np.flatnonzero(recheck).tolist():
        out[i] = _half_width(float(t_star[i]), centers[i].tolist(), s, int(orders[i]))
    return out


@functools.lru_cache(maxsize=64)
def _outside_in(r: int) -> np.ndarray:
    """Offsets -r..r in summation order r, -r, r-1, ..., 1, -1, 0.

    Summing from the outside in means a wider window only prepends terms
    that are negligible against every partial sum they meet.
    """
    return np.array([sign * j for j in range(r, 0, -1) for sign in (1, -1)] + [0],
                    dtype=float)


def _sum_jets(tau: complex, zs: tuple, orders: tuple) -> np.ndarray:
    """The read-only (len(zs), max(orders)+1, 3) jets at zs, row i over the window
    of orders[i]: its orders up to orders[i] are that point's one-point sum."""
    sigma = 3 * tau
    t_star = np.array([-(3 * z).imag / sigma.imag for z in zs])
    offsets = t_star[:, None] - _CHAR_A_ARRAY
    for bad in offsets[~np.isfinite(offsets)][:1].tolist():
        round(bad)  # raises ValueError or OverflowError, as round(t - a) of one point
    starts, orders = np.round(offsets), np.array(orders, dtype=int)
    radii = _half_widths(t_star, starts + _CHAR_A_ARRAY, sigma.imag, orders)
    if None in radii:
        raise NonconvergentSeries(f"theta series needs more than {_MAX_HALF_WIDTH} terms per "
                                  f"side at z = {zs[radii.index(None)]}, Im(3 tau) = "
                                  f"{sigma.imag:.3e}, trunc_eps = {TRUNC_EPS:.1e}")
    # Python complex arithmetic: numpy's complex product rounds differently
    linear = np.array([_TWO_PI_I * (3 * z + _CHAR_B) for z in zs], dtype=complex)
    width, top = max(radii, default=0), int(orders.max(initial=0))
    t = (starts[:, :, None] + _outside_in(width)) + _CHAR_A_ARRAY[:, None]
    terms = np.empty((top + 1,) + t.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        terms[0] = np.exp(t * (t * (1j * math.pi * sigma) + linear.reshape(-1, 1, 1)))
        # point i's own window is its last 2r+1 offsets: every term before them is 0
        outside = np.arange(2 * width + 1) < 2 * (width - np.array(radii, dtype=int))[:, None]
        np.copyto(terms[0], 0, where=outside[:, None, :])
        terms[1:] = 3 * _TWO_PI_I * t  # d/dz = 3 d/du at u = 3z
        # in place: at a tiny Im tau the window holds hundreds of terms per point
        np.cumprod(terms, axis=0, out=terms)
        jets = np.cumsum(terms, axis=-1, out=terms)[..., -1] * _PHASE_ARRAY
    # each row laid out as a one-point sum's: numpy may add strided input in another order
    jets = np.ascontiguousarray(jets.swapaxes(0, 1))
    # the orders above a point's own come from a window too narrow for them
    wanted = np.arange(top + 1) <= orders[:, None]
    broken = wanted & ~np.isfinite(jets).all(axis=-1)
    if broken.any():
        # the first point in zs with a non-finite row, and its lowest such order
        first, order = (int(i) for i in np.argwhere(broken)[0])
        raise ThetaOverflow(f"theta series overflows at z = {zs[first]}, tau = {tau} "
                            f"(derivative order {order})", order=order)
    jets.flags.writeable = False
    return jets


# (tau, z, order) -> that point's read-only (order+1, 3) jet, oldest first
_JETS: dict[tuple[complex, complex, int], np.ndarray] = {}


def theta_jets(zs, orders, ctx: ThetaContext) -> list[np.ndarray]:
    """The (orders[i]+1, 3) jet at each zs[i], each at its own order.

    Rows already cached are read; every other (z, order) is summed in one
    batch, each bit-identical to the one-point sum at its order, and cached.
    If that sum raises, nothing is cached.
    """
    tau = complex(ctx.tau)
    keys = [(tau, complex(z), int(m)) for z, m in zip(zs, orders)]
    if min(orders, default=0) < 0:
        raise ValueError("order must be non-negative")
    if max(orders, default=0) > MAX_ORDER:
        raise OrderTooHigh(f"derivative order {max(orders)} exceeds the cap {MAX_ORDER}")
    found = {key: _JETS.get(key) for key in keys}
    misses = [key for key, jet in found.items() if jet is None]
    if misses:
        jets = _sum_jets(tau, tuple(z for _, z, _ in misses), tuple(m for _, _, m in misses))
        for i, key in enumerate(misses):
            found[key] = _JETS[key] = jets[i, :key[2] + 1]
        for key in list(itertools.islice(_JETS, max(0, len(_JETS) - _CACHE_SIZE))):
            del _JETS[key]
    return [found[key] for key in keys]


def theta_jet(z, ctx: ThetaContext, max_order: int = 0) -> np.ndarray:
    """Row m holds the m-th z-derivatives of (th0, th1, th2) at z, m <= max_order.

    A 1-D array of z gives the (len(z), max_order+1, 3) jets, each row
    bit-identical to the scalar call's array; the points are read through
    theta_jets, so only those not yet cached at max_order are summed, in one
    batch.  The result is read-only.
    """
    zs = np.asarray(z, dtype=complex)
    points = zs.ravel().tolist()
    jets = theta_jets(points, [max_order] * len(points), ctx)
    if zs.ndim == 0:
        return jets[0]
    out = np.array(jets).reshape(len(points), max_order + 1, 3)
    out.flags.writeable = False
    return out


def hesse_psi(ctx: ThetaContext) -> complex:
    """Modulus psi(tau) = (th0^3 + th1^3 + th2^3) / (3 th0 th1 th2).

    Evaluated at several probe points in one sum; the values must agree to
    CHECK_TOL, otherwise the basis itself is wrong and InconsistentPsi is raised.
    """
    values, ratios = [], []
    # Python scalars, not numpy: psi is emitted and must stay bit-reproducible
    for v in theta_jet(np.array(_PSI_PROBES), ctx)[:, 0].tolist():
        scale = max(abs(c) for c in v)
        prod = v[0] * v[1] * v[2]
        ratios.append(abs(prod) / scale ** 3)
        if abs(prod) < _PROBE_CUT * scale ** 3:
            continue
        values.append((v[0] ** 3 + v[1] ** 3 + v[2] ** 3) / (3 * prod))
    if not values:
        raise DegenerateProbe(f"no probe point clears the cut |th0*th1*th2| >= {_PROBE_CUT:.0e} "
                              f"* max|th_i|^3: the largest ratio is {max(ratios):.2e}")
    spread = max(abs(p - q) for p in values for q in values)
    if spread > CHECK_TOL:
        raise InconsistentPsi(f"psi spread {spread:.3e} exceeds check_tol {CHECK_TOL:.1e}")
    return sum(values) / len(values)


def leibniz_product(u, v) -> np.ndarray:
    """Jet of a product along axis 0: (u*v)^(m) = sum_j C(m,j) u^(j) v^(m-j)."""
    u, v = np.asarray(u), np.asarray(v)
    return np.array([_BINOM[i, :i + 1] @ (u[:i + 1] * v[i::-1])
                     for i in range(min(len(u), len(v)))])


def leibniz_quotient(num, den) -> np.ndarray:
    """Jet of f = num/den along axis 0, from num^(m) = (f*den)^(m).

    den is the jet of one scalar function; num may carry trailing axes.
    """
    num, den = np.asarray(num), np.asarray(den)
    m = min(len(num), len(den))
    f = np.empty(num[:m].shape, dtype=complex)
    for i in range(m):
        f[i] = (num[i] - (_BINOM[i, 1:i + 1] * den[1:i + 1]) @ f[:i][::-1]) / den[0]
    return f


def automorphy_factor(m: int, n: int, w: complex, tau: complex, max_order: int) -> np.ndarray:
    """Jet in w of e(m + n*tau, w) = th_i(w + m + n*tau) / th_i(w), the same for every i:

        (-1)^(m+n) * exp(-3*pi*i*n^2*tau - 6*pi*i*n*w) * (-6*pi*i*n)^j,  j = 0..max_order.

    At n = 0 this is the constant (-1)^m, every derivative 0 (0 ** 0 is 1).
    """
    value = (-1) ** (m + n) * cmath.exp(-3j * math.pi * n * n * tau - 6j * math.pi * n * w)
    return value * (-6j * math.pi * n) ** np.arange(max_order + 1)


def basis_provenance() -> dict:
    """How the basis was pinned; shipped with every emitted bundle."""
    return {
        "series": "Theta[a,b](u,sigma) = sum_n exp(pi*i*(n+a)^2*sigma + 2*pi*i*(n+a)*(u+b))",
        "arguments": "(u, sigma) = (3z, 3tau), b = 1/2",
        "characteristics": list(_CHAR_A),
        "phases": [[p.real, p.imag] for p in (complex(q) for q in _PHASE)],
        "pinned_by": ["hesse identity", "negation symmetries", "origin [0:1:-1]",
                      "moore relations", "real psi at tau=i"],
        "period_1_factor": -1.0,
        "note": "basis is anti-periodic under z -> z+1; e(1,z) = -1 exactly",
    }
