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

and [th0 : th1 : th2](0) = [0 : 1 : -1].  One consequence worth knowing:
this basis is anti-periodic in the first lattice direction,

    th_i(z + 1) = -th_i(z),

so the scalar automorphy factor at lambda = 1 is the constant -1, not +1.
That sign is forced (sections with inflectional zero sets and plain parity
cannot be 1-periodic) and is harmless: every cocycle and section-transport
identity below holds with it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (AllIndicesDegenerate, DegenerateProbe, InconsistentFactor,
                     InconsistentPsi, NonconvergentSeries, OrderTooHigh)

MAX_ORDER = 12

_TWO_PI_I = 2j * math.pi

# index k -> characteristic a_k of Theta[a_k, 1/2](3z, 3tau), constant phase
_OMEGA = cmath.exp(2j * math.pi / 3)
_CHAR_A = (0.5, 1.0 / 6.0, 5.0 / 6.0)
_PHASE = (1.0 + 0.0j, _OMEGA ** 2, _OMEGA)
_CHAR_B = 0.5

# probes for the modulus, chosen away from zeros of theta0*theta1*theta2
_PSI_PROBES = (0.17, 0.31 + 0.2j, 0.23 - 0.11j, 0.41 + 0.07j, 0.13 + 0.29j)


@dataclass(frozen=True)
class ThetaContext:
    """Lattice parameter and tolerances governing all series evaluation.

    tau lives in the upper half-plane; trunc_eps bounds the relative size of
    discarded series tails; check_tol is the residual tolerance used by the
    consistency guards built into the evaluators.
    """

    tau: complex
    trunc_eps: float = 1e-30
    check_tol: float = 1e-9

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise NonconvergentSeries(f"Im(tau) must be positive, got tau={self.tau}")
        if not self.trunc_eps > 0:
            raise ValueError("trunc_eps must be positive")
        if not self.check_tol > self.trunc_eps:
            raise ValueError("check_tol must exceed trunc_eps")


def _series(a: float, u: complex, sigma: complex, order: int, trunc_eps: float,
            extra_depth: int = 0) -> complex:
    """Sum (2*pi*i*(n+a))^order * exp(pi*i*(n+a)^2*sigma + 2*pi*i*(n+a)*(u+b)).

    Terms are added outward from the index of largest magnitude; each side
    stops after three consecutive terms below trunc_eps * (|partial sum| + 1).
    extra_depth forces that many additional terms per side (used by the
    truncation-stability check).
    """
    im_sigma = sigma.imag
    # |term| peaks where the real exponent -pi*(t^2 Im sigma + 2 t Im(u+b)) does
    t_star = -(u + _CHAR_B).imag / im_sigma
    n0 = round(t_star - a)

    def term(n: int) -> complex:
        t = n + a
        val = cmath.exp(1j * math.pi * t * t * sigma + _TWO_PI_I * t * (u + _CHAR_B))
        if order:
            val *= (_TWO_PI_I * t) ** order
        return val

    total = term(n0)
    for direction in (1, -1):
        small = 0
        forced = extra_depth
        n = n0
        while True:
            n += direction
            if abs(n - n0) > 600:
                break
            t = term(n)
            total += t
            if abs(t) < trunc_eps * (abs(total) + 1.0):
                small += 1
                if small >= 3:
                    if forced <= 0:
                        break
                    forced -= 1
                    small = 0
            else:
                small = 0
    return total


def theta_eval(index: int, z: complex, ctx: ThetaContext, order: int = 0,
               _extra_depth: int = 0) -> complex:
    """order-th z-derivative of th_index at z, by term-wise differentiation."""
    if index not in (0, 1, 2):
        raise ValueError(f"index must be 0, 1 or 2, got {index}")
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise OrderTooHigh(f"derivative order {order} exceeds the cap {MAX_ORDER}")
    if complex(ctx.tau).imag <= 0:
        raise NonconvergentSeries(f"Im(tau) must be positive, got tau={ctx.tau}")
    # d/dz = 3 d/du at u = 3z
    raw = _series(_CHAR_A[index], 3 * z, 3 * ctx.tau, order, ctx.trunc_eps,
                  extra_depth=_extra_depth)
    return _PHASE[index] * 3 ** order * raw


def theta_vector(z: complex, ctx: ThetaContext, order: int = 0) -> tuple[complex, complex, complex]:
    """(th0, th1, th2) at z, differentiated `order` times."""
    return tuple(theta_eval(i, z, ctx, order) for i in range(3))


def hesse_psi(ctx: ThetaContext) -> complex:
    """Modulus psi(tau) = (th0^3 + th1^3 + th2^3) / (3 th0 th1 th2).

    Evaluated at several probe points; the values must agree to check_tol,
    otherwise the basis itself is wrong and InconsistentPsi is raised.
    """
    values = []
    for z in _PSI_PROBES:
        v = theta_vector(z, ctx)
        scale = max(abs(c) for c in v)
        prod = v[0] * v[1] * v[2]
        if abs(prod) < 1e-6 * scale ** 3:
            continue
        values.append((v[0] ** 3 + v[1] ** 3 + v[2] ** 3) / (3 * prod))
    if not values:
        raise DegenerateProbe("every probe point hit a zero of theta0*theta1*theta2")
    spread = max(abs(p - q) for p in values for q in values)
    if spread > ctx.check_tol:
        raise InconsistentPsi(f"psi spread {spread:.3e} exceeds check_tol {ctx.check_tol:.1e}")
    return sum(values) / len(values)


def leibniz_product(u: list[complex], v: list[complex]) -> list[complex]:
    """Jet of a product: (u*v)^(m) = sum_j C(m,j) u^(j) v^(m-j)."""
    m = min(len(u), len(v))
    return [sum(math.comb(i, j) * u[j] * v[i - j] for j in range(i + 1)) for i in range(m)]


def leibniz_quotient(num: list[complex], den: list[complex]) -> list[complex]:
    """Jet of a quotient f = num/den, from num^(m) = (f*den)^(m)."""
    m = min(len(num), len(den))
    f: list[complex] = []
    for i in range(m):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= math.comb(i, j) * den[j] * f[i - j]
        f.append(acc / den[0])
    return f


def automorphy_factor(a_z: complex, lam: complex, z: complex, ctx: ThetaContext,
                      order: int = 0) -> complex:
    """order-th z-derivative of e_a(lambda, z) = th_i(z+a+lambda) / th_i(z+a).

    Uses the first index whose denominator is not near zero and checks that
    all non-degenerate indices give the same ratio.  For lambda = 1 the value
    is the constant -1 (the basis is anti-periodic); for lambda = tau it is
    -exp(-3*pi*i*tau - 6*pi*i*(z+a)).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise OrderTooHigh(f"derivative order {order} exceeds the cap {MAX_ORDER}")
    dens = [theta_eval(i, z + a_z, ctx) for i in range(3)]
    scale = max(abs(d) for d in dens)
    good = [i for i in range(3) if abs(dens[i]) > 1e-6 * scale] if scale > 0 else []
    if not good:
        raise AllIndicesDegenerate(f"theta basis vanishes at z+a = {z + a_z}")
    ratios = [theta_eval(i, z + a_z + lam, ctx) / dens[i] for i in good]
    base = ratios[0]
    worst = max(abs(r - base) for r in ratios)
    if worst > ctx.check_tol * (1.0 + abs(base)):
        raise InconsistentFactor(
            f"automorphy ratio disagrees across indices by {worst:.3e}")
    if order == 0:
        return base
    i = good[0]
    num = [theta_eval(i, z + a_z + lam, ctx, m) for m in range(order + 1)]
    den = [theta_eval(i, z + a_z, ctx, m) for m in range(order + 1)]
    return leibniz_quotient(num, den)[order]


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
