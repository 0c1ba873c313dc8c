"""Moore matrices, their factorization partners, and a-derivatives.

For a point a = [a0 : a1 : a2] of the Hesse cubic the Moore matrix is

    M_{a,x} = | a0*x0  a2*x2  a1*x1 |
              | a2*x1  a1*x0  a0*x2 |
              | a1*x2  a0*x1  a2*x0 |

with det M = a0*a1*a2*(x0^3+x1^3+x2^3) - (a0^3+a1^3+a2^3)*x0*x1*x2, hence
det M = (a0*a1*a2) * w on the curve.  The quadratic partner L_{a,x} is
adj(M)/(a0*a1*a2), so M*L = L*M = w*I there: a rank-one matrix factorization
of the cubic.  Derivative matrices replace theta values by theta derivatives
at a; derivatives of L go through the rational coefficient functions by the
chain rule.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .curve import ProjectivePoint, embed
from .errors import DenominatorZero
from .poly import PolyMatrix, monomial_index
from .report import CheckReport, check
from .theta import ThetaContext, leibniz_product, leibniz_quotient, theta_jet, theta_vector

# (r, c) -> (p, q): entry a_p * x_q
MOORE_PATTERN = (
    ((0, 0), (2, 2), (1, 1)),
    ((2, 1), (1, 0), (0, 2)),
    ((1, 2), (0, 1), (2, 0)),
)

# entry (r, c) of a0*a1*a2 * L: a_p*a_q*x_r^2 - a_s^2*x_t*x_u
_L_TABLE = (
    (((1, 2), 0, 0, (1, 2)), ((0, 1), 1, 2, (0, 2)), ((0, 2), 2, 1, (0, 1))),
    (((0, 1), 2, 2, (0, 1)), ((0, 2), 0, 1, (1, 2)), ((1, 2), 1, 0, (0, 2))),
    (((0, 2), 1, 1, (0, 2)), ((1, 2), 2, 0, (0, 1)), ((0, 1), 0, 2, (1, 2))),
)


def _monomial(*indices) -> int:
    """Coefficient index of the monomial x_i * x_j * ... for the given indices."""
    exp = [0, 0, 0]
    for i in indices:
        exp[i] += 1
    return monomial_index(len(indices))[tuple(exp)]


def moore_from_coords(coords) -> PolyMatrix:
    """Moore-patterned matrix of linear forms from a raw coordinate triple."""
    a = [complex(v) for v in coords]
    out = PolyMatrix.zeros(3, 3, 1)
    for r, row in enumerate(MOORE_PATTERN):
        for c, (p, q) in enumerate(row):
            out.coeffs[r, c, _monomial(q)] = a[p]
    return out


def moore_matrix(a: ProjectivePoint) -> PolyMatrix:
    if min(abs(c) for c in a.coords) < 1e-8:
        warnings.warn("Moore matrix at a 3-torsion point is degenerate", stacklevel=2)
    return moore_from_coords(a.coords)


def _l_entries(quad, cross) -> PolyMatrix:
    """Entry (r, c) = quad(p, q) * x_r^2 - cross(s) * x_t*x_u, indices from _L_TABLE."""
    out = PolyMatrix.zeros(3, 3, 2)
    for r in range(3):
        for c in range(3):
            (p, q), sq_var, s, (t, u) = _L_TABLE[r][c]
            out.coeffs[r, c, _monomial(sq_var, sq_var)] = quad(p, q)
            out.coeffs[r, c, _monomial(t, u)] = -cross(s)
    return out


def l_from_coords(coords) -> PolyMatrix:
    a = [complex(v) for v in coords]
    scale = max(abs(v) for v in a)
    if min(abs(v) for v in a) < 1e-9 * scale:
        raise DenominatorZero("L matrix needs all coordinates nonzero (point in E[3])")
    pref = 1.0 / (a[0] * a[1] * a[2])
    return _l_entries(lambda p, q: pref * a[p] * a[q], lambda s: pref * a[s] ** 2)


def l_matrix(a: ProjectivePoint) -> PolyMatrix:
    return l_from_coords(a.coords)


def moore_derivative(a_z: complex, ctx: ThetaContext, i: int = 0) -> PolyMatrix:
    """Moore-patterned matrix with coefficients theta^(i)(a_z).

    i = 0 reproduces moore_matrix(embed(a_z)) up to the normalization scalar
    of the projective representative.
    """
    return moore_from_coords(theta_vector(a_z, ctx, order=i))


def l_derivative(a_z: complex, ctx: ThetaContext, max_order: int) -> list[PolyMatrix]:
    """[L, L', ..., L^(max_order)]: a-derivatives of L_{a,x} along a_j = theta_j(a_z).

    Each coefficient of L is a ratio of products of theta values; the jets of
    all six ratios come from one Leibniz quotient over the theta jet at a_z,
    no finite differences.
    """
    jet = theta_jet(a_z, ctx, max_order)
    values = np.abs(jet[0])
    if values.min() < 1e-9 * values.max():
        raise DenominatorZero("L derivative needs all coordinates nonzero (point in E[3])")
    den = leibniz_product(leibniz_product(jet[:, 0], jet[:, 1]), jet[:, 2])
    # numerators a_p*a_q for the pairs, then a_s^2
    left, right = [1, 0, 0, 0, 1, 2], [2, 1, 2, 0, 1, 2]
    ratios = leibniz_quotient(leibniz_product(jet[:, left], jet[:, right]), den).tolist()
    slot = {(1, 2): 0, (0, 1): 1, (0, 2): 2}
    return [_l_entries(lambda p, q: row[slot[p, q]], lambda s: row[3 + s])
            for row in ratios]


def theta_relation_residuals(a_z: complex, z: complex, ctx: ThetaContext,
                             order: int = 0) -> CheckReport:
    """Residual of sum_j C(order,j) M^(j)_{a,x(z)} theta^(order-j)(z+a) = 0.

    Three scalar identities per order, evaluated at x = embed(z); the order-0
    case is the Moore relation itself, order >= 1 its a-derivatives.
    """
    if order > 8:
        raise ValueError("relation order capped at 8")
    x = embed(z, ctx).coords
    a_jet = theta_jet(a_z, ctx, order).tolist()
    y_jet = theta_jet(z + a_z, ctx, order).tolist()
    residuals = [0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j]
    for j in range(order + 1):
        avec, yvec = a_jet[j], y_jet[order - j]
        weight = math.comb(order, j)
        for r in range(3):
            residuals[r] += weight * sum(avec[p] * x[q] * yvec[col]
                                         for col, (p, q) in enumerate(MOORE_PATTERN[r]))
    worst = max(abs(v) for v in residuals)
    tol = ctx.check_tol * 10 ** min(order, 2)
    return check("moore.relation", worst, tol,
                 inputs={"a_z": complex(a_z), "z": complex(z),
                         "tau": complex(ctx.tau), "order": order})
