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

The Moore and L patterns are fixed index arrays built at import: a matrix,
or a stack of them, is one fancy-index assignment of its coordinates (Moore)
or of its six coefficient ratios (L) into a zero coefficient array.
"""
from __future__ import annotations

import numpy as np

from .curve import embed
from .errors import DenominatorZero
from .poly import PolyMatrix, monomial_index
from .report import CheckReport, check
from .theta import _BINOM, CHECK_TOL, ThetaContext, leibniz_product, leibniz_quotient, theta_jet

# (r, c) -> (p, q): entry a_p * x_q
MOORE_PATTERN = (
    ((0, 0), (2, 2), (1, 1)),
    ((2, 1), (1, 0), (0, 2)),
    ((1, 2), (0, 1), (2, 0)),
)

# entry (r, c) of a0*a1*a2 * L: a_p*a_q*x_v^2 - a_s^2*x_t*x_u
_L_TABLE = (
    (((1, 2), 0, 0, (1, 2)), ((0, 1), 1, 2, (0, 2)), ((0, 2), 2, 1, (0, 1))),
    (((0, 1), 2, 2, (0, 1)), ((0, 2), 0, 1, (1, 2)), ((1, 2), 1, 0, (0, 2))),
    (((0, 2), 1, 1, (0, 2)), ((1, 2), 2, 0, (0, 1)), ((0, 1), 0, 2, (1, 2))),
)

# the six coefficient ratios of L, in this order, over a0*a1*a2
_L_PAIRS = ((1, 2), (0, 1), (0, 2), (0, 0), (1, 1), (2, 2))


def _monomial(*indices) -> int:
    """Coefficient index of the monomial x_i * x_j * ... for the given indices."""
    exp = [0, 0, 0]
    for i in indices:
        exp[i] += 1
    return monomial_index(len(indices))[tuple(exp)]


# Fixed scatter patterns: coefficient array positions (row, col, monomial)
# and the source slot of the value written there.
_ROWS, _COLS = np.divmod(np.arange(9), 3)
_MOORE_P = np.array([[p for p, _ in row] for row in MOORE_PATTERN])
_MOORE_Q = np.array([[q for _, q in row] for row in MOORE_PATTERN])
_MOORE_MONO = np.array([_monomial(q) for q in _MOORE_Q.ravel()])
_L_ENTRIES = [entry for row in _L_TABLE for entry in row]
_L_POS = (np.tile(_ROWS, 2), np.tile(_COLS, 2),
          np.array([_monomial(v, v) for _, v, _, _ in _L_ENTRIES]
                   + [_monomial(t, u) for _, _, _, (t, u) in _L_ENTRIES]))
# slots 0..5 hold the ratios, 6..11 their negatives
_L_SRC = np.array([_L_PAIRS.index(pq) for pq, _, _, _ in _L_ENTRIES]
                  + [9 + s for _, _, s, _ in _L_ENTRIES])


def moore_from_coords(coords) -> PolyMatrix:
    """Moore-patterned matrices of linear forms from coordinate triples (..., 3)."""
    a = np.asarray(coords, dtype=complex)
    out = np.zeros(a.shape[:-1] + (3, 3, 3), dtype=complex)
    out[..., _ROWS, _COLS, _MOORE_MONO] = a[..., _MOORE_P.ravel()]
    return PolyMatrix(out)


def _l_entries(ratios) -> PolyMatrix:
    """L-patterned matrices from the ratios (..., 6) in _L_PAIRS order."""
    ratios = np.asarray(ratios, dtype=complex)
    signed = np.concatenate([ratios, -ratios], axis=-1)
    out = np.zeros(ratios.shape[:-1] + (3, 3, 6), dtype=complex)
    out[(...,) + _L_POS] = signed[..., _L_SRC]
    return PolyMatrix(out)


def l_from_coords(coords) -> PolyMatrix:
    """L partners of coordinate triples (..., 3); the ratios use Python complex
    arithmetic, which rounds unlike numpy's, to keep emitted L reproducible."""
    a = np.asarray(coords, dtype=complex)
    ratios = []
    for point in a.reshape(-1, 3).tolist():
        scale = max(abs(v) for v in point)
        if min(abs(v) for v in point) < 1e-9 * scale:
            raise DenominatorZero("L matrix needs all coordinates nonzero (point in E[3])")
        pref = 1.0 / (point[0] * point[1] * point[2])
        ratios.append([pref * point[p] * point[q] for p, q in _L_PAIRS[:3]]
                      + [pref * v ** 2 for v in point])
    return _l_entries(np.reshape(ratios, a.shape[:-1] + (6,)))


def l_derivative(a_z: complex, ctx: ThetaContext, max_order: int) -> PolyMatrix:
    """The stack L, L', ..., L^(max_order): a-derivatives of L_{a,x} along a_j = theta_j(a_z).

    Each coefficient of L is a ratio of products of theta values; the jets of
    all six ratios come from one Leibniz quotient over the theta jet at a_z,
    no finite differences.
    """
    jet = theta_jet(a_z, ctx, max_order)
    values = np.abs(jet[0])
    if values.min() < 1e-9 * values.max():
        raise DenominatorZero("L derivative needs all coordinates nonzero (point in E[3])")
    den = leibniz_product(leibniz_product(jet[:, 0], jet[:, 1]), jet[:, 2])
    left, right = (list(v) for v in zip(*_L_PAIRS))
    ratios = leibniz_quotient(leibniz_product(jet[:, left], jet[:, right]), den)
    return _l_entries(ratios)


def theta_relation_residuals(a_z, z, ctx: ThetaContext,
                             max_order: int = 0) -> list[CheckReport]:
    """Residuals of sum_j C(n,j) M^(j)_{a,x(z)} theta^(n-j)(z+a) = 0, n = 0..max_order.

    Three scalar identities per order, evaluated at x = embed(z); the order-0
    case is the Moore relation itself, order >= 1 its a-derivatives.  Every
    order comes from the jets at a and z+a in one contraction; one report per
    order.  a_z and z may be 1-D arrays: each report then holds the worst
    pair of the grid a_z x z, with one theta sum at all a and one at all z+a.
    """
    if max_order > 8:
        raise ValueError("relation order capped at 8")
    a = np.atleast_1d(np.asarray(a_z, dtype=complex))
    y = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.array([p.coords for p in embed(y, ctx)])
    a_jet = theta_jet(a, ctx, max_order)  # its own sum: one a is cached for later calls
    y_jet = theta_jet((y + a[:, None]).ravel(), ctx, max_order)
    # moore[(a, z), j, r, c] = theta_p^(j)(a) * x_q for (p, q) = MOORE_PATTERN[r][c]
    moore = a_jet[:, None, :, _MOORE_P] * x[:, None, _MOORE_Q]
    moore = moore.reshape(-1, max_order + 1, 3, 3)
    orders = np.arange(max_order + 1)
    # weights[n, j, i] = C(n, j) if i = n - j (the Leibniz rule), else 0
    weights = _BINOM[:max_order + 1, :max_order + 1, None] * np.eye(max_order + 1)[
        np.subtract.outer(orders, orders)]
    residuals = np.einsum("nji,pjrc,pic->pnr", weights, moore, y_jet)
    worst = np.max(np.abs(residuals), axis=(0, 2))
    pairs = {"a_z": np.asarray(a_z, dtype=complex).tolist(),
             "z": np.asarray(z, dtype=complex).tolist(), "tau": complex(ctx.tau)}
    return [check(f"moore.relation.order{n}", worst[n], CHECK_TOL * 10 ** min(n, 2),
                  inputs={**pairs, "order": n}) for n in range(max_order + 1)]
