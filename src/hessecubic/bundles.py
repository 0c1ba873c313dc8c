"""Rank-(k+1) block presentations built from Moore matrices.

Two constructions of the 3(k+1)-square presentation matrix:

* analytic: block (i, j) = C(k-i, j-i) * M^(j-i)_{a,x} from theta derivative
  matrices (partner B likewise from L derivatives), a matrix factorization
  A*B = B*A = w*I of the Hesse cubic;
* algebraic: block (i, j) = C(k-i, j-i) * lambda_{j-i} * M_{(-2)^{j-i} a, x}
  from iterated point doubling, equivalent to the analytic one after the
  derivative-elimination row operations once the per-offset scalars lambda
  are calibrated.

The analytic A is the Moore matrix of theta(a + eps) over the ring of
(k+1)-jets: block (i, j) is C(k-i, j-i) * J[j-i] with J[d] = M^(d).  By the
Leibniz rule block (i, i+d) of A*B is C(k-i, d) * S_d, where
S_d = sum_e C(d, e) * M^(e) * L^(d-e), so the factorization gate judges the
k+1 jet products S_d (factorization_errors) and never multiplies the
3(k+1)-square pair.  On a built pair it reads the jets from the last block
column and compares every other block with its pattern exactly
(verify_factorization).

The elimination rests on the componentwise identity

    theta'_i(a) = s(a) * theta_i(a) + c * V_i(a),

where V(a) = [a0(a2^3-a1^3), a1(a0^3-a2^3), a2(a1^3-a0^3)] / (a0*a1*a2) is
the tangent-line representative of -2a and c does not depend on a.  Nor on
a lattice translate of a: theta(a + m + n*tau) = e*theta(a) and V is
homogeneous of degree 1, so the fits along the doubling orbit use (-2)^l a
reduced into the fundamental parallelogram, where theta stays bounded.

The calibrated scalars solve the two-sided block equivalence
U * A_analytic * W = A_algebraic(lambda) with U, W unit upper triangular.
Moore-pattern blocks are linear in their coefficient vectors, so A and the
target T(lambda) are (k+1, k+1, 3) arrays.  A is block upper triangular, so
the bottom-right s x s block corner of U*A*W involves only the corners of U
and W: shifted to the top left it is the order s-1 problem, with the same
lambda_1..lambda_{s-1}.  Adding block row r to the solved rows below it adds
equations (U*A*W)[r, j] = lambda_{j-r} * T[r, j] that are linear in the new
unknowns u_{r,j}, w_{r,j} and lambda_{k-r}, because u_rr = w_rr = 1 and every
other factor is already known.  Two of those unknowns, u_{r,k} and w_{r,k},
meet only in block (r, k) and with the same coefficient A[k, k], so row r
fixes only their sum; pinning w_{r,k} = 0 leaves each row system of full
rank.  So k linear least-squares solves, bottom row first, give U, W and
lambda; a few Gauss-Newton steps on the whole system (residual: the upper
triangle of U*A*W - T; Jacobian by the product rule) polish them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .curve import ProjectivePoint, doubling_orbit, embed
from .errors import (CalibrationFailed, DegenerateOrbit, DenominatorZero, IllConditioned,
                     SamplingFailed, SizeMismatch, ThetaOverflow)
from .moore import l_derivative, moore_from_coords
from .poly import (PolyMatrix, _degree, _product_table, det_scalar_fit, eval_matrix, evaluate,
                   hesse_form, monomial_index, monomials, numeric_rank)
from .report import CheckReport, check
from .theta import _BINOM, ThetaContext, automorphy_factor, theta_jet


@dataclass(frozen=True)
class UlrichSpec:
    """Rank bookkeeping for one presentation: bundle rank = k + 1."""

    k: int
    ctx: ThetaContext
    a_z: complex

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")

    @property
    def size(self) -> int:
        return 3 * (self.k + 1)


# ---------------------------------------------------------------------------
# analytic construction
# ---------------------------------------------------------------------------

def analytic_jets(spec: UlrichSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1, 3, 3, m) coefficient stacks M, M', ..., M^(k) and L, L', ..., L^(k) at a."""
    return (moore_from_coords(theta_jet(spec.a_z, spec.ctx, spec.k)).coeffs,
            l_derivative(spec.a_z, spec.ctx, spec.k).coeffs)


def build_analytic(spec: UlrichSpec) -> tuple[PolyMatrix, PolyMatrix]:
    """The derivative block matrices (A, B); upper triangular, 3(k+1) square."""
    return tuple(_block_matrix(_offset_blocks(jets)) for jets in analytic_jets(spec))


def _block_binomials(k: int) -> list[list[int]]:
    """C(k-i, j-i), the weight of block (i, j) in every construction; 0 below the diagonal."""
    return [[math.comb(k - i, j - i) if j >= i else 0 for j in range(k + 1)]
            for i in range(k + 1)]


def _offset_blocks(jets) -> np.ndarray:
    """(k+1, k+1, ...) array with block (i, j) = C(k-i, j-i) * jets[j-i], zero below."""
    jets = np.asarray(jets)
    i, j = _triu(len(jets))
    weights = _offset_weights(len(jets) - 1)
    out = np.zeros((len(jets),) + jets.shape, dtype=complex)
    out[i, j] = weights.reshape((-1,) + (1,) * (jets.ndim - 1)) * jets[j - i]
    return out


@functools.lru_cache(maxsize=32)
def _offset_weights(k: int) -> np.ndarray:
    """C(k-i, j-i) at the (i, j) of np.triu_indices(k+1), as integers."""
    return np.array(_block_binomials(k))[_triu(k + 1)]


# np.triu_indices costs ~20 us a call and each Gauss-Newton step needs four;
# the cached arrays are shared, so callers only index with them
_triu = functools.lru_cache(maxsize=32)(np.triu_indices)


def _block_matrix(blocks: np.ndarray) -> PolyMatrix:
    """The 3(k+1)-square polynomial matrix with the (k+1, k+1, 3, 3, m) blocks."""
    size = 3 * len(blocks)
    return PolyMatrix(blocks.transpose(0, 2, 1, 3, 4).reshape(size, size, -1))


@functools.lru_cache(maxsize=16)
def _series_plan(k: int, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather index d - e and weight C(d, e) of term e of S_d, as [e, d] arrays (weight
    0 for e > d), and for X*Y and Y*X the table from coefficient slot pairs to monomials.

    Every jet entry is padded to max(m1, m2) + 1 slots, the last one holding
    its norm; the tables send every pair with a pad or a norm slot nowhere.
    """
    e, d = np.indices((k + 1, k + 1))
    width = max(m1, m2) + 1
    tables = np.zeros((2, width, width, len(monomials(_degree(m1) + _degree(m2)))),
                      dtype=complex)
    tables[0, :m1, :m2] = _product_table(_degree(m1), _degree(m2)).reshape(m1, m2, -1)
    tables[1, :m2, :m1] = _product_table(_degree(m2), _degree(m1)).reshape(m2, m1, -1)
    weight = _BINOM[:k + 1, :k + 1].T[..., None, None, None]
    return np.maximum(d - e, 0), weight, tables.reshape(2, width ** 2, -1)


def factorization_errors(left: np.ndarray, right: np.ndarray, psi: complex) -> np.ndarray:
    """Entrywise backward errors of S_d = w * I * delta_d0, d = 0..K, for the jet products
    S_d = sum_e C(d, e) * X^(e) * Y^(d-e) with (X, Y) = (M, L) and (L, M) (module
    docstring): a (2, K+1) array, row 0 for A*B and row 1 for B*A.

    left and right are the (K+1, 3, 3, m) coefficient stacks of the M and L
    jets.  Entry (r, c) of S_d - w*I*delta_d0 is measured against the terms
    that form it,

        sum_e C(d, e) * sum_s |X^(e)_rs| * |Y^(d-e)_sc| + |w| * delta_d0 * delta_rc,

    each |.| the 2-norm of one entry's coefficient vector (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 7), and d's error is the
    largest entry: the entrywise backward error of every block (i, i+d) of
    A*B with its binomial C(K-i, d) cancelled.  Both directions are one
    stacked matmul of the row of jets X^(e) against the block Toeplitz array
    [e, d] = C(d, e) * Y^(d-e); every entry carries its norm in one more
    coefficient slot, so the same matmul sums the terms' norms.
    """
    k, m1, m2 = len(left) - 1, left.shape[-1], right.shape[-1]
    index, weight, tables = _series_plan(k, m1, m2)
    width = max(m1, m2) + 1
    jets = np.zeros((2, k + 1, 3, 3, width), dtype=complex)
    jets[0, ..., :m1], jets[1, ..., :m2] = left, right
    jets[..., -1] = entry_norms(jets)
    # toeplitz[p, e, s, d, c, j] = C(d, e) * Y^(d-e)[s, c, j], Y the right factor of p
    toeplitz = (weight * jets[::-1, index]).transpose(0, 1, 3, 2, 4, 5)
    # pairs[p, d, r, c, i, j] = sum_{e, s} X^(e)[r, s, i] * toeplitz[p, e, s, d, c, j]
    pairs = (jets.transpose(0, 2, 4, 1, 3).reshape(2, 3 * width, -1)
             @ toeplitz.reshape(2, 3 * (k + 1), -1)).reshape(
                 2, 3, width, k + 1, 3, width).transpose(0, 3, 1, 4, 2, 5)
    series = (pairs.reshape(2, -1, width ** 2) @ tables).reshape(2, k + 1, 9, -1)
    scale = pairs[..., -1, -1].real.reshape(2, k + 1, 9)
    w = hesse_form(psi)
    series[:, 0, ::4] -= w
    scale[:, 0, ::4] += np.linalg.norm(w)
    # an entry with no nonzero term is an exact zero of the residual too
    return np.max(entry_norms(series) / np.maximum(scale, np.finfo(float).tiny), axis=2)


def factorization_records(k: int, errors, psi: complex) -> list[CheckReport]:
    """The [AB, BA] record pair of order k from its two errors; tolerance 1e-8 at
    k = 1 and 1e-7 above."""
    return [check(f"factorization.{name}", float(error), 1e-8 if k == 1 else 1e-7,
                  {"size": 3 * (k + 1), "psi": complex(psi)})
            for name, error in zip(("AB", "BA"), errors)]


def verify_factorization(a: PolyMatrix, b: PolyMatrix, psi: complex) -> list[list[CheckReport]]:
    """A*B = w*I and B*A = w*I for a built 3(K+1)-square pair: one [AB, BA] record
    pair for each order k = 1..K, read from its bottom-right 3(k+1) corner.

    The jets J[d] are read from blocks (K-d, K), the last block column, of A
    and of B, and factorization_errors judges their series.  Every other
    block (i, j) is compared with the pattern C(K-i, j-i) * J[j-i] above the
    diagonal and 0 below it.  Its pattern defect is the largest entrywise
    |X_rc - P_rc| / max(|X_rc|, |P_rc|), exactly 0 where the blocks are bit
    for bit equal.  A defect delta in one factor moves each entry of A*B by at
    most delta times the terms that form it, so to first order it bounds that
    block's share of the product's entrywise backward error.  Order k's
    records are the largest series error over d <= k, each joined with the
    largest defect of A's and B's order-k corners.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows or a.rows % 3:
        raise SizeMismatch(f"incompatible factor shapes {a.rows}x{a.cols}, {b.rows}x{b.cols}")
    top = a.rows // 3 - 1
    blocks = [m.coeffs.reshape(top + 1, 3, top + 1, 3, -1).swapaxes(1, 2) for m in (a, b)]
    jets = [x[::-1, -1] for x in blocks]
    worst = np.maximum.accumulate(factorization_errors(*jets, psi), axis=1)
    for x, j in zip(blocks, jets):
        pattern = _offset_blocks(j)
        if not np.array_equal(x, pattern):
            worst = np.maximum(worst, _corner_defects(x, pattern))
    return [factorization_records(k, worst[:, k], psi) for k in range(1, top + 1)]


def _corner_defects(blocks: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """The largest entrywise |X - P| / max(|X|, |P|) of the (K+1, K+1, 3, 3, m) blocks
    X against the pattern P over each order k's corner, the blocks (i, j) with
    i, j >= K - k, for k = 0..K."""
    size = np.maximum(entry_norms(blocks), entry_norms(pattern))
    # |X - P| <= |X| + |P|, so a zero size has a zero difference
    defects = np.max(entry_norms(blocks - pattern) / np.where(size > 0, size, 1.0), axis=(2, 3))
    # a suffix maximum along both axes: corner[k, k] is order k's
    corner = np.maximum.accumulate(np.maximum.accumulate(defects[::-1, ::-1], axis=0), axis=1)
    return np.diagonal(corner)


def entry_norms(coeffs: np.ndarray) -> np.ndarray:
    """2-norm of each entry's coefficient vector, (..., rows, cols, m) -> (..., rows, cols)."""
    # over a float view: np.linalg.norm on the complex last axis costs twice as much
    v = np.ascontiguousarray(coeffs).view(float)
    return np.sqrt(np.einsum("...m,...m->...", v, v))


def factor_backward_error(product: PolyMatrix, a_norms: np.ndarray, b_norms: np.ndarray,
                          w: np.ndarray) -> np.ndarray:
    """|(A*B - w*I)_ij| / (sum_m |A_im| * |B_mj| + |w| * delta_ij), entry by entry, for
    the product A*B, with the entry_norms of A and B; leading stack axes broadcast.
    """
    rows = product.rows
    residual = product.coeffs - PolyMatrix.diagonal(w, rows).coeffs
    scale = a_norms @ b_norms + np.linalg.norm(w) * np.eye(rows)
    # an entry with no nonzero term is an exact zero of the residual too
    return entry_norms(residual) / np.where(scale > 0, scale, 1.0)


# ---------------------------------------------------------------------------
# derivative elimination and the algebraic construction
# ---------------------------------------------------------------------------

def tangent_rep(coords) -> np.ndarray:
    """V(a): the tangent-line representative of -2a for a raw coordinate triple."""
    a0, a1, a2 = (complex(v) for v in coords)
    scale = max(abs(a0), abs(a1), abs(a2))
    if min(abs(a0), abs(a1), abs(a2)) < 1e-9 * scale:
        raise DenominatorZero("tangent representative undefined on E[3]")
    num = np.array([a0 * (a2 ** 3 - a1 ** 3),
                    a1 * (a0 ** 3 - a2 ** 3),
                    a2 * (a1 ** 3 - a0 ** 3)])
    return num / (a0 * a1 * a2)


def elimination_fit(jet: np.ndarray) -> tuple[complex, complex, float]:
    """(s, c, residual) of theta'(a) = s*theta(a) + c*V(a) in least squares, from a's jet.

    Three equations, two unknowns; c is the a-independent scalar hidden in
    the projective statement of the elimination identity.
    """
    return _elimination_solve(_elimination_system(jet))


def _elimination_system(jet: np.ndarray) -> np.ndarray:
    """Columns theta(a), V(a) | theta'(a) of the elimination least squares at a's jet."""
    return np.column_stack([jet[0], tangent_rep(jet[0]), jet[1]])


def _elimination_solve(system: np.ndarray) -> tuple[complex, complex, float]:
    lhs, rhs = system[:, :2], system[:, 2]
    sol, _, rank, svals = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < 2 or svals[1] < 1e-10 * svals[0]:
        raise IllConditioned("elimination system lost rank (a too close to E[3]?)")
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    return complex(sol[0]), complex(sol[1]), residual


def build_algebraic(point: ProjectivePoint, k: int,
                    lambdas: list[complex] | None = None) -> PolyMatrix:
    """Block matrix from the points (-2)^l a of the base point a; lambda_0 is fixed to 1.

    With lambdas omitted the printed form (all scalars 1) is built; pass the
    scalars of calibrate_by_order for the presentation equivalent to the
    analytic matrix.
    """
    points = doubling_orbit(point, k)
    weights = [1.0 + 0.0j] + list(lambdas or [1.0 + 0.0j] * k)
    if len(weights) != k + 1:
        raise ValueError(f"need {k} offset scalars, got {len(weights) - 1}")
    binom = _block_binomials(k)
    coords = np.zeros((k + 1, k + 1, 3), dtype=complex)
    for i, j in zip(*_triu(k + 1)):
        # Python scalars, not arrays: emitted coefficients stay bit-reproducible
        block = [c * binom[i][j] for c in points[j - i].coords]
        if weights[j - i] != 1:
            block = [c * weights[j - i] for c in block]
        coords[i, j] = block
    return _block_matrix(moore_from_coords(coords).coeffs)


def _equivalence_system(a: np.ndarray, t: np.ndarray, u: np.ndarray, w: np.ndarray,
                        lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Jacobian of U*A*W = T(lambda), T[i, j] = lambda_{j-i} * t[i, j].

    The residual holds blocks (i, j), j >= i, in np.triu_indices order; the
    Jacobian's columns are strict U, strict W and lambda_1..lambda_k:
    d/du_pq = E_pq * (A*W), d/dw_pq = (U*A) * E_pq, and d/dlambda_d is
    -t[i, j] on the blocks with j - i = d.
    """
    size = len(u)
    i, j = _triu(size)
    p, q = _triu(size, 1)
    ua = np.einsum("im,mnc->inc", u, a)
    aw = np.einsum("mnc,nj->mjc", a, w)
    residual = (np.einsum("inc,nj->ijc", ua, w)[i, j] - lam[j - i, None] * t[i, j]).ravel()
    # [block, unknown, component]
    d_u = np.where((i[:, None] == p)[..., None], aw[q, j[:, None]], 0)
    d_w = np.where((j[:, None] == q)[..., None], ua[i[:, None], p], 0)
    d_lam = np.where(((j - i)[:, None] == np.arange(1, size))[..., None], -t[i, j][:, None], 0)
    jac = np.concatenate([d_u, d_w, d_lam], axis=1)
    return residual, jac.transpose(0, 2, 1).reshape(3 * len(i), -1)


# Gauss-Newton steps on the whole system after the row solves
_POLISH_STEPS = 3


def _equivalence_solve(jets: list[np.ndarray], reps: list[np.ndarray],
                       orders) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """U, W and lambda with U * A * W = T(lambda), one linear solve per block row.

    A and T have blocks C(k-i, j-i) * jets[j-i] and C(k-i, j-i) * lambda_{j-i} * reps[j-i].
    Block row r, solved after the rows below it, is linear in u_{r,r+1..k},
    w_{r,r+1..k} and lambda_{k-r} (see the module docstring).  Every block
    (i, j) is weighted by 1 / (C(k-i, j-i) * |jets[j-i]|), so the low orders
    count as much as the (6*pi)^d larger high ones; a few weighted
    Gauss-Newton steps on the whole system then polish the solution.  A polish
    step whose least-squares solve fails ends the polish with the current
    iterate.

    u_{r,k} and w_{r,k} enter row r only in block (r, k), both with the
    coefficient A[k, k] = jets[0], so only their sum is determined: w_{r,k}
    is pinned to 0.  The remaining columns of each weighted row system are
    scaled to unit 2-norm before the solve (Bjorck, Numerical Methods for
    Least Squares Problems, sec. 2.7).

    Returns lambda_1..lambda_k and, for each order n in `orders`, three facts
    of the order-n system, the bottom-right n+1 block corner: its unweighted
    |U*A*W - T| / max_{d<=n} |jets[d]|, the smallest sigma/sigma_0 over its
    scaled row systems, and the rounding floor of that residual,
    eps * | |U| * |A| * |W| | / max_{d<=n} |jets[d]| with |A| the matrix of
    block norms, all read from the corners of the order-k solve.
    """
    size = len(jets)
    k = size - 1
    norms = np.array([np.linalg.norm(v) for v in jets])
    a, t = _offset_blocks(jets), _offset_blocks(reps)
    i, j = _triu(size)
    weight = np.zeros((size, size))
    weight[i, j] = 1.0 / (np.array(_block_binomials(k))[i, j] * norms[j - i])
    u, w = np.eye(size, dtype=complex), np.eye(size, dtype=complex)
    # lambda_n is still 0 while its row is solved, so it drops out of the right-hand side
    lam = np.zeros(size, dtype=complex)
    lam[0] = 1.0
    sigmas = np.empty(k)
    for r in range(k - 1, -1, -1):
        n = k - r
        # rows m > r of A*W are final; row r still lacks the unknown w_{r, j}
        aw = np.einsum("mnc,nj->mjc", a, w)
        # [block (r, j), component, unknown]: u_{r,r+1..k}, w_{r,r+1..k-1}, lambda_n
        system = np.zeros((n, 3, 2 * n), dtype=complex)
        system[:, :, :n] = aw[r + 1:, r + 1:].transpose(1, 2, 0)
        system[np.arange(n - 1), :, n + np.arange(n - 1)] = jets[0]
        system[-1, :, -1] = -t[r, k]
        rhs = lam[1:n + 1, None] * t[r, r + 1:] - aw[r, r + 1:]
        row_weight = weight[r, r + 1:, None]
        lhs = (row_weight[..., None] * system).reshape(3 * n, -1)
        columns = np.linalg.norm(lhs, axis=0)
        sol, _, _, svals = np.linalg.lstsq(lhs / columns, (row_weight * rhs).ravel(),
                                           rcond=None)
        sol /= columns
        sigmas[r] = svals[-1] / svals[0]
        u[r, r + 1:], w[r, r + 1:k], lam[n] = sol[:n], sol[n:-1], sol[-1]

    scale = norms.max()
    strict = _triu(size, 1)
    n_uw = len(strict[0])
    block_weight = np.repeat(weight[i, j], 3)
    for step in range(_POLISH_STEPS + 1):
        residual, jac = _equivalence_system(a, t, u, w, lam)
        if step == _POLISH_STEPS or np.linalg.norm(residual) < 1e-13 * scale:
            break
        try:
            delta = np.linalg.lstsq(block_weight[:, None] * jac, -block_weight * residual,
                                    rcond=None)[0]
        except np.linalg.LinAlgError:
            # LAPACK's SVD can fail to converge on a finite Jacobian: keep the
            # current iterate, and let the calibration records judge it
            break
        u[strict] += delta[:n_uw]
        w[strict] += delta[n_uw:2 * n_uw]
        lam[1:] += delta[2 * n_uw:]
    # U, A and W are block upper triangular: the corner of |U|*|A|*|W| is the
    # product of the corners
    terms = np.abs(u) @ np.linalg.norm(a, axis=-1) @ np.abs(w)
    residual = residual.reshape(-1, 3)
    facts = []
    for n in orders:
        first, corner_scale = k - n, norms[:n + 1].max()
        facts.append((float(np.linalg.norm(residual[i >= first]) / corner_scale),
                      float(sigmas[first:].min()),
                      float(np.finfo(float).eps * np.linalg.norm(terms[first:, first:])
                            / corner_scale)))
    return lam[1:], facts


def calibrate_by_order(spec: UlrichSpec, orders) -> tuple[list[complex], list[list[CheckReport]]]:
    """The scalars lambda_1..lambda_k of the algebraic blocks at k = spec.k, and the
    calibration records of every order n in `orders` (n <= k).

    Solves the block equivalence with the analytic matrix after eliminating
    s(a) and its derivatives; lambda_1 = c * nu_1/nu_0 and
    lambda_2 = -2c^2 * nu_2/nu_0 come out exactly, higher offsets absorb
    further a-dependent scalars (so the pattern is not of the pure form t^l).
    The order-n calibration is the bottom-right corner of the order-k one
    (module docstring), so one solve gives the records of each order:
    calibration.equivalence from the corner of U*A*W - T, representative and
    c_constancy (of c along the orbit) as maxima over the offsets l <= n, fit
    and block01 as at k.  lambda_1..lambda_n are the first n of the scalars.
    An orbit collision raises DegenerateOrbit before any theta is evaluated;
    any failing record raises CalibrationFailed, which names the nearest one.
    """
    if spec.k < 1:
        raise ValueError("nothing to calibrate at k = 0")
    if not all(1 <= n <= spec.k for n in orders):
        raise ValueError(f"orders must lie in 1..{spec.k}, got {list(orders)}")
    ctx = spec.ctx
    gaps = _orbit_gaps(spec.a_z, ctx.tau, spec.k)
    orbit = doubling_orbit(embed(spec.a_z, ctx), spec.k)
    # Everything the least-squares solves below consume, offset by offset:
    # the jets at a and the tangent iterates V^l(theta(a)), which are never
    # normalized, can overflow.
    try:
        jets = theta_jet(spec.a_z, ctx, spec.k)
    except ThetaOverflow as exc:
        raise _overflow_at(exc.order) from exc
    reps = [jets[0]]
    for l in range(1, spec.k + 1):
        reps.append(_finite_at(l, lambda: tangent_rep(reps[-1])))
    # c is the same at every lattice translate (see the module docstring)
    fit_points = [spec.a_z] + [_lattice_reduced((-2) ** l * spec.a_z, ctx.tau)
                               for l in range(1, spec.k + 1)]
    # theta is bounded at the reduced points, and at a itself the jets above are finite
    systems = [_finite_at(l, lambda: _elimination_system(jet))
               for l, jet in enumerate(theta_jet(np.array(fit_points), ctx, 1))]

    s, c, fit_residual = _elimination_solve(systems[0])
    lam_raw, equivalence = _equivalence_solve(jets, reps, orders)

    # rescale from raw theta representatives to the stored normalized points:
    # reps[l] = nu_l * (-2)^l a
    points, reps = np.array([p.coords for p in orbit]), np.array(reps)
    nu = np.einsum("lc,lc->l", points.conj(), reps) / np.einsum("lc,lc->l", points.conj(), points)
    drift = np.linalg.norm(reps - nu[:, None] * points, axis=1) / np.linalg.norm(reps, axis=1)
    lambdas = (lam_raw * nu[1:] / nu[0]).tolist()
    # c must come out the same when fitted anywhere along the orbit
    c_drift = [abs(_elimination_solve(system)[1] - c) / abs(c) for system in systems[1:]]

    # block (0,1) of the analytic matrix after eliminating s(a), rescaled to
    # the normalized-point diagonal
    target = moore_from_coords((jets[1] - s * jets[0]) / nu[0])
    fitted = moore_from_coords(orbit[1].coords).scale(lambdas[0])
    agree = (target - fitted).coefficient_norm() / target.coefficient_norm()

    by_order = [[check("calibration.fit", fit_residual, 1e-6,
                       inputs={"a_z": complex(spec.a_z), "c": c}),
                 check("calibration.equivalence", residual, 1e-8,
                       inputs={"k": n, "row_sigma": row_sigma, "floor": floor}),
                 check("calibration.representative", float(np.max(drift[1:n + 1])), 1e-8,
                       inputs={"k": n}),
                 check("calibration.c_constancy", max(c_drift[:n]), 1e-6, inputs={"k": n}),
                 check("calibration.block01", agree, 1e-6, inputs={"lambda1": lambdas[0]})]
                for n, (residual, row_sigma, floor) in zip(orders, equivalence)]

    if not all(r.passed for reports in by_order for r in reports):
        _, worst, (_, row_sigma, floor) = max(
            ((r.residual / r.tol, r, facts) for reports, facts in zip(by_order, equivalence)
             for r in reports), key=lambda item: item[0])
        gap = min(gaps, default=None)
        raise CalibrationFailed(
            f"calibration residuals exceed tolerance (worst {worst.residual / worst.tol:.3e}x: "
            f"{worst.name} {worst.residual:.3e}; row solve sigma/sigma_0 {row_sigma:.3e}; "
            f"rounding floor {floor:.3e}); nearest orbit collision "
            + ("none for k < 3" if gap is None else
               f"(l = {gap[1]}, m = {gap[2]}) {gap[0]:.3e} away modulo the lattice"))
    return lambdas, by_order


def _orbit_gaps(a_z: complex, tau: complex, k: int) -> list[tuple[float, int, int]]:
    """(|(-2)^m a - (-2)^l a| modulo the lattice, l, m) for m = 3..k, l in {0, 1};
    DegenerateOrbit at the first gap below 1e-9, where (-2)^m a = (-2)^l a.

    That is ((-2)^m - (-2)^l) * a in the lattice Z + Z*tau.  From the first such
    m with l = 0 or 1 on, calibration fails (measured with both the row solves
    and Gauss-Newton); a collision of two later points (l >= 2) and a negation
    collision (-2)^m a = -(-2)^l a still calibrate.  An l with (-2)^l a in E[3]
    is left out: it collides with every later one, and doubling_orbit names it.
    """
    bases = [l for l in range(2) if abs(_lattice_reduced(3 * (-2) ** l * a_z, tau)) >= 1e-9]
    gaps = [(abs(_lattice_reduced(((-2) ** m - (-2) ** l) * a_z, tau)), l, m)
            for m in range(3, k + 1) for l in bases]
    for gap, l, m in gaps:
        if gap < 1e-9:
            raise DegenerateOrbit(f"doubling orbit collides: (-2)^{m} a = (-2)^{l} a "
                                  f"modulo the lattice (l = {l}, m = {m})", l=l, m=m)
    return gaps


def _finite_at(l: int, compute) -> np.ndarray:
    """compute() for offset l, or CalibrationFailed naming l if it overflows."""
    with np.errstate(all="ignore"):
        try:
            value = np.asarray(compute(), dtype=complex)
        except (OverflowError, ThetaOverflow) as exc:
            raise _overflow_at(l) from exc
    if not np.all(np.isfinite(value)):
        raise _overflow_at(l)
    return value


def _lattice_reduced(z: complex, tau: complex) -> complex:
    """z + m + n*tau in the fundamental parallelogram centred at 0."""
    z -= round(z.imag / tau.imag) * tau
    return z - round(z.real)


def _overflow_at(l: int) -> CalibrationFailed:
    return CalibrationFailed(f"theta values or tangent representatives overflow "
                             f"at offset l = {l}")


def elimination_consequence_residual(jet: np.ndarray, s: complex, c: complex) -> float:
    """Coefficient norm of M' - s*M - c*M_V at a's jet: elimination_fit as matrices."""
    m0, m1 = moore_from_coords(jet[0]), moore_from_coords(jet[1])
    mv = moore_from_coords(tangent_rep(jet[0]))
    return (m1 - m0.scale(s) - mv.scale(c)).coefficient_norm()


# ---------------------------------------------------------------------------
# presentation checks
# ---------------------------------------------------------------------------

def equilibrate(n: np.ndarray) -> np.ndarray:
    """Two-sided diagonal scaling toward unit row/column norms, in four passes.

    Rank-preserving; compresses the block-scale spread of jet matrices
    (theta derivatives grow like (6*pi)^d) so that singular value
    thresholding sees the structural zeros, not the scaling.  Acts on the
    last two axes, so a stack is scaled matrix by matrix.  Each pass scales
    the rows, then the columns, of the matrix the earlier passes left; the
    passes run on the squared moduli and accumulate the squared scalings,
    and the matrix is divided once.  A zero row or column keeps its scaling.
    """
    n = np.asarray(n, dtype=complex)
    squares = n.real ** 2 + n.imag ** 2
    rows = np.ones(n.shape[:-1])
    cols = np.ones(n.shape[:-2] + n.shape[-1:])
    for _ in range(4):
        # squared norms of the rows, then of the columns, of the scaled matrix
        rn = (squares @ (1.0 / cols)[..., None])[..., 0] / rows
        rows *= np.where(rn == 0, 1.0, rn)
        cn = ((1.0 / rows)[..., None, :] @ squares)[..., 0, :] / cols
        cols *= np.where(cn == 0, 1.0, cn)
    return n / np.sqrt(rows[..., :, None] * cols[..., None, :])


def verify_presentation(stack: list[PolyMatrix], psi: complex,
                        curve_samples: list[ProjectivePoint],
                        off_samples: list[tuple[complex, complex, complex]]
                        ) -> list[list[list[CheckReport]]]:
    """det(A) = w^(k+1) up to scalar; corank k+1 on the curve, 0 off it; for
    each order k = 1..K, one list of records per matrix of the stack.

    The stack holds matrices of one top order K, and order k reads the
    bottom-right 3(k+1) corner A of each, as check reads every order from one
    build.  A is block upper triangular with k+1 diagonal blocks equal to D,
    its block (0, 0), bit for bit; presentation.structure counts the blocks on
    or below the diagonal that break this.  So det A = (det D)^(k+1), and A
    has full rank where D does: det D = c*w (reported as c^(k+1)) and the rank
    of D are judged off the curve, where an SVD of all of A can judge
    rounding.  The corank on the curve needs the blocks off the diagonal and
    reads all of A.  The distinct D over all orders and matrices are judged in
    one stacked evaluation, determinant fit and rank test; the whole top-order
    matrices are evaluated on the curve once, and order k reads the corner of
    that evaluation.
    """
    coeffs = np.stack([a.coeffs for a in stack])
    top = coeffs.shape[1] // 3 - 1
    if top < 1:  # a 3 x 3 stack has no order to judge
        return []
    orders = range(1, top + 1)
    starts = [top - k for k in orders]  # the first block of each order's corner
    blocks = coeffs.view(np.uint64).reshape(len(stack), top + 1, 3, top + 1, 3, -1)
    blocks = blocks.swapaxes(2, 3)
    diagonal = blocks[:, range(top + 1), range(top + 1)]
    below = np.any(blocks != 0, axis=(3, 4, 5)) & np.tri(top + 1, k=-1, dtype=bool)
    unequal = np.any(diagonal[:, :, None] != diagonal[:, None], axis=(3, 4, 5))
    # blocks (i, j), i >= j >= s, that differ from those of diag(D_s, ..., D_s)
    misplaced = np.stack([below[:, s:, s:].sum(axis=(1, 2)) + unequal[:, s, s:].sum(axis=1)
                          for s in starts], axis=1)
    # the D of each order and matrix, every distinct one judged once: order k
    # takes the first diagonal block equal to its own, so under a passing
    # structure record all orders of a matrix share one
    first = np.argmax(~unequal[:, starts], axis=-1) + (top + 1) * np.arange(len(stack))[:, None]
    distinct, which = np.unique(first, return_inverse=True)
    which = which.reshape(first.shape)
    mat, j = np.divmod(distinct, top + 1)
    grid = coeffs.reshape(len(stack), top + 1, 3, top + 1, 3, -1)
    block = eval_matrix(PolyMatrix(grid[mat, j, :, j]), off_samples)
    scalars, det_residuals = det_scalar_fit(block, evaluate(hesse_form(psi), off_samples))
    scalars, det_residuals = scalars[which], det_residuals[which]
    worst_off = np.max(np.abs(numeric_rank(equilibrate(block)) - 3), axis=-1)[which]
    on = eval_matrix(PolyMatrix(coeffs), [p.coords for p in curve_samples])
    worst_on = [np.max(np.abs(numeric_rank(equilibrate(on[..., 3 * s:, 3 * s:])) - 2 * (k + 1)),
                       axis=1) for k, s in zip(orders, starts)]
    return [[[check("presentation.structure", float(misplaced[m, o]), 0.5, inputs={"k": k}),
              check("presentation.det", det_residuals[m, o], 1e-7,
                    inputs={"k": k, "scalar": complex(scalars[m, o] ** (k + 1))}),
              check("presentation.corank_on_curve", float(worst_on[o][m]), 0.5,
                    inputs={"k": k, "samples": len(curve_samples)}),
              check("presentation.rank_off_curve", float(worst_off[m, o]), 0.5,
                    inputs={"k": k, "samples": len(off_samples)})]
             for m in range(len(stack))]
            for o, k in enumerate(orders)]


# rejection sampling gives up after this many draws per requested sample
_DRAWS_PER_SAMPLE = 1000


def _rejection_sample(draw, cut: float, count: int, what: str, score: str) -> list:
    """The first `count` draws whose score exceeds `cut`.

    draw(n) gives the next n draws and an array of their scores, in chunks of
    `count` and then of all drawn so far, so a low acceptance rate costs few.
    A failure names the largest score drawn.
    """
    budget = _DRAWS_PER_SAMPLE * count
    out, drawn, best = [], 0, -math.inf
    while len(out) < count and drawn < budget:
        size = min(max(count, drawn), budget - drawn)
        items, scores = draw(size)
        out += compress(items, (scores > cut).tolist())
        best = max(best, float(scores.max()))
        drawn += size
    if len(out) < count:
        raise SamplingFailed(f"found {len(out)} of {count} {what} in {budget} draws; "
                             f"the largest {score} drawn is {best:.3e}")
    return out[:count]


def curve_sample_points(ctx: ThetaContext, count: int, seed: int) -> list[ProjectivePoint]:
    """Deterministic on-curve samples with every normalized coordinate above 1e-3,
    away from E[3]."""
    rng = np.random.default_rng(seed)

    def draw(n):
        points = embed(rng.uniform(-0.45, 0.45, (n, 2)).view(complex)[:, 0], ctx)
        return points, np.array([min(abs(v) for v in p.coords) for p in points])

    return _rejection_sample(draw, 1e-3, count,
                             "curve points with every normalized coordinate above 1e-3",
                             "smallest coordinate")


def offcurve_sample_triples(psi: complex, count: int, seed: int) -> list[tuple]:
    """Deterministic generic triples with |w(x)| bounded away from zero."""
    rng = np.random.default_rng(seed)
    w = hesse_form(psi)

    def draw(n):
        xs = rng.uniform(-1, 1, (n, 3, 2)).view(complex)[..., 0]
        return map(tuple, xs.tolist()), np.abs(evaluate(w, xs))

    return _rejection_sample(draw, 1e-2, count, "triples with |w(x)| above 1e-2", "|w(x)|")


# ---------------------------------------------------------------------------
# sections and automorphy
# ---------------------------------------------------------------------------

def _section_weights(k: int) -> np.ndarray:
    # component r of column c carries C(c,r)/C(k,r); every printed small-k
    # value matches and the transport identity below pins the general case
    return np.array([[math.comb(column, row) / math.comb(k, row) for row in range(k + 1)]
                     for column in range(k + 1)])


def section_basis(spec: UlrichSpec, z: complex) -> np.ndarray:
    """The 3(k+1) global sections as comps[column, index, row].

    Section (column, index) has k+1 components, exactly zero for row > column.
    """
    return _sections(spec.k, theta_jet(z + spec.a_z, spec.ctx, spec.k))


def _sections(k: int, jets: np.ndarray) -> np.ndarray:
    """section_basis from the order-k theta jet at z + a."""
    column, row = np.indices((k + 1, k + 1))
    terms = _section_weights(k)[:, :, None] * jets[np.maximum(column - row, 0)]
    return np.where((row <= column)[:, :, None], terms, 0j).transpose(0, 2, 1)


def automorphy_residuals(spec: UlrichSpec, z: complex) -> list[tuple[float, float]]:
    """Transport and cocycle residuals at z of the factor f(lambda, z), the
    (k+1)-square block with entries C(k-i, j-i) * e^(j-i)(lambda, z + a) of the
    closed-form factor e (theta.automorphy_factor), for each order k = 1..spec.k.

    The residual at lambda is max |f v(z) - v(z+lambda)| over the section basis
    v, each section normalized by the size of the terms that form it: the
    largest over rows r of sum_j |f_rj| * |v(z)_j| + |v(z+lambda)_r|, with
    each |component| taken as the largest of the three theta values of its
    jet row (_jet_sizes).  At lambda = tau the factor and its derivatives
    reach 1e4..1e8, and where z + a lies on E[3] one theta_i is rounding
    noise; neither moves the scale off the size of the terms.  Transport is
    the worse of lambda = 1 and lambda = tau.  Cocycle is the residual at lambda = 1 + tau
    with the factor f(1, z + tau) f(tau, z): the cocycle condition as the
    sections see it.  The four theta jets they read, at z + a + lambda for
    lambda in {0, 1, tau, 1 + tau}, come from one sum at order spec.k, and the
    factor jets from one evaluation at that order; order k reads their first
    k+1 rows.
    """
    top, tau = spec.k, spec.ctx.tau
    if top < 1:  # order 0 has no factor to judge
        return []
    at = z + spec.a_z
    jets = theta_jet(np.array([at, at + 1.0, at + tau, at + (1 + tau)]), spec.ctx, top)
    factors = [automorphy_factor(m, n, w, tau, top)
               for m, n, w in ((1, 0, at), (0, 1, at), (1, 0, at + tau))]
    out = []
    for k in range(1, top + 1):
        size = 3 * (k + 1)
        f1, ft, f1_shifted = (_offset_blocks(f[:k + 1]) for f in factors)
        here = _sections(k, jets[0, :k + 1]).reshape(size, -1)
        residuals = []
        for f, there in ((f1, jets[1]), (ft, jets[2]), (f1_shifted @ ft, jets[3])):
            lhs, rhs = here @ f.T, _sections(k, there[:k + 1]).reshape(size, -1)
            terms = _jet_sizes(here, k) @ np.abs(f).T + _jet_sizes(rhs, k)
            scale = np.repeat(np.max(terms, axis=1), 3)
            residuals.append(float(np.max(np.max(np.abs(lhs - rhs), axis=1) / scale)))
        out.append((max(residuals[:2]), residuals[2]))
    return out


def _jet_sizes(sections: np.ndarray, k: int) -> np.ndarray:
    """(column, row) -> the largest |component| over the three sections of the column.

    All three theta series share one Gaussian envelope, so this is the size
    of the series terms behind each component, also where one theta_i vanishes.
    """
    return np.max(np.abs(sections).reshape(k + 1, 3, k + 1), axis=1)


# ---------------------------------------------------------------------------
# evaluation-map kernel bookkeeping
# ---------------------------------------------------------------------------

def jet_kernel_residual(spec: UlrichSpec, a: PolyMatrix, z: complex) -> float:
    """Residual of A(x(z)) applied to the stacked jet (th^(k), ..., th', th)(z+a),
    for the analytic matrix A of spec."""
    x = embed(z, spec.ctx).coords
    numeric = eval_matrix(a, x)
    stacked = theta_jet(z + spec.a_z, spec.ctx, spec.k)[::-1].ravel()
    return float(np.max(np.abs(numeric @ stacked)))


def relation_matrix(a: PolyMatrix) -> np.ndarray:
    """The 3(k+1) x 9(k+1) coefficient matrix of the evaluation-map relations.

    Row r, column 3*sigma + j holds the coefficient of x_j in entry (r, sigma)
    of the analytic block matrix A: one column triple per section slot.
    """
    index = monomial_index(1)
    columns = [index[exp] for exp in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return a.coeffs[:, :, columns].reshape(a.rows, 3 * a.rows)


def relation_annihilation_residual(spec: UlrichSpec, a: PolyMatrix, z: complex) -> float:
    """The relations of the analytic matrix A of spec annihilate the section
    basis when x_j = th_j(z).

    Section slot sigma = 3*beta + i pairs block column beta with the basis
    column k - beta (theta index i), exactly as the rank-two display stacks
    them.
    """
    # weights[r, sigma] = sum_j rel[r, 3*sigma + j] * th_j(z)
    weights = relation_matrix(a).reshape(spec.size, spec.size, 3) @ theta_jet(z, spec.ctx)[0]
    # section slot sigma = 3*beta + i holds basis column k - beta, index i
    sections = section_basis(spec, z)[::-1].reshape(spec.size, -1)
    return float(np.max(np.abs(weights @ sections)))
