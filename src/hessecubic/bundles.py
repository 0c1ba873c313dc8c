"""Rank-(k+1) block presentations built from Moore matrices.

Two constructions of the 3(k+1)-square presentation matrix:

* analytic: block (i, j) = C(k-i, j-i) * M^(j-i)_{a,x} from theta derivative
  matrices (partner B likewise from L derivatives), a matrix factorization
  A*B = B*A = w*I of the Hesse cubic;
* algebraic: block (i, j) = C(k-i, j-i) * lambda_{j-i} * M_{(-2)^{j-i} a, x}
  from iterated point doubling, equivalent to the analytic one after the
  derivative-elimination row operations once the per-offset scalars lambda
  are calibrated.

The elimination rests on the componentwise identity

    theta'_i(a) = s(a) * theta_i(a) + c * V_i(a),

where V(a) = [a0(a2^3-a1^3), a1(a0^3-a2^3), a2(a1^3-a0^3)] / (a0*a1*a2) is
the tangent-line representative of -2a and c does not depend on a.  The
calibrated scalars solve the full two-sided block equivalence
U * A_analytic * W = A_algebraic(lambda) at the coefficient-vector level
(Gauss-Newton, initialized at the iterated-elimination values
mu_l = (-2)^(l(l-1)/2) * c^l, which are exact for l <= 2).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curve import (CurveConfig, ProjectivePoint, embed, is_three_torsion,
                    iterate_double_neg)
from .errors import (CalibrationFailed, DenominatorZero, IllConditioned, SamplingFailed,
                     SizeMismatch, ThetaOverflow)
from .moore import l_derivative, moore_from_coords
from .poly import (PolyMatrix, det_scalar_fit, eval_matrix, evaluate, hesse_form,
                   monomial_index, numeric_rank)
from .report import CheckReport, check
from .theta import ThetaContext, automorphy_jet, hesse_psi, theta_jet


@dataclass(frozen=True)
class UlrichSpec:
    """Rank bookkeeping for one presentation: bundle rank = k + 1."""

    k: int
    ctx: ThetaContext
    a_z: complex | None = None
    point: ProjectivePoint | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.a_z is None and self.point is None:
            raise ValueError("need an analytic point a_z or a projective point")

    @property
    def size(self) -> int:
        return 3 * (self.k + 1)

    def base_point(self) -> ProjectivePoint:
        if self.point is not None:
            return self.point
        return embed(self.a_z, self.ctx)


@dataclass(frozen=True)
class SectionVector:
    """One global section: k+1 components, zeros below position `column`."""

    components: tuple[complex, ...]
    index: int
    column: int


# ---------------------------------------------------------------------------
# analytic construction
# ---------------------------------------------------------------------------

def build_analytic(spec: UlrichSpec) -> tuple[PolyMatrix, PolyMatrix]:
    """The derivative block matrices (A, B); upper triangular, 3(k+1) square."""
    if spec.a_z is None:
        raise ValueError("analytic construction needs a_z")
    k = spec.k
    m_jets = [moore_from_coords(row) for row in theta_jet(spec.a_z, spec.ctx, k)]
    l_jets = l_derivative(spec.a_z, spec.ctx, k)
    a = _binomial_blocks(k, lambda d, n: m_jets[d].scale(n))
    b = _binomial_blocks(k, lambda d, n: l_jets[d].scale(n))
    return a, b


def _binomial_blocks(k: int, block) -> PolyMatrix:
    """Upper block-triangular matrix with block (i, j) = block(j-i, C(k-i, j-i))."""
    blocks = {(i, j): block(j - i, math.comb(k - i, j - i))
              for i in range(k + 1) for j in range(i, k + 1)}
    out = PolyMatrix.zeros(3 * (k + 1), 3 * (k + 1), blocks[0, 0].degree)
    for (i, j), b in blocks.items():
        out.coeffs[3 * i:3 * i + 3, 3 * j:3 * j + 3] = b.coeffs
    return out


def verify_factorization(a: PolyMatrix, b: PolyMatrix, psi: complex,
                         tol: float = 1e-7) -> list[CheckReport]:
    """Coefficient norms of A*B - w*I and B*A - w*I, reported separately.

    Normalized by 1 + |A|*|B| (backward-error style): jet coefficients grow
    like (6*pi)^d with the block order, so the raw cancellation floor scales
    with the product of the factor norms.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows or a.rows % 3:
        raise SizeMismatch(f"incompatible factor shapes {a.rows}x{a.cols}, {b.rows}x{b.cols}")
    w_id = PolyMatrix.diagonal(hesse_form(psi), a.rows)
    scale = 1.0 + a.coefficient_norm() * b.coefficient_norm()
    inputs = {"size": a.rows, "psi": complex(psi)}
    return [
        check("factorization.AB", (a @ b - w_id).coefficient_norm() / scale, tol, inputs),
        check("factorization.BA", (b @ a - w_id).coefficient_norm() / scale, tol, inputs),
    ]


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


def derivative_elimination_fit(a_z: complex, ctx: ThetaContext) -> tuple[complex, complex, float]:
    """Least-squares solve of theta'(a) = s*theta(a) + c*V(a).

    Three equations, two unknowns; c is the a-independent scalar hidden in
    the projective statement of the elimination identity.
    """
    return _elimination_solve(_elimination_system(a_z, ctx))


def _elimination_system(a_z: complex, ctx: ThetaContext) -> np.ndarray:
    """Columns theta(a), V(a) | theta'(a) of the elimination least squares."""
    jet = theta_jet(a_z, ctx, 1)
    return np.column_stack([jet[0], tangent_rep(jet[0]), jet[1]])


def _elimination_solve(system: np.ndarray) -> tuple[complex, complex, float]:
    lhs, rhs = system[:, :2], system[:, 2]
    sol, _, rank, svals = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < 2 or svals[1] < 1e-10 * svals[0]:
        raise IllConditioned("elimination system lost rank (a too close to E[3]?)")
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    return complex(sol[0]), complex(sol[1]), residual


def build_algebraic(spec: UlrichSpec, lambdas: list[complex] | None = None) -> PolyMatrix:
    """Block matrix from the points (-2)^l a; lambda_0 is fixed to 1.

    With lambdas omitted the printed form (all scalars 1) is built; pass the
    result of calibrate_scalars for the presentation equivalent to the
    analytic matrix.
    """
    k = spec.k
    base = spec.base_point()
    points = []
    for l in range(k + 1):
        p = iterate_double_neg(base, l)
        if min(abs(c) for c in p.coords) < 1e-8:
            raise DenominatorZero(f"point (-2)^{l} a lies in E[3]", iteration=l)
        points.append(p)
    weights = [1.0 + 0.0j] + list(lambdas or [1.0 + 0.0j] * k)
    if len(weights) != k + 1:
        raise ValueError(f"need {k} offset scalars, got {len(weights) - 1}")

    def block(d: int, n: int) -> PolyMatrix:
        # Python scalars, not arrays: emitted coefficients stay bit-reproducible
        coords = [c * n for c in points[d].coords]
        if weights[d] != 1:
            coords = [c * weights[d] for c in coords]
        return moore_from_coords(coords)

    return _binomial_blocks(k, block)


def _equivalence_solve(jets: list[np.ndarray], reps: list[np.ndarray],
                       chain: np.ndarray, max_iter: int = 60) -> tuple[np.ndarray, float]:
    """Solve U * A * W = T(lambda) at the coefficient-vector level.

    A has blocks C(k-i, j-i) * jets[j-i] and T blocks C(k-i, j-i) *
    lambda_{j-i} * reps[j-i]; Moore-pattern matrices are linear in their
    coefficient vectors, so the block equations reduce to vectors in C^3.
    Gauss-Newton on the bilinear system, lambda initialized at `chain`.
    """
    k = len(jets) - 1
    scale = max(np.linalg.norm(v) for v in jets)
    lam = np.concatenate([[1.0 + 0j], chain])
    strict = [(i, m) for i in range(k + 1) for m in range(i + 1, k + 1)]
    n_uw = len(strict)
    u = np.eye(k + 1, dtype=complex)
    w = np.eye(k + 1, dtype=complex)
    blocks = [(i, j) for i in range(k + 1) for j in range(i, k + 1)]

    def pack_residual() -> np.ndarray:
        rows = []
        for i, j in blocks:
            acc = -math.comb(k - i, j - i) * lam[j - i] * reps[j - i]
            for m in range(i, j + 1):
                for n in range(m, j + 1):
                    acc = acc + u[i, m] * math.comb(k - m, n - m) * jets[n - m] * w[n, j]
            rows.append(acc)
        return np.concatenate(rows)

    for _ in range(max_iter):
        residual = pack_residual()
        if np.linalg.norm(residual) < 1e-13 * scale:
            break
        jac = np.zeros((residual.size, 2 * n_uw + k), dtype=complex)
        for b, (i, j) in enumerate(blocks):
            sl = slice(3 * b, 3 * b + 3)
            for p, (bi, bm) in enumerate(strict):
                if bi == i and bm <= j:
                    acc = np.zeros(3, dtype=complex)
                    for n in range(bm, j + 1):
                        acc += math.comb(k - bm, n - bm) * jets[n - bm] * w[n, j]
                    jac[sl, p] = acc
                if bm == j and bi >= i:
                    acc = np.zeros(3, dtype=complex)
                    for m in range(i, bi + 1):
                        acc += u[i, m] * math.comb(k - m, bi - m) * jets[bi - m]
                    jac[sl, n_uw + p] = acc
            d = j - i
            if d >= 1:
                jac[sl, 2 * n_uw + d - 1] = -math.comb(k - i, d) * reps[d]
        step, _, _, _ = np.linalg.lstsq(jac, -residual, rcond=None)
        for p, (bi, bm) in enumerate(strict):
            u[bi, bm] += step[p]
            w[bi, bm] += step[n_uw + p]
        lam[1:] += step[2 * n_uw:]
    return lam[1:], float(np.linalg.norm(pack_residual()) / scale)


def calibrate_scalars(spec: UlrichSpec) -> tuple[list[complex], list[CheckReport]]:
    """Fit the per-offset scalars lambda_1..lambda_k of the algebraic blocks.

    Solves the block equivalence with the analytic matrix after eliminating
    s(a) and its derivatives; lambda_1 = c * nu_1/nu_0 and
    lambda_2 = -2c^2 * nu_2/nu_0 come out exactly, higher offsets absorb
    further a-dependent scalars (so the pattern is not of the pure form t^l,
    which the report records).  The report also carries the elimination fit
    residual, the constancy of c along the doubling orbit, and the block
    (0,1) agreement.
    """
    if spec.a_z is None:
        raise ValueError("calibration needs the analytic point a_z")
    if spec.k < 1:
        raise ValueError("nothing to calibrate at k = 0")
    ctx = spec.ctx
    base = spec.base_point()
    for l in range(spec.k + 1):
        orbit = iterate_double_neg(base, l)
        if min(abs(v) for v in orbit.coords) < 1e-8:
            raise DenominatorZero(f"point (-2)^{l} a lies in E[3]", iteration=l)
    # Everything the least-squares solves below consume, offset by offset:
    # the tangent iterates V^l(theta(a)) are never normalized, and theta grows
    # without bound at (-2)^l a, so either can overflow.
    try:
        jets = theta_jet(spec.a_z, ctx, spec.k)
    except ThetaOverflow as exc:
        raise _overflow_at(exc.order) from exc
    reps = [jets[0]]
    for l in range(1, spec.k + 1):
        reps.append(_finite_at(l, lambda: tangent_rep(reps[-1])))
    systems = [_finite_at(l, lambda: _elimination_system((-2) ** l * spec.a_z, ctx))
               for l in range(spec.k + 1)]

    s, c, fit_residual = _elimination_solve(systems[0])
    reports = [check("calibration.fit", fit_residual, 1e-6,
                     inputs={"a_z": complex(spec.a_z), "c": c})]

    chain = np.array([c ** d * (-2.0) ** (d * (d - 1) // 2)
                      for d in range(1, spec.k + 1)])
    lam_raw, equiv_residual = _equivalence_solve(jets, reps, chain)
    reports.append(check("calibration.equivalence", equiv_residual, 1e-8,
                         inputs={"k": spec.k}))

    # rescale from raw theta representatives to the stored normalized points
    nu0 = complex(np.vdot(base.as_array(), jets[0])
                  / np.vdot(base.as_array(), base.as_array()))
    lambdas: list[complex] = []
    rep_drift = 0.0
    c_drift = 0.0
    for l in range(1, spec.k + 1):
        point = iterate_double_neg(base, l).as_array()
        nu = complex(np.vdot(point, reps[l]) / np.vdot(point, point))
        rep_drift = max(rep_drift, float(np.linalg.norm(reps[l] - nu * point))
                        / float(np.linalg.norm(reps[l])))
        lambdas.append(lam_raw[l - 1] * nu / nu0)
        # c must come out the same when fitted anywhere along the orbit
        _, c_l, _ = _elimination_solve(systems[l])
        c_drift = max(c_drift, abs(c_l - c) / abs(c))
    reports.append(check("calibration.representative", rep_drift, 1e-8,
                         inputs={"k": spec.k}))
    reports.append(check("calibration.c_constancy", c_drift, 1e-6,
                         inputs={"k": spec.k}))

    pure_power = all(abs(lam_raw[l - 1] - lam_raw[0] ** l) < 1e-6 * abs(lam_raw[0]) ** l
                     for l in range(1, spec.k + 1))

    # block (0,1) of the analytic matrix after eliminating s(a), rescaled to
    # the normalized-point diagonal
    m0, m1 = moore_from_coords(jets[0]), moore_from_coords(jets[1])
    target = (m1 - m0.scale(s)).scale(1.0 / nu0)
    fitted = moore_from_coords(iterate_double_neg(base, 1).coords).scale(lambdas[0])
    agree = (target - fitted).coefficient_norm() / target.coefficient_norm()
    reports.append(check("calibration.block01", agree, 1e-6,
                         inputs={"lambda1": lambdas[0], "pure_power_form": pure_power}))

    if not all(r.passed for r in reports):
        worst = max(r.residual / r.tol for r in reports)
        raise CalibrationFailed(
            f"calibration residuals exceed tolerance (worst {worst:.3e}x)")
    return lambdas, reports


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


def _overflow_at(l: int) -> CalibrationFailed:
    return CalibrationFailed(f"theta values or tangent representatives overflow "
                             f"at offset l = {l}")


def elimination_consequence_residual(a_z: complex, ctx: ThetaContext) -> float:
    """Coefficient norm of M' - s*M - c*M_V, the matrix form of the fit."""
    s, c, _ = derivative_elimination_fit(a_z, ctx)
    jet = theta_jet(a_z, ctx, 1)
    m0, m1 = moore_from_coords(jet[0]), moore_from_coords(jet[1])
    mv = moore_from_coords(tangent_rep(jet[0]))
    return (m1 - m0.scale(s) - mv.scale(c)).coefficient_norm()


# ---------------------------------------------------------------------------
# presentation checks
# ---------------------------------------------------------------------------

def equilibrate(n: np.ndarray, passes: int = 4) -> np.ndarray:
    """Two-sided diagonal scaling toward unit row/column norms.

    Rank-preserving; compresses the block-scale spread of jet matrices
    (theta derivatives grow like (6*pi)^d) so that singular value
    thresholding sees the structural zeros, not the scaling.  Acts on the
    last two axes, so a stack is scaled matrix by matrix.
    """
    n = np.array(n, dtype=complex)
    for _ in range(passes):
        rn = np.linalg.norm(n, axis=-1, keepdims=True)
        rn[rn == 0] = 1.0
        n /= rn
        cn = np.linalg.norm(n, axis=-2, keepdims=True)
        cn[cn == 0] = 1.0
        n /= cn
    return n


def verify_presentation(a: PolyMatrix, psi: complex, k: int,
                        curve_samples: list[ProjectivePoint],
                        off_samples: list[tuple[complex, complex, complex]],
                        det_tol: float = 1e-7) -> list[CheckReport]:
    """det(A) = w^(k+1) up to scalar; corank k+1 on the curve, 0 off it.

    The determinant identity is fitted at the off-curve samples (the same
    evaluations the rank check uses); rank decisions are made on the
    equilibrated evaluation.
    """
    size = 3 * (k + 1)
    off_values = eval_matrix(a, off_samples)
    w_pow = evaluate(hesse_form(psi), off_samples) ** (k + 1)
    scalar, det_residual = det_scalar_fit(off_values, w_pow)
    reports = [check("presentation.det", det_residual, det_tol,
                     inputs={"k": k, "scalar": scalar})]

    on_values = eval_matrix(a, [p.coords for p in curve_samples])
    worst_on = np.max(np.abs(numeric_rank(equilibrate(on_values)) - 2 * (k + 1)))
    reports.append(check("presentation.corank_on_curve", float(worst_on), 0.5,
                         inputs={"k": k, "samples": len(curve_samples)}))

    worst_off = np.max(np.abs(numeric_rank(equilibrate(off_values)) - size))
    reports.append(check("presentation.rank_off_curve", float(worst_off), 0.5,
                         inputs={"k": k, "samples": len(off_samples)}))
    return reports


# rejection sampling gives up after this many draws per requested sample
_DRAWS_PER_SAMPLE = 1000


def _rejection_sample(draw, accept, count: int, what: str) -> list:
    """The first `count` accepted draws; no further draw once they are found."""
    draws = (draw() for _ in range(_DRAWS_PER_SAMPLE * count))
    out = list(itertools.islice(filter(accept, draws), count))
    if len(out) < count:
        raise SamplingFailed(f"found {len(out)} of {count} {what} in "
                             f"{_DRAWS_PER_SAMPLE * count} draws")
    return out


def curve_sample_points(ctx: ThetaContext, count: int, seed: int) -> list[ProjectivePoint]:
    """Deterministic on-curve samples away from E[3]."""
    rng = np.random.default_rng(seed)
    cfg = CurveConfig(psi=hesse_psi(ctx))
    return _rejection_sample(
        lambda: embed(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)), ctx),
        lambda p: not is_three_torsion(p, cfg) and min(abs(v) for v in p.coords) > 1e-3,
        count, "curve points away from E[3]")


def offcurve_sample_triples(psi: complex, count: int, seed: int) -> list[tuple]:
    """Deterministic generic triples with |w(x)| bounded away from zero."""
    rng = np.random.default_rng(seed)
    w = hesse_form(psi)
    return _rejection_sample(
        lambda: tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)),
        lambda xs: abs(evaluate(w, xs)) > 1e-2,
        count, "triples off the curve")


# ---------------------------------------------------------------------------
# sections and automorphy
# ---------------------------------------------------------------------------

def _section_weights(k: int) -> np.ndarray:
    # component r of column c carries C(c,r)/C(k,r); every printed small-k
    # value matches and the transport identity below pins the general case
    return np.array([[math.comb(column, row) / math.comb(k, row) for row in range(k + 1)]
                     for column in range(k + 1)])


def section_basis(spec: UlrichSpec, z: complex) -> list[SectionVector]:
    """The 3(k+1) global sections, grouped by column then theta index."""
    if spec.a_z is None:
        raise ValueError("sections need the analytic point a_z")
    k = spec.k
    jets = theta_jet(z + spec.a_z, spec.ctx, k)
    column, row = np.indices((k + 1, k + 1))
    terms = _section_weights(k)[:, :, None] * jets[np.maximum(column - row, 0)]
    # comps[column, index, row], exactly zero for row > column
    comps = np.where((row <= column)[:, :, None], terms, 0j).transpose(0, 2, 1)
    return [SectionVector(components=tuple(comps[c, i].tolist()), index=i, column=c)
            for c in range(k + 1) for i in range(3)]


def automorphy_block(spec: UlrichSpec, lam: complex, z: complex) -> np.ndarray:
    """(k+1)-square factor with entries C(k-i, j-i) * e^(j-i)_a(lambda, z)."""
    if spec.a_z is None:
        raise ValueError("the block factor needs the analytic point a_z")
    k = spec.k
    jets = automorphy_jet(spec.a_z, lam, z, spec.ctx, k)
    i, j = np.triu_indices(k + 1)
    f = np.zeros((k + 1, k + 1), dtype=complex)
    f[i, j] = [math.comb(k - r, d) for r, d in zip(i, j - i)] * jets[j - i]
    return f


def automorphy_transport_residual(spec: UlrichSpec, lam: complex, z: complex) -> float:
    """max |f_a(lambda,z) v(z) - v(z+lambda)| over the whole section basis.

    Normalized by the magnitude of the transported sections: at lambda = tau
    the factor and its derivatives reach 1e4..1e8, so the raw difference
    carries that scale.
    """
    f = automorphy_block(spec, lam, z)
    lhs = np.array([v.components for v in section_basis(spec, z)]) @ f.T
    rhs = np.array([v.components for v in section_basis(spec, z + lam)])
    scale = 1.0 + np.max(np.abs(lhs), axis=1) + np.max(np.abs(rhs), axis=1)
    return float(np.max(np.max(np.abs(lhs - rhs), axis=1) / scale))


def automorphy_cocycle_residual(spec: UlrichSpec, z: complex) -> float:
    """max entry of f(1+tau, z) - f(1, z+tau) f(tau, z), scale-normalized."""
    tau = spec.ctx.tau
    lhs = automorphy_block(spec, 1 + tau, z)
    rhs = automorphy_block(spec, 1.0, z + tau) @ automorphy_block(spec, tau, z)
    scale = 1.0 + float(np.max(np.abs(lhs)) + np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))) / scale


# ---------------------------------------------------------------------------
# evaluation-map kernel bookkeeping
# ---------------------------------------------------------------------------

def jet_kernel_residual(spec: UlrichSpec, z: complex) -> float:
    """Residual of A(x(z)) applied to the stacked jet (th^(k), ..., th', th)(z+a)."""
    a, _ = build_analytic(spec)
    x = embed(z, spec.ctx).coords
    numeric = eval_matrix(a, x)
    stacked = theta_jet(z + spec.a_z, spec.ctx, spec.k)[::-1].ravel()
    return float(np.max(np.abs(numeric @ stacked)))


def relation_matrix(spec: UlrichSpec) -> np.ndarray:
    """The 3(k+1) x 9(k+1) coefficient matrix of the evaluation-map relations.

    Row r, column 3*sigma + j holds the coefficient of x_j in entry (r, sigma)
    of the analytic block matrix: one column triple per section slot.
    """
    a, _ = build_analytic(spec)
    index = monomial_index(1)
    columns = [index[exp] for exp in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return a.coeffs[:, :, columns].reshape(spec.size, 3 * spec.size)


def relation_annihilation_residual(spec: UlrichSpec, z: complex) -> float:
    """The relations annihilate the section basis when x_j = th_j(z).

    Section slot sigma = 3*beta + i pairs block column beta with the basis
    column k - beta (theta index i), exactly as the rank-two display stacks
    them.
    """
    # weights[r, sigma] = sum_j rel[r, 3*sigma + j] * th_j(z)
    weights = relation_matrix(spec).reshape(spec.size, spec.size, 3) @ theta_jet(z, spec.ctx)[0]
    # section slot sigma = 3*beta + i holds basis column k - beta, index i
    sections = np.array([v.components for v in section_basis(spec, z)])
    sections = sections.reshape(spec.k + 1, 3, spec.k + 1)[::-1].reshape(spec.size, -1)
    return float(np.max(np.abs(weights @ sections)))
