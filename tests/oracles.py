"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: derivatives come from
finite differences (with Richardson extrapolation), matrix inverses from
cofactors, polynomial identities from numpy evaluations at sample points,
theta values from a plain fixed-window series sum (and, for the batched
jets, from the one-point sum they must equal bit for bit), the automorphy
factor as the quotient of two summed series, Moore and L
matrices and the Moore relations entry by entry in plain Python, the
calibration's block equivalence by nested loops over blocks and unknowns,
the emitted JSON and LaTeX of a matrix term by term, the factorization
records from the whole products A*B and B*A, and the presentation
records, the equilibration and the off-curve sampler one order, one pass
and one triple at a time.  The short helpers
at the end are conveniences the tests read jets and points through; the
package itself passes the arrays.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from hessecubic.curve import ProjectivePoint, double_neg
from hessecubic.moore import MOORE_PATTERN, moore_from_coords
from hessecubic.poly import (PolyMatrix, det_scalar_fit, eval_matrix, evaluate, hesse_form,
                             monomial_index, monomials, numeric_rank)
from hessecubic.report import CheckReport, check
from hessecubic.theta import (_CHAR_A, _CHAR_A_ARRAY, _CHAR_B, _PHASE_ARRAY, _TWO_PI_I,
                              CHECK_TOL, ThetaContext, _half_width, _outside_in, leibniz_quotient,
                              theta_jet)


def central_difference(f, z: complex, h: float = 1e-5) -> complex:
    return (f(z + h) - f(z - h)) / (2 * h)


def nested_central(f, z: complex, order: int, h: float) -> complex:
    """order-fold nested central difference, O(h^2) accurate."""
    if order == 0:
        return f(z)
    return (nested_central(f, z + h, order - 1, h)
            - nested_central(f, z - h, order - 1, h)) / (2 * h)


def richardson_derivative(f, z: complex, order: int, h: float = 0.02,
                          levels: int = 2) -> complex:
    """Richardson-extrapolated nested central difference, O(h^(2+2*levels))."""
    table = [nested_central(f, z, order, h / 2 ** j) for j in range(levels + 1)]
    for lev in range(1, levels + 1):
        table = [(4 ** lev * table[j + 1] - table[j]) / (4 ** lev - 1)
                 for j in range(len(table) - 1)]
    return table[0]


def theta_series_oracle(z: complex, tau: complex, order: int,
                        half_width: int = 30) -> tuple[list[complex], float]:
    """order-th z-derivatives of (th0, th1, th2) by a plain fixed-window sum.

    th_i(z) = phase_i * sum_n exp(pi*i*t^2*3tau + 2*pi*i*t*(3z + 1/2)),
    t = n + a_i, with (a_i) = (1/2, 1/6, 5/6) and (phase_i) = (1, w^2, w),
    w = exp(2*pi*i/3), summed term by term over |n| <= half_width; each
    derivative multiplies a term by 6*pi*i*t.  Also returns the largest
    term modulus, the scale of the rounding error.
    """
    omega = cmath.exp(2j * math.pi / 3)
    values, largest = [], 0.0
    for a, phase in ((0.5, 1.0), (1 / 6, omega ** 2), (5 / 6, omega)):
        total = 0j
        for n in range(-half_width, half_width + 1):
            t = n + a
            term = ((6j * math.pi * t) ** order
                    * cmath.exp(3j * math.pi * t * t * tau + 2j * math.pi * t * (3 * z + 0.5)))
            largest = max(largest, abs(term))
            total += term
        values.append(phase * total)
    return values, largest


def per_point_jet(z: complex, ctx: ThetaContext, max_order: int, pad: int = 0) -> np.ndarray:
    """The (max_order+1, 3) jet at z summed alone over its own window, `pad` terms wider.

    The one-point sum the package's batched theta_jet must reproduce bit for
    bit: the window from the same tail bound, the terms for the three
    characteristics from one np.exp, term-wise derivatives by one cumprod and
    an outside-in cumsum.
    """
    u, sigma = 3 * complex(z), 3 * complex(ctx.tau)
    t_star = -u.imag / sigma.imag
    n0 = [round(t_star - a) for a in _CHAR_A]
    r = _half_width(t_star, [n + a for n, a in zip(n0, _CHAR_A)], sigma.imag, max_order) + pad
    t = (np.array(n0, dtype=float)[:, None] + _outside_in(r)) + _CHAR_A_ARRAY[:, None]
    terms = np.empty((max_order + 1,) + t.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        terms[0] = np.exp(t * (t * (1j * math.pi * sigma) + _TWO_PI_I * (u + _CHAR_B)))
        terms[1:] = 3 * _TWO_PI_I * t
        return np.cumprod(terms, axis=0).cumsum(axis=2)[:, :, -1] * _PHASE_ARRAY


def proj_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """1 - |<p,q>|^2 / (|p|^2 |q|^2); zero iff equal projective classes."""
    u, v = as_array(p), as_array(q)
    inner = abs(np.vdot(u, v)) ** 2
    d = 1.0 - inner / ((np.linalg.norm(u) ** 2) * (np.linalg.norm(v) ** 2))
    return float(max(d, 0.0))


def point_from_json(data) -> ProjectivePoint:
    """Inverse of ProjectivePoint.to_json: [[re, im], ...] back to a point."""
    return ProjectivePoint.from_coords([complex(re, im) for re, im in data])


def brute_det3(m: np.ndarray) -> complex:
    """Rule-of-Sarrus determinant of a numeric 3x3 matrix."""
    return (m[0, 0] * m[1, 1] * m[2, 2] + m[0, 1] * m[1, 2] * m[2, 0]
            + m[0, 2] * m[1, 0] * m[2, 1] - m[0, 2] * m[1, 1] * m[2, 0]
            - m[0, 0] * m[1, 2] * m[2, 1] - m[0, 1] * m[1, 0] * m[2, 2])


def adjugate3(m: np.ndarray) -> np.ndarray:
    """Adjugate of a numeric 3x3 matrix from 2x2 cofactors."""
    out = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return out


def moore_det_closed_form(a, xs) -> complex:
    """det M_{a,x} = a0 a1 a2 (x0^3+x1^3+x2^3) - (a0^3+a1^3+a2^3) x0 x1 x2.

    Derived once by hand-expanding the 3x3 determinant; frozen here as the
    oracle, evaluated at the triple xs.
    """
    a0, a1, a2 = (complex(v) for v in a)
    x0, x1, x2 = (complex(v) for v in xs)
    return (a0 * a1 * a2 * (x0 ** 3 + x1 ** 3 + x2 ** 3)
            - (a0 ** 3 + a1 ** 3 + a2 ** 3) * x0 * x1 * x2)


def iterate_double_neg_oracle(p: ProjectivePoint, l: int) -> ProjectivePoint:
    """l-fold composition of double_neg, started from p."""
    for _ in range(l):
        p = double_neg(p)
    return p


def random_triple(rng) -> tuple[complex, complex, complex]:
    return tuple(complex(rng.normal(), rng.normal()) for _ in range(3))


def random_poly_matrix(rng, rows: int, cols: int, degree: int) -> PolyMatrix:
    """Dense random coefficients: every monomial of the degree present."""
    size = (degree + 1) * (degree + 2) // 2
    return PolyMatrix(rng.normal(size=(rows, cols, size))
                      + 1j * rng.normal(size=(rows, cols, size)))


def matrix_close(a: PolyMatrix, b: PolyMatrix, tol: float = 1e-10) -> bool:
    return (a - b).coefficient_norm() <= tol * (1.0 + a.coefficient_norm()
                                                + b.coefficient_norm())


def relation_residual_oracle(a_jet, y_jet, x, order: int) -> list[complex]:
    """The three order-`order` Moore relation residuals by a plain triple loop.

    sum_j C(order,j) * sum_col a_jet[j][p] * x[q] * y_jet[order-j][col] for
    row r, (p, q) = MOORE_PATTERN[r][col]; jets are lists of rows.
    """
    residuals = [0j, 0j, 0j]
    for j in range(order + 1):
        avec, yvec = a_jet[j], y_jet[order - j]
        weight = math.comb(order, j)
        for r in range(3):
            residuals[r] += weight * sum(avec[p] * x[q] * yvec[col]
                                         for col, (p, q) in enumerate(MOORE_PATTERN[r]))
    return residuals


def _monomial(*indices) -> int:
    exp = [0, 0, 0]
    for i in indices:
        exp[i] += 1
    return monomial_index(len(indices))[tuple(exp)]


def moore_entrywise(coords) -> np.ndarray:
    """Coefficients of the Moore matrix, written entry by entry."""
    a = [complex(v) for v in coords]
    out = np.zeros((3, 3, 3), dtype=complex)
    for r, row in enumerate(MOORE_PATTERN):
        for c, (p, q) in enumerate(row):
            out[r, c, _monomial(q)] = a[p]
    return out


# entry (r, c) of a0*a1*a2 * L: a_p*a_q*x_v^2 - a_s^2*x_t*x_u
_L_TABLE = (
    (((1, 2), 0, 0, (1, 2)), ((0, 1), 1, 2, (0, 2)), ((0, 2), 2, 1, (0, 1))),
    (((0, 1), 2, 2, (0, 1)), ((0, 2), 0, 1, (1, 2)), ((1, 2), 1, 0, (0, 2))),
    (((0, 2), 1, 1, (0, 2)), ((1, 2), 2, 0, (0, 1)), ((0, 1), 0, 2, (1, 2))),
)


def l_entrywise(coords) -> np.ndarray:
    """Coefficients of L = adj(M)/(a0*a1*a2), written entry by entry."""
    a = [complex(v) for v in coords]
    pref = 1.0 / (a[0] * a[1] * a[2])
    out = np.zeros((3, 3, 6), dtype=complex)
    for r in range(3):
        for c in range(3):
            (p, q), v, s, (t, u) = _L_TABLE[r][c]
            out[r, c, _monomial(v, v)] = pref * a[p] * a[q]
            out[r, c, _monomial(t, u)] = -(pref * a[s] ** 2)
    return out


def section_components_oracle(jets, k: int) -> list[list[complex]]:
    """Section basis components, column by column then theta index, entry by entry.

    Component r of column c is C(c,r)/C(k,r) * th^(c-r)(z+a), zero for r > c;
    jets is the list of rows th^(m)(z+a), m = 0..k.
    """
    out = []
    for column in range(k + 1):
        for index in range(3):
            out.append([math.comb(column, row) / math.comb(k, row) * jets[column - row][index]
                        if row <= column else 0j for row in range(k + 1)])
    return out


def automorphy_block_oracle(jets, k: int) -> np.ndarray:
    """(k+1)-square upper-triangular block C(k-i, j-i) * e^(j-i), entry by entry."""
    f = np.zeros((k + 1, k + 1), dtype=complex)
    for i in range(k + 1):
        for j in range(i, k + 1):
            f[i, j] = math.comb(k - i, j - i) * jets[j - i]
    return f


def transport_residual_oracle(f: np.ndarray, here, there) -> float:
    """max over sections of |f v(z) - v(z+lambda)| / scale, one by one.

    The three sections of a column share one scale, the largest over rows r
    of sum_j |f_rj| * max_i |v_i(z)_j| + max_i |v_i(z+lambda)_r|: each
    component's term sizes measured by the largest of the three theta values
    it is made of.  here and there are section_basis arrays comps[column, index, row].
    """
    worst = 0.0
    rows = range(here.shape[2])
    for column in range(len(here)):
        size_here = [max(abs(here[column, i, j]) for i in range(3)) for j in rows]
        size_there = [max(abs(there[column, i, r]) for i in range(3)) for r in rows]
        scale = max(sum(abs(f[r, j]) * size_here[j] for j in rows) + size_there[r] for r in rows)
        for index in range(3):
            lhs = f @ here[column, index]
            rhs = there[column, index]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def annihilation_residual_oracle(rel: np.ndarray, xs, sections, k: int) -> float:
    """max |sum over slots of (relation row . x) * section| by a plain triple loop.

    Slot sigma = 3*beta + i pairs block column beta with basis column k - beta;
    sections is a section_basis array comps[column, index, row].
    """
    worst = 0.0
    for r in range(rel.shape[0]):
        acc = np.zeros(k + 1, dtype=complex)
        for beta in range(k + 1):
            for i in range(3):
                sigma = 3 * beta + i
                weight = sum(rel[r, 3 * sigma + j] * xs[j] for j in range(3))
                acc += weight * sections[k - beta, i]
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


def equivalence_residual_oracle(jets, reps, u, w, lam) -> np.ndarray:
    """Blocks (i, j), j >= i, of U*A*W - T(lambda), summed term by term.

    A has blocks C(k-i, j-i) * jets[j-i], T blocks C(k-i, j-i) * lam[j-i] *
    reps[j-i]; U and W are upper triangular.
    """
    k = len(jets) - 1
    rows = []
    for i in range(k + 1):
        for j in range(i, k + 1):
            acc = -math.comb(k - i, j - i) * lam[j - i] * reps[j - i]
            for m in range(i, j + 1):
                for n in range(m, j + 1):
                    acc = acc + u[i, m] * math.comb(k - m, n - m) * jets[n - m] * w[n, j]
            rows.append(acc)
    return np.concatenate(rows)


def equivalence_jacobian_oracle(jets, reps, u, w) -> np.ndarray:
    """Jacobian of the residual in (strict U, strict W, lambda_1..lambda_k), entry by entry."""
    k = len(jets) - 1
    strict = [(i, m) for i in range(k + 1) for m in range(i + 1, k + 1)]
    blocks = [(i, j) for i in range(k + 1) for j in range(i, k + 1)]
    n_uw = len(strict)
    jac = np.zeros((3 * len(blocks), 2 * n_uw + k), dtype=complex)
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
    return jac


def equivalence_solve_oracle(jets, reps, chain, max_iter: int = 60):
    """Gauss-Newton on U*A*W = T(lambda) with the loop residual and Jacobian."""
    k = len(jets) - 1
    scale = max(np.linalg.norm(v) for v in jets)
    strict = [(i, m) for i in range(k + 1) for m in range(i + 1, k + 1)]
    n_uw = len(strict)
    u = np.eye(k + 1, dtype=complex)
    w = np.eye(k + 1, dtype=complex)
    lam = np.concatenate([[1.0 + 0j], chain])
    for _ in range(max_iter):
        residual = equivalence_residual_oracle(jets, reps, u, w, lam)
        if np.linalg.norm(residual) < 1e-13 * scale:
            break
        jac = equivalence_jacobian_oracle(jets, reps, u, w)
        step, _, _, _ = np.linalg.lstsq(jac, -residual, rcond=None)
        for p, (bi, bm) in enumerate(strict):
            u[bi, bm] += step[p]
            w[bi, bm] += step[n_uw + p]
        lam[1:] += step[2 * n_uw:]
    residual = equivalence_residual_oracle(jets, reps, u, w, lam)
    return lam[1:], float(np.linalg.norm(residual) / scale)


def equilibrate_oracle(n) -> np.ndarray:
    """Four passes that divide the rows, then the columns, by their 2-norms."""
    n = np.array(n, dtype=complex)
    for _ in range(4):
        rn = np.linalg.norm(n, axis=-1, keepdims=True)
        rn[rn == 0] = 1.0
        n /= rn
        cn = np.linalg.norm(n, axis=-2, keepdims=True)
        cn[cn == 0] = 1.0
        n /= cn
    return n


def presentation_oracle(stack: list[PolyMatrix], psi: complex, k: int,
                        curve_samples, off_samples) -> list[list[CheckReport]]:
    """The presentation records of each order-k matrix of the stack, one order at a time.

    The structure compares the blocks on and below the diagonal with block
    (0, 0) and with zero; det and the off-curve rank read block (0, 0) at the
    off-curve samples, the corank all of the matrix at the curve samples, each
    scaled pass by pass (equilibrate_oracle).
    """
    coeffs = np.stack([a.coeffs for a in stack])
    bits = coeffs.view(np.uint64).reshape(len(stack), k + 1, 3, k + 1, 3, -1).swapaxes(2, 3)
    j, i = np.triu_indices(k + 1)  # the blocks (i, j) with i >= j
    diagonal = np.where((i == j).reshape(-1, 1, 1, 1), bits[:, :1, 0], np.uint64(0))
    misplaced = np.any(bits[:, i, j] != diagonal, axis=(2, 3, 4)).sum(axis=1)
    block = eval_matrix(PolyMatrix(coeffs[:, :3, :3]), off_samples)
    scalars, det_residuals = det_scalar_fit(block, evaluate(hesse_form(psi), off_samples))
    worst_off = np.max(np.abs(numeric_rank(equilibrate_oracle(block)) - 3), axis=1)
    on = eval_matrix(PolyMatrix(coeffs), [p.coords for p in curve_samples])
    worst_on = np.max(np.abs(numeric_rank(equilibrate_oracle(on)) - 2 * (k + 1)), axis=1)
    return [[check("presentation.structure", float(misplaced[m]), 0.5, inputs={"k": k}),
             check("presentation.det", det_residuals[m], 1e-7,
                   inputs={"k": k, "scalar": complex(scalars[m] ** (k + 1))}),
             check("presentation.corank_on_curve", float(worst_on[m]), 0.5,
                   inputs={"k": k, "samples": len(curve_samples)}),
             check("presentation.rank_off_curve", float(worst_off[m]), 0.5,
                   inputs={"k": k, "samples": len(off_samples)})]
            for m in range(len(stack))]


def factorization_product_oracle(a: PolyMatrix, b: PolyMatrix, psi: complex) -> np.ndarray:
    """(K, 2): the entrywise backward errors of A*B = w*I and B*A = w*I over the
    bottom-right 3(k+1) corner of each order k = 1..K, read from the two whole
    polynomial products.

    Entry (i, j) of X*Y - w*I is measured against sum_m |X_im| * |Y_mj| +
    |w| * delta_ij, each |.| the 2-norm of one entry's coefficient vector.
    """
    w, size = hesse_form(psi), a.rows
    identity = np.eye(size)
    ratios = []
    for x, y in ((a, b), (b, a)):
        residual = (x @ y).coeffs - identity[..., None] * w
        scale = (np.linalg.norm(x.coeffs, axis=-1) @ np.linalg.norm(y.coeffs, axis=-1)
                 + np.linalg.norm(w) * identity)
        ratios.append(np.linalg.norm(residual, axis=-1) / np.where(scale > 0, scale, 1.0))
    return np.array([[r[size - 3 * (k + 1):, size - 3 * (k + 1):].max() for r in ratios]
                     for k in range(1, size // 3)])


def offcurve_triples_oracle(psi: complex, count: int, seed: int) -> list[tuple]:
    """The first `count` triples, drawn one at a time, with |w(x)| > 1e-2 at that triple."""
    rng = np.random.default_rng(seed)
    w = hesse_form(psi)
    out = []
    while len(out) < count:
        xs = tuple(rng.uniform(-1, 1, (3, 2)).view(complex)[:, 0].tolist())
        if abs(evaluate(w, xs)) > 1e-2:
            out.append(xs)
    return out


def to_json(m: PolyMatrix) -> dict:
    """The emitted JSON layout of a matrix: nonzero terms of each entry, in sorted exponent order."""
    exps = monomials(m.degree)
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[[{"exp": list(e), "coeff": [c.real, c.imag]}
                          for e, c in zip(exps, entry) if c]
                         for entry in row] for row in m.coeffs.tolist()]}


def _coeff_str(c: complex) -> str:
    if abs(c.imag) < 1e-12:
        return f"{c.real:.6g}"
    if abs(c.real) < 1e-12:
        return f"{c.imag:.6g}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real:.6g}{sign}{abs(c.imag):.6g}i)"


def _poly_to_latex(coeffs: list[complex], degree: int) -> str:
    """Nonzero terms of one coefficient vector, highest exponent first."""
    bits = []
    for exp, c in reversed(list(zip(monomials(degree), coeffs))):
        if not c:
            continue
        mono = "".join(f"x_{i}" if e == 1 else f"x_{i}^{{{e}}}"
                       for i, e in enumerate(exp) if e)
        coeff = _coeff_str(c)
        bits.append(f"{coeff} {mono}".strip() if mono else coeff)
    return " + ".join(bits) if bits else "0"


def matrix_to_latex_oracle(m: PolyMatrix) -> str:
    """The emitted LaTeX of a matrix, entry by entry: pmatrix rows, \\; between block columns."""
    lines = [r"\begin{pmatrix}"]
    for i, row in enumerate(m.coeffs.tolist()):
        cells = []
        for j, entry in enumerate(row):
            cell = _poly_to_latex(entry, m.degree)
            if j and j % 3 == 0:
                cell = r"\;" + cell
            cells.append(cell)
        sep = r" \\" if i < m.rows - 1 else ""
        lines.append(" & ".join(cells) + sep)
    lines.append(r"\end{pmatrix}")
    return "\n".join(lines)


def theta_vector(z: complex, ctx: ThetaContext,
                 order: int = 0) -> tuple[complex, complex, complex]:
    """(th0, th1, th2) at z, differentiated `order` times: one row of the jet."""
    return tuple(theta_jet(z, ctx, order)[order].tolist())


def automorphy_quotient(den: np.ndarray, num: np.ndarray, ctx: ThetaContext) -> np.ndarray:
    """Jet of e_a(lambda, z) = th_i(z+a+lambda) / th_i(z+a) from the theta jets den at
    z+a and num at z+a+lambda, as the quotient of the two series.

    Divides at the first index whose denominator is not near zero (the largest
    always qualifies) and asserts that all such indices give the same ratio.
    """
    dens = np.abs(den[0])
    good = np.flatnonzero(dens > 1e-6 * dens.max())
    ratios = num[0, good] / den[0, good]
    worst = float(np.max(np.abs(ratios - ratios[0])))
    assert worst <= CHECK_TOL * (1.0 + abs(ratios[0])), \
        f"automorphy ratio disagrees across indices by {worst:.3e}"
    return leibniz_quotient(num[:, good[0]], den[:, good[0]])


def automorphy_jet(a_z: complex, lam: complex, z: complex, ctx: ThetaContext,
                   max_order: int = 0) -> np.ndarray:
    """Jet of e_a(lambda, z) = th_i(z+a+lambda) / th_i(z+a) from two one-point jets."""
    return automorphy_quotient(theta_jet(z + a_z, ctx, max_order),
                               theta_jet(z + a_z + lam, ctx, max_order), ctx)


def moore_derivative(a_z: complex, ctx: ThetaContext, i: int = 0) -> PolyMatrix:
    """Moore-patterned matrix with coefficients theta^(i)(a_z)."""
    return moore_from_coords(theta_jet(a_z, ctx, i)[i])


def jet_matrices(stack: PolyMatrix) -> list[PolyMatrix]:
    """The matrices of a stacked PolyMatrix, such as the jet l_derivative returns."""
    return [PolyMatrix(c) for c in stack.coeffs]


def zeros(rows: int, cols: int, degree: int) -> PolyMatrix:
    return PolyMatrix(np.zeros((rows, cols, len(monomials(degree))), dtype=complex))


def as_array(p: ProjectivePoint) -> np.ndarray:
    return np.array(p.coords, dtype=complex)


def negate(p: ProjectivePoint) -> ProjectivePoint:
    """The inverse point: coordinates 1 and 2 swapped (sign is projective)."""
    a0, a1, a2 = p.coords
    return ProjectivePoint.from_coords((a0, a2, a1))
