"""Command line surface: emit matrices, run check suites, sweep parameters.

Exit codes: 0 all checks passed / output written, 1 check failure or
construction error (JSON error object on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import latexfmt
from .bundles import (UlrichSpec, _automorphy_points, _curve_draws, _fit_points, analytic_jets,
                      automorphy_residuals, build_algebraic, build_analytic,
                      calibrate_by_order, curve_sample_points,
                      elimination_consequence_residual, elimination_fit, entry_norms,
                      equilibrate, factor_backward_error, factorization_errors,
                      factorization_records, jet_kernel_residual, offcurve_sample_triples,
                      relation_annihilation_residual, relation_matrix,
                      verify_factorization, verify_presentation)
from .curve import CurveConfig, ProjectivePoint, embed, is_three_torsion, on_curve
from .errors import HesseCubicError
from .moore import l_from_coords, moore_from_coords, theta_relation_residuals
from .poly import (PolyMatrix, det_scalar_fit, eval_matrix, evaluate, hesse_form,
                   numeric_rank)
from .report import CheckReport, bundle_json, check
from .theta import (_PSI_PROBES, CHECK_TOL, ThetaContext, basis_provenance, hesse_psi,
                    theta_jet, theta_jets)

MUTATIONS = ("zero-block", "drop-binomial", "perturb-psi")

# the a and z of check's Moore relation grid, and the z of sweep's relation check
_RELATION_A = (0.23, 0.31 + 0.07j, -0.19 + 0.11j)
_RELATION_Z = (0.11, -0.27 + 0.09j, 0.41 + 0.13j)
_SWEEP_RELATION_Z = 0.11
# the z of the automorphy checks and of the bookkeeping checks
_AUTOMORPHY_Z = 0.13 + 0.05j
_BOOKKEEPING_Z = (0.11, 0.29 + 0.07j)


def parse_complex(text: str) -> complex:
    """Parse 're+imi' or 're+imj' or a bare real; 'i' alone is the unit."""
    s = text.strip().replace(" ", "").replace("i", "j")
    s = re.sub(r"(?<![\d.])([+-]?)j", r"\g<1>1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def parse_point(text: str):
    """Either a complex a_z or a comma-separated projective triple."""
    if "," in text:
        return ProjectivePoint.from_coords([parse_complex(t) for t in text.split(",")])
    return parse_complex(text)


def non_negative_int(text: str, what: str = "k") -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{what} must be non-negative")
    return value


def parse_seed(text: str) -> int:
    return non_negative_int(text, "seed")


def parse_tol(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tol must be positive and finite, got {text!r}")
    return value


def parse_complex_list(text: str) -> list[complex]:
    """Comma-separated complex numbers; the empty string is the empty list."""
    return [parse_complex(t) for t in text.split(",")] if text else []


def parse_int_list(text: str) -> list[int]:
    """Comma list or inclusive lo:hi range of non-negative k."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        lo, hi = text.split(":")
        lo, hi = non_negative_int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text}")
        return list(range(lo, hi + 1))
    return [non_negative_int(t) for t in text.split(",")]


def _write_output(payload: str, out: str):
    if out == "-":
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _fail(message: str) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return 1


def _sum_theta_once(ctx: ThetaContext, listing, *args):
    """Sum the theta jet at every (z, order) of listing(*args) in one series sum and
    cache it, so that the stages of a command read their jets and sum nothing.

    If the listing or the sum fails, nothing is cached and nothing is raised
    here: each stage then sums its own points and raises what it raises alone.
    """
    try:
        points = listing(*args)
        theta_jets([z for z, _ in points], [m for _, m in points], ctx)
    except (HesseCubicError, ArithmeticError, ValueError):
        pass


def _uniform_draws(rng, n: int) -> np.ndarray:
    """The next n points z with real and imaginary parts uniform in [-0.5, 0.5)."""
    return rng.uniform(-0.5, 0.5, (n, 2)).view(complex)[:, 0]


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def _emit_points(a_z: complex | None, spec: UlrichSpec | None) -> list[tuple[complex, int]]:
    """Every (z, order) whose theta jet run_emit reads: the modulus probes, the
    point a, and with spec the analytic pair and the calibration at spec.k."""
    points = [(z, 0) for z in _PSI_PROBES] + ([] if a_z is None else [(a_z, 0)])
    if spec is not None:
        points += [(a_z, spec.k)] + [(z, 1) for z in _fit_points(spec)]
    return points


def run_emit(args) -> int:
    ctx = ThetaContext(tau=args.tau)
    a_z = None if isinstance(args.a, ProjectivePoint) else args.a
    spec = None if a_z is None or args.k < 1 else UlrichSpec(k=args.k, ctx=ctx, a_z=a_z)
    _sum_theta_once(ctx, _emit_points, a_z, spec)
    psi = hesse_psi(ctx)
    cfg = CurveConfig(psi=psi)

    if a_z is None:
        point = args.a
        residual = on_curve(point, cfg)
        if residual > 1e-6:
            return _fail(f"point is not on the curve (residual {residual:.3e})")
    else:
        point = embed(a_z, ctx)
    if is_three_torsion(point):
        return _fail("point in E[3]")

    bundle: dict = {
        "tau": [ctx.tau.real, ctx.tau.imag],
        "psi": [psi.real, psi.imag],
        "k": args.k,
        "point": point.to_json(),
        "provenance": basis_provenance(),
    }
    matrices: dict[str, PolyMatrix] = {
        "M": moore_from_coords(point.coords),
        "L": l_from_coords(point.coords),
    }
    if args.k >= 1:
        lambdas = None
        if spec is not None:
            matrices["A_analytic"], matrices["B_analytic"] = build_analytic(spec)
            lambdas, _ = calibrate_by_order(spec, [spec.k])
        matrices["A_algebraic"] = build_algebraic(point, args.k, lambdas)
        bundle["lambdas"] = None if lambdas is None else [[l.real, l.imag] for l in lambdas]

    if args.format == "json":
        bundle["matrices"] = matrices
        _write_output(bundle_json(bundle), args.out)
    else:
        lines = [f"% tau = {ctx.tau}, psi = {psi}, k = {args.k}"]
        for name, m in matrices.items():
            lines.append(f"% {name}")
            lines.append(latexfmt.matrix_to_latex(m))
        _write_output("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _hesse_identity_residual(ctx: ThetaContext, psi: complex, zs: np.ndarray) -> float:
    """Largest |w(theta(z))| over the z, relative to the size of its terms."""
    th = theta_jet(zs, ctx)[:, 0]
    size = np.sum(np.abs(th) ** 3, axis=1) + 3 * abs(psi) * np.abs(np.prod(th, axis=1))
    return float(np.max(np.abs(evaluate(hesse_form(psi), th)) / size))


def _theta_checks(ctx: ThetaContext, psi: complex, hesse_zs: np.ndarray,
                  zs: np.ndarray) -> list[CheckReport]:
    reports = [check("theta.hesse_identity", _hesse_identity_residual(ctx, psi, hesse_zs),
                     1e-9, {"tau": ctx.tau})]

    sym = 0.0
    # Python scalars: numpy complex arithmetic rounds differently
    values = theta_jet(np.concatenate([zs, -zs]), ctx)[:, 0].tolist()
    for v, m in zip(values[:5], values[5:]):
        sym = max(sym, abs(m[0] + v[0]), abs(m[1] + v[2]), abs(m[2] + v[1]))
    reports.append(check("theta.symmetry", sym, 1e-9, {"tau": ctx.tau}))
    reports.append(check("theta.psi_nondegenerate", CHECK_TOL / abs(psi ** 3 - 1),
                         1.0, {"psi": psi}))
    return reports


def _moore_checks(ctx: ThetaContext, psi: complex, sample_seed: int,
                  off: list[tuple]) -> list[CheckReport]:
    reports = []
    grid = theta_relation_residuals(np.array(_RELATION_A), np.array(_RELATION_Z), ctx, 4)
    for order, rep in enumerate(grid):  # orders 0..4, each the worst over the grid
        reports.append(check(f"moore.relation.order{order}", rep.residual, rep.tol,
                             {"grid": [len(_RELATION_A), len(_RELATION_Z)]}))

    w = hesse_form(psi)
    samples = curve_sample_points(ctx, 20, sample_seed)
    coords = np.array([p.coords for p in samples])
    m, l = moore_from_coords(coords), l_from_coords(coords)
    ml, m_norms, l_norms = m @ l, entry_norms(m.coeffs), entry_norms(l.coeffs)
    # entrywise backward errors over the stack of samples, as in verify_factorization
    worst_ml = factor_backward_error(ml, m_norms, l_norms, w).max()
    worst_lm = factor_backward_error(l @ m, l_norms, m_norms, w).max()
    worst_off = np.linalg.norm(ml.coeffs, axis=-1)[:, ~np.eye(3, dtype=bool)].max()
    scalar, fit = det_scalar_fit(eval_matrix(m, off), evaluate(w, off))
    prod = coords.prod(axis=1)
    worst_det = max(fit.max(), (np.abs(scalar - prod) / np.abs(prod)).max())
    reports.append(check("moore.ml_identity", worst_ml, 1e-8, {"samples": 20}))
    reports.append(check("moore.lm_identity", worst_lm, 1e-8, {"samples": 20}))
    reports.append(check("moore.offdiagonal", worst_off, 1e-12, {"samples": 20}))
    reports.append(check("moore.det_scalar", worst_det, 1e-8, {"samples": 20}))
    return reports


def _corner(m: PolyMatrix, k: int) -> PolyMatrix:
    """A view of the bottom-right 3(k+1) square: the order-k block matrix inside a higher one."""
    return PolyMatrix(m.coeffs[-3 * (k + 1):, -3 * (k + 1):])


def _mutate_analytic(a: PolyMatrix, mutate: str) -> PolyMatrix:
    """A copy of a whose blocks (i, i+1), block (0, 1) of every order's corner, are
    zeroed or lose their binomial C(k-i, 1): each becomes block (k-1, k), which has 1."""
    out = PolyMatrix(a.coeffs.copy())
    for i in range(0, a.rows - 3, 3):
        out.coeffs[i:i + 3, i + 3:i + 6] = 0.0 if mutate == "zero-block" else a.coeffs[-6:-3, -3:]
    return out


def _suffixed(reports: list[CheckReport], suffix: str) -> list[CheckReport]:
    for rep in reports:
        rep.name += suffix
    return reports


def _factorization_checks(a: PolyMatrix, b: PolyMatrix, psi: complex, k_max: int,
                          mutate: str | None) -> list[CheckReport]:
    if k_max < 1:  # the order-1 build of k = 0 has no factorization to report
        return []
    if mutate in ("zero-block", "drop-binomial"):
        a = _mutate_analytic(a, mutate)
    return [rep for k, pair in enumerate(verify_factorization(a, b, psi), 1)
            for rep in _suffixed(pair, f".k{k}")]


def _presentation_checks(spec: UlrichSpec, a: PolyMatrix, psi: complex, k_max: int,
                         seed: int, off: list[tuple]) -> list[CheckReport]:
    """Both presentations at every k <= min(k_max, 3), from one calibration and one
    presentation test at that order."""
    top = min(k_max, 3)
    if top < 1:
        return []
    on = curve_sample_points(spec.ctx, 10, seed)
    point = embed(spec.a_z, spec.ctx)
    orders = range(1, top + 1)
    lambdas, calibration = calibrate_by_order(UlrichSpec(k=top, ctx=spec.ctx, a_z=spec.a_z),
                                              orders)
    algebraic = build_algebraic(point, top, lambdas)
    presentation = verify_presentation([_corner(a, top), algebraic], psi, on, off)
    reports = []
    for k, cal_reports, (analytic_reports, algebraic_reports) in zip(orders, calibration,
                                                                      presentation):
        reports += (_suffixed(analytic_reports, f".analytic.k{k}")
                    + _suffixed(cal_reports, f".k{k}")
                    + _suffixed(algebraic_reports, f".algebraic.k{k}"))
    return reports


def _automorphy_checks(ctx: ThetaContext, a_z: complex, k_max: int) -> list[CheckReport]:
    residuals = automorphy_residuals(UlrichSpec(k=k_max, ctx=ctx, a_z=a_z), _AUTOMORPHY_Z)
    return [check(f"automorphy.{name}.k{k}", residual, 1e-7, {"z": _AUTOMORPHY_Z})
            for k, pair in enumerate(residuals, 1)
            for name, residual in zip(("transport", "cocycle"), pair)]


def _elimination_points(a_z: complex) -> list[complex]:
    """Where _elimination_checks fits the elimination identity."""
    return [a_z, a_z + 0.1, a_z - 0.07 + 0.1j, 0.2, 0.41 + 0.1j]


def _elimination_checks(ctx: ThetaContext, a_z: complex) -> list[CheckReport]:
    points = _elimination_points(a_z)
    jets = theta_jet(np.array(points), ctx, 1)
    fits = [elimination_fit(jet) for jet in jets]
    worst_fit = max(f[2] for f in fits)
    s0, c0, _ = fits[0]
    drift = max(abs(f[1] - c0) / abs(c0) for f in fits)
    return [
        check("elimination.fit", worst_fit, 1e-8, {"points": len(points)}),
        check("elimination.c_constancy", drift, 1e-6, {"c": c0}),
        check("elimination.consequence", elimination_consequence_residual(jets[0], s0, c0),
              1e-7, {"a_z": a_z}),
    ]


def _bookkeeping_checks(ctx: ThetaContext, a_z: complex, a: PolyMatrix) -> list[CheckReport]:
    """The evaluation-map relations of the order-1 analytic matrix a."""
    spec = UlrichSpec(k=1, ctx=ctx, a_z=a_z)
    worst = max(relation_annihilation_residual(spec, a, z) for z in _BOOKKEEPING_Z)
    rank = numeric_rank(equilibrate(relation_matrix(a)))
    return [
        check("bookkeeping.annihilation.k1", worst, 1e-7, {"a_z": a_z}),
        check("bookkeeping.relation_rank.k1", float(abs(rank - 6)), 0.5, {"rank": rank}),
        check("bookkeeping.kernel_jets.k1",
              jet_kernel_residual(spec, a, _BOOKKEEPING_Z[0]), 1e-7, {}),
    ]


def _check_points(spec: UlrichSpec, k_max: int, seed: int, hesse_zs: np.ndarray,
                  sym_zs: np.ndarray, sample_seed: int) -> list[tuple[complex, int]]:
    """Every (z, order) whose theta jet build_check_suite reads, stage by stage."""
    a_z, top = spec.a_z, min(k_max, 3)
    points = [(z, 0) for z in (*_PSI_PROBES, *hesse_zs, *sym_zs, *-sym_zs, *_RELATION_Z)]
    points += [(a, 4) for a in _RELATION_A] + [(z + a, 4) for a in _RELATION_A
                                              for z in _RELATION_Z]
    points += [(z, 0) for z in _curve_draws(np.random.default_rng(sample_seed), 20)]
    points.append((a_z, spec.k))
    if top:  # the presentation's curve samples and point, and its calibration
        points += [(z, 0) for z in _curve_draws(np.random.default_rng(seed), 10)]
        calibration = UlrichSpec(k=top, ctx=spec.ctx, a_z=a_z)
        points += [(a_z, 0), (a_z, top)] + [(z, 1) for z in _fit_points(calibration)]
    if k_max:
        points += [(z, k_max) for z in _automorphy_points(_AUTOMORPHY_Z + a_z, spec.ctx.tau)]
    points += [(z, 1) for z in _elimination_points(a_z)]
    return points + [(z, 0) for z in _BOOKKEEPING_Z] + [(z + a_z, 1) for z in _BOOKKEEPING_Z]


def build_check_suite(tau: complex, a_z: complex, k_max: int, seed: int,
                      mutate: str | None = None) -> list[CheckReport]:
    """The check records up to k_max; every order k reads its matrices from the
    bottom-right corners of one analytic build at max(k_max, 1)."""
    ctx = ThetaContext(tau=tau)
    spec = UlrichSpec(k=max(k_max, 1), ctx=ctx, a_z=a_z)
    rng = np.random.default_rng(seed)
    hesse_zs, sym_zs = _uniform_draws(rng, 10), _uniform_draws(rng, 5)
    sample_seed = int(rng.integers(1 << 30))
    _sum_theta_once(ctx, _check_points, spec, k_max, seed, hesse_zs, sym_zs, sample_seed)
    psi = hesse_psi(ctx)
    off = offcurve_sample_triples(psi, 10, seed + 1)
    reports = _theta_checks(ctx, psi, hesse_zs, sym_zs)
    broken_psi = psi + 1e-3 if mutate == "perturb-psi" else psi  # Moore and A*B gates only
    reports += _moore_checks(ctx, broken_psi, sample_seed, off)
    a, b = build_analytic(spec)
    reports += _factorization_checks(a, b, broken_psi, k_max, mutate)
    reports += _presentation_checks(spec, a, psi, k_max, seed, off)
    reports += _automorphy_checks(ctx, a_z, k_max)
    reports += _elimination_checks(ctx, a_z)
    reports += _bookkeeping_checks(ctx, a_z, _corner(a, 1))
    return reports


def run_check(args) -> int:
    if isinstance(args.a, ProjectivePoint):
        return _fail("the check suite needs an analytic point --a (complex a_z)")
    # the least order whose factorization block the mutation edits
    least = {"zero-block": 1, "drop-binomial": 2}.get(args.mutate, 0)
    if args.k < least:
        return _fail(f"{args.mutate} only exists for k >= {least}")
    reports = build_check_suite(args.tau, args.a, args.k, args.seed, args.mutate)
    for rep in reports:
        if args.tol is not None:
            rep.tol = args.tol
        sys.stdout.write(rep.to_json() + "\n")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_points(a_z: complex, k: int, hesse_zs: np.ndarray) -> list[tuple[complex, int]]:
    """Every (z, order) whose theta jet _sweep_config reads: a at orders 1 and k are
    two jets of the one sum."""
    points = [(z, 0) for z in (*_PSI_PROBES, *hesse_zs, _SWEEP_RELATION_Z)]
    return points + [(a_z, 1), (_SWEEP_RELATION_Z + a_z, 1)] + ([(a_z, k)] if k >= 1 else [])


def _sweep_config(tau: complex, a_z: complex, k: int, seed: int) -> list[CheckReport]:
    ctx = ThetaContext(tau=tau)
    hesse_zs = _uniform_draws(np.random.default_rng(seed), 5)
    _sum_theta_once(ctx, _sweep_points, a_z, k, hesse_zs)
    psi = hesse_psi(ctx)
    reports = [check("theta.hesse_identity", _hesse_identity_residual(ctx, psi, hesse_zs),
                     1e-9, {})]
    reports += theta_relation_residuals(a_z, _SWEEP_RELATION_Z, ctx, 1)
    if k >= 1:
        # the top order alone: its records are the largest errors over every d <= k
        errors = factorization_errors(*analytic_jets(UlrichSpec(k=k, ctx=ctx, a_z=a_z)), psi)
        reports += factorization_records(k, errors.max(axis=1), psi)
        fit = elimination_fit(theta_jet(a_z, ctx, 1))[2]
        reports.append(check("elimination.fit", fit, 1e-8, {}))
    return reports


def run_sweep(args) -> int:
    # record name -> (max residual, config of the first record reaching it)
    aggregate: dict[str, tuple[float, dict]] = {}
    lines = []
    for tau in args.taus:
        for a_z in args.azs:
            for k in args.ks:
                config = {"tau": [tau.real, tau.imag], "a": [a_z.real, a_z.imag], "k": k}
                for rep in _sweep_config(tau, a_z, k, args.seed):
                    record = rep.to_dict()
                    record["config"] = config
                    lines.append(json.dumps(record, sort_keys=True))
                    worst = aggregate.get(rep.name)
                    if worst is None or rep.residual > worst[0]:
                        aggregate[rep.name] = (max(0.0, rep.residual), config)
    for name in sorted(aggregate):
        residual, config = aggregate[name]
        lines.append(json.dumps({"aggregate": name, "max_residual": residual,
                                 "worst_config": config}, sort_keys=True))
    payload = "\n".join(lines)
    _write_output(payload if payload else "", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessecubic",
        description="Emit and verify Moore-matrix presentations on the Hesse cubic.")
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="write the matrix bundle for (tau, a, k)")
    emit.add_argument("--tau", type=parse_complex, default=1j)
    emit.add_argument("--a", type=parse_point, default=0.3 + 0j,
                      help="analytic point a_z or projective triple c0,c1,c2")
    emit.add_argument("--k", type=non_negative_int, default=1)
    emit.add_argument("--format", choices=("json", "latex"), default="json")
    emit.add_argument("--out", default="-")
    emit.set_defaults(func=run_emit)

    chk = sub.add_parser("check", help="run the verification suite")
    chk.add_argument("--tau", type=parse_complex, default=1j)
    chk.add_argument("--a", type=parse_point, default=0.3 + 0j)
    chk.add_argument("--k", type=non_negative_int, default=3)
    chk.add_argument("--seed", type=parse_seed, default=42)
    chk.add_argument("--tol", type=parse_tol, default=None,
                     help="override every tolerance in the suite")
    chk.add_argument("--mutate", choices=MUTATIONS, default=None,
                     help="sanity hook: break the construction on purpose")
    chk.set_defaults(func=run_check)

    swp = sub.add_parser("sweep", help="grid over (tau, a, k), aggregate residuals")
    swp.add_argument("--taus", type=parse_complex_list, default="",
                     help="comma-separated tau values")
    swp.add_argument("--azs", type=parse_complex_list, default="",
                     help="comma-separated a_z values")
    swp.add_argument("--ks", type=parse_int_list, default="",
                     help="comma list or lo:hi range of k")
    swp.add_argument("--seed", type=parse_seed, default=42)
    swp.add_argument("--out", default="-")
    swp.set_defaults(func=run_sweep)
    return parser


_VALUE_FLAGS = ("--tau", "--a", "--taus", "--azs", "--tol")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Turn ['--a', '-0.17+0.11i'] into ['--a=-0.17+0.11i'].

    argparse would otherwise read a leading-dash value as an option.
    """
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = make_parser().parse_args(_join_negative_values(list(argv)))
    try:
        return args.func(args)
    except HesseCubicError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
