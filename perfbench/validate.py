"""Judge each CLI response without importing the package under test.

A response is classified as one of
  ok                     validated success (a mutated check that exits 1 is one)
  check_failed:<record>  the program reports a failing check on unmutated input
  error:<words>          exit 1 with a JSON error object (a named error)
  raw:<Type>             an exception escaped ``main``
  invalid:<why>          output that contradicts itself or the independent checks

Only ``invalid`` makes a run incorrect; every class but ``ok`` is a failure.
The emit checks rebuild the theta basis from its series definition (the
characteristics and phases that emit ships as provenance) and test the
matrix identities numerically at random points.
"""
from __future__ import annotations

import cmath
import json
import math
import re

import numpy as np

from workloads import Request

# identity residuals at a point, componentwise against sum_m |A_im||B_mj|
FACTOR_TOL = 1e-8
# a singular value counts as zero below this share of the largest one,
# after two-sided equilibration
RANK_TOL = 1e-7
PSI_TOL = 1e-9
POINT_TOL = 1e-12


# ---------------------------------------------------------------------------
# check and sweep
# ---------------------------------------------------------------------------

def check_record_names(k: int) -> set[str]:
    """Every record the check suite produces at this k."""
    names = {"theta.hesse_identity", "theta.symmetry", "theta.psi_nondegenerate",
             "moore.ml_identity", "moore.lm_identity", "moore.offdiagonal",
             "moore.det_scalar", "elimination.fit", "elimination.c_constancy",
             "elimination.consequence", "bookkeeping.annihilation.k1",
             "bookkeeping.relation_rank.k1", "bookkeeping.kernel_jets.k1"}
    names |= {f"moore.relation.order{o}" for o in range(5)}
    for j in range(1, k + 1):
        names |= {f"factorization.AB.k{j}", f"factorization.BA.k{j}"}
    for j in range(1, min(k, 3) + 1):
        for form in ("analytic", "algebraic"):
            names |= {f"presentation.{c}.{form}.k{j}"
                      for c in ("det", "corank_on_curve", "rank_off_curve")}
        names |= {f"calibration.{c}.k{j}" for c in
                  ("fit", "equivalence", "representative", "c_constancy", "block01")}
        names |= {f"automorphy.transport.k{j}", f"automorphy.cocycle.k{j}"}
    return names


def sweep_record_names(k: int) -> set[str]:
    names = {"theta.hesse_identity", "moore.relation.order0", "moore.relation.order1"}
    if k >= 1:
        names |= {"factorization.AB", "factorization.BA", "elimination.fit"}
    return names


def _records(text: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


def _verdict_errors(records: list[dict]) -> str | None:
    for r in records:
        if not {"name", "residual", "tol", "pass"} <= set(r):
            return "record_fields"
        if bool(r["pass"]) != (r["residual"] < r["tol"]):
            return "pass_flag"
    return None


def judge_check(req: Request, rc: int, out: str) -> str:
    try:
        records = _records(out)
    except json.JSONDecodeError:
        return "invalid:json"
    bad = _verdict_errors(records)
    if bad:
        return f"invalid:{bad}"
    names = [r["name"] for r in records]
    if len(set(names)) != len(names):
        return "invalid:duplicate_record"
    if not check_record_names(req.k) <= set(names):
        return "invalid:missing_record"
    all_pass = all(r["pass"] for r in records)
    if rc != (0 if all_pass else 1):
        return "invalid:exit_code"
    if req.mutate:
        caught = any(not r["pass"] for r in records if r["name"].startswith("factorization."))
        return "ok" if rc == 1 and caught else "invalid:mutation_missed"
    return "ok" if all_pass else _check_failed(records)


def _check_failed(records: list[dict]) -> str:
    return "check_failed:" + next(r["name"] for r in records if not r["pass"])


def judge_sweep(req: Request, rc: int, out: str) -> str:
    try:
        lines = _records(out)
    except json.JSONDecodeError:
        return "invalid:json"
    records = [r for r in lines if "aggregate" not in r]
    aggregates = {r["aggregate"]: r["max_residual"] for r in lines if "aggregate" in r}
    bad = _verdict_errors(records)
    if bad:
        return f"invalid:{bad}"
    if {r["name"] for r in records} != sweep_record_names(req.k):
        return "invalid:record_names"
    for r in records:
        cfg = r.get("config", {})
        if cfg.get("k") != req.k or complex(*cfg.get("tau", (0, 0))) != req.tau:
            return "invalid:config"
    worst: dict[str, float] = {}
    for r in records:
        worst[r["name"]] = max(worst.get(r["name"], 0.0), r["residual"])
    if worst != aggregates:
        return "invalid:aggregate"
    return "ok" if all(r["pass"] for r in records) else _check_failed(records)


# ---------------------------------------------------------------------------
# emit: an independent theta basis and numerical identity tests
# ---------------------------------------------------------------------------

_CHAR_A = np.array([0.5, 1.0 / 6.0, 5.0 / 6.0])
_OMEGA = cmath.exp(2j * math.pi / 3)
_PHASE = np.array([1.0, _OMEGA ** 2, _OMEGA])
_N = np.arange(-40, 41)


def theta_ref(z: complex, tau: complex) -> np.ndarray:
    """(th0, th1, th2)(z) as Theta[a_i, 1/2](3z, 3tau) times the basis phases."""
    t = _N[None, :] + _CHAR_A[:, None]
    terms = np.exp(1j * math.pi * t * t * 3 * tau + 2j * math.pi * t * (3 * z + 0.5))
    return _PHASE * terms.sum(axis=1)


def psi_ref(tau: complex) -> complex:
    v = theta_ref(0.17, tau)
    return complex((v ** 3).sum() / (3 * v.prod()))


def hesse(x: np.ndarray, psi: complex) -> complex:
    return complex((x ** 3).sum() - 3 * psi * x.prod())


class _Matrix:
    """Polynomial matrix from emit JSON, evaluated with numpy."""

    def __init__(self, data: dict):
        self.rows, self.cols = int(data["rows"]), int(data["cols"])
        entries = data["entries"]
        if len(entries) != self.rows or any(len(r) != self.cols for r in entries):
            raise ValueError("shape")
        idx, exps, coeffs = [], [], []
        for i, row in enumerate(entries):
            for j, poly in enumerate(row):
                for term in poly:
                    idx.append(i * self.cols + j)
                    exps.append(term["exp"])
                    coeffs.append(complex(*term["coeff"]))
        self.idx = np.array(idx, dtype=int)
        self.exps = np.array(exps, dtype=int).reshape(-1, 3)
        self.coeffs = np.array(coeffs, dtype=complex)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        vals = self.coeffs * np.prod(x[None, :] ** self.exps, axis=1)
        out = np.zeros(self.rows * self.cols, dtype=complex)
        np.add.at(out, self.idx, vals)
        return out.reshape(self.rows, self.cols)


def factor_residual(a: np.ndarray, b: np.ndarray, w: complex) -> float:
    """max_ij |(AB - wI)_ij| / (sum_m |A_im||B_mj| + |w| delta_ij)."""
    err = np.abs(a @ b - w * np.eye(len(a)))
    scale = np.abs(a) @ np.abs(b) + abs(w) * np.eye(len(a))
    return float(np.max(err / np.maximum(scale, np.finfo(float).tiny)))


def corank(n: np.ndarray) -> int:
    n = n.copy()
    for _ in range(6):
        n /= np.maximum(np.linalg.norm(n, axis=1, keepdims=True), 1e-300)
        n /= np.maximum(np.linalg.norm(n, axis=0, keepdims=True), 1e-300)
    s = np.linalg.svd(n, compute_uv=False)
    return int(np.sum(s < RANK_TOL * s[0]))


def curve_point(psi: complex, rng) -> np.ndarray:
    """A point of w = 0: random x0, x1 and a root of the cubic in x2."""
    x0, x1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    x2 = rng.choice(np.roots([1.0, 0.0, -3 * psi * x0 * x1, x0 ** 3 + x1 ** 3]))
    return np.array([x0, x1, x2])


def judge_emit_json(req: Request, out: str, rng) -> str:
    try:
        bundle = json.loads(out)
        mats = {name: _Matrix(m) for name, m in bundle["matrices"].items()}
        psi = complex(*bundle["psi"])
        point = np.array([complex(*c) for c in bundle["point"]])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return "invalid:json"
    k = req.k
    expected = {"M", "L"} | ({"A_analytic", "B_analytic", "A_algebraic"} if k else set())
    if set(mats) != expected or bundle.get("k") != k:
        return "invalid:matrix_set"
    if any((m.rows, m.cols) != ((3, 3) if n in "ML" else (3 * k + 3, 3 * k + 3))
           for n, m in mats.items()):
        return "invalid:shape"
    if abs(psi - psi_ref(req.tau)) > PSI_TOL * (1 + abs(psi)):
        return "invalid:psi"
    ref = theta_ref(req.a_z, req.tau)
    overlap = abs(np.vdot(ref, point)) ** 2 / (np.vdot(ref, ref).real * np.vdot(point, point).real)
    if 1.0 - overlap > POINT_TOL or abs(hesse(point, psi)) > PSI_TOL:
        return "invalid:point"
    if k and len(bundle.get("lambdas") or ()) != k:
        return "invalid:lambdas"
    pairs = [("M", "L")] + ([("A_analytic", "B_analytic")] if k else [])
    for _ in range(2):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = hesse(x, psi)
        for p, q in pairs:
            a, b = mats[p](x), mats[q](x)
            if max(factor_residual(a, b, w), factor_residual(b, a, w)) > FACTOR_TOL:
                return f"invalid:factorization_{p}"
    if k:
        alg = mats["A_algebraic"]
        for _ in range(2):
            if corank(alg(curve_point(psi, rng))) != k + 1:
                return "invalid:corank_on_curve"
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            x /= np.linalg.norm(x)
            if abs(hesse(x, psi)) > 1e-2 and corank(alg(x)) != 0:
                return "invalid:rank_off_curve"
    return "ok"


_PMATRIX = re.compile(r"\\begin\{pmatrix\}\n(.*?)\n\\end\{pmatrix\}", re.S)


def judge_emit_latex(req: Request, out: str) -> str:
    k = req.k
    names = re.findall(r"^% (\w+)$", out, re.M)
    expected = ["M", "L"] + (["A_analytic", "B_analytic", "A_algebraic"] if k else [])
    bodies = _PMATRIX.findall(out)
    if names != expected or len(bodies) != len(expected) or out.count(r"\begin{pmatrix}") != len(expected):
        return "invalid:pmatrix_count"
    for name, body in zip(names, bodies):
        n = 3 if name in ("M", "L") else 3 * k + 3
        rows = body.split(" \\\\\n")
        if len(rows) != n or any(len(r.split(" & ")) != n for r in rows):
            return "invalid:pmatrix_shape"
    return "ok"


def judge(req: Request, rc, out: str, err: str, rng) -> str:
    """Classify one response; rc is the exit code or the escaped exception."""
    if isinstance(rc, BaseException):
        return f"raw:{type(rc).__name__}"
    if rc == 1 and not out.strip():
        try:
            message = json.loads(err.strip().splitlines()[-1])["error"]
        except (IndexError, KeyError, json.JSONDecodeError):
            return "invalid:error_object"
        return "error:" + "_".join(re.findall(r"[a-z]+", message.lower())[:3])
    if req.command == "sweep":
        return judge_sweep(req, rc, out)
    if req.command == "check":
        return judge_check(req, rc, out)
    if rc != 0:
        return "invalid:exit_code"
    if req.fmt == "latex":
        return judge_emit_latex(req, out)
    return judge_emit_json(req, out, rng)
