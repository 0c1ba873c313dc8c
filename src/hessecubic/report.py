"""Residual check records, their JSON-lines serialization, and the emit bundle writer."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .poly import PolyMatrix, monomials


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    return value


@dataclass
class CheckReport:
    """One named residual judged against a tolerance."""

    name: str
    residual: float
    tol: float
    passed: bool
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
            "inputs": _jsonable(self.inputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check(name: str, residual: float, tol: float, inputs: dict | None = None) -> CheckReport:
    """Build a CheckReport, deciding pass/fail from the tolerance."""
    residual = float(residual)
    return CheckReport(name=name, residual=residual, tol=float(tol),
                       passed=residual < tol, inputs=inputs or {})


def bundle_json(bundle: dict) -> str:
    """json.dumps(bundle, sort_keys=True, indent=1), with PolyMatrix values.

    A PolyMatrix is written as {"cols", "entries", "rows"}: each entry lists
    its nonzero terms {"coeff": [re, im], "exp": [e0, e1, e2]} in sorted
    exponent order.  The terms are formatted straight from the coefficient
    array; the pure-Python encoder that json.dumps uses with indent costs
    more than building the matrices.
    """
    return _indented(bundle, 0)


def _indented(value, depth: int) -> str:
    """value as json.dumps(sort_keys=True, indent=1) writes it `depth` levels deep."""
    if isinstance(value, PolyMatrix):
        return _matrix_json(value, depth)
    if isinstance(value, dict):
        return _json_block("{", [f"{json.dumps(key)}: {_indented(v, depth + 1)}"
                                 for key, v in sorted(value.items())], "}", depth)
    if isinstance(value, (list, tuple)):
        return _json_block("[", [_indented(v, depth + 1) for v in value], "]", depth)
    return json.dumps(value)


def _json_block(open_: str, items: list[str], close: str, depth: int) -> str:
    if not items:
        return open_ + close
    inner = "\n" + " " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + " " * depth + close


@lru_cache(maxsize=None)
def _term_template(degree: int, depth: int) -> tuple[str, str, tuple[str, ...]]:
    """Text of a term dict at `depth` before, between and after [re, im]; one tail per monomial."""
    key, value = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    tails = tuple(f'{key}],{key}"exp": {_indented(list(exp), depth + 1)}\n{" " * depth}}}'
                  for exp in monomials(degree))
    return f'{{{key}"coeff": [{value}', "," + value, tails


def _matrix_json(m: PolyMatrix, depth: int) -> str:
    real, imag, mono, ends = m.nonzero_terms()
    # float.__repr__ is what json.dumps writes for a finite float
    number = float.__repr__ if np.isfinite(m.coeffs).all() else json.dumps
    head, sep, tails = _term_template(m.degree, depth + 4)
    terms = [f"{head}{number(x)}{sep}{number(y)}{tails[e]}" for x, y, e in zip(real, imag, mono)]
    cells = [_json_block("[", terms[a:b], "]", depth + 3) for a, b in zip([0] + ends, ends)]
    rows = [_json_block("[", cells[r * m.cols:(r + 1) * m.cols], "]", depth + 2)
            for r in range(m.rows)]
    entries = _json_block("[", rows, "]", depth + 1)
    return _json_block("{", [f'"cols": {m.cols}', f'"entries": {entries}', f'"rows": {m.rows}'],
                       "}", depth)
