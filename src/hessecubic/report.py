"""Residual check records, their JSON-lines serialization, and the emit bundle writer.

The bundle writer builds the text of each matrix layout once, caches it, and
fills it with the texts of the matrix's distinct coefficients; its output is
byte for byte what json.dumps(bundle, sort_keys=True, indent=1) writes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

import numpy as np

from .poly import PolyMatrix, monomials


# what json.dumps(..., sort_keys=True) builds anew on every call
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


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
    inputs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual < self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
            "inputs": _jsonable(self.inputs),
        }

    def to_json(self) -> str:
        return _RECORD_ENCODER.encode(self.to_dict())


def check(name: str, residual: float, tol: float, inputs: dict | None = None) -> CheckReport:
    """Build a CheckReport; it passes while its residual is below the tolerance."""
    return CheckReport(name=name, residual=float(residual), tol=float(tol), inputs=inputs or {})


def bundle_json(bundle: dict) -> str:
    """json.dumps(bundle, sort_keys=True, indent=1), with PolyMatrix values.

    A PolyMatrix is written as {"cols", "entries", "rows"}: each entry lists
    its nonzero terms {"coeff": [re, im], "exp": [e0, e1, e2]} in sorted
    exponent order.  The text around the numbers depends only on the shape,
    the depth and which coefficients are nonzero, so it is built once per
    such layout; each distinct float is formatted once and the texts fill
    the layout in one step.  The pure-Python encoder that json.dumps uses
    with indent costs more than building the matrices.
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


@lru_cache(maxsize=32)
def _matrix_layout(shape: tuple[int, int, int], degree: int, depth: int,
                   nonzero: bytes) -> str:
    """A matrix's JSON `depth` levels deep, with %s for each part of each nonzero coefficient."""
    rows, cols, size = shape
    key, value = "\n" + " " * (depth + 5), "\n" + " " * (depth + 6)
    terms = [f'{{{key}"coeff": [{value}%s,{value}%s{key}],{key}"exp": '
             f'{_indented(list(exp), depth + 5)}\n{" " * (depth + 4)}}}'
             for exp in monomials(degree)]
    cells = [_json_block("[", list(compress(terms, entry)), "]", depth + 3)
             for entry in np.frombuffer(nonzero, dtype=bool).reshape(-1, size).tolist()]
    row_texts = [_json_block("[", cells[r * cols:(r + 1) * cols], "]", depth + 2)
                 for r in range(rows)]
    entries = _json_block("[", row_texts, "]", depth + 1)
    return _json_block("{", [f'"cols": {cols}', f'"entries": {entries}', f'"rows": {rows}'],
                       "}", depth)


def _matrix_json(m: PolyMatrix, depth: int) -> str:
    nonzero = m.coeffs != 0
    # re, im of each nonzero coefficient, grouped by bit pattern: -0.0 stays apart from 0.0
    bits, inverse = np.unique(m.coeffs[nonzero].view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    # float.__repr__ is what json.dumps writes for a finite float
    number = float.__repr__ if np.isfinite(values).all() else json.dumps
    texts = np.array([number(x) for x in values.tolist()], dtype=object)
    layout = _matrix_layout(nonzero.shape, m.degree, depth, nonzero.tobytes())
    return layout % tuple(texts[inverse].tolist())
