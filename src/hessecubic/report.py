"""Residual check records and their JSON-lines serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


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
