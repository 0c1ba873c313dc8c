"""Points of P^2, the Hesse cubic, and the algebraic -2a map.

Points are stored normalized: the coordinate of largest modulus is scaled
to exactly 1 (ties broken by lowest index), which makes serialized output
reproducible.  The negation and doubling maps come from the theta-basis
symmetries: negation swaps the last two coordinates, and

    -2a = [a0*(a2^3 - a1^3) : a1*(a0^3 - a2^3) : a2*(a1^3 - a0^3)]

is the cleared-denominator form of the tangent-line construction.  E[3] is
exactly the nine points with a vanishing coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AllZero, DenominatorZero, SingularCurve
from .theta import ThetaContext, theta_jet

# a normalized coordinate below this counts as zero (the point lies in E[3])
_PROJ_TOL = 1e-8


@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple[complex, complex, complex]

    @classmethod
    def from_coords(cls, coords) -> "ProjectivePoint":
        c = [complex(v) for v in coords]
        if len(c) != 3:
            raise ValueError("a projective point needs exactly three coordinates")
        moduli = [abs(v) for v in c]
        top = max(moduli)
        if top == 0.0:
            raise AllZero("all three coordinates vanish")
        pivot = c[moduli.index(top)]
        return cls(tuple(v / pivot for v in c))

    def to_json(self) -> list:
        return [[v.real, v.imag] for v in self.coords]


@dataclass(frozen=True)
class CurveConfig:
    """The Hesse modulus psi of a smooth curve (psi^3 != 1)."""

    psi: complex

    def __post_init__(self):
        if abs(complex(self.psi) ** 3 - 1) < 1e-12:
            raise SingularCurve("psi^3 = 1 defines a singular Hesse cubic")


def embed(z, ctx: ThetaContext):
    """The point [th0(z) : th1(z) : th2(z)]; for a 1-D array of z, the list of points."""
    jets = theta_jet(z, ctx)
    if jets.ndim == 2:  # one point
        return ProjectivePoint.from_coords(jets[0])
    return [ProjectivePoint.from_coords(jet[0]) for jet in jets]


def on_curve(p: ProjectivePoint, cfg: CurveConfig) -> float:
    """Residual |a0^3 + a1^3 + a2^3 - 3 psi a0 a1 a2| on the normalized point."""
    a0, a1, a2 = p.coords
    return abs(a0 ** 3 + a1 ** 3 + a2 ** 3 - 3 * cfg.psi * a0 * a1 * a2)


def double_neg(p: ProjectivePoint) -> ProjectivePoint:
    """The point -2a, by the cleared-denominator tangent formula.

    Raises DenominatorZero only for exactly-zero coordinates (hand-built
    inflection points): analytic 3-torsion points carry coordinates of size
    ~1e-16 and the polynomial form is continuous there, with -2a = a.
    """
    a0, a1, a2 = p.coords
    if a0 == 0 or a1 == 0 or a2 == 0:
        raise DenominatorZero("point has a zero coordinate (lies in E[3])")
    return ProjectivePoint.from_coords((
        a0 * (a2 ** 3 - a1 ** 3),
        a1 * (a0 ** 3 - a2 ** 3),
        a2 * (a1 ** 3 - a0 ** 3),
    ))


def doubling_orbit(p: ProjectivePoint, k: int) -> list[ProjectivePoint]:
    """[p, -2p, 4p, ..., (-2)^k p] by double_neg; DenominatorZero at a point in E[3]."""
    if k < 0:
        raise ValueError("iteration count must be non-negative")
    orbit = [p]
    for l in range(k + 1):
        if is_three_torsion(orbit[l]):
            raise DenominatorZero(f"point (-2)^{l} a lies in E[3]", iteration=l)
        if l < k:
            orbit.append(double_neg(orbit[l]))
    return orbit


def is_three_torsion(p: ProjectivePoint) -> bool:
    """True iff some normalized coordinate (nearly) vanishes."""
    return min(abs(c) for c in p.coords) < _PROJ_TOL
