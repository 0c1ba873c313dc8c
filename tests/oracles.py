"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: derivatives come from
finite differences (with Richardson extrapolation), matrix inverses from
cofactors, polynomial identities from numpy evaluations at sample points,
theta values from a plain fixed-window series sum.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from hessecubic.poly import PolyMatrix


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
