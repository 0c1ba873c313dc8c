"""Homogeneous polynomial matrices in x0, x1, x2 as dense coefficient arrays.

Every matrix here is homogeneous of one degree d (Moore and A entries are
linear, L and B entries quadratic, w is cubic), so a PolyMatrix is a complex
array of shape (rows, cols, C(d+2, 2)): entry (i, j) is its coefficient
vector over the degree-d monomials in sorted exponent order.  Coefficients
come from theta series, so every identity downstream is a residual check;
polynomial identities such as det A = c * w^(k+1) are tested by sampling
them at seeded points (Schwartz 1980; Zippel 1979).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NotSquare, ZeroReference


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of total degree `degree`, in sorted order."""
    return tuple((e0, e1, degree - e0 - e1)
                 for e0 in range(degree + 1) for e1 in range(degree - e0 + 1))


@lru_cache(maxsize=None)
def monomial_index(degree: int) -> dict[tuple[int, int, int], int]:
    """Position of each exponent triple in the coefficient vector."""
    return {exp: n for n, exp in enumerate(monomials(degree))}


def _degree(size: int) -> int:
    # size = C(d+2, 2) = (d+1)(d+2)/2
    return (math.isqrt(8 * size + 1) - 3) // 2


@lru_cache(maxsize=None)
def _product_table(d1: int, d2: int) -> np.ndarray:
    """0/1 matrix sending each pair of monomials to the index of their product."""
    index = monomial_index(d1 + d2)
    pairs = [tuple(map(sum, zip(e, f))) for e in monomials(d1) for f in monomials(d2)]
    table = np.zeros((len(pairs), len(index)), dtype=complex)
    table[np.arange(len(pairs)), [index[p] for p in pairs]] = 1.0
    return table


def _monomial_values(xs, degree: int) -> np.ndarray:
    """All degree-`degree` monomials at a triple, or at a stack of triples."""
    x = np.asarray(xs, dtype=complex)
    powers = np.ones(x.shape + (degree + 1,), dtype=complex)
    for e in range(1, degree + 1):
        powers[..., e] = powers[..., e - 1] * x
    exps = np.array(monomials(degree))
    return (powers[..., 0, exps[:, 0]] * powers[..., 1, exps[:, 1]]
            * powers[..., 2, exps[:, 2]])


def evaluate(poly: np.ndarray, xs):
    """A coefficient vector evaluated at a triple, or at a stack of triples."""
    return _monomial_values(xs, _degree(len(poly))) @ poly


def hesse_form(psi: complex) -> np.ndarray:
    """Coefficients of the Hesse cubic w = x0^3 + x1^3 + x2^3 - 3*psi*x0*x1*x2."""
    index = monomial_index(3)
    w = np.zeros(len(index), dtype=complex)
    w[[index[(3, 0, 0)], index[(0, 3, 0)], index[(0, 0, 3)]]] = 1.0
    w[index[(1, 1, 1)]] = -3.0 * psi
    return w


class PolyMatrix:
    """Matrix of homogeneous polynomials of one degree, as a coefficient array."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def diagonal(cls, poly: np.ndarray, size: int) -> "PolyMatrix":
        """poly * I for a coefficient vector poly (w * I from hesse_form)."""
        out = np.zeros((size, size, len(poly)), dtype=complex)
        out[np.arange(size), np.arange(size)] = poly
        return cls(out)

    @property
    def rows(self) -> int:
        return self.coeffs.shape[-3]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def degree(self) -> int:
        return _degree(self.coeffs.shape[-1])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product; leading stack axes broadcast as in numpy matmul."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # one matmul over the shared index: (..., i*a, k) @ (..., k, j*b)
        (r, k, m1), (s, m2) = self.coeffs.shape[-3:], other.coeffs.shape[-2:]
        left = np.swapaxes(self.coeffs, -1, -2).reshape(self.coeffs.shape[:-3] + (r * m1, k))
        outer = left @ other.coeffs.reshape(other.coeffs.shape[:-2] + (s * m2,))
        pairs = np.swapaxes(outer.reshape(outer.shape[:-2] + (r, m1, s, m2)), -3, -2)
        return PolyMatrix(pairs.reshape(pairs.shape[:-2] + (m1 * m2,))
                          @ _product_table(self.degree, other.degree))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(self.coeffs + other.coeffs)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1.0)

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix(self.coeffs * c)

    def coefficient_norm(self) -> float:
        """L2 norm over all coefficients of all entries."""
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree})"


def eval_matrix(m: PolyMatrix, xs) -> np.ndarray:
    """Entrywise evaluation of every matrix of the stack at every triple.

    Coefficients (..., rows, cols, C(d+2, 2)) at triples of shape (*T, 3)
    give values of shape (..., *T, rows, cols).
    """
    values = _monomial_values(xs, m.degree)
    out = np.einsum("...ijm,tm->...tij", m.coeffs, values.reshape(-1, values.shape[-1]))
    return out.reshape(m.coeffs.shape[:-3] + values.shape[:-1] + out.shape[-2:])


def det_scalar_fit(values: np.ndarray, reference: np.ndarray):
    """Sampled test of det N = c * r: least-squares c and its relative residual.

    values is a stack (..., n, s, s) of evaluations N(x_s), reference the
    values r(x_s) at the same n points, broadcast over the leading axes.
    With d_s = det N(x_s) the residual is |d - c*r| / |d|, the sine of the
    angle between d and r: it does not depend on the size of c.  A
    determinant that vanishes at every sample fits c = 0 with residual 0.
    One fit gives (complex, float), a stack of fits two arrays.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] != values.shape[-2]:
        raise NotSquare(f"{values.shape[-2]}x{values.shape[-1]} matrix has no determinant")
    d = np.linalg.det(values)
    r = np.broadcast_to(np.asarray(reference, dtype=complex), d.shape)
    r_norm = np.linalg.norm(r, axis=-1)
    if np.any(r_norm == 0.0):
        raise ZeroReference("reference vanishes at every sample point")
    d_norm = np.linalg.norm(d, axis=-1)
    vanishes = d_norm == 0.0
    c = np.where(vanishes, 0.0, np.sum(r.conj() * d, axis=-1) / r_norm ** 2)
    residual = np.linalg.norm(d - c[..., None] * r, axis=-1) / np.where(vanishes, 1.0, d_norm)
    if c.ndim == 0:
        return complex(c), float(residual)
    return c, residual


def numeric_rank(n: np.ndarray):
    """Number of singular values above 1e-7 times the largest.

    A stack (..., rows, cols) gets one rank per matrix, each against its own
    largest singular value, from one SVD call.
    """
    n = np.asarray(n, dtype=complex)
    if n.size == 0:
        return 0
    svals = np.linalg.svd(n, compute_uv=False)
    ranks = np.sum(svals > 1e-7 * svals[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks
