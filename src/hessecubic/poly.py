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
    def zeros(cls, rows: int, cols: int, degree: int) -> "PolyMatrix":
        return cls(np.zeros((rows, cols, len(monomials(degree))), dtype=complex))

    @classmethod
    def diagonal(cls, poly: np.ndarray, size: int) -> "PolyMatrix":
        """poly * I for a coefficient vector poly (w * I from hesse_form)."""
        out = np.zeros((size, size, len(poly)), dtype=complex)
        out[np.arange(size), np.arange(size)] = poly
        return cls(out)

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return _degree(self.coeffs.shape[2])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # outer product over the shared index: (i, a, j, b) -> (i, j, a*b)
        outer = np.tensordot(self.coeffs, other.coeffs, axes=([1], [0]))
        pairs = outer.transpose(0, 2, 1, 3).reshape(self.rows, other.cols, -1)
        return PolyMatrix(pairs @ _product_table(self.degree, other.degree))

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

    def to_json(self) -> dict:
        """Nonzero terms of each entry, in sorted exponent order."""
        exps = monomials(self.degree)
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[[{"exp": list(e), "coeff": [c.real, c.imag]}
                              for e, c in zip(exps, entry) if c]
                             for entry in row] for row in self.coeffs.tolist()]}

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree})"


def eval_matrix(m: PolyMatrix, xs) -> np.ndarray:
    """Entrywise evaluation at a triple (rows, cols), or at a stack (n, rows, cols)."""
    return np.einsum("ijm,...m->...ij", m.coeffs, _monomial_values(xs, m.degree))


def det_scalar_fit(values: np.ndarray, reference: np.ndarray) -> tuple[complex, float]:
    """Sampled test of det N = c * r: least-squares c and its relative residual.

    values is a stack of square evaluations N(x_s), reference the values
    r(x_s) at the same points.  With d_s = det N(x_s) the residual is
    |d - c*r| / |d|, the sine of the angle between d and r: it does not
    depend on the size of c.  A determinant that vanishes at every sample
    fits c = 0 with residual 0.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] != values.shape[-2]:
        raise NotSquare(f"{values.shape[-2]}x{values.shape[-1]} matrix has no determinant")
    r = np.asarray(reference, dtype=complex)
    r_norm = np.linalg.norm(r)
    if r_norm == 0.0:
        raise ZeroReference("reference vanishes at every sample point")
    d = np.linalg.det(values)
    d_norm = np.linalg.norm(d)
    if d_norm == 0.0:
        return 0j, 0.0
    c = np.vdot(r, d) / r_norm ** 2
    return complex(c), float(np.linalg.norm(d - c * r) / d_norm)


def numeric_rank(n: np.ndarray, rank_tol: float | None = None) -> int:
    """Number of singular values above rank_tol (default 1e-7 * largest)."""
    n = np.asarray(n, dtype=complex)
    if n.size == 0:
        return 0
    svals = np.linalg.svd(n, compute_uv=False)
    top = svals[0] if len(svals) else 0.0
    if top == 0.0:
        return 0
    if rank_tol is None:
        rank_tol = 1e-7 * top
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    return int(np.sum(svals > rank_tol))
