"""LaTeX emitter for block matrices of polynomials."""
from __future__ import annotations

from functools import lru_cache
from itertools import compress

import numpy as np

from .poly import PolyMatrix, monomials


@lru_cache(maxsize=32)
def _layout(shape: tuple[int, int, int], degree: int, nonzero: bytes) -> str:
    """The pmatrix with %s for each nonzero coefficient; `nonzero` runs highest exponent first."""
    rows, cols, size = shape
    monos = ("".join(f"x_{i}" if e == 1 else f"x_{i}^{{{e}}}" for i, e in enumerate(exp) if e)
             for exp in reversed(monomials(degree)))
    terms = [f"%s {mono}" if mono else "%s" for mono in monos]
    cells = [" + ".join(compress(terms, entry)) or "0"
             for entry in np.frombuffer(nonzero, dtype=bool).reshape(-1, size).tolist()]
    gaps = [r"\;" if j and not j % 3 else "" for j in range(cols)]
    lines = [" & ".join(map(str.__add__, gaps, cells[r * cols:(r + 1) * cols]))
             for r in range(rows)]
    return "\n".join([r"\begin{pmatrix}", *(line + r" \\" for line in lines[:-1]), *lines[-1:],
                      r"\end{pmatrix}"])


def matrix_to_latex(m: PolyMatrix) -> str:
    """pmatrix layout with \\; spacing between size-3 block columns.

    A cell lists the nonzero terms of its entry, highest exponent first, to
    6 significant digits; a cell without one reads 0.  The text around the
    coefficients is built once per shape and zero pattern, and each distinct
    coefficient is formatted once.
    """
    coeffs = m.coeffs[..., ::-1]
    nonzero = coeffs != 0
    values = coeffs[nonzero]
    # group by the bit patterns of both parts: -0.0 stays apart from 0.0
    _, parts = np.unique(values.view(np.uint64), return_inverse=True)
    _, first, inverse = np.unique(parts[::2] * len(parts) + parts[1::2], return_index=True,
                                  return_inverse=True)
    distinct = values[first]
    texts = np.array([f"{x:.6g}" if abs(y) < 1e-12 else f"{y:.6g}i" if abs(x) < 1e-12
                      else f"({x:.6g}{'+' if y >= 0 else '-'}{abs(y):.6g}i)"
                      for x, y in zip(distinct.real.tolist(), distinct.imag.tolist())], dtype=object)
    return _layout(nonzero.shape, m.degree, nonzero.tobytes()) % tuple(texts[inverse].tolist())
