"""LaTeX emitter for block matrices of polynomials."""
from __future__ import annotations

from functools import lru_cache

from .poly import PolyMatrix, monomials


@lru_cache(maxsize=None)
def _monomial_suffixes(degree: int) -> tuple[str, ...]:
    """' x_0^{2}x_1' for each monomial, highest exponent first; '' at degree 0."""
    if not degree:
        return ("",)
    return tuple(" " + "".join(f"x_{i}" if e == 1 else f"x_{i}^{{{e}}}"
                               for i, e in enumerate(exp) if e)
                 for exp in reversed(monomials(degree)))


def matrix_to_latex(m: PolyMatrix) -> str:
    """pmatrix layout with \\; spacing between size-3 block columns.

    A cell lists the nonzero terms of its entry, highest exponent first, to
    6 significant digits; a cell without one reads 0.
    """
    real, imag, mono, ends = m.nonzero_terms(reverse=True)
    suffix = _monomial_suffixes(m.degree)
    terms = [(f"{x:.6g}" if abs(y) < 1e-12 else f"{y:.6g}i" if abs(x) < 1e-12
              else f"({x:.6g}{'+' if y >= 0 else '-'}{abs(y):.6g}i)") + suffix[e]
             for x, y, e in zip(real, imag, mono)]
    cells = [" + ".join(terms[a:b]) or "0" for a, b in zip([0] + ends, ends)]
    gaps = [r"\;" if j and not j % 3 else "" for j in range(m.cols)]
    rows = [" & ".join(map(str.__add__, gaps, cells[r * m.cols:(r + 1) * m.cols]))
            for r in range(m.rows)]
    return "\n".join([r"\begin{pmatrix}", *(row + r" \\" for row in rows[:-1]), *rows[-1:],
                      r"\end{pmatrix}"])
