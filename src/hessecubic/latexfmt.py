"""LaTeX emitters for polynomials and block matrices."""
from __future__ import annotations

from .poly import PolyMatrix, monomials


def _coeff_str(c: complex) -> str:
    if abs(c.imag) < 1e-12:
        return f"{c.real:.6g}"
    if abs(c.real) < 1e-12:
        return f"{c.imag:.6g}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real:.6g}{sign}{abs(c.imag):.6g}i)"


def poly_to_latex(coeffs: list[complex], degree: int) -> str:
    """Nonzero terms of one coefficient vector, highest exponent first."""
    bits = []
    for exp, c in reversed(list(zip(monomials(degree), coeffs))):
        if not c:
            continue
        mono = "".join(f"x_{i}" if e == 1 else f"x_{i}^{{{e}}}"
                       for i, e in enumerate(exp) if e)
        coeff = _coeff_str(c)
        bits.append(f"{coeff} {mono}".strip() if mono else coeff)
    return " + ".join(bits) if bits else "0"


def matrix_to_latex(m: PolyMatrix) -> str:
    """pmatrix layout with \\; spacing between size-3 block columns."""
    lines = [r"\begin{pmatrix}"]
    for i, row in enumerate(m.coeffs.tolist()):
        cells = []
        for j, entry in enumerate(row):
            cell = poly_to_latex(entry, m.degree)
            if j and j % 3 == 0:
                cell = r"\;" + cell
            cells.append(cell)
        sep = r" \\" if i < m.rows - 1 else ""
        lines.append(" & ".join(cells) + sep)
    lines.append(r"\end{pmatrix}")
    return "\n".join(lines)
