"""The emit writers against the encoders they replace, byte for byte.

The oracles are json.dumps(..., sort_keys=True, indent=1) over the term
dicts of oracles.to_json, and the entry-by-entry LaTeX of
oracles.matrix_to_latex_oracle.
"""
import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hessecubic import PolyMatrix, ThetaContext, cli, embed, latexfmt, report
from hessecubic.latexfmt import matrix_to_latex
from hessecubic.poly import monomials
from hessecubic.report import bundle_json
from oracles import matrix_to_latex_oracle, random_poly_matrix, to_json


def _oracle_json(bundle: dict) -> str:
    return json.dumps({**bundle, "matrices": {n: to_json(m) for n, m in bundle["matrices"].items()}},
                      sort_keys=True, indent=1)


def _emit(argv: list[str], writer_module, writer_name: str):
    """Exit code, stdout and every argument the writer was called with."""
    calls = []
    writer = getattr(writer_module, writer_name)

    def capture(value):
        calls.append(value)
        return writer(value)

    with mock.patch.object(writer_module, writer_name, capture), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), calls


# tau and a over the benchmark's domain, k = 0..8, a as a_z or as its triple
_emit_args = dict(re_tau=st.floats(-0.5, 0.5), lift=st.floats(0.0, 1.0),
                  re_a=st.floats(0.05, 0.45), im_a=st.floats(-0.15, 0.15),
                  k=st.integers(0, 8), triple=st.booleans())


def _emit_argv(re_tau, lift, re_a, im_a, k, triple, fmt):
    floor = math.sqrt(1.0 - re_tau ** 2)
    tau = complex(re_tau, floor + lift * (2.0 - floor))
    a = complex(re_a, im_a)
    if triple:
        coords = embed(a, ThetaContext(tau=tau)).coords
        a_text = ",".join(f"{c.real!r}{c.imag:+}i" for c in coords)
    else:
        a_text = f"{a.real!r}{a.imag:+}i"
    return ["emit", f"--tau={tau.real!r}{tau.imag:+}i", f"--a={a_text}", "--k", str(k),
            "--format", fmt]


@settings(max_examples=25, deadline=None)
@given(**_emit_args)
def test_json_writer_matches_json_dumps_on_emitted_bundles(re_tau, lift, re_a, im_a, k, triple):
    code, out, bundles = _emit(_emit_argv(re_tau, lift, re_a, im_a, k, triple, "json"),
                               cli, "bundle_json")
    if code:  # a named failure writes no bundle
        assert not bundles
        return
    (bundle,) = bundles
    assert out == _oracle_json(bundle) + "\n"


@settings(max_examples=15, deadline=None)
@given(**_emit_args)
def test_latex_writer_matches_the_oracle_on_emitted_matrices(re_tau, lift, re_a, im_a, k,
                                                              triple):
    code, out, matrices = _emit(_emit_argv(re_tau, lift, re_a, im_a, k, triple, "latex"),
                                latexfmt, "matrix_to_latex")
    if code:
        return
    assert len(matrices) >= 2 and out.count(r"\begin{pmatrix}") == len(matrices)
    for m in matrices:
        assert matrix_to_latex_oracle(m) in out


# -0.0, nan and +-inf have their own json spellings; 1e-13 sits under the
# LaTeX writer's 1e-12 cutoff between real, imaginary and complex terms
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-13, -1e-13, 1.0, -2.5e-300, 3e17]


@st.composite
def poly_matrices(draw):
    rows, cols, degree = draw(st.integers(0, 4)), draw(st.integers(0, 7)), draw(st.integers(0, 3))
    size = rows * cols * len(monomials(degree)) * 2
    parts = draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(allow_nan=True),
                          min_size=size, max_size=size))
    coeffs = np.array(parts, dtype=float).view(complex)
    return PolyMatrix(coeffs.reshape(rows, cols, len(monomials(degree))))


@settings(max_examples=150, deadline=None)
@given(m=poly_matrices())
def test_writers_match_the_oracles_on_arbitrary_coefficients(m):
    bundle = {"k": 1, "lambdas": None, "tau": [0.0, 1.0], "matrices": {"A": m, "M": m}}
    assert bundle_json(bundle) == _oracle_json(bundle)
    assert matrix_to_latex(m) == matrix_to_latex_oracle(m)


def test_json_writer_spells_the_special_floats_as_json_does():
    # each distinct bit pattern is formatted once: -0.0 and 0.0 parts of
    # nonzero entries are equal floats with different texts in both writers
    coeffs = np.zeros((2, 3, 3), dtype=complex)
    coeffs[0, 0, 0] = complex(-0.0, 1.0)
    coeffs[0, 0, 1] = complex(0.0, 1.0)
    coeffs[0, 1, 0] = complex(-0.0, 1e-13)
    coeffs[0, 1, 1] = complex(0.0, 1e-13)
    coeffs[0, 1, 2] = complex(math.nan, -0.0)
    coeffs[0, 2, 0] = complex(1.0, -0.0)
    coeffs[0, 2, 1] = complex(1.0, 0.0)
    coeffs[1, 0, 1] = complex(math.inf, -math.inf)
    coeffs[1, 1, 2] = complex(-math.nan, math.inf)
    coeffs[1, 2, 0] = complex(-0.0, 0.0)  # a zero: not written
    bundle = {"k": 0, "point": [[1.0, -0.0]], "matrices": {"M": PolyMatrix(coeffs)}}
    text = bundle_json(bundle)
    assert text == _oracle_json(bundle)
    assert all(s in text for s in ("-0.0", "NaN", "Infinity", "-Infinity"))
    latex = matrix_to_latex(PolyMatrix(coeffs))
    assert latex == matrix_to_latex_oracle(PolyMatrix(coeffs))
    assert "nan x_0 + 0 x_1 + -0 x_2" in latex


def test_writers_key_their_layouts_by_shape_pattern_and_depth():
    # one after another, matrices that share a layout's size or its zero pattern
    # bytes but not all of shape, pattern and depth each match the oracles
    rng = np.random.default_rng(3)
    dense = random_poly_matrix(rng, 6, 6, 1)
    sparse = PolyMatrix(dense.coeffs * (rng.uniform(size=dense.coeffs.shape) < 0.5))
    wide, tall = random_poly_matrix(rng, 2, 3, 1), random_poly_matrix(rng, 3, 2, 1)
    for m in (dense, sparse, dense, wide, tall, wide):
        bundle = {"matrices": {"A": m}, "nested": {"m": [m]}, "top": m}
        assert bundle_json(bundle) == json.dumps(bundle, sort_keys=True, indent=1,
                                                 default=to_json)
        assert matrix_to_latex(m) == matrix_to_latex_oracle(m)


def test_layout_caches_hold_every_emitted_layout_within_their_bound():
    caches = (report._matrix_layout, latexfmt._layout)
    for cache in caches:
        cache.cache_clear()
    sweep = [_emit_argv(0.1, 0.0, 0.21, 0.05, k, False, fmt)
             for k in range(9) for fmt in ("json", "latex")]
    for argv in sweep:
        assert _emit(argv, cli, "bundle_json")[0] == 0
    misses = [cache.cache_info().misses for cache in caches]
    for argv in sweep:  # every layout of the second sweep is a hit
        _emit(argv, cli, "bundle_json")
    for cache, missed in zip(caches, misses):
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize
        assert info.misses == missed
