"""Polynomial gcd and Yun over Q(sqrt(-k)) against sympy's algebraic fields."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import ImQuadElement, ImQuadPoly, poly_gcd, squarefree_decomposition

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


@functools.cache
def field(k: int):
    """QQ(I*sqrt(k)); its element [b, a] is a + b*I*sqrt(k), that is a + b*omega."""
    return sympy.QQ.algebraic_field(sympy.I * sympy.sqrt(k))


def to_sympy(p: ImQuadPoly):
    """The same polynomial as a sympy Poly over QQ(I*sqrt(k))."""
    K, QQ = field(p.k), sympy.QQ
    coeffs = [K([QQ(c.im.numerator, c.im.denominator), QQ(c.re.numerator, c.re.denominator)]) for c in p.coeffs]
    return sympy.Poly.from_list(coeffs[::-1], T, domain=K)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def factors(k: int, max_deg: int):
    """Nonconstant polynomials over Q(omega), omega^2 = -k."""
    element = st.builds(lambda a, b: ImQuadElement(a, b, k), small, small)
    return st.lists(element, min_size=2, max_size=max_deg + 1).map(
        lambda cs: ImQuadPoly.from_coeffs(cs, k)
    ).filter(lambda p: p.degree >= 1)


def product(parts, k: int) -> ImQuadPoly:
    acc = ImQuadPoly.constant(1, k)
    for f, m in parts:
        for _ in range(m):
            acc = acc * f
    return acc


@st.composite
def gcd_cases(draw):
    """(p, q) sharing a drawn factor, so the gcd is rarely trivial."""
    k = draw(st.sampled_from([1, 2, 3, 5, 7]))
    common = draw(factors(k, 3))
    p = product([(common, draw(st.integers(1, 2))), (draw(factors(k, 3)), 1)], k)
    q = product([(common, 1), (draw(factors(k, 3)), draw(st.integers(1, 2)))], k)
    return p, q


@st.composite
def yun_cases(draw):
    """Products of up to three drawn factors with multiplicities 1..3."""
    k = draw(st.sampled_from([1, 2, 3, 5, 7]))
    parts = draw(st.lists(st.tuples(factors(k, 2), st.integers(1, 3)), min_size=1, max_size=3))
    scale = ImQuadElement(Fraction(draw(st.integers(1, 5)), 3), Fraction(draw(st.integers(-2, 2))), k)
    return product(parts, k).scale(scale)


@settings(max_examples=40, deadline=None)
@given(gcd_cases())
def test_poly_gcd_matches_sympy(case):
    p, q = case
    assert to_sympy(poly_gcd(p, q)) == to_sympy(p).gcd(to_sympy(q))


@settings(max_examples=40, deadline=None)
@given(yun_cases())
def test_squarefree_decomposition_matches_sympy(p):
    _, want = to_sympy(p).sqf_list()
    got = {(to_sympy(f), m) for f, m in squarefree_decomposition(p)}
    assert got == {(f.monic(), m) for f, m in want}
