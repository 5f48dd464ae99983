"""Polynomial gcd and Yun over Q(sqrt(-k)) against sympy's algebraic fields,
and squarefree parts of integers against sympy's factorint."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import (
    DEFAULT_PRIME_BOUND,
    ImQuadElement,
    ImQuadPoly,
    UnfactoredResidueError,
    _good_prime,
    _is_prime,
    is_squarefree,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)

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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64))
def test_is_prime_matches_sympy(n):
    assert _is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_good_prime_matches_sympy(k):
    q = sympy.nextprime(2**61)
    while sympy.legendre_symbol(-k % q, q) != 1:
        q = sympy.nextprime(q)
    p, w = _good_prime(k)
    assert p == q
    assert w in {int(r) for r in sympy.sqrt_mod(-k % q, q, all_roots=True)}


def _large_prime(rng: random.Random) -> int:
    # a prime above the trial-division bound; two of them stay below (bound + 1)^3
    return int(sympy.nextprime(rng.randrange(DEFAULT_PRIME_BOUND, 10**7)))


# n from a small cofactor c and primes p, q, r above the trial-division bound
DECIDED = {
    "p*q": lambda c, p, q, r: p * q,
    "p^2": lambda c, p, q, r: p * p,
    "c*p*q": lambda c, p, q, r: c * p * q,
    "c^2*p": lambda c, p, q, r: c * c * p,
    "c*p^2": lambda c, p, q, r: c * p * p,
}
UNDECIDED = {
    "p*q*r": lambda c, p, q, r: p * q * r,
    "p^2*q": lambda c, p, q, r: p * p * q,
}


def _seeded(shapes: dict, shape: str):
    rng = random.Random(shape)
    for _ in range(25):
        yield shapes[shape](rng.randrange(2, 10**4), *(_large_prime(rng) for _ in range(3)))


@pytest.mark.parametrize("shape", sorted(DECIDED))
def test_squarefree_part_matches_factorint_above_the_trial_bound(shape):
    for n in _seeded(DECIDED, shape):
        factors = sympy.factorint(n)
        s = math.prod(prime for prime, e in factors.items() if e % 2)
        assert squarefree_part(n) == (s, Fraction(math.isqrt(n // s)))
        assert is_squarefree(n) == all(e == 1 for e in factors.values())


@pytest.mark.parametrize("shape", sorted(UNDECIDED))
def test_squarefree_part_refuses_three_prime_factors_above_the_trial_bound(shape):
    # at least (bound + 1)^3 and no square: a prime, or two or three primes
    for n in _seeded(UNDECIDED, shape):
        with pytest.raises(UnfactoredResidueError):
            squarefree_part(n)
