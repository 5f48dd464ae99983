"""Tests for exact rationals, Q(omega) arithmetic, and polynomial helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import (
    ExactnumError,
    ImQuadElement,
    ImQuadPoly,
    MismatchedFieldError,
    UnfactoredResidueError,
    format_rational,
    is_squarefree,
    omega,
    parse_int,
    parse_rational,
    poly_gcd,
    rational_sqrt,
    squarefree_decomposition,
    squarefree_part,
)


# ---------------------------------------------------------------------------
# independent oracles


def floor_sqrt_oracle(n: int) -> int:
    """Binary-search integer square root, independent of math.isqrt."""
    assert n >= 0
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def factor_oracle(n: int) -> dict[int, int]:
    """Naive full factorization by trial division (test scale only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part_oracle(q: Fraction) -> tuple[int, Fraction]:
    """Assemble s, r from full factorizations of numerator and denominator."""
    s, r = 1, Fraction(1)
    for p, e in factor_oracle(q.numerator).items():
        if e % 2:
            s *= p
        r *= Fraction(p) ** (e // 2)
    for p, e in factor_oracle(q.denominator).items():
        if e % 2:
            s *= p
            r /= p
        r /= Fraction(p) ** (e // 2)
    return s, r


# ---------------------------------------------------------------------------
# rational_sqrt


def test_rational_sqrt_perfect_square():
    assert rational_sqrt(Fraction(4)) == 2


def test_rational_sqrt_derived_fraction():
    q = Fraction(1600, 625)
    r = q.numerator  # reduced: 64/25
    expected = Fraction(floor_sqrt_oracle(q.numerator), floor_sqrt_oracle(q.denominator))
    assert expected * expected == q
    assert rational_sqrt(q) == expected == Fraction(8, 5)
    assert r == 64


def test_rational_sqrt_irrational():
    assert rational_sqrt(Fraction(2)) is None


def test_rational_sqrt_zero():
    assert rational_sqrt(Fraction(0)) == 0


def test_rational_sqrt_negative_raises():
    with pytest.raises(ExactnumError):
        rational_sqrt(Fraction(-1))


@given(st.fractions(max_denominator=10**6))
def test_rational_sqrt_of_square_defined(q):
    r = rational_sqrt(q * q)
    assert r is not None
    assert r * r == q * q
    assert r >= 0


@given(st.fractions(min_value=0, max_denominator=10**4))
def test_rational_sqrt_roundtrip_when_defined(q):
    r = rational_sqrt(q)
    if r is not None:
        assert r * r == q


# ---------------------------------------------------------------------------
# squarefree_part


def test_squarefree_part_12():
    assert squarefree_part(Fraction(12)) == squarefree_part_oracle(Fraction(12)) == (3, Fraction(2))


def test_squarefree_part_identity():
    assert squarefree_part(Fraction(1)) == (1, Fraction(1))


def test_squarefree_part_fraction():
    assert squarefree_part(Fraction(3, 4)) == squarefree_part_oracle(Fraction(3, 4)) == (3, Fraction(1, 2))


def test_squarefree_part_nonpositive_raises():
    with pytest.raises(ExactnumError):
        squarefree_part(Fraction(0))
    with pytest.raises(ExactnumError):
        squarefree_part(Fraction(-4))


def test_squarefree_part_large_prime_residues():
    p = 10_007  # prime above the tiny bound used here
    # square residue beyond the bound is still resolvable
    assert squarefree_part(Fraction(p * p), prime_bound=100) == (1, Fraction(p))
    # a single prime residue <= bound^2 must be prime, hence squarefree
    assert squarefree_part(Fraction(p), prime_bound=100) == (p, Fraction(1))
    # product of two distinct large primes exceeds bound^2: rejected
    with pytest.raises(UnfactoredResidueError):
        squarefree_part(Fraction(10_007 * 10_009 * 10_037), prime_bound=100)


@given(st.fractions(min_value=Fraction(1, 10**4), max_value=10**4, max_denominator=10**4))
def test_squarefree_part_reconstructs(q):
    s, r = squarefree_part(q)
    assert s >= 1 and r > 0
    assert s * r * r == q
    assert all(e == 1 for e in factor_oracle(s).values())
    assert (s == 1) == (rational_sqrt(q) is not None)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(0)


# ---------------------------------------------------------------------------
# serialization


def test_rational_wire_format():
    assert format_rational(Fraction(8, 5)) == "8/5"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(7)) == "7"
    assert parse_rational("8/5") == Fraction(8, 5)
    assert parse_rational("-3") == Fraction(-3)
    for bad in ("1.5", "1e3", "1/-2", "", "x"):
        with pytest.raises(ExactnumError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [0, 1.5, True, None, ["1"], {"x": "1"}])
def test_parse_rational_rejects_non_strings(bad):
    with pytest.raises(ExactnumError):
        parse_rational(bad)


def test_parse_int_accepts_json_ints():
    assert parse_int(0) == 0 and parse_int(-7) == -7 and parse_int(10**30) == 10**30


@pytest.mark.parametrize("bad", [1.7, 1.0, True, False, "1", None, [1], {"k": 1}])
def test_parse_int_rejects_everything_else(bad):
    with pytest.raises(ExactnumError, match="JSON int"):
        parse_int(bad)


def test_imquad_dict_roundtrip():
    e = ImQuadElement(Fraction(1, 3), Fraction(-2), 5)
    assert ImQuadElement.from_dict(e.to_dict()) == e


# ---------------------------------------------------------------------------
# ImQuadElement arithmetic


def test_omega_squares_to_minus_k():
    for k in (1, 2, 3, 5):
        w = omega(k)
        assert w * w == ImQuadElement.from_rational(-k, k)


def test_field_inverse():
    e = ImQuadElement(Fraction(2), Fraction(3), 5)
    assert e * e.inverse() == ImQuadElement.from_rational(1, 5)
    with pytest.raises(ZeroDivisionError):
        ImQuadElement.from_rational(0, 5).inverse()


def test_mismatched_k_rejected():
    with pytest.raises(MismatchedFieldError):
        omega(1) + omega(2)


def test_norm_is_multiplicative():
    a = ImQuadElement(Fraction(2), Fraction(-1, 3), 3)
    b = ImQuadElement(Fraction(-1, 2), Fraction(4), 3)
    assert (a * b).norm() == a.norm() * b.norm()


# ---------------------------------------------------------------------------
# polynomials


def t_poly(k: int) -> ImQuadPoly:
    return ImQuadPoly.from_coeffs([0, 1], k)


def test_poly_gcd_coprime():
    k = 1
    p = ImQuadPoly.from_coeffs([1, 0, 1], k)  # t^2 + 1
    q = ImQuadPoly.from_coeffs([0, 2], k)  # 2t
    assert poly_gcd(p, q) == ImQuadPoly.from_coeffs([1], k)


def test_poly_gcd_common_factor():
    k = 2
    t = t_poly(k)
    one = ImQuadPoly.constant(1, k)
    t_minus_1 = t - one
    t_plus_w = t + ImQuadPoly.constant(omega(k), k)
    p = t_minus_1 * t_minus_1 * t_plus_w
    assert poly_gcd(p, t_minus_1) == t_minus_1


def test_poly_gcd_with_zero_is_monic():
    k = 1
    p = ImQuadPoly.from_coeffs([2, 4], k)
    assert poly_gcd(p, ImQuadPoly.zero(k)) == p.monic()
    assert poly_gcd(ImQuadPoly.zero(k), p) == p.monic()
    with pytest.raises(ExactnumError):
        poly_gcd(ImQuadPoly.zero(k), ImQuadPoly.zero(k))


def test_squarefree_decomposition_constructed():
    k = 3
    t = t_poly(k)
    t_minus_1 = t - ImQuadPoly.constant(1, k)
    t_plus_w = t + ImQuadPoly.constant(omega(k), k)
    p = t_minus_1 * t_minus_1 * t_plus_w
    assert squarefree_decomposition(p) == [(t_plus_w, 1), (t_minus_1, 2)]


def test_squarefree_decomposition_squarefree_input():
    k = 1
    p = ImQuadPoly.from_coeffs([1, 0, 1], k)
    assert squarefree_decomposition(p) == [(p, 1)]


def test_squarefree_decomposition_constant():
    assert squarefree_decomposition(ImQuadPoly.constant(5, 1)) == []
    with pytest.raises(ExactnumError):
        squarefree_decomposition(ImQuadPoly.zero(1))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def imquad_elements(k: int):
    return st.builds(lambda a, b: ImQuadElement(a, b, k), small_fractions, small_fractions)


def imquad_polys(k: int, max_deg: int = 4):
    return st.lists(imquad_elements(k), min_size=0, max_size=max_deg + 1).map(
        lambda cs: ImQuadPoly.from_coeffs(cs, k)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 5]).flatmap(lambda k: st.tuples(imquad_polys(k), imquad_polys(k))))
def test_gcd_divides_both(pq):
    p, q = pq
    if p.is_zero() and q.is_zero():
        return
    g = poly_gcd(p, q)
    assert (p % g).is_zero()
    assert (q % g).is_zero()
    assert g.leading() == ImQuadElement.from_rational(1, g.k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3]).flatmap(lambda k: imquad_polys(k)))
def test_squarefree_decomposition_reassembles(p):
    if p.is_zero():
        return
    parts = squarefree_decomposition(p)
    k = p.k
    prod = ImQuadPoly.constant(1, k)
    for f, m in parts:
        for _ in range(m):
            prod = prod * f
    # equal up to the leading constant
    if p.degree >= 1:
        assert prod.monic() == p.monic()
    mults = [m for _, m in parts]
    assert mults == sorted(mults) and len(set(mults)) == len(mults)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 5]).flatmap(lambda k: st.tuples(imquad_polys(k), imquad_polys(k))))
def test_degree_additivity(pq):
    p, q = pq
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=40, deadline=None)
@given(st.tuples(imquad_polys(2), imquad_polys(2)))
def test_divmod_identity(pq):
    p, q = pq
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree
