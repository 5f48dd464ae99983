"""Exact arithmetic over Q and the imaginary quadratic field Q(sqrt(-k)).

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always reduced, positive denominator); this module adds the number-theoretic
helpers the geometry layers need: exact rational square roots, squarefree
decomposition of rationals, and univariate polynomial arithmetic over
Q(omega) with omega^2 = -k, including monic gcd and Yun squarefree
decomposition.  Polynomial products are summed in integers: each factor
goes over one common denominator as (re, im) int pairs in Z[omega], and
each coefficient of the product is divided once.

Private modular certificates let callers skip the Fraction work in the
common case.  Each k gets one good prime p > 2^61 with -k a square mod p,
and a root w of w^2 = -k mod p; omega -> w maps every element of Q(omega)
whose denominators p does not divide into F_p, and this map is a ring
homomorphism.  So a polynomial whose image keeps its degree and is coprime
to its derivative is squarefree, and a polynomial whose image does not
vanish at the image of t does not vanish at t.  ``_is_root`` evaluates in
Q(omega) whenever the image says nothing.

``_modular_root_multiplicities`` also splits polynomials with repeated
roots.  Yun's algorithm runs in F_p[t] under omega -> w and under
omega -> -w (the same prime with the conjugate root), and the factors of
each multiplicity must have the same degrees under both.  A coefficient
re + im*omega of a monic factor has the images u = re + im*w and
v = re - im*w, so re = (u + v)/2 and im = (u - v)/(2w) mod p, and rational
reconstruction bounded by sqrt(p/2) lifts each to Q.  The lifted factors
a_i count only when each is squarefree mod p, they are pairwise coprime
mod p, and lc(f) * prod a_i^i equals f exactly; the squarefree
decomposition is unique, so the multiplicities are then exact.  Any
failure returns None, and the caller runs exact Yun.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm


class ExactnumError(ValueError):
    """Base class for domain errors raised by this module."""


class UnfactoredResidueError(ExactnumError):
    """Trial division hit its prime bound before the residue was resolved."""


class MismatchedFieldError(ExactnumError):
    """Operands live in Q(sqrt(-k)) for different k."""


DEFAULT_PRIME_BOUND = 100_000

# [0-9], not \d: Python's \d and int() both accept every Unicode digit.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p/q" (or "p"); rejects floats, exponents and non-strings.

    The digits must be ASCII.  The Fraction is built from the two integers
    the pattern has matched, so the text is scanned once.
    """
    if not isinstance(text, str):
        raise ExactnumError(f"rational must be a string like \"p/q\", got {type(text).__name__}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ExactnumError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _parse_integer(text: str) -> int:
    """Parse a command-line integer: a rational literal without a denominator.

    The digits must be ASCII, with no blanks or underscores around or
    between them; a sign is allowed.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None or match[2] is not None:
        raise ExactnumError(f"not an integer literal: {text!r}")
    return int(text)


def parse_int(value: int) -> int:
    """Parse a wire integer: a JSON int only; rejects bools, floats and strings."""
    if type(value) is not int:
        raise ExactnumError(f"integer must be a JSON int, got {type(value).__name__}")
    return value


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign on p.

    A Fraction is formatted as it is; any other rational (an int) is
    converted first.
    """
    return str(q if isinstance(q, Fraction) else Fraction(q))


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of ``q``, or None if q is not a square.

    Because q is stored reduced, q is a rational square iff its numerator
    and denominator are both perfect squares.
    """
    q = Fraction(q)
    if q < 0:
        raise ExactnumError(f"rational_sqrt of negative value {q}")
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _squarefree_split_int(n: int) -> tuple[int, int]:
    # n = s * r^2 with s squarefree, via trial division up to DEFAULT_PRIME_BOUND.
    s = 1
    r = 1
    d = 2
    while d <= DEFAULT_PRIME_BOUND and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                s *= d
            r *= d ** (e // 2)
        d += 1 if d == 2 else 2
    if n == 1:
        return s, r
    root = isqrt(n)
    if root * root == n:
        # Residue is a perfect square; its squarefreeness is irrelevant.
        return s, r * root
    if n < d * d * d:
        # Every prime factor of the residue is at least d, so a residue
        # below d^3 has at most two, distinct because it is not a square:
        # it is a prime or a product of two primes, and squarefree.
        return s * n, r
    raise UnfactoredResidueError(
        f"unfactored residue {n} exceeds prime bound {DEFAULT_PRIME_BOUND}"
    )


def squarefree_part(q: Fraction | int) -> tuple[int, Fraction]:
    """Write q > 0 as s * r^2 with s a positive squarefree integer, r in Q.

    s = 1 exactly when q is a rational square.  Trial division runs up to
    ``DEFAULT_PRIME_BOUND``; a residue left above it that is neither a
    square nor below (DEFAULT_PRIME_BOUND + 1)^3 raises
    UnfactoredResidueError instead of being silently mis-normalized.
    """
    q = Fraction(q)
    if q <= 0:
        raise ExactnumError(f"squarefree_part of nonpositive value {q}")
    sn, rn = _squarefree_split_int(q.numerator)
    sd, rd = _squarefree_split_int(q.denominator)
    # q = (sn/sd) * (rn/rd)^2 and gcd(sn, sd) = 1, so sn*sd is squarefree:
    # q = (sn*sd) * (rn / (rd*sd))^2.
    return sn * sd, Fraction(rn, rd * sd)


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    s, _ = _squarefree_split_int(n)
    return s == n


@dataclass(frozen=True)
class ImQuadElement:
    """Element re + im*omega of Q(omega), omega^2 = -k, k squarefree >= 1."""

    re: Fraction
    im: Fraction
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))
        if self.k < 1:
            raise ExactnumError(f"field parameter k must be >= 1, got {self.k}")

    @classmethod
    def from_rational(cls, q: Fraction | int, k: int) -> "ImQuadElement":
        return cls(Fraction(q), Fraction(0), k)

    def _coerce(self, other: "ImQuadElement | Fraction | int") -> "ImQuadElement":
        if isinstance(other, ImQuadElement):
            if other.k != self.k:
                raise MismatchedFieldError(
                    f"mixed field parameters k={self.k} and k={other.k}"
                )
            return other
        return ImQuadElement(Fraction(other), Fraction(0), self.k)

    def __add__(self, other: "ImQuadElement | Fraction | int") -> "ImQuadElement":
        o = self._coerce(other)
        return ImQuadElement(self.re + o.re, self.im + o.im, self.k)

    __radd__ = __add__

    def __sub__(self, other: "ImQuadElement | Fraction | int") -> "ImQuadElement":
        o = self._coerce(other)
        return ImQuadElement(self.re - o.re, self.im - o.im, self.k)

    def __neg__(self) -> "ImQuadElement":
        return ImQuadElement(-self.re, -self.im, self.k)

    def __mul__(self, other: "ImQuadElement | Fraction | int") -> "ImQuadElement":
        o = self._coerce(other)
        # (a + b*omega)(c + d*omega) = (ac - k*bd) + (ad + bc)*omega
        return ImQuadElement(
            self.re * o.re - self.k * self.im * o.im,
            self.re * o.im + self.im * o.re,
            self.k,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ImQuadElement | Fraction | int") -> "ImQuadElement":
        return self * self._coerce(other).inverse()

    def __pow__(self, exp: int) -> "ImQuadElement":
        if exp < 0:
            return self.inverse() ** (-exp)
        acc = ImQuadElement.from_rational(1, self.k)
        base = self
        while exp:
            if exp & 1:
                acc = acc * base
            base = base * base
            exp >>= 1
        return acc

    def conjugate(self) -> "ImQuadElement":
        return ImQuadElement(self.re, -self.im, self.k)

    def norm(self) -> Fraction:
        """Field norm re^2 + k*im^2 (nonnegative, zero only at zero)."""
        return self.re * self.re + self.k * self.im * self.im

    def inverse(self) -> "ImQuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero element")
        return ImQuadElement(self.re / n, -self.im / n, self.k)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def omega(k: int) -> ImQuadElement:
    """The generator omega with omega^2 = -k."""
    return ImQuadElement(Fraction(0), Fraction(1), k)


def _int_pairs(elements) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(RE, IM), ...]) with each element (RE + IM*omega)/L, L the lcm of
    every denominator: the elements as integer pairs in Z[omega]."""
    den = lcm(*(q.denominator for c in elements for q in (c.re, c.im)))
    return den, [
        (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for c in elements
    ]


@dataclass(frozen=True)
class ImQuadPoly:
    """Univariate polynomial over Q(omega), coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the
    leading coefficient is nonzero.  All coefficients share the field
    parameter k.
    """

    coeffs: tuple[ImQuadElement, ...]
    k: int

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if c.k != self.k:
                raise MismatchedFieldError("polynomial coefficients mix field parameters")
        if self.coeffs and self.coeffs[-1].is_zero():
            raise ExactnumError("leading coefficient must be nonzero (use from_coeffs)")

    @classmethod
    def from_coeffs(
        cls, coeffs: "list[ImQuadElement | Fraction | int]", k: int
    ) -> "ImQuadPoly":
        lifted = [
            c if isinstance(c, ImQuadElement) else ImQuadElement.from_rational(c, k)
            for c in coeffs
        ]
        while lifted and lifted[-1].is_zero():
            lifted.pop()
        return cls(tuple(lifted), k)

    @classmethod
    def zero(cls, k: int) -> "ImQuadPoly":
        return cls((), k)

    @classmethod
    def constant(cls, c: "ImQuadElement | Fraction | int", k: int) -> "ImQuadPoly":
        return cls.from_coeffs([c], k)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> ImQuadElement:
        if not self.coeffs:
            raise ExactnumError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_k(self, other: "ImQuadPoly") -> None:
        if other.k != self.k:
            raise MismatchedFieldError(
                f"mixed field parameters k={self.k} and k={other.k}"
            )

    def __add__(self, other: "ImQuadPoly") -> "ImQuadPoly":
        self._check_k(other)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = ImQuadElement.from_rational(0, self.k)
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        return ImQuadPoly.from_coeffs(out, self.k)

    def __sub__(self, other: "ImQuadPoly") -> "ImQuadPoly":
        return self + (-other)

    def __neg__(self) -> "ImQuadPoly":
        return ImQuadPoly(tuple(-c for c in self.coeffs), self.k)

    def __mul__(self, other: "ImQuadPoly") -> "ImQuadPoly":
        """The product, summed in integers: each factor goes over one common
        denominator as (re, im) int pairs, the convolution uses
        (a + b*omega)(c + d*omega) = (ac - k*bd) + (ad + bc)*omega, and each
        coefficient of the product is divided once.  Q(omega) is a field, so
        the leading coefficient stays nonzero."""
        self._check_k(other)
        if self.is_zero() or other.is_zero():
            return ImQuadPoly.zero(self.k)
        k = self.k
        (p_den, p), (q_den, q) = _int_pairs(self.coeffs), _int_pairs(other.coeffs)
        re = [0] * (len(p) + len(q) - 1)
        im = [0] * len(re)
        for i, (a, b) in enumerate(p):
            if not (a or b):
                continue
            for j, (c, d) in enumerate(q, i):
                re[j] += a * c - k * b * d
                im[j] += a * d + b * c
        den = p_den * q_den
        return ImQuadPoly(
            tuple(ImQuadElement(Fraction(u, den), Fraction(v, den), k) for u, v in zip(re, im)), k
        )

    def scale(self, c: "ImQuadElement | Fraction | int") -> "ImQuadPoly":
        factor = c if isinstance(c, ImQuadElement) else ImQuadElement.from_rational(c, self.k)
        return ImQuadPoly.from_coeffs([a * factor for a in self.coeffs], self.k)

    def monic(self) -> "ImQuadPoly":
        if self.is_zero():
            raise ExactnumError("zero polynomial cannot be made monic")
        return self.scale(self.leading().inverse())

    def divmod(self, den: "ImQuadPoly") -> "tuple[ImQuadPoly, ImQuadPoly]":
        """Exact Euclidean division; den must be nonzero."""
        self._check_k(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = ImQuadElement.from_rational(0, self.k)
        rem = list(self.coeffs)
        dn = len(den.coeffs) - 1
        lead_inv = den.leading().inverse()
        quot = [zero] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            c = rem[i + dn] * lead_inv
            if c.is_zero():
                continue
            quot[i] = c
            for j, d in enumerate(den.coeffs):
                rem[i + j] = rem[i + j] - c * d
        return (
            ImQuadPoly.from_coeffs(quot, self.k),
            ImQuadPoly.from_coeffs(rem[:dn], self.k),
        )

    def __floordiv__(self, den: "ImQuadPoly") -> "ImQuadPoly":
        q, r = self.divmod(den)
        if not r.is_zero():
            raise ExactnumError("inexact polynomial division")
        return q

    def __mod__(self, den: "ImQuadPoly") -> "ImQuadPoly":
        return self.divmod(den)[1]

    def derivative(self) -> "ImQuadPoly":
        out = [c * Fraction(i) for i, c in enumerate(self.coeffs) if i > 0]
        return ImQuadPoly.from_coeffs(out, self.k)

    def evaluate(self, t: "ImQuadElement | Fraction | int") -> ImQuadElement:
        t = t if isinstance(t, ImQuadElement) else ImQuadElement.from_rational(t, self.k)
        acc = ImQuadElement.from_rational(0, self.k)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def poly_gcd(p: ImQuadPoly, q: ImQuadPoly) -> ImQuadPoly:
    """Monic gcd via the Euclidean algorithm with monic-reduction steps."""
    if p.k != q.k:
        raise MismatchedFieldError(f"mixed field parameters k={p.k} and k={q.k}")
    if p.is_zero() and q.is_zero():
        raise ExactnumError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
        if not a.is_zero():
            a = a.monic()
    return a.monic()


def squarefree_decomposition(
    p: ImQuadPoly,
) -> list[tuple[ImQuadPoly, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree factors.

    Returns [(factor, multiplicity), ...] with multiplicities strictly
    increasing; the product of factor^multiplicity equals p up to a nonzero
    constant.  Constants decompose to the empty list.
    """
    if p.is_zero():
        raise ExactnumError("squarefree decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    out: list[tuple[ImQuadPoly, int]] = []
    g = poly_gcd(p, p.derivative())
    b = p // g
    c = p.derivative() // g
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# one-sided certificates mod a good prime

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # Miller-Rabin on the first twelve prime bases: exact below
    # 318665857834031151167461 ~ 3.2e23, the least composite passing all twelve
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ExactnumError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


@cache
def _good_prime(k: int) -> tuple[int, int]:
    """The least prime p > 2^61 with -k a square mod p, and a root w of w^2 = -k.

    k = 1 needs p = 1 mod 4: -1 is never a square mod a prime p = 3 mod 4.
    """
    p = 2**61 + 1
    while not (_is_prime(p) and pow(-k % p, (p - 1) // 2, p) == 1):
        p += 2
    return p, _sqrt_mod(-k, p)


def _reduce(x: ImQuadElement, p: int, w: int) -> int | None:
    # image of x under omega -> w in F_p, None when p divides a denominator
    re_den, im_den = x.re.denominator, x.im.denominator
    den = re_den * im_den % p
    if den == 0:
        return None
    return (x.re.numerator * im_den + x.im.numerator * re_den * w) * pow(den, -1, p) % p


def _reduce_poly(poly: ImQuadPoly, p: int, w: int) -> list[int] | None:
    out = []
    for c in poly.coeffs:
        v = _reduce(c, p, w)
        if v is None:
            return None
        out.append(v)
    return out


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _derivative_mod(f: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(f)][1:])


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # quotient and remainder of a by the nonzero b in F_p[t], coefficients lowest first
    a = _trim(list(a))
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = a[-1] * inv % p
        shift = len(a) - 1 - db
        quot[shift] = c
        for j, v in enumerate(b):
            a[shift + j] = (a[shift + j] - c * v) % p
        _trim(a)
    return quot, a


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    # monic gcd of a and b, not both zero, in F_p[t]
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _yun_mod(f: list[int], p: int) -> list[list[int]]:
    """Yun's algorithm in F_p[t]: monic a_1, a_2, ... with f = lc(f) * prod a_i^i,
    each squarefree and pairwise coprime, when p > deg f.  At most deg f steps,
    so it ends for any p; callers certify what it returns."""
    df = _derivative_mod(f, p)
    g = _gcd_mod(f, df, p)
    b, c = _divmod_mod(f, g, p)[0], _divmod_mod(df, g, p)[0]
    d = _sub_mod(c, _derivative_mod(b, p), p)
    out = []
    for _ in range(len(f) - 1):
        if len(b) < 2:
            break
        a = _gcd_mod(b, d, p)
        out.append(a)
        b, c = _divmod_mod(b, a, p)[0], _divmod_mod(d, a, p)[0]
        d = _sub_mod(c, _derivative_mod(b, p), p)
    return out


def _rational_reconstruct(a: int, p: int) -> Fraction | None:
    """The fraction n/d with n = a*d mod p and |n|, d <= sqrt(p/2), or None.

    Two such fractions n/d and n'/d' are equal: p divides n*d' - n'*d, whose
    absolute value is at most 2*(p//2) < p.  The half-extended Euclidean
    algorithm finds it (Wang, Guy and Davenport, 1982).
    """
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _certified_decomposition(poly: ImQuadPoly, factors: list[tuple[ImQuadPoly, int]]) -> bool:
    """True only when the (a, i) pairs, with distinct i, are the squarefree
    decomposition of poly: poly = lc(poly) * prod a^i exactly, and each a is
    squarefree and the a are pairwise coprime.  The last two are read mod the
    good prime, where each a must keep its degree; a common factor, or a
    repeated one, over Q(omega) would persist there.  By uniqueness of the
    squarefree decomposition, poly then has exactly deg a roots of
    multiplicity i, for each pair.
    """
    p, w = _good_prime(poly.k)
    images = [_reduce_poly(a, p, w) for a, _ in factors]
    for f in images:
        if f is None or f[-1] == 0 or len(_gcd_mod(f, _derivative_mod(f, p), p)) > 1:
            return False
    if any(len(_gcd_mod(f, g, p)) > 1 for f, g in itertools.combinations(images, 2)):
        return False
    product = ImQuadPoly.constant(poly.leading(), poly.k)
    for a, i in factors:
        for _ in range(i):
            product = product * a
    return product == poly


def _modular_root_multiplicities(poly: ImQuadPoly) -> tuple[tuple[int, int], ...] | None:
    """(multiplicity, number of roots) pairs of poly, of degree >= 1, or None.

    The image f of poly under omega -> w must keep its degree.  gcd(f, f') = 1
    certifies poly squarefree; otherwise the factors that Yun finds mod p
    under omega -> w and omega -> -w are rebuilt in Q(omega) and certified,
    as the module docstring sets out.  None proves nothing.
    """
    p, w = _good_prime(poly.k)
    f = _reduce_poly(poly, p, w)
    if f is None or f[-1] == 0:
        return None
    if len(_gcd_mod(f, _derivative_mod(f, p), p)) == 1:
        return ((1, poly.degree),)
    g = _reduce_poly(poly, p, p - w)  # p divides no denominator, as f exists
    if g[-1] == 0:
        return None
    split, conjugate = _yun_mod(f, p), _yun_mod(g, p)
    if [len(a) for a in split] != [len(a) for a in conjugate]:
        return None
    half, half_over_w = pow(2, -1, p), pow(2 * w, -1, p)
    factors = []
    for i, (a, b) in enumerate(zip(split, conjugate), 1):
        if len(a) == 1:
            continue
        coeffs = []
        for u, v in zip(a, b):
            real = _rational_reconstruct((u + v) * half, p)
            imag = _rational_reconstruct((u - v) * half_over_w, p)
            if real is None or imag is None:
                return None
            coeffs.append(ImQuadElement(real, imag, poly.k))
        factors.append((ImQuadPoly(tuple(coeffs), poly.k), i))
    if not _certified_decomposition(poly, factors):
        return None
    return tuple((i, a.degree) for a, i in factors)


def _is_root(poly: ImQuadPoly, t: ImQuadElement) -> bool:
    """Exactly poly(t) == 0: a nonzero value mod the good prime settles it
    as False, and every other case evaluates in Q(omega)."""
    p, w = _good_prime(poly.k)
    f, x = _reduce_poly(poly, p, w), _reduce(t, p, w)
    if f is not None and x is not None:
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc:
            return False
    return poly.evaluate(t).is_zero()
