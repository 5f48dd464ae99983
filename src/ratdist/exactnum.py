"""Exact arithmetic over Q and the imaginary quadratic field Q(sqrt(-k)).

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always reduced, positive denominator); this module adds the number-theoretic
helpers the geometry layers need: exact rational square roots, squarefree
decomposition of rationals, and univariate polynomial arithmetic over
Q(omega) with omega^2 = -k, including monic gcd and Yun squarefree
decomposition.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


class ExactnumError(ValueError):
    """Base class for domain errors raised by this module."""


class UnfactoredResidueError(ExactnumError):
    """Trial division hit its prime bound before the residue was resolved."""


class MismatchedFieldError(ExactnumError):
    """Operands live in Q(sqrt(-k)) for different k."""


DEFAULT_PRIME_BOUND = 100_000

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p/q" (or "p"); rejects floats, exponents and non-strings."""
    if not isinstance(text, str):
        raise ExactnumError(f"rational must be a string like \"p/q\", got {type(text).__name__}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ExactnumError(f"not a rational literal: {text!r}")
    return Fraction(text)


def parse_int(value: int) -> int:
    """Parse a wire integer: a JSON int only; rejects bools, floats and strings."""
    if type(value) is not int:
        raise ExactnumError(f"integer must be a JSON int, got {type(value).__name__}")
    return value


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign on p."""
    return str(Fraction(q))


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


def _squarefree_split_int(n: int, prime_bound: int) -> tuple[int, int]:
    # n = s * r^2 with s squarefree, via trial division up to prime_bound.
    s = 1
    r = 1
    d = 2
    while d <= prime_bound and d * d <= n:
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
    if d * d > n or n <= prime_bound * prime_bound:
        # All remaining prime factors exceed prime_bound, so a residue at
        # most prime_bound^2 (and not a square) must itself be prime.
        return s * n, r
    raise UnfactoredResidueError(
        f"unfactored residue {n} exceeds prime bound {prime_bound}"
    )


def squarefree_part(
    q: Fraction | int, prime_bound: int = DEFAULT_PRIME_BOUND
) -> tuple[int, Fraction]:
    """Write q > 0 as s * r^2 with s a positive squarefree integer, r in Q.

    s = 1 exactly when q is a rational square.  Inputs whose factorization
    is not resolved by trial division up to ``prime_bound`` raise
    UnfactoredResidueError instead of being silently mis-normalized.
    """
    q = Fraction(q)
    if q <= 0:
        raise ExactnumError(f"squarefree_part of nonpositive value {q}")
    sn, rn = _squarefree_split_int(q.numerator, prime_bound)
    sd, rd = _squarefree_split_int(q.denominator, prime_bound)
    # q = (sn/sd) * (rn/rd)^2 and gcd(sn, sd) = 1, so sn*sd is squarefree:
    # q = (sn*sd) * (rn / (rd*sd))^2.
    return sn * sd, Fraction(rn, rd * sd)


def is_squarefree(n: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> bool:
    if n < 1:
        return False
    s, _ = _squarefree_split_int(n, prime_bound)
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

    def __rsub__(self, other: "Fraction | int") -> "ImQuadElement":
        return self._coerce(other) - self

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

    def to_dict(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im), "k": self.k}

    @classmethod
    def from_dict(cls, d: dict) -> "ImQuadElement":
        return cls(parse_rational(d["re"]), parse_rational(d["im"]), parse_int(d["k"]))

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        return f"{format_rational(self.re)} + {format_rational(self.im)}*w"


def omega(k: int) -> ImQuadElement:
    """The generator omega with omega^2 = -k."""
    return ImQuadElement(Fraction(0), Fraction(1), k)


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
        self._check_k(other)
        if self.is_zero() or other.is_zero():
            return ImQuadPoly.zero(self.k)
        zero = ImQuadElement.from_rational(0, self.k)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ImQuadPoly.from_coeffs(out, self.k)

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

    def conjugate_coeffs(self) -> "ImQuadPoly":
        return ImQuadPoly(tuple(c.conjugate() for c in self.coeffs), self.k)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())


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
