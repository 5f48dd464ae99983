"""Plane curves, isotropic lines, and the double-cover construction.

This module works in lattice coordinates: a configuration point (a, b)
stands for the real point (a, b*sqrt(k)), curves are homogeneous rational
polynomials f(x, y, z), and the distance form is (dx)^2 + k*(dy)^2.  The
isotropic line through P = (a, b) is (x - az) + omega*(y - bz) = 0 with
omega^2 = -k; it passes through the circular point Q = (-omega, 1, 0), and
its conjugate uses -omega.  Restricting f to the parametrization
(a - omega*t, b + t, 1) turns intersection counting into exact univariate
root-multiplicity bookkeeping over Q(omega).

The restriction is summed in integers: with a = A/D, b = B/D and
tau = D*t, the powers of A - omega*tau and B + tau are (re, im) int pairs
and ints, and each coefficient is divided once at the end.  The line of
(a, b) crosses a line of the other family, through (a', b'), at the
closed-form parameter t = (b' - b)/2 + s*omega*(a' - a)/(2k), s = -1 on a
conjugate line, and the crossing lies on f exactly when the restriction
vanishes there, so no point of the plane is built.  f is rational, so
complex conjugation maps the curve to itself and swaps the line of a base
point with its conjugate line: the conjugate line carries the conjugate
restriction, with the same root multiplicities and the conjugate crossing
parameters, and the line of u crosses the conjugate line of v on the curve
exactly when the line of v crosses the conjugate line of u there.  So one
analysis per base point decides all six lines of a triple.

Both root questions go mod the good prime of exactnum first: a
restriction certified squarefree there has only simple roots, and a
crossing where the reduced restriction does not vanish is off the curve.
A restriction with repeated roots is split by Yun mod the prime under
omega -> w and omega -> -w; each factor's coefficients are rebuilt in
Q(omega) from the two images, and the factors count only when an exact
product gives back the restriction.  Exact Yun and exact evaluation settle
only what the prime leaves open.

The selection routine picks a triple of base points whose six isotropic
lines meet the curve transversely at enough points for the double cover
w^2 = q1*q2*q3 on f = 0 to have the expected ramification.  One greedy
pass serves every degree: it skips a candidate whose conjugate line meets
the line of an earlier pick on the curve, which on a line is the
reflection of that pick in it.  The cover's genus is reported exactly
when the branch points can be certified affine, simple, and unshared, and
as the generic interval otherwise.  The branch sextic is multiplied in
integers: with a base point (A/D, B/D), D^2*q = (Dx - Az)^2 + k*(Dy - Bz)^2
has integer coefficients, and each monomial of the product is divided
once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .exactnum import (
    ImQuadElement,
    ImQuadPoly,
    _is_root,
    _modular_root_multiplicities,
    format_rational,
    omega,
    parse_int,
    parse_rational,
    squarefree_decomposition,
)
from .planeset import Configuration, LatticePoint, integer_lattice


class CurveliftError(ValueError):
    """Base class for domain errors raised by this module."""


class UseInversionFirstError(CurveliftError):
    """Degree-2 curves are handled by inverting the configuration first."""


class LineIsComponentError(CurveliftError):
    """The isotropic line is contained in the curve."""


class ThresholdError(CurveliftError):
    """Too few candidate points for the requested degree."""


class HypothesisViolationError(CurveliftError):
    """Greedy selection could not reach the transverse-count bound."""

    def __init__(self, message: str, transcript: tuple = ()) -> None:
        super().__init__(message)
        self.transcript = transcript


# ---------------------------------------------------------------------------
# trivariate polynomial helpers (exponent-triple -> coefficient dicts)


def _poly_norm(items) -> dict:
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, l), c in items:
        c = Fraction(c)
        if c == 0:
            continue
        key = (i, j, l)
        acc = out.get(key, Fraction(0)) + c
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def _poly_eval(p: dict, x, y, z):
    acc = None
    for (i, j, l), c in p.items():
        term = c * x**i * y**j * z**l
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0)
    return acc


def _branch_sextic(
    triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int
) -> tuple[tuple[int, int, int, Fraction], ...]:
    """The sorted monomials of q1*q2*q3, q the distance quadric of each point.

    With (a, b) = (A/D, B/D), D^2*q = (Dx - Az)^2 + k*(Dy - Bz)^2 has integer
    coefficients, so the three integer quadrics are multiplied and each
    monomial is divided once by the product of the D^2.
    """
    product = {(0, 0, 0): 1}
    scale = 1
    for p in triple:
        d, [(a, b)] = integer_lattice((p,))
        quadric = (
            ((2, 0, 0), d * d),
            ((1, 0, 1), -2 * a * d),
            ((0, 2, 0), k * d * d),
            ((0, 1, 1), -2 * k * b * d),
            ((0, 0, 2), a * a + k * b * b),
        )
        out: dict[tuple[int, int, int], int] = {}
        for (i, j, l), c in product.items():
            for (u, v, w), e in quadric:
                key = (i + u, j + v, l + w)
                out[key] = out.get(key, 0) + c * e
        product = out
        scale *= d * d
    return tuple(sorted((i, j, l, Fraction(c, scale)) for (i, j, l), c in product.items() if c))


@dataclass(frozen=True)
class PlaneCurve:
    """Homogeneous rational curve f(x, y, z) = 0 of degree d.

    Irreducibility (and smoothness) are caller-asserted metadata; the type
    enforces homogeneity and nonzeroness only.
    """

    monomials: tuple[tuple[int, int, int, Fraction], ...]
    degree: int

    @classmethod
    def from_coeffs(cls, coeffs: dict) -> "PlaneCurve":
        for exps in coeffs:
            if min(exps) < 0:
                raise CurveliftError(f"curve exponents must be >= 0, got {exps}")
        norm = _poly_norm(coeffs.items())
        if not norm:
            raise CurveliftError("curve polynomial must be nonzero")
        degrees = {i + j + l for (i, j, l) in norm}
        if len(degrees) != 1:
            raise CurveliftError(f"curve polynomial must be homogeneous, degrees {sorted(degrees)}")
        mono = tuple(sorted((i, j, l, c) for (i, j, l), c in norm.items()))
        return cls(mono, degrees.pop())

    @property
    def coeffs(self) -> dict:
        return {(i, j, l): c for i, j, l, c in self.monomials}

    def evaluate(self, x, y, z):
        return _poly_eval(self.coeffs, x, y, z)

    def contains(self, p: LatticePoint) -> bool:
        return self.evaluate(p.x, p.yc, Fraction(1)) == 0

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "monomials": [
                {"i": i, "j": j, "k": l, "c": format_rational(c)}
                for i, j, l, c in self.monomials
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlaneCurve":
        coeffs: dict[tuple[int, int, int], Fraction] = {}
        for m in d["monomials"]:
            exps = (parse_int(m["i"]), parse_int(m["j"]), parse_int(m["k"]))
            if exps in coeffs:
                raise CurveliftError(f"repeated monomial exponents {exps}")
            coeffs[exps] = parse_rational(m["c"])
        curve = cls.from_coeffs(coeffs)
        if "degree" in d and parse_int(d["degree"]) != curve.degree:
            raise CurveliftError(
                f"declared degree {d['degree']} does not match monomials of degree {curve.degree}"
            )
        return curve


def line_curve(alpha, beta, gamma) -> PlaneCurve:
    """The rational line alpha*x + beta*y + gamma*z = 0."""
    return PlaneCurve.from_coeffs(
        {(1, 0, 0): Fraction(alpha), (0, 1, 0): Fraction(beta), (0, 0, 1): Fraction(gamma)}
    )


@dataclass(frozen=True)
class IsotropicLine:
    """The line (x - az) + s*omega*(y - bz) = 0, s = -1 for the conjugate."""

    base: LatticePoint
    k: int
    conjugate: bool = False

    def direction(self) -> ImQuadElement:
        w = omega(self.k)
        return -w if self.conjugate else w

    def conjugated(self) -> "IsotropicLine":
        return IsotropicLine(self.base, self.k, not self.conjugate)


def threshold(d: int) -> Fraction:
    """Candidate-count requirement per curve degree.

    d = 1 wants five points off the curve; d >= 3 wants
    d(d-1) + (5/2)d + 1 points on it.  Degree 2 is not handled directly:
    invert the configuration at a point of the conic first.
    """
    if d < 1:
        raise CurveliftError(f"degree must be positive, got {d}")
    if d == 2:
        raise UseInversionFirstError("degree 2: use inversion first (planeset.invert)")
    if d == 1:
        return Fraction(5)
    return Fraction(d * (d - 1)) + Fraction(5, 2) * d + 1


def substitute_line(curve: PlaneCurve, line: IsotropicLine) -> ImQuadPoly:
    """Restrict the curve to the line's parametrization (a - s*w*t, b + t, 1).

    The sum runs over integers.  Write a = A/D, b = B/D, tau = D*t and put
    the coefficients c = C/M over their common denominator M; then D^d
    times a monomial c*x^i*y^j*z^l is (C/M)*D^l*(A - s*w*tau)^i*(B + tau)^j.
    So M*D^d*f restricted is a polynomial G(tau) over Z[w], kept as
    (re, im) int pairs, and t^n has coefficient G_n*D^n / (M*D^d).
    """
    k, d = line.k, curve.degree
    den, [(big_a, big_b)] = integer_lattice((line.base,))
    m = lcm(*(c.denominator for *_, c in curve.monomials))
    den_pow = [den**n for n in range(d + 1)]
    # (B + tau)^j, and per x-degree i the sum of C*D^l*(B + tau)^j over the monomials
    y_pow = [[comb(j, n) * big_b ** (j - n) for n in range(j + 1)] for j in range(d + 1)]
    by_i = [[0] * (d + 1 - i) for i in range(d + 1)]
    for i, j, l, c in curve.monomials:
        scale = c.numerator * (m // c.denominator) * den_pow[l]
        row = by_i[i]
        for n, y in enumerate(y_pow[j]):
            row[n] += scale * y
    # (A - s*w*tau)^i has tau^n coefficient comb(i, n)*A^(i-n)*(-s*w)^n, and
    # w^n = (-k)^(n//2) * w^(n%2): real for even n, a multiple of w for odd n
    neg_s = 1 if line.conjugate else -1
    re = [0] * (d + 1)
    im = [0] * (d + 1)
    for i, row in enumerate(by_i):
        if not any(row):
            continue
        for n in range(i + 1):
            x = comb(i, n) * big_a ** (i - n) * neg_s**n * (-k) ** (n // 2)
            acc = im if n % 2 else re
            for e, v in enumerate(row):
                acc[n + e] += x * v
    scale = m * den_pow[d]
    return ImQuadPoly.from_coeffs(
        [
            ImQuadElement(Fraction(re[n] * den_pow[n], scale), Fraction(im[n] * den_pow[n], scale), k)
            for n in range(d + 1)
        ],
        k,
    )


@dataclass(frozen=True)
class TransversalityReport:
    """Root bookkeeping for one curve/line pair.

    ``multiplicities`` lists (multiplicity, number of roots) from the
    squarefree decomposition; ``simple_roots`` counts multiplicity-one
    roots, and in the six-line count leaves out those at a crossing with
    another line of the union (a point shared with another selected line
    does not count as transverse).
    ``degree_drop`` is the intersection multiplicity absorbed at the
    circular point Q, an upper bound for the curve's multiplicity mu at Q;
    mu_lower_bound is 1 exactly when Q lies on the curve.
    """

    simple_roots: int
    multiplicities: tuple[tuple[int, int], ...]
    degree_drop: int
    mu_lower_bound: int


def transversality_report(curve: PlaneCurve, line: IsotropicLine) -> TransversalityReport:
    p = substitute_line(curve, line)
    if p.is_zero():
        raise LineIsComponentError("line is a component of the curve")
    return _report(curve.degree, p, _root_multiplicities(p), set())


def _root_multiplicities(p: ImQuadPoly) -> tuple[tuple[int, int], ...]:
    # (multiplicity, number of roots) pairs of a nonzero polynomial.  Mod the
    # good prime, one gcd certifies most restrictions squarefree; the rest are
    # split by Yun under omega -> w and omega -> -w, their factors rebuilt in
    # Q(omega) from the two images and certified by an exact product.  Exact
    # Yun runs only where the prime decides nothing
    if p.degree >= 1 and (certified := _modular_root_multiplicities(p)) is not None:
        return certified
    by_mult: dict[int, int] = {}
    for factor, mult in squarefree_decomposition(p):
        by_mult[mult] = by_mult.get(mult, 0) + factor.degree
    return tuple(sorted(by_mult.items()))


def _report(
    degree: int,
    p: ImQuadPoly,
    multiplicities: tuple[tuple[int, int], ...],
    excluded: set[ImQuadElement],
) -> TransversalityReport:
    # p is the curve restricted to a line, multiplicities its root counts,
    # excluded the parameters of points on the line that are not counted
    simple = dict(multiplicities).get(1, 0)
    if simple and excluded:
        dp = p.derivative()
        simple -= sum(1 for t in excluded if _is_root(p, t) and not _is_root(dp, t))
    return TransversalityReport(
        simple_roots=simple,
        multiplicities=multiplicities,
        degree_drop=degree - p.degree,
        mu_lower_bound=min(degree - p.degree, 1),
    )


def _crossing_parameter(line: IsotropicLine, other: IsotropicLine) -> ImQuadElement:
    # Parameter on ``line`` of its crossing with ``other``, a line of the
    # other family.  Equating (a - s*w*t, b + t) with (a' + s*w*t', b' + t')
    # and using 1/w = -w/k gives t = (b' - b)/2 + s*w*(a' - a)/(2k).  Two
    # lines of the same family meet only at the circular point at infinity.
    s = -1 if line.conjugate else 1
    return ImQuadElement(
        (other.base.yc - line.base.yc) / 2, s * (other.base.x - line.base.x) / (2 * line.k), line.k
    )


@dataclass(frozen=True)
class TripleSelection:
    """Outcome of the greedy triple search, with its audit trail."""

    triple: tuple[LatticePoint, LatticePoint, LatticePoint]
    k: int
    transverse_points: int
    required_points: int
    transcript: tuple[dict, ...]


def _require_distinct(triple: tuple[LatticePoint, LatticePoint, LatticePoint]) -> None:
    # a repeated base point would count the lines through it twice
    if len(set(triple)) != 3:
        raise CurveliftError("cover needs three distinct base points")


def _restriction(
    curve: PlaneCurve, p: LatticePoint, k: int, known: dict
) -> tuple[ImQuadPoly, tuple | None]:
    """The curve's restriction to the line of p and its root multiplicities
    (None when the line lies in the curve), memoized per point in ``known``."""
    if p not in known:
        r = substitute_line(curve, IsotropicLine(p, k))
        known[p] = (r, None if r.is_zero() else _root_multiplicities(r))
    return known[p]


def _analyze_triple(
    curve: PlaneCurve, triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int, known: dict
) -> list[tuple[ImQuadPoly, tuple | None, set[ImQuadElement]]]:
    """Per base point u: the curve's restriction p_u to the line of u, its
    root multiplicities (None when the line lies in the curve) and the set
    S_u of parameters on the line of u of its crossings on the curve with
    the conjugate lines of the triple, that of u included.

    The conjugate line of u has the conjugate restriction, the same
    multiplicities and the conjugate set.  The crossing of the line of u
    with the conjugate line of v is the conjugate of the crossing of the
    line of v with the conjugate line of u, so one root test per unordered
    pair decides both.  ``known`` maps base points to restrictions and
    multiplicities; those computed here are added to it.
    """
    lines = [IsotropicLine(p, k) for p in triple]
    out = [(*_restriction(curve, p, k, known), set()) for p in triple]
    for u, v in itertools.combinations_with_replacement(range(3), 2):
        t = _crossing_parameter(lines[u], lines[v].conjugated())
        if _is_root(out[u][0], t):
            out[u][2].add(t)
            out[v][2].add(_crossing_parameter(lines[v], lines[u].conjugated()))
    return out


def count_transverse_union(
    curve: PlaneCurve, triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int
) -> tuple[int, tuple[TransversalityReport, ...]]:
    """Transverse count of the curve against the six-line union.

    Points on two of the six lines are excluded (the union is singular
    there, so the intersection with the curve cannot be transverse).  The
    reports come in triple order, each base point's line, then its
    conjugate line; conjugation swaps each line with its conjugate line,
    so a conjugate line's report is its partner's and the count is twice
    the sum over the base points.
    """
    return _count_transverse_union(curve, triple, k, {})


def _count_transverse_union(curve, triple, k, known: dict):
    _require_distinct(triple)
    analysis = _analyze_triple(curve, triple, k, known)
    if any(m is None for _, m, _ in analysis):
        raise LineIsComponentError("line is a component of the curve")
    reports = [_report(curve.degree, p, m, shared) for p, m, shared in analysis]
    return 2 * sum(r.simple_roots for r in reports), tuple(r for r in reports for _ in range(2))


def choose_transverse_triple(
    curve: PlaneCurve, candidates: Configuration
) -> TripleSelection:
    """Greedy selection of three base points with certified transversality.

    The pool is the candidates off the curve for degree 1 and on it for
    degree >= 3.  Degree >= 3 keeps the pool points whose line's restriction
    has only simple roots and the least degree drop; degree 1 keeps the
    whole pool.  One pass then skips a point when the line of an earlier
    pick crosses its conjugate line on the curve, read off the pick's
    restriction: on a line, that skips the reflections of earlier picks for
    the metric dx^2 + k*dy^2, and nothing on the line at infinity.  A
    restriction is computed only when it is read.  The returned count is
    checked again on all six lines with mutual exclusions, so a returned
    selection is sound independently of the greedy heuristics.
    """
    d = curve.degree
    k = candidates.k
    need = threshold(d)
    on = d > 1
    pool = [p for p in candidates.points if curve.contains(p) == on]
    if len(pool) < need:
        raise ThresholdError(
            f"need at least {need} points {'on' if on else 'off'} the curve, have {len(pool)}"
        )
    transcript: list[dict] = []
    restricted: dict[LatticePoint, tuple[ImQuadPoly, tuple | None]] = {}
    good = pool
    if on:
        simple = []
        for p in pool:
            _, mults = _restriction(curve, p, k, restricted)
            if mults is None:
                transcript.append({"step": "reject", "point": p.to_dict(), "reason": "line in curve"})
            elif any(mult > 1 for mult, _ in mults):
                transcript.append({"step": "reject", "point": p.to_dict(), "reason": "multiple root"})
            else:
                simple.append(p)
        if not simple:
            raise HypothesisViolationError(
                "hypothesis violation: no candidate line meets the curve simply",
                tuple(transcript),
            )
        top = max(restricted[p][0].degree for p in simple)
        good = [p for p in simple if restricted[p][0].degree == top]
        transcript.append({"step": "good-set", "size": len(good), "mu_estimate": d - top})

    def crossings_clear(a: LatticePoint, b: LatticePoint) -> bool:
        # the line of a crosses the conjugate line of b off the curve, and
        # so, by conjugation, the line of b crosses that of a off it
        return not _is_root(
            _restriction(curve, a, k, restricted)[0],
            _crossing_parameter(IsotropicLine(a, k), IsotropicLine(b, k, True)),
        )

    chosen: list[LatticePoint] = []
    for p in good:
        if len(chosen) == 3:
            break
        if all(crossings_clear(c, p) for c in chosen):
            chosen.append(p)
            transcript.append({"step": "pick", "point": p.to_dict()})
        else:
            transcript.append({"step": "skip", "point": p.to_dict()})
    if len(chosen) < 3:
        raise HypothesisViolationError(
            "hypothesis violation: could not keep the six delta-sets disjoint",
            tuple(transcript),
        )

    triple = (chosen[0], chosen[1], chosen[2])
    required = max(3 * (d - 2), 6)
    count, _reports = _count_transverse_union(curve, triple, k, restricted)
    transcript.append({"step": "verify", "transverse_points": count, "required": required})
    if count < required:
        raise HypothesisViolationError(
            f"hypothesis violation: {count} transverse points, need {required}",
            tuple(transcript),
        )
    return TripleSelection(triple, k, count, required, tuple(transcript))


@dataclass(frozen=True)
class DoubleCoverCurve:
    """The curve w^2 = q1*q2*q3 over f = 0 in P(1,1,1,3).

    ``r`` and ``genus`` are exact integers when the ramification could be
    counted (all branch points affine, on a single line each, with the base
    curve smooth), and inclusive interval bounds otherwise.
    """

    base: PlaneCurve
    triple: tuple[LatticePoint, LatticePoint, LatticePoint]
    k: int
    branch_sextic: tuple[tuple[int, int, int, Fraction], ...]
    r: int | tuple[int, int]
    genus: int | tuple[int, int]
    exact: bool

    def to_dict(self) -> dict:
        def enc(v):
            return v if isinstance(v, int) else list(v)

        return {
            "degree": self.base.degree,
            "curve": self.base.to_dict(),
            "k": self.k,
            "triple": [p.to_dict() for p in self.triple],
            "cover_relation": "w^2 = q1*q2*q3 on f = 0",
            "branch_sextic": [
                {"i": i, "j": j, "k": l, "c": format_rational(c)}
                for i, j, l, c in self.branch_sextic
            ],
            "r": enc(self.r),
            "genus": enc(self.genus),
            "exact": self.exact,
        }


def build_double_cover(
    curve: PlaneCurve,
    triple: "TripleSelection | tuple[LatticePoint, LatticePoint, LatticePoint]",
    k: int | None = None,
    smooth_curve: bool | None = None,
) -> DoubleCoverCurve:
    """Assemble the double cover and compute its ramification when possible.

    Exact mode needs every intersection of the six lines with the curve to
    be affine (no degree drop), every pairwise line crossing off the curve,
    and the curve smooth (automatic for degree 1, caller-asserted above).
    Anything else falls back to the interval bounds r in [6, 6d] and genus
    in [2, d^2 + 1].  A conjugate line has its partner's root
    multiplicities and the conjugates of its shared crossings, so r is
    twice the odd-multiplicity root count of the lines of the base points.
    """
    if isinstance(triple, TripleSelection):
        if k is not None and k != triple.k:
            raise CurveliftError("conflicting field parameters for the cover")
        k = triple.k
        triple = triple.triple
    if k is None:
        raise CurveliftError("field parameter k is required with a bare triple")
    if k < 1:
        raise CurveliftError(f"field parameter k must be >= 1, got {k}")
    _require_distinct(triple)
    d = curve.degree
    threshold(d)  # rejects d < 1, and d = 2 with UseInversionFirstError

    sextic = _branch_sextic(triple, k)

    exact = smooth_curve is True or d == 1
    if exact:
        analysis = _analyze_triple(curve, triple, k, {})
        exact = all(m is not None and p.degree == d and not shared for p, m, shared in analysis)
    if exact:
        r_exact = 2 * sum(n for _, m, _ in analysis for mult, n in m if mult % 2 == 1)
        exact = 6 <= r_exact <= 6 * d

    if exact:
        g_c = (d - 1) * (d - 2) // 2
        r: int | tuple[int, int] = r_exact
        genus: int | tuple[int, int] = 2 * g_c - 1 + r_exact // 2
    else:
        r = (6, 6 * d)
        genus = (2, d * d + 1)
    return DoubleCoverCurve(curve, tuple(triple), k, sextic, r, genus, exact)
