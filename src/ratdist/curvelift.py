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
its restriction to a conjugate line is the coefficient-wise conjugate of
the restriction to the partner line, with the same root multiplicities:
of a triple's six lines only three are restricted and decomposed.

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
w^2 = q1*q2*q3 on f = 0 to have the expected ramification; the cover's
genus is reported exactly when the branch points can be certified affine,
simple, and unshared, and as the generic interval otherwise.
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
from .planeset import Configuration, LatticePoint


class CurveliftError(ValueError):
    """Base class for domain errors raised by this module."""


class UseInversionFirstError(CurveliftError):
    """Degree-2 curves are handled by inverting the configuration first."""


class LineIsComponentError(CurveliftError):
    """The isotropic line is contained in the curve."""


class IrrationalReflectionError(CurveliftError):
    """No affine reflection exists in the lattice for this line."""


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


def _poly_mul(p: dict, q: dict) -> dict:
    return _poly_norm(
        ((ip + iq, jp + jq, lp + lq), cp * cq)
        for (ip, jp, lp), cp in p.items()
        for (iq, jq, lq), cq in q.items()
    )


def _poly_diff(p: dict, axis: int) -> dict:
    out = []
    for exps, c in p.items():
        e = exps[axis]
        if e == 0:
            continue
        new = list(exps)
        new[axis] = e - 1
        out.append((tuple(new), c * e))
    return _poly_norm(out)


def _poly_eval(p: dict, x, y, z):
    acc = None
    for (i, j, l), c in p.items():
        term = c * x**i * y**j * z**l
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0)
    return acc


def quadric_polynomial(base: LatticePoint, k: int) -> dict:
    """The distance quadric (x - az)^2 + k*(y - bz)^2 through (a, b)."""
    a, b = base.x, base.yc
    return _poly_norm(
        [
            ((2, 0, 0), Fraction(1)),
            ((1, 0, 1), -2 * a),
            ((0, 2, 0), Fraction(k)),
            ((0, 1, 1), -2 * k * b),
            ((0, 0, 2), a * a + k * b * b),
        ]
    )


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

    def partials(self) -> tuple[dict, dict, dict]:
        c = self.coeffs
        return _poly_diff(c, 0), _poly_diff(c, 1), _poly_diff(c, 2)

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


def point_is_smooth(curve: PlaneCurve, p: LatticePoint) -> bool:
    """Exact smoothness test of the curve at an on-curve lattice point."""
    if not curve.contains(p):
        raise CurveliftError("smoothness test requires a point on the curve")
    return any(
        _poly_eval(part, p.x, p.yc, Fraction(1)) != 0 for part in curve.partials()
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

    def parameter_of(self, x0: ImQuadElement, y0: ImQuadElement) -> ImQuadElement | None:
        """Parameter t with (a - s*omega*t, b + t) = (x0, y0), if on the line."""
        t = y0 - ImQuadElement.from_rational(self.base.yc, self.k)
        expected_x = ImQuadElement.from_rational(self.base.x, self.k) - self.direction() * t
        return t if expected_x == x0 else None

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
    a, b = line.base.x, line.base.yc
    den = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
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
    roots minus any that hit a caller-supplied excluded point (a point
    shared with another selected line does not count as transverse).
    ``degree_drop`` is the intersection multiplicity absorbed at the
    circular point Q, an upper bound for the curve's multiplicity mu at Q;
    mu_lower_bound is 1 exactly when Q lies on the curve.
    """

    simple_roots: int
    multiplicities: tuple[tuple[int, int], ...]
    degree_drop: int
    mu_lower_bound: int


def transversality_report(
    curve: PlaneCurve,
    line: IsotropicLine,
    exclusions: tuple = (),
) -> TransversalityReport:
    p = substitute_line(curve, line)
    if p.is_zero():
        raise LineIsComponentError("line is a component of the curve")
    excluded = {t for x0, y0 in exclusions if (t := line.parameter_of(x0, y0)) is not None}
    return _report(curve.degree, p, _root_multiplicities(p), excluded)


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
        simple -= sum(
            1 for t in excluded if p.evaluate(t).is_zero() and not dp.evaluate(t).is_zero()
        )
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


def reflection_across_line(
    p: LatticePoint, line: PlaneCurve, k: int = 1
) -> LatticePoint:
    """Euclidean reflection of a lattice point across a rational line.

    Lattice coordinates carry the weighted metric dx^2 + k*dy^2, under
    which the reflection of a rational point across a rational affine line
    is again rational.  Only the line at infinity (no affine locus) has no
    reflection.
    """
    if line.degree != 1:
        raise CurveliftError("reflection needs a degree-1 curve")
    c = line.coeffs
    alpha = c.get((1, 0, 0), Fraction(0))
    beta = c.get((0, 1, 0), Fraction(0))
    gamma = c.get((0, 0, 1), Fraction(0))
    if alpha == 0 and beta == 0:
        raise IrrationalReflectionError(
            "line at infinity has no affine reflection in the lattice"
        )
    u = alpha * p.x + beta * p.yc + gamma
    n = k * alpha * alpha + beta * beta
    return LatticePoint(p.x - 2 * u * k * alpha / n, p.yc - 2 * u * beta / n)


@dataclass(frozen=True)
class TripleSelection:
    """Outcome of the greedy triple search, with its audit trail."""

    triple: tuple[LatticePoint, LatticePoint, LatticePoint]
    k: int
    transverse_points: int
    required_points: int
    transcript: tuple[dict, ...]

    def lines(self) -> tuple[IsotropicLine, ...]:
        return six_lines(self.triple, self.k)


def six_lines(
    triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int
) -> tuple[IsotropicLine, ...]:
    out = []
    for p in triple:
        out.append(IsotropicLine(p, k, conjugate=False))
        out.append(IsotropicLine(p, k, conjugate=True))
    return tuple(out)


def _require_distinct(triple: tuple[LatticePoint, LatticePoint, LatticePoint]) -> None:
    # a repeated base point would count the lines through it twice
    if len(set(triple)) != 3:
        raise CurveliftError("cover needs three distinct base points")


def _restrict_six(
    curve: PlaneCurve, triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int
) -> tuple[tuple[IsotropicLine, ...], list[ImQuadPoly], list, list[set[ImQuadElement]]]:
    """The six lines of the triple with, per line, the curve's restriction,
    its root multiplicities (None when the line lies in the curve) and the
    parameters of the points on the curve that the line shares with another
    of the six.

    The curve is rational, so its restriction to a conjugate line is the
    coefficient-wise conjugate of the restriction to the partner line, with
    the same root multiplicities: only three lines are restricted.
    """
    lines = six_lines(triple, k)
    polys: list[ImQuadPoly] = []
    mults: list = []
    for line in lines[::2]:
        p = substitute_line(curve, line)
        m = None if p.is_zero() else _root_multiplicities(p)
        polys += [p, p.conjugate_coeffs()]
        mults += [m, m]
    return lines, polys, mults, _shared_curve_points(lines, polys)


def _shared_curve_points(
    lines: tuple[IsotropicLine, ...], polys: list[ImQuadPoly]
) -> list[set[ImQuadElement]]:
    """Per line, the set of parameters at which a line of the other family
    crosses it on the curve.

    The crossing parameter has a closed form (``_crossing_parameter``), and
    the crossing lies on the curve exactly when the restriction ``polys[i]``
    vanishes there, so no point of the plane is built.  Same-family pairs
    only meet at infinity and are skipped.
    """
    shared: list[set[ImQuadElement]] = [set() for _ in lines]
    for i, j in itertools.combinations(range(len(lines)), 2):
        if lines[i].conjugate == lines[j].conjugate:
            continue
        t = _crossing_parameter(lines[i], lines[j])
        if _is_root(polys[i], t):
            shared[i].add(t)
            shared[j].add(_crossing_parameter(lines[j], lines[i]))
    return shared


def count_transverse_union(
    curve: PlaneCurve, triple: tuple[LatticePoint, LatticePoint, LatticePoint], k: int
) -> tuple[int, tuple[TransversalityReport, ...]]:
    """Transverse count of the curve against the six-line union.

    Points on two of the six lines are excluded (the union is singular
    there, so the intersection with the curve cannot be transverse).
    """
    _require_distinct(triple)
    lines, polys, mults, shared = _restrict_six(curve, triple, k)
    if None in mults:
        raise LineIsComponentError("line is a component of the curve")
    reports = tuple(
        _report(curve.degree, p, m, excluded) for p, m, excluded in zip(polys, mults, shared)
    )
    return sum(r.simple_roots for r in reports), reports


def choose_transverse_triple(
    curve: PlaneCurve, candidates: Configuration
) -> TripleSelection:
    """Greedy selection of three base points with certified transversality.

    Degree 1 picks points off the curve and skips the reflections of
    earlier picks (the line at infinity has none).  Degree >= 3 keeps the
    on-curve points whose line's restriction has only simple roots and the
    least degree drop, then skips a point when a crossing of its lines with
    an earlier pick's lies on the curve, read off those restrictions.  The
    returned count is re-verified on all six lines with mutual exclusions,
    so a returned selection is sound independently of the greedy heuristics.
    """
    d = curve.degree
    k = candidates.k
    need = threshold(d)
    transcript: list[dict] = []

    if d == 1:
        pool = [p for p in candidates.points if not curve.contains(p)]
        if len(pool) < need:
            raise ThresholdError(
                f"need at least {need} points off the curve, have {len(pool)}"
            )
        chosen: list[LatticePoint] = []
        excluded: set[LatticePoint] = set()
        use_reflections = True
        try:
            reflection_across_line(pool[0], curve, k)
        except IrrationalReflectionError:
            use_reflections = False
            transcript.append(
                {"step": "reflection-fallback", "reason": "no affine reflection"}
            )
        for p in pool:
            if len(chosen) == 3:
                break
            if p in excluded:
                transcript.append({"step": "skip", "point": p.to_dict()})
                continue
            chosen.append(p)
            if use_reflections:
                excluded.add(reflection_across_line(p, curve, k))
            transcript.append({"step": "pick", "point": p.to_dict()})
        if len(chosen) < 3:
            raise HypothesisViolationError(
                "hypothesis violation: fewer than three admissible off-curve points",
                tuple(transcript),
            )
    else:
        pool = [p for p in candidates.points if curve.contains(p)]
        if len(pool) < need:
            raise ThresholdError(
                f"need at least {need} points on the curve, have {len(pool)}"
            )
        restricted: dict[LatticePoint, ImQuadPoly] = {}
        for p in pool:
            restriction = substitute_line(curve, IsotropicLine(p, k))
            if restriction.is_zero():
                transcript.append({"step": "reject", "point": p.to_dict(), "reason": "line in curve"})
                continue
            if any(mult > 1 for mult, _ in _root_multiplicities(restriction)):
                transcript.append(
                    {"step": "reject", "point": p.to_dict(), "reason": "multiple root"}
                )
                continue
            restricted[p] = restriction
        if not restricted:
            raise HypothesisViolationError(
                "hypothesis violation: no candidate line meets the curve simply",
                tuple(transcript),
            )
        top = max(r.degree for r in restricted.values())
        good = [p for p, r in restricted.items() if r.degree == top]
        transcript.append({"step": "good-set", "size": len(good), "mu_estimate": d - top})

        def crossings_clear(a: LatticePoint, b: LatticePoint) -> bool:
            # neither mixed-family crossing of the lines of a and b is on the curve
            return not any(
                _is_root(
                    restricted[u],
                    _crossing_parameter(IsotropicLine(u, k), IsotropicLine(v, k, True)),
                )
                for u, v in ((a, b), (b, a))
            )

        chosen = []
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
    count, _reports = count_transverse_union(curve, triple, k)
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
    in [2, d^2 + 1].
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

    sextic = quadric_polynomial(triple[0], k)
    for p in triple[1:]:
        sextic = _poly_mul(sextic, quadric_polynomial(p, k))
    sextic_mono = tuple(sorted((i, j, l, c) for (i, j, l), c in sextic.items()))

    exact = smooth_curve is True or d == 1
    if exact:
        _lines, polys, mults, shared = _restrict_six(curve, triple, k)
        exact = None not in mults and all(p.degree == d for p in polys) and not any(shared)
    if exact:
        r_exact = sum(n for m in mults for mult, n in m if mult % 2 == 1)
        if r_exact % 2 == 1 or not 6 <= r_exact <= 6 * d:
            exact = False

    if exact:
        g_c = (d - 1) * (d - 2) // 2
        r: int | tuple[int, int] = r_exact
        genus: int | tuple[int, int] = 2 * g_c - 1 + r_exact // 2
    else:
        r = (6, 6 * d)
        genus = (2, d * d + 1)
    return DoubleCoverCurve(curve, tuple(triple), k, sextic_mono, r, genus, exact)
