"""Tests for isotropic-line transversality and the double cover."""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist import curvelift, exactnum
from ratdist.exactnum import (
    ImQuadElement,
    ImQuadPoly,
    _is_prime,
    _is_root,
    _modular_root_multiplicities,
    _rational_reconstruct,
    _sqrt_mod,
    omega,
    squarefree_decomposition,
)
from ratdist.curvelift import (
    CurveliftError,
    HypothesisViolationError,
    IsotropicLine,
    LineIsComponentError,
    PlaneCurve,
    ThresholdError,
    UseInversionFirstError,
    build_double_cover,
    choose_transverse_triple,
    count_transverse_union,
    line_curve,
    _analyze_triple,
    _crossing_parameter,
    _poly_eval,
    _poly_norm,
    _report,
    _root_multiplicities,
    substitute_line,
    threshold,
    transversality_report,
)
from ratdist.planeset import Configuration, LatticePoint

F = Fraction


def pt(x, yc=0) -> LatticePoint:
    return LatticePoint(F(x), F(yc))


def _poly_mul(p: dict, q: dict) -> dict:
    """Fraction product of two exponent-triple dicts, one term per pair of monomials."""
    return _poly_norm(
        ((ip + iq, jp + jq, lp + lq), cp * cq)
        for (ip, jp, lp), cp in p.items()
        for (iq, jq, lq), cq in q.items()
    )


def quadric_polynomial(base: LatticePoint, k: int) -> dict:
    """The distance quadric (x - az)^2 + k*(y - bz)^2 through (a, b), in Fractions."""
    a, b = base.x, base.yc
    return _poly_norm(
        [
            ((2, 0, 0), F(1)),
            ((1, 0, 1), -2 * a),
            ((0, 2, 0), F(k)),
            ((0, 1, 1), -2 * k * b),
            ((0, 0, 2), a * a + k * b * b),
        ]
    )


def six_lines(triple, k: int) -> tuple[IsotropicLine, ...]:
    """Each base point's isotropic line, then its conjugate line."""
    return tuple(IsotropicLine(p, k, conjugate) for p in triple for conjugate in (False, True))


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


def point_is_smooth(curve: PlaneCurve, p: LatticePoint) -> bool:
    """Exact smoothness test of the curve at an on-curve lattice point."""
    if not curve.contains(p):
        raise CurveliftError("smoothness test requires a point on the curve")
    return any(
        _poly_eval(_poly_diff(curve.coeffs, axis), p.x, p.yc, F(1)) != 0 for axis in range(3)
    )


X_AXIS = line_curve(0, 1, 0)  # the line y = 0
UNIT_CIRCLE = PlaneCurve.from_coeffs({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(-1)})
NODAL_CUBIC = PlaneCurve.from_coeffs(
    {(0, 2, 1): F(1), (3, 0, 0): F(-1), (2, 0, 1): F(-1)}  # y^2 z = x^3 + x^2 z
)


def nodal_cubic_point(t: Fraction) -> LatticePoint:
    # rational parametrization (t^2 - 1, t(t^2 - 1)) of y^2 = x^2 (x + 1)
    return LatticePoint(t * t - 1, t * (t * t - 1))


# ---------------------------------------------------------------------------
# threshold


def test_threshold_values():
    assert threshold(1) == 5
    assert threshold(3) == F(29, 2)
    assert threshold(4) == 23


def test_threshold_degree_two_rejected():
    with pytest.raises(UseInversionFirstError):
        threshold(2)


def test_threshold_invalid_degree():
    with pytest.raises(CurveliftError):
        threshold(0)


def test_threshold_strictly_increasing():
    values = [threshold(d) for d in range(3, 12)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_horizontal_line():
    p = substitute_line(X_AXIS, IsotropicLine(pt(0, 1), 1))
    assert [c.re for c in p.coeffs] == [F(1), F(1)]
    assert all(c.im == 0 for c in p.coeffs)


def test_substitute_line_at_infinity():
    p = substitute_line(line_curve(0, 0, 1), IsotropicLine(pt(3, 7), 1))
    assert p.degree == 0 and p.coeffs[0] == ImQuadElement.from_rational(1, 1)


def test_substitute_circle_through_isotropic_center():
    p = substitute_line(UNIT_CIRCLE, IsotropicLine(pt(0, 0), 1))
    assert p.degree == 0
    assert p.coeffs[0] == ImQuadElement.from_rational(-1, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
)
def test_substitute_conjugate_is_coefficientwise_conjugate(a, b, k, conj):
    curve = NODAL_CUBIC
    line = IsotropicLine(pt(a, b), k, conjugate=conj)
    conjugate = tuple(c.conjugate() for c in substitute_line(curve, line).coeffs)
    assert substitute_line(curve, line.conjugated()).coeffs == conjugate


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, 3]))
def test_multiplicity_degree_budget(a, b, k):
    # sum of multiplicity * root count plus the degree drop equals d
    for curve in (X_AXIS, UNIT_CIRCLE, NODAL_CUBIC):
        line = IsotropicLine(pt(a, b), k)
        try:
            report = transversality_report(curve, line)
        except LineIsComponentError:
            continue
        total = sum(m * c for m, c in report.multiplicities)
        assert total + report.degree_drop == curve.degree


# ---------------------------------------------------------------------------
# transversality reports


def test_report_simple_root():
    report = transversality_report(X_AXIS, IsotropicLine(pt(0, 1), 1))
    assert report.simple_roots == 1
    assert report.degree_drop == 0
    assert report.mu_lower_bound == 0


def test_report_degree_drop_circle():
    report = transversality_report(UNIT_CIRCLE, IsotropicLine(pt(0, 0), 1))
    assert report.simple_roots == 0
    assert report.degree_drop == 2
    assert report.mu_lower_bound == 1


def test_report_line_component():
    curve = PlaneCurve.from_coeffs({(2, 0, 1): F(1), (0, 2, 1): F(1)})  # (x^2+y^2) z
    with pytest.raises(LineIsComponentError):
        transversality_report(curve, IsotropicLine(pt(0, 0), 1))


def test_reflected_conjugate_line_shares_the_intersection():
    # l_{(0,1)} and the conjugate line of the reflection (0,-1) meet y = 0
    # at the same point (omega, 0); the union has 2 points instead of 4.
    l_a = IsotropicLine(pt(0, 1), 1)
    lbar_b = IsotropicLine(pt(0, -1), 1, conjugate=True)
    x0, y0 = line_intersection(l_a, lbar_b)
    assert (x0, y0) == (omega(1), ImQuadElement.from_rational(0, 1))
    assert X_AXIS.evaluate(x0, y0, ImQuadElement.from_rational(1, 1)).is_zero()

    # the shared point kills the transverse count on both lines
    assert _crossing_parameter(l_a, lbar_b) == oracle_parameter_of(l_a, x0, y0)
    _count, reports = count_transverse_union(X_AXIS, (pt(0, 1), pt(0, -1), pt(0, 2)), 1)
    assert [r.simple_roots for r in reports] == [0, 0, 0, 0, 1, 1]

    # all four lines of the bad pair collapse onto two distinct points
    points = set()
    for line in (l_a, l_a.conjugated(), IsotropicLine(pt(0, -1), 1), lbar_b):
        p = substitute_line(X_AXIS, line)
        assert p.degree == 1
        t_root = -(p.coeffs[0] / p.coeffs[1])
        base_x = ImQuadElement.from_rational(line.base.x, 1)
        base_y = ImQuadElement.from_rational(line.base.yc, 1)
        points.add((base_x - line.direction() * t_root, base_y + t_root))
    assert len(points) == 2


# ---------------------------------------------------------------------------
# reflection: the oracle of the degree-1 selection


def reflection_across_line(p: LatticePoint, line: PlaneCurve, k: int = 1) -> LatticePoint:
    """Euclidean reflection of a lattice point across a rational line.

    Lattice coordinates carry the weighted metric dx^2 + k*dy^2, under
    which the reflection of a rational point across a rational affine line
    is again rational.  Only the line at infinity (no affine locus) has no
    reflection.
    """
    if line.degree != 1:
        raise CurveliftError("reflection needs a degree-1 curve")
    c = line.coeffs
    alpha = c.get((1, 0, 0), F(0))
    beta = c.get((0, 1, 0), F(0))
    gamma = c.get((0, 0, 1), F(0))
    if alpha == 0 and beta == 0:
        raise CurveliftError("line at infinity has no affine reflection in the lattice")
    u = alpha * p.x + beta * p.yc + gamma
    n = k * alpha * alpha + beta * beta
    return LatticePoint(p.x - 2 * u * k * alpha / n, p.yc - 2 * u * beta / n)


def test_reflection_examples():
    assert reflection_across_line(pt(0, 1), X_AXIS, 1) == pt(0, -1)
    assert reflection_across_line(pt(3, 0), X_AXIS, 1) == pt(3, 0)
    assert reflection_across_line(pt(2, 3), line_curve(1, 0, 0), 1) == pt(-2, 3)


def test_reflection_weighted_metric():
    # across y = 0 the weighted metric still negates yc, for any k
    assert reflection_across_line(pt(5, 7), X_AXIS, 3) == pt(5, -7)
    # slanted line x + y = 0 with k = 2: reflection stays rational.
    # check: midpoint (1/3, -1/3) is on the line and the difference
    # (4/3, 2/3) is orthogonal to the tangent (1, -1) in dx^2 + 2 dy^2
    r = reflection_across_line(pt(1, 0), line_curve(1, 1, 0), 2)
    assert r == LatticePoint(F(-1, 3), F(-2, 3))
    # involution
    assert reflection_across_line(r, line_curve(1, 1, 0), 2) == pt(1, 0)


def test_reflection_line_at_infinity_rejected():
    with pytest.raises(CurveliftError, match="line at infinity"):
        reflection_across_line(pt(1, 1), line_curve(0, 0, 1), 1)


def test_reflection_needs_degree_one():
    with pytest.raises(CurveliftError):
        reflection_across_line(pt(1, 1), UNIT_CIRCLE, 1)


# ---------------------------------------------------------------------------
# triple selection, d = 1


def candidates(*pts_spec) -> Configuration:
    return Configuration(1, tuple(pt(*p) for p in pts_spec))


def test_choose_triple_skips_reflection_pairs():
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    sel = choose_transverse_triple(X_AXIS, cands)
    assert sel.transverse_points == 6
    assert sel.required_points == 6
    chosen = set(sel.triple)
    assert not ({pt(0, 1), pt(0, -1)} <= chosen)
    assert len(chosen) == 3


def test_choose_triple_threshold():
    with pytest.raises(ThresholdError):
        choose_transverse_triple(X_AXIS, candidates((0, 1), (0, -1), (0, 2), (1, 1)))


def test_choose_triple_counts_on_curve_points_out():
    # points on the curve are not candidates for d = 1
    cands = candidates((1, 0), (2, 0), (0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    sel = choose_transverse_triple(X_AXIS, cands)
    assert sel.transverse_points == 6


def test_choose_triple_line_at_infinity_fails_hypothesis():
    # z = 0 has no affine points: every isotropic line misses it in the
    # affine plane, so the selection can never certify 6 transverse points.
    # Every restriction is a nonzero constant, so no crossing is on the
    # curve and the first three candidates are picked.
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    with pytest.raises(HypothesisViolationError) as err:
        choose_transverse_triple(line_curve(0, 0, 1), cands)
    assert [s["step"] for s in err.value.transcript] == ["pick", "pick", "pick", "verify"]
    assert [s["point"] for s in err.value.transcript[:3]] == [p.to_dict() for p in cands.points[:3]]
    assert err.value.transcript[3] == {"step": "verify", "transverse_points": 0, "required": 6}


def oracle_choose_degree_one(curve: PlaneCurve, cands: Configuration):
    """The degree-1 selection as a reflection rule: pick the off-line
    candidates in order, skip the reflection of an earlier pick in the line,
    then count on the six lines.  Not defined on the line at infinity."""
    k = cands.k
    pool = [p for p in cands.points if not curve.contains(p)]
    if len(pool) < threshold(1):
        raise ThresholdError(f"need at least {threshold(1)} points off the curve, have {len(pool)}")
    transcript: list[dict] = []
    chosen: list[LatticePoint] = []
    excluded: set[LatticePoint] = set()
    for p in pool:
        if len(chosen) == 3:
            break
        if p in excluded:
            transcript.append({"step": "skip", "point": p.to_dict()})
            continue
        chosen.append(p)
        excluded.add(reflection_across_line(p, curve, k))
        transcript.append({"step": "pick", "point": p.to_dict()})
    count, _ = count_transverse_union(curve, tuple(chosen), k)
    transcript.append({"step": "verify", "transverse_points": count, "required": 6})
    if count < 6:
        raise HypothesisViolationError(
            f"hypothesis violation: {count} transverse points, need 6", tuple(transcript)
        )
    return tuple(chosen), count, tuple(transcript)


def _degree_one_outcome(choose, curve, cands):
    try:
        sel = choose(curve, cands)
    except CurveliftError as err:
        return type(err), str(err), getattr(err, "transcript", ())
    if isinstance(sel, tuple):
        return sel
    assert sel.required_points == 6
    return sel.triple, sel.transverse_points, sel.transcript


@st.composite
def degree_one_cases(draw):
    """A rational line, horizontal, vertical or slanted, and k; then 5..9
    moves that each add a free point, a point on the line, or the reflection
    of an earlier point, inserted anywhere, so pairs come in either order."""
    k = draw(st.sampled_from([1, 2, 3, 7]))
    nonzero = st.integers(-4, 4).filter(bool)
    kind = draw(st.sampled_from(["horizontal", "vertical", "slanted"]))
    alpha = F(0) if kind == "horizontal" else F(draw(nonzero))
    beta = F(0) if kind == "vertical" else F(draw(nonzero), draw(st.sampled_from([1, 2, 3])))
    line = line_curve(alpha, beta, draw(RATIONALS))
    points: list[LatticePoint] = []
    for _ in range(draw(st.integers(5, 9))):
        move = draw(st.sampled_from(["free", "free", "on", "mirror", "mirror"]))
        if move == "on":
            t = draw(RATIONALS)
            gamma = line.coeffs.get((0, 0, 1), F(0))
            p = LatticePoint(t, -(alpha * t + gamma) / beta) if beta else LatticePoint(-gamma / alpha, t)
        elif move == "mirror" and points:
            p = reflection_across_line(draw(st.sampled_from(points)), line, k)
        else:
            p = draw(POINTS)
        if p not in points:
            points.insert(draw(st.integers(0, len(points))), p)
    return line, Configuration(k, tuple(points))


@settings(max_examples=300, deadline=None)
@given(degree_one_cases())
def test_degree_one_selection_matches_the_reflection_oracle(case):
    # on a line, the crossing test skips exactly the reflections of earlier picks
    line, cands = case
    want = _degree_one_outcome(oracle_choose_degree_one, line, cands)
    assert _degree_one_outcome(choose_transverse_triple, line, cands) == want


def test_degree_one_selection_restricts_three_lines(monkeypatch):
    # the crossing test reads the restrictions of earlier picks only, and the
    # final count reuses them: three restrictions for nine candidates
    cands = candidates((0, 1), (0, -1), (0, 2), (0, -2), (1, 1), (2, 5), (3, 1), (1, -1), (4, 4))
    expected = choose_transverse_triple(X_AXIS, cands)
    assert [s["step"] for s in expected.transcript] == ["pick", "skip", "pick", "skip", "pick", "verify"]
    calls = []

    def counted(*args, _f=curvelift.substitute_line):
        calls.append(args[1].base)
        return _f(*args)

    monkeypatch.setattr(curvelift, "substitute_line", counted)
    assert choose_transverse_triple(X_AXIS, cands) == expected
    assert sorted(calls) == sorted(expected.triple)


def test_six_lines_structure():
    lines = six_lines((pt(0, 1), pt(0, 2), pt(1, 1)), 1)
    assert len(lines) == 6
    assert [l.conjugate for l in lines] == [False, True] * 3


# ---------------------------------------------------------------------------
# triple selection, d = 3


def nodal_cubic_candidates(n: int = 15) -> Configuration:
    ts = [F(v) for v in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8, F(3, 2))]
    pts = tuple(nodal_cubic_point(t) for t in ts[:n])
    return Configuration(1, pts)


def test_nodal_cubic_points_are_on_curve():
    for p in nodal_cubic_candidates().points:
        assert NODAL_CUBIC.contains(p)
        assert point_is_smooth(NODAL_CUBIC, p)


def test_choose_triple_cubic():
    sel = choose_transverse_triple(NODAL_CUBIC, nodal_cubic_candidates())
    assert sel.required_points == max(3 * (3 - 2), 6) == 6
    assert sel.transverse_points >= 6
    # with Q not on the cubic each line meets it at 3 affine points, one of
    # which (the base point itself) sits on two lines: 6 * 2 transverse
    assert sel.transverse_points == 12


def test_choose_triple_cubic_threshold():
    small = Configuration(1, nodal_cubic_candidates().points[:14])
    with pytest.raises(ThresholdError):
        choose_transverse_triple(NODAL_CUBIC, small)


def test_point_smoothness_at_node():
    assert NODAL_CUBIC.contains(pt(0, 0))
    assert not point_is_smooth(NODAL_CUBIC, pt(0, 0))


# ---------------------------------------------------------------------------
# double cover


def test_double_cover_line_is_exact():
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    sel = choose_transverse_triple(X_AXIS, cands)
    cover = build_double_cover(X_AXIS, sel)
    assert cover.exact
    assert cover.r == 6
    assert cover.genus == 2


def test_double_cover_cubic_falls_back_to_bounds():
    sel = choose_transverse_triple(NODAL_CUBIC, nodal_cubic_candidates())
    cover = build_double_cover(NODAL_CUBIC, sel)
    assert not cover.exact
    assert cover.r == (6, 18)
    assert cover.genus == (2, 10)


def test_double_cover_smooth_cubic_off_curve_triple():
    # Fermat cubic with a generic off-curve triple: smoothness asserted, all
    # eighteen branch points affine, simple, and unshared.
    fermat = PlaneCurve.from_coeffs({(3, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 3): F(-1)})
    triple = (pt(0, 0), pt(2, 0), pt(0, 3))
    cover = build_double_cover(fermat, triple, k=1, smooth_curve=True)
    assert cover.exact
    assert cover.r == 18
    assert cover.genus == 2 * 1 - 1 + 9 == 10


def test_double_cover_bad_pair_not_exact():
    cover = build_double_cover(X_AXIS, (pt(0, 1), pt(0, -1), pt(0, 2)), k=1)
    assert not cover.exact
    assert cover.r == (6, 6) and cover.genus == (2, 2)


def test_double_cover_branch_sextic_expansion():
    triple = (pt(0, 0), pt(1, 0), pt(0, 1))
    cover = build_double_cover(X_AXIS, triple, k=1)
    sextic = {(i, j, l): c for i, j, l, c in cover.branch_sextic}
    assert max(i + j + l for i, j, l in sextic) == 6
    # evaluate the product at a rational point and compare against factors
    x0, y0, z0 = F(2), F(3), F(1)
    prod = F(1)
    for base in triple:
        q = quadric_polynomial(base, 1)
        prod *= sum(c * x0**i * y0**j * z0**l for (i, j, l), c in q.items())
    assert sum(c * x0**i * y0**j * z0**l for (i, j, l), c in sextic.items()) == prod


@pytest.mark.parametrize("seed", range(40))
def test_branch_sextic_matches_the_fraction_product(seed):
    # base points with unlike denominators: each quadric is scaled by its own D^2
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3, 7])
    triple: tuple = ()
    while len(set(triple)) < 3:
        triple = tuple(
            LatticePoint(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])), F(rng.randint(-9, 9), rng.choice([1, 5, 7])))
            for _ in range(3)
        )
    expected = _poly_mul(_poly_mul(quadric_polynomial(triple[0], k), quadric_polynomial(triple[1], k)),
                         quadric_polynomial(triple[2], k))
    cover = build_double_cover(X_AXIS, triple, k=k)
    assert cover.branch_sextic == tuple(sorted((i, j, l, c) for (i, j, l), c in expected.items()))


def test_double_cover_argument_validation():
    with pytest.raises(UseInversionFirstError):
        build_double_cover(UNIT_CIRCLE, (pt(1, 1), pt(2, 2), pt(3, 1)), k=1)
    with pytest.raises(CurveliftError):
        build_double_cover(X_AXIS, (pt(0, 1), pt(0, 1), pt(0, 2)), k=1)
    with pytest.raises(CurveliftError):
        build_double_cover(X_AXIS, (pt(0, 1), pt(0, 2), pt(0, 3)))  # k missing


def test_double_cover_rejects_degree_zero():
    # a constant "curve" used to get r = (6, 0) and genus = (2, 1)
    constant = PlaneCurve.from_coeffs({(0, 0, 0): F(3)})
    assert constant.degree == 0
    triple = (pt(0, 1), pt(1, 1), pt(2, 5))
    for smooth in (None, True):
        with pytest.raises(CurveliftError, match="degree must be positive, got 0"):
            build_double_cover(constant, triple, k=1, smooth_curve=smooth)


def test_count_transverse_union_rejects_repeated_base_points():
    # the repeated point's lines used to be counted twice: 6 transverse
    # points, as many as a valid triple
    for triple in ((pt(0, 1), pt(0, 1), pt(1, 1)), (pt(0, 1), pt(1, 1), pt(0, 1))):
        with pytest.raises(CurveliftError, match="cover needs three distinct base points"):
            count_transverse_union(X_AXIS, triple, 1)
        with pytest.raises(CurveliftError, match="cover needs three distinct base points"):
            build_double_cover(X_AXIS, triple, k=1)
    assert count_transverse_union(X_AXIS, (pt(0, 1), pt(0, 2), pt(1, 1)), 1)[0] == 6


@pytest.mark.parametrize("k", [0, -1])
def test_double_cover_rejects_nonpositive_k(k):
    # exact mode used to swallow the field error and return interval bounds
    triple = (pt(0, 1), pt(1, 1), pt(2, 5))
    with pytest.raises(CurveliftError, match="k must be >= 1"):
        build_double_cover(X_AXIS, triple, k=k, smooth_curve=True)
    with pytest.raises(CurveliftError, match="k must be >= 1"):
        build_double_cover(NODAL_CUBIC, triple, k=k)


# ---------------------------------------------------------------------------
# serialization


def test_curve_json_roundtrip():
    assert PlaneCurve.from_dict(NODAL_CUBIC.to_dict()) == NODAL_CUBIC


def test_curve_json_degree_mismatch():
    d = NODAL_CUBIC.to_dict()
    d["degree"] = 5
    with pytest.raises(CurveliftError):
        PlaneCurve.from_dict(d)


def test_curve_rejects_negative_and_repeated_exponents():
    with pytest.raises(CurveliftError, match=">= 0"):
        PlaneCurve.from_coeffs({(4, -1, 0): F(1)})
    # x - x is not the curve -x: a repeated triple is an error, not a last write
    x, minus_x = {"i": 1, "j": 0, "k": 0, "c": "1"}, {"i": 1, "j": 0, "k": 0, "c": "-1"}
    with pytest.raises(CurveliftError, match="repeated"):
        PlaneCurve.from_dict({"monomials": [x, minus_x]})


def test_cover_json_shape():
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    sel = choose_transverse_triple(X_AXIS, cands)
    payload = build_double_cover(X_AXIS, sel).to_dict()
    assert payload["r"] == 6 and payload["genus"] == 2
    assert payload["cover_relation"].startswith("w^2 = ")


# ---------------------------------------------------------------------------
# integer restriction and crossings against the Fraction oracles


def oracle_substitute_line(curve: PlaneCurve, line: IsotropicLine) -> ImQuadPoly:
    """Fraction arithmetic: powers of the parametrization, one product per monomial."""
    k = line.k
    a = ImQuadElement.from_rational(line.base.x, k)
    b = ImQuadElement.from_rational(line.base.yc, k)
    x_lin = ImQuadPoly.from_coeffs([a, -line.direction()], k)
    y_lin = ImQuadPoly.from_coeffs([b, ImQuadElement.from_rational(1, k)], k)
    one = ImQuadPoly.constant(1, k)
    x_pow = [one]
    y_pow = [one]
    for _ in range(curve.degree):
        x_pow.append(x_pow[-1] * x_lin)
        y_pow.append(y_pow[-1] * y_lin)
    acc = ImQuadPoly.zero(k)
    for i, j, _l, c in curve.monomials:
        acc = acc + (x_pow[i] * y_pow[j]).scale(c)
    return acc


def line_intersection(
    l1: IsotropicLine, l2: IsotropicLine
) -> tuple[ImQuadElement, ImQuadElement]:
    """Affine meeting point of a line and a conjugate-family line.

    Two lines of the same family only meet at the circular point at
    infinity, which has no affine representative.
    """
    if l1.k != l2.k:
        raise CurveliftError("lines live over different field parameters")
    if l1.conjugate == l2.conjugate:
        raise CurveliftError("same-family isotropic lines meet only at infinity")
    if l1.conjugate:
        l1, l2 = l2, l1
    k = l1.k
    w = omega(k)
    a, b = l1.base.x, l1.base.yc
    ap, bp = l2.base.x, l2.base.yc
    half = Fraction(1, 2)
    x = ImQuadElement(half * (a + ap), half * (b - bp), k)
    y = ImQuadElement(half * (b + bp), Fraction(0), k) - w * ImQuadElement.from_rational(
        Fraction(a - ap, 2 * k), k
    )
    return x, y


def oracle_parameter_of(line: IsotropicLine, x0: ImQuadElement, y0: ImQuadElement) -> ImQuadElement | None:
    """Parameter t with (a - s*omega*t, b + t) = (x0, y0), if on the line."""
    t = y0 - ImQuadElement.from_rational(line.base.yc, line.k)
    expected_x = ImQuadElement.from_rational(line.base.x, line.k) - line.direction() * t
    return t if expected_x == x0 else None


def oracle_report(curve: PlaneCurve, line: IsotropicLine, exclusions: tuple):
    """The line's own transversality report, less the simple roots at the
    excluded points (x0, y0)."""
    p = substitute_line(curve, line)
    if p.is_zero():
        raise LineIsComponentError("line is a component of the curve")
    excluded = {t for x0, y0 in exclusions if (t := oracle_parameter_of(line, x0, y0)) is not None}
    return _report(curve.degree, p, _root_multiplicities(p), excluded)


def oracle_shared_curve_points(curve: PlaneCurve, lines) -> list[list]:
    """Mixed-family crossings of the lines, each tested by evaluating the curve."""
    one = ImQuadElement.from_rational(1, lines[0].k)
    shared: list[list] = [[] for _ in lines]
    for i, j in itertools.combinations(range(len(lines)), 2):
        if lines[i].conjugate == lines[j].conjugate:
            continue
        x0, y0 = line_intersection(lines[i], lines[j])
        if curve.evaluate(x0, y0, one).is_zero():
            shared[i].append((x0, y0))
            shared[j].append((x0, y0))
    return shared


def oracle_shared_parameters(curve: PlaneCurve, lines) -> list[set]:
    """Per line, the parameters of its oracle-found shared points."""
    return [
        {oracle_parameter_of(line, *point) for point in points}
        for line, points in zip(lines, oracle_shared_curve_points(curve, lines))
    ]


def oracle_transverse_union(curve: PlaneCurve, triple, k: int):
    """Every one of the six lines restricted on its own, crossings by evaluation."""
    lines = six_lines(triple, k)
    shared = oracle_shared_curve_points(curve, lines)
    reports = tuple(
        oracle_report(curve, line, tuple(shared[i]))
        for i, line in enumerate(lines)
    )
    return sum(r.simple_roots for r in reports), reports


def oracle_cover_r(curve: PlaneCurve, triple, k: int) -> int | None:
    """Exact ramification count of the cover of a smooth curve, None when not certifiable."""
    d = curve.degree
    lines = six_lines(triple, k)
    polys = [oracle_substitute_line(curve, line) for line in lines]
    if any(p.is_zero() or p.degree != d for p in polys):
        return None
    if any(oracle_shared_curve_points(curve, lines)):
        return None
    r = sum(f.degree for p in polys for f, m in squarefree_decomposition(p) if m % 2 == 1)
    return r if r % 2 == 0 and 6 <= r <= 6 * d else None


def _bisector(p: LatticePoint, q: LatticePoint, k: int) -> dict:
    # points equidistant from p and q in dx^2 + k*dy^2; it holds the
    # crossings of the line of p with the conjugate line of q and vice versa
    return {
        (1, 0, 0): 2 * (q.x - p.x),
        (0, 1, 0): 2 * k * (q.yc - p.yc),
        (0, 0, 1): p.x**2 - q.x**2 + k * (p.yc**2 - q.yc**2),
    }


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
POINTS = st.builds(LatticePoint, RATIONALS, RATIONALS)


@st.composite
def forms(draw, d: int) -> dict:
    """A nonzero homogeneous form of degree d with rational coefficients."""
    out = {
        (i, j, d - i - j): c
        for i in range(d + 1)
        for j in range(d + 1 - i)
        if (c := draw(st.one_of(st.just(F(0)), RATIONALS))) != 0
    }
    return out or {(0, 0, d): F(1)}


EXTRA_DEGREE = {"dense": 0, "base point": 0, "bisector": 1, "infinity": 1, "isotropic": 2, "circular point": 2}


def shaped_curve(shape: str, g: dict, h: dict, triple, k: int) -> PlaneCurve:
    """Curve of degree deg(g) + EXTRA_DEGREE[shape], built so that one
    special case of the restriction shows.

    "dense": g itself.  "base point": through the triple's first point,
    where its two lines cross.  "bisector": through the crossings of the
    first two points' mixed-family lines.  "isotropic": contains both lines
    of the first point.  "infinity": contains the line at infinity, so every
    restriction drops degree.  "circular point": (x^2 + k*y^2)*g + z*h, with
    deg h = deg g + 1, passes through the circular points.
    """
    p, q = triple[0], triple[1]
    z = {(0, 0, 1): F(1)}
    if shape == "dense":
        f = g
    elif shape == "base point":
        value = PlaneCurve.from_coeffs(g).evaluate(p.x, p.yc, F(1))
        f = _poly_norm([*g.items(), ((0, 0, sum(next(iter(g)))), -value)])
    elif shape == "bisector":
        f = _poly_mul(g, _bisector(p, q, k))
    elif shape == "isotropic":
        f = _poly_mul(g, quadric_polynomial(p, k))
    elif shape == "infinity":
        f = _poly_mul(g, z)
    else:
        top = _poly_mul(g, {(2, 0, 0): F(1), (0, 2, 0): F(k)})
        f = _poly_norm([*top.items(), *_poly_mul(h, z).items()])
    if not f:  # "base point" on g = c*z^d: take (x - a*z)*z^(d-1)
        d = sum(next(iter(g)))
        f = {(1, 0, d - 1): F(1), (0, 0, d): -p.x}
    return PlaneCurve.from_coeffs(f)


@st.composite
def curve_cases(draw):
    """(curve, triple, k): degree 1..8, denominators everywhere, every shape."""
    k = draw(st.sampled_from([1, 2, 3, 5, 7]))
    triple = tuple(draw(st.lists(POINTS, min_size=3, max_size=3, unique=True)))
    shape = draw(st.sampled_from(sorted(EXTRA_DEGREE)))
    extra = EXTRA_DEGREE[shape]
    d = draw(st.integers(max(1, extra), 8))
    g = draw(forms(d - extra))
    h = draw(forms(d - extra + 1)) if shape == "circular point" else {}
    return shaped_curve(shape, g, h, triple, k), triple, k


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LineIsComponentError:
        return LineIsComponentError


def test_shaped_curves_show_their_special_case():
    k, triple = 2, (pt(F(1, 2), 1), pt(-1, F(2, 3)), pt(3, -2))
    g = {(1, 0, 0): F(1), (0, 1, 0): F(-2, 5), (0, 0, 1): F(3)}
    h = {(0, 2, 0): F(1), (1, 0, 1): F(7, 3)}
    lines = six_lines(triple, k)

    curve = shaped_curve("base point", g, h, triple, k)
    assert curve.contains(triple[0])
    assert oracle_shared_curve_points(curve, lines)[0]
    curve = shaped_curve("bisector", g, h, triple, k)
    shared = oracle_shared_curve_points(curve, lines)
    assert shared[0] and shared[3]
    curve = shaped_curve("isotropic", g, h, triple, k)
    assert substitute_line(curve, lines[0]).is_zero()
    assert substitute_line(curve, lines[1]).is_zero()
    with pytest.raises(LineIsComponentError):
        count_transverse_union(curve, triple, k)
    for shape in ("infinity", "circular point"):
        curve = shaped_curve(shape, g, h, triple, k)
        assert all(r.degree_drop >= 1 for r in count_transverse_union(curve, triple, k)[1])


@settings(max_examples=150, deadline=None)
@given(curve_cases(), st.integers(0, 2), st.booleans())
def test_substitute_line_matches_fraction_oracle(case, which, conjugate):
    curve, triple, k = case
    line = IsotropicLine(triple[which], k, conjugate)
    assert substitute_line(curve, line) == oracle_substitute_line(curve, line)


@settings(max_examples=40, deadline=None)
@given(curve_cases())
def test_six_lines_match_oracles(case):
    # the analysis of a base point answers for its line, and its conjugates
    # for the conjugate line
    curve, triple, k = case
    lines = six_lines(triple, k)
    polys, _mults, shared = zip(*_analyze_triple(curve, triple, k, {}))
    assert polys == tuple(oracle_substitute_line(curve, line) for line in lines[::2])
    want = oracle_shared_parameters(curve, lines)
    assert list(shared) == want[::2]
    assert [{t.conjugate() for t in s} for s in shared] == want[1::2]

    got = _outcome(count_transverse_union, curve, triple, k)
    assert got == _outcome(oracle_transverse_union, curve, triple, k)
    if got is not LineIsComponentError:
        reports = got[1]
        for line_report, conjugate_report in zip(reports[::2], reports[1::2]):
            assert line_report.multiplicities == conjugate_report.multiplicities
            assert line_report.degree_drop == conjugate_report.degree_drop

    if curve.degree != 2:
        cover = build_double_cover(curve, triple, k=k, smooth_curve=True)
        r = oracle_cover_r(curve, triple, k)
        assert cover.exact == (r is not None)
        assert cover.r == (r if cover.exact else (6, 6 * curve.degree))


@settings(max_examples=200, deadline=None)
@given(POINTS, POINTS, st.sampled_from([1, 2, 3, 7]), st.booleans())
def test_crossing_parameter_matches_line_intersection(p, q, k, conjugate):
    line, other = IsotropicLine(p, k, conjugate), IsotropicLine(q, k, not conjugate)
    for l, o in ((line, other), (other, line)):
        assert _crossing_parameter(l, o) == oracle_parameter_of(l, *line_intersection(l, o))


# ---------------------------------------------------------------------------
# greedy crossing test against the evaluation oracle


def oracle_cross_clear(curve: PlaneCurve, a: LatticePoint, b: LatticePoint, k: int) -> bool:
    """True when neither mixed-family crossing of the lines of a and b
    lands on the curve, tested by evaluating the curve there."""
    one = ImQuadElement.from_rational(1, k)
    for l1, l2 in (
        (IsotropicLine(a, k), IsotropicLine(b, k, conjugate=True)),
        (IsotropicLine(b, k), IsotropicLine(a, k, conjugate=True)),
    ):
        x0, y0 = line_intersection(l1, l2)
        if curve.evaluate(x0, y0, one).is_zero():
            return False
    return True


def oracle_greedy_picks(curve: PlaneCurve, candidates: Configuration):
    """The degree >= 3 greedy pass: one transversality report per on-curve
    point, crossings by oracle_cross_clear.  Returns the picks and the
    transcript up to, not including, the verify step."""
    k = candidates.k
    transcript: list[dict] = []
    drops: dict[LatticePoint, int] = {}
    for p in candidates.points:
        if not curve.contains(p):
            continue
        try:
            report = transversality_report(curve, IsotropicLine(p, k))
        except LineIsComponentError:
            transcript.append({"step": "reject", "point": p.to_dict(), "reason": "line in curve"})
            continue
        if any(mult > 1 for mult, _ in report.multiplicities):
            transcript.append({"step": "reject", "point": p.to_dict(), "reason": "multiple root"})
            continue
        drops[p] = report.degree_drop
    if not drops:
        return [], transcript
    mu = min(drops.values())
    good = [p for p, drop in drops.items() if drop == mu]
    transcript.append({"step": "good-set", "size": len(good), "mu_estimate": mu})
    chosen: list[LatticePoint] = []
    for p in good:
        if len(chosen) == 3:
            break
        if all(oracle_cross_clear(curve, c, p, k) for c in chosen):
            chosen.append(p)
            transcript.append({"step": "pick", "point": p.to_dict()})
        else:
            transcript.append({"step": "skip", "point": p.to_dict()})
    return chosen, transcript


PARABOLA = {(0, 1, 1): F(1), (2, 0, 0): F(-1)}  # y z = x^2


def parabola_bisector_case() -> tuple[PlaneCurve, Configuration]:
    # the parabola times the bisector of (0,0) and (1,1): the line of each
    # crosses the conjugate line of the other on the bisector, so on the curve
    curve = PlaneCurve.from_coeffs(_poly_mul(PARABOLA, _bisector(pt(0, 0), pt(1, 1), 1)))
    ts = (0, 1, 2, -1, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7)
    return curve, Configuration(1, tuple(pt(t, t * t) for t in ts))


def test_choose_triple_skips_a_crossing_on_the_curve():
    a, b = pt(0, 0), pt(1, 1)
    curve, cands = parabola_bisector_case()
    assert not oracle_cross_clear(curve, a, b, 1)
    sel = choose_transverse_triple(curve, cands)
    assert sel.triple == (a, pt(2, 4), pt(-1, 1))
    assert [(s["step"], s.get("point")) for s in sel.transcript[1:5]] == [
        ("pick", a.to_dict()),
        ("skip", b.to_dict()),
        ("pick", {"x": "2", "yc": "4"}),
        ("pick", {"x": "-1", "yc": "1"}),
    ]
    assert sel.transverse_points == 12


def test_choose_triple_reuses_the_greedy_restrictions(monkeypatch):
    # the final count restricts none of the three chosen lines again: one
    # restriction and one decomposition per on-curve candidate, 15 in all
    curve, cands = parabola_bisector_case()
    expected = choose_transverse_triple(curve, cands)
    calls = {"substitute_line": 0, "_root_multiplicities": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(curvelift, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(curvelift, name, counted)
    assert choose_transverse_triple(curve, cands) == expected
    assert calls == {"substitute_line": 15, "_root_multiplicities": 15}


def seeded_curve_case(seed: int) -> tuple[PlaneCurve, Configuration]:
    """A curve of degree 3..6 with enough rational points for the greedy pass.

    The base is the graph y = p(x), or x = p(y), of a random polynomial.
    Seeds 1 mod 3 multiply it by the bisector of its first two points, whose
    lines then cross on the curve; seeds 2 mod 3 by the isotropic pair of one
    of its points, whose lines then lie in the curve.
    """
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3, 7])
    d = rng.randint(3, 6)
    m = d - (0, 1, 2)[seed % 3]
    coeffs = [F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(m)]
    coeffs.append(F(rng.choice([1, -2, 3]), rng.choice([1, 2])))
    graph = {(0, 1, m - 1): F(1), **{(i, 0, m - i): -c for i, c in enumerate(coeffs) if c}}
    need = int(threshold(d)) + 3
    ts = rng.sample(sorted({F(a, b) for b in (1, 2, 3) for a in range(-25, 26)}), need)
    pts = [LatticePoint(t, sum(c * t**i for i, c in enumerate(coeffs))) for t in ts]
    if rng.random() < 0.5:
        graph = {(j, i, l): c for (i, j, l), c in graph.items()}
        pts = [LatticePoint(p.yc, p.x) for p in pts]
    if seed % 3 == 1:
        graph = _poly_mul(graph, _bisector(pts[0], pts[1], k))
    elif seed % 3 == 2:
        graph = _poly_mul(graph, quadric_polynomial(pts[rng.randrange(4)], k))
    return PlaneCurve.from_coeffs(graph), Configuration(k, tuple(pts))


@pytest.mark.parametrize("seed", range(12))
def test_choose_triple_matches_evaluation_oracle(seed):
    curve, cands = seeded_curve_case(seed)
    chosen, expected = oracle_greedy_picks(curve, cands)
    try:
        sel = choose_transverse_triple(curve, cands)
    except HypothesisViolationError as err:
        assert len(chosen) < 3 or "transverse points" in str(err)
        transcript = err.transcript
    else:
        assert sel.triple == tuple(chosen)
        transcript = sel.transcript
    if len(chosen) == 3:
        count = oracle_transverse_union(curve, tuple(chosen), cands.k)[0]
        required = max(3 * (curve.degree - 2), 6)
        expected.append({"step": "verify", "transverse_points": count, "required": required})
    assert transcript == tuple(expected)
    if seed % 3 == 1:
        assert any(s["step"] == "skip" for s in transcript)
    if seed % 3 == 2:
        assert any(s.get("reason") == "line in curve" for s in transcript)


# the command-line cover examples that reach a selection; x^2 y, also run
# there, reaches none
CLI_COVER_CASES = {
    "x axis": (X_AXIS, candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))),
    "slanted": (
        line_curve(2, -3, 1),
        Configuration(3, tuple(pt(F(x), F(y)) for x, y in (
            ("1/2", "1/3"), ("-1/2", "2/3"), ("2/3", "-1/2"), ("3/2", "5/3"), ("-4/3", "1/2")
        ))),
    ),
    "parabola bisector": parabola_bisector_case(),
}


@pytest.mark.parametrize("case", [*CLI_COVER_CASES, *range(12)])
def test_cover_of_a_selection_is_the_cover_of_its_triple(case):
    curve, cands = CLI_COVER_CASES[case] if case in CLI_COVER_CASES else seeded_curve_case(case)
    sel = choose_transverse_triple(curve, cands)
    for smooth in (None, True):
        bare = build_double_cover(curve, sel.triple, k=sel.k, smooth_curve=smooth)
        assert build_double_cover(curve, sel, smooth_curve=smooth) == bare


# ---------------------------------------------------------------------------
# modular certificates against the exact oracles


def oracle_root_multiplicities(p: ImQuadPoly) -> tuple[tuple[int, int], ...]:
    """(multiplicity, number of roots) pairs from exact Yun alone."""
    by_mult: dict[int, int] = {}
    for factor, mult in squarefree_decomposition(p):
        by_mult[mult] = by_mult.get(mult, 0) + factor.degree
    return tuple(sorted(by_mult.items()))


# -k is a square mod each, and each exceeds the largest degree drawn, 8
SMALL_GOOD_PRIMES = {1: 13, 3: 13, 2: 11, 7: 11}


def _least_good_prime_above(n: int, k: int) -> int:
    p = n + 1
    while not (_is_prime(p) and pow(-k % p, (p - 1) // 2, p) == 1):
        p += 1
    return p


# reconstruction is bounded by sqrt(p/2) ~ 724 here: drawn factors often fit,
# and a coefficient that does not is often taken for a wrong small fraction
MID_GOOD_PRIMES = {k: _least_good_prime_above(2**20, k) for k in (1, 2, 3, 7)}


@contextlib.contextmanager
def good_primes(primes: dict | None):
    """Run with the real good primes, or with a table of smaller ones.  Under
    SMALL_GOOD_PRIMES, denominators, leading coefficients, gcds and values
    vanish mod p often enough to send most inputs down the exact fallback."""
    with pytest.MonkeyPatch.context() as mp:
        if primes:
            mp.setattr(exactnum, "_good_prime", lambda k: (primes[k], _sqrt_mod(-k, primes[k])))
        yield


PRIMES = pytest.mark.parametrize(
    "primes", [None, MID_GOOD_PRIMES, SMALL_GOOD_PRIMES], ids=["good prime", "mid prime", "small prime"]
)


# denominators 11 and 13 are the small primes; numerators 143 = 11*13 zero a coefficient mod both
CERT_RATIONALS = st.builds(
    Fraction, st.one_of(st.integers(-6, 6), st.sampled_from([143, -286])), st.sampled_from([1, 2, 3, 7, 11, 13])
)


def cert_elements(k: int):
    return st.builds(lambda a, b: ImQuadElement(a, b, k), CERT_RATIONALS, CERT_RATIONALS)


def cert_polys(k: int, lo: int, hi: int):
    return st.lists(cert_elements(k), min_size=lo + 1, max_size=hi + 1).map(
        lambda cs: ImQuadPoly.from_coeffs(cs, k)
    ).filter(lambda p: p.degree >= lo)


@st.composite
def certificate_cases(draw):
    """A nonzero polynomial of degree <= 8 over Q(omega), k in {1, 2, 3, 7}:
    a line restriction of a drawn curve or of a g*h^2 curve, or a product
    g*h^2 of drawn polynomials, some with a leading coefficient that
    vanishes mod the small good primes, some with two simple roots that
    meet mod them."""
    k = draw(st.sampled_from([1, 2, 3, 7]))
    kind = draw(st.sampled_from(
        ["curve", "g*h^2 curve", "g*h^2", "g*h^2, h constant mod p", "g*h^2, roots of g meet mod p"]
    ))
    if kind.startswith("g*h^2"):
        h = draw(cert_polys(k, 1, 3))
        if kind.endswith("constant mod p"):  # h = c + 143*u*t reduces to the constant c
            c, u = draw(cert_polys(k, 0, 0)), draw(cert_polys(k, 0, 0))
            h = c + ImQuadPoly.from_coeffs([0, 143], k) * u
        if kind.endswith("meet mod p"):  # g = (t - c)(t - c - 143) reduces to (t - c)^2
            c = draw(cert_elements(k))
            g = ImQuadPoly.from_coeffs([-c, 1], k) * ImQuadPoly.from_coeffs([-c - 143, 1], k)
        else:
            g = draw(cert_polys(k, 0, 8 - 2 * h.degree))
        if g.is_zero():
            g = ImQuadPoly.constant(1, k)
        return g * h * h
    base = draw(POINTS)
    line = IsotropicLine(base, k, draw(st.booleans()))
    if kind == "curve":
        f = draw(forms(draw(st.integers(1, 8))))
    else:
        dh = draw(st.integers(1, 3))
        f = _poly_mul(draw(forms(draw(st.integers(0, 8 - 2 * dh)))), _poly_mul(*[draw(forms(dh))] * 2))
    p = substitute_line(PlaneCurve.from_coeffs(f), line)
    return p if not p.is_zero() else ImQuadPoly.constant(1, k)


@PRIMES
@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_root_multiplicities_match_yun(primes, p):
    with good_primes(primes):
        assert _root_multiplicities(p) == oracle_root_multiplicities(p)


@PRIMES
@settings(max_examples=150, deadline=None)
@given(certificate_cases(), st.data())
def test_modular_zero_test_matches_evaluation(primes, p, data):
    k = p.k
    root, other = data.draw(cert_elements(k)), data.draw(cert_elements(k))
    with_root = p * ImQuadPoly.from_coeffs([-root, 1], k)
    with good_primes(primes):
        assert _is_root(with_root, root)
        for poly in (p, with_root):
            for t in (root, other, root + SMALL_GOOD_PRIMES[k]):
                assert _is_root(poly, t) == poly.evaluate(t).is_zero()


@PRIMES
@settings(max_examples=25, deadline=None)
@given(curve_cases())
def test_six_lines_under_either_prime_match_oracles(primes, case):
    curve, triple, k = case
    if k not in SMALL_GOOD_PRIMES:
        return
    lines = six_lines(triple, k)
    want = oracle_shared_parameters(curve, lines)
    with good_primes(primes):
        polys, mults, shared = zip(*_analyze_triple(curve, triple, k, {}))
    assert polys == tuple(oracle_substitute_line(curve, line) for line in lines[::2])
    assert list(shared) == want[::2]
    assert [{t.conjugate() for t in s} for s in shared] == want[1::2]
    assert mults == tuple(None if p.is_zero() else oracle_root_multiplicities(p) for p in polys)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_mid_prime_reconstruction_succeeds_or_is_fooled(k):
    # (t - c)^2 (t + 1): c = 1/3 comes back from its image, and the integer
    # c = 1/3 mod P, far beyond the bound, is taken for 1/3, so the product
    # check fails
    p = MID_GOOD_PRIMES[k]
    fooled = pow(3, -1, p)
    for c, certified in ((F(1, 3), ((1, 1), (2, 1))), (F(fooled), None)):
        f = ImQuadPoly.from_coeffs([-c, 1], k) * ImQuadPoly.from_coeffs([-c, 1], k)
        f = f * ImQuadPoly.from_coeffs([1, 1], k)
        with good_primes(MID_GOOD_PRIMES):
            assert _rational_reconstruct(c.numerator * pow(c.denominator, -1, p), p) == F(1, 3)
            assert _modular_root_multiplicities(f) == certified
            assert _root_multiplicities(f) == oracle_root_multiplicities(f) == ((1, 1), (2, 1))


X2Y = PlaneCurve.from_coeffs({(2, 1, 0): F(1)})  # x^2 y


def _axis_points(offset: int) -> list[LatticePoint]:
    return [pt(offset + t) for t in range(1, 9)] + [pt(0, offset + t) for t in range(1, 8)]


@pytest.mark.parametrize("offset", [0, 2**40])
def test_double_roots_on_the_axes_beyond_the_reconstruction_bound(offset):
    # the isotropic line of each axis point meets x^2 y in a double root; its
    # factor has a coefficient offset + t, which at 2^40 exceeds the bound
    # sqrt(p/2) ~ 2^30 of reconstruction, so exact Yun decides there
    for p in _axis_points(offset):
        restriction = substitute_line(X2Y, IsotropicLine(p, 1))
        assert _root_multiplicities(restriction) == oracle_root_multiplicities(restriction) == ((1, 1), (2, 1))
        assert (_modular_root_multiplicities(restriction) is None) == (offset > 0)
    with pytest.raises(HypothesisViolationError) as err:
        choose_transverse_triple(X2Y, Configuration(1, tuple(_axis_points(offset))))
    assert [s["reason"] for s in err.value.transcript] == ["multiple root"] * 15


def _outcome_selection(curve, cands):
    try:
        sel = choose_transverse_triple(curve, cands)
    except HypothesisViolationError as err:
        return str(err), err.transcript
    return sel


@pytest.mark.parametrize("seed", [1, 4, 7, 10])
def test_greedy_crossing_skips_under_a_small_prime(seed):
    # seeds 1 mod 3 skip a point whose lines cross on the curve
    curve, cands = seeded_curve_case(seed)
    want = _outcome_selection(curve, cands)
    if cands.k in SMALL_GOOD_PRIMES:
        with good_primes(SMALL_GOOD_PRIMES):
            assert _outcome_selection(curve, cands) == want
