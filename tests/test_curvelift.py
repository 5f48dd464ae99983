"""Tests for isotropic-line transversality and the double cover."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import ImQuadElement, omega
from ratdist.curvelift import (
    CurveliftError,
    HypothesisViolationError,
    IrrationalReflectionError,
    IsotropicLine,
    LineIsComponentError,
    PlaneCurve,
    ThresholdError,
    TripleSelection,
    UseInversionFirstError,
    build_double_cover,
    choose_transverse_triple,
    count_transverse_union,
    line_curve,
    line_intersection,
    point_is_smooth,
    quadric_polynomial,
    reflection_across_line,
    six_lines,
    substitute_line,
    threshold,
    transversality_report,
)
from ratdist.planeset import Configuration, LatticePoint

F = Fraction


def pt(x, yc=0) -> LatticePoint:
    return LatticePoint(F(x), F(yc))


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
    assert substitute_line(curve, line.conjugated()) == substitute_line(curve, line).conjugate_coeffs()


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
    report = transversality_report(X_AXIS, l_a, exclusions=((x0, y0),))
    assert report.simple_roots == 0

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
# reflection


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
    with pytest.raises(IrrationalReflectionError):
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
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    with pytest.raises(HypothesisViolationError):
        choose_transverse_triple(line_curve(0, 0, 1), cands)


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


def test_double_cover_argument_validation():
    with pytest.raises(UseInversionFirstError):
        build_double_cover(UNIT_CIRCLE, (pt(1, 1), pt(2, 2), pt(3, 1)), k=1)
    with pytest.raises(CurveliftError):
        build_double_cover(X_AXIS, (pt(0, 1), pt(0, 1), pt(0, 2)), k=1)
    with pytest.raises(CurveliftError):
        build_double_cover(X_AXIS, (pt(0, 1), pt(0, 2), pt(0, 3)))  # k missing


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


def test_cover_json_shape():
    cands = candidates((0, 1), (0, -1), (0, 2), (1, 1), (2, 5))
    sel = choose_transverse_triple(X_AXIS, cands)
    payload = build_double_cover(X_AXIS, sel).to_dict()
    assert payload["r"] == 6 and payload["genus"] == 2
    assert payload["cover_relation"].startswith("w^2 = ")
