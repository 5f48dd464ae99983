"""Tests for configurations, embedding, audits, and inversion."""

import functools
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.planeset import (
    AuditReport,
    Configuration,
    DistanceMatrix,
    LatticePoint,
    MixedFieldError,
    NotPlanarError,
    NotRdsMatrixError,
    PlanesetError,
    VerifyReport,
    audit_general_position,
    distance_matrix,
    embed_from_distances,
    integer_lattice,
    invert,
    normalize,
    squared_distance,
    verify_rds,
)
from ratdist.exactnum import rational_sqrt
from ratdist.searchgen import SearchSpec, canonical_form, generate_circle_rds, generate_line_rds, search

F = Fraction


def pt(x, yc=0) -> LatticePoint:
    return LatticePoint(F(x), F(yc))


def cfg(k, *pts, provenance="") -> Configuration:
    return Configuration(k, tuple(pt(*p) for p in pts), provenance)


TRIANGLE_345 = cfg(1, (0, 0), (3, 0), (0, 4))
UNIT_SQUARE = cfg(1, (0, 0), (1, 0), (0, 1), (1, 1))
RECTANGLE_34 = cfg(1, (0, 0), (3, 0), (0, 4), (3, 4))


def two_circle_intersection_oracle(d0: F, d1: F):
    """Intersect circles of radius d0 around (0,0) and d1 around (1,0).

    Returns (x, t) with t the squared height; independent check for the
    embedding formulas.
    """
    x = (d0 * d0 + 1 - d1 * d1) / 2
    return x, d0 * d0 - x * x


# ---------------------------------------------------------------------------
# Fraction oracles: one squared_distance and one rational_sqrt per pair, with
# no integer scaling anywhere


def oracle_distance_matrix(c: Configuration) -> DistanceMatrix:
    pts = c.points
    return DistanceMatrix(tuple(tuple(squared_distance(p, q, c.k) for q in pts) for p in pts))


def oracle_verify_rds(c: Configuration) -> VerifyReport:
    n = c.n
    dist: list[list[F | None]] = [[None] * n for _ in range(n)]
    failing = []
    for i in range(n):
        dist[i][i] = F(0)
        for j in range(i + 1, n):
            sq = squared_distance(c.points[i], c.points[j], c.k)
            r = rational_sqrt(sq)
            if r is None:
                failing.append((i, j, sq))
            else:
                dist[i][j] = dist[j][i] = r
    return VerifyReport(not failing, tuple(failing), tuple(tuple(row) for row in dist))


def oracle_invert(c: Configuration, center_index: int) -> Configuration:
    """P + (A-P)/|A-P|^2 in Fraction pairs for every A other than the center P."""
    if not oracle_verify_rds(c).is_rds:
        raise NotRdsMatrixError("inversion requires a rational distance set")
    if not 0 <= center_index < c.n:
        raise PlanesetError(f"center index {center_index} out of range for {c.n} points")
    center = c.points[center_index]
    out = []
    for idx, p in enumerate(c.points):
        if idx == center_index:
            out.append(p)
            continue
        rho = squared_distance(p, center, c.k)
        out.append(
            LatticePoint(
                center.x + (p.x - center.x) / rho,
                center.yc + (p.yc - center.yc) / rho,
            )
        )
    return Configuration(c.k, tuple(out), c.provenance)


# ---------------------------------------------------------------------------
# squared_distance / verify


def test_squared_distance_examples():
    assert squared_distance(pt(0, 0), pt(1, 0), 7) == 1
    assert squared_distance(pt(0, 0), pt(3, 0), 1) == 9
    assert squared_distance(pt(0, 0), pt(0, 4), 1) == 16
    assert squared_distance(pt(0, 0), LatticePoint(F(1, 2), F(1, 2)), 3) == 1


def test_verify_rds_345():
    report = verify_rds(TRIANGLE_345)
    assert report.is_rds
    assert report.distances[0][1] == 3
    assert report.distances[0][2] == 4
    assert report.distances[1][2] == 5


def test_verify_rds_unit_square_fails_on_diagonal():
    report = verify_rds(cfg(1, (0, 0), (1, 0), (0, 1)))
    assert not report.is_rds
    assert report.failing_pairs == ((1, 2, F(2)),)
    assert report.distances[1][2] is None


def test_verify_rds_single_point_vacuous():
    assert verify_rds(cfg(5, (2, 3))).is_rds


# Configurations for the differential tests: free points (almost never an
# RDS), points on a horizontal line (an RDS for every k) and subsets of a
# rational-distance circle (k = 1), each moved by a random similarity with
# denominators up to about 10^6, negative coordinates included.
CIRCLE_9 = generate_circle_rds(9).points
COORD = st.integers(-6, 6).map(F) | st.fractions(-50, 50, max_denominator=10**6)


@st.composite
def lattice_configurations(draw):
    k = draw(st.sampled_from([1, 2, 3, 5, 7]))
    kind = draw(st.sampled_from(["free", "line", "circle"]))
    n = draw(st.integers(0, 9))
    if kind == "free":
        base = draw(st.lists(st.builds(LatticePoint, COORD, COORD), max_size=n, unique=True))
    elif kind == "line":
        base = [LatticePoint(x, F(0)) for x in draw(st.lists(COORD, max_size=n, unique=True))]
    else:
        k = 1
        base = draw(st.lists(st.sampled_from(CIRCLE_9), max_size=n, unique=True))
    s = draw(COORD.filter(bool))
    dx, dy = draw(COORD), draw(COORD)
    return Configuration(k, tuple(LatticePoint(s * p.x + dx, s * p.yc + dy) for p in base))


def assert_matches_fraction_oracles(c: Configuration) -> None:
    scale, pts = integer_lattice(c.points)
    assert [(F(x, scale), F(y, scale)) for x, y in pts] == [(p.x, p.yc) for p in c.points]
    assert verify_rds(c) == oracle_verify_rds(c)
    assert verify_rds(c).to_dict() == oracle_verify_rds(c).to_dict()
    assert distance_matrix(c).to_dict() == oracle_distance_matrix(c).to_dict()


@settings(max_examples=300, deadline=None)
@given(lattice_configurations())
def test_verify_rds_and_distance_matrix_match_fraction_oracles(c):
    assert_matches_fraction_oracles(c)


@pytest.mark.parametrize("n", [3, 8, 14, 27, 40])
def test_inverted_circles_match_fraction_oracles(n):
    c = generate_circle_rds(n)
    for center in sorted({0, 1, n // 2, n - 1}):
        inverted = invert(c, center)
        for d in (inverted, normalize(inverted)):
            assert verify_rds(d).is_rds
            assert_matches_fraction_oracles(d)


def test_configuration_validation():
    with pytest.raises(PlanesetError):
        cfg(1, (0, 0), (0, 0))
    with pytest.raises(PlanesetError):
        cfg(12, (0, 0), (1, 0))  # 12 is not squarefree
    with pytest.raises(PlanesetError):
        cfg(0, (0, 0))


# ---------------------------------------------------------------------------
# embedding / normalization


def test_embed_equilateral_triangle():
    m = DistanceMatrix(((F(0), F(1), F(1)), (F(1), F(0), F(1)), (F(1), F(1), F(0))))
    c = embed_from_distances(m)
    x, t = two_circle_intersection_oracle(F(1), F(1))
    assert x == F(1, 2) and t == F(3, 4)
    assert c.k == 3
    assert c.points == (pt(0, 0), pt(1, 0), LatticePoint(F(1, 2), F(1, 2)))


def test_embed_collinear():
    m = DistanceMatrix(((F(0), F(1), F(4)), (F(1), F(0), F(1)), (F(4), F(1), F(0))))
    c = embed_from_distances(m)
    assert c.k == 1
    assert c.points == (pt(0, 0), pt(1, 0), pt(2, 0))


def test_embed_345_rescales_first_edge():
    m = distance_matrix(TRIANGLE_345)
    c = embed_from_distances(m)
    assert c.k == 1
    assert c.points == (pt(0, 0), pt(1, 0), LatticePoint(F(0), F(4, 3)))
    # entrywise: embedded matrix equals input scaled by 1/d(0,1)^2
    got = distance_matrix(c)
    for i in range(3):
        for j in range(3):
            assert got.entries[i][j] == m.entries[i][j] / m.entries[0][1]


def test_embed_rejects_non_square_entry():
    m = DistanceMatrix(((F(0), F(1), F(2)), (F(1), F(0), F(1)), (F(2), F(1), F(0))))
    with pytest.raises(NotRdsMatrixError):
        embed_from_distances(m)


def test_embed_rejects_mixed_field():
    # equilateral triangle (k=3) plus a fourth point whose vertical part has
    # squarefree part 2
    m = DistanceMatrix(
        (
            (F(0), F(1), F(1), F(9, 4)),
            (F(1), F(0), F(1), F(9, 4)),
            (F(1), F(1), F(0), F(1)),
            (F(9, 4), F(9, 4), F(1), F(0)),
        )
    )
    with pytest.raises(MixedFieldError):
        embed_from_distances(m)


def test_embed_rejects_regular_tetrahedron():
    ones = [[F(1)] * 4 for _ in range(4)]
    for i in range(4):
        ones[i][i] = F(0)
    with pytest.raises(NotPlanarError):
        embed_from_distances(DistanceMatrix(tuple(tuple(r) for r in ones)))


def test_embed_rechecks_the_distances_the_signs_left_unused():
    # points 3 and 4 take their signs against point 2, so only the closing
    # re-check sees that their own distance was quadrupled
    rows = [list(row) for row in distance_matrix(normalize(generate_circle_rds(5))).entries]
    rows[3][4] = rows[4][3] = 4 * rows[3][4]
    message = r"embedded distance \(3,4\) is 5776/7225, expected 23104/7225"
    with pytest.raises(NotPlanarError, match=message):
        embed_from_distances(DistanceMatrix(tuple(tuple(row) for row in rows)))


def test_normalize_translated_fixture():
    c = cfg(1, (5, 0), (8, 0), (5, 4))
    out = normalize(c)
    assert out.k == 1
    assert out.points == (pt(0, 0), pt(1, 0), LatticePoint(F(0), F(4, 3)))


def test_normalize_idempotent_and_scale_invariant():
    side1 = normalize(embed_from_distances(
        DistanceMatrix(((F(0), F(1), F(1)), (F(1), F(0), F(1)), (F(1), F(1), F(0))))
    ))
    side2 = normalize(embed_from_distances(
        DistanceMatrix(((F(0), F(4), F(4)), (F(4), F(0), F(4)), (F(4), F(4), F(0))))
    ))
    assert normalize(side1) == side1
    assert side1.points == side2.points and side1.k == side2.k


def test_normalize_requires_rds():
    with pytest.raises(PlanesetError):
        normalize(cfg(1, (0, 0), (1, 0), (0, 1)))


def test_normalize_non_rds_raises_not_rds_matrix():
    with pytest.raises(NotRdsMatrixError):
        normalize(cfg(1, (0, 0), (1, 0), (0, 1)))


# k = 100003 with squared verticals whose numerators have a prime factor
# above the trial-division bound of squarefree_part
LARGE_K_RDS = cfg(100003, (0, 0), (10003700358, 0), (5001850179, 100019))


def test_normalize_large_k_rds_needs_no_factoring():
    assert verify_rds(LARGE_K_RDS).is_rds
    out = normalize(LARGE_K_RDS)
    assert out.k == 100003
    assert out.points == (pt(0, 0), pt(1, 0), LatticePoint(F(1, 2), F(100019, 10003700358)))
    assert normalize(out) == out


# ---------------------------------------------------------------------------
# normalize against the embedding of its distance matrix


SIMILARITY_KS = (1, 2, 3, 5, 6, 7)


@functools.cache
def search_finds(k: int) -> tuple[Configuration, ...]:
    specs = (SearchSpec(k, 4, 1, 3), SearchSpec(k, 3, 1, 4))
    return tuple(c for spec in specs for c in search(spec).found)


@st.composite
def similar_rds(draw, max_n=6, ks=SIMILARITY_KS):
    """A search find or a circle/line fixture under a random similarity.

    The similarity is z -> s*z + t, or s*conj(z) + t, with
    z = x + yc*sqrt(-k) and s = r*w^2 for w = a + b*sqrt(-k), so |s| = r*|w|^2
    is rational and every distance stays rational.  The image is shuffled
    and sometimes inverted; sometimes one point is then moved by a small
    offset, which mostly breaks the RDS property.
    """
    k = draw(st.sampled_from(ks))
    family = draw(st.sampled_from(["search", "circle", "line"]))
    if family == "search":
        # a collinear find comes back with k = 1 but is an RDS in every lattice
        base = draw(st.sampled_from(search_finds(k))).points
    elif family == "circle":
        k, base = 1, generate_circle_rds(draw(st.integers(2, max_n))).points
    else:
        offsets = draw(
            st.lists(st.fractions(-5, 5, max_denominator=4), min_size=2, max_size=max_n, unique=True)
        )
        base = generate_line_rds(len(offsets), offsets).points
    a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
    wx, wy = a * a - k * b * b, 2 * a * b
    r = draw(st.fractions(F(1, 9), 9, max_denominator=9).filter(bool))
    tx, ty = draw(st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * 2))
    sign = draw(st.sampled_from((1, -1)))
    moved = [
        LatticePoint(r * (wx * p.x - k * wy * sign * p.yc) + tx, r * (wx * sign * p.yc + wy * p.x) + ty)
        for p in base
    ]
    c = Configuration(k, tuple(draw(st.permutations(moved))), draw(st.sampled_from(["", "drawn"])))
    if draw(st.booleans()):
        c = invert(c, draw(st.integers(0, c.n - 1)))
    if draw(st.booleans()):
        i = draw(st.integers(0, c.n - 1))
        dx, dy = draw(st.tuples(st.integers(0, 3), st.integers(0, 2)).filter(any))
        moved_point = LatticePoint(c.points[i].x + F(dx, 2), c.points[i].yc + dy)
        if moved_point not in c.points:
            c = Configuration(k, c.points[:i] + (moved_point,) + c.points[i + 1 :], c.provenance)
    return c


@settings(max_examples=300, deadline=None)
@given(similar_rds())
def test_normalize_matches_the_embedding_of_its_distance_matrix(c):
    def embedded():
        return embed_from_distances(distance_matrix(c), provenance=c.provenance)

    if verify_rds(c).is_rds:
        assert normalize(c) == embedded()
    else:
        with pytest.raises(NotRdsMatrixError):
            normalize(c)
        with pytest.raises(NotRdsMatrixError):
            embedded()


@settings(max_examples=60, deadline=None)
@given(similar_rds(max_n=5))
def test_canonical_form_is_the_least_normalize_over_orderings(c):
    if not verify_rds(c).is_rds:
        with pytest.raises(NotRdsMatrixError):
            canonical_form(c)
        return
    forms = [
        normalize(Configuration(c.k, tuple(c.points[i] for i in perm), "canonical"))
        for perm in itertools.permutations(range(c.n))
    ]
    assert canonical_form(c) == min(forms, key=lambda f: tuple((p.x, p.yc) for p in f.points))


# ---------------------------------------------------------------------------
# predicates
#
# Fraction determinant tests, the oracles of the brute-force audit below.


def collinear(p1: LatticePoint, p2: LatticePoint, p3: LatticePoint) -> bool:
    """Exact 3x3 determinant test in lattice coordinates.

    With y = yc*sqrt(k) the true determinant is sqrt(k) times the lattice
    one, so vanishing is k-independent.
    """
    det = (p2.x - p1.x) * (p3.yc - p1.yc) - (p3.x - p1.x) * (p2.yc - p1.yc)
    return det == 0


def concyclic(
    p1: LatticePoint, p2: LatticePoint, p3: LatticePoint, p4: LatticePoint, k: int
) -> bool:
    """True iff the four points lie on a common circle or line.

    4x4 determinant with leading column x^2 + k*yc^2; combine with
    ``collinear`` to separate genuine circles from lines.
    """
    pts = (p1, p2, p3, p4)
    if len(set(pts)) != 4:
        raise PlanesetError("concyclic test requires four distinct points")
    rows = [(p.x * p.x + k * p.yc * p.yc, p.x, p.yc, F(1)) for p in pts]
    top = rows[0]
    reduced = [[rows[i][c] - top[c] for c in range(4)] for i in range(1, 4)]
    det = (
        reduced[0][0] * (reduced[1][1] * reduced[2][2] - reduced[1][2] * reduced[2][1])
        - reduced[0][1] * (reduced[1][0] * reduced[2][2] - reduced[1][2] * reduced[2][0])
        + reduced[0][2] * (reduced[1][0] * reduced[2][1] - reduced[1][1] * reduced[2][0])
    )
    return det == 0


def test_collinear_examples():
    assert collinear(pt(0, 0), pt(1, 0), pt(2, 0))
    assert not collinear(pt(0, 0), pt(1, 0), pt(0, 1))
    assert collinear(pt(0, 0), pt(1, 1), pt(2, 2))


def test_concyclic_examples():
    assert concyclic(pt(0, 0), pt(3, 0), pt(0, 4), pt(3, 4), 1)
    assert concyclic(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1), 1)
    assert not concyclic(pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1), 1)
    with pytest.raises(PlanesetError):
        concyclic(pt(0, 0), pt(0, 0), pt(1, 0), pt(2, 0), 1)


def test_rectangle_circumcircle_center_oracle():
    # center (3/2, 2), radius^2 = 25/4: every corner satisfies it
    cx, cy = F(3, 2), F(2)
    for p in RECTANGLE_34.points:
        assert (p.x - cx) ** 2 + (p.yc - cy) ** 2 == F(25, 4)


@given(st.permutations(range(3)))
def test_collinear_permutation_invariant(perm):
    pts = [pt(0, 0), pt(2, 1), pt(4, 2)]
    assert collinear(*(pts[i] for i in perm))
    pts2 = [pt(0, 0), pt(2, 1), pt(4, 3)]
    assert not collinear(*(pts2[i] for i in perm))


@given(st.permutations(range(4)))
def test_concyclic_permutation_invariant(perm):
    pts = list(UNIT_SQUARE.points)
    assert concyclic(*(pts[i] for i in perm), 1)


# ---------------------------------------------------------------------------
# audit


def test_audit_seven_point_thresholds():
    pts = [(0, 0), (3, 0), (0, 4), (3, 4), (7, 1), (2, 9), (5, 5)]
    report = audit_general_position(cfg(1, *pts))
    assert (report.line_threshold, report.circle_threshold) == (3, 4)


def test_audit_rectangle():
    report = audit_general_position(RECTANGLE_34)
    assert report.max_concyclic == 4
    assert not report.strong_ok
    assert not report.literal_ok  # n-4 = 0 is vacuously violated
    assert report.witnesses["concyclic"] == (0, 1, 2, 3)


def test_audit_five_collinear():
    report = audit_general_position(cfg(1, (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)))
    assert report.max_collinear == 5
    assert not report.literal_ok and not report.strong_ok
    # the audit never mistakes the common line for a circle
    assert report.max_concyclic == 2


def test_concyclic_degenerate_line_semantics():
    # with three collinear points the determinant vanishes exactly when the
    # fourth point is on the same line; the audit separates the cases via
    # collinear seeds
    assert concyclic(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0), 1)
    assert not concyclic(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 1), 1)


def test_audit_small_sets():
    assert audit_general_position(cfg(1, (0, 0), (1, 0))).literal_ok
    r3 = audit_general_position(cfg(1, (0, 0), (1, 0), (0, 1)))
    assert not r3.literal_ok  # n-3 = 0: empty subset lies on a circle
    assert r3.strong_ok


def test_audit_monotone_under_point_removal():
    base = cfg(1, (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 3))
    full = audit_general_position(base)
    for drop in range(base.n):
        kept = tuple(p for i, p in enumerate(base.points) if i != drop)
        sub = audit_general_position(Configuration(1, kept))
        assert sub.max_collinear <= full.max_collinear
        assert sub.max_concyclic <= full.max_concyclic


# ---------------------------------------------------------------------------
# audit against the brute-force oracle
#
# Brute-force O(n^3) / O(n^4) scans with the public Fraction predicates: the
# reference reports, witnesses included, that the hashing audit must match.


def oracle_max_collinear(c: Configuration) -> tuple[int, tuple[int, ...]]:
    n = c.n
    if n <= 2:
        return n, tuple(range(n))
    best, witness = 2, (0, 1)
    for i, j in itertools.combinations(range(n), 2):
        members = [i, j]
        for p in range(n):
            if p != i and p != j and collinear(c.points[i], c.points[j], c.points[p]):
                members.append(p)
        if len(members) > best:
            best, witness = len(members), tuple(sorted(members))
    return best, witness


def oracle_max_concyclic(c: Configuration) -> tuple[int, tuple[int, ...]]:
    # Genuine circles only: seed with non-collinear triples, then test the
    # rest against the circle-or-line determinant (the seed rules out lines).
    n = c.n
    if n <= 2:
        return n, tuple(range(n))
    best, witness = 2, (0, 1)
    for i, j, l in itertools.combinations(range(n), 3):
        if collinear(c.points[i], c.points[j], c.points[l]):
            continue
        members = [i, j, l]
        for p in range(n):
            if p in (i, j, l):
                continue
            if concyclic(c.points[i], c.points[j], c.points[l], c.points[p], c.k):
                members.append(p)
        if len(members) > best:
            best, witness = len(members), tuple(sorted(members))
    return best, witness


def oracle_audit(c: Configuration) -> AuditReport:
    n = c.n
    max_col, wit_col = oracle_max_collinear(c)
    max_cyc, wit_cyc = oracle_max_concyclic(c)
    witnesses: dict = {}
    if max_col >= 3:
        witnesses["collinear"] = wit_col
    if max_cyc >= 4:
        witnesses["concyclic"] = wit_cyc
    return AuditReport(
        n=n,
        line_threshold=n - 4,
        circle_threshold=n - 3,
        max_collinear=max_col,
        max_concyclic=max_cyc,
        literal_ok=not ((n >= 4 and max_col >= n - 4) or (n >= 3 and max_cyc >= n - 3)),
        strong_ok=max_col <= 2 and max_cyc <= 3,
        witnesses=witnesses,
    )


small_rational = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from([1, 2, 3])
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.lists(st.tuples(small_rational, small_rational), min_size=1, max_size=8, unique=True),
)
def test_audit_matches_oracle(k, coords):
    c = Configuration(k, tuple(LatticePoint(x, y) for x, y in coords))
    assert audit_general_position(c).to_dict() == oracle_audit(c).to_dict()


def _report(n, max_col, max_cyc, literal_ok, strong_ok, witnesses):
    return {
        "n": n,
        "line_threshold": n - 4,
        "circle_threshold": n - 3,
        "max_collinear": max_col,
        "max_concyclic": max_cyc,
        "literal_ok": literal_ok,
        "strong_ok": strong_ok,
        "witnesses": witnesses,
    }


@pytest.mark.parametrize(
    "c, expected",
    [
        (
            normalize(generate_circle_rds(8)),
            _report(8, 2, 8, False, False, {"concyclic": list(range(8))}),
        ),
        # inversion at point 1 sends the circle through it to a line
        (
            normalize(invert(generate_circle_rds(8), 1)),
            _report(8, 7, 3, False, False, {"collinear": [0, 2, 3, 4, 5, 6, 7]}),
        ),
        (
            generate_line_rds(6, [0, 1, 3, 7, 12, 20]),
            _report(6, 6, 2, False, False, {"collinear": list(range(6))}),
        ),
        (
            normalize(generate_circle_rds(5)),
            _report(5, 2, 5, False, False, {"concyclic": list(range(5))}),
        ),
    ],
    ids=["circle", "inverted-circle", "line", "circle-5"],
)
def test_audit_fixture_reports(c, expected):
    report = audit_general_position(c).to_dict()
    assert report == expected
    assert report == oracle_audit(c).to_dict()


def test_audit_witness_tie_break():
    # Two disjoint maximal lines and two maximal circles.  In each pair the
    # lexicographically smaller index set is completed last when points are
    # taken in index order, and it is met first when sets are taken by
    # their lowest indices, so neither "first completed" nor "last found"
    # gives the expected witness.
    slots = {}
    for idx, p in zip((0, 12, 13), [(7, 61), (10, 68), (19, 89)]):
        slots[idx] = p
    for idx, p in zip((1, 2, 3), [(-29, 17), (-24, 5), (-19, -7)]):
        slots[idx] = p
    for idx, p in zip((4, 9, 10, 11), [(3, 4), (-4, 3), (0, -5), (5, 0)]):
        slots[idx] = p
    for idx, p in zip((5, 6, 7, 8), [(42, 1), (25, -6), (50, -11), (32, -23)]):
        slots[idx] = p
    c = cfg(1, *(slots[i] for i in range(14)))
    report = audit_general_position(c)
    assert (report.max_collinear, report.max_concyclic) == (3, 4)
    assert report.witnesses == {"collinear": (0, 12, 13), "concyclic": (4, 9, 10, 11)}
    assert report.to_dict() == oracle_audit(c).to_dict()
    # the fixture really has two maximal sets of each kind
    lines = [t for t in itertools.combinations(range(14), 3) if collinear(*(c.points[i] for i in t))]
    assert lines == [(0, 12, 13), (1, 2, 3)]
    circles = [
        t
        for t in itertools.combinations(range(14), 4)
        if concyclic(*(c.points[i] for i in t), 1)
        and not any(collinear(*(c.points[i] for i in s)) for s in itertools.combinations(t, 3))
    ]
    assert circles == [(4, 9, 10, 11), (5, 6, 7, 8)]


def test_audit_forty_point_circle_is_fast():
    c = normalize(generate_circle_rds(40))
    start = time.perf_counter()
    report = audit_general_position(c)
    elapsed = time.perf_counter() - start
    assert report.to_dict() == _report(40, 2, 40, False, False, {"concyclic": list(range(40))})
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# inversion


def test_invert_345_at_origin():
    out = invert(TRIANGLE_345, 0)
    assert out.points == (pt(0, 0), LatticePoint(F(1, 3), F(0)), LatticePoint(F(0), F(1, 4)))
    # |phi(A) - phi(B)| = |AB| / (|PA| |PB|) = 5 / 12
    sq = squared_distance(out.points[1], out.points[2], 1)
    assert sq == F(5, 12) ** 2


def test_invert_fixes_unit_distance_points():
    c = cfg(1, (0, 0), (1, 0), (-3, 0))
    out = invert(c, 0)
    assert out.points[1] == pt(1, 0)


def test_invert_is_involution():
    for center in range(TRIANGLE_345.n):
        assert invert(invert(TRIANGLE_345, center), center) == TRIANGLE_345


def test_invert_output_verifies():
    fixtures = [
        TRIANGLE_345,
        UNIT_SQUARE_RDS := cfg(1, (0, 0), (3, 0), (0, 4), (3, 4)),
        cfg(1, (0, 0), (5, 0), (9, 0), (20, 0)),
    ]
    for c in fixtures:
        for center in range(c.n):
            assert verify_rds(invert(c, center)).is_rds


def test_invert_requires_rds():
    with pytest.raises(PlanesetError):
        invert(cfg(1, (0, 0), (1, 0), (0, 1)), 0)


def test_invert_checks_rds_before_the_center_range():
    with pytest.raises(NotRdsMatrixError):
        invert(cfg(1, (0, 0), (1, 0), (0, 1)), 9)
    with pytest.raises(PlanesetError, match="center index 9 out of range for 3 points"):
        invert(TRIANGLE_345, 9)


@st.composite
def scaled_rds(draw):
    """similar_rds for k in {1, 2, 3, 7}, scaled and moved by rationals with denominators up to 10^6."""
    c = draw(similar_rds(ks=(1, 2, 3, 7)))
    s = draw(COORD.filter(bool))
    dx, dy = draw(COORD), draw(COORD)
    points = tuple(LatticePoint(s * p.x + dx, s * p.yc + dy) for p in c.points)
    return Configuration(c.k, points, c.provenance)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PlanesetError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(scaled_rds())
def test_invert_matches_the_fraction_oracle(c):
    # every center, and two out of range; a moved point makes most inputs non-RDS
    for center in [*range(c.n), c.n, -1]:
        got = _outcome(invert, c, center)
        assert got == _outcome(oracle_invert, c, center)
        if isinstance(got, Configuration):
            assert got.to_dict() == oracle_invert(c, center).to_dict()


# ---------------------------------------------------------------------------
# serialization


def test_configuration_json_roundtrip():
    c = cfg(3, (0, 0), (1, 0), provenance="fixture")
    assert Configuration.from_dict(c.to_dict()) == c


@pytest.mark.parametrize(
    "field, bad", [("k", 1.0), ("k", True), ("k", "1"), ("provenance", 5), ("provenance", None)]
)
def test_configuration_from_dict_rejects_ill_typed_fields(field, bad):
    d = cfg(1, (0, 0), (1, 0)).to_dict()
    d[field] = bad
    with pytest.raises(ValueError):
        Configuration.from_dict(d)


def test_distance_matrix_json_roundtrip():
    m = distance_matrix(TRIANGLE_345)
    assert DistanceMatrix.from_dict(m.to_dict()) == m


# ---------------------------------------------------------------------------
# randomized embedding property


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-6, max_value=6),
        ),
        min_size=2,
        max_size=5,
        unique=True,
    )
)
def test_embed_reproduces_matrix_of_collinear_and_grid_rds(coords):
    pts = tuple(LatticePoint(F(x), F(y)) for x, y in coords)
    c = Configuration(1, pts)
    if not verify_rds(c).is_rds:
        return
    m = distance_matrix(c)
    out = embed_from_distances(m)
    got = distance_matrix(out)
    scale = m.entries[0][1]
    for i in range(m.n):
        for j in range(m.n):
            assert got.entries[i][j] == m.entries[i][j] / scale
