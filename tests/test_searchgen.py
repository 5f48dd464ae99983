"""Tests for fixture generators and the bounded-height search."""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdist import searchgen
from ratdist.planeset import (
    Configuration,
    DistanceMatrix,
    LatticePoint,
    NotRdsMatrixError,
    audit_general_position,
    distance_matrix,
    embed_from_distances,
    integer_lattice,
    invert,
    squared_distance,
    squared_numerators,
    verify_rds,
)
from ratdist.searchgen import (
    MAX_CELLS,
    MAX_N,
    Requirement,
    SearchCheckpoint,
    SearchSpec,
    SearchgenError,
    _admissible_order,
    _precedes,
    canonical_form,
    generate_circle_rds,
    generate_line_rds,
    grid_points,
    search,
)

F = Fraction


def brute_canonical_form(c: Configuration) -> Configuration:
    """Oracle: embed every ordering of the points and keep the least (n! cost)."""
    if c.n < 2:
        raise SearchgenError("canonical form needs at least two points")
    m = distance_matrix(c)
    best: Configuration | None = None
    best_key = None
    for perm in itertools.permutations(range(c.n)):
        entries = tuple(tuple(m.entries[i][j] for j in perm) for i in perm)
        cand = embed_from_distances(DistanceMatrix(entries), provenance="canonical")
        key = (cand.k, tuple((p.x, p.yc) for p in cand.points))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    assert best is not None
    return best


def oracle_canonical_form(c: Configuration) -> Configuration:
    """Oracle: the O(n^3 log n) search of ``canonical_form``, with the winning
    order realized by one Fraction ``embed_from_distances`` call instead of
    being read off the integer similarity."""
    if c.n < 2:
        raise SearchgenError("canonical form needs at least two points")
    k = c.k
    _, pts = integer_lattice(c.points)
    best_perm: tuple[int, ...] = ()
    best = None
    best_den = 1
    for a, (ax, ay) in enumerate(pts):
        for b, (bx, by) in enumerate(pts):
            if b == a:
                continue
            ux, uy = bx - ax, by - ay
            den = ux * ux + k * uy * uy
            rest = []
            for i, (x, y) in enumerate(pts):
                if i != a and i != b:
                    dx, dy = x - ax, y - ay
                    rest.append((dx * ux + k * dy * uy, dy * ux - dx * uy, i))
            for mirrored in (rest, [(x, -y, i) for x, y, i in rest]):
                cand = _admissible_order(sorted(mirrored))
                if cand is not None and (best is None or _precedes(cand, den, best, best_den)):
                    best, best_den = cand, den
                    best_perm = (a, b, *(i for _, _, i in cand))
    _, entries = squared_numerators(tuple(c.points[i] for i in best_perm), k)
    return embed_from_distances(DistanceMatrix(entries), provenance="canonical")


def oracle_found(spec: SearchSpec) -> tuple[Configuration, ...]:
    """Unpruned enumeration of every size-target subset of the grid."""
    from ratdist.searchgen import _config_sort_key, _satisfies

    found = {}
    for combo in itertools.combinations(grid_points(spec), spec.target_size):
        cfg = Configuration(spec.k, combo)
        if not verify_rds(cfg).is_rds:
            continue
        if not _satisfies(cfg, spec.require):
            continue
        canon = brute_canonical_form(cfg)
        found.setdefault(_config_sort_key(canon), canon)
    return tuple(found[key] for key in sorted(found))


# ---------------------------------------------------------------------------
# generators


def test_generate_line_rds():
    c = generate_line_rds(3, [0, 1, 2])
    assert verify_rds(c).is_rds
    assert audit_general_position(c).max_collinear == 3
    assert generate_line_rds(1, [5]).n == 1
    with pytest.raises(SearchgenError):
        generate_line_rds(2, [1, 1])
    with pytest.raises(SearchgenError):
        generate_line_rds(3, [1, 2])


def test_generate_circle_rds_first_triple_point():
    c = generate_circle_rds(2)
    assert c.points[0] == LatticePoint(F(1), F(0))
    assert c.points[1] == LatticePoint(F(-7, 25), F(24, 25))
    # chord to the anchor: 2 sin(theta) = 8/5
    assert squared_distance(c.points[0], c.points[1], 1) == F(8, 5) ** 2


def test_generate_circle_rds_verifies_and_is_concyclic():
    for n in (3, 5, 8):
        c = generate_circle_rds(n)
        assert verify_rds(c).is_rds
        assert all(p.x**2 + p.yc**2 == 1 for p in c.points)
        report = audit_general_position(c)
        assert report.max_concyclic == n
        if n >= 4:
            assert not report.strong_ok


def oracle_circle_rds(n: int, parameter_bound: int) -> Configuration:
    """The circle generator with a bound on the Euclid parameter m: the
    scan stops after n points or after every pair (m, n) with m up to the
    bound, and too few triples are refused."""
    if n < 1:
        raise SearchgenError("need at least one point")
    if n > MAX_N:
        raise SearchgenError(f"n={n} exceeds the supported maximum MAX_N={MAX_N}")
    triples = (
        (m * m - q * q, 2 * m * q, m * m + q * q)
        for m in range(2, parameter_bound + 1)
        for q in range(1, m)
        if (m - q) % 2 == 1 and math.gcd(m, q) == 1
    )
    points: list[LatticePoint] = [LatticePoint(F(1), F(0))]
    for a, b, c in triples:
        if len(points) == n:
            break
        cos_t, sin_t = F(a, c), F(b, c)
        points.append(LatticePoint(1 - 2 * sin_t * sin_t, 2 * sin_t * cos_t))
    if len(points) < n:
        raise SearchgenError(
            f"not enough primitive triples with parameter <= {parameter_bound} for {n} points"
        )
    return Configuration(1, tuple(points[:n]), provenance="circle-rds")


def _circle_capacity(parameter_bound: int) -> int:
    # the largest n the bounded oracle accepts: the anchor plus every triple
    return 1 + sum(
        1 for m in range(2, parameter_bound + 1) for q in range(1, m) if (m - q) % 2 == 1 and math.gcd(m, q) == 1
    )


@pytest.mark.parametrize("bound", [5, 10])
def test_generate_circle_rds_matches_the_bounded_oracle_at_every_n(bound):
    top = _circle_capacity(bound)
    for n in range(1, top + 1):
        assert generate_circle_rds(n) == oracle_circle_rds(n, bound)
    with pytest.raises(SearchgenError, match="not enough primitive triples"):
        oracle_circle_rds(top + 1, bound)


def test_generate_circle_rds_matches_the_bounded_oracle_at_its_default_bound():
    # the oracle's old default refused n above 8157; each generated set is
    # a prefix of the largest, so the sampled n and both ends cover the rest
    top = _circle_capacity(200)
    assert top == 8157
    largest = generate_circle_rds(top)
    assert largest == oracle_circle_rds(top, 200)
    rng = random.Random(25)
    for n in [1, 2, 3, top - 1, *rng.sample(range(4, top - 1), 20)]:
        assert generate_circle_rds(n).points == largest.points[:n]
    with pytest.raises(SearchgenError, match="not enough primitive triples"):
        oracle_circle_rds(top + 1, 200)


def test_generate_circle_rds_at_the_maximum_matches_the_oracle():
    assert generate_circle_rds(MAX_N) == oracle_circle_rds(MAX_N, 300)


def test_generators_refuse_n_above_the_maximum_before_reading_offsets():
    def unread():
        raise AssertionError("offsets were read")
        yield

    for n in (MAX_N + 1, 10**18):
        with pytest.raises(SearchgenError, match="MAX_N"):
            generate_line_rds(n, unread())
        with pytest.raises(SearchgenError, match="MAX_N"):
            generate_circle_rds(n)


def test_generators_accept_n_up_to_the_maximum():
    assert generate_line_rds(MAX_N, range(MAX_N)).n == MAX_N
    assert generate_circle_rds(MAX_N).n == MAX_N


def test_generate_circle_rds_stops_after_n_points():
    # the scan has no bound of its own: it stops once n points are found
    start = time.perf_counter()
    assert generate_circle_rds(8) == oracle_circle_rds(8, 10**18)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_of_345_class():
    reps = [
        Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(4)))),
        Configuration(1, (LatticePoint(F(0), F(4)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(0)))),
        Configuration(1, (LatticePoint(F(1), F(1)), LatticePoint(F(7), F(1)), LatticePoint(F(1), F(9)))),  # translated 6-8-10
    ]
    canon = {canonical_form(c) for c in reps}
    assert len(canon) == 1
    rep = canon.pop()
    assert rep.points[0] == LatticePoint(F(0), F(0))
    assert rep.points[1] == LatticePoint(F(1), F(0))


def test_canonical_form_idempotent():
    c = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(4))))
    once = canonical_form(c)
    assert canonical_form(once) == once


def test_canonical_form_quotients_reflection():
    a = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(4))))
    b = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(-4))))
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_sign_rule_defers_lower_points():
    # Under the winning anchors the two points with least x are mirror images,
    # so the plain sorted order would put a point below the axis first.
    c = Configuration(
        1,
        tuple(
            LatticePoint(F(x), F(y)) for x, y in ((-4, -1), (0, -4), (0, -1), (0, 2), (4, -1))
        ),
    )
    assert canonical_form(c) == brute_canonical_form(c)


def test_canonical_form_rejects_non_rds():
    c = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(1), F(0)), LatticePoint(F(1), F(1))))
    with pytest.raises(NotRdsMatrixError):
        brute_canonical_form(c)
    with pytest.raises(NotRdsMatrixError):
        canonical_form(c)
    with pytest.raises(SearchgenError):
        canonical_form(Configuration(1, (LatticePoint(F(0), F(0)),)))


def test_canonical_form_large_circle_is_polynomial():
    # the n! oracle needs about 40 s here; the similarity transform needs ms
    c = generate_circle_rds(8)
    start = time.perf_counter()
    canon = canonical_form(c)
    assert time.perf_counter() - start < 1.0
    assert canon.points[:2] == (LatticePoint(F(0), F(0)), LatticePoint(F(1), F(0)))
    moved = Configuration(
        1, tuple(LatticePoint(3 * p.x + F(1, 2), 5 - 3 * p.yc) for p in reversed(c.points))
    )
    assert canonical_form(moved) == canon


def _differential_hits(monkeypatch, spec: SearchSpec, oracle=brute_canonical_form) -> int:
    """Run ``spec`` checking every raw hit's canonical form against ``oracle``."""
    fast = searchgen.canonical_form
    hits = []

    def checked(c: Configuration) -> Configuration:
        got = fast(c)
        want = oracle(c)
        assert got == want, c
        assert got.to_dict() == want.to_dict(), c
        hits.append(c)
        return got

    monkeypatch.setattr(searchgen, "canonical_form", checked)
    search(spec)
    return len(hits)


def test_canonical_form_matches_oracle_on_criterion_9_hits(monkeypatch):
    assert _differential_hits(monkeypatch, SearchSpec(1, 4, 1, 3)) == 1872


@pytest.mark.parametrize("k", [2, 7])
def test_canonical_form_matches_oracle_on_k_hits(monkeypatch, k):
    assert _differential_hits(monkeypatch, SearchSpec(k, 4, 1, 3)) > 0


@pytest.mark.parametrize(
    "spec, raw_hits",
    [
        (SearchSpec(1, 4, 1, 3), 1872),
        (SearchSpec(1, 3, 2, 3), 4610),
        (SearchSpec(1, 4, 1, 3, Requirement.STRONG), 348),
        (SearchSpec(2, 4, 1, 3), 1160),
        (SearchSpec(7, 4, 1, 3), 1038),
    ],
)
def test_canonical_form_matches_embedding_oracle_on_raw_hits(monkeypatch, spec, raw_hits):
    assert _differential_hits(monkeypatch, spec, oracle_canonical_form) == raw_hits


def test_canonical_form_of_two_points():
    for k, far in ((1, (F(2), F(5))), (7, (F(8), F(2)))):
        c = Configuration(k, (LatticePoint(F(5), F(1)), LatticePoint(*far)))
        canon = canonical_form(c)
        assert canon.k == 1
        assert canon.points == (LatticePoint(F(0), F(0)), LatticePoint(F(1), F(0)))
        assert canon == oracle_canonical_form(c)


@pytest.mark.parametrize(
    "k, step, offsets",
    # |step|^2 = dx^2 + k*dy^2 is a square: 1 + 2*2^2 = 3^2 and 3^2 + 7*1^2 = 4^2
    [(2, (1, 2), (0, 1, 3)), (7, (3, 1), (-2, 0, 1, 5)), (2, (-1, 2), (4, 1, 0, -5, 2))],
)
def test_canonical_form_of_collinear_k_lattice_set_has_k_1(k, step, offsets):
    c = Configuration(k, tuple(LatticePoint(1 + t * step[0], F(1, 3) + t * step[1]) for t in offsets))
    canon = canonical_form(c)
    assert canon.k == 1
    assert all(p.yc == 0 for p in canon.points)
    assert canon == oracle_canonical_form(c)


def test_canonical_form_rejects_a_non_rds_whose_bad_pair_is_not_an_anchor_pair():
    # every pair but (2,3) is rational; the bad pair is sqrt(17)
    c = Configuration(1, tuple(LatticePoint(F(x), F(y)) for x, y in ((0, 0), (0, 3), (0, 1), (4, 0))))
    assert [(i, j) for i, j, _ in verify_rds(c).failing_pairs] == [(2, 3)]
    with pytest.raises(NotRdsMatrixError):
        oracle_canonical_form(c)
    with pytest.raises(NotRdsMatrixError, match="not a rational square"):
        canonical_form(c)


CIRCLE = generate_circle_rds(8)


@st.composite
def small_rds(draw):
    family = draw(st.sampled_from(["circle", "inverted", "line"]))
    n = draw(st.integers(min_value=2, max_value=6))
    if family == "line":
        offsets = draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=n, max_size=n, unique=True,
            )
        )
        return generate_line_rds(n, offsets)
    picks = draw(st.permutations(range(CIRCLE.n)))[:n]
    c = Configuration(1, tuple(CIRCLE.points[i] for i in picks))
    if family == "inverted":
        c = invert(c, draw(st.integers(min_value=0, max_value=n - 1)))
    return c


@settings(max_examples=30, deadline=None)
@given(small_rds())
def test_canonical_form_matches_oracle_on_fixtures(c):
    assert canonical_form(c) == brute_canonical_form(c)


# non-collinear classes that the k=2 and k=7 (4,1,3) searches find
K_LATTICE_RDS = tuple(
    Configuration(k, (LatticePoint(F(0), F(0)), LatticePoint(F(1), F(0)), LatticePoint(x, yc)))
    for k, x, yc in (
        (2, F(-3, 4), F(3, 2)), (2, F(-2, 5), F(4, 5)), (2, F(2, 9), F(4, 9)),
        (7, F(-1, 8), F(3, 8)), (7, F(1, 32), F(3, 32)), (7, F(18, 121), F(24, 121)),
    )
)


@st.composite
def similar_copy(draw):
    """A fixture RDS and a random similar copy of it.

    The rotation multiplies by (u + v*sqrt(-k))/w with u = m^2 - k*n^2,
    v = 2mn and w = m^2 + k*n^2, so that u^2 + k*v^2 = w^2 keeps every
    distance rational; then come a rational scale, a translation, an
    optional reflection in the x-axis and a shuffle of the points.
    """
    c = draw(st.one_of(small_rds(), st.sampled_from(K_LATTICE_RDS)))
    k = c.k
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0 if m else 1, max_value=6))
    u, v, w = m * m - k * n * n, 2 * m * n, m * m + k * n * n
    scale = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    tx, ty = draw(st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=6)] * 2))
    sign = draw(st.sampled_from((1, -1)))
    moved = [
        LatticePoint(
            scale * (p.x * u - k * p.yc * v) / w + tx,
            sign * (scale * (p.x * v + p.yc * u) / w + ty),
        )
        for p in c.points
    ]
    return c, Configuration(k, draw(st.permutations(moved)))


@settings(max_examples=60, deadline=None)
@given(similar_copy())
def test_canonical_form_of_a_similar_copy_is_unchanged(pair):
    c, copy = pair
    assert verify_rds(copy).is_rds
    canon = canonical_form(copy)
    assert canon == canonical_form(c)
    assert canon == oracle_canonical_form(copy)


# ---------------------------------------------------------------------------
# search


TINY = SearchSpec(k=1, numerator_bound=2, denominator_bound=1, target_size=3)
DESK = SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=3)


def test_spec_validation():
    with pytest.raises(SearchgenError):
        SearchSpec(k=1, numerator_bound=0, denominator_bound=1, target_size=3)
    with pytest.raises(SearchgenError):
        SearchSpec(k=1, numerator_bound=1, denominator_bound=1, target_size=2)
    with pytest.raises(SearchgenError):
        SearchSpec(k=12, numerator_bound=1, denominator_bound=1, target_size=3)


def test_spec_cell_cap_keeps_the_largest_measured_specs():
    assert MAX_CELLS == 10_000
    # (30,1,3) is the largest spec timed so far; (49,1,3) has 99^2 = 9,801 cells
    for n in (30, 49):
        SearchSpec(k=1, numerator_bound=n, denominator_bound=1, target_size=3)
    with pytest.raises(SearchgenError, match="MAX_CELLS=10000"):
        SearchSpec(k=1, numerator_bound=50, denominator_bound=1, target_size=3)


@pytest.mark.parametrize(
    "bounds", [(3000, 1), (10**6, 1), (10**9, 1), (10**18, 1), (1, 10**9), (10**18, 10**18)]
)
def test_spec_cell_cap_refuses_before_enumerating(monkeypatch, bounds):
    # from the lower bound (2 max(N, D) + 1)^2 alone: no grid value is listed
    def no_grid(spec):
        raise AssertionError("grid values listed")

    monkeypatch.setattr(searchgen, "_grid_values", no_grid)
    with pytest.raises(SearchgenError, match="MAX_CELLS"):
        SearchSpec(k=1, numerator_bound=bounds[0], denominator_bound=bounds[1], target_size=3)


def test_spec_cell_cap_is_inclusive(monkeypatch):
    # (2,2,3) has 7 values per axis, -2, -1, -1/2, 0, 1/2, 1, 2, so 49 cells
    # against a lower bound of 25: the exact count decides at 48 and 49
    assert len(grid_points(SearchSpec(1, 2, 2, 3))) == 49
    monkeypatch.setattr(searchgen, "MAX_CELLS", 49)
    SearchSpec(1, 2, 2, 3)
    monkeypatch.setattr(searchgen, "MAX_CELLS", 48)
    with pytest.raises(SearchgenError, match="at least 49 cells"):
        SearchSpec(1, 2, 2, 3)
    # at a cap equal to the lower bound, the exact count still decides
    monkeypatch.setattr(searchgen, "MAX_CELLS", 25)
    with pytest.raises(SearchgenError, match="at least 49 cells"):
        SearchSpec(1, 2, 2, 3)
    monkeypatch.setattr(searchgen, "MAX_CELLS", 48)
    # (3,1,3) is refused by its lower bound, 7^2 = 49, at 48 and kept at 49
    with pytest.raises(SearchgenError, match="at least 49 cells"):
        SearchSpec(1, 3, 1, 3)
    monkeypatch.setattr(searchgen, "MAX_CELLS", 49)
    SearchSpec(1, 3, 1, 3)


def test_grid_is_sorted_and_sized():
    grid = grid_points(TINY)
    assert len(grid) == 25
    assert list(grid) == sorted(grid)


def test_search_matches_oracle_tiny():
    result = search(TINY)
    assert result.complete()
    assert result.found == oracle_found(TINY)
    assert all(verify_rds(c).is_rds for c in result.found)


def test_search_345_class_is_found():
    result = search(DESK)
    triangle = Configuration(
        1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(4)))
    )
    assert canonical_form(triangle) in result.found


def test_search_requirement_filter():
    strong = search(SearchSpec(1, 2, 1, 3, Requirement.STRONG))
    assert strong.complete()
    for c in strong.found:
        assert audit_general_position(c).strong_ok
    anyr = search(TINY)
    assert set(strong.found) <= set(anyr.found)
    assert any(audit_general_position(c).max_collinear == 3 for c in anyr.found)


def test_search_resume_equals_fresh():
    fresh = search(TINY)
    part = search(TINY, max_cells=7)
    assert not part.complete()
    assert part.remaining_cells() == 25 - 7
    resumed = search(checkpoint=part)
    assert resumed.complete()
    assert resumed.found == fresh.found
    assert resumed.exhausted_ranges == ((0, 25),)


def test_search_checkpoint_roundtrip_bit_exact():
    part = search(TINY, max_cells=5)
    blob = json.dumps(part.to_dict(), sort_keys=True)
    restored = SearchCheckpoint.from_dict(json.loads(blob))
    assert restored == part
    assert json.dumps(restored.to_dict(), sort_keys=True) == blob


def test_search_checkpoint_spec_mismatch():
    part = search(TINY, max_cells=2)
    with pytest.raises(SearchgenError):
        search(DESK, checkpoint=part)


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=3),
        SearchSpec(k=1, numerator_bound=3, denominator_bound=2, target_size=3),
        SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=3, require=Requirement.STRONG),
        SearchSpec(k=2, numerator_bound=4, denominator_bound=1, target_size=3),
        SearchSpec(k=7, numerator_bound=4, denominator_bound=1, target_size=3),
    ],
)
def test_checkpoint_found_classes_round_trip(spec):
    done = search(spec)
    assert done.found
    if spec.k != 1:  # collinear classes come back with k = 1
        assert {c.k for c in done.found} == {1, spec.k}
    assert SearchCheckpoint.from_dict(json.loads(json.dumps(done.to_dict()))) == done


TRIANGLE = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(1), F(0)), LatticePoint(F(0), F(1))))
RIGHT_345 = Configuration(1, (LatticePoint(F(0), F(0)), LatticePoint(F(3), F(0)), LatticePoint(F(0), F(4))))


@pytest.mark.parametrize(
    "spec, found, message",
    [
        # the k=1 triangle (its diagonal is sqrt(2)) under a k=2 spec
        (SearchSpec(k=2, numerator_bound=4, denominator_bound=1, target_size=3), TRIANGLE, "has k=1"),
        (SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=3), TRIANGLE, "not a rational"),
        (SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=4), RIGHT_345, "3 points"),
        (
            SearchSpec(k=1, numerator_bound=4, denominator_bound=1, target_size=3, require=Requirement.STRONG),
            generate_line_rds(3, [0, 1, 2]),
            "fails the requirement",
        ),
    ],
)
def test_checkpoint_rejects_found_classes_the_spec_cannot_return(spec, found, message):
    blob = SearchCheckpoint(spec, (found,), ()).to_dict()
    with pytest.raises(SearchgenError, match=message):
        SearchCheckpoint.from_dict(blob)


NINE_CELLS = SearchSpec(k=1, numerator_bound=1, denominator_bound=1, target_size=3)


@pytest.mark.parametrize(
    "ranges",
    [((0, 10**7),), ((0, 10**12),), ((-5, 3),), ((100, 200),), ((7, 2),), ((4, 4),),
     ((0, 9), (8, 10))],
)
def test_checkpoint_rejects_ranges_outside_the_grid(ranges):
    start = time.perf_counter()
    with pytest.raises(SearchgenError, match="9 grid cells"):
        SearchCheckpoint(NINE_CELLS, (), ranges)
    assert time.perf_counter() - start < 0.5


def test_checkpoint_accepts_ranges_within_the_grid():
    cp = SearchCheckpoint(NINE_CELLS, (), ((0, 3), (2, 5), (8, 9)))
    assert cp.remaining_cells() == 9 - 6
    assert search(checkpoint=cp).exhausted_ranges == ((0, 9),)
    assert SearchCheckpoint(NINE_CELLS, (), ((0, 9),)).complete()


def test_search_progress_events():
    events = []
    search(TINY, progress=events.append)
    assert len(events) == 25
    assert all(e["event"] == "cell" for e in events)


@pytest.mark.parametrize("workers", [1, 2, 8, 10**6])
def test_search_workers_change_nothing(workers):
    # one "cell" event per cell, in cell order; the search runs in this
    # process, so even a million workers start none
    serial, events = [], []
    expected = search(TINY, max_cells=19, progress=serial.append)
    result = search(TINY, workers=workers, max_cells=19, progress=events.append)
    assert result == expected
    assert events == serial
    assert [e["cell"] for e in events] == list(range(19))
    assert events[-1]["classes"] == len(result.found)


@pytest.mark.parametrize("workers", [0, -3])
def test_search_rejects_workers_below_one(workers):
    with pytest.raises(SearchgenError, match="workers must be at least 1"):
        search(TINY, workers=workers)


def test_search_rejects_negative_max_cells():
    with pytest.raises(SearchgenError, match="max_cells"):
        search(TINY, max_cells=-1)
    assert search(TINY, max_cells=0).exhausted_ranges == ()


def test_search_that_processes_no_cell_tests_no_pair(monkeypatch):
    full, part = search(TINY), search(TINY, max_cells=7)

    def refuse(lattice, k, squares, i):
        raise AssertionError(f"adjacency row {i} was built")

    monkeypatch.setattr(searchgen, "_adjacency_row", refuse)
    events = []
    empty = search(TINY, max_cells=0, progress=events.append)
    assert empty.to_dict() == {"spec": TINY.to_dict(), "found": [], "exhausted_ranges": []}
    assert search(checkpoint=part, max_cells=0, progress=events.append) == part
    assert search(checkpoint=full, progress=events.append) == full
    assert events == []


def test_search_found_all_satisfy_requirement_invariant():
    result = search(SearchSpec(1, 3, 1, 3, Requirement.LITERAL))
    for c in result.found:
        assert verify_rds(c).is_rds
        assert audit_general_position(c).literal_ok


# ---------------------------------------------------------------------------
# adjacency rows and the difference table


def _spy_rows(monkeypatch) -> list:
    """Record (cell, difference table) for every adjacency row built."""
    real = searchgen._adjacency_row
    built = []

    def spy(lattice, k, squares, i):
        built.append((i, squares))
        return real(lattice, k, squares, i)

    monkeypatch.setattr(searchgen, "_adjacency_row", spy)
    return built


def _neighbours(spec: SearchSpec, cell: int) -> list[int]:
    """Oracle: the higher cells at rational distance from ``cell``."""
    grid = grid_points(spec)
    out = []
    for j in range(cell + 1, len(grid)):
        d = squared_distance(grid[cell], grid[j], spec.k)
        if all(math.isqrt(n) ** 2 == n for n in (d.numerator, d.denominator)):
            out.append(j)
    return out


@pytest.mark.parametrize(
    "spec, first",
    [
        (SearchSpec(1, 30, 1, 3), 0),
        (SearchSpec(1, 30, 1, 3, Requirement.STRONG), 0),
        (SearchSpec(2, 4, 1, 3), 0),
        (SearchSpec(1, 4, 1, 3), 40),
        (SearchSpec(1, 3, 2, 3), 17),
    ],
)
def test_max_cells_builds_rows_only_for_the_cells_the_call_reaches(monkeypatch, spec, first):
    # a target-3 clique grows past its second cell only while another
    # neighbour of the first cell is left: the last neighbour's row is unread
    built = _spy_rows(monkeypatch)
    checkpoint = SearchCheckpoint(spec, (), ((0, first),) if first else ())
    start = time.perf_counter()
    search(checkpoint=checkpoint, max_cells=1)
    assert time.perf_counter() - start < 3  # every (30,1,3) row: about 9 s
    assert [i for i, _ in built] == [first] + _neighbours(spec, first)[:-1]
    built.clear()
    search(checkpoint=checkpoint, max_cells=0)
    assert built == []


def test_difference_table_tests_each_absolute_difference_once(monkeypatch):
    built = _spy_rows(monkeypatch)
    real = searchgen.rational_sqrt
    tested = []
    monkeypatch.setattr(searchgen, "rational_sqrt", lambda n: tested.append(n) or real(n))
    search(TINY)
    assert sorted(i for i, _ in built) == list(range(25))
    squares = built[0][1]
    assert all(table is squares for _, table in built)  # one table per call
    _, lattice = integer_lattice(grid_points(TINY))
    differences = {
        (abs(x - u), abs(y - v)) for i, (x, y) in enumerate(lattice) for u, v in lattice[i + 1 :]
    }
    assert len(differences) == 24  # 0..4 on each axis, less (0, 0)
    assert set(squares) == differences
    assert len(tested) == len(differences)
    assert squares == {(dx, dy): math.isqrt(dx * dx + dy * dy) ** 2 == dx * dx + dy * dy for dx, dy in differences}


# ---------------------------------------------------------------------------
# strong general position inside the clique search


def _brute_line(lattice, c, j) -> int:
    (px, py), (qx, qy) = lattice[c], lattice[j]
    return sum(
        1 << i for i, (x, y) in enumerate(lattice) if (x - px) * (qy - py) == (y - py) * (qx - px)
    )


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(1, 2, 1, 3),  # the 5 x 5 box
        SearchSpec(1, 2, 2, 3),  # D = 2: 9 values, lattice -4..4
        SearchSpec(1, 1, 3, 3),  # D = 3: lattice -6, -3, -2, 0, 2, 3, 6
        SearchSpec(7, 3, 1, 3),
    ],
)
def test_line_bitsets_match_a_brute_force_collinearity_scan(spec):
    _, lattice = integer_lattice(grid_points(spec))
    lines = searchgen._Lines(lattice)
    for c, j in itertools.combinations(range(len(lattice)), 2):
        assert lines.through(c, j) == _brute_line(lattice, c, j), (c, j)
    # one bitset per line, however many of its pairs asked for it
    assert len(lines.bits) == len({_brute_line(lattice, c, j) for c, j in itertools.combinations(range(len(lattice)), 2)})


def test_line_bitsets_cover_the_box_edges():
    # cell u*5 + v of the 5 x 5 box is (u - 2, v - 2)
    _, lattice = integer_lattice(grid_points(SearchSpec(1, 2, 1, 3)))
    lines = searchgen._Lines(lattice)

    def cells(c, j):
        bits = lines.through(c, j)
        return [i for i in range(25) if bits >> i & 1]

    assert cells(0, 24) == [0, 6, 12, 18, 24]  # corner to corner
    assert cells(4, 20) == [4, 8, 12, 16, 20]  # the other diagonal
    assert cells(0, 1) == [0, 1, 2, 3, 4]  # vertical, along the left edge
    assert cells(20, 24) == [20, 21, 22, 23, 24]  # vertical, along the right edge
    assert cells(0, 5) == [0, 5, 10, 15, 20]  # horizontal, along the bottom edge
    assert cells(9, 24) == [4, 9, 14, 19, 24]  # horizontal, along the top edge
    assert cells(0, 7) == [0, 7, 14]  # steep: direction (1, 2)
    assert cells(0, 11) == [0, 11, 22]  # shallow: direction (2, 1)
    assert cells(4, 13) == [4, 13, 22]  # descending: direction (2, -1)
    assert cells(0, 9) == [0, 9]  # direction (1, 4) meets the box twice
    assert cells(1, 9) == [1, 9]  # direction (1, 3), from the left edge to the top edge
    assert cells(3, 16) == [3, 16]  # direction (3, -2)


STRONG_DIFFERENTIAL = [
    SearchSpec(k, n, d, t, Requirement.STRONG)
    for k in (1, 2, 7)
    for n, d in ((2, 1), (1, 2))
    for t in (3, 4, 5)
] + [
    SearchSpec(k, n, d, 3, Requirement.STRONG) for k in (1, 2, 7) for n, d in ((3, 1), (2, 2))
]


@pytest.mark.parametrize("spec", STRONG_DIFFERENTIAL, ids=lambda s: "{k},{numerator_bound},{denominator_bound},{target_size}".format(**s.to_dict()))
def test_strong_search_matches_the_unpruned_oracle(spec):
    assert search(spec).found == oracle_found(spec)


def test_strong_search_keeps_the_leaf_check_for_concyclic_points():
    # the 3 x 4 rectangle has no three points collinear but is concyclic
    spec = SearchSpec(1, 2, 1, 4)
    rectangle = canonical_form(
        Configuration(1, tuple(LatticePoint(F(x), F(y)) for x, y in ((0, 0), (3, 0), (0, 4), (3, 4))))
    )
    assert rectangle in search(spec).found
    assert rectangle not in search(SearchSpec(1, 2, 1, 4, Requirement.STRONG)).found


def _cut_transcript(spec: SearchSpec) -> str:
    """Digest of every cut's checkpoint, its resumed result and their progress events."""
    h = hashlib.sha256()
    for cut in range(len(grid_points(spec)) + 1):
        events = []
        part = search(spec, max_cells=cut, progress=events.append)
        blob = json.dumps(part.to_dict(), sort_keys=True)
        done = search(checkpoint=SearchCheckpoint.from_dict(json.loads(blob)), progress=events.append)
        for text in (blob, json.dumps(done.to_dict(), sort_keys=True), *map(json.dumps, events)):
            h.update(text.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize(
    "spec, digest",
    # recorded from the search that rejected collinear cliques only at the leaf
    [
        (SearchSpec(1, 4, 1, 3, Requirement.STRONG), "893f8b0b63211284484fed31eac199e0b34f960d0bfeff59d9b767f9a158b61b"),
        (SearchSpec(1, 2, 2, 3, Requirement.STRONG), "2cff07f5a4de5a7553d96eaa952569879d37487e69e27610a7441a4fe23e4640"),
        (SearchSpec(2, 3, 1, 3, Requirement.STRONG), "005ac6a4e8b0aa04ff4b6b83d86bec58ca960923c7f8b492b64b8a1752ced889"),
    ],
)
def test_strong_search_cuts_and_resumes_are_unchanged(spec, digest):
    assert _cut_transcript(spec) == digest


@pytest.mark.parametrize("numerator_bound", [4, 6])
def test_strong_search_audits_no_clique_with_three_collinear_points(monkeypatch, numerator_bound):
    real = searchgen._satisfies
    leaves = []

    def spy(c, require):
        leaves.append(c)
        return real(c, require)

    monkeypatch.setattr(searchgen, "_satisfies", spy)
    search(SearchSpec(1, numerator_bound, 1, 4, Requirement.STRONG))
    assert leaves
    assert max(audit_general_position(c).max_collinear for c in leaves) == 2
