"""Tests for the quadric system, lifting, census, and the certificate."""

import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import ImQuadElement, omega, parse_rational, rational_sqrt
from ratdist.planeset import Configuration, LatticePoint, squared_distance
from ratdist.surfacelift import (
    MAX_M,
    GeneralTypeCertificate,
    LiftedPoint,
    NotAmpleError,
    NotEquidistantError,
    QuadricSystem,
    SingularityRecord,
    SurfaceliftError,
    build_surface,
    certify_V,
    check_general_type,
    jacobian_spot_check,
    lift_point,
    project_point,
    singularity_census,
    surface_invariants,
    verify_on_surface,
    _block_rank,
)

F = Fraction


def pt(x, yc=0) -> LatticePoint:
    return LatticePoint(F(x), F(yc))


RECT = Configuration(1, (pt(0, 0), pt(3, 0), pt(0, 4), pt(3, 4)))
RECT_SYS = build_surface(RECT, [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# construction


def test_build_surface_rectangle():
    assert RECT_SYS.m == 4 and RECT_SYS.k == 1
    assert RECT_SYS.base == RECT.points


def test_build_surface_needs_four_points():
    with pytest.raises(NotAmpleError):
        build_surface(RECT, [0, 1, 2])


def test_build_surface_rejects_duplicates_and_bad_indices():
    with pytest.raises(SurfaceliftError):
        build_surface(RECT, [0, 1, 2, 2])
    with pytest.raises(SurfaceliftError):
        build_surface(RECT, [0, 1, 2, 7])


def test_quadric_system_rejects_coincident_base():
    with pytest.raises(SurfaceliftError):
        QuadricSystem(2, 1, (pt(0, 0), pt(0, 0)))


# ---------------------------------------------------------------------------
# lifting


def test_lift_origin_of_rectangle():
    lifted = lift_point(pt(0, 0), RECT_SYS)
    assert lifted.coords == (F(0), F(0), F(1), F(0), F(3), F(4), F(5))


def test_lift_base_point_has_zero_distance():
    lifted = lift_point(pt(3, 4), RECT_SYS)
    assert lifted.coords[3 + 3] == 0
    assert lifted.coords[3 + 0] == 5


def test_lift_rejects_non_square_distance():
    with pytest.raises(NotEquidistantError) as err:
        lift_point(pt(1, 0), RECT_SYS)
    assert err.value.index == 3  # base point (0, 4): squared distance 17


def test_verify_on_surface_roundtrip_perturb_scale():
    lifted = lift_point(pt(0, 0), RECT_SYS)
    assert verify_on_surface(lifted, RECT_SYS)
    bad = LiftedPoint(lifted.coords[:-1] + (lifted.coords[-1] + 1,))
    assert not verify_on_surface(bad, RECT_SYS)
    doubled = LiftedPoint(tuple(2 * c for c in lifted.coords))
    assert verify_on_surface(doubled, RECT_SYS)


def test_verify_on_surface_checks_length():
    with pytest.raises(SurfaceliftError, match="expected 7 homogeneous coordinates, got 3"):
        verify_on_surface(LiftedPoint((F(1), F(0), F(1))), RECT_SYS)
    # the zero vector is no point of projective space (the Fraction loop
    # called it on V)
    with pytest.raises(SurfaceliftError, match="cannot all vanish"):
        verify_on_surface(LiftedPoint((F(0),) * 7), RECT_SYS)


def test_project_roundtrip():
    lifted = lift_point(pt(3, 4), RECT_SYS)
    assert project_point(lifted) == pt(3, 4)
    with pytest.raises(SurfaceliftError):
        project_point(LiftedPoint((F(1), F(2), F(0), F(1), F(1), F(1), F(1))))


def oracle_lift_point(p: LatticePoint, sys: QuadricSystem) -> LiftedPoint:
    """One Fraction squared distance and one rational_sqrt per base point."""
    coords = [p.x, p.yc, Fraction(1)]
    for j, base in enumerate(sys.base, start=1):
        sq = squared_distance(p, base, sys.k)
        s = rational_sqrt(sq)
        if s is None:
            raise NotEquidistantError(
                f"not rationally equidistant: squared distance {sq} to base point "
                f"{j} is not a rational square",
                j,
            )
        coords.append(s)
    return LiftedPoint(tuple(coords))


COORD = st.integers(-6, 6).map(F) | st.fractions(-50, 50, max_denominator=10**6)


@st.composite
def equidistant_points(draw):
    """k, a point p and up to five base points at rational distances from p.

    Base point j is p + s_j*w_j^2/|w_j|^2 with w_j = a + b*sqrt(-k), at
    distance |s_j| from p; the base points are seldom at rational distances
    from each other, and the extra points seldom from any base point.
    """
    k = draw(st.sampled_from([1, 2, 3, 7]))
    p = LatticePoint(draw(COORD), draw(COORD))
    base = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any))
        s, norm = draw(COORD.filter(bool)), a * a + k * b * b
        q = LatticePoint(p.x + s * F(a * a - k * b * b, norm), p.yc + s * F(2 * a * b, norm))
        if q not in base:
            base.append(q)
    extra = draw(st.lists(st.builds(LatticePoint, COORD, COORD), max_size=2))
    return k, p, base, extra


def _lift_outcome(fn, p, system):
    try:
        return fn(p, system)
    except NotEquidistantError as err:
        return type(err), err.index, str(err)


@settings(max_examples=150, deadline=None)
@given(equidistant_points())
def test_lift_point_matches_the_fraction_oracle(drawn):
    k, p, base, extra = drawn
    # every choice of base points, in drawn order, and every point drawn
    for m in range(1, len(base) + 1):
        for chosen in itertools.combinations(base, m):
            system = QuadricSystem(m, k, chosen)
            for q in [p, *base, *extra]:
                got = _lift_outcome(lift_point, q, system)
                assert got == _lift_outcome(oracle_lift_point, q, system)
                if isinstance(got, LiftedPoint):
                    assert got.to_list() == oracle_lift_point(q, system).to_list()
            assert isinstance(_lift_outcome(lift_point, p, system), LiftedPoint)


def oracle_verify_on_surface(point: LiftedPoint, system: QuadricSystem) -> bool:
    """One Fraction quadric relation r_j^2 = dx^2 + k*dy^2 per base point."""
    if len(point.coords) != 3 + system.m:
        raise SurfaceliftError(
            f"expected {3 + system.m} homogeneous coordinates, got {len(point.coords)}"
        )
    x, y, z = point.coords[:3]
    for j, base in enumerate(system.base):
        r = point.coords[3 + j]
        dx = x - base.x * z
        dy = y - base.yc * z
        if r * r != dx * dx + system.k * dy * dy:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(equidistant_points(), COORD.filter(bool), st.integers(0, 7), COORD.filter(bool))
def test_verify_on_surface_matches_the_fraction_oracle(drawn, scale, which, delta):
    # lifted points, scaled by a rational, with one coordinate perturbed,
    # and each extra point given the lifted distances; base points carry
    # denominators, k ranges over 1, 2, 3 and 7
    k, p, base, extra = drawn
    for m in range(1, len(base) + 1):
        system = QuadricSystem(m, k, tuple(base[:m]))
        lifted = lift_point(p, system)
        coords = list(lifted.coords)
        coords[which % len(coords)] += delta
        points = [lifted, LiftedPoint(tuple(scale * c for c in lifted.coords))]
        if any(coords):  # the zero vector: test_verify_on_surface_checks_length
            points.append(LiftedPoint(tuple(coords)))
        points += [LiftedPoint((q.x, q.yc, F(1), *lifted.coords[3:])) for q in extra]
        for point in points:
            assert verify_on_surface(point, system) == oracle_verify_on_surface(point, system)
        assert verify_on_surface(points[0], system) and verify_on_surface(points[1], system)


@settings(max_examples=50, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 9))
def test_lift_project_roundtrip_on_line_family(num, den):
    base = Configuration(1, (pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)))
    sys = build_surface(base, [0, 1, 2, 3])
    p = LatticePoint(F(num, den), F(0))
    lifted = lift_point(p, sys)
    assert verify_on_surface(lifted, sys)
    assert project_point(lifted) == p
    assert lift_point(project_point(lifted), sys) == lifted


# ---------------------------------------------------------------------------
# census


def test_census_m4():
    census = singularity_census(4)
    assert len(census) == 34
    finite = [r for r in census if r.location[0] == "finite"]
    infinity = [r for r in census if r.location[0] == "infinity"]
    assert len(finite) == 32 and len(infinity) == 2
    assert all(r.e == 2 and r.a == 0 and r.canonical for r in finite)
    assert all(r.e == 4 and r.a == -1 and not r.canonical for r in infinity)


def test_census_m5():
    census = singularity_census(5)
    assert len(census) == 82
    assert census[-1].e == 8 and census[-1].a == -2


def test_census_m3_all_canonical():
    census = singularity_census(3)
    assert len(census) == 14
    assert all(r.canonical for r in census)
    assert census[-1].e == 2 and census[-1].a == 0
    assert census.noncanonical() == ()


def test_census_cardinality_3_to_16():
    for m in range(3, 17):
        assert len(singularity_census(m)) == m * 2 ** (m - 1) + 2


def test_census_rejects_small_m():
    with pytest.raises(SurfaceliftError):
        singularity_census(2)


def test_census_sequence_semantics():
    census = singularity_census(4)
    assert census[0] == SingularityRecord(("finite", 1, 0), 2, F(0), True)
    assert census[-1] == census[33]
    assert list(census[:3]) == [census[0], census[1], census[2]]
    assert census[9].location == ("finite", 2, 1)  # 8 sheets per base point
    with pytest.raises(IndexError):
        census[34]


@pytest.mark.parametrize("m", [58, 59, 64, MAX_M])
def test_census_size_and_indexing_beyond_index_sized_ints(m):
    census = singularity_census(m)
    finite = m * 2 ** (m - 1)
    assert census.size == finite + 2
    if census.size <= sys.maxsize:
        assert len(census) == census.size
    else:
        with pytest.raises(SurfaceliftError, match="len"):
            len(census)
    assert census[-1] == census[census.size - 1]
    assert census[-1].location == ("infinity", "-") and census[-1].a == 3 - m
    assert census[-3] == census[finite - 1]
    assert census[-3].location == ("finite", m, 2 ** (m - 1) - 1)
    assert census[2**70 % finite].location[0] == "finite"
    assert census[:2] == [census[0], census[1]]
    assert census[finite - 1 : finite + 5] == [census[-3], census[-2], census[-1]]
    assert census[-2:] == list(census.noncanonical())
    for idx in (census.size, -census.size - 1, 2**70 + census.size):
        with pytest.raises(IndexError):
            census[idx]
    assert census[-census.size] == census[0]


def test_census_accepts_system():
    assert len(singularity_census(RECT_SYS)) == 34


# ---------------------------------------------------------------------------
# invariants and the criterion


def test_surface_invariants_values():
    inv4 = surface_invariants(4)
    assert inv4 == (16, 1, True, 16)
    inv3 = surface_invariants(3)
    assert inv3.canonical_twist == 0 and not inv3.ample
    assert surface_invariants(6).k_squared == 9 * 64 == 576


def test_check_general_type_m4_census():
    cert = check_general_type(2, 16, singularity_census(4), True)
    assert cert.rhs == 2 * 1 * 4 == 8
    assert cert.lhs == 16
    assert cert.verdict


def test_check_general_type_all_canonical():
    recs = [SingularityRecord(("finite", 1, 0), 2, F(0), True)]
    assert check_general_type(2, 5, recs, True).verdict
    cert = check_general_type(2, 5, recs, False)
    assert not cert.verdict and cert.reason == "criterion inapplicable"


def test_check_general_type_forced_false():
    recs = [SingularityRecord(("infinity", "+"), 4, F(-2), False)]
    cert = check_general_type(2, 8, recs, True)
    assert cert.rhs == 16 and not cert.verdict


def test_check_general_type_monotone():
    recs = [SingularityRecord(("infinity", "+"), 4, F(-1), False)]
    base = check_general_type(2, 8, recs, True)
    assert base.verdict
    worse = recs + [SingularityRecord(("infinity", "-"), 16, F(-3), False)]
    assert not check_general_type(2, 8, worse, True).verdict
    # adding non-canonical records can never flip false to true
    for extra_e in (1, 5, 100):
        extended = worse + [SingularityRecord(("finite", 1, 0), extra_e, F(-1), False)]
        assert not check_general_type(2, 8, extended, True).verdict


@pytest.mark.parametrize("m", [5.5, 5.0, "5", True, False, F(5)])
def test_m_must_be_an_int(m):
    # no coercion: 5.5 would otherwise be certified as m = 5
    for fn in (certify_V, singularity_census, surface_invariants):
        with pytest.raises(SurfaceliftError, match="m must be an int"):
            fn(m)
    with pytest.raises(SurfaceliftError, match="m must be an int"):
        certify_V(m, sys=RECT_SYS)


def test_int_m_gives_the_results_of_the_coercing_code():
    # digest of the certificates, invariants and census classes for these m,
    # recorded from the implementation that coerced m with int()
    blob = []
    for m in [*range(1, 65), 100, 1000, 4096]:
        blob.append(certify_V(m).to_dict())
        blob.append(list(surface_invariants(m)))
        if m >= 3:
            census = singularity_census(m)
            blob.append([census.size, census.classes(), [r.to_dict() for r in census.noncanonical()]])
    digest = hashlib.sha256(json.dumps(blob).encode()).hexdigest()
    assert digest == "5885a65923e9f640f1ccf440756f301d8877677bbc37f052c72d87be944a094c"


def test_certify_m4():
    cert = certify_V(4)
    assert cert.lhs == 16 and cert.rhs == 8 and cert.verdict
    assert cert.m == 4 and cert.reason is None


def test_certify_m5_and_m10():
    c5 = certify_V(5)
    assert c5.lhs == 4 * 32 == 128 and c5.rhs == 2 * 4 * 8 == 64 and c5.verdict
    c10 = certify_V(10)
    assert c10.lhs == 49 * 1024 and c10.rhs == 2 * 49 * 256 and c10.verdict


def test_certify_m3_not_ample():
    cert = certify_V(3)
    assert not cert.verdict and cert.reason == "not ample"


@pytest.mark.parametrize("m", [1, 2])
def test_certify_below_three_has_no_census(m):
    assert certify_V(m).to_dict() == {
        "m": m,
        "dim": 2,
        "K_d": str((m - 3) ** 2 * 2**m),
        "records": [],
        "lhs": str((m - 3) ** 2 * 2**m),
        "rhs": "0",
        "ample": False,
        "verdict": False,
        "reason": "not ample",
    }


@pytest.mark.parametrize("m", [0, -1])
def test_certify_needs_a_base_point(m):
    with pytest.raises(SurfaceliftError):
        certify_V(m)


def test_certify_with_system():
    cert = certify_V(sys=RECT_SYS)
    assert cert.m == 4 and cert.verdict
    with pytest.raises(SurfaceliftError):
        certify_V(5, RECT_SYS)
    with pytest.raises(SurfaceliftError):
        certify_V()


def test_certificate_ratio_is_two():
    # lhs/rhs = (m-3)^2 2^m / (2 (m-3)^2 2^(m-2)) = 2^m / 2^(m-1) = 2 for
    # every m >= 4: the inequality holds with a uniform factor of two
    for m in range(4, 17):
        cert = certify_V(m)
        assert cert.lhs == 2 * cert.rhs


def test_certificate_suite_is_fast():
    start = time.perf_counter()
    for m in range(4, 17):
        cert = certify_V(m)
        assert cert.verdict
        assert cert.lhs == (m - 3) ** 2 * 2**m
        assert cert.rhs == 2 * (m - 3) ** 2 * 2 ** (m - 2)
    assert time.perf_counter() - start < 1.0


def test_certificate_json():
    payload = certify_V(4).to_dict()
    assert payload["lhs"] == "16" and payload["rhs"] == "8"
    assert payload["verdict"] is True
    # the 34 census points as three counted classes
    assert payload["records"] == [
        {"loc": "finite", "count": 32, "e": 2, "a": "0"},
        {"loc": "infinity:+", "count": 1, "e": 4, "a": "-1"},
        {"loc": "infinity:-", "count": 1, "e": 4, "a": "-1"},
    ]


@pytest.mark.parametrize("m", range(1, 17))
def test_certificate_record_counts_cover_the_census(m):
    records = certify_V(m).to_dict()["records"]
    expected = len(singularity_census(m)) if m >= 3 else 0
    assert sum(r["count"] for r in records) == expected
    assert all(r["count"] >= 1 for r in records)


@pytest.mark.parametrize("m", range(1, 17))
def test_certificate_rhs_recomputed_from_wire_records(m):
    payload = certify_V(m).to_dict()
    rhs = sum(
        r["count"] * r["e"] * abs(F(r["a"])) ** payload["dim"]
        for r in payload["records"]
        if F(r["a"]) < 0
    )
    assert rhs == F(payload["rhs"])


def test_plain_records_serialize_one_each():
    recs = (
        SingularityRecord(("finite", 2, 1), 2, F(0), True),
        SingularityRecord(("infinity", "+"), 4, F(-1), False),
    )
    assert check_general_type(2, 16, recs, True).to_dict()["records"] == [
        {"loc": "finite:base=2:sheet=1", "count": 1, "e": 2, "a": "0"},
        {"loc": "infinity:+", "count": 1, "e": 4, "a": "-1"},
    ]


def test_certify_at_max_m_is_fast():
    start = time.perf_counter()
    payload = certify_V(MAX_M).to_dict()
    assert time.perf_counter() - start < 1.0
    assert payload["m"] == MAX_M and payload["verdict"] is True
    assert F(payload["K_d"]) == (MAX_M - 3) ** 2 * 2**MAX_M
    assert payload["records"][0]["count"] == MAX_M * 2 ** (MAX_M - 1)


@pytest.mark.parametrize("m", [MAX_M + 1, 10**12])
def test_certify_above_max_m_raises(m):
    with pytest.raises(SurfaceliftError, match="MAX_M"):
        certify_V(m)


# ---------------------------------------------------------------------------
# Jacobian spot check against the closed-form census


def infinity_singular_points(system: QuadricSystem) -> tuple[tuple[ImQuadElement, ...], ...]:
    """The two points of V over the circular points (-w, 1, 0) and (w, 1, 0)."""
    k = system.k
    w = omega(k)
    zero = ImQuadElement.from_rational(0, k)
    one = ImQuadElement.from_rational(1, k)
    tail = (zero,) * system.m
    return ((-w, one, zero) + tail, (w, one, zero) + tail)


def test_spot_check_generic_lift_is_smooth():
    # the rectangle center is at distance 5/2 from every corner and does
    # not sit over a base point
    center = LatticePoint(F(3, 2), F(2))
    lifted = lift_point(center, RECT_SYS)
    result = jacobian_spot_check(RECT_SYS, lifted.coords)
    assert result == {"on_surface": True, "rank": 4, "smooth": True}


def test_spot_check_base_point_sheet_is_singular():
    # lifts of base points land on the finite ordinary double points
    for base in (pt(0, 0), pt(3, 4)):
        result = jacobian_spot_check(RECT_SYS, lift_point(base, RECT_SYS).coords)
        assert result["on_surface"] and not result["smooth"]
        assert result["rank"] == 3


def test_spot_check_infinity_points_singular():
    for coords in infinity_singular_points(RECT_SYS):
        result = jacobian_spot_check(RECT_SYS, coords)
        assert result["on_surface"] and not result["smooth"]


def test_spot_check_off_surface():
    coords = (F(1), F(1), F(1), F(1), F(1), F(1), F(1))
    assert not jacobian_spot_check(RECT_SYS, coords)["on_surface"]


def test_spot_check_rejects_the_zero_vector():
    # it used to report {"on_surface": True, "rank": 0, "smooth": False}
    for zero in (F(0), ImQuadElement.from_rational(0, 1)):
        with pytest.raises(SurfaceliftError, match="cannot all vanish"):
            jacobian_spot_check(RECT_SYS, (zero,) * 7)


def test_spot_check_rejects_coordinates_from_another_field():
    # ImQuadElement(1, 1, 2) squares omega to -2; on the k = 1 system it used
    # to return {"on_surface": False, "rank": 4, "smooth": False}
    assert RECT_SYS.k == 1
    with pytest.raises(SurfaceliftError, match="field"):
        jacobian_spot_check(RECT_SYS, (ImQuadElement(1, 1, 2),) * 7)
    mixed = (ImQuadElement(1, 1, 2),) + (F(1),) * 6
    with pytest.raises(SurfaceliftError, match="field"):
        jacobian_spot_check(RECT_SYS, mixed)
    same = (ImQuadElement(1, 1, 1),) + (F(1),) * 6
    assert jacobian_spot_check(RECT_SYS, same) == oracle_jacobian_spot_check(RECT_SYS, same)


def _rank(rows: list[list[ImQuadElement]]) -> int:
    """Gauss-Jordan elimination over Q(omega), one Fraction inverse per pivot."""
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    rows = [row[:] for row in rows]
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_jacobian_spot_check(system: QuadricSystem, coords) -> dict:
    """The full m x (m+3) Jacobian of the m quadrics, row-reduced by _rank."""
    k = system.k
    lifted = [c if isinstance(c, ImQuadElement) else ImQuadElement.from_rational(c, k) for c in coords]
    x, y, z = lifted[:3]
    zero = ImQuadElement.from_rational(0, k)
    on_surface = True
    rows = []
    for j, base in enumerate(system.base):
        r = lifted[3 + j]
        dx = x - base.x * z
        dy = y - base.yc * z
        if not (r * r - dx * dx - k * dy * dy).is_zero():
            on_surface = False
        row = [zero] * (3 + system.m)
        row[0] = -2 * dx
        row[1] = -2 * k * dy
        row[2] = 2 * base.x * dx + 2 * k * base.yc * dy
        row[3 + j] = 2 * r
        rows.append(row)
    rank = _rank(rows)
    return {"on_surface": on_surface, "rank": rank, "smooth": on_surface and rank == system.m}


def _rational(rng: random.Random) -> Fraction:
    return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))


def spot_check_corpus(m: int, k: int, seed: int):
    """A system of m base points at rational distance from a center P, and
    points to test: lifts of P on random sheets and scales, the sheet over
    a base point at P, both points at infinity, and random Q(omega)
    coordinates off the surface with some r_j = 0.

    (1 - k*s^2)^2 + k*(2s)^2 = (1 + k*s^2)^2, so the base point
    P - c*(1 - k*s^2, 2s) is at distance |c|*(1 + k*s^2) from P.
    """
    rng = random.Random(seed)
    center = LatticePoint(_rational(rng), _rational(rng))
    base: dict[LatticePoint, Fraction] = {}
    while len(base) < m:
        s, c = _rational(rng), _rational(rng) or F(1)
        q = LatticePoint(center.x - c * (1 - k * s * s), center.yc - 2 * c * s)
        base[q] = c * (1 + k * s * s)
    system = QuadricSystem(m, k, tuple(base))
    radii = list(base.values())
    points = []
    for _ in range(3):
        scale = _rational(rng) or F(1)
        signs = [rng.choice([1, -1]) for _ in radii]
        points.append(
            [scale * v for v in (center.x, center.yc, F(1), *(e * r for e, r in zip(signs, radii)))]
        )
    # replace base point j by P itself: the lift of P is on its sheet, r_j = 0
    j = rng.randrange(m)
    sheet_sys = QuadricSystem(m, k, tuple(center if i == j else q for i, q in enumerate(base)))
    sheet = [center.x, center.yc, F(1), *(F(0) if i == j else r for i, r in enumerate(radii))]
    cases = [(system, p) for p in points] + [(sheet_sys, sheet)]
    cases += [(system, p) for p in infinity_singular_points(system)]
    for _ in range(4):
        coords = [ImQuadElement(_rational(rng), _rational(rng), k) for _ in range(3)]
        coords += [
            ImQuadElement(_rational(rng), _rational(rng), k)
            if rng.random() < 0.5
            else ImQuadElement.from_rational(0, k)
            for _ in range(m)
        ]
        if not all(c.is_zero() for c in coords):
            cases.append((system, coords))
    return cases


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("m", range(1, 9))
def test_spot_check_block_rank_matches_full_jacobian(m, k):
    for seed in range(3):
        cases = spot_check_corpus(m, k, seed + 100 * m + 10 * k)
        results = [jacobian_spot_check(system, coords) for system, coords in cases]
        assert results == [oracle_jacobian_spot_check(system, coords) for system, coords in cases]
        # the lifts of P are smooth, the sheet over a base point is a
        # double point, and for m >= 3 so are the points at infinity
        assert results[:3] == [{"on_surface": True, "rank": m, "smooth": True}] * 3
        assert results[3] == {"on_surface": True, "rank": m - 1, "smooth": False}
        assert all(r["on_surface"] for r in results[4:6])
        assert all(not r["smooth"] for r in results[4:6]) == (m >= 3)


def _block_rank_of(system: QuadricSystem, coords) -> tuple[int, set[int]]:
    # the rank of the (x, y, z) block of the rows with r_j = 0, and the
    # denominators of their base points
    zero_rows = [j for j, r in enumerate(coords[3:]) if r == 0 or (isinstance(r, ImQuadElement) and r.is_zero())]
    rank = oracle_jacobian_spot_check(system, coords)["rank"] - (system.m - len(zero_rows))
    dens = {lcm(system.base[j].x.denominator, system.base[j].yc.denominator) for j in zero_rows}
    return rank, dens


def test_spot_check_corpus_reaches_every_block_rank():
    # ranks 0..3 of the block, and blocks of rank 2 and 3 whose rows come
    # from base points with unlike denominators, so that the per-row scaling shows
    reached, unlike = set(), set()
    for m, k, seed in itertools.product(range(1, 9), [1, 2, 3, 7], range(3)):
        for system, coords in spot_check_corpus(m, k, seed + 100 * m + 10 * k):
            rank, dens = _block_rank_of(system, coords)
            reached.add(rank)
            if len(dens) > 1:
                unlike.add(rank)
    assert reached == {0, 1, 2, 3}
    assert {2, 3} <= unlike


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 7]), st.integers(0, 3), st.integers(0, 8), st.randoms(use_true_random=False))
def test_block_rank_matches_gauss_jordan(k, basis_size, n_rows, rng):
    # rows in the span of basis_size random vectors over Z[omega]: the rank is
    # at most basis_size, and the pivots are rarely 1
    def entry(bound):
        return (rng.randint(-bound, bound), rng.randint(-bound, bound) * rng.randint(0, 1))

    basis = [[entry(9) for _ in range(3)] for _ in range(basis_size)]
    rows = []
    for _ in range(n_rows):
        row = [(0, 0)] * 3
        for vec in basis:
            f = entry(5)
            row = [(a + f[0] * c - k * f[1] * d, b + f[0] * d + f[1] * c) for (a, b), (c, d) in zip(row, vec)]
        rows.append(row)
    as_elements = [[ImQuadElement(a, b, k) for a, b in row] for row in rows]
    assert _block_rank([row[:] for row in rows], k) == _rank(as_elements) <= basis_size


# ---------------------------------------------------------------------------
# serialization


def test_system_json_roundtrip():
    assert QuadricSystem.from_dict(RECT_SYS.to_dict()) == RECT_SYS


def test_lifted_point_json_roundtrip():
    # the wire form of a lift decodes to the same coordinates
    lifted = lift_point(pt(F(1, 3), 0), build_surface(Configuration(1, tuple(pt(i) for i in range(4))), [0, 1, 2, 3]))
    assert LiftedPoint(tuple(parse_rational(t) for t in lifted.to_list())) == lifted
