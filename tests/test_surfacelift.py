"""Tests for the quadric system, lifting, census, and the certificate."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdist.exactnum import ImQuadElement
from ratdist.planeset import Configuration, LatticePoint
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
    infinity_singular_points,
    jacobian_spot_check,
    lift_point,
    project_point,
    singularity_census,
    surface_invariants,
    verify_on_surface,
    _rank,
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
    with pytest.raises(SurfaceliftError):
        verify_on_surface(LiftedPoint((F(1), F(0), F(1))), RECT_SYS)


def test_project_roundtrip():
    lifted = lift_point(pt(3, 4), RECT_SYS)
    assert project_point(lifted) == pt(3, 4)
    with pytest.raises(SurfaceliftError):
        project_point(LiftedPoint((F(1), F(2), F(0), F(1), F(1), F(1), F(1))))


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


# ---------------------------------------------------------------------------
# serialization


def test_system_json_roundtrip():
    assert QuadricSystem.from_dict(RECT_SYS.to_dict()) == RECT_SYS


def test_lifted_point_json_roundtrip():
    lifted = lift_point(pt(0, 0), RECT_SYS)
    assert LiftedPoint.from_list(lifted.to_list()) == lifted
