"""Quadric-system surfaces, point lifting, and general-type certificates.

The surface V sits in P^(2+m), cut out by r_j^2 = (x - a_j z)^2 + k (y - b_j z)^2
for m distinct base points (a_j, b_j).  A plane point at rational distance
from every base point lifts to a rational point (u, v, 1, s_1, ..., s_m)
of V.  The singularity census and the numeric general-type criterion are
evaluated from the closed-form classification: m * 2^(m-1) finite ordinary
double points (multiplicity 2, discrepancy 0) plus two ordinary multiple
points at infinity with multiplicity 2^(m-2) and discrepancy 3 - m, while
K^2 = (m-3)^2 * 2^m.  A Jacobian spot check is provided to verify the
classification against exact rank computations at small m.  A row with
r_j != 0 is the only one with an entry in its column 3 + j, so only the
3-column (x, y, z) block of the rows with r_j = 0 is row-reduced.
Certificates are issued for m up to MAX_M.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from sys import maxsize
from typing import NamedTuple

from .exactnum import ImQuadElement, format_rational, omega, parse_int, parse_rational, rational_sqrt
from .planeset import Configuration, LatticePoint, squared_distance

# Largest m that certify_V accepts.  K^2 = (m-3)^2 * 2^m then has about
# 1,240 digits, under Python's default 4,300-digit int-to-str limit.
MAX_M = 4096


class SurfaceliftError(ValueError):
    """Base class for domain errors raised by this module."""


class NotAmpleError(SurfaceliftError):
    """Fewer than four base points: the canonical sheaf is not ample."""


class NotEquidistantError(SurfaceliftError):
    """The point is not at rational distance from every base point."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class QuadricSystem:
    m: int
    k: int
    base: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", tuple(self.base))
        if self.m != len(self.base):
            raise SurfaceliftError(f"m={self.m} does not match {len(self.base)} base points")
        if self.m < 1:
            raise SurfaceliftError("at least one base point is required")
        if self.k < 1:
            raise SurfaceliftError(f"k must be positive, got {self.k}")
        if len(set(self.base)) != self.m:
            raise SurfaceliftError("base points must be pairwise distinct")

    def to_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "base": [p.to_dict() for p in self.base]}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadricSystem":
        return cls(parse_int(d["m"]), parse_int(d["k"]), tuple(LatticePoint.from_dict(p) for p in d["base"]))


@dataclass(frozen=True)
class LiftedPoint:
    """Homogeneous coordinates (x, y, z, r_1, ..., r_m) of a point of V."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if all(c == 0 for c in self.coords):
            raise SurfaceliftError("homogeneous coordinates cannot all vanish")

    def to_list(self) -> list[str]:
        return [format_rational(c) for c in self.coords]

    @classmethod
    def from_list(cls, items: list[str]) -> "LiftedPoint":
        return cls(tuple(parse_rational(t) for t in items))


def build_surface(c: Configuration, base_indices: "list[int]") -> QuadricSystem:
    """Quadric system over the configuration's field with the chosen base."""
    indices = list(base_indices)
    if len(set(indices)) != len(indices):
        raise SurfaceliftError("base indices must be distinct")
    if any(not 0 <= i < c.n for i in indices):
        raise SurfaceliftError("base index out of range")
    if len(indices) < 4:
        raise NotAmpleError(
            "canonical sheaf not ample: at least four base points are required"
        )
    return QuadricSystem(len(indices), c.k, tuple(c.points[i] for i in indices))


def lift_point(p: LatticePoint, sys: QuadricSystem) -> LiftedPoint:
    """Lift (u, v) to (u, v, 1, s_1, ..., s_m), nonnegative distance branch."""
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


def verify_on_surface(pt: LiftedPoint, sys: QuadricSystem) -> bool:
    """Exact substitution of the point into all m quadric relations."""
    if len(pt.coords) != 3 + sys.m:
        raise SurfaceliftError(
            f"expected {3 + sys.m} homogeneous coordinates, got {len(pt.coords)}"
        )
    x, y, z = pt.coords[:3]
    for j, base in enumerate(sys.base):
        r = pt.coords[3 + j]
        dx = x - base.x * z
        dy = y - base.yc * z
        if r * r != dx * dx + sys.k * dy * dy:
            return False
    return True


def project_point(pt: LiftedPoint) -> LatticePoint:
    """Projection to the plane chart z = 1."""
    z = pt.coords[2]
    if z == 0:
        raise SurfaceliftError("cannot project a point at infinity to the plane")
    return LatticePoint(pt.coords[0] / z, pt.coords[1] / z)


class SingularityRecord(NamedTuple):
    """One singular point: location label, multiplicity e, discrepancy a."""

    location: tuple
    e: int
    a: Fraction
    canonical: bool

    def to_dict(self) -> dict:
        if self.location[0] == "finite":
            loc = f"finite:base={self.location[1]}:sheet={self.location[2]}"
        else:
            loc = f"infinity:{self.location[1]}"
        return {"loc": loc, "count": 1, "e": self.e, "a": format_rational(self.a)}


class SingularityCensus(Sequence):
    """The m*2^(m-1) + 2 singular points of V, classified in closed form.

    Materializing half a million records for large m would dwarf the cost
    of every consumer, so the finite ordinary double points are generated
    on demand with random access, and the non-canonical records are exposed
    directly.  ``size`` is the exact length; len() raises above sys.maxsize.
    """

    def __init__(self, m: int) -> None:
        if m < 3:
            raise SurfaceliftError(
                "census needs m >= 3 for the points at infinity to be ordinary"
            )
        self.m = m
        self._sheets = 2 ** (m - 1)
        self._finite = m * self._sheets
        self.size = self._finite + 2
        a_inf = Fraction(3 - m)
        e_inf = 2 ** (m - 2)
        self._infinity = (
            SingularityRecord(("infinity", "+"), e_inf, a_inf, a_inf >= 0),
            SingularityRecord(("infinity", "-"), e_inf, a_inf, a_inf >= 0),
        )

    def _finite_record(self, idx: int) -> SingularityRecord:
        j, sheet = divmod(idx, self._sheets)
        return SingularityRecord(("finite", j + 1, sheet), 2, Fraction(0), True)

    def __len__(self) -> int:
        if self.size > maxsize:
            raise SurfaceliftError(f"the census has {self.size} records, too many for len()")
        return self.size

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self.size))]
        if idx < 0:
            idx += self.size
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        if idx < self._finite:
            return self._finite_record(idx)
        return self._infinity[idx - self._finite]

    def noncanonical(self) -> tuple[SingularityRecord, ...]:
        return tuple(r for r in self._infinity if not r.canonical)

    def classes(self) -> list[dict]:
        """Wire form in O(1): the finite double points as one counted class,
        then each point at infinity with count 1."""
        finite = self._finite_record(0).to_dict()
        finite.update(loc="finite", count=self._finite)
        return [finite] + [r.to_dict() for r in self._infinity]


def singularity_census(sys: "QuadricSystem | int") -> SingularityCensus:
    """All singular points of V with their multiplicities and discrepancies.

    Finite records are the ordinary double points over the base points (one
    per sheet of signs of the other coordinates); the two records at
    infinity lie over the circular points and are non-canonical once m >= 4.
    """
    m = sys.m if isinstance(sys, QuadricSystem) else int(sys)
    return SingularityCensus(m)


class SurfaceInvariants(NamedTuple):
    deg_v: int
    canonical_twist: int
    ample: bool
    k_squared: int


def surface_invariants(sys: "QuadricSystem | int") -> SurfaceInvariants:
    """deg V = 2^m, omega_V = O(m-3) (ample iff m >= 4), K^2 = (m-3)^2 2^m."""
    m = sys.m if isinstance(sys, QuadricSystem) else int(sys)
    return SurfaceInvariants(
        deg_v=2**m,
        canonical_twist=m - 3,
        ample=m >= 4,
        k_squared=(m - 3) ** 2 * 2**m,
    )


@dataclass(frozen=True)
class GeneralTypeCertificate:
    """Audit record for the criterion K^d > sum(|a|^d * e) over a < 0.

    On the wire every record carries a count: a census serializes as its
    counted classes, any other record sequence as one record each.
    """

    dim: int
    k_d: Fraction
    records: Sequence
    lhs: Fraction
    rhs: Fraction
    ample: bool
    verdict: bool
    reason: str | None = None
    m: int | None = None

    def to_dict(self) -> dict:
        if isinstance(self.records, SingularityCensus):
            records = self.records.classes()
        else:
            records = [r.to_dict() for r in self.records]
        return {
            "m": self.m,
            "dim": self.dim,
            "K_d": format_rational(self.k_d),
            "records": records,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "ample": self.ample,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def check_general_type(
    dim: int,
    k_d: "Fraction | int",
    records,
    ample: bool,
    m: int | None = None,
) -> GeneralTypeCertificate:
    """Evaluate the numeric criterion; non-canonical records only feed rhs."""
    k_d = Fraction(k_d)
    if isinstance(records, SingularityCensus):
        noncanonical = records.noncanonical()
    else:
        records = tuple(records)
        noncanonical = tuple(r for r in records if r.a < 0)
    rhs = Fraction(0)
    for r in noncanonical:
        if r.e < 1:
            raise SurfaceliftError(f"multiplicity must be >= 1, got {r.e}")
        rhs += abs(r.a) ** dim * r.e
    verdict = ample and k_d > rhs
    if verdict:
        reason = None
    elif not ample:
        reason = "criterion inapplicable"
    else:
        reason = "canonical self-intersection does not dominate the singularity budget"
    return GeneralTypeCertificate(
        dim=dim,
        k_d=k_d,
        records=records,
        lhs=k_d,
        rhs=rhs,
        ample=ample,
        verdict=verdict,
        reason=reason,
        m=m,
    )


def certify_V(
    m: int | None = None, sys: QuadricSystem | None = None
) -> GeneralTypeCertificate:
    """Certificate for the quadric surface: census + invariants + criterion.

    The census and invariants depend on m alone, so a bare m certifies the
    whole family; passing a system pins m to it (and its validation has
    already enforced distinct base points).
    """
    if sys is not None:
        if m is not None and m != sys.m:
            raise SurfaceliftError(f"m={m} conflicts with the system's m={sys.m}")
        m = sys.m
    if m is None:
        raise SurfaceliftError("either m or a quadric system is required")
    if m < 1:
        raise SurfaceliftError(f"at least one base point is required, got m={m}")
    if m > MAX_M:  # checked before anything computes 2**m
        raise SurfaceliftError(f"m={m} exceeds the supported maximum MAX_M={MAX_M}")
    inv = surface_invariants(m)
    records = singularity_census(m) if m >= 3 else ()
    cert = check_general_type(2, inv.k_squared, records, inv.ample, m=m)
    return cert if inv.ample else replace(cert, reason="not ample")


# ---------------------------------------------------------------------------
# Jacobian spot check


def infinity_singular_points(sys: QuadricSystem) -> tuple[tuple[ImQuadElement, ...], ...]:
    """The two points of V over the circular points (-w, 1, 0) and (w, 1, 0)."""
    k = sys.k
    w = omega(k)
    zero = ImQuadElement.from_rational(0, k)
    one = ImQuadElement.from_rational(1, k)
    tail = (zero,) * sys.m
    return ((-w, one, zero) + tail, (w, one, zero) + tail)


def _rank(rows: list[list[ImQuadElement]]) -> int:
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


def jacobian_spot_check(sys: QuadricSystem, coords) -> dict:
    """Exact smooth/singular test of V at a point with Q(omega) coordinates.

    Verifies the closed-form census on demand: the Jacobian of the m
    quadric equations has rank m exactly at the smooth points of the
    complete intersection.  Row j of the Jacobian is nonzero in column 3+j
    only through the entry 2*r_j, and no other row is, so each row with
    r_j != 0 is independent of all the others.  The rank is the number of
    those rows plus the rank of the 3-column (x, y, z) block of the rows
    with r_j = 0.
    """
    k = sys.k
    lifted = tuple(
        c if isinstance(c, ImQuadElement) else ImQuadElement.from_rational(c, k)
        for c in coords
    )
    if len(lifted) != 3 + sys.m:
        raise SurfaceliftError(
            f"expected {3 + sys.m} homogeneous coordinates, got {len(lifted)}"
        )
    if any(c.k != k for c in lifted):
        raise SurfaceliftError(f"coordinates must lie in Q(sqrt(-{k})), the system's field")
    if all(c.is_zero() for c in lifted):
        raise SurfaceliftError("homogeneous coordinates cannot all vanish")
    x, y, z = lifted[:3]
    on_surface = True
    independent = 0
    block: list[list[ImQuadElement]] = []
    for j, base in enumerate(sys.base):
        r = lifted[3 + j]
        dx = x - base.x * z
        dy = y - base.yc * z
        if not (r * r - dx * dx - k * dy * dy).is_zero():
            on_surface = False
        if not r.is_zero():
            independent += 1
        else:  # the row's (x, y, z) entries, divided by -2
            block.append([dx, k * dy, -base.x * dx - k * base.yc * dy])
    rank = independent + _rank(block)
    return {"on_surface": on_surface, "rank": rank, "smooth": on_surface and rank == sys.m}
