"""Quadric-system surfaces, point lifting, and general-type certificates.

The surface V sits in P^(2+m), cut out by r_j^2 = (x - a_j z)^2 + k (y - b_j z)^2
for m distinct base points (a_j, b_j).  A plane point at rational distance
from every base point lifts to a rational point (u, v, 1, s_1, ..., s_m)
of V.  The lift runs on the integer lattice of the point and the base: with
squared distance N_j/L^2 to base point j, s_j is isqrt(N_j)/L, one integer
square root per base point and one Fraction per coordinate.  The
singularity census and the numeric general-type criterion are evaluated
from the closed-form classification: m * 2^(m-1) finite ordinary double
points (multiplicity 2, discrepancy 0) plus two ordinary multiple points at
infinity with multiplicity 2^(m-2) and discrepancy 3 - m, while
K^2 = (m-3)^2 * 2^m.  A Jacobian spot check is provided to verify the
classification against exact rank computations at small m; its integer
row test also decides whether a point lies on V.  A row with
r_j != 0 is the only one with an entry in its column 3 + j, so only the
3-column (x, y, z) block of the rows with r_j = 0 is row-reduced, in
integers: the point and the rows are scaled into Z[omega], and the rank
comes from fraction-free elimination.  Certificates are issued for m up to
MAX_M.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from sys import maxsize
from typing import NamedTuple

from .exactnum import (
    ImQuadElement,
    _int_pairs,
    format_rational,
    parse_int,
)
from .planeset import Configuration, LatticePoint, integer_lattice

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
        coords = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if all(c == 0 for c in self.coords):
            raise SurfaceliftError("homogeneous coordinates cannot all vanish")

    def to_list(self) -> list[str]:
        return [format_rational(c) for c in self.coords]


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
    """Lift (u, v) to (u, v, 1, s_1, ..., s_m), nonnegative distance branch.

    On the integer lattice of p and the base, the squared distance to base
    point j is N_j/L^2, so s_j = isqrt(N_j)/L when N_j is a square.
    """
    scale, pts = integer_lattice((p,) + sys.base)
    (x, y), k = pts[0], sys.k
    coords = [p.x, p.yc, Fraction(1)]
    for j, (u, v) in enumerate(pts[1:], start=1):
        sq = (x - u) ** 2 + k * (y - v) ** 2
        s = isqrt(sq)
        if s * s != sq:
            raise NotEquidistantError(
                f"not rationally equidistant: squared distance {Fraction(sq, scale * scale)} "
                f"to base point {j} is not a rational square",
                j,
            )
        coords.append(Fraction(s, scale))
    return LiftedPoint(tuple(coords))


def verify_on_surface(pt: LiftedPoint, sys: QuadricSystem) -> bool:
    """Exact substitution of the point into all m quadric relations: the
    integer row test of ``jacobian_spot_check``."""
    return jacobian_spot_check(sys, pt.coords)["on_surface"]


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


def _base_count(sys: "QuadricSystem | int") -> int:
    # m of a system, or m itself; an int exactly, as on the wire, so that
    # neither 5.5 nor True stands for an m
    m = sys.m if isinstance(sys, QuadricSystem) else sys
    if type(m) is not int:
        raise SurfaceliftError(f"m must be an int, got {m!r}")
    return m


def singularity_census(sys: "QuadricSystem | int") -> SingularityCensus:
    """All singular points of V with their multiplicities and discrepancies.

    Finite records are the ordinary double points over the base points (one
    per sheet of signs of the other coordinates); the two records at
    infinity lie over the circular points and are non-canonical once m >= 4.
    """
    return SingularityCensus(_base_count(sys))


class SurfaceInvariants(NamedTuple):
    deg_v: int
    canonical_twist: int
    ample: bool
    k_squared: int


def surface_invariants(sys: "QuadricSystem | int") -> SurfaceInvariants:
    """deg V = 2^m, omega_V = O(m-3) (ample iff m >= 4), K^2 = (m-3)^2 2^m."""
    m = _base_count(sys)
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
        if m is not None and _base_count(m) != sys.m:
            raise SurfaceliftError(f"m={m} conflicts with the system's m={sys.m}")
        m = sys.m
    if m is None:
        raise SurfaceliftError("either m or a quadric system is required")
    m = _base_count(m)
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


def _block_rank(rows: list[list[tuple[int, int]]], k: int) -> int:
    """Rank of rows over Z[omega], entries (re, im) int pairs, by fraction-free
    elimination.  Z[omega] is an integral domain, so with the pivot piv != 0
    the step row_r <- piv*row_r - f*row_piv clears f and keeps the rank."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p, q = top[col]
        for r in range(rank + 1, len(rows)):
            f, g = rows[r][col]
            if f or g:
                # (p + q*w)*(a + b*w) - (f + g*w)*(c + d*w), w^2 = -k
                rows[r] = [
                    (p * a - k * q * b - f * c + k * g * d, p * b + q * a - f * d - g * c)
                    for (a, b), (c, d) in zip(rows[r], top)
                ]
        rank += 1
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

    Scaling the point by the lcm L of its coordinates' denominators, and
    row j by the denominator D of base point j = (A/D, B/D), changes no zero
    test and no rank.  Then every coordinate, dx = D*x - A*z, dy = D*y - B*z
    and each block entry is an (re, im) int pair in Z[omega], the row's
    test is D^2*r_j^2 = dx^2 + k*dy^2, and the block's rank comes from
    fraction-free elimination (``_block_rank``).
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
    # scale the point by the lcm of its denominators, and row j by the
    # denominator D of base point j: with (a, b) = (A/D, B/D), dx = D*x - A*z
    # and dy = D*y - B*z, the row's test D^2*r^2 = dx^2 + k*dy^2 and its block
    # entries are integer pairs in Z[omega]
    _, ((x0, x1), (y0, y1), (z0, z1), *rs) = _int_pairs(lifted)
    on_surface = True
    independent = 0
    block: list[list[tuple[int, int]]] = []
    for (r0, r1), base in zip(rs, sys.base):
        d, [(a, b)] = integer_lattice((base,))
        dx0, dx1 = d * x0 - a * z0, d * x1 - a * z1
        dy0, dy1 = d * y0 - b * z0, d * y1 - b * z1
        # (u + v*w)^2 = (u^2 - k*v^2) + 2*u*v*w, compared part by part
        if (
            d * d * (r0 * r0 - k * r1 * r1) != dx0 * dx0 - k * dx1 * dx1 + k * (dy0 * dy0 - k * dy1 * dy1)
            or d * d * r0 * r1 != dx0 * dx1 + k * dy0 * dy1
        ):
            on_surface = False
        if r0 or r1:
            independent += 1
        else:  # the row's (x, y, z) entries, times -D^2*L/2 with L the point's scale
            block.append([
                (d * dx0, d * dx1),
                (k * d * dy0, k * d * dy1),
                (-a * dx0 - k * b * dy0, -a * dx1 - k * b * dy1),
            ])
    rank = independent + _block_rank(block, k)
    return {"on_surface": on_surface, "rank": rank, "smooth": on_surface and rank == sys.m}
