"""Planar point sets with exact rational-distance structure.

A configuration stores points in lattice form: the pair (x, yc) stands for
the real point (x, yc*sqrt(k)) for the configuration's shared squarefree
k >= 1.  With L the lcm of all coordinate denominators, (x, yc) = (X/L, Y/L)
for integers X and Y, and every squared distance is N/L^2 for the integer
N = (dX)^2 + k*(dY)^2, the square of a rational exactly when N is a perfect
square.  Verification, the distance matrix, normalization, inversion and
the collinearity/concyclicity audits all run on this one integer lattice,
without any floating point; each output rational is built once, as one
Fraction of two integers.

Configurations are immutable; every operation returns fresh values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import (
    UnfactoredResidueError,
    format_rational,
    is_squarefree,
    parse_int,
    parse_rational,
    rational_sqrt,
    squarefree_part,
)


class PlanesetError(ValueError):
    """Base class for domain errors raised by this module."""


class NotRdsMatrixError(PlanesetError):
    """A squared-distance entry is not the square of a rational."""


class MixedFieldError(PlanesetError):
    """Coordinates require incompatible squarefree parts k."""


class NotPlanarError(PlanesetError):
    """No planar point set reproduces the distance matrix."""


@dataclass(frozen=True, order=True)
class LatticePoint:
    """The point (x, yc*sqrt(k)); k is carried by the configuration."""

    x: Fraction
    yc: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.x, Fraction):
            object.__setattr__(self, "x", Fraction(self.x))
        if not isinstance(self.yc, Fraction):
            object.__setattr__(self, "yc", Fraction(self.yc))

    def to_dict(self) -> dict:
        return {"x": format_rational(self.x), "yc": format_rational(self.yc)}

    @classmethod
    def from_dict(cls, d: dict) -> "LatticePoint":
        return cls(parse_rational(d["x"]), parse_rational(d["yc"]))


@dataclass(frozen=True)
class Configuration:
    k: int
    points: tuple[LatticePoint, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if self.k < 1:
            raise PlanesetError(f"k must be a positive integer, got {self.k}")
        try:
            squarefree = is_squarefree(self.k)
        except UnfactoredResidueError as err:
            raise PlanesetError(f"could not decide whether k={self.k} is squarefree: {err}") from err
        if not squarefree:
            raise PlanesetError(f"k must be squarefree, got {self.k}")
        # keyed on the integers: hashing a Fraction takes a modular inverse
        keys = {(p.x.numerator, p.x.denominator, p.yc.numerator, p.yc.denominator)
                for p in self.points}
        if len(keys) != len(self.points):
            raise PlanesetError("configuration points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "points": [p.to_dict() for p in self.points],
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Configuration":
        k, points = parse_int(d["k"]), tuple(LatticePoint.from_dict(p) for p in d["points"])
        provenance = d.get("provenance", "")
        if not isinstance(provenance, str):
            raise PlanesetError(f"provenance must be a string, got {type(provenance).__name__}")
        return cls(k, points, provenance)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of squared distances, zero diagonal."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise PlanesetError("distance matrix must be square")
            if row[i] != 0:
                raise PlanesetError("distance matrix diagonal must be zero")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise PlanesetError("distance matrix must be symmetric")
                if i != j and rows[i][j] <= 0:
                    raise PlanesetError("off-diagonal squared distances must be positive")

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {"squared": [[format_rational(e) for e in row] for row in self.entries]}

    @classmethod
    def from_dict(cls, d: dict) -> "DistanceMatrix":
        return cls(tuple(tuple(parse_rational(e) for e in row) for row in d["squared"]))


@dataclass(frozen=True)
class VerifyReport:
    is_rds: bool
    failing_pairs: tuple[tuple[int, int, Fraction], ...]
    distances: tuple[tuple[Fraction | None, ...], ...]

    def to_dict(self) -> dict:
        return {
            "is_rds": self.is_rds,
            "failing_pairs": [
                {"i": i, "j": j, "squared": format_rational(sq)}
                for i, j, sq in self.failing_pairs
            ],
            "distances": [
                [None if e is None else format_rational(e) for e in row]
                for row in self.distances
            ],
        }


@dataclass(frozen=True)
class AuditReport:
    n: int
    line_threshold: int
    circle_threshold: int
    max_collinear: int
    max_concyclic: int
    literal_ok: bool
    strong_ok: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "line_threshold": self.line_threshold,
            "circle_threshold": self.circle_threshold,
            "max_collinear": self.max_collinear,
            "max_concyclic": self.max_concyclic,
            "literal_ok": self.literal_ok,
            "strong_ok": self.strong_ok,
            "witnesses": {key: list(val) for key, val in self.witnesses.items()},
        }


def squared_distance(p: LatticePoint, q: LatticePoint, k: int) -> Fraction:
    dx = p.x - q.x
    dy = p.yc - q.yc
    return dx * dx + k * dy * dy


def integer_lattice(points: tuple[LatticePoint, ...]) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(X, Y), ...]) with (x, yc) = (X/L, Y/L), L the lcm of every denominator."""
    scale = math.lcm(*[q.denominator for p in points for q in (p.x, p.yc)])
    return scale, [
        (p.x.numerator * (scale // p.x.denominator), p.yc.numerator * (scale // p.yc.denominator))
        for p in points
    ]


def squared_numerators(points: tuple[LatticePoint, ...], k: int) -> tuple[int, list[list[int]]]:
    """L and the matrix of integers N with squared distance N/L^2 per pair."""
    scale, pts = integer_lattice(points)
    return scale, [[(x - u) ** 2 + k * (y - v) ** 2 for u, v in pts] for x, y in pts]


def _irrational_pair(k: int, pts: list[tuple[int, int]]) -> tuple[int, int, int] | None:
    """The first pair (i, j, N), i < j, of lattice points whose N is not a square."""
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            sq = (pts[j][0] - x) ** 2 + k * (pts[j][1] - y) ** 2
            if math.isqrt(sq) ** 2 != sq:
                return i, j, sq
    return None


def distance_matrix(c: Configuration) -> DistanceMatrix:
    scale, nums = squared_numerators(c.points, c.k)
    return DistanceMatrix(tuple(tuple(Fraction(e, scale * scale) for e in row) for row in nums))


def verify_rds(c: Configuration) -> VerifyReport:
    """Check that every pairwise distance is rational; report failures."""
    n = c.n
    scale, nums = squared_numerators(c.points, c.k)
    zero = Fraction(0)
    dist: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    failing: list[tuple[int, int, Fraction]] = []
    for i in range(n):
        dist[i][i] = zero
        for j in range(i + 1, n):
            sq = nums[i][j]
            r = math.isqrt(sq)
            if r * r != sq:
                failing.append((i, j, Fraction(sq, scale * scale)))
            else:
                dist[i][j] = dist[j][i] = Fraction(r, scale)
    return VerifyReport(
        is_rds=not failing,
        failing_pairs=tuple(failing),
        distances=tuple(tuple(row) for row in dist),
    )


def embed_from_distances(m: DistanceMatrix, provenance: str = "embed_from_distances") -> Configuration:
    """Realize a squared-distance matrix as a lattice configuration.

    The first two points land at (0,0) and (1,0) after rescaling every
    distance by 1/d(0,1); the shared k is the common squarefree part of the
    leftover vertical components.  Signs are resolved greedily (first
    nonzero yc positive, later signs matched against one cross distance
    each) and the whole matrix is checked again at the end.
    """
    n = m.n
    if n < 2:
        raise PlanesetError("embedding needs at least two points")
    for i in range(n):
        for j in range(i + 1, n):
            if rational_sqrt(m.entries[i][j]) is None:
                raise NotRdsMatrixError(
                    f"not an RDS matrix: entry ({i},{j}) = {m.entries[i][j]} is not a rational square"
                )
    scale = m.entries[0][1]  # squared distances scale by 1/d(0,1)^2
    sq = [[e / scale for e in row] for row in m.entries]

    xs: list[Fraction] = []
    verticals: list[Fraction] = []  # squared vertical component per point
    for p in range(n):
        x = (sq[0][p] + 1 - sq[1][p]) / 2
        t = sq[0][p] - x * x
        if t < 0:
            raise NotPlanarError(
                f"not planar: point {p} has negative squared vertical component {t}"
            )
        xs.append(x)
        verticals.append(t)

    parts = {squarefree_part(t)[0] for t in verticals if t != 0}
    if len(parts) > 1:
        raise MixedFieldError(f"mixed field: squarefree parts {sorted(parts)} all occur")
    k = parts.pop() if parts else 1
    roots: list[Fraction] = []
    for t in verticals:
        # t = k * yc^2 exactly, so t/k is a rational square by construction
        root = rational_sqrt(t / k) if t != 0 else Fraction(0)
        assert root is not None
        roots.append(root)

    ycs: list[Fraction] = [Fraction(0)] * n
    anchor: int | None = None
    for p in range(n):
        if roots[p] == 0:
            continue
        if anchor is None:
            ycs[p] = roots[p]  # first nonzero vertical takes the positive sign
            anchor = p
            continue
        picked = False
        for sign in (1, -1):
            cand = sign * roots[p]
            dx = xs[p] - xs[anchor]
            dy = cand - ycs[anchor]
            if dx * dx + k * dy * dy == sq[anchor][p]:
                ycs[p] = cand
                picked = True
                break
        if not picked:
            raise NotPlanarError(
                f"not planar: no sign of point {p} matches its distance to point {anchor}"
            )

    pts = tuple(LatticePoint(xs[p], ycs[p]) for p in range(n))
    scale, nums = squared_numerators(pts, k)
    for i in range(n):
        for j in range(i + 1, n):
            got = Fraction(nums[i][j], scale * scale)
            if got != sq[i][j]:
                raise NotPlanarError(
                    f"not planar: embedded distance ({i},{j}) is {got}, expected {sq[i][j]}"
                )
    return Configuration(k, pts, provenance)


def _normal_form(k: int, pts: list[tuple[int, int]], provenance: str) -> Configuration:
    """Image of integer lattice points under z -> (z - p0)/(p1 - p0), z = X + Y*sqrt(-k).

    Reflected when its first point off the x-axis is below it, with k = 1 when
    all are on it.  Raises NotRdsMatrixError, one isqrt per pair, on a non-RDS.
    """
    bad = _irrational_pair(k, pts)
    if bad is not None:
        raise NotRdsMatrixError(f"pair ({bad[0]},{bad[1]}): {bad[2]}/L^2 is not a rational square")
    (ax, ay), (bx, by) = pts[0], pts[1]
    ux, uy = bx - ax, by - ay
    den = ux * ux + k * uy * uy  # |p1 - p0|^2; the image is (z - p0)*conj(p1 - p0)/den
    image = [((x - ax) * ux + k * (y - ay) * uy, (y - ay) * ux - (x - ax) * uy) for x, y in pts]
    sign = next((1 if y > 0 else -1 for _, y in image if y), 0)
    points = tuple(LatticePoint(Fraction(x, den), Fraction(sign * y, den)) for x, y in image)
    return Configuration(k if sign else 1, points, provenance)


def normalize(c: Configuration) -> Configuration:
    """Canonical lattice form: first two points to (0,0), (1,0); idempotent."""
    if c.n < 2:
        raise PlanesetError("normalization needs at least two points")
    return _normal_form(c.k, integer_lattice(c.points)[1], c.provenance)


def _best_group(
    groups: dict, best: int, witness: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    # Groups arrive in lexicographic order of their sorted members (anchors
    # ascend, and a dict keeps the insertion order of each group's first
    # point), so keeping the first strictly larger one keeps the
    # lexicographically smallest of the maximal sets.
    for members in groups.values():
        if len(members) > best:
            best, witness = len(members), tuple(members)
    return best, witness


def _max_collinear_concyclic(
    c: Configuration,
) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    n = c.n
    if n <= 2:
        return n, tuple(range(n)), n, tuple(range(n))
    k = c.k
    _, pts = integer_lattice(c.points)
    best_col, wit_col = 2, (0, 1)
    best_cyc, wit_cyc = 2, (0, 1)
    for i in range(n - 1):
        xi, yi = pts[i]
        rel = [(x - xi, y - yi) for x, y in pts]
        lines: dict[tuple[int, int], list[int]] = {}
        for p in range(i + 1, n):
            dx, dy = rel[p]
            g = math.gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            lines.setdefault((dx // g, dy // g), [i]).append(p)
        best_col, wit_col = _best_group(lines, best_col, wit_col)
        for j in range(i + 1, n - 1):
            a1, a2 = rel[j]
            na = a1 * a1 + k * a2 * a2
            circles: dict[tuple[int, int, int], list[int]] = {}
            for p in range(j + 1, n):
                b1, b2 = rel[p]
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                nb = b1 * b1 + k * b2 * b2
                # x^2 + k*yc^2 + D*x + E*yc = 0 through 0, a and b, times det
                d_num = nb * a2 - na * b2
                e_num = na * b1 - nb * a1
                g = math.gcd(d_num, e_num, det)
                if det < 0:
                    g = -g
                circles.setdefault((d_num // g, e_num // g, det // g), [i, j]).append(p)
            best_cyc, wit_cyc = _best_group(circles, best_cyc, wit_cyc)
    return best_col, wit_col, best_cyc, wit_cyc


def audit_general_position(c: Configuration) -> AuditReport:
    """Exact audit of the largest collinear and concyclic subsets.

    ``integer_lattice`` scales the coordinates to integers, a uniform
    scaling that keeps both predicates.  For each anchor i, the points
    p > i are hashed by their primitive, sign-normalized direction from i;
    for each anchor pair i < j, the points p > j off the line ij are
    hashed by the circle through i, j and p, written with i at the origin
    as x^2 + k*yc^2 + D*x + E*yc = 0 and keyed by the reduced integer
    triple (D*det, E*det, det), det > 0.
    Every line is thus found whole from its two lowest indices and every
    circle from its three lowest, in O(n^3) integer operations.  Lines
    never count as circles.

    The witness of each maximum is the lexicographically smallest sorted
    index tuple among the maximal sets.  Two distinct lines share at most
    one point and two distinct circles at most two, so this is also the
    set first met when pairs (triples) are scanned in lexicographic order.

    literal_ok follows the cardinality-(n-4)/(n-3) reading with vacuous
    containment counting (the empty subset lies on every line, so n = 4 can
    never pass literally); strong_ok is the no-3-collinear, no-4-concyclic
    predicate.
    """
    n = c.n
    max_col, wit_col, max_cyc, wit_cyc = _max_collinear_concyclic(c)
    line_violated = n >= 4 and max_col >= n - 4
    circle_violated = n >= 3 and max_cyc >= n - 3
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
        literal_ok=not (line_violated or circle_violated),
        strong_ok=max_col <= 2 and max_cyc <= 3,
        witnesses=witnesses,
    )


def invert(c: Configuration, center_index: int) -> Configuration:
    """Inversion in the unit circle centered at points[center_index].

    The center C is kept fixed and excluded from the mapping; every other
    point A maps to C + (A-C)/|A-C|^2, which stays in the lattice because
    |A-C|^2 is rational.  Applied twice at the same center this is the
    identity, and it preserves the rational-distance property.  A
    non-RDS input raises NotRdsMatrixError, before the center is checked.

    On the integer lattice, with |A-C|^2 = N/L^2, the image is
    (C*N + (A-C)*L^2)/(L*N): one Fraction per coordinate.
    """
    scale, pts = integer_lattice(c.points)
    if _irrational_pair(c.k, pts) is not None:
        raise NotRdsMatrixError("inversion requires a rational distance set")
    if not 0 <= center_index < c.n:
        raise PlanesetError(f"center index {center_index} out of range for {c.n} points")
    cx, cy = pts[center_index]
    square = scale * scale
    out = []
    for idx, (x, y) in enumerate(pts):
        if idx == center_index:
            out.append(c.points[idx])
            continue
        dx, dy = x - cx, y - cy
        n = dx * dx + c.k * dy * dy
        den = scale * n
        out.append(
            LatticePoint(Fraction(cx * n + dx * square, den), Fraction(cy * n + dy * square, den))
        )
    return Configuration(c.k, tuple(out), c.provenance)
