"""Fixture generators and a bounded-height exhaustive search.

The search grid holds the lattice points (p/q, (r/q') * sqrt(k)) with
|p|, |r| <= numerator_bound and q, q' <= denominator_bound.  On planeset's
integer lattice, whose L is the least common multiple of 1..denominator_bound
as every 1/q is on the grid, two grid points are at rational distance iff
the integer (dX)^2 + k*(dY)^2 is a perfect square.  That depends only on
(|dX|, |dY|), so each ``search`` call tests each such difference once, and
builds the bitset adjacency row of a cell from those answers when the
recursion first reads it; a rational distance set of the target size is
then a clique of that graph, listed by bitset recursion (Bron & Kerbosch,
CACM 1973).

For strong general position no three points may be collinear, so adding a
cell clears from the candidates every grid cell on the line through it and
an earlier chosen cell; each line's bitset is built once per call.  Complete
sets are filtered by the requested general-position predicate (for strong,
the four-concyclic check is the part the pruning has not already done) and
mapped to a canonical representative of their similarity class (first two
points at (0,0) and (1,0), lexicographically minimal point order, reflection
resolved by the sign rule of ``normalize``).  Only the anchor pairs that
give the least first x are sorted; a pair that ties there is compared in
full.  The representative is ``normalize``'s integer image of the winning
order, so one ``isqrt`` per pair re-checks that the set is an RDS.  The
canonical form determines the class, so finds are deduplicated on the
numerators and denominators of its coordinates.

Work is partitioned by the lowest grid index of a clique (its first-point
cell), which is also the checkpoint granularity: checkpoints record
exhausted index ranges plus the finds so far, merges are set unions, and
resuming yields bit-identical results.  The search runs in one process,
cell by cell in cell order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .exactnum import UnfactoredResidueError, is_squarefree, parse_int, rational_sqrt
from .planeset import (
    Configuration,
    LatticePoint,
    _normal_form,
    audit_general_position,
    integer_lattice,
    verify_rds,
)


# Largest n that generate_line_rds and generate_circle_rds accept, checked
# before anything is allocated.
MAX_N = 10_000

# Largest number of grid cells a SearchSpec accepts, checked before the grid
# is built.  Every adjacency row of the k=1 (49,1,3) grid, 9,801 cells, took
# 7.7 s with Python 3.11 on one Xeon core; the time grows with the square of
# the cell count.
MAX_CELLS = 10_000


class SearchgenError(ValueError):
    """Base class for domain errors raised by this module."""


class Requirement(str, Enum):
    ANY = "any"
    STRONG = "strong_general_position"
    LITERAL = "literal_general_position"


@dataclass(frozen=True)
class SearchSpec:
    k: int
    numerator_bound: int
    denominator_bound: int
    target_size: int
    require: Requirement = Requirement.ANY

    def __post_init__(self) -> None:
        object.__setattr__(self, "require", Requirement(self.require))
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise SearchgenError("bounds must be positive")
        if self.target_size < 3:
            raise SearchgenError("target size must be at least 3")
        try:
            squarefree = self.k >= 1 and is_squarefree(self.k)
        except UnfactoredResidueError as err:
            raise SearchgenError(f"could not decide whether k={self.k} is squarefree: {err}") from err
        if not squarefree:
            raise SearchgenError(f"k must be a positive squarefree integer, got {self.k}")
        # each axis has the 2N+1 integers up to N and the 2D+1 fractions 0 and
        # +-1/q, so the count is bounded below before any value is enumerated
        side = 2 * max(self.numerator_bound, self.denominator_bound) + 1
        cells = side * side
        if cells <= MAX_CELLS:
            cells = len(_grid_values(self)) ** 2
        if cells > MAX_CELLS:
            raise SearchgenError(
                f"the search grid has at least {cells} cells, above the supported maximum MAX_CELLS={MAX_CELLS}"
            )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "numerator_bound": self.numerator_bound,
            "denominator_bound": self.denominator_bound,
            "target_size": self.target_size,
            "require": self.require.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpec":
        return cls(
            parse_int(d["k"]),
            parse_int(d["numerator_bound"]),
            parse_int(d["denominator_bound"]),
            parse_int(d["target_size"]),
            Requirement(d.get("require", "any")),
        )


@dataclass(frozen=True)
class SearchCheckpoint:
    spec: SearchSpec
    found: tuple[Configuration, ...]
    exhausted_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        cells = len(_grid_values(self.spec)) ** 2
        for lo, hi in self.exhausted_ranges:
            if not 0 <= lo < hi <= cells:
                raise SearchgenError(f"exhausted range [{lo}, {hi}) outside the {cells} grid cells")

    def remaining_cells(self) -> int:
        """Number of first-point cells of the grid not yet exhausted."""
        return len(_grid_values(self.spec)) ** 2 - len(_cells_of_ranges(self.exhausted_ranges))

    def complete(self) -> bool:
        return self.remaining_cells() == 0

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "found": [c.to_dict() for c in self.found],
            "exhausted_ranges": [list(r) for r in self.exhausted_ranges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchCheckpoint":
        # a "frontier" key, written by older versions, is ignored
        spec = SearchSpec.from_dict(d["spec"])
        found = tuple(Configuration.from_dict(c) for c in d["found"])
        for i, c in enumerate(found):
            _check_found(spec, c, i)
        return cls(
            spec,
            found,
            tuple((parse_int(lo), parse_int(hi)) for lo, hi in d["exhausted_ranges"]),
        )


def _check_found(spec: SearchSpec, c: Configuration, index: int) -> None:
    # A decoded class must be one this spec's search can return.  Collinear
    # classes come back with k = 1 whatever the spec's k.  The canonical form
    # is recomputed by the integer core: canonical_form runs once per raw hit.
    if c.n != spec.target_size:
        raise SearchgenError(f"found class {index} has {c.n} points, target size is {spec.target_size}")
    if c.k != spec.k and not (c.k == 1 and all(p.yc == 0 for p in c.points)):
        raise SearchgenError(f"found class {index} has k={c.k}, the spec has k={spec.k}")
    if not verify_rds(c).is_rds:
        raise SearchgenError(f"found class {index} is not a rational distance set")
    if not _satisfies(c, spec.require):
        raise SearchgenError(f"found class {index} fails the requirement {spec.require.value}")
    if _canonical_form(c.k, integer_lattice(c.points)[1]) != c:
        raise SearchgenError(f"found class {index} is not in canonical form")


# ---------------------------------------------------------------------------
# generators


def generate_line_rds(n: int, offsets: "list[Fraction | int]") -> Configuration:
    """Collinear fixture: points (offset_i, 0) with k = 1; always an RDS."""
    if n > MAX_N:
        raise SearchgenError(f"n={n} exceeds the supported maximum MAX_N={MAX_N}")
    offs = [Fraction(o) for o in offsets]
    if len(offs) != n:
        raise SearchgenError(f"expected {n} offsets, got {len(offs)}")
    if len(set(offs)) != len(offs):
        raise SearchgenError("offsets must be distinct")
    return Configuration(
        1, tuple(LatticePoint(o, Fraction(0)) for o in offs), provenance="line-rds"
    )


def _primitive_triples():
    # Euclid parametrization: odd leg m^2 - n^2, even leg 2mn, hypotenuse
    # m^2 + n^2, primitive iff gcd(m, n) = 1 with m - n odd.
    for m in itertools.count(2):
        for n in range(1, m):
            if (m - n) % 2 == 1 and gcd(m, n) == 1:
                yield m * m - n * n, 2 * m * n, m * m + n * n


def generate_circle_rds(n: int) -> Configuration:
    """Concyclic fixture: n points on the unit circle with rational chords.

    Uses angles 2*theta with (cos theta, sin theta) = (odd leg, even leg)
    over the hypotenuse of the first n - 1 primitive right triangles in
    (m, n) order, plus the anchor (1, 0); every chord is
    2*|sin(theta_i - theta_j)|, a rational.  MAX_N bounds the scan:
    n = MAX_N needs m up to 222.
    """
    if n < 1:
        raise SearchgenError("need at least one point")
    if n > MAX_N:
        raise SearchgenError(f"n={n} exceeds the supported maximum MAX_N={MAX_N}")
    points = [LatticePoint(Fraction(1), Fraction(0))]
    for a, b, c in itertools.islice(_primitive_triples(), n - 1):
        cos_t = Fraction(a, c)
        sin_t = Fraction(b, c)
        points.append(LatticePoint(1 - 2 * sin_t * sin_t, 2 * sin_t * cos_t))
    return Configuration(1, tuple(points), provenance="circle-rds")


# ---------------------------------------------------------------------------
# canonical forms


def _grid_values(spec: SearchSpec) -> list[Fraction]:
    return sorted(
        {
            Fraction(p, q)
            for q in range(1, spec.denominator_bound + 1)
            for p in range(-spec.numerator_bound, spec.numerator_bound + 1)
        }
    )


def grid_points(spec: SearchSpec) -> tuple[LatticePoint, ...]:
    """The search grid in a deterministic (sorted) order."""
    values = _grid_values(spec)
    return tuple(
        LatticePoint(x, y) for x in values for y in values
    )


def _admissible_order(rest: list[tuple[int, int, int]]) -> list[tuple[int, int, int]] | None:
    """Lexicographically least order of ``rest`` that the sign rule allows.

    ``rest`` is sorted.  ``normalize`` gives the first point off the x-axis
    a positive y, so no negative-y point may come before the first
    positive-y one; the greedy answer defers exactly those.  Returns None
    when points lie below the axis and none above it.
    """
    for pos, (_, y, _) in enumerate(rest):
        if y > 0:
            head = rest[:pos]
            return (
                [p for p in head if p[1] == 0]
                + [rest[pos]]
                + [p for p in head if p[1] < 0]
                + rest[pos + 1 :]
            )
    return None if any(y for _, y, _ in rest) else rest


def _precedes(
    cand: list[tuple[int, int, int]], den: int, best: list[tuple[int, int, int]], best_den: int
) -> bool:
    # coordinates are numerators over a positive per-candidate denominator
    for (x, y, _), (bx, by, _) in zip(cand, best):
        if x * best_den != bx * den:
            return x * best_den < bx * den
        if y * best_den != by * den:
            return y * best_den < by * den
    return False


def canonical_form(c: Configuration) -> Configuration:
    """Lexicographically minimal normalized representative of a similarity class.

    Minimizes the normalized point tuple over all orderings of the points.
    The first two points of an ordering fix the similarity that sends them
    to (0,0) and (1,0); it is computed in integer coordinates, so for each
    ordered anchor pair and each reflection the best order of the remaining
    points is their sorted order, adjusted for the sign rule of
    ``normalize``, in O(n^3 log n) steps overall.  In one of its two
    reflections, the best order of a pair starts with a point of least x,
    and no order starts lower; so only the pairs whose least x is the least
    of all pairs are sorted.  Those that tie there are compared in full, as
    the later points decide between them.  The result is ``normalize`` of
    the winning order, so every pair is re-checked with one ``isqrt``,
    raising ``NotRdsMatrixError`` unless the input is an RDS.
    """
    if c.n < 2:
        raise SearchgenError("canonical form needs at least two points")
    return _canonical_form(c.k, integer_lattice(c.points)[1])


def _canonical_form(k: int, pts: list[tuple[int, int]]) -> Configuration:
    # canonical_form of at least two integer lattice points
    # (den, a, b, rest) of every ordered anchor pair with the least x so far
    ties: list[tuple[int, int, int, list[tuple[int, int, int]]]] = []
    for a, (ax, ay) in enumerate(pts):
        diffs = [(x - ax, y - ay) for x, y in pts]
        for b, (ux, uy) in enumerate(diffs):
            if b == a:
                continue
            # z -> (z - a) / (b - a) with z = X + Y*sqrt(-k), over den = |b - a|^2
            kuy = k * uy
            den = ux * ux + kuy * uy
            rest = [(dx * ux + dy * kuy, dy * ux - dx * uy, i)
                    for i, (dx, dy) in enumerate(diffs) if i != a and i != b]
            least = min(rest)[0] if rest else 0
            if not ties or least * tie_den < tie_least * den:
                ties, tie_least, tie_den = [], least, den
            if least * tie_den == tie_least * den:
                ties.append((den, a, b, rest))
    best_perm: tuple[int, ...] = ()
    for den, a, b, rest in ties:
        for mirrored in (rest, [(x, -y, i) for x, y, i in rest]):
            cand = _admissible_order(sorted(mirrored))
            if cand is not None and (not best_perm or _precedes(cand, den, best, best_den)):
                best, best_den = cand, den
                best_perm = (a, b, *(i for _, _, i in cand))
    return _normal_form(k, [pts[i] for i in best_perm], "canonical")


def _config_sort_key(c: Configuration) -> tuple:
    return (c.k, tuple((p.x, p.yc) for p in c.points))


# ---------------------------------------------------------------------------
# search proper


def _satisfies(c: Configuration, require: Requirement) -> bool:
    if require is Requirement.ANY:
        return True
    report = audit_general_position(c)
    return report.strong_ok if require is Requirement.STRONG else report.literal_ok


class _Adjacency(dict):
    """Row i: bitset of the cells j > i at rational distance from cell i.

    A row is built on first read, so a call that reaches few cells tests few
    pairs.  Whether two lattice points are at rational distance depends only
    on (|dX|, |dY|), so ``squares`` tests each difference once per call.
    """

    def __init__(self, grid: tuple[LatticePoint, ...], k: int) -> None:
        super().__init__()
        _, self.lattice = integer_lattice(grid)
        self.k = k
        self.squares: dict[tuple[int, int], bool] = {}

    def __missing__(self, i: int) -> int:
        row = self[i] = _adjacency_row(self.lattice, self.k, self.squares, i)
        return row


def _adjacency_row(
    lattice: list[tuple[int, int]], k: int, squares: dict[tuple[int, int], bool], i: int
) -> int:
    xi, yi = lattice[i]
    bits = 0
    for j in range(i + 1, len(lattice)):
        x, y = lattice[j]
        key = (abs(x - xi), abs(y - yi))
        rational = squares.get(key)
        if rational is None:
            dx, dy = key
            rational = squares[key] = rational_sqrt(dx * dx + k * dy * dy) is not None
        if rational:
            bits |= 1 << j
    return bits


class _Lines:
    """Bitsets of the grid lines through two cells, each built once per call.

    The grid is sorted x-major, so for cells c < j the difference (dX, dY)
    is lexicographically positive; its primitive direction (a, b) and the
    offset b*X - a*Y identify the line, whichever two of its cells are given.
    """

    def __init__(self, lattice: list[tuple[int, int]]) -> None:
        self.lattice = lattice
        # the lattice values of either axis, in grid order: the cell
        # (values[u], values[v]) has index u * len(values) + v
        self.values = sorted({y for _, y in lattice})
        self.index = {v: u for u, v in enumerate(self.values)}
        self.bits: dict[tuple[int, int, int], int] = {}

    def through(self, c: int, j: int) -> int:
        (px, py), (qx, qy) = self.lattice[c], self.lattice[j]
        g = gcd(qx - px, qy - py)
        a, b = (qx - px) // g, (qy - py) // g
        key = (a, b, b * px - a * py)
        bits = self.bits.get(key)
        if bits is None:
            bits = self.bits[key] = self._cells(px, py, a, b)
        return bits

    def _cells(self, px: int, py: int, a: int, b: int) -> int:
        # a line meets each column once, unless it is the column (a = 0)
        side = len(self.values)
        if a == 0:
            return ((1 << side) - 1) << (self.index[px] * side)
        bits = 0
        for u, x in enumerate(self.values):
            rise, rem = divmod((x - px) * b, a)
            v = self.index.get(py + rise) if rem == 0 else None
            if v is not None:
                bits |= 1 << (u * side + v)
        return bits


def _search_one_cell(
    spec: SearchSpec,
    grid: tuple[LatticePoint, ...],
    adjacency: _Adjacency,
    lines: _Lines | None,
    cell: int,
) -> list[Configuration]:
    """Canonical forms of the target-size cliques whose lowest cell is ``cell``.

    The row of a cell is read only when the clique can still grow past it.
    With ``lines`` (strong general position), adding cell j clears from the
    candidates every cell on a line through j and an earlier chosen cell, so
    no clique with three collinear points is listed; each complete clique
    still runs the full requirement check, which also rejects four
    concyclic points.
    """
    k = spec.k
    target = spec.target_size
    out: list[Configuration] = []
    chosen = [cell]

    def extend(cand: int) -> None:
        need = target - len(chosen)
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            chosen.append(j)
            if need == 1:
                cfg = Configuration(k, tuple(grid[i] for i in chosen))
                if _satisfies(cfg, spec.require):
                    out.append(canonical_form(cfg))
            else:
                nxt = cand & adjacency[j]
                if lines is not None:
                    for c in chosen[:-1]:
                        nxt &= ~lines.through(c, j)
                extend(nxt)
            chosen.pop()

    extend(adjacency[cell])
    return out


def _merge_ranges(cells) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for cell in sorted(set(cells)):
        if out and out[-1][1] == cell:
            out[-1][1] = cell + 1
        else:
            out.append([cell, cell + 1])
    return tuple((lo, hi) for lo, hi in out)


def _cells_of_ranges(ranges) -> set[int]:
    out: set[int] = set()
    for lo, hi in ranges:
        out.update(range(lo, hi))
    return out


def search(
    spec: SearchSpec | None = None,
    checkpoint: SearchCheckpoint | None = None,
    workers: int = 1,
    max_cells: int | None = None,
    progress=None,
) -> SearchCheckpoint:
    """Exhaust the bounded grid (or the checkpoint's remaining cells).

    Deterministic for a given spec regardless of where the run is split;
    ``max_cells`` (nonnegative) bounds how many first-point cells this call
    processes so long runs can checkpoint and resume.  Adjacency rows are
    built only for the cells the call's recursion reaches, so a call that
    processes no cell tests no grid pair.  A strong general position spec
    prunes collinear branches inside the recursion; classes, checkpoints and
    progress events are those of listing every clique and filtering at the
    end.  ``workers`` must be at least 1 and has no other effect: the search
    runs in this process.
    ``progress`` is an optional callable receiving one dict per processed
    cell, in cell order.
    """
    if spec is None and checkpoint is None:
        raise SearchgenError("either a spec or a checkpoint is required")
    if checkpoint is not None:
        if spec is not None and spec != checkpoint.spec:
            raise SearchgenError("checkpoint was produced by a different spec")
        spec = checkpoint.spec
    assert spec is not None
    if max_cells is not None and max_cells < 0:
        raise SearchgenError(f"max_cells must be nonnegative, got {max_cells}")
    if workers < 1:
        raise SearchgenError(f"workers must be at least 1, got {workers}")

    grid = grid_points(spec)
    exhausted = _cells_of_ranges(checkpoint.exhausted_ranges) if checkpoint else set()
    pending = [c for c in range(len(grid)) if c not in exhausted]
    todo = pending if max_cells is None else pending[:max_cells]

    # keyed on integers, as hashing a Fraction takes a modular inverse; the
    # few classes are put in _config_sort_key order once, at the end
    found: dict[tuple, Configuration] = {}

    def absorb(cfg: Configuration) -> None:
        key = [(p.x.numerator, p.x.denominator, p.yc.numerator, p.yc.denominator) for p in cfg.points]
        found.setdefault((cfg.k, *key), cfg)

    if checkpoint:
        for cfg in checkpoint.found:
            absorb(cfg)

    adjacency = _Adjacency(grid, spec.k)
    lines = _Lines(adjacency.lattice) if spec.require is Requirement.STRONG else None
    for cell in todo:
        for cfg in _search_one_cell(spec, grid, adjacency, lines, cell):
            absorb(cfg)
        if progress is not None:
            progress({"event": "cell", "cell": cell, "classes": len(found)})

    return SearchCheckpoint(
        spec=spec,
        found=tuple(sorted(found.values(), key=_config_sort_key)),
        exhausted_ranges=_merge_ranges(exhausted | set(todo)),
    )
