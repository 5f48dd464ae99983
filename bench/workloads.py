"""The benchmark's three workloads, each with its inputs and oracle checks.

A workload is built from a seed (and a size, "full" or "tiny"), holds
references to the library modules it was built with, and runs its fixed
work once per ``run_pass``.  Every op is timed on its own; the oracle
check that follows it is not timed.  A failed op (it raised, exited with
the wrong code, or failed its check) is counted and the pass continues.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle

DIGESTS = json.loads((Path(__file__).with_name("search_digests.json")).read_text())

# Collect at most this many failure messages per pass.
MAX_MESSAGES = 20


class Recorder:
    """One pass: op latencies (s), attempted/failed ops, timed wall (s), counters."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.wall = 0.0
        self.counts: Counter = Counter()

    def ops(self, latencies: list[float], attempted: int, problem: str | None) -> None:
        self.latencies.extend(latencies)
        self.attempted += attempted
        if problem:
            self.failed += attempted
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(problem)


def _span(tracer, label: str):
    return tracer.span(label) if tracer is not None else contextlib.nullcontext()


def _checked(check, *args) -> str | None:
    """Run an oracle check; a malformed result counts as a failed check."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, AttributeError) as err:
        return f"malformed result: {err!r}"


def _pts(points) -> list[tuple[Fraction, Fraction]]:
    return [(p.x, p.yc) for p in points]


def _wire_pts(config: dict) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(p["x"]), Fraction(p["yc"])) for p in config["points"]]


def _certificate_problem(payload: dict, m: int) -> str | None:
    # K^2 = (m-3)^2 2^m against two points at infinity, each with
    # multiplicity 2^(m-2) and discrepancy 3 - m.
    lhs = (m - 3) ** 2 * 2**m
    rhs = 2 * 2 ** (m - 2) * (m - 3) ** 2
    got = (payload["m"], Fraction(payload["lhs"]), Fraction(payload["rhs"]), payload["verdict"])
    if got != (m, lhs, rhs, m >= 4):
        return f"certificate {got} != {(m, lhs, rhs, m >= 4)}"
    return None


# ---------------------------------------------------------------------------
# search


class SearchWorkload:
    """Bounded-height search, single process, on four specs.

    Three k = 1 specs, then (4,1,3) for a k the seed draws from {2, 7}.
    Those two cost the same to within 6%; over {2,3,5,6,7} the k spec's
    cost varies by 1.7x, which moved wall_s between seeds by more than the
    host's own noise.
    The "strong" spec runs as a chain of ``max_cells`` slices, each
    checkpoint passing through to_dict -> JSON -> from_dict before the
    next resume.  An op is one grid cell, timed between progress events.
    """

    name = "search"

    def __init__(self, lib, seed: int, size: str, workdir: Path) -> None:
        self.lib = lib
        rng = random.Random(f"search:{seed}")
        nb = 4 if size == "full" else 2
        k = rng.choice((2, 7))
        rows = [
            ("baseline", 1, nb, 3, "any"),
            ("four_point", 1, nb - 1 if size == "full" else nb, 4, "any"),
            ("strong", 1, nb, 3, "strong_general_position"),
            (f"k{k}", k, nb, 3, "any"),
        ]
        SearchSpec = lib.searchgen.SearchSpec
        self.specs = [(label, SearchSpec(k, b, 1, t, req)) for label, k, b, t, req in rows]
        self.cells = {label: len(lib.searchgen.grid_points(spec)) for label, spec in self.specs}
        n = self.cells["strong"]
        cuts = sorted(rng.sample(range(1, n), rng.randint(2, 5)))
        self.slices = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        self._expected: dict[str, tuple[int, int]] = {}

    @staticmethod
    def _key(spec) -> str:
        d = spec.to_dict()
        return f"{d['k']},{d['numerator_bound']},{d['denominator_bound']},{d['target_size']},{d['require']}"

    def expected(self, label: str, spec) -> tuple[int, int]:
        """(raw hits, classes) from the independent enumeration, cached."""
        if label not in self._expected:
            d = spec.to_dict()
            self._expected[label] = oracle.search_counts(
                d["k"], d["numerator_bound"], d["denominator_bound"], d["target_size"],
                d["require"] != "any",
            )
        return self._expected[label]

    def run_pass(self, rec: Recorder, tracer=None) -> None:
        for label, spec in self.specs:
            before = tracer.snapshot() if tracer is not None else None
            latencies, cp, problem = self._run_spec(label, spec, rec, tracer)
            if problem is None:
                problem = _checked(self._check, label, spec, cp)
            if tracer is not None:
                after = tracer.snapshot()
                delta = {key: after[key] - before.get(key, 0) for key in after}
                raw = delta["searchgen.canonical_form"]
                if problem is None and raw != self.expected(label, spec)[0]:
                    problem = f"{raw} raw hits, expected {self.expected(label, spec)[0]}"
                rec.counts["raw_hits"] += raw
                if label == "baseline":
                    rec.counts["baseline.raw_hits"] = raw
                    rec.counts["baseline.classes"] = len(cp.found) if cp else 0
                    rec.counts["baseline.embed_calls"] = delta["planeset.embed_from_distances"]
                    rec.counts["baseline.pair_tests"] = delta["exactnum.rational_sqrt@searchgen"]
            if cp is not None:
                rec.counts["classes"] += len(cp.found)
            rec.ops(latencies, self.cells[label], problem and f"search {label}: {problem}")

    def _run_spec(self, label, spec, rec, tracer):
        searchgen = self.lib.searchgen
        chained = label == "strong"
        latencies: list[float] = []
        cp = None
        try:
            for size in self.slices if chained else [None]:
                marks = [perf_counter()]
                cp = searchgen.search(
                    None if cp is not None else spec,
                    checkpoint=cp,
                    max_cells=size,
                    progress=lambda event: marks.append(perf_counter()),
                )
                end = perf_counter()
                latencies += [b - a for a, b in zip(marks, marks[1:])]
                rec.wall += end - marks[0]
                if chained:
                    start = perf_counter()
                    with _span(tracer, "searchgen.checkpoint"):
                        text = json.dumps(cp.to_dict())
                        cp = searchgen.SearchCheckpoint.from_dict(json.loads(text))
                    rec.wall += perf_counter() - start
                    rec.counts["checkpoint_bytes"] += len(text.encode())
        except Exception as err:  # a failed op is counted, the run goes on
            return latencies, None, f"raised {err!r}"
        return latencies, cp, None

    def _check(self, label, spec, cp) -> str | None:
        d = spec.to_dict()
        found = [(c.k, _pts(c.points)) for c in cp.found]
        if not cp.complete():
            return "search did not exhaust the grid"
        classes = self.expected(label, spec)[1]
        if len(found) != classes:
            return f"{len(found)} classes, expected {classes}"
        if oracle.found_digest(found) != DIGESTS[self._key(spec)]:
            return "found list differs from the recorded digest"
        for k, pts in found:
            if len(pts) != d["target_size"] or pts[:2] != [(0, 0), (1, 0)]:
                return f"not a normalized {d['target_size']}-point set: {pts}"
            if not oracle.is_rds(pts, k):
                return f"found set is not an RDS: {pts}"
            if d["require"] != "any" and not oracle.strong_general_position(pts, k):
                return f"found set is not in strong general position: {pts}"
        return None

    def pool_speedup(self) -> tuple[float, str | None]:
        """Baseline spec timed with 1 worker over ``min(2, nproc)`` workers."""
        spec = dict(self.specs)["baseline"]
        times, problem = [], None
        for w in (1, min(2, len(os.sched_getaffinity(0)))):
            start = perf_counter()
            cp = self.lib.searchgen.search(spec, workers=w)
            times.append(perf_counter() - start)
            found = [(c.k, _pts(c.points)) for c in cp.found]
            if oracle.found_digest(found) != DIGESTS[self._key(spec)]:
                problem = f"search with {w} workers differs from the recorded digest"
        return times[0] / times[1], problem


# ---------------------------------------------------------------------------
# pipeline

# Strong-general-position RDS shapes (k = 1): the 4-point class that the
# (6,1,4,strong) search finds, and the 3-4-5 triangle.
PARALLELOGRAM = [(0, 0), (1, 0), (Fraction(-7, 25), Fraction(24, 25)), (Fraction(18, 25), Fraction(24, 25))]
TRIANGLE = [(0, 0), (3, 0), (0, 4)]
ROTATIONS = ((1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def similar_copy(points, rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Seeded rational similarity (rotation, reflection, scale, shift), k = 1."""
    a, b, c = rng.choice(ROTATIONS)
    cos, sin = Fraction(a, c), Fraction(b, c)
    flip = rng.choice((1, -1))
    scale = Fraction(rng.randint(1, 12), rng.randint(1, 5))
    tx = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    ty = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    out = []
    for x, y in points:
        x, y = Fraction(x), flip * Fraction(y)
        out.append((tx + scale * (cos * x - sin * y), ty + scale * (sin * x + cos * y)))
    rng.shuffle(out)
    return out


def _config_json(points, k: int = 1) -> str:
    return json.dumps(
        {"k": k, "points": [{"x": str(x), "yc": str(y)} for x, y in points], "provenance": "bench"}
    )


class PipelineWorkload:
    """A seeded corpus of configurations driven through ``cli.main`` in-process.

    Each configuration runs generate -> verify -> normalize -> audit ->
    invert -> verify -> lift -> certify, every command writing its stdout
    to a file that a later command reads.  An op is one CLI command.
    """

    name = "pipeline"

    def __init__(self, lib, seed: int, size: str, workdir: Path) -> None:
        self.lib = lib
        self.dir = workdir
        rng = random.Random(f"pipeline:{seed}")
        full = size == "full"
        # sizes are stratified so that every seed does about the same work
        if full:
            sizes = {
                "circle": list(range(6, 15)) * 2,
                "inverted": list(range(6, 15)) * 2,
                "line": list(range(4, 14)) * 4,
                "strong": [4] * 12 + [3] * 12,
            }
        else:
            sizes = {"circle": [6, 7], "inverted": [6, 7], "line": [4, 5], "strong": [4, 3]}
        offsets = sorted({Fraction(p, q) for p in range(-20, 21) for q in (1, 2, 3)})
        self.ops: list[tuple[str, object]] = []
        for family, ns in sizes.items():
            base_sizes = rng.sample([4, 5, 6, 7, 8] * len(ns), len(ns))
            for idx, n in enumerate(ns):
                e = {"family": family, "n": n, "tag": f"{family}{idx}"}
                e["require"] = rng.choice(("strong", "literal", "both"))
                e["center"] = rng.randrange(n)
                e["base"] = rng.sample(range(n), min(n, base_sizes[idx]))
                if family == "line":
                    e["offsets"] = rng.sample(offsets, n)
                    e["source"] = [(o, Fraction(0)) for o in e["offsets"]]
                elif family == "circle":
                    e["source"] = oracle.unit_circle_points(n)
                elif family == "inverted":
                    e["gen_center"] = rng.randrange(n)
                    e["source"] = oracle.invert_points(oracle.unit_circle_points(n), 1, e["gen_center"])
                else:
                    e["source"] = similar_copy(PARALLELOGRAM if n == 4 else TRIANGLE, rng)
                    path = workdir / f"{e['tag']}.json"
                    path.write_text(_config_json(e["source"]))
                    e["path"] = str(path)
                self.ops.append(("chain", e))
        ms = list(range(8, 14)) + list(range(8, 12)) if full else [8]
        self.ops += [("certify", m) for m in ms]
        rng.shuffle(self.ops)

    def run_pass(self, rec: Recorder, tracer=None) -> None:
        for kind, item in self.ops:
            if kind == "chain":
                self._chain(item, rec)
            else:
                self._cli(rec, ["certify", "--m", str(item)], "certm.json", 0,
                          lambda p, m=item: _certificate_problem(p, m))

    def _cli(self, rec, argv, out_name, expect_code, check) -> dict | None:
        path = self.dir / out_name
        start = perf_counter()
        try:
            with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                code = self.lib.cli.main(argv)
        except Exception as err:  # a traceback is a failed op; the run goes on
            elapsed = perf_counter() - start
            rec.wall += elapsed
            rec.ops([elapsed], 1, f"{' '.join(argv)}: raised {err!r}")
            return None
        elapsed = perf_counter() - start
        rec.wall += elapsed
        rec.counts[f"exit_code.{code}"] += 1
        rec.counts["stdout_bytes"] += path.stat().st_size
        payload = None
        if code != expect_code:
            problem = f"exit {code}, expected {expect_code}"
        else:
            try:
                result = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as err:
                problem = f"unreadable output: {err!r}"
            else:
                if expect_code == 2:  # a usage error carries diagnostics and no payload
                    problem = _checked(_error_problem, result)
                else:
                    payload = result.get("payload") if isinstance(result, dict) else None
                    problem = _checked(check, payload)
                if problem is None and argv[0] == "certify" and isinstance(payload, dict):
                    records = payload.get("records")
                    rec.counts["census_records"] += len(records) if isinstance(records, list) else 0
        rec.ops([elapsed], 1, problem and f"{' '.join(argv)}: {problem}")
        return payload if problem is None else None

    def _chain(self, e: dict, rec: Recorder) -> None:
        d, family, n = self.dir, e["family"], e["n"]
        src = e["source"]
        if family == "strong":
            src_file = e["path"]
        else:
            gen = ["generate", "circle" if family != "line" else "line", "--n", str(n)]
            if family == "line":
                gen.append("--offsets=" + ",".join(str(o) for o in e["offsets"]))
            expected_gen = oracle.unit_circle_points(n) if family != "line" else src
            self._cli(rec, gen, "gen.json", 0, lambda p: _points_problem(p, expected_gen, 1))
            src_file = str(d / "gen.json")
            if family == "inverted":
                self._cli(rec, ["invert", src_file, "--center", str(e["gen_center"])], "src.json", 0,
                          lambda p: _points_problem(p, src, 1))
                src_file = str(d / "src.json")

        self._cli(rec, ["verify", src_file], "ver.json", 0, lambda p: _verify_problem(p, src, 1))
        norm = self._cli(rec, ["normalize", src_file], "norm.json", 0,
                         lambda p: _normalize_problem(p, src, 1))
        norm_pts = _wire_pts(norm) if norm else src
        norm_k = norm["k"] if norm else 1
        code, problem = _expected_audit(e)
        self._cli(rec, ["audit", str(d / "norm.json"), "--require", e["require"]], "aud.json", code, problem)
        c = e["center"]
        inv = self._cli(rec, ["invert", str(d / "norm.json"), "--center", str(c)], "inv.json", 0,
                        lambda p: _involution_problem(p, norm_pts, norm_k, c))
        inv_pts = _wire_pts(inv) if inv else oracle.invert_points(norm_pts, norm_k, c)
        inv_k = inv["k"] if inv else norm_k
        inv_file = str(d / "inv.json")
        self._cli(rec, ["verify", inv_file], "ver2.json", 0, lambda p: _verify_problem(p, inv_pts, inv_k))
        base = e["base"]
        base_arg = ",".join(map(str, base))
        ample = len(base) >= 4  # below four base points the CLI reports a usage error
        self._cli(rec, ["lift", inv_file, "--base", base_arg], "lift.json", 0 if ample else 2,
                  lambda p: _lift_problem(p, inv_pts, inv_k, base))
        self._cli(rec, ["certify", "--from", inv_file, "--base", base_arg], "cert.json",
                  0 if ample else 2, lambda p: _certificate_problem(p, len(base)))


def _points_problem(payload: dict, expected, k: int) -> str | None:
    got = _wire_pts(payload)
    if payload["k"] != k or got != list(expected):
        return f"points {got} (k={payload['k']}), expected {list(expected)} (k={k})"
    return None


def _error_problem(result: dict) -> str | None:
    if result["status"] != "error" or not result["diagnostics"]:
        return f"expected an error result, got status {result['status']!r}"
    return None


def _involution_problem(payload: dict, source, k: int, center: int) -> str | None:
    # inverting the output once more at the same center gives the input back
    back = oracle.invert_points(_wire_pts(payload), payload["k"], center)
    if payload["k"] != k or back != list(source):
        return f"inverting twice at {center} does not give the input back"
    return None


def _verify_problem(payload: dict, points, k: int) -> str | None:
    if payload["is_rds"] is not True or payload["failing_pairs"]:
        return "verify did not report an RDS"
    for i, j in itertools.combinations(range(len(points)), 2):
        want = oracle.rat_sqrt(oracle.sqdist(points[i], points[j], k))
        if Fraction(payload["distances"][i][j]) != want:
            return f"distance ({i},{j}) is {payload['distances'][i][j]}, expected {want}"
    return None


def _normalize_problem(payload: dict, src, k: int) -> str | None:
    pts, k_out = _wire_pts(payload), payload["k"]
    if len(pts) != len(src) or pts[:2] != [(0, 0), (1, 0)]:
        return f"not normalized: {pts[:2]}"
    if next((y for _, y in pts if y != 0), 1) < 0:
        return "first nonzero yc is negative"
    unit = oracle.sqdist(src[0], src[1], k)
    for i, j in itertools.combinations(range(len(src)), 2):
        if oracle.sqdist(pts[i], pts[j], k_out) * unit != oracle.sqdist(src[i], src[j], k):
            return f"distance ({i},{j}) is not the scaled input distance"
    return None


def _expected_audit(e: dict):
    """Closed-form audit of each family, with the documented thresholds."""
    family, n = e["family"], e["n"]
    if family == "circle":  # n >= 6 points on one circle, no three collinear
        col, cyc, wit = 2, n, {"concyclic": list(range(n))}
    elif family == "line":
        col, cyc, wit = n, 2, {"collinear": list(range(n))}
    elif family == "inverted":  # a line plus the inversion center off it
        col, cyc, wit = n - 1, 3, {"collinear": [i for i in range(n) if i != e["gen_center"]]}
    else:
        col, cyc, wit = 2, 3, {}
    strong_ok = col <= 2 and cyc <= 3
    literal_ok = not ((n >= 4 and col >= n - 4) or (n >= 3 and cyc >= n - 3))
    ok = {"strong": strong_ok, "literal": literal_ok, "both": strong_ok and literal_ok}[e["require"]]
    want = (col, cyc, wit, strong_ok, literal_ok)

    def problem(p: dict) -> str | None:
        got = (p["max_collinear"], p["max_concyclic"], p["witnesses"], p["strong_ok"], p["literal_ok"])
        return None if got == want else f"audit {got}, expected {want}"

    return (0 if ok else 1), problem


def _lift_problem(payload: dict, points, k: int, base) -> str | None:
    if payload["failures"] or len(payload["lifted"]) != len(points):
        return f"{len(payload['failures'])} points failed to lift"
    for entry, p in zip(payload["lifted"], points):
        want = [p[0], p[1], Fraction(1)] + [
            oracle.rat_sqrt(oracle.sqdist(p, points[j], k)) for j in base
        ]
        if [Fraction(c) for c in entry["coords"]] != want:
            return f"lift of point {entry['index']} is {entry['coords']}"
    return None


# ---------------------------------------------------------------------------
# curves


def _dense(rng: random.Random, d: int) -> dict:
    """Degree-d form with every coefficient a nonzero integer in [-3, 3]."""
    return {
        (i, j, d - i - j): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        for i in range(d + 1)
        for j in range(d + 1 - i)
    }


def _tmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b, c), u in p.items():
        for (x, y, z), v in q.items():
            key = (a + x, b + y, c + z)
            out[key] = out.get(key, 0) + u * v
    return out


def _lattice_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 2)), Fraction(rng.randint(-6, 6), rng.randint(1, 2))


def _line_restrictions_generic(g: dict, h: dict | None, triple, k: int) -> bool:
    """Every isotropic line of the triple meets g (and h) in distinct affine
    points, and g and h share none of them (checked mod P, see oracle)."""
    dg = max(sum(e) for e in g)
    dh = max(sum(e) for e in h) if h else 0
    for p in triple:
        for sign in (1, -1):
            gl = oracle.line_restriction(g, p, k, sign)
            if len(gl) != dg + 1 or not oracle.squarefree(gl):
                return False
            if h:
                hl = oracle.line_restriction(h, p, k, sign)
                if len(hl) != dh + 1 or not oracle.squarefree(hl) or len(oracle.pgcd(gl, hl)) != 1:
                    return False
    return True


class CurvesWorkload:
    """Exact polynomial algebra over Q(sqrt(-k)) for the double covers.

    Ops: count_transverse_union plus build_double_cover on one dense
    curve of degree 3..8 (a quarter built as g*h^2), one degree-1
    choose_transverse_triple, or one jacobian_spot_check at a census point.
    Inputs are redrawn until the mod-P oracle certifies them generic, so the
    closed forms below hold exactly.
    """

    name = "curves"

    def __init__(self, lib, seed: int, size: str, workdir: Path) -> None:
        self.lib = lib
        rng = random.Random(f"curves:{seed}")
        full = size == "full"
        ops: list[tuple[str, dict]] = []
        # k, sizes and kinds are stratified so that every seed does about the same work
        for d in range(3, 9) if full else (3, 4):
            for i in range(4 if full else 2):
                ops.append(("cover", self._cover(rng, d, k=1 + (d + i) % 3, squared=i == 0)))
        for i in range(40 if full else 3):
            ops.append(("choose", self._choose(rng, k=1 + i % 3, count=6 + i // 3 % 3, mirror=i % 2 == 0)))
        for m in range(4, 9) if full else (4, 5, 6):
            for i in range(8 if full else 1):
                ops.append(("jacobian", self._jacobian(rng, m, k=1 + i % 3, finite=i % 4 != 3)))
        rng.shuffle(ops)
        self.ops = ops

    def _cover(self, rng: random.Random, d: int, k: int, squared: bool) -> dict:
        while True:
            if squared:
                dh = 1 + d % ((d - 1) // 2)  # fixed per degree: h's degree sets the cost
                g, h = _dense(rng, d - 2 * dh), _dense(rng, dh)
                f = _tmul(g, _tmul(h, h))
            else:
                dh, g, h = 0, _dense(rng, d), None
                f = g
            triple = [_lattice_point(rng) for _ in range(3)]
            if len(set(triple)) < 3:
                continue
            if _line_restrictions_generic(g, h, triple, k) and oracle.crossings_off_curve(f, triple, k):
                break
        dg = d - 2 * dh
        r = 6 * dg  # only the odd-multiplicity roots of g ramify
        LatticePoint = self.lib.planeset.LatticePoint
        return {
            "curve": self.lib.curvelift.PlaneCurve.from_coeffs(f),
            "triple": tuple(LatticePoint(x, y) for x, y in triple),
            "k": k,
            "count": r,
            "multiplicities": ((1, dg), (2, dh)) if dh else ((1, dg),),
            "r": r,
            "genus": (d - 1) * (d - 2) - 1 + r // 2,
        }

    def _choose(self, rng: random.Random, k: int, count: int, mirror: bool) -> dict:
        lib = self.lib
        while True:
            alpha, beta, gamma = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            if alpha == 0 and beta == 0:
                continue
            line = (alpha, beta, gamma)
            pts: list = []
            while len(pts) < count:
                p = _lattice_point(rng)
                if alpha * p[0] + beta * p[1] + gamma != 0 and p not in pts:
                    pts.append(p)
                    if len(pts) == 1 and mirror:
                        pts.append(oracle.reflect(p, line, k))  # the greedy pass must skip it
            chosen, excluded = [], set()
            for p in pts:
                if len(chosen) == 3:
                    break
                if p not in excluded:
                    chosen.append(p)
                    excluded |= {p, oracle.reflect(p, line, k)}
            coeffs = {(1, 0, 0): alpha, (0, 1, 0): beta, (0, 0, 1): gamma}
            if len(chosen) == 3 and oracle.crossings_off_curve(coeffs, chosen, k):
                break
        LatticePoint = lib.planeset.LatticePoint
        return {
            "curve": lib.curvelift.PlaneCurve.from_coeffs(coeffs),
            "candidates": lib.planeset.Configuration(k, tuple(LatticePoint(x, y) for x, y in pts)),
            "triple": chosen,
            "k": k,
        }

    def _jacobian(self, rng: random.Random, m: int, k: int, finite: bool) -> dict:
        lib = self.lib
        if k == 1:
            base = similar_copy(rng.sample(oracle.unit_circle_points(12), m), rng)
        else:  # collinear points have rational distances for every k
            y0 = Fraction(rng.randint(-3, 3))
            xs = rng.sample(sorted({Fraction(p, q) for p in range(-12, 13) for q in (1, 2)}), m)
            base = [(x, y0) for x in xs]
        LatticePoint = lib.planeset.LatticePoint
        system = lib.surfacelift.QuadricSystem(m, k, tuple(LatticePoint(x, y) for x, y in base))
        if finite:  # an ordinary double point over base point i
            i = rng.randrange(m)
            coords = (base[i][0], base[i][1], Fraction(1)) + tuple(
                rng.choice((1, -1)) * oracle.rat_sqrt(oracle.sqdist(base[i], q, k)) for q in base
            )
            rank = m - 1
        else:  # a point at infinity over a circular point
            x = lib.exactnum.ImQuadElement(Fraction(0), Fraction(rng.choice((1, -1))), k)
            coords = (x, Fraction(1), Fraction(0)) + (Fraction(0),) * m
            rank = 2
        return {"system": system, "coords": coords,
                "expected": {"on_surface": True, "rank": rank, "smooth": False}}

    def run_pass(self, rec: Recorder, tracer=None) -> None:
        curvelift, surfacelift = self.lib.curvelift, self.lib.surfacelift
        for kind, op in self.ops:
            start = perf_counter()
            try:
                if kind == "cover":
                    result = (
                        curvelift.count_transverse_union(op["curve"], op["triple"], op["k"]),
                        curvelift.build_double_cover(op["curve"], op["triple"], k=op["k"], smooth_curve=True),
                    )
                elif kind == "choose":
                    result = curvelift.choose_transverse_triple(op["curve"], op["candidates"])
                else:
                    result = surfacelift.jacobian_spot_check(op["system"], op["coords"])
            except Exception as err:  # a failed op is counted, the run goes on
                elapsed = perf_counter() - start
                rec.wall += elapsed
                rec.ops([elapsed], 1, f"{kind}: raised {err!r}")
                continue
            elapsed = perf_counter() - start
            rec.wall += elapsed
            check = {"cover": _cover_problem, "choose": _choose_problem, "jacobian": _jacobian_problem}[kind]
            problem = _checked(check, result, op)
            if kind == "cover":
                rec.counts["covers"] += 1
                rec.counts["exact_covers"] += bool(getattr(result[1], "exact", False))
            rec.ops([elapsed], 1, problem and f"{kind}: {problem}")


def _cover_problem(result, op: dict) -> str | None:
    (count, reports), cover = result
    mults = {r.multiplicities for r in reports}
    if count != op["count"] or mults != {op["multiplicities"]}:
        return f"transverse count {count} with multiplicities {mults}, expected {op['count']}, {op['multiplicities']}"
    if not cover.exact or cover.r != op["r"] or cover.genus != op["genus"]:
        return f"cover exact={cover.exact} r={cover.r} genus={cover.genus}, expected r={op['r']} genus={op['genus']}"
    return None


def _choose_problem(sel, op: dict) -> str | None:
    got = (_pts(sel.triple), sel.transverse_points, sel.required_points)
    want = (op["triple"], 6, 6)
    return None if got == want else f"selection {got}, expected {want}"


def _jacobian_problem(result, op: dict) -> str | None:
    return None if result == op["expected"] else f"spot check {result}, expected {op['expected']}"


WORKLOADS = {w.name: w for w in (SearchWorkload, PipelineWorkload, CurvesWorkload)}
