"""CLI outputs conform to the JSON Schema documents shipped in docs/."""

import io
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from ratdist.cli import run
from ratdist.curvelift import PlaneCurve
from ratdist.planeset import Configuration
from ratdist.searchgen import SearchCheckpoint, SearchSpec, generate_circle_rds
from ratdist.surfacelift import MAX_M

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def make_validator(name: str) -> Draft202012Validator:
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(path.read_text())
        resource = Resource.from_contents(schema)
        resources.append((path.name, resource))
        resources.append((schema["$id"], resource))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


@pytest.fixture(scope="module")
def validators():
    return {
        name: make_validator(name)
        for name in (
            "command_result.json",
            "configuration.json",
            "certificate.json",
            "checkpoint.json",
        )
    }


def test_generate_output_schemas(validators):
    result, code = run(["generate", "circle", "--n", "4"])
    assert code == 0
    validators["command_result.json"].validate(result)
    validators["configuration.json"].validate(result["payload"])


def test_certify_output_schemas(validators):
    result, _ = run(["certify", "--m", "4"])
    validators["command_result.json"].validate(result)
    validators["certificate.json"].validate(result["payload"])


def test_search_output_schemas(tmp_path, validators):
    spec = {"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    result, code = run(["search", "--spec", str(spec_file)])
    assert code == 0
    validators["command_result.json"].validate(result)
    validators["checkpoint.json"].validate(result["payload"])


def test_violation_and_error_results_conform(validators):
    result, code = run(["certify", "--m", "3"])
    assert code == 1
    validators["command_result.json"].validate(result)
    result2, code2 = run(["certify"])
    assert code2 == 2
    validators["command_result.json"].validate(result2)


# Arbitrary JSON, plus configurations that are well formed or nearly so: at
# most six points, from small rationals or from a rational-distance circle,
# with k near the valid range and any field possibly replaced by junk.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-6, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
RATIONAL_TEXT = st.integers(-6, 6).map(str) | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(1, 4)
)
CIRCLE_POINTS = generate_circle_rds(8).to_dict()["points"]
POINTS = st.lists(
    st.fixed_dictionaries({"x": RATIONAL_TEXT, "yc": RATIONAL_TEXT}), max_size=6
) | st.lists(st.sampled_from(CIRCLE_POINTS), max_size=6, unique_by=json.dumps)
CONFIGURATION = st.fixed_dictionaries(
    {"k": st.sampled_from([1, 1, 2, 3]) | st.integers(-1, 7), "points": POINTS},
    optional={"provenance": st.text(max_size=4)},
)
JUNKED = st.tuples(CONFIGURATION, st.sampled_from(["k", "points", "provenance"]), JSON_VALUES).map(
    lambda t: {**t[0], t[1]: t[2]}
)
WIRE_INPUT = (
    CONFIGURATION
    | CONFIGURATION.map(lambda c: {"status": "ok", "payload": c, "diagnostics": []})
    | JUNKED
    | JSON_VALUES
)


@settings(max_examples=150, deadline=None)
@given(data=WIRE_INPUT)
def test_fuzzed_configuration_gives_one_valid_result(validators, data):
    # search and --workers are left out: they can start processes
    text = json.dumps(data)
    for argv in (["verify"], ["normalize"], ["audit"], ["invert", "--center", "0"]):
        with mock.patch("sys.stdin", io.StringIO(text)):
            result, code = run(argv)
        validators["command_result.json"].validate(result)
        assert code in (0, 1, 2)
        assert code == {"ok": 0, "violation": 1, "error": 2}[result["status"]]
        json.dumps(result)


def _check_certify(validators, argv, stdin_text=""):
    with mock.patch("sys.stdin", io.StringIO(stdin_text)):
        result, code = run(argv)
    validators["command_result.json"].validate(result)
    assert code == {"ok": 0, "violation": 1, "error": 2}[result["status"]]
    if result["status"] != "error":
        validators["certificate.json"].validate(result["payload"])
    json.dumps(result)
    return result, code


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(-5, 20)
    | st.integers(MAX_M - 3, MAX_M + 3)
    | st.sampled_from([10**12, 10**30, -(10**30)])
    | st.integers()
)
def test_fuzzed_certify_m_gives_one_valid_result(validators, m):
    result, code = _check_certify(validators, ["certify", "--m", str(m)])
    if 1 <= m <= MAX_M:
        assert code == (0 if m >= 4 else 1)
        assert sum(r["count"] for r in result["payload"]["records"]) == (
            m * 2 ** (m - 1) + 2 if m >= 3 else 0
        )
    else:
        assert code == 2


BASE_TEXT = st.lists(st.integers(-1, 6), max_size=7).map(lambda xs: ",".join(map(str, xs))) | st.text(
    max_size=4
)


@settings(max_examples=150, deadline=None)
@given(data=WIRE_INPUT, base=BASE_TEXT)
def test_fuzzed_certify_base_gives_one_valid_result(validators, data, base):
    _check_certify(validators, ["certify", "--base=" + base, "-"], json.dumps(data))


# Nested objects keyed by the wire field names, so the decoders get past
# their first lookup and meet junk at every depth.
WIRE_KEYS = st.sampled_from(
    ["k", "points", "provenance", "x", "yc", "spec", "found", "exhausted_ranges",
     "numerator_bound", "denominator_bound", "target_size", "require",
     "monomials", "degree", "i", "j", "c"]
)
KEYED_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False) | RATIONAL_TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(WIRE_KEYS, children, max_size=6),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(data=KEYED_JSON)
def test_decoders_raise_only_usage_errors(data):
    # the CLI turns exactly these three into a usage error (exit 2)
    for decode in (
        Configuration.from_dict,
        SearchSpec.from_dict,
        SearchCheckpoint.from_dict,
        PlaneCurve.from_dict,
    ):
        try:
            decode(data)
        except (KeyError, TypeError, ValueError):
            pass



# search through run(): spec fields near and outside their valid ranges or
# replaced by junk, --max-cells of any sign or not an integer, and --resume
# checkpoints with junk fields and exhausted ranges inside or outside the
# grid.  numerator_bound stays <= 3 and the grid at most 7x7 cells, and
# --workers is always 1, so each call takes well under a second and starts
# no process.
NOT_INT = JSON_VALUES.filter(lambda v: type(v) is not int)
BAD_RANGES = [[[0, 10**7]], [[0, 10**12]], [[-5, 3]], [[100, 200]], [[7, 2]], [[3, 3]]]
FOUND_CLASS = generate_circle_rds(3).to_dict()


@st.composite
def search_arguments(draw):
    """(spec JSON or None, checkpoint JSON or None, --max-cells text or None).

    Half the draws are clean, so that searches run to a result; the others
    may put an invalid value or junk in any field.
    """
    clean = draw(st.booleans())

    def pick(valid, invalid):
        return draw(st.sampled_from(valid if clean else valid + invalid))

    def junk_one_field(obj: dict, fields) -> dict:
        if not clean and draw(st.booleans()):
            obj = {**obj, draw(st.sampled_from(fields)): draw(NOT_INT)}
        return obj

    nb = pick([1, 2, 3], [0, -1])
    db = pick([1, 2] if nb <= 1 else [1], [0, -1])
    spec = {
        "k": pick([1, 2, 3, 7], [0, -1, 4, 8]),
        "numerator_bound": nb,
        "denominator_bound": db,
        "target_size": pick([3, 4, 5, 6], [2, 0]),
    }
    if draw(st.booleans()):
        spec["require"] = pick(["any", "strong_general_position", "literal_general_position"], ["x"])
    spec = junk_one_field(spec, [*spec, "require"])

    cells = len({Fraction(p, q) for q in range(1, db + 1) for p in range(-nb, nb + 1)}) ** 2
    inside = st.integers(0, max(cells - 1, 0)).flatmap(
        lambda lo: st.integers(lo + 1, max(cells, lo + 1)).map(lambda hi: [lo, hi])
    )
    ranges = st.lists(inside, max_size=3)
    if not clean:
        ranges |= st.sampled_from(BAD_RANGES) | st.lists(
            st.tuples(st.integers(-5, 60), st.integers(-5, 60)).map(list), max_size=3
        )
    checkpoint = {
        "spec": spec,
        "found": draw(st.lists(st.just(FOUND_CLASS), max_size=1)),
        "exhausted_ranges": draw(ranges),
    }
    checkpoint = junk_one_field(checkpoint, list(checkpoint))

    max_cells = st.none() | st.integers(0, 60).map(str)
    if not clean:
        max_cells |= st.sampled_from(["-1", "-2", "abc", "1.5", "", str(10**12)])
    kind = pick(["spec", "resume", "both"], ["neither", "junk"])
    if kind == "junk":
        return draw(JSON_VALUES), None, draw(max_cells)
    return (
        spec if kind in ("spec", "both") else None,
        checkpoint if kind in ("resume", "both") else None,
        draw(max_cells),
    )


@pytest.fixture(scope="module")
def search_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("search")


@settings(max_examples=100, deadline=None)
@given(args=search_arguments())
def test_fuzzed_search_gives_one_valid_result(validators, search_dir, args):
    spec, checkpoint, max_cells = args
    argv = ["search", "--workers", "1"]
    for flag, data in (("--spec", spec), ("--resume", checkpoint)):
        if data is not None:
            path = search_dir / f"{flag[2:]}.json"
            path.write_text(json.dumps(data))
            argv += [flag, str(path)]
    if max_cells is not None:
        argv += ["--max-cells", max_cells]
    result, code = run(argv)
    validators["command_result.json"].validate(result)
    assert code == {"ok": 0, "error": 2}[result["status"]]
    if code == 0:
        validators["checkpoint.json"].validate(result["payload"])
        SearchCheckpoint.from_dict(result["payload"])
    json.dumps(result)


# cover through run(): curve JSON at the edges of docs/schemas/curve.json.
# Exponents may be -1, exponent triples may repeat, coefficients may be 0,
# the declared degree may be absent or off by one, and the curve's degree is
# 0 to 3, so degree 0 and the conic (degree 2) are drawn.  The candidates
# have zero coordinates, where a negative power of 0 has no value, and enough
# points off a line for a degree-1 cover to succeed.
COVER_POINTS = {
    "k": 1,
    "points": [{"x": x, "yc": y} for x, y in (("0", "0"), ("0", "1"), ("0", "-1"), ("3", "0"), ("1", "1"), ("2", "5"))],
}


@st.composite
def cover_curves(draw):
    d = draw(st.integers(0, 3))
    coefficient = st.sampled_from(["0", "1", "-1", "2/3"])
    monomials = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(-1, d + 1))
        j = draw(st.integers(-1, d + 1 - i))
        monomials.append({"i": i, "j": j, "k": d - i - j, "c": draw(coefficient)})
    if draw(st.booleans()):
        monomials.append({**draw(st.sampled_from(monomials)), "c": draw(coefficient)})
    curve = {"monomials": draw(st.permutations(monomials))}
    if draw(st.booleans()):
        curve["degree"] = d + draw(st.sampled_from([0, 0, -1, 1]))
    return curve


@pytest.fixture(scope="module")
def cover_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cover")


@settings(max_examples=200, deadline=None)
@given(curve=cover_curves())
@example(curve={"degree": 3, "monomials": [{"i": 4, "j": -1, "k": 0, "c": "1"}]})
@example(curve={"monomials": [{"i": 1, "j": 0, "k": 0, "c": "1"}, {"i": 1, "j": 0, "k": 0, "c": "-1"}]})
def test_fuzzed_cover_gives_one_valid_result(validators, cover_dir, curve):
    path = cover_dir / "curve.json"
    path.write_text(json.dumps(curve))
    with mock.patch("sys.stdin", io.StringIO(json.dumps(COVER_POINTS))):
        result, code = run(["cover", "--curve", str(path), "-"])
    validators["command_result.json"].validate(result)
    assert code == {"ok": 0, "violation": 1, "error": 2}[result["status"]]
    exponents = [(m["i"], m["j"], m["k"]) for m in curve["monomials"]]
    if min(map(min, exponents)) < 0 or len(set(exponents)) < len(exponents):
        assert code == 2
    json.dumps(result)
