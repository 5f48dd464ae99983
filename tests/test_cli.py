"""Tests for the CLI: subcommands, exit codes, pipes, and byte stability."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest

from ratdist import cli
from ratdist.cli import build_parser, main, run
from ratdist.surfacelift import MAX_M
from ratdist.planeset import Configuration, LatticePoint
from ratdist.searchgen import SearchCheckpoint

F = Fraction


def invoke(argv, stdin_text=None):
    """Run the CLI in-process via run(); stdin via monkeyed sys.stdin."""
    proc = subprocess.run(
        [sys.executable, "-m", "ratdist.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        payload = None
    return proc.returncode, payload, proc


def config_json(k, pts, provenance=""):
    return json.dumps(
        Configuration(k, tuple(LatticePoint(F(x), F(y)) for x, y in pts), provenance).to_dict()
    )


TRIANGLE = config_json(1, [(0, 0), (3, 0), (0, 4)])
SQUARE = config_json(1, [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_certify_m4():
    code, result, _ = invoke(["certify", "--m", "4"])
    assert code == 0
    assert result["status"] == "ok"
    assert result["payload"]["lhs"] == "16"
    assert result["payload"]["rhs"] == "8"
    assert result["payload"]["verdict"] is True


def test_certify_m3_violation():
    code, result, _ = invoke(["certify", "--m", "3"])
    assert code == 1
    assert result["status"] == "violation"
    assert result["payload"]["reason"] == "not ample"


def test_certify_from_configuration():
    rect = config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4)])
    code, result, _ = invoke(["certify", "--base", "0,1,2,3", "-"], stdin_text=rect)
    assert code == 0 and result["payload"]["m"] == 4


def test_verify_square_violation():
    code, result, _ = invoke(["verify"], stdin_text=SQUARE)
    assert code == 1
    assert result["status"] == "violation"
    pairs = result["payload"]["failing_pairs"]
    assert {"i": 1, "j": 2, "squared": "2"} in pairs


def test_verify_triangle_ok():
    code, result, _ = invoke(["verify"], stdin_text=TRIANGLE)
    assert code == 0
    assert result["payload"]["distances"][1][2] == "5"


def test_generate_circle_pipe_audit():
    code, result, proc = invoke(["generate", "circle", "--n", "4"])
    assert code == 0
    code2, result2, _ = invoke(["audit"], stdin_text=proc.stdout)
    assert code2 == 1
    assert result2["payload"]["max_concyclic"] == 4
    assert result2["payload"]["strong_ok"] is False


def test_generate_line_pipe_verify_and_normalize():
    code, _, proc = invoke(["generate", "line", "--n", "4"])
    assert code == 0
    code2, _, proc2 = invoke(["verify"], stdin_text=proc.stdout)
    assert code2 == 0
    code3, result3, _ = invoke(["normalize"], stdin_text=proc.stdout)
    assert code3 == 0
    assert result3["payload"]["points"][1] == {"x": "1", "yc": "0"}


def test_generate_line_offsets_may_be_spaced():
    # --offsets is argv, not wire text: blanks around each part are dropped
    spaced, code = run(["generate", "line", "--n", "3", "--offsets", " 0, 1,\t5/2 "])
    assert code == 0
    assert spaced == run(["generate", "line", "--n", "3", "--offsets", "0,1,5/2"])[0]
    assert [p["x"] for p in spaced["payload"]["points"]] == ["0", "1", "5/2"]


# the CLI in a child limited to 1 GiB of address space
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from ratdist.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _limited_cli(argv, stdin_text=None):
    # one CommandResult from a child with 1 GiB of address space and 30 s
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *argv],
        input=stdin_text, capture_output=True, text=True, timeout=30,
    )
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout)


@pytest.mark.parametrize("n", [10**6, 10**9, 10**18])
@pytest.mark.parametrize("family", [["line"], ["circle"]])
def test_generate_refuses_n_above_the_maximum(family, n):
    # refused before anything is allocated: exit 2 and one CommandResult
    code, result = _limited_cli(["generate", *family, "--n", str(n)])
    assert code == 2
    assert result["status"] == "error" and result["payload"] == {}
    assert "MAX_N=10000" in result["diagnostics"][0]["message"]


def test_generate_circle_has_no_parameter_bound():
    # the scan takes the first n - 1 triples, so n alone decides the output
    result, code = run(["generate", "circle", "--n", "4", "--parameter-bound", "5"])
    assert code == 2 and result["payload"] == {}
    assert result["diagnostics"] == [
        {"level": "error", "message": "unrecognized arguments: --parameter-bound 5"}
    ]


@pytest.mark.parametrize("n", [8157, 8158, 10000])
def test_generate_circle_reaches_the_maximum(n):
    # the default bound of 200 on the triple parameter refused n above 8157
    result, code = run(["generate", "circle", "--n", str(n)])
    assert code == 0 and len(result["payload"]["points"]) == n


def test_verify_accepts_k_with_two_prime_factors_above_the_trial_bound():
    # 10002200057 = 100003 * 100019, squarefree; a third such factor leaves
    # the residue undecided, and the error names k
    two = config_json(100003 * 100019, [(0, 0), (1, 0)])
    code, result, _ = invoke(["verify"], stdin_text=two)
    assert code == 0 and result["payload"]["is_rds"] is True
    k = 100003 * 100019 * 100043
    three = json.dumps({"k": k, "points": [{"x": "0", "yc": "0"}, {"x": "1", "yc": "0"}]})
    code, result, _ = invoke(["verify"], stdin_text=three)
    assert code == 2
    assert f"could not decide whether k={k} is squarefree" in result["diagnostics"][0]["message"]


@pytest.mark.parametrize(
    "bounds", [(3000, 1), (10**6, 1), (10**9, 1), (10**18, 1), (1, 10**9)]
)
@pytest.mark.parametrize("mode", ["spec", "resume"])
def test_search_refuses_a_grid_above_the_cell_cap(bounds, mode):
    # refused while the spec is decoded, before the grid is built
    spec = {"k": 1, "numerator_bound": bounds[0], "denominator_bound": bounds[1], "target_size": 3}
    if mode == "spec":
        text = json.dumps(spec)
    else:
        text = json.dumps({"spec": spec, "found": [], "exhausted_ranges": []})
    code, result = _limited_cli(["search", f"--{mode}", "-", "--max-cells", "0"], text)
    assert code == 2
    assert result["status"] == "error" and result["payload"] == {}
    assert "MAX_CELLS=10000" in result["diagnostics"][0]["message"]


@pytest.mark.parametrize(
    "target, classes, digest",
    # stdout digests recorded when collinear cliques were rejected only at
    # the leaf, which took about 13 s and 60 s on these two specs
    [
        (4, 9, "b6dba318fd7d4353045b78fd481319f8ee07fdaa7562ff8811b3aea8eb66a435"),
        (5, 0, "f6ef061528ce91cf651a7d811a16b9a7e4b5c91dfcb5ffff84b5d4b95ac302f2"),
    ],
)
def test_search_strong_12_box_is_unchanged_and_fast(target, classes, digest):
    spec = {"k": 1, "numerator_bound": 12, "denominator_bound": 1, "target_size": target,
            "require": "strong_general_position"}
    start = time.perf_counter()
    code, result, proc = invoke(["search", "--spec", "-"], stdin_text=json.dumps(spec))
    assert time.perf_counter() - start < 10
    assert code == 0 and len(result["payload"]["found"]) == classes
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_certify_refuses_m_with_base():
    # --m certifies the family and would ignore the configuration's base
    rect = config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4)])
    for base in ("0,1,2", "0,1,2,3"):
        code, result = _limited_cli(["certify", "--m", "5", "--base", base, "-"], rect)
        assert code == 2
        assert result["status"] == "error" and result["payload"] == {}
        assert "not both" in result["diagnostics"][0]["message"]


@pytest.mark.parametrize(
    "config_args",
    [["/nonexistent.json"], ["--from", "/nonexistent.json"], ["-"], ["{rect}"], ["--from", "{rect}"]],
)
def test_certify_refuses_m_with_a_configuration(tmp_path, config_args):
    # --m certifies the family and reads no configuration, so naming one is a
    # usage error, whether the file exists or not
    rect = tmp_path / "rect.json"
    rect.write_text(config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4)]))
    argv = ["certify", "--m", "5", *(a.format(rect=rect) for a in config_args)]
    result, code = run(argv)
    assert code == 2
    assert result["status"] == "error" and result["payload"] == {}
    assert "reads no configuration" in result["diagnostics"][0]["message"]


def test_certify_m_alone_is_unchanged():
    # stdout digest of `certify --m 5`, recorded before a configuration given
    # with --m became a usage error; the family certificate reads no stdin
    code, _, proc = invoke(["certify", "--m", "5"], stdin_text="not json")
    assert code == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "5a42e6760696fcb0944dbcfd4f3f748a2092326b246748ff276a094d7088cd20"


def test_normalize_large_k_rds(tmp_path):
    # verify accepts this set; normalizing it must not factor its verticals
    config = tmp_path / "large_k.json"
    config.write_text(config_json(100003, [(0, 0), (10003700358, 0), (5001850179, 100019)]))
    assert run(["verify", str(config)])[1] == 0
    result, code = run(["normalize", str(config)])
    assert code == 0
    assert result["payload"]["k"] == 100003
    assert result["payload"]["points"] == [
        {"x": "0", "yc": "0"},
        {"x": "1", "yc": "0"},
        {"x": "1/2", "yc": "100019/10003700358"},
    ]


def test_invert_pipe_composition():
    code, result, proc = invoke(["invert", "--center", "0"], stdin_text=TRIANGLE)
    assert code == 0
    assert result["payload"]["points"][1] == {"x": "1/3", "yc": "0"}
    code2, _, _ = invoke(["verify"], stdin_text=proc.stdout)
    assert code2 == 0


def test_invert_usage_error():
    code, result, _ = invoke(["invert", "--center", "9"], stdin_text=TRIANGLE)
    assert code == 2 and result["status"] == "error"


def test_lift_ok_and_violation():
    rect = config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4)])
    code, result, _ = invoke(["lift", "--base", "0,1,2,3", "-"], stdin_text=rect)
    assert code == 0
    assert result["payload"]["lifted"][0]["coords"] == ["0", "0", "1", "0", "3", "4", "5"]

    with_bad = config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4), (1, 0)])
    code2, result2, _ = invoke(["lift", "--base", "0,1,2,3", "-"], stdin_text=with_bad)
    assert code2 == 1
    assert result2["payload"]["failures"][0]["index"] == 4
    assert result2["payload"]["failures"][0]["base_index"] == 3


# The 3-4-5 triangle written with Arabic-Indic digits 0, 3 and 4.
ARABIC_TRIANGLE = {
    "k": 1,
    "points": [{"x": "\u0660", "yc": "0"}, {"x": "\u0663", "yc": "0"}, {"x": "0", "yc": "\u0664"}],
}


@pytest.mark.parametrize("argv", [["verify"], ["normalize"], ["invert", "--center", "0"]])
def test_non_ascii_digits_are_a_usage_error(tmp_path, argv):
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps(ARABIC_TRIANGLE))
    result, code = run([*argv, str(path)])
    assert code == 2 and result["status"] == "error"
    assert result["diagnostics"][0]["message"] == (
        "invalid configuration JSON: not a rational literal: '\u0660'"
    )


def test_lift_needs_four_base_points():
    code, result, _ = invoke(["lift", "--base", "0,1,2", "-"], stdin_text=TRIANGLE)
    assert code == 2 and "ample" in result["diagnostics"][0]["message"]


def test_cover_line(tmp_path):
    curve = {"degree": 1, "monomials": [{"i": 0, "j": 1, "k": 0, "c": "1"}]}
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(curve))
    cands = config_json(1, [(0, 1), (0, -1), (0, 2), (1, 1), (2, 5)])
    code, result, _ = invoke(["cover", "--curve", str(curve_file), "-"], stdin_text=cands)
    assert code == 0
    assert result["payload"]["cover"]["r"] == 6
    assert result["payload"]["cover"]["genus"] == 2
    assert result["payload"]["selection"]["transverse_points"] == 6


def test_cover_threshold_violation(tmp_path):
    curve = {"degree": 1, "monomials": [{"i": 0, "j": 1, "k": 0, "c": "1"}]}
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(curve))
    cands = config_json(1, [(0, 1), (0, -1), (0, 2), (1, 1)])
    code, result, _ = invoke(["cover", "--curve", str(curve_file), "-"], stdin_text=cands)
    assert code == 1 and result["status"] == "violation"


def test_cover_conic_usage_error(tmp_path):
    conic = {
        "degree": 2,
        "monomials": [
            {"i": 2, "j": 0, "k": 0, "c": "1"},
            {"i": 0, "j": 2, "k": 0, "c": "1"},
            {"i": 0, "j": 0, "k": 2, "c": "-1"},
        ],
    }
    curve_file = tmp_path / "conic.json"
    curve_file.write_text(json.dumps(conic))
    cands = config_json(1, [(0, 1), (0, -1), (0, 2), (1, 1), (2, 5)])
    code, result, _ = invoke(["cover", "--curve", str(curve_file), "-"], stdin_text=cands)
    assert code == 2
    assert "inversion" in result["diagnostics"][0]["message"]


def test_search_spec_file(tmp_path):
    spec = {
        "k": 1,
        "numerator_bound": 2,
        "denominator_bound": 1,
        "target_size": 3,
        "require": "any",
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, result, _ = invoke(["search", "--spec", str(spec_file)])
    assert code == 0
    assert SearchCheckpoint.from_dict(result["payload"]).complete()
    assert len(result["payload"]["found"]) > 0

    # resume from a partial checkpoint gives the same final found set
    code2, partial, _ = invoke(["search", "--spec", str(spec_file), "--max-cells", "6"])
    assert code2 == 0 and SearchCheckpoint.from_dict(partial["payload"]).remaining_cells() == 25 - 6
    resume_file = tmp_path / "cp.json"
    resume_file.write_text(json.dumps(partial["payload"]))
    code3, resumed, _ = invoke(["search", "--resume", str(resume_file)])
    assert code3 == 0
    assert resumed["payload"]["found"] == result["payload"]["found"]


def test_search_negative_max_cells_is_usage_error(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3})
    )
    code, result, _ = invoke(["search", "--spec", str(spec_file), "--max-cells", "-1"])
    assert code == 2
    assert result["status"] == "error"
    assert "max_cells" in result["diagnostics"][0]["message"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_workers_below_one_is_usage_error(tmp_path, workers):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3})
    )
    result, code = run(["search", "--spec", str(spec_file), "--workers", workers])
    assert code == 2
    assert result["status"] == "error"
    assert "workers" in result["diagnostics"][0]["message"]


def test_search_cli_loads_no_process_pool(tmp_path):
    # a fresh interpreter, so that no other test has imported the modules
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3})
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from ratdist import cli\n"
        f"assert cli.run(['search', '--spec', {str(spec_file)!r}, '--workers', '4'])[1] == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_search_progress_stderr(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3})
    )
    code, _, proc = invoke(["search", "--spec", str(spec_file), "--progress"])
    assert code == 0
    events = [json.loads(line) for line in proc.stderr.splitlines() if line.strip()]
    assert events and all("event" in e for e in events)
    # stdout stays a single parseable CommandResult
    json.loads(proc.stdout)


def test_malformed_json_is_usage_error():
    code, result, _ = invoke(["verify"], stdin_text="{not json")
    assert code == 2
    assert result["status"] == "error"
    assert "malformed JSON" in result["diagnostics"][0]["message"]


def test_unknown_command_is_usage_error():
    code, result, _ = invoke(["frobnicate"])
    assert code == 2 and result["status"] == "error"


def test_missing_schema_key_is_usage_error():
    code, result, _ = invoke(["verify"], stdin_text=json.dumps({"k": 1}))
    assert code == 2
    assert "invalid configuration" in result["diagnostics"][0]["message"]


def test_json_number_coordinate_is_usage_error():
    text = json.dumps({"k": 1, "points": [{"x": 0, "yc": "0"}, {"x": "1", "yc": "0"}]})
    code, result, proc = invoke(["verify"], stdin_text=text)
    assert code == 2
    assert result["status"] == "error"
    assert "invalid configuration" in result["diagnostics"][0]["message"]
    # exactly one CommandResult on stdout, and no traceback
    assert json.loads(proc.stdout) == result
    assert "Traceback" not in proc.stderr


def _single_error(result, code):
    assert code == 2
    assert result["status"] == "error" and result["payload"] == {}
    assert len(result["diagnostics"]) == 1 and result["diagnostics"][0]["level"] == "error"


SPEC = {"k": 1, "numerator_bound": 1, "denominator_bound": 1, "target_size": 3}
X_AXIS_CURVE = {"degree": 1, "monomials": [{"i": 0, "j": 1, "k": 0, "c": "1"}]}
COVER_CANDIDATES = json.loads(config_json(1, [(0, 1), (0, -1), (0, 2), (1, 1), (2, 5)]))


def _spec_with(field):
    def case(bad):
        return ["search", "--spec", {**SPEC, field: bad}]
    return case


def _curve_with(field):
    def case(bad):
        curve = json.loads(json.dumps(X_AXIS_CURVE))
        if field == "degree":
            curve["degree"] = bad
        else:
            curve["monomials"][0][field] = bad
        return ["cover", "--curve", curve, COVER_CANDIDATES]
    return case


INT_FIELD_CASES = {
    "configuration.k": lambda bad: ["verify", {**json.loads(TRIANGLE), "k": bad}],
    **{f"spec.{f}": _spec_with(f) for f in SPEC},
    "checkpoint.exhausted_ranges": lambda bad: [
        "search", "--resume", {"spec": SPEC, "found": [], "exhausted_ranges": [[0, bad]]}
    ],
    **{f"curve.monomial.{f}": _curve_with(f) for f in ("i", "j", "k")},
    "curve.degree": _curve_with("degree"),
}


@pytest.mark.parametrize("bad", [1.7, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", sorted(INT_FIELD_CASES))
def test_ill_typed_integer_is_usage_error(tmp_path, field, bad):
    # each JSON object in the case becomes a file argument
    argv = []
    for i, arg in enumerate(INT_FIELD_CASES[field](bad)):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    result, code = run(argv)
    _single_error(result, code)
    message = result["diagnostics"][0]["message"]
    assert message.startswith("invalid ") and "must be a JSON int" in message


@pytest.mark.parametrize(
    "ranges", [[[0, 10**7]], [[0, 10**12]], [[-5, 3]], [[100, 200]], [[7, 2]]]
)
def test_search_resume_with_ranges_outside_the_grid_is_usage_error(tmp_path, ranges):
    # SPEC has 9 grid cells; each of these ranges used to be accepted, and
    # a wide one was expanded cell by cell
    resume_file = tmp_path / "cp.json"
    resume_file.write_text(json.dumps({"spec": SPEC, "found": [], "exhausted_ranges": ranges}))
    start = time.perf_counter()
    result, code = run(["search", "--resume", str(resume_file)])
    assert time.perf_counter() - start < 0.5
    _single_error(result, code)
    assert "outside the 9 grid cells" in result["diagnostics"][0]["message"]


RESUME_SPEC = {"k": 2, "numerator_bound": 4, "denominator_bound": 1, "target_size": 3}


@pytest.mark.parametrize(
    "k, points, message",
    [
        (1, [(0, 0), (1, 0), (0, 1)], "has k=1, the spec has k=2"),  # the k=1 triangle
        (2, [(0, 0), (1, 0), (0, 1)], "not a rational distance set"),  # a side is sqrt(2)
        (2, [(0, 0), (1, 0)], "has 2 points, target size is 3"),
    ],
)
def test_search_resume_rejects_found_classes_the_spec_cannot_return(tmp_path, k, points, message):
    found = json.loads(config_json(k, points))
    resume_file = tmp_path / "cp.json"
    resume_file.write_text(json.dumps({"spec": RESUME_SPEC, "found": [found], "exhausted_ranges": []}))
    result, code = run(["search", "--resume", str(resume_file)])
    _single_error(result, code)
    assert message in result["diagnostics"][0]["message"]


NOT_RDS = {
    "status": "violation",
    "payload": {},
    "diagnostics": [{"level": "error", "message": "configuration is not a rational distance set"}],
}


@pytest.mark.parametrize(
    "argv",
    [["normalize"], ["invert", "--center", "0"], ["invert", "--center", "9"]],
    ids=["normalize", "invert", "invert-out-of-range"],
)
def test_non_rds_is_violation(argv):
    code, result, proc = invoke(argv, stdin_text=SQUARE)
    assert code == 1 and result == NOT_RDS
    assert "Traceback" not in proc.stderr


def test_invert_out_of_range_message():
    code, result, _ = invoke(["invert", "--center", "9"], stdin_text=TRIANGLE)
    assert code == 2
    assert result["diagnostics"] == [
        {"level": "error", "message": "center index 9 out of range for 3 points"}
    ]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_certify_m_below_one_is_usage_error(m):
    result, code = run(["certify", "--m", m])
    _single_error(result, code)


def test_byte_stable_output():
    _, _, proc1 = invoke(["certify", "--m", "4"])
    _, _, proc2 = invoke(["certify", "--m", "4"])
    assert proc1.stdout == proc2.stdout
    _, _, p3 = invoke(["audit"], stdin_text=SQUARE)
    _, _, p4 = invoke(["audit"], stdin_text=SQUARE)
    assert p3.stdout == p4.stdout


def test_run_in_process_matches_subprocess():
    result, code = run(["certify", "--m", "5"])
    assert code == 0
    assert result["payload"]["lhs"] == "128" and result["payload"]["rhs"] == "64"


# ---------------------------------------------------------------------------
# bounded certify output, hostile input and a closed stdout


def test_certify_m40_is_small_and_fast():
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["certify", "--m", "40"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(out.getvalue().encode()) < 2048
    records = json.loads(out.getvalue())["payload"]["records"]
    assert sum(r["count"] for r in records) == 40 * 2**39 + 2


@pytest.mark.parametrize("m", [str(MAX_M + 1), str(10**12)])
def test_certify_above_max_m_is_usage_error(m):
    result, code = run(["certify", "--m", m])
    _single_error(result, code)
    assert "MAX_M" in result["diagnostics"][0]["message"]


@pytest.mark.parametrize("text", ["[" * 100_000, '{"k": ' * 100_000], ids=["array", "object"])
def test_deeply_nested_json_is_usage_error(text):
    with mock.patch("sys.stdin", io.StringIO(text)):
        result, code = run(["verify"])
    _single_error(result, code)
    assert "nested too deeply" in result["diagnostics"][0]["message"]


class _ClosedPipe:
    """A stdout whose reader has gone; fileno() is a scratch file's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, expected", [(["certify", "--m", "4"], 0), (["certify", "--m", "3"], 1), (["certify"], 2)]
)
def test_broken_pipe_returns_the_command_code(tmp_path, argv, expected):
    with open(tmp_path / "out", "w") as fh:
        with mock.patch("sys.stdout", _ClosedPipe(fh.fileno())):
            assert main(argv) == expected
        # stdout now points at the null device, so the exit flush is quiet
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))


def test_closed_stdout_prints_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratdist.cli", "certify", "--m", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == b""


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once_and_not_at_import():
    code = "import ratdist.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.strip() == "0"
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_shared_parser_matches_fresh_parsers(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(TRIANGLE)
    sq = tmp_path / "sq.json"
    sq.write_text(SQUARE)
    rect = tmp_path / "rect.json"
    rect.write_text(config_json(1, [(0, 0), (3, 0), (0, 4), (3, 4)]))
    argvs = [
        ["verify", str(tri)],
        ["audit", str(sq), "--require", "literal"],
        ["frobnicate"],
        ["audit", str(sq)],
        ["invert", str(tri), "--center", "1"],
        ["invert", str(tri)],
        ["invert", str(tri), "--center", "0"],
        ["certify", "--m", "5"],
        ["audit", str(sq), "--require", "bogus"],
        ["certify", "--m", "abc"],
        ["certify", "--from", str(rect), "--base", "0,1,2,3"],
        ["certify", str(rect)],
        ["certify", "--m", "3"],
        ["generate", "line", "--n", "3", "--offsets", "0,1,5/2"],
        ["generate", "circle"],
        ["generate", "line", "--n", "4"],
        ["lift", str(rect), "--base", "0,1,2,3"],
        ["audit", str(sq), "--require", "both"],
        ["normalize", str(tri)],
        ["verify", str(sq)],
        [],
    ]
    with mock.patch.object(cli, "_parser", build_parser):
        fresh = [run(argv) for argv in argvs]
    for order in (argvs, argvs[::-1], argvs[::2] + argvs[1::2]):
        shared = {json.dumps(argv): run(argv) for argv in order}
        assert [shared[json.dumps(argv)] for argv in argvs] == fresh
    for argv in argvs[:2] + argvs[4:5] + argvs[13:14]:
        assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
