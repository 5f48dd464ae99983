"""Self-tests of the benchmark: oracles, failure counting and tracing.

Run from the repository root with ``python -m pytest -q bench/tests``.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(name: str, seed: int, workdir: Path):
    wl, _ = run.setup(name, seed, "tiny", workdir)
    return wl


def one_pass(wl, tracer=None) -> workloads.Recorder:
    rec = workloads.Recorder()
    wl.run_pass(rec, tracer)
    return rec


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["search", "pipeline", "curves"])
def test_tiny_workload_passes_every_oracle(name, seed, tmp_path):
    rec = one_pass(tiny(name, seed, tmp_path))
    assert rec.attempted >= 8
    assert rec.failed == 0, rec.messages
    assert len(rec.latencies) == rec.attempted
    assert rec.wall > 0


def _replace_module(wl, name: str, **overrides) -> None:
    module = SimpleNamespace(**{**vars(getattr(wl.lib, name)), **overrides})
    wl.lib = SimpleNamespace(**{**vars(wl.lib), name: module})


def test_corrupted_cli_output_is_counted(tmp_path):
    wl = tiny("pipeline", 1, tmp_path)
    clean = one_pass(wl)
    real_main = wl.lib.cli.main

    def corrupt_certificates(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real_main(argv)
        result = json.loads(buf.getvalue())
        if argv[:2] == ["certify", "--m"]:
            result["payload"]["lhs"] = "1"
        print(json.dumps(result))
        return code

    _replace_module(wl, "cli", main=corrupt_certificates)
    rec = one_pass(wl)
    assert rec.attempted == clean.attempted
    assert rec.failed == 1
    assert "certificate" in rec.messages[0]


def test_corrupted_curve_result_is_counted(tmp_path):
    wl = tiny("curves", 1, tmp_path)
    real = wl.lib.curvelift.count_transverse_union
    calls = []

    def off_by_one(*args):
        count, reports = real(*args)
        calls.append(count)
        return (count + 1 if len(calls) == 1 else count), reports

    _replace_module(wl, "curvelift", count_transverse_union=off_by_one)
    rec = one_pass(wl)
    assert rec.attempted == len(wl.ops)
    assert rec.failed == 1
    assert rec.messages[0].startswith("cover: transverse count")


def test_search_failures_are_counted_and_the_run_continues(tmp_path):
    wl = tiny("search", 1, tmp_path)
    real = wl.lib.searchgen.search
    calls = []

    def flaky(spec=None, checkpoint=None, **kwargs):
        calls.append(spec)
        if len(calls) == 1:  # baseline spec: drop one class
            cp = real(spec, checkpoint=checkpoint, **kwargs)
            return dataclasses.replace(cp, found=cp.found[:-1])
        if len(calls) == 2:  # four-point spec: raise
            raise RuntimeError("injected")
        return real(spec, checkpoint=checkpoint, **kwargs)

    _replace_module(wl, "searchgen", search=flaky)
    rec = one_pass(wl)
    cells = wl.cells
    assert rec.attempted == sum(cells.values())
    assert rec.failed == cells["baseline"] + cells["four_point"]
    assert "classes" in rec.messages[0] and "injected" in rec.messages[1]


def test_traced_counts_repeat_and_match_the_oracle(tmp_path):
    snapshots = []
    for _ in range(2):
        wl = tiny("search", 3, tmp_path)
        tracer = tracing.Tracer()
        tracer.install(vars(wl.lib))
        try:
            rec = one_pass(wl, tracer)
        finally:
            tracer.uninstall()
        assert rec.failed == 0, rec.messages
        snapshots.append(tracer.snapshot())
        assert rec.counts["baseline.raw_hits"] == oracle.search_counts(1, 2, 1, 3, False)[0]
        assert tracer.count("searchgen.canonical_form") == rec.counts["raw_hits"]
    assert snapshots[0] == snapshots[1]
    assert wl.lib.searchgen.canonical_form.__name__ == "canonical_form"  # uninstalled


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer = tracer.span_end[0] - tracer.span_start[0]
    inner = tracer.span_end[1] - tracer.span_start[1]
    assert tracer.span_parent[1] == 0
    assert tracer.self_time("outer") == pytest.approx(outer - inner)
    assert tracer.self_time("inner") == pytest.approx(inner)


def test_independent_search_oracle_reproduces_the_baseline():
    assert oracle.search_counts(1, 4, 1, 3, False) == (1872, 14)


def test_curve_multiplicities_agree_with_sympy(tmp_path):
    sympy = pytest.importorskip("sympy")
    I, QQ, sqrt, t = sympy.I, sympy.QQ, sympy.sqrt, sympy.Symbol("t")
    wl = tiny("curves", 1, tmp_path)
    covers = [op for kind, op in wl.ops if kind == "cover"]
    assert any(len(op["multiplicities"]) == 2 for op in covers)
    for op in covers:
        k = op["k"]
        w = I * sqrt(k)
        domain = QQ.algebraic_field(w)
        for p in op["triple"]:
            for sign in (1, -1):
                x, y = p.x - sign * w * t, p.yc + t
                expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                           for i, j, _l, c in op["curve"].monomials)
                _, factors = sympy.Poly(sympy.expand(expr), t, domain=domain).sqf_list()
                degrees = {}
                for factor, mult in factors:
                    degrees[mult] = degrees.get(mult, 0) + factor.degree()
                assert tuple(sorted(degrees.items())) == op["multiplicities"]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in run.PER_LAYER]
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
