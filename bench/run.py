"""Benchmark driver for ratdist.

    python3 bench/run.py --workload search|pipeline|curves|all \
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed several times (``setup_s`` is
the median), then repeats the workload's fixed work in passes for as long
as another pass fits in ``--seconds`` (at least one pass).  With
``--trace 1`` it instead runs one untraced pass, then one pass with spans
recorded around the library's public functions, and reports per-module
figures; the spans are written under ``.bench_out/``.

Stdout: one JSON report line (environment, sample counts, every metric
including ``fail_ratio``), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs each workload in its own process and prints a table instead.
The exit code is 0 when the run finished, whether or not ops failed, and
2 when the library cannot be found under ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("exactnum", "planeset", "searchgen", "curvelift", "surfacelift", "cli")
SETUP_REPEATS = 7

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("searchgen.search.self_s", "s", "lower"),
    ("searchgen.canonical_form.calls", "count", "lower"),
    ("searchgen.canonical_form.s", "s", "lower"),
    ("searchgen.canonical_form.total_s", "s", "lower"),
    ("searchgen.classes", "count", "higher"),
    ("searchgen.dedup_ratio", "ratio", "higher"),
    ("searchgen.checkpoint.s", "s", "lower"),
    ("searchgen.checkpoint.bytes", "B", "lower"),
    ("searchgen.pool_speedup", "ratio", "higher"),
    ("searchgen.baseline.raw_hits", "count", "lower"),
    ("searchgen.baseline.classes", "count", "higher"),
    ("searchgen.baseline.embed_calls", "count", "lower"),
    ("searchgen.baseline.pair_tests", "count", "lower"),
    ("planeset.squared_distance.calls", "count", "lower"),
    ("planeset.embed_from_distances.calls", "count", "lower"),
    ("planeset.embed_from_distances.s", "s", "lower"),
    ("planeset.audit_general_position.calls", "count", "lower"),
    ("planeset.audit_general_position.s", "s", "lower"),
    ("planeset.verify_rds.s", "s", "lower"),
    ("planeset.normalize.s", "s", "lower"),
    ("planeset.invert.s", "s", "lower"),
    ("exactnum.rational_sqrt.calls", "count", "lower"),
    ("exactnum.rational_sqrt.s", "s", "lower"),
    ("exactnum.rational_sqrt.square_ratio", "ratio", "higher"),
    ("exactnum.squarefree_part.calls", "count", "lower"),
    ("exactnum.squarefree_part.s", "s", "lower"),
    ("exactnum.poly_gcd.calls", "count", "lower"),
    ("exactnum.poly_gcd.s", "s", "lower"),
    ("exactnum.squarefree_decomposition.calls", "count", "lower"),
    ("exactnum.squarefree_decomposition.s", "s", "lower"),
    ("curvelift.substitute_line.calls", "count", "lower"),
    ("curvelift.substitute_line.s", "s", "lower"),
    ("curvelift.count_transverse_union.s", "s", "lower"),
    ("curvelift.build_double_cover.s", "s", "lower"),
    ("curvelift.choose_transverse_triple.s", "s", "lower"),
    ("curvelift.exact_ratio", "ratio", "higher"),
    ("surfacelift.lift_point.calls", "count", "lower"),
    ("surfacelift.lift_point.s", "s", "lower"),
    ("surfacelift.certify_V.s", "s", "lower"),
    ("surfacelift.census_records", "count", "lower"),
    ("surfacelift.jacobian_spot_check.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("cli.exit_code.0", "count", "higher"),
    ("cli.exit_code.1", "count", "lower"),
    ("cli.exit_code.2", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_ratio": "1",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import ratdist afresh from SRC; returns the six modules."""
    for name in [n for n in sys.modules if n == "ratdist" or n.startswith("ratdist.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"ratdist.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ratdist was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int, size: str, workdir: Path):
    """Time one set-up: import the library and build the workload's inputs."""
    import workloads

    start = perf_counter()
    lib = import_library()
    wl = workloads.WORKLOADS[workload](lib, seed, size, workdir)
    return wl, perf_counter() - start


def environment(seed: int) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    models = [line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "loadavg": read("/proc/loadavg").split()[:3],
        "seed": seed,
    }


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, in ms."""
    if len(latencies) < 2:
        value = latencies[0] * 1e3 if latencies else 0.0
        return value, value
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def timed_run(wl, seconds: float) -> tuple[dict, dict, list]:
    import workloads

    recs = []
    start = perf_counter()
    longest = 0.0  # stop when one more pass as long as the longest so far would overrun
    while not recs or perf_counter() - start + longest <= seconds:
        begun = perf_counter()
        rec = workloads.Recorder()
        wl.run_pass(rec)
        recs.append(rec)
        longest = max(longest, perf_counter() - begun)
    latencies = [x for rec in recs for x in rec.latencies]
    p50, p90 = percentiles(latencies)
    walls = [rec.wall for rec in recs]
    metrics = {
        "wall_s": (statistics.median(walls), len(walls)),
        "op_p50_ms": (p50, len(latencies)),
        "op_p90_ms": (p90, len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return metrics, {"passes": len(recs), "ops_per_pass": recs[0].attempted}, recs


def traced_run(wl, out_dir: Path) -> tuple[dict, dict, list]:
    import tracing
    import workloads

    plain = workloads.Recorder()
    wl.run_pass(plain)
    recs = [plain]
    extra = {"searchgen.pool_speedup": 0.0}
    if wl.name == "search":
        speedup, problem = wl.pool_speedup()
        extra["searchgen.pool_speedup"] = speedup
        pool = workloads.Recorder()
        pool.ops([], 2, problem and f"pool: {problem}")
        recs.append(pool)
    tracer = tracing.Tracer()
    tracer.install(vars(wl.lib))
    traced = workloads.Recorder()
    try:
        wl.run_pass(traced, tracer)
    finally:
        tracer.uninstall()
    recs.append(traced)
    tracer.write(out_dir)
    extra["trace.overhead_s"] = traced.wall - plain.wall
    metrics = {name: (value, 1) for name, value in layer_metrics(tracer, traced.counts, extra).items()}
    info = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall, "spans_dir": str(out_dir)}
    return metrics, info, recs


def layer_metrics(tracer, counts, extra: dict) -> dict:
    def ratio(num, den) -> float:
        return num / den if den else 0.0

    special = {
        "searchgen.search.self_s": tracer.self_time("searchgen.search"),
        "searchgen.classes": counts["classes"],
        "searchgen.dedup_ratio": ratio(counts["classes"], counts["raw_hits"]),
        "searchgen.checkpoint.bytes": counts["checkpoint_bytes"],
        "searchgen.baseline.raw_hits": counts["baseline.raw_hits"],
        "searchgen.baseline.classes": counts["baseline.classes"],
        "searchgen.baseline.embed_calls": counts["baseline.embed_calls"],
        "searchgen.baseline.pair_tests": counts["baseline.pair_tests"],
        "exactnum.rational_sqrt.square_ratio": ratio(
            tracer.squares, tracer.count("exactnum.rational_sqrt")),
        "curvelift.exact_ratio": ratio(counts["exact_covers"], counts["covers"]),
        "surfacelift.census_records": counts["census_records"],
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.stdout_bytes": counts["stdout_bytes"],
        "cli.exit_code.0": counts["exit_code.0"],
        "cli.exit_code.1": counts["exit_code.1"],
        "cli.exit_code.2": counts["exit_code.2"],
        "trace.spans": len(tracer.span_start),
        **extra,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".total_s"):
            out[name] = tracer.total_time(name[: -len(".total_s")])
        elif name.endswith(".calls"):
            out[name] = tracer.count(name[: -len(".calls")])
        else:
            out[name] = tracer.self_time(name[: -len(".s")])
    return out


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl, elapsed = setup(args.workload, args.seed, "full", workdir)
            setups.append(elapsed)
        if args.trace:
            spans_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
            metrics, info, recs = traced_run(wl, spans_dir)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, info, recs = timed_run(wl, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), len(setups))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(rec.attempted for rec in recs)
    failed = sum(rec.failed for rec in recs)
    if not args.trace:
        metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, attempted)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        **info,
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in metrics.items()
        },
        "failures": [msg for rec in recs for msg in rec.messages][:20],
    }
    print(json.dumps(report))
    result_names = [n for n, _, _ in PER_LAYER] if args.trace else [
        n for n in END_TO_END_UNITS if n != "fail_ratio"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in result_names},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """One process per workload; print every end-to-end metric per workload."""
    rows = []
    for name in ("search", "pipeline", "curves"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(lines[-2])
        rows.append((name, json.loads(lines[-2])))
    width = max(len(n) for _, report in rows for n in report["metrics"])
    for name, report in rows:
        print(f"\n[{name}] seed={args.seed} trace={args.trace}")
        for metric, m in report["metrics"].items():
            print(f"  {metric:<{width}} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "pipeline", "curves", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ratdist" / "__init__.py").is_file():
        print(f"error: the ratdist sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
