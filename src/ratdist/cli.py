"""Command-line surface: JSON in, one CommandResult JSON out.

Every subcommand reads its inputs from files (or stdin with "-"), writes a
single CommandResult object to stdout, and exits 0 when the result is
mathematically OK, 1 on a violation (not an RDS, audit failed, certificate
false, selection hypotheses unmet), and 2 on usage or data errors.
Payloads carry rationals as strings and contain no timestamps, so identical
inputs produce byte-identical output; search progress events are
newline-delimited JSON on stderr, outside the payload.

Consumers unwrap a CommandResult on input, so generators compose:

    ratdist generate circle --n 4 | ratdist audit
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .curvelift import (
    HypothesisViolationError,
    PlaneCurve,
    ThresholdError,
    build_double_cover,
    choose_transverse_triple,
)
from .exactnum import _parse_integer, parse_rational
from .planeset import (
    Configuration,
    NotRdsMatrixError,
    audit_general_position,
    invert,
    normalize,
    verify_rds,
)
from .searchgen import (
    SearchCheckpoint,
    SearchSpec,
    generate_circle_rds,
    generate_line_rds,
    search,
)
from .surfacelift import (
    NotEquidistantError,
    build_surface,
    certify_V,
    lift_point,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

_STATUS_CODE = {"ok": EXIT_OK, "violation": EXIT_VIOLATION, "error": EXIT_ERROR}


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of printing usage and exiting, so errors become
    # structured diagnostics
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


def _result(status: str, payload: dict | None = None, diagnostics: list | None = None) -> dict:
    return {
        "status": status,
        "payload": payload if payload is not None else {},
        "diagnostics": diagnostics or [],
    }


def _diag(level: str, message: str, **extra) -> dict:
    out = {"level": level, "message": message}
    out.update(extra)
    return out


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as err:
        raise CliUsageError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliUsageError(f"malformed JSON in {path}: {err}") from err
    except RecursionError as err:
        raise CliUsageError(f"malformed JSON in {path}: nested too deeply") from err
    if not isinstance(data, dict):
        raise CliUsageError(f"expected a JSON object in {path}")
    return data


def _unwrap(data: dict) -> dict:
    # accept CommandResult output of another command unchanged
    if "status" in data and "payload" in data:
        payload = data["payload"]
        if not isinstance(payload, dict):
            raise CliUsageError("piped CommandResult payload is not an object")
        return payload
    return data


def _read_wire(path: str, decode=Configuration.from_dict, what: str = "configuration"):
    # every wire object enters through here; a decode error is a usage error
    data = _unwrap(_read_json(path))
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError) as err:
        raise CliUsageError(f"invalid {what} JSON: {err}") from err


def _parse_int_list(text: str) -> list[int]:
    try:
        return [_parse_integer(part.strip()) for part in text.split(",")]
    except ValueError as err:
        raise CliUsageError(f"expected comma-separated integers, got {text!r}") from err


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> dict:
    report = verify_rds(_read_wire(args.config))
    if report.is_rds:
        return _result("ok", report.to_dict())
    diags = [
        _diag("error", f"pair ({i},{j}) has irrational distance, squared {sq}")
        for i, j, sq in report.failing_pairs
    ]
    return _result("violation", report.to_dict(), diags)


def _cmd_normalize(args) -> dict:
    return _result("ok", normalize(_read_wire(args.config)).to_dict())


def _cmd_audit(args) -> dict:
    report = audit_general_position(_read_wire(args.config))
    checks = {
        "strong": report.strong_ok,
        "literal": report.literal_ok,
        "both": report.strong_ok and report.literal_ok,
    }
    ok = checks[args.require]
    diags = []
    if not report.strong_ok:
        diags.append(
            _diag(
                "warning" if ok else "error",
                f"strong general position fails: max collinear {report.max_collinear}, "
                f"max concyclic {report.max_concyclic}",
            )
        )
    if not report.literal_ok:
        diags.append(
            _diag(
                "warning" if ok else "error",
                f"literal general position fails at thresholds "
                f"({report.line_threshold}, {report.circle_threshold})",
            )
        )
    return _result("ok" if ok else "violation", report.to_dict(), diags)


def _cmd_invert(args) -> dict:
    return _result("ok", invert(_read_wire(args.config), args.center).to_dict())


def _cmd_lift(args) -> dict:
    c = _read_wire(args.config)
    sys_ = build_surface(c, _parse_int_list(args.base))
    lifted = []
    failures = []
    for idx, p in enumerate(c.points):
        try:
            lp = lift_point(p, sys_)
        except NotEquidistantError as err:
            failures.append({"index": idx, "base_index": err.index, "reason": str(err)})
            continue
        lifted.append({"index": idx, "coords": lp.to_list()})
    payload = {"system": sys_.to_dict(), "lifted": lifted, "failures": failures}
    if failures:
        diags = [
            _diag("error", f"point {f['index']} does not lift: {f['reason']}")
            for f in failures
        ]
        return _result("violation", payload, diags)
    return _result("ok", payload)


def _cmd_cover(args) -> dict:
    curve = _read_wire(args.curve, PlaneCurve.from_dict, "curve")
    candidates = _read_wire(args.from_file or args.config)
    try:
        selection = choose_transverse_triple(curve, candidates)
    except (ThresholdError, HypothesisViolationError) as err:
        diags = [_diag("error", str(err))]
        transcript = getattr(err, "transcript", ())
        return _result("violation", {"transcript": list(transcript)}, diags)
    cover = build_double_cover(curve, selection)
    payload = {
        "selection": {
            "triple": [p.to_dict() for p in selection.triple],
            "transverse_points": selection.transverse_points,
            "required_points": selection.required_points,
            "transcript": list(selection.transcript),
        },
        "cover": cover.to_dict(),
    }
    return _result("ok", payload)


def _cmd_certify(args) -> dict:
    if args.m is not None and args.base is not None:
        raise CliUsageError("certify takes --m M or --base, not both")
    if args.m is not None:
        if args.config is not None or args.from_file is not None:
            raise CliUsageError("certify --m M reads no configuration; give it --base instead")
        cert = certify_V(args.m)
    else:
        if args.base is None:
            raise CliUsageError("certify needs --m M or a configuration with --base")
        c = _read_wire(args.from_file or args.config or "-")
        cert = certify_V(sys=build_surface(c, _parse_int_list(args.base)))
    payload = cert.to_dict()
    if cert.verdict:
        return _result("ok", payload)
    return _result(
        "violation", payload, [_diag("error", f"not of certified general type: {cert.reason}")]
    )


def _cmd_search(args) -> dict:
    checkpoint = _read_wire(args.resume, SearchCheckpoint.from_dict, "checkpoint") if args.resume else None
    spec = _read_wire(args.spec, SearchSpec.from_dict, "search spec") if args.spec else None
    if spec is None and checkpoint is None:
        raise CliUsageError("search needs --spec FILE or --resume FILE")

    def progress(event: dict) -> None:
        print(json.dumps(event), file=sys.stderr, flush=True)

    out = search(
        spec,
        checkpoint=checkpoint,
        workers=args.workers,
        max_cells=args.max_cells,
        progress=progress if args.progress else None,
    )
    remaining = out.remaining_cells()
    diags = [_diag("info", f"{remaining} cells remain; resume with --resume")] if remaining else []
    return _result("ok", out.to_dict(), diags)


def _cmd_generate(args) -> dict:
    if args.family == "line":
        if args.offsets:
            offsets = [parse_rational(t.strip()) for t in args.offsets.split(",")]
        else:
            offsets = range(args.n)
        c = generate_line_rds(args.n, offsets)
    else:
        c = generate_circle_rds(args.n)
    return _result("ok", c.to_dict())


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="ratdist", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_arg(p):
        p.add_argument("config", nargs="?", default="-", help="configuration JSON file, or - for stdin")

    p = sub.add_parser("verify", help="check all pairwise distances are rational")
    add_config_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="canonical frame: first two points to (0,0), (1,0)")
    add_config_arg(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("audit", help="general-position audit")
    add_config_arg(p)
    p.add_argument("--require", choices=["strong", "literal", "both"], default="strong")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("invert", help="unit-circle inversion at a configuration point")
    add_config_arg(p)
    p.add_argument("--center", type=_parse_integer, required=True, help="index of the inversion center")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("lift", help="lift configuration points to the quadric surface")
    add_config_arg(p)
    p.add_argument("--base", required=True, help="comma-separated base point indices (>= 4)")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("cover", help="select a transverse triple and build the double cover")
    add_config_arg(p)
    p.add_argument("--curve", required=True, help="plane curve JSON file")
    p.add_argument("--from", dest="from_file", default=None, help="candidate configuration JSON file")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("certify", help="general-type certificate for the quadric surface")
    # no default, so that --m can refuse a configuration it would not read
    p.add_argument("config", nargs="?", default=None, help="configuration JSON file, or - for stdin (default)")
    p.add_argument("--m", type=_parse_integer, default=None, help="number of base points (family certificate)")
    p.add_argument("--from", dest="from_file", default=None, help="configuration JSON file")
    p.add_argument("--base", default=None, help="base indices into the configuration")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="bounded-height exhaustive search")
    p.add_argument("--spec", default=None, help="search spec JSON file")
    p.add_argument("--resume", default=None, help="checkpoint JSON file to resume")
    p.add_argument("--workers", type=_parse_integer, default=1, help="at least 1; has no effect, search runs in one process")
    p.add_argument("--max-cells", type=_parse_integer, default=None, help="stop after this many first-point cells")
    p.add_argument("--progress", action="store_true", help="emit NDJSON progress events on stderr")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("generate", help="fixture generators")
    p.add_argument("family", choices=["line", "circle"])
    p.add_argument("--n", type=_parse_integer, required=True)
    p.add_argument("--offsets", default=None, help="comma-separated rationals (line family)")
    p.set_defaults(func=_cmd_generate)

    return parser


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import; parse_args keeps no state between calls
    return build_parser()


def run(argv: "list[str]") -> tuple[dict, int]:
    """Execute one command; returns the CommandResult and the exit code."""
    try:
        args = _parser().parse_args(argv)
        result = args.func(args)
    except NotRdsMatrixError:  # normalize and invert need a rational distance set
        result = _result(
            "violation", {}, [_diag("error", "configuration is not a rational distance set")]
        )
    except ValueError as err:  # CliUsageError and every library domain error
        result = _result("error", {}, [_diag("error", str(err))])
    return result, _STATUS_CODE[result["status"]]


def main(argv: "list[str] | None" = None) -> int:
    result, code = run(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.write(json.dumps(result, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send the unflushed rest to devnull so that
        # interpreter shutdown stays quiet (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
