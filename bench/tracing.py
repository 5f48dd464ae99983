"""Spans recorded around calls into the library's public functions.

The tracer replaces a function at every module attribute that holds it, so
a call is seen whichever module makes it (``rational_sqrt`` is reached as
``searchgen.rational_sqrt``, ``planeset.rational_sqrt`` and so on).  Each
call records one span (name, start, end, parent) in flat arrays; self time
is the span's duration minus the durations of its direct children.
Nothing in the library changes: ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

# (module, function) pairs whose calls become spans.
TARGETS = (
    ("searchgen", "search"),
    ("searchgen", "canonical_form"),
    ("planeset", "squared_distance"),
    ("planeset", "embed_from_distances"),
    ("planeset", "audit_general_position"),
    ("planeset", "verify_rds"),
    ("planeset", "normalize"),
    ("planeset", "invert"),
    ("exactnum", "rational_sqrt"),
    ("exactnum", "squarefree_part"),
    ("exactnum", "poly_gcd"),
    ("exactnum", "squarefree_decomposition"),
    ("curvelift", "substitute_line"),
    ("curvelift", "count_transverse_union"),
    ("curvelift", "build_double_cover"),
    ("curvelift", "choose_transverse_triple"),
    ("surfacelift", "lift_point"),
    ("surfacelift", "certify_V"),
    ("surfacelift", "jacobian_spot_check"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_label = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        # calls per (label, calling module), e.g. rational_sqrt from searchgen
        self.site_calls: dict[tuple[str, str], int] = {}
        self.squares = 0  # rational_sqrt calls that returned a root
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[label]

    def _open(self, nid: int) -> list:
        idx = len(self.span_start)
        self.span_label.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        idx, child, start = frame
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, label: str) -> "_Span":
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, self._id(label))

    def _wrap(self, fn, label: str, site: str):
        nid = self._id(label)
        key = (label, site)
        self.site_calls.setdefault(key, 0)
        count_squares = label == "exactnum.rational_sqrt"

        def traced(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame)
                self.site_calls[key] += 1
            if count_squares and result is not None:
                self.squares += 1
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS function at each attribute of ``modules`` holding it."""
        for home, name in TARGETS:
            fn = getattr(modules[home], name)
            label = f"{home}.{name}"
            self._id(label)
            for site, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, self._wrap(fn, label, site))
                        self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def count(self, label: str) -> int:
        return self.calls[self._ids[label]] if label in self._ids else 0

    def self_time(self, label: str) -> float:
        return self.self_s[self._ids[label]] if label in self._ids else 0.0

    def total_time(self, label: str) -> float:
        return self.total_s[self._ids[label]] if label in self._ids else 0.0

    def snapshot(self) -> dict:
        """Call counts per label plus per (label, site), for before/after deltas."""
        out = {label: self.calls[i] for i, label in enumerate(self.labels)}
        out.update({f"{label}@{site}": n for (label, site), n in self.site_calls.items()})
        return out

    def write(self, directory: Path) -> None:
        """Write the spans as raw arrays plus a JSON index of labels."""
        directory.mkdir(parents=True, exist_ok=True)
        for name, arr in (
            ("label", self.span_label),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
        ):
            with open(directory / f"{name}.{arr.typecode}", "wb") as fh:
                arr.tofile(fh)
        (directory / "labels.json").write_text(
            json.dumps({"labels": self.labels, "spans": len(self.span_start)}) + "\n"
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer, self._nid = tracer, nid

    def __enter__(self) -> None:
        self._frame = self._tracer._open(self._nid)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._nid, self._frame)
