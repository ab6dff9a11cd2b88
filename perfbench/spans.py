"""Span arithmetic for the traced benchmark run.

A span is ``(span_id, parent_id, name, start_ns, end_ns)``; the parent id
is ``None`` for a root.  Spans of one command share a file, so a span's
command is the file it came from.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> dict:
    """span_id -> self time in ns: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = defaultdict(list)
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _parent, _name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def aggregate(spans) -> dict:
    """name -> {"self_s": total self time in seconds, "calls": count}."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span_id, _parent, name, _start, _end in spans:
        out[name]["self_s"] += selfs[span_id] / 1e9
        out[name]["calls"] += 1
    return dict(out)


def root_duration_s(spans, name: str) -> float:
    """Total duration in seconds of the root spans called ``name``."""
    return sum(end - start for _id, parent, n, start, end in spans
               if parent is None and n == name) / 1e9
