"""Standard-format exporters for run telemetry.

Two interchange formats, both derived from the documents the rest of
:mod:`repro.obs` already produces:

* :func:`chrome_trace` — the span list (``trace.jsonl`` rows) as a
  Chrome ``trace_event`` JSON object, loadable in Perfetto /
  ``chrome://tracing``; :func:`validate_chrome_trace` checks the
  structural schema so CI can assert exports stay loadable.
* :func:`append_bench_history` / :func:`load_bench_history` — the
  unified ``BENCH_history.jsonl`` trajectory every benchmark appends
  to, which the regression sentinel (:mod:`repro.obs.sentinel`) diffs
  across CI runs.

Plus :func:`filter_spans`, the server-side ``--span``/``--shard``
filter behind ``repro runs trace``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Default history file; ``REPRO_BENCH_HISTORY`` overrides.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: The trace_event phases this exporter emits.
_COMPLETE, _INSTANT, _METADATA = "X", "i", "M"


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace(spans: list[dict]) -> dict:
    """Convert tracer spans to a Chrome ``trace_event`` JSON object.

    Timestamps rebase to the earliest span and convert to microseconds
    (the format's unit).  Timed spans become complete (``"X"``) events;
    zero-duration events become thread-scoped instants (``"i"``).  The
    session maps to tid 0 and each shard to ``shard_id + 1``, with
    ``thread_name`` metadata so Perfetto labels the rows.
    """
    events: list[dict] = []
    if not spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    base = min(span["ts"] for span in spans)
    tids: dict[int, str] = {}
    for span in spans:
        shard_id = span.get("shard_id")
        tid = 0 if shard_id is None else shard_id + 1
        tids.setdefault(tid, "session" if shard_id is None else f"shard {shard_id}")
        dur_us = int(round(span.get("dur", 0.0) * 1e6))
        event = {
            "name": span["name"],
            "ph": _COMPLETE if dur_us > 0 else _INSTANT,
            "ts": int(round((span["ts"] - base) * 1e6)),
            "pid": 1,
            "tid": tid,
        }
        if dur_us > 0:
            event["dur"] = dur_us
        else:
            event["s"] = "t"
        args = {
            key: value
            for key, value in span.items()
            if key not in ("name", "ts", "dur")
        }
        if args:
            event["args"] = args
        events.append(event)
    for tid, name in sorted(tids.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": _METADATA,
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> list[str]:
    """Structural schema check of a trace document; returns error strings.

    Covers what Perfetto's importer actually requires: the
    ``traceEvents`` array, per-event ``name``/``ph``/``pid``/``tid``,
    numeric non-negative ``ts``, a ``dur`` on complete events and a
    scope on instant events.  An empty list means the export is valid.
    """
    errors: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase == _COMPLETE:
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: bad ts {ts!r}")
            if not isinstance(event.get("dur"), (int, float)):
                errors.append(f"{where}: complete event missing numeric dur")
        elif phase == _INSTANT:
            if event.get("s") not in ("g", "p", "t"):
                errors.append(f"{where}: instant event missing scope 's'")
        elif phase != _METADATA:
            errors.append(f"{where}: unknown phase {phase!r}")
    return errors


# ----------------------------------------------------------------------
# Unified benchmark history
# ----------------------------------------------------------------------
def history_path(path: str | Path | None = None) -> Path:
    """Resolve the history file: explicit > ``REPRO_BENCH_HISTORY`` > cwd."""
    if path is not None:
        return Path(path)
    return Path(os.environ.get("REPRO_BENCH_HISTORY", "") or DEFAULT_HISTORY)


def append_bench_history(
    bench: str,
    *,
    meta: dict | None = None,
    metrics: dict | None = None,
    stages: dict | None = None,
    path: str | Path | None = None,
) -> Path:
    """Append one benchmark sample to the unified history JSONL.

    Every benchmark writes through this one appender so the regression
    sentinel sees a single cross-bench trajectory: ``bench`` names the
    sample source, ``stages`` maps stage name to seconds (or a
    ``{"seconds": ...}`` doc), ``metrics``/``meta`` travel verbatim.
    """
    target = history_path(path)
    entry: dict = {"bench": bench}
    if meta:
        entry["meta"] = meta
    if metrics:
        entry["metrics"] = metrics
    if stages:
        entry["stages"] = {
            name: (doc["seconds"] if isinstance(doc, dict) else doc)
            for name, doc in stages.items()
        }
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return target


def load_bench_history(path: str | Path | None = None) -> list[dict]:
    """All samples from a history JSONL (missing file → empty list)."""
    target = history_path(path)
    if not target.exists():
        return []
    entries = []
    with target.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


# ----------------------------------------------------------------------
# Server-side span filtering (``repro runs trace --span/--shard``)
# ----------------------------------------------------------------------
def filter_spans(
    spans: list[dict],
    *,
    name: str | None = None,
    shard_id: int | None = None,
) -> list[dict]:
    """Subset of ``spans`` matching a name substring and/or shard id."""
    selected = spans
    if name is not None:
        selected = [span for span in selected if name in span.get("name", "")]
    if shard_id is not None:
        selected = [span for span in selected if span.get("shard_id") == shard_id]
    return selected


__all__ = [
    "DEFAULT_HISTORY",
    "append_bench_history",
    "chrome_trace",
    "filter_spans",
    "history_path",
    "load_bench_history",
    "validate_chrome_trace",
]
