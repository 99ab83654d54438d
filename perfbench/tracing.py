"""Span recording and per-layer self time, installed from outside the program.

The benchmark never edits the program to time it.  Instead it wraps each
layer's public entry points in place — on the class for methods, and in
the calling module's namespace for functions (where the caller looks the
name up) — and records one span per call: name, start, end and parent.
Spans stay in memory and are written once, at the end of a job, as a
Chrome ``trace_event`` document.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.  Every second inside a
top-level span therefore lands in exactly one layer, and whatever lies
outside all spans is the run's *unattributed* remainder.
"""

from __future__ import annotations

import functools
import importlib
import sqlite3
import threading
import time
import types
from dataclasses import dataclass, field

from repro.store.store import RunStore


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Recorder:
    """In-memory span recorder with per-thread nesting."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), stack[-1] if stack else None))
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-span-name self time: duration minus direct children."""
        totals: dict[str, float] = {}
        for span in self.spans:
            own = (span.end - span.start) - span.child_s
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans (= the sum of all self times)."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def chrome_spans(self) -> list[dict]:
        """Spans in the shape :func:`repro.obs.export.chrome_trace` takes."""
        return [
            {
                "name": span.name,
                "ts": span.start,
                "dur": span.end - span.start,
                "span_id": index,
                "parent": span.parent,
            }
            for index, span in enumerate(self.spans)
        ]


def _wrap(recorder: Recorder, name: str, fn, after=None):
    """``fn`` timed as span ``name``.

    ``after(recorder, args, result, before)`` runs outside the span, where
    ``before`` is what ``after.before(args)`` returned ahead of the call
    (hooks without a ``before`` get ``None``).
    """
    capture = getattr(after, "before", None)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        token = capture(args) if capture is not None else None
        index = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(index)
        if after is not None:
            after(recorder, args, result, token)
        return result

    return timed


# ----------------------------------------------------------------------
# What to wrap: (module path, attribute path, span name, post-call hook)
# ----------------------------------------------------------------------
def _retained(recorder, args, result, _):
    recorder.count("prepare.retained", len(result))


def _candidates(recorder, args, result, _):
    recorder.count("prepare.candidates", len(result.pairs))


def _isolated_pairs(recorder, args, result, _):
    recorder.count("isolated.pairs", len(args[1]))


def _iteration(recorder, args, result, _):
    recorder.count("loop.iterations")


class _Billed:
    """Questions one ``CrowdPlatform.ask`` call billed."""

    @staticmethod
    def before(args):
        return args[0].questions_asked

    def __call__(self, recorder, args, result, billed_before):
        recorder.count("crowd.questions_billed", args[0].questions_asked - billed_before)


def _stream_units(recorder, args, result, _):
    recorder.count("stream.units", len(result.records))
    recorder.count("stream.units_reused", len(result.reused_keys))


class _CheckpointBytes:
    """Counts checkpoint calls and the bytes each one stored.

    Reads the row back through a second, read-only connection after the
    write's span has closed, so the program's own connection is never
    touched and the query is not billed to the store layer.
    """

    def __init__(self):
        self._conns: dict[str, sqlite3.Connection] = {}

    def __call__(self, recorder, args, result, _):
        store, run_id = args[0], args[1]
        recorder.count("store.checkpoint_calls")
        conn = self._conns.get(store.path)
        if conn is None:
            conn = sqlite3.connect(f"file:{store.path}?mode=ro", uri=True)
            self._conns[store.path] = conn
        row = conn.execute(
            "SELECT length(payload) FROM checkpoints WHERE run_id = ?", (run_id,)
        ).fetchone()
        recorder.count("store.checkpoint_bytes", row[0] if row else 0)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


#: Store methods with their own span name; every other public
#: ``RunStore`` method is timed as ``store.other``.
STORE_SPANS = {
    "save_checkpoint": "store.checkpoint",
    "save_prepared": "store.save_prepared",
    "finish_run": "store.finish",
    "replace_unit_records": "store.unit_records",
    "save_substrate_blob": "store.blob",
    "save_run_obs": "store.obs",
    "save_shard_checkpoint": "store.shard",
    "save_shard_result": "store.shard",
    "append_run_event": "store.events",
    "load_unit_record_docs": "store.unit_load",
}

TARGETS = [
    ("repro.core.pipeline", "generate_candidates", "prepare.candidates", _candidates),
    ("repro.core.pipeline", "match_attributes", "prepare.attributes", None),
    ("repro.core.pipeline", "build_similarity_vectors", "prepare.vectors", None),
    ("repro.core.pipeline", "partial_order_pruning", "prepare.pruning", _retained),
    ("repro.core.pipeline", "build_er_graph", "prepare.graph", None),
    ("repro.core.pipeline", "build_signatures", "prepare.signatures", None),
    # The stream path's incremental prepare imports three of the stages
    # into its own namespace.  Its pruning runs on dirty pairs only, so
    # it is timed but left out of ``prepare.retained_ratio``.
    ("repro.stream.incremental", "match_attributes", "prepare.attributes", None),
    ("repro.stream.incremental", "build_similarity_vectors", "prepare.vectors", None),
    ("repro.stream.incremental", "partial_order_pruning", "prepare.pruning", None),
    ("repro.core.pipeline", "LoopState.propagate", "loop.propagate", None),
    ("repro.core.pipeline", "LoopState.askable_questions", "loop.askable", None),
    ("repro.core.pipeline", "greedy_question_selection", "loop.select", None),
    ("repro.core.pipeline", "infer_truths", "loop.truth", None),
    ("repro.core.pipeline", "LoopState.snapshot", "loop.snapshot", None),
    ("repro.crowd.platform", "CrowdPlatform.ask_batch", "crowd.ask", _iteration),
    ("repro.crowd.platform", "CrowdPlatform.ask", "crowd.ask", _Billed()),
    ("repro.core.isolated", "IsolatedPairClassifier.classify", "isolated.classify", _isolated_pairs),
    ("repro.service.service", "MatchingService.prepared", "service.prepared", None),
    ("repro.service.service", "MatchingService.submit", "service.self", None),
    ("repro.service.service", "MatchingService.step", "service.self", None),
    ("repro.service.service", "MatchingService.update", "service.self", None),
    ("repro.service.service", "MatchingService.result", "service.self", None),
    ("repro.service.service", "load_dataset", "dataset.load", None),
    ("repro.service.service", "incremental_prepare", "stream.incremental_prepare", None),
    ("repro.substrate.arena", "PrepareSubstrate.attach", "substrate.attach", None),
    ("repro.substrate.cache", "SubstrateCache.derive", "substrate.derive", None),
    ("repro.stream.runner", "StreamRunner.run_incremental", "stream.run", _stream_units),
    ("repro.partition.runner", "ParallelRunner.run", "partition.run", None),
    ("repro.obs.runtime", "RunScope.export", "obs.export", None),
]


class Installed:
    """Wrappers installed on the live program; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        self._bytes = _CheckpointBytes()
        for module_name, path, name, after in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, after)
        for attr, fn in sorted(vars(RunStore).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            after = self._bytes if attr == "save_checkpoint" else None
            self._patch(RunStore, attr, STORE_SPANS.get(attr, "store.other"), after)

    def _patch(self, owner, attr: str, name: str, after) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(self.recorder, name, original, after))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._bytes.close()
