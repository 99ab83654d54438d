"""Structured tracing: nested spans with run/shard/stream correlation.

A :class:`Tracer` collects *spans* — plain JSON-able dicts with a name,
an epoch start timestamp, a duration and optional free-form fields —
cheaply enough to stay on by default (see ``benchmarks/bench_obs.py``
for the self-gating overhead bar).  Nesting is tracked per thread, so a
span opened inside another span records its parent id; shard workers
run their own tracer and the parent absorbs their spans with the shard
correlation fields already stamped.

``REPRO_NO_TRACE=1`` disables span collection process-wide: ``span()``
degrades to a shared no-op context manager and ``event()`` to a no-op
call.  Tracing never influences control flow, so results are
byte-identical either way (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext

_TRUTHY = ("1", "true", "yes", "on")

#: Shared do-nothing context manager returned when tracing is off.
NO_SPAN = nullcontext()

#: Hard cap on buffered spans per tracer — a backstop against unbounded
#: memory on pathological runs, never hit by realistic workloads.  The
#: overflow is *not* silent: ``dropped`` counts what the cap discarded.
MAX_SPANS = 100_000


def tracing_enabled() -> bool:
    """Whether span collection is active (``REPRO_NO_TRACE`` gate)."""
    return os.environ.get("REPRO_NO_TRACE", "").strip().lower() not in _TRUTHY


class Tracer:
    """Run-scoped span collector.

    Parameters
    ----------
    run_id, shard_id, stream_step:
        Correlation fields stamped on every span (omitted when ``None``).
    enabled:
        Overrides the ``REPRO_NO_TRACE`` environment gate (tests, benches).
    """

    def __init__(
        self,
        run_id: str | None = None,
        *,
        shard_id: int | None = None,
        stream_step: int | None = None,
        enabled: bool | None = None,
    ):
        self.enabled = tracing_enabled() if enabled is None else enabled
        self.correlation = {}
        if run_id is not None:
            self.correlation["run_id"] = run_id
        if shard_id is not None:
            self.correlation["shard_id"] = shard_id
        if stream_step is not None:
            self.correlation["stream_step"] = stream_step
        self.dropped = 0
        self._spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: dict) -> None:
        with self._lock:
            if len(self._spans) >= MAX_SPANS:
                self.dropped += 1
                return
            self._spans.append(span)

    @contextmanager
    def span(self, name: str, **fields):
        """Record one timed span; nests under any enclosing span."""
        if not self.enabled:
            yield None
            return
        span = {"name": name, "id": next(self._ids), "ts": time.time()}
        stack = self._stack()
        if stack:
            span["parent_id"] = stack[-1]["id"]
        span.update(self.correlation)
        if fields:
            span.update(fields)
        stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span["dur"] = round(time.perf_counter() - start, 6)
            stack.pop()
            self._append(span)

    def event(self, name: str, **fields) -> None:
        """Record a zero-duration span (a point-in-time marker)."""
        if not self.enabled:
            return
        span = {"name": name, "id": next(self._ids), "ts": time.time(), "dur": 0.0}
        stack = self._stack()
        if stack:
            span["parent_id"] = stack[-1]["id"]
        span.update(self.correlation)
        if fields:
            span.update(fields)
        self._append(span)

    # ------------------------------------------------------------------
    def add_spans(self, spans: list[dict], dropped: int) -> None:
        """Absorb a child tracer's exported spans (shard workers) and the
        count of spans its cap dropped, so those stay counted here."""
        with self._lock:
            self.dropped += dropped
        for span in spans:
            self._append(dict(span))

    def spans(self) -> list[dict]:
        """All recorded spans, in start order."""
        with self._lock:
            return sorted(self._spans, key=lambda s: (s["ts"], s["id"]))
