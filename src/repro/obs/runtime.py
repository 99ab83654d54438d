"""The run scope: one observability container per run (or shard task).

A :class:`RunScope` bundles the three collectors — a
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a private
:class:`~repro.obs.metrics.KernelTimings` — and activates them via
the :mod:`repro.obs.context` context variable.  The module helpers
below (:func:`timed`, :func:`count`, :func:`gauge`, :func:`span`,
:func:`event`) route to the active scope; outside any activation they
are no-ops, so library code can instrument unconditionally.

A session persists ``scope.timings`` — only what ran under its own
activations, plus what its pool shards shipped back — so concurrent
sessions cannot contaminate each other's profiles.  The timings are a
ledger: each stage records its inclusive seconds, its calls and its own
seconds (inclusive minus the stages timed inside it), and each
activation is the scope's root frame, whose :data:`ROOT` entry holds the
wall clock, the activations and the remainder no stage claimed.  So the
own times plus that remainder add up to the wall clock, except where
pool workers ran in parallel (their stages overlap the parent's wait).
A scope built with a store also writes its run's progress events
(:meth:`RunScope.publish`) to that store's ``run_events`` table, which
is what lets another process watch the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.context import (
    current_scope,
    pop_frame,
    pop_scope,
    push_frame,
    push_scope,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import ROOT, KernelTimings, MetricsRegistry, stages_doc
from repro.obs.trace import NO_SPAN, Tracer

log = get_logger("obs")


class RunScope:
    """Per-run collectors plus the activation context manager."""

    def __init__(
        self,
        run_id: str | None = None,
        *,
        shard_id: int | None = None,
        stream_step: int | None = None,
        trace: bool | None = None,
        store=None,
    ):
        self.run_id = run_id
        self.tracer = Tracer(
            run_id, shard_id=shard_id, stream_step=stream_step, enabled=trace
        )
        self.metrics = MetricsRegistry()
        self.timings = KernelTimings()
        #: The :class:`repro.store.RunStore` that :meth:`publish` appends
        #: to (``None``: events are dropped).  Needs a ``run_id``.
        self._store = store
        #: Set while :meth:`publish` writes an event.
        self._writing = False
        #: ``(start, children's-seconds cell)`` of each open activation.
        self._open: list[tuple[float, list]] = []

    @contextmanager
    def activate(self):
        """Make this the current scope for the calling context.

        The activation is the scope's root frame: it starts a fresh
        frame chain, and on exit adds its wall clock, one call and its
        own seconds (the wall clock minus the top-level stages) to the
        :data:`ROOT` entry.  A session activates once per step.
        """
        token = push_scope(self)
        children, frame = push_frame()
        opened = (time.perf_counter(), children)
        self._open.append(opened)
        try:
            yield self
        finally:
            wall = time.perf_counter() - opened[0]
            self._open.remove(opened)
            pop_frame(frame)
            pop_scope(token)
            self.timings.add(ROOT, wall, wall - children[0])

    # ------------------------------------------------------------------
    def publish(self, kind: str, **fields) -> None:
        """Append one progress event to the run's ``run_events`` rows.

        ``shard_id`` and ``stream_step`` — from ``fields`` or the
        scope's correlation fields — go to their own columns, the other
        fields to the payload, so another process can tail the run
        through the shared store.  Progress events are operational —
        like counters, they stay on under ``REPRO_NO_TRACE``.

        A failing write is logged and dropped; it never raises into the
        pipeline.  An event published while another is being written (a
        fault injected into that very write) is dropped too: writing it
        would recurse.
        """
        if self._store is None or self._writing:
            return
        payload = {**self.tracer.correlation, **fields}
        payload.pop("run_id", None)
        shard_id = payload.pop("shard_id", None)
        stream_step = payload.pop("stream_step", None)
        self._writing = True
        try:
            self._store.append_run_event(
                self.run_id,
                kind,
                payload,
                ts=time.time(),
                shard_id=shard_id,
                stream_step=stream_step,
            )
        except Exception:
            log.exception("run %s: %s event not written", self.run_id, kind)
        finally:
            self._writing = False

    # ------------------------------------------------------------------
    def absorb(self, doc: dict) -> None:
        """Fold a child scope's :meth:`export` document into this one.

        Stage timings, spans (with the child's count of dropped spans)
        and metrics fold in: a pool worker ships its shard scope's
        export whole.  The child's root entry does not: its wall clock
        overlaps this scope's.
        """
        self.timings.merge(
            {name: entry for name, entry in doc["timings"].items() if name != ROOT}
        )
        self.tracer.add_spans(doc["trace"], doc.get("trace_dropped", 0))
        self.metrics.merge(doc["metrics"])

    def export(self) -> dict:
        """JSON-able document of everything the scope collected.

        An open activation counts as far as it has run: a session
        exports inside its last one.
        """
        stages = self.timings.snapshot()
        now = time.perf_counter()
        for start, children in self._open:
            seconds, calls, own = stages.get(ROOT, (0.0, 0, 0.0))
            wall = now - start
            stages[ROOT] = (seconds + wall, calls + 1, own + wall - children[0])
        doc = {
            "metrics": self.metrics.as_doc(),
            "timings": stages_doc(stages),
            "trace": self.tracer.spans(),
        }
        if self.tracer.dropped:
            doc["trace_dropped"] = self.tracer.dropped
        return doc


# ----------------------------------------------------------------------
# Scope-routed module helpers (no-ops outside an activation)
# ----------------------------------------------------------------------
@contextmanager
def timed(name: str, **fields):
    """Time a stage into ``scope.timings``, inside ``span(name, **fields)``.

    The stage records its inclusive seconds, one call and its own
    seconds, and adds its inclusive seconds to the enclosing frame's
    children, so the enclosing stage's own time leaves them out.
    """
    scope = current_scope()
    if scope is None:
        yield
        return
    with span(name, **fields):
        children, frame = push_frame()
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            # Under an activation the enclosing frame is at least its root.
            pop_frame(frame)[0] += seconds
            scope.timings.add(name, seconds, seconds - children[0])


def count(name: str, value: float = 1) -> None:
    scope = current_scope()
    if scope is not None:
        scope.metrics.count(name, value)


def gauge(name: str, value: float) -> None:
    scope = current_scope()
    if scope is not None:
        scope.metrics.gauge(name, value)


def span(name: str, **fields):
    scope = current_scope()
    if scope is None or not scope.tracer.enabled:
        return NO_SPAN
    return scope.tracer.span(name, **fields)


def event(name: str, **fields) -> None:
    scope = current_scope()
    if scope is not None:
        scope.tracer.event(name, **fields)


def publish(kind: str, **fields) -> None:
    """Write a progress event through the active scope, if any."""
    scope = current_scope()
    if scope is not None:
        scope.publish(kind, **fields)


def absorb(doc: dict) -> None:
    """Fold a child scope's export into the active scope, if any."""
    scope = current_scope()
    if scope is not None:
        scope.absorb(doc)
