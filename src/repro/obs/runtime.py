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
sessions cannot contaminate each other's profiles.  A scope built with
a store also writes its run's progress events (:meth:`RunScope.publish`)
to that store's ``run_events`` table, which is what lets another
process watch the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.context import current_scope, pop_scope, push_scope
from repro.obs.logging import get_logger
from repro.obs.metrics import KernelTimings, MetricsRegistry, stages_doc
from repro.obs.profile import SamplingProfiler, profiling_enabled
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
        profile: bool | None = None,
        store=None,
    ):
        self.run_id = run_id
        self.tracer = Tracer(
            run_id, shard_id=shard_id, stream_step=stream_step, enabled=trace
        )
        self.metrics = MetricsRegistry()
        self.timings = KernelTimings()
        # The wall-clock sampler is created lazily on the first profiled
        # activation; ``None`` for ``profile`` defers to the
        # ``REPRO_PROFILE`` environment gate at each activation, so a
        # scope built before the gate flips still honours it.
        self._profile = profile
        self.profiler: SamplingProfiler | None = None
        #: The :class:`repro.store.RunStore` that :meth:`publish` appends
        #: to (``None``: events are dropped).  Needs a ``run_id``.
        self._store = store
        #: Set while :meth:`publish` writes an event.
        self._writing = False

    @property
    def profiling(self) -> bool:
        return profiling_enabled() if self._profile is None else self._profile

    @contextmanager
    def activate(self):
        """Make this the current scope for the calling context.

        A profiled scope samples the activating thread's wall-clock
        stacks for the duration of the activation; samples accumulate
        across activations (a session activates once per step).
        """
        token = push_scope(self)
        profiler = None
        if self.profiling:
            if self.profiler is None:
                self.profiler = SamplingProfiler()
            profiler = self.profiler
            profiler.start()
        try:
            yield self
        finally:
            if profiler is not None:
                profiler.stop()
            pop_scope(token)

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

        Timings, spans (with the child's count of dropped spans),
        metrics and profile all fold in: a pool worker ships its shard
        scope's export whole.
        """
        self.timings.merge(doc["timings"])
        self.tracer.add_spans(doc["trace"], doc.get("trace_dropped", 0))
        self.metrics.merge(doc["metrics"])
        profile = doc.get("profile")
        if profile and profile.get("samples"):
            if self.profiler is None:
                self.profiler = SamplingProfiler(
                    interval=profile.get("interval")
                )
            self.profiler.absorb(profile)

    def export(self) -> dict:
        """JSON-able document of everything the scope collected."""
        doc = {
            "metrics": self.metrics.as_doc(),
            "timings": stages_doc(self.timings.snapshot()),
            "trace": self.tracer.spans(),
        }
        if self.tracer.dropped:
            doc["trace_dropped"] = self.tracer.dropped
        if self.profiler is not None and self.profiler.samples:
            doc["profile"] = self.profiler.as_doc()
        return doc


# ----------------------------------------------------------------------
# Scope-routed module helpers (no-ops outside an activation)
# ----------------------------------------------------------------------
@contextmanager
def timed(name: str):
    """Time a stage: ``span(name)``, and its seconds into ``scope.timings``."""
    scope = current_scope()
    if scope is None:
        yield
        return
    with span(name):
        start = time.perf_counter()
        try:
            yield
        finally:
            scope.timings.add(name, time.perf_counter() - start)


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
