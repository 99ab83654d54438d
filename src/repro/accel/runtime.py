"""Accel runtime: kernel timing collection.

The accel layer is an *optimization*, never a semantics change: every
kernel is byte-identical to the paper-faithful reference it replaced
(dominance is exact boolean work; simL/Jaccard are ratios of small
integers, which IEEE-754 doubles represent identically however they are
computed).  The references live on as test oracles in
:mod:`repro.accel.reference`, which no product module imports.

:data:`TIMINGS` aggregates wall-clock per named stage/kernel so the
service can persist per-run timing profiles (surfaced by
``repro runs show``).  Accumulation is lock-protected.  Attribution to
a run is exact when a :class:`repro.obs.RunScope` is active: the global
registry *routes* — every stage lands in the process-wide totals and in
the activated scope's private timings, and ``timed()`` additionally
emits a trace span — so concurrent sessions persist only their own work
instead of diffing a shared singleton.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from threading import Lock

from repro.obs.context import clear_scope, current_scope


class KernelTimings:
    """Thread-safe accumulator of ``name -> (seconds, calls)``."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._data: dict[str, list] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            entry = self._data.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def snapshot(self) -> dict[str, tuple[float, int]]:
        with self._lock:
            return {name: (entry[0], entry[1]) for name, entry in self._data.items()}

    def merge(self, delta: dict[str, tuple[float, int]]) -> None:
        for name, (seconds, calls) in delta.items():
            self.add(name, seconds, calls)

    def reset(self) -> None:
        with self._lock:
            self._data.clear()

    def as_doc(self) -> dict[str, dict[str, float]]:
        """JSON-able view of the full snapshot, most expensive first."""
        snap = self.snapshot()
        return stages_doc(
            dict(sorted(snap.items(), key=lambda item: -item[1][0]))
        )


def stages_doc(stages: dict[str, tuple[float, int]]) -> dict[str, dict[str, float]]:
    """The one JSON shape for persisted stage timings.

    Shared by :meth:`KernelTimings.as_doc` (benchmark trajectories) and
    the service's per-run profiles so the two documents never diverge.
    """
    return {
        name: {"seconds": round(seconds, 6), "calls": calls}
        for name, (seconds, calls) in stages.items()
    }


class _RoutedTimings(KernelTimings):
    """The process-wide registry, scope-aware.

    Every :meth:`add` also lands in the active
    :class:`repro.obs.RunScope`'s private timings (exact per-run
    attribution), and :meth:`timed` opens a span on the scope's tracer —
    which is how the prepare stages, accel kernels, stream splices and
    loop propagation show up in ``trace.jsonl`` without any call-site
    changes.  ``merge`` routes too, so shard timing deltas shipped back
    from pool workers fold into the owning session's scope.
    """

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        super().add(name, seconds, calls)
        scope = current_scope()
        if scope is not None:
            scope.timings.add(name, seconds, calls)

    @contextmanager
    def timed(self, name: str):
        scope = current_scope()
        tracer = scope.tracer if scope is not None and scope.tracer.enabled else None
        if tracer is None:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)
            return
        with tracer.span(name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)


#: Process-wide timing registry for the accel layer and pipeline stages.
TIMINGS = _RoutedTimings()


def _reset_after_fork() -> None:  # pragma: no cover - exercised via pools
    """Re-arm the registry (and detach any scope) in forked children.

    A pool worker may fork while another service thread holds the
    timing lock (it would be inherited held, deadlocking the child's
    first snapshot), and inherited counters would double-count once the
    child ships its delta back to the parent.  Fresh lock, zero
    counters; the inherited run scope is dropped for the same reason —
    the child buffers into its own scope and ships the export back.
    """
    TIMINGS._lock = Lock()
    TIMINGS._data = {}
    clear_scope()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
