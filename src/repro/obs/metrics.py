"""Run-scoped metrics: named counters and gauges, and stage timings.

A :class:`MetricsRegistry` is the numeric half of :mod:`repro.obs`:
counters accumulate (questions billed, cache hits, pruning discards,
shard lifecycle transitions, stream unit reuse), gauges hold the last
observed value (reuse rate, shard count).  A :class:`KernelTimings`
accumulates the inclusive seconds, calls and own seconds of each timed
stage.  Both merge — a pool worker ships its shard scope's export back
with the shard outcome and the parent folds it in.
"""

from __future__ import annotations

import threading


class MetricsRegistry:
    """Thread-safe counter/gauge registry with a stable JSON document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest observation."""
        with self._lock:
            self._gauges[name] = value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    def merge(self, doc: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its document) into this one.

        Counters add; gauges take the element-wise **maximum**.  Direct
        :meth:`gauge` writes stay last-write-wins (a session observing
        its own signal over time), but merges absorb *sibling* scopes —
        shard workers whose absorption order depends on pool scheduling
        — so the combining operator must be commutative and associative
        for the merged document to be order-independent.  Max is, and it
        matches what the gauges mean (high-water marks: shard counts,
        loop indexes, reuse rates of the final layout).  Pinned by
        ``tests/test_obs.py`` with a hypothesis property.
        """
        if isinstance(doc, MetricsRegistry):
            doc = doc.as_doc()
        with self._lock:
            for name, value in doc.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in doc.get("gauges", {}).items():
                if name in self._gauges:
                    self._gauges[name] = max(self._gauges[name], value)
                else:
                    self._gauges[name] = value

    def as_doc(self) -> dict:
        """JSON-able snapshot: ``{"counters": {...}, "gauges": {...}}``."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
            }

    @classmethod
    def from_doc(cls, doc: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(doc)
        return registry


#: The name of a scope's root entry: its activations' wall clock, their
#: count, and as own seconds the remainder that no stage claimed.
ROOT = "root"


class KernelTimings:
    """Thread-safe accumulator of stage timings: ``name -> (seconds, calls, own)``.

    ``seconds`` is inclusive; ``own`` leaves out the seconds of the
    stages timed inside it, so own times add up where inclusive ones
    nest.  A :class:`~repro.obs.runtime.RunScope` holds one:
    :func:`repro.obs.timed` adds each stage, each activation adds the
    :data:`ROOT` entry, and :meth:`merge` folds in a shard scope's
    exported :func:`stages_doc`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, list] = {}

    def add(self, name: str, seconds: float, own: float, calls: int = 1) -> None:
        with self._lock:
            entry = self._data.setdefault(name, [0.0, 0, 0.0])
            entry[0] += seconds
            entry[1] += calls
            entry[2] += own

    def snapshot(self) -> dict[str, tuple[float, int, float]]:
        with self._lock:
            return {name: tuple(entry) for name, entry in self._data.items()}

    def merge(self, stages: dict[str, dict]) -> None:
        """Fold a :func:`stages_doc` document into this one."""
        for name, doc in stages.items():
            self.add(name, doc["seconds"], doc["own"], doc["calls"])


def stages_doc(stages: dict[str, tuple[float, int, float]]) -> dict[str, dict[str, float]]:
    """The one JSON shape for persisted stage timings."""
    return {
        name: {"seconds": round(seconds, 6), "calls": calls, "own": round(own, 6)}
        for name, (seconds, calls, own) in stages.items()
    }
