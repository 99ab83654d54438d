"""The live telemetry plane: bus, store writer, and watch/top models.

Post-hoc observability (:mod:`repro.obs.runtime` + the ``run_obs``
table) answers "what happened"; this module answers "what is happening
*right now*":

* :class:`TelemetryBus` — a process-wide publish/subscribe fan-out.
  :func:`repro.obs.runtime.publish` stamps the active scope's
  correlation fields (run_id / shard_id / stream_step) on a progress
  event and posts it here; subscribers are plain callables.  Publishing
  never raises into the pipeline — a broken subscriber is detached and
  logged, results stay byte-identical.
* :class:`StoreEventWriter` — the bridge from bus to the append-only
  ``run_events`` store table.  A :class:`~repro.service.MatchingSession`
  subscribes one per execution path, filtered to its own run id, so a
  *second process* can tail the run through the shared SQLite file.
* :class:`RunWatch` — folds a tailed event stream into the per-shard /
  loop / stream progress model behind ``repro runs watch``.
* :func:`render_top` — the one-line-per-run table behind ``repro top``.

Everything here is write-path-passive: no subscriber ever feeds back
into pipeline control flow, so the live plane inherits the tracing
layer's byte-identity guarantee (``REPRO_NO_TRACE`` does not disable
progress events — they are operational, like counters).
"""

from __future__ import annotations

import threading

from repro.obs.logging import get_logger

log = get_logger("obs.live")

#: Event kinds that mean a shard will do no further work (mirrors
#: :mod:`repro.partition.progress`).
SHARD_TERMINAL = ("finished", "restored", "failed", "quarantined")

#: Event field names persisted as dedicated ``run_events`` columns.
_COLUMN_FIELDS = ("run_id", "ts", "kind", "shard_id", "stream_step")


class TelemetryBus:
    """Process-wide fan-out of live progress events.

    Subscribers are callables receiving one event dict each.  The bus is
    deliberately dumb: no buffering, no replay — durability is the
    :class:`StoreEventWriter`'s job.  A subscriber that raises is
    detached (and the error logged once) rather than allowed to poison
    the publishing pipeline.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: dict[int, callable] = {}
        self._next_token = 0

    def subscribe(self, callback) -> int:
        """Register ``callback`` for every future event; returns a token."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = callback
        return token

    def unsubscribe(self, token: int) -> None:
        with self._lock:
            self._subscribers.pop(token, None)

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def publish(self, event: dict) -> None:
        """Deliver ``event`` to every subscriber; never raises."""
        with self._lock:
            subscribers = list(self._subscribers.items())
        for token, callback in subscribers:
            try:
                callback(event)
            except Exception:
                log.exception("telemetry subscriber failed; detaching")
                self.unsubscribe(token)


#: The process-wide bus every :class:`~repro.obs.runtime.RunScope`
#: publishes onto.
BUS = TelemetryBus()


class StoreEventWriter:
    """Bus subscriber persisting one run's events to ``run_events``.

    Used as a context manager around an execution path::

        with StoreEventWriter(store, run_id):
            ...  # everything published under this run id lands in SQLite

    Events carrying a different ``run_id`` (another session on the same
    bus) are ignored.  The writer is thread-safe by delegation — the
    store serialises access behind its own lock.
    """

    def __init__(self, store, run_id: str, bus: TelemetryBus | None = None):
        self._store = store
        self._run_id = run_id
        self._bus = bus if bus is not None else BUS
        self._token: int | None = None

    def __enter__(self) -> "StoreEventWriter":
        self._token = self._bus.subscribe(self)
        return self

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            self._bus.unsubscribe(self._token)
            self._token = None

    def __call__(self, event: dict) -> None:
        if event.get("run_id") != self._run_id:
            return
        payload = {k: v for k, v in event.items() if k not in _COLUMN_FIELDS}
        self._store.append_run_event(
            self._run_id,
            event["kind"],
            payload,
            ts=event.get("ts"),
            shard_id=event.get("shard_id"),
            stream_step=event.get("stream_step"),
        )


# ----------------------------------------------------------------------
# Watch model: fold a tailed event stream into renderable progress
# ----------------------------------------------------------------------
class RunWatch:
    """Incremental progress model for ``repro runs watch``.

    Feed it batches of events tailed from the store (oldest first); it
    keeps per-shard states (monotone, like the in-process progress
    printer), the latest loop heartbeat, the latest stream summary and
    the last session status transition, and renders a multi-line frame.
    """

    def __init__(self) -> None:
        self.last_seq = 0
        self.status: str | None = None
        self.shards: dict[int, dict] = {}
        self.loop: dict | None = None
        self.stream: dict | None = None
        #: The finished run's billed questions (``status.done``).
        self.final_questions: int | None = None
        self.events = 0

    # ------------------------------------------------------------------
    def feed(self, events: list[dict]) -> bool:
        """Fold new events in; returns whether anything changed."""
        changed = False
        for event in events:
            self.last_seq = max(self.last_seq, event.get("seq", 0))
            self.events += 1
            changed = True
            kind = event.get("kind", "")
            if kind.startswith("status."):
                self.status = kind.split(".", 1)[1]
                if self.status == "done":
                    self.final_questions = event.get("questions")
            elif kind.startswith("shard."):
                self._feed_shard(kind.split(".", 1)[1], event)
            elif kind == "loop.checkpointed":
                self.loop = event
            elif kind == "stream.summary":
                self.stream = event
        return changed

    def _feed_shard(self, state: str, event: dict) -> None:
        shard_id = event.get("shard_id")
        if shard_id is None:
            return
        shard = self.shards.setdefault(
            shard_id, {"state": "started", "loops": 0, "questions": 0, "matches": 0}
        )
        shard["state"] = state
        shard["phase"] = event.get("phase", shard.get("phase", "graph"))
        shard["loops"] = max(shard["loops"], event.get("loops", 0))
        shard["questions"] = max(shard["questions"], event.get("questions", 0))
        if state in SHARD_TERMINAL:
            shard["matches"] = event.get("matches", shard["matches"])

    # ------------------------------------------------------------------
    @property
    def questions(self) -> int:
        """Questions billed so far, from the freshest signal available.

        A finished run reports its result's count: a stream update logs
        no per-shard event for the units it reused, so the shard sum
        covers only the executed ones.
        """
        if self.final_questions is not None:
            return self.final_questions
        if self.shards:
            return sum(s["questions"] for s in self.shards.values())
        if self.loop is not None:
            return self.loop.get("questions", 0)
        return 0

    def render(self, record=None, timings: dict | None = None) -> str:
        """A multi-line watch frame (no trailing newline)."""
        lines = []
        header = []
        if record is not None:
            header.append(f"run {record.run_id}")
            header.append(record.status)
            header.append(f"dataset={record.dataset}")
            if record.workers and record.workers > 1:
                header.append(f"workers={record.workers}")
        elif self.status is not None:
            header.append(self.status)
        header.append(f"questions {self.questions}")
        header.append(f"events {self.events}")
        lines.append(" · ".join(header))
        if self.loop is not None and not self.shards:
            lines.append(
                f"  loop {self.loop.get('loops', 0)}"
                f" · {self.loop.get('questions', 0)} questions"
            )
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            line = (
                f"  shard {shard_id:>3} [{shard.get('phase', 'graph'):>8}]"
                f" {shard['state']:<12} loops={shard['loops']:<4}"
                f" questions={shard['questions']:<5}"
            )
            if shard["state"] in SHARD_TERMINAL:
                line += f" matches={shard['matches']}"
            lines.append(line)
        if self.shards:
            done = sum(
                1 for s in self.shards.values() if s["state"] in SHARD_TERMINAL
            )
            lines.append(f"  shards {done}/{len(self.shards)} done")
        if self.stream is not None:
            lines.append(
                f"  stream: units={self.stream.get('units', 0)}"
                f" reused={self.stream.get('reused', 0)}"
                f" executed={self.stream.get('executed', 0)}"
                f" questions_new={self.stream.get('questions_new', 0)}"
            )
        if timings:
            top = sorted(
                timings.items(), key=lambda kv: kv[1]["seconds"], reverse=True
            )[:5]
            lines.append("  stages: " + ", ".join(
                f"{name} {doc['seconds']:.3f}s" for name, doc in top
            ))
        return "\n".join(lines)


def render_top(rows: list[tuple]) -> str:
    """The ``repro top`` table: one line per in-flight run.

    ``rows`` pairs each active :class:`~repro.store.RunRecord` with its
    latest event dict (or ``None`` when nothing has been published yet).
    """
    if not rows:
        return "no runs in flight"
    lines = [
        f"{'RUN':<14} {'STATUS':<10} {'DATASET':<18} {'WORKERS':>7} "
        f"{'QUESTIONS':>9}  LAST EVENT"
    ]
    for record, last in rows:
        if last is None:
            activity = "-"
            questions = record.questions_asked or 0
        else:
            activity = last.get("kind", "-")
            if last.get("shard_id") is not None:
                activity += f" (shard {last['shard_id']})"
            questions = last.get("questions", record.questions_asked or 0)
        lines.append(
            f"{record.run_id[:12]:<14} {record.status:<10} "
            f"{record.dataset[:16]:<18} {record.workers or 1:>7} "
            f"{questions:>9}  {activity}"
        )
    return "\n".join(lines)


__all__ = [
    "BUS",
    "RunWatch",
    "SHARD_TERMINAL",
    "StoreEventWriter",
    "TelemetryBus",
    "render_top",
]
