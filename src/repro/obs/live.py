"""The live telemetry plane: the watch and top models.

Post-hoc observability (:mod:`repro.obs.runtime` + the ``run_obs``
table) answers "what happened"; this module answers "what is happening
*right now*".  Each :class:`~repro.service.MatchingSession`'s run scope
appends its run's progress events (status transitions, loop
heartbeats, shard lifecycle events funnelled through the parent, stream
summaries) to the store's append-only ``run_events`` table
(:meth:`repro.obs.runtime.RunScope.publish`), so a *second process* can
tail the run through the shared SQLite file:

* :class:`RunWatch` — folds a tailed event stream into the per-shard /
  loop / stream progress model behind ``repro runs watch``.
* :func:`render_top` — the one-line-per-run table behind ``repro top``.

The live plane is write-path-passive: a failing event write is logged
and dropped, never raised into the pipeline, and nothing read here
feeds back into control flow, so it inherits the tracing layer's
byte-identity guarantee (``REPRO_NO_TRACE`` does not disable progress
events — they are operational, like counters).
"""

from __future__ import annotations

#: Event kinds that mean a shard will do no further work (mirrors
#: :mod:`repro.partition.progress`).
SHARD_TERMINAL = ("finished", "restored", "failed", "quarantined")


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
        #: The newest event fed in (``None`` before the first).
        self.last: dict | None = None

    # ------------------------------------------------------------------
    def feed(self, events: list[dict]) -> bool:
        """Fold new events in; returns whether anything changed."""
        changed = False
        for event in events:
            self.last_seq = max(self.last_seq, event.get("seq", 0))
            self.events += 1
            self.last = event
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

    ``rows`` pairs each active :class:`~repro.store.RunRecord` with a
    :class:`RunWatch` fed that run's events.  The question count is the
    watch's (summed over shards), or the ledger's before the first event.
    """
    if not rows:
        return "no runs in flight"
    lines = [
        f"{'RUN':<14} {'STATUS':<10} {'DATASET':<18} {'WORKERS':>7} "
        f"{'QUESTIONS':>9}  LAST EVENT"
    ]
    for record, watch in rows:
        last = watch.last
        if last is None:
            activity = "-"
            questions = record.questions_asked or 0
        else:
            activity = last.get("kind", "-")
            if last.get("shard_id") is not None:
                activity += f" (shard {last['shard_id']})"
            questions = watch.questions
        lines.append(
            f"{record.run_id[:12]:<14} {record.status:<10} "
            f"{record.dataset[:16]:<18} {record.workers or 1:>7} "
            f"{questions:>9}  {activity}"
        )
    return "\n".join(lines)


__all__ = [
    "RunWatch",
    "SHARD_TERMINAL",
    "render_top",
]
