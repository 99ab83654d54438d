"""SQLite-backed artifact store for Remp runs.

One :class:`RunStore` file holds three kinds of durable state:

* **Prepared states** — the offline artifacts of ``Remp.prepare`` keyed by
  content: ``(KB-pair fingerprint, config hash)`` plus the document's
  format version, so repeated runs on the same KBs skip candidate
  generation, attribute matching, pruning and ER-graph construction
  entirely, and an edited KB or an older format is a miss, never a
  stale hit.
* **Checkpoints** — one :class:`repro.core.LoopCheckpoint` per run,
  overwritten after every batch of crowd answers; an interrupted run
  resumes mid-loop without re-asking questions.
* **A run ledger** — configuration, status, question counts and the final
  :class:`repro.core.RempResult` of every run ever submitted, for later
  querying (``repro runs list`` / ``repro runs show``).

Uses only the stdlib ``sqlite3`` module.  A single connection is shared
and guarded by a re-entrant lock, so one store instance may be used from
the service's worker threads; payloads are stable JSON documents from
:mod:`repro.store.serialize`, never pickles.  File stores run in WAL
mode: while one is open its file has ``-wal`` and ``-shm`` sidecars,
which the last ``close()`` folds back in and removes.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro import faults
from repro.core.config import RempConfig
from repro.core.pipeline import LoopCheckpoint, PreparedState, RempResult
from repro.store.serialize import (
    PREPARED_STATE_VERSION,
    checkpoint_from_doc,
    checkpoint_to_doc,
    config_from_doc,
    config_hash,
    config_to_doc,
    prepared_state_from_doc,
    prepared_state_to_doc,
    result_from_doc,
    result_to_doc,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS prepared (
    fingerprint TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    version     INTEGER NOT NULL,
    payload     TEXT NOT NULL,
    created_at  TEXT NOT NULL,
    PRIMARY KEY (fingerprint, config_hash, version)
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    dataset         TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    scale           REAL NOT NULL,
    config_hash     TEXT NOT NULL,
    strategy        TEXT NOT NULL,
    error_rate      REAL NOT NULL DEFAULT 0.0,
    status          TEXT NOT NULL,
    config_json     TEXT NOT NULL,
    questions_asked INTEGER NOT NULL DEFAULT 0,
    result_json     TEXT,
    error           TEXT,
    workers         INTEGER,
    parent_run_id   TEXT,
    delta_json      TEXT,
    stream_step     INTEGER,
    kb_fingerprint  TEXT,
    created_at      TEXT NOT NULL,
    updated_at      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id     TEXT PRIMARY KEY REFERENCES runs(run_id) ON DELETE CASCADE,
    payload    TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS shard_checkpoints (
    run_id     TEXT NOT NULL,
    shard_id   INTEGER NOT NULL,
    kind       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    updated_at TEXT NOT NULL,
    PRIMARY KEY (run_id, shard_id)
);
CREATE TABLE IF NOT EXISTS stream_units (
    run_id     TEXT NOT NULL,
    unit_key   TEXT NOT NULL,
    payload    TEXT NOT NULL,
    updated_at TEXT NOT NULL,
    PRIMARY KEY (run_id, unit_key)
);
CREATE TABLE IF NOT EXISTS run_obs (
    run_id     TEXT PRIMARY KEY,
    payload    TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS run_events (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      TEXT NOT NULL,
    ts          REAL NOT NULL,
    kind        TEXT NOT NULL,
    shard_id    INTEGER,
    stream_step INTEGER,
    payload     TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS run_events_by_run ON run_events (run_id, seq);
"""

#: Upgrades for stores created by earlier releases.  New databases get
#: the added columns through ``_SCHEMA`` directly; there the ALTER TABLE
#: fails with "duplicate column", the one error the open path may
#: swallow.  The four ``runs`` columns after ``workers`` are the
#: *lineage migration*: run provenance for incremental (stream) runs.
#: The first DROP removes a table of cached dominance matrices nothing
#: read.  The second removes the prepared-state cache keyed by dataset
#: name (its ``fp:`` rows held post-delta states): it is only a cache,
#: and every stream lineage can be rebuilt from its root.  Older stores
#: also keep a ``run_timings`` table nothing reads any more: a run's
#: stage timings live in its ``run_obs`` document.
_MIGRATIONS = (
    "ALTER TABLE runs ADD COLUMN workers INTEGER",
    "ALTER TABLE runs ADD COLUMN parent_run_id TEXT",
    "ALTER TABLE runs ADD COLUMN delta_json TEXT",
    "ALTER TABLE runs ADD COLUMN stream_step INTEGER",
    "ALTER TABLE runs ADD COLUMN kb_fingerprint TEXT",
    "DROP TABLE IF EXISTS substrate_blobs",
    "DROP TABLE IF EXISTS prepared_states",
)

#: SQLite error fragments that mark a *transient* write failure — another
#: process holds the database — and are worth retrying with backoff.
_TRANSIENT_MARKERS = ("database is locked", "database is busy")

#: Run lifecycle states recorded in the ledger.
RUN_STATUSES = ("queued", "preparing", "running", "done", "failed")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(slots=True)
class RunRecord:
    """One ledger row (without the heavyweight payloads)."""

    run_id: str
    dataset: str
    seed: int
    scale: float
    config_hash: str
    strategy: str
    error_rate: float
    status: str
    questions_asked: int
    created_at: str
    updated_at: str
    error: str | None = None
    #: Partitioned-run pool size; ``None`` marks a monolithic run.
    workers: int | None = None
    #: Lineage (stream runs): the run this one incrementally updated.
    parent_run_id: str | None = None
    #: Position in a delta stream; ``None`` marks a non-stream run.
    stream_step: int | None = None
    #: Content fingerprint of the KB pair the run matched.
    kb_fingerprint: str | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    @property
    def partitioned(self) -> bool:
        return self.workers is not None

    @property
    def streaming(self) -> bool:
        """Whether the run keeps unit records and supports ``update``."""
        return self.stream_step is not None


class RunStore:
    """Persistent store for prepared states, checkpoints and run results.

    Parameters
    ----------
    path:
        SQLite database file; parent directories are created on demand.
        ``":memory:"`` gives an ephemeral store (handy in tests).
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        # Fail-slow under cross-process contention: SQLite itself waits
        # this long on a locked database before raising, and the _write
        # wrapper layers bounded retries with jittered backoff on top.
        busy_ms = int(os.environ.get("REPRO_SQLITE_BUSY_TIMEOUT_MS", "5000"))
        self._conn.execute(f"PRAGMA busy_timeout = {busy_ms}")
        if self.path != ":memory:":
            # Write-ahead logging: a commit appends to the -wal file
            # instead of rewriting pages through a rollback journal.
            # ``synchronous`` stays at SQLite's default FULL, so every
            # commit is still fsynced before it returns.  The last
            # connection to close checkpoints the log into the main file
            # and deletes the -wal and -shm sidecars.
            self._conn.execute("PRAGMA journal_mode = WAL")
        self._write_attempts = 1 + max(
            0, int(os.environ.get("REPRO_STORE_WRITE_RETRIES", "5"))
        )
        self._backoff_rng = random.Random(0x5EED)  # never the global RNG
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            for migration in _MIGRATIONS:
                try:
                    self._conn.execute(migration)
                except sqlite3.OperationalError as exc:
                    message = str(exc).lower()
                    if "duplicate column" not in message:
                        raise

    # ------------------------------------------------------------------
    def _write(self, op: str, fn):
        """Run one write transaction with bounded retry on transient errors.

        Every mutation goes through here: the ``store.write`` fault probe
        fires first (so injected failures exercise exactly this recovery
        path), then ``fn(conn)`` runs inside the lock + transaction.  A
        ``database is locked/busy`` error or an :class:`InjectedFault`
        sleeps an exponentially growing, jittered backoff and retries up
        to ``REPRO_STORE_WRITE_RETRIES`` times; anything else (or an
        exhausted budget) propagates.
        """
        from repro import obs

        last_error: Exception | None = None
        for attempt in range(self._write_attempts):
            try:
                faults.check("store.write", op=op, attempt=attempt)
                with self._lock, self._conn:
                    return fn(self._conn)
            except (sqlite3.OperationalError, faults.InjectedFault) as exc:
                if isinstance(exc, sqlite3.OperationalError):
                    message = str(exc).lower()
                    if not any(marker in message for marker in _TRANSIENT_MARKERS):
                        raise
                last_error = exc
                obs.count("store.write.retry")
                if attempt + 1 >= self._write_attempts:
                    break
                delay = min(0.25, 0.01 * (2**attempt))
                time.sleep(delay * (0.5 + self._backoff_rng.random()))
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Prepared-state cache
    # ------------------------------------------------------------------
    def save_prepared(self, key: tuple[str, str], state: PreparedState) -> None:
        """Persist ``state`` under its content key and format version.

        ``key`` is :func:`repro.substrate.substrate_key`'s
        ``(KB-pair fingerprint, config hash)``.
        """
        doc = prepared_state_to_doc(state)
        payload = json.dumps(doc, sort_keys=True)

        def op(conn):
            conn.execute(
                "INSERT OR REPLACE INTO prepared"
                " (fingerprint, config_hash, version, payload, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (*key, doc["version"], payload, _now()),
            )

        self._write("save_prepared", op)

    def load_prepared(self, key: tuple[str, str]) -> PreparedState | None:
        """The state stored under ``key``, or ``None`` on a miss.

        A row written under another format version is a miss.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM prepared"
                " WHERE fingerprint = ? AND config_hash = ? AND version = ?",
                (*key, PREPARED_STATE_VERSION),
            ).fetchone()
        if row is None:
            return None
        return prepared_state_from_doc(json.loads(row["payload"]))

    def list_prepared(self) -> list[tuple[str, str, int]]:
        """``(fingerprint, config hash, version)`` of every stored state."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT fingerprint, config_hash, version FROM prepared"
                " ORDER BY fingerprint, config_hash, version"
            ).fetchall()
        return [tuple(row) for row in rows]

    def clear_prepared(self) -> int:
        """Drop every cached prepared state; returns the number removed."""
        return self._write(
            "clear_prepared",
            lambda conn: conn.execute("DELETE FROM prepared").rowcount,
        )

    # ------------------------------------------------------------------
    # Run ledger
    # ------------------------------------------------------------------
    def create_run(
        self,
        dataset: str,
        seed: int,
        scale: float,
        config: RempConfig | None,
        strategy: str = "remp",
        error_rate: float = 0.0,
        run_id: str | None = None,
        workers: int | None = None,
        parent_run_id: str | None = None,
        delta_json: str | None = None,
        stream_step: int | None = None,
        kb_fingerprint: str | None = None,
    ) -> str:
        """Insert a ledger row in status ``queued``; returns the run id.

        ``workers`` marks a partitioned run (``repro.partition``); its
        checkpoints live per shard and resume re-fans them onto a pool.
        ``stream_step``/``parent_run_id``/``delta_json``/``kb_fingerprint``
        record lineage for incremental (stream) runs: step 0 is a root,
        later steps point at the run they updated and carry the applied
        delta verbatim.
        """
        run_id = run_id or uuid.uuid4().hex[:12]
        now = _now()

        def op(conn):
            conn.execute(
                "INSERT INTO runs (run_id, dataset, seed, scale, config_hash,"
                " strategy, error_rate, status, config_json, workers,"
                " parent_run_id, delta_json, stream_step, kb_fingerprint,"
                " created_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, 'queued', ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    dataset,
                    seed,
                    scale,
                    config_hash(config),
                    strategy,
                    error_rate,
                    json.dumps(config_to_doc(config or RempConfig()), sort_keys=True),
                    workers,
                    parent_run_id,
                    delta_json,
                    stream_step,
                    kb_fingerprint,
                    now,
                    now,
                ),
            )

        self._write("create_run", op)
        return run_id

    def set_run_fingerprint(self, run_id: str, kb_fingerprint: str) -> None:
        """Record the content fingerprint of the KB pair a run matched."""

        def op(conn):
            conn.execute(
                "UPDATE runs SET kb_fingerprint = ?, updated_at = ? WHERE run_id = ?",
                (kb_fingerprint, _now(), run_id),
            )

        self._write("set_run_fingerprint", op)

    def get_run_delta_json(self, run_id: str) -> str | None:
        """The serialized delta a stream run applied (``None`` for roots)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT delta_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return row["delta_json"] if row is not None else None

    def lineage(self, run_id: str) -> list[RunRecord]:
        """The parent chain of a run, root first (ends with the run itself)."""
        chain: list[RunRecord] = []
        seen: set[str] = set()
        current: str | None = run_id
        while current is not None and current not in seen:
            seen.add(current)
            record = self.get_run(current)
            if record is None:
                break
            chain.append(record)
            current = record.parent_run_id
        chain.reverse()
        return chain

    def set_run_workers(self, run_id: str, workers: int | None) -> None:
        """Record (or clear) a run's partitioned pool size in the ledger.

        Resuming with a ``workers`` override calls this so that *later*
        resumes keep treating the run as partitioned and pick up its
        shard checkpoints instead of silently reverting to monolithic.
        """

        def op(conn):
            conn.execute(
                "UPDATE runs SET workers = ?, updated_at = ? WHERE run_id = ?",
                (workers, _now(), run_id),
            )

        self._write("set_run_workers", op)

    def update_run_status(self, run_id: str, status: str) -> None:
        if status not in RUN_STATUSES:
            raise ValueError(f"unknown run status {status!r}")

        def op(conn):
            conn.execute(
                "UPDATE runs SET status = ?, updated_at = ? WHERE run_id = ?",
                (status, _now(), run_id),
            )

        self._write("update_run_status", op)

    def finish_run(self, run_id: str, result: RempResult) -> None:
        """Record the final result, mark ``done`` and drop the checkpoint."""

        def op(conn):
            conn.execute(
                "UPDATE runs SET status = 'done', result_json = ?,"
                " questions_asked = ?, updated_at = ? WHERE run_id = ?",
                (
                    json.dumps(result_to_doc(result), sort_keys=True),
                    result.questions_asked,
                    _now(),
                    run_id,
                ),
            )
            conn.execute("DELETE FROM checkpoints WHERE run_id = ?", (run_id,))
            conn.execute("DELETE FROM shard_checkpoints WHERE run_id = ?", (run_id,))

        self._write("finish_run", op)

    def fail_run(self, run_id: str, error: str) -> None:
        """Mark ``failed``; the checkpoint is kept so the run can resume."""

        def op(conn):
            conn.execute(
                "UPDATE runs SET status = 'failed', error = ?, updated_at = ?"
                " WHERE run_id = ?",
                (error, _now(), run_id),
            )

        self._write("fail_run", op)

    def get_run(self, run_id: str) -> RunRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id, dataset, seed, scale, config_hash, strategy,"
                " error_rate, status, questions_asked, created_at, updated_at,"
                " error, workers, parent_run_id, stream_step, kb_fingerprint"
                " FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        return _run_record(row) if row is not None else None

    def get_run_config(self, run_id: str) -> RempConfig | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT config_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        return config_from_doc(json.loads(row["config_json"]))

    def get_result(self, run_id: str) -> RempResult | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT result_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None or row["result_json"] is None:
            return None
        return result_from_doc(json.loads(row["result_json"]))

    def list_runs(self, dataset: str | None = None) -> list[RunRecord]:
        query = (
            "SELECT run_id, dataset, seed, scale, config_hash, strategy,"
            " error_rate, status, questions_asked, created_at, updated_at,"
            " error, workers, parent_run_id, stream_step, kb_fingerprint"
            " FROM runs"
        )
        params: tuple = ()
        if dataset is not None:
            query += " WHERE dataset = ?"
            params = (dataset,)
        query += " ORDER BY created_at, run_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [_run_record(row) for row in rows]

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(self, run_id: str, checkpoint: LoopCheckpoint) -> None:
        """Overwrite the run's checkpoint and its ledger question count."""
        payload = json.dumps(checkpoint_to_doc(checkpoint), sort_keys=True)
        now = _now()

        def op(conn):
            conn.execute(
                "INSERT OR REPLACE INTO checkpoints (run_id, payload, updated_at)"
                " VALUES (?, ?, ?)",
                (run_id, payload, now),
            )
            conn.execute(
                "UPDATE runs SET questions_asked = ?, updated_at = ? WHERE run_id = ?",
                (checkpoint.questions_asked, now, run_id),
            )

        self._write("save_checkpoint", op)

    def load_checkpoint(self, run_id: str) -> LoopCheckpoint | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM checkpoints WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        return checkpoint_from_doc(json.loads(row["payload"]))

    # ------------------------------------------------------------------
    # Per-shard checkpoints (partitioned runs, repro.partition)
    # ------------------------------------------------------------------
    def save_shard_checkpoint(
        self, run_id: str, shard_id: int, checkpoint: LoopCheckpoint
    ) -> None:
        """Overwrite one shard's mid-loop checkpoint for a partitioned run."""
        payload = json.dumps(
            {"kind": "loop", "checkpoint": checkpoint_to_doc(checkpoint)},
            sort_keys=True,
        )
        self._write_shard_row(
            "save_shard_checkpoint", run_id, shard_id, "loop", payload
        )

    def save_shard_result(
        self,
        run_id: str,
        shard_id: int,
        result: RempResult,
        snapshot: dict,
        answer_log: list | None = None,
    ) -> None:
        """Mark a shard finished: final result plus its loop-state snapshot.

        The snapshot feeds the isolated-pair classification phase on
        resume, so a restored shard contributes exactly the training
        data it produced live; the answer log keeps a resumed stream
        run's new-spend accounting exact.
        """
        payload = json.dumps(
            {
                "kind": "done",
                "result": result_to_doc(result),
                "snapshot": snapshot,
                "answer_log": answer_log or [],
            },
            sort_keys=True,
        )
        self._write_shard_row(
            "save_shard_result", run_id, shard_id, "done", payload
        )

    def _write_shard_row(
        self, op: str, run_id: str, shard_id: int, kind: str, payload: str
    ) -> None:
        self._write(
            op,
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO shard_checkpoints"
                " (run_id, shard_id, kind, payload, updated_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (run_id, shard_id, kind, payload, _now()),
            ),
        )

    def load_shard_records(self, run_id: str) -> dict[int, tuple]:
        """All persisted shard states of a partitioned run.

        Returns ``{shard_id: ("loop", LoopCheckpoint)}`` for shards
        interrupted mid-loop and ``{shard_id: ("done", RempResult,
        snapshot, answer_log)}`` for finished shards — the resume input
        of :class:`repro.partition.ParallelRunner`.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard_id, payload FROM shard_checkpoints WHERE run_id = ?"
                " ORDER BY shard_id",
                (run_id,),
            ).fetchall()
        records: dict[int, tuple] = {}
        for row in rows:
            doc = json.loads(row["payload"])
            if doc.get("kind") not in ("loop", "done"):
                # A store written by a release with shard leases can hold
                # kind='lease' stub rows from an interrupted run (and four
                # unread lease columns, kept because DROP COLUMN needs
                # SQLite >= 3.35).  A stub carries no execution state:
                # its shard starts from scratch.
                continue
            if doc["kind"] == "loop":
                records[row["shard_id"]] = (
                    "loop",
                    checkpoint_from_doc(doc["checkpoint"]),
                )
            else:
                records[row["shard_id"]] = (
                    "done",
                    result_from_doc(doc["result"]),
                    doc["snapshot"],
                    doc.get("answer_log", []),
                )
        return records

    def clear_shard_checkpoints(self, run_id: str) -> int:
        """Drop every shard row of a run; returns the number removed."""
        return self._write(
            "clear_shard_checkpoints",
            lambda conn: conn.execute(
                "DELETE FROM shard_checkpoints WHERE run_id = ?", (run_id,)
            ).rowcount,
        )

    # ------------------------------------------------------------------
    # Stream unit records (incremental runs, repro.stream)
    # ------------------------------------------------------------------
    def replace_unit_records(self, run_id: str, records: dict[str, dict]) -> None:
        """Overwrite a stream run's content-keyed unit record documents.

        Unlike shard checkpoints these *survive* ``finish_run`` — they
        are what the next ``update()`` reuses for clean closures.
        """
        now = _now()
        payloads = [
            (run_id, key, json.dumps(doc, sort_keys=True), now)
            for key, doc in records.items()
        ]

        def op(conn):
            conn.execute("DELETE FROM stream_units WHERE run_id = ?", (run_id,))
            conn.executemany(
                "INSERT INTO stream_units (run_id, unit_key, payload, updated_at)"
                " VALUES (?, ?, ?, ?)",
                payloads,
            )

        self._write("replace_unit_records", op)

    def load_unit_record_docs(self, run_id: str) -> dict[str, dict]:
        """All unit record documents of a stream run, keyed by content key."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT unit_key, payload FROM stream_units WHERE run_id = ?"
                " ORDER BY unit_key",
                (run_id,),
            ).fetchall()
        return {row["unit_key"]: json.loads(row["payload"]) for row in rows}

    def clear_unit_records(self, run_id: str) -> int:
        """Drop a stream run's unit records; returns the number removed."""
        return self._write(
            "clear_unit_records",
            lambda conn: conn.execute(
                "DELETE FROM stream_units WHERE run_id = ?", (run_id,)
            ).rowcount,
        )

    # ------------------------------------------------------------------
    # Observability documents (repro.obs): trace + metrics + cost ledger
    # ------------------------------------------------------------------
    def save_run_obs(self, run_id: str, doc: dict) -> None:
        """Persist a run's observability document (JSON).

        The document carries the run scope's export — ``trace`` (span
        list), ``metrics`` (counters/gauges), ``timings`` — plus the
        ``meta`` and ``cost_ledger`` sections the artifact exporter
        materialises into ``runs/<run_id>/``.
        """
        def op(conn):
            conn.execute(
                "INSERT INTO run_obs (run_id, payload, updated_at)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT(run_id) DO UPDATE SET"
                " payload = excluded.payload, updated_at = excluded.updated_at",
                (run_id, json.dumps(doc, sort_keys=True), _now()),
            )

        self._write("save_run_obs", op)

    def load_run_obs(self, run_id: str) -> dict | None:
        """The observability document saved for a run, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM run_obs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return None if row is None else json.loads(row["payload"])

    def load_run_timings(self, run_id: str) -> dict | None:
        """A run's stage timings as ``{"stages": ...}``, or ``None``.

        The stages are the ``timings`` section of the run's
        observability document.
        """
        doc = self.load_run_obs(run_id)
        return None if doc is None else {"stages": doc.get("timings", {})}

    # ------------------------------------------------------------------
    # Live telemetry events (repro.obs.live): append-only, tailable
    # ------------------------------------------------------------------
    # The ``run_events`` table is the cross-process half of the live
    # plane: each session's run scope appends progress/heartbeat rows
    # while it runs, and a *second* process tails them by sequence
    # number (``repro runs watch``, ``repro top``).  Stores created
    # before this release upgrade on open
    # — ``_SCHEMA`` runs every time, so the table appears without an
    # explicit ALTER migration.

    def append_run_event(
        self,
        run_id: str,
        kind: str,
        payload: dict | None = None,
        *,
        ts: float | None = None,
        shard_id: int | None = None,
        stream_step: int | None = None,
    ) -> int:
        """Append one telemetry event row; returns its sequence number."""
        if ts is None:
            ts = datetime.now(timezone.utc).timestamp()

        def op(conn):
            cursor = conn.execute(
                "INSERT INTO run_events"
                " (run_id, ts, kind, shard_id, stream_step, payload)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    ts,
                    kind,
                    shard_id,
                    stream_step,
                    json.dumps(payload or {}, sort_keys=True),
                ),
            )
            return cursor.lastrowid

        return self._write("append_run_event", op)

    def tail_run_events(
        self, run_id: str, after_seq: int = 0, limit: int | None = None
    ) -> list[dict]:
        """Events of a run with ``seq > after_seq``, oldest first.

        Each event is a flat dict: the row columns (``seq``/``ts``/
        ``kind`` plus ``shard_id``/``stream_step`` when set) merged with
        the JSON payload fields.  Pass the last seen ``seq`` back in to
        poll incrementally — the watch loop's contract.
        """
        query = (
            "SELECT seq, ts, kind, shard_id, stream_step, payload"
            " FROM run_events WHERE run_id = ? AND seq > ? ORDER BY seq"
        )
        params: tuple = (run_id, after_seq)
        if limit is not None:
            query += " LIMIT ?"
            params = (*params, limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [_event_doc(row) for row in rows]

    def last_run_event(self, run_id: str) -> dict | None:
        """The most recent event of a run, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT seq, ts, kind, shard_id, stream_step, payload"
                " FROM run_events WHERE run_id = ? ORDER BY seq DESC LIMIT 1",
                (run_id,),
            ).fetchone()
        return None if row is None else _event_doc(row)

    def count_run_events(self, run_id: str) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM run_events WHERE run_id = ?", (run_id,)
            ).fetchone()
        return row["n"]

    def clear_run_events(self, run_id: str) -> int:
        """Drop a run's telemetry events; returns the number removed."""
        return self._write(
            "clear_run_events",
            lambda conn: conn.execute(
                "DELETE FROM run_events WHERE run_id = ?", (run_id,)
            ).rowcount,
        )

    def active_runs(self) -> list[RunRecord]:
        """Ledger rows still in flight (queued / preparing / running)."""
        return [record for record in self.list_runs() if not record.finished]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row counts for ``repro cache info`` and diagnostics."""
        with self._lock:
            prepared = self._conn.execute(
                "SELECT COUNT(*) AS n FROM prepared"
            ).fetchone()["n"]
            runs = self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
            by_status = dict(
                self._conn.execute(
                    "SELECT status, COUNT(*) FROM runs GROUP BY status"
                ).fetchall()
            )
            checkpoints = self._conn.execute(
                "SELECT COUNT(*) AS n FROM checkpoints"
            ).fetchone()["n"]
            shard_checkpoints = self._conn.execute(
                "SELECT COUNT(*) AS n FROM shard_checkpoints"
            ).fetchone()["n"]
            stream_units = self._conn.execute(
                "SELECT COUNT(*) AS n FROM stream_units"
            ).fetchone()["n"]
            run_obs = self._conn.execute(
                "SELECT COUNT(*) AS n FROM run_obs"
            ).fetchone()["n"]
            run_events = self._conn.execute(
                "SELECT COUNT(*) AS n FROM run_events"
            ).fetchone()["n"]
        return {
            "path": self.path,
            "prepared_states": prepared,
            "runs": runs,
            "runs_by_status": by_status,
            "checkpoints": checkpoints,
            "shard_checkpoints": shard_checkpoints,
            "stream_units": stream_units,
            "run_obs": run_obs,
            "run_events": run_events,
        }


def _event_doc(row: sqlite3.Row) -> dict:
    doc = {"seq": row["seq"], "ts": row["ts"], "kind": row["kind"]}
    if row["shard_id"] is not None:
        doc["shard_id"] = row["shard_id"]
    if row["stream_step"] is not None:
        doc["stream_step"] = row["stream_step"]
    payload = json.loads(row["payload"])
    for key, value in payload.items():
        doc.setdefault(key, value)
    return doc


def _run_record(row: sqlite3.Row) -> RunRecord:
    return RunRecord(
        run_id=row["run_id"],
        dataset=row["dataset"],
        seed=row["seed"],
        scale=row["scale"],
        config_hash=row["config_hash"],
        strategy=row["strategy"],
        error_rate=row["error_rate"],
        status=row["status"],
        questions_asked=row["questions_asked"],
        created_at=row["created_at"],
        updated_at=row["updated_at"],
        error=row["error"],
        workers=row["workers"],
        parent_run_id=row["parent_run_id"],
        stream_step=row["stream_step"],
        kb_fingerprint=row["kb_fingerprint"],
    )
