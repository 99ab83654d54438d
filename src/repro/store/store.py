"""SQLite-backed artifact store for Remp runs.

One :class:`RunStore` file holds the durable state of runs:

* **Checkpoints** — a journal per run (and per shard of a partitioned
  run): every batch of crowd answers appends one row holding that
  loop's :class:`repro.core.LoopCheckpoint` delta, and loading folds the
  rows back into one resumable checkpoint
  (:func:`repro.core.pipeline.fold_checkpoints`), so an interrupted run
  resumes mid-loop without re-asking questions.
* **A run ledger** — configuration, status, question counts, lineage and
  the final :class:`repro.core.RempResult` of every run ever submitted,
  for later querying (``repro runs list`` / ``repro runs show``).  A
  stream run's result is its unit keys in shard order; ``get_result``
  merges their results back.
* **Unit rows** — a finished shard's outcome, keyed by its unit key and
  written in place of its journal.  A partitioned run resumes from them
  and ``finish_run`` drops them; a stream run keeps them for the next
  update, and ``finish_run`` gives each unit it reused a reference row
  naming the run that holds the payload, which a cold load resolves
  with one self-join.
* **Observability documents** — each run's trace, metrics and cost
  ledger, and its live ``run_events``.

A finished shard's outcome is serialized once, into its unit row.
Opening a store written by an earlier release migrates it once, in one
transaction (:func:`_migrate`).

It holds no offline artifacts of ``Remp.prepare``: a prepared state is a
function of its KB pair, which the ledger pins, and rebuilding one costs
about what loading a stored copy would.

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
from repro.core.pipeline import LoopCheckpoint, RempResult, fold_checkpoints, merge_shard_results
from repro.store.serialize import (
    checkpoint_from_doc,
    checkpoint_to_doc,
    config_from_doc,
    config_hash,
    config_to_doc,
    result_from_doc,
    result_to_doc,
)

_SCHEMA = """
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
-- Empty since the journal migration (_migrate); perfbench/tracing.py
-- still queries it.
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id     TEXT PRIMARY KEY REFERENCES runs(run_id) ON DELETE CASCADE,
    payload    TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoint_journal (
    seq        INTEGER PRIMARY KEY,
    run_id     TEXT NOT NULL,
    shard_id   INTEGER,
    payload    TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS checkpoint_journal_by_run
    ON checkpoint_journal (run_id, shard_id);
CREATE TABLE IF NOT EXISTS stream_units (
    run_id        TEXT NOT NULL,
    unit_key      TEXT NOT NULL,
    payload       TEXT NOT NULL,
    updated_at    TEXT NOT NULL,
    origin_run_id TEXT,
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

#: ``PRAGMA user_version`` of a store :func:`_migrate` has upgraded.
_VERSION = 1

#: The schema upgrades :func:`_migrate` applies to a store written by an
#: earlier release.  New databases get the added columns through
#: ``_SCHEMA`` directly; there the ALTER TABLE fails with "duplicate
#: column", the one error the migration may swallow.  The four ``runs``
#: columns after ``workers`` are the *lineage migration*: run provenance
#: for incremental (stream) runs.  ``stream_units.origin_run_id`` makes a
#: reused unit's row a reference to the run that holds its payload; rows
#: written before it have none, which reads as "this row is its own
#: origin", so no row is rewritten.  The DROPs remove tables nothing
#: reads: cached dominance matrices, the two prepared-state caches (a
#: state is rebuilt from its dataset or its lineage) and per-run stage
#: timings (they live in each run's ``run_obs`` document).
_MIGRATIONS = (
    "ALTER TABLE runs ADD COLUMN workers INTEGER",
    "ALTER TABLE runs ADD COLUMN parent_run_id TEXT",
    "ALTER TABLE runs ADD COLUMN delta_json TEXT",
    "ALTER TABLE runs ADD COLUMN stream_step INTEGER",
    "ALTER TABLE runs ADD COLUMN kb_fingerprint TEXT",
    "ALTER TABLE stream_units ADD COLUMN origin_run_id TEXT",
    "DROP TABLE IF EXISTS substrate_blobs",
    "DROP TABLE IF EXISTS prepared_states",
    "DROP TABLE IF EXISTS prepared",
    "DROP TABLE IF EXISTS run_timings",
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
    """Persistent store for run ledgers, checkpoints and run results.

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
        self._write_attempts = 1 + max(
            0, int(os.environ.get("REPRO_STORE_WRITE_RETRIES", "5"))
        )
        self._backoff_rng = random.Random(0x5EED)  # never the global RNG
        try:
            with self._lock, self._conn:
                # The script's BEGIN stays open until the block commits,
                # so the schema and the migration are one transaction: an
                # open that raises leaves the file as it was.
                self._conn.executescript("BEGIN;" + _SCHEMA)
                version = self._conn.execute("PRAGMA user_version").fetchone()[0]
                if version < _VERSION:
                    _migrate(self._conn)
            if self.path != ":memory:":
                # Write-ahead logging: a commit appends to the -wal file
                # instead of rewriting pages through a rollback journal.
                # ``synchronous`` stays at SQLite's default FULL, so every
                # commit is still fsynced before it returns.  The last
                # connection to close checkpoints the log into the main
                # file and deletes the -wal and -shm sidecars.
                self._conn.execute("PRAGMA journal_mode = WAL")
        except BaseException:
            self._conn.close()
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

    def finish_run(self, run_id: str, result: RempResult, units: dict | None = None) -> None:
        """Record the final result, mark ``done`` and drop the resume state.

        The run's journal goes, and so do the unit rows of a non-stream
        run: they only served its resume.  A stream run keeps them and
        passes ``units``, its unit keys in shard order mapped to their
        origins, the runs whose rows hold the payloads.  The ledger row
        then stores the keys for the result (:meth:`get_result` merges
        it back), and each unit another run executed gets a reference
        row, an empty payload with ``origin_run_id`` set, in place of
        the run's earlier ones.  An origin always holds a payload row,
        so references never chain; they name origin and key together,
        since a dirty unit can re-execute on an unchanged vertex set.
        """
        doc = result_to_doc(result) if units is None else {"units": list(units)}
        now = _now()
        references = [
            (run_id, key, origin, now) for key, origin in (units or {}).items() if origin != run_id
        ]

        def op(conn):
            conn.execute(
                "UPDATE runs SET status = 'done', result_json = ?,"
                " questions_asked = ?, updated_at = ? WHERE run_id = ?",
                (json.dumps(doc, sort_keys=True), result.questions_asked, now, run_id),
            )
            conn.execute("DELETE FROM checkpoint_journal WHERE run_id = ?", (run_id,))
            conn.execute(
                "DELETE FROM stream_units WHERE run_id = ? AND (origin_run_id IS NOT"
                " NULL OR (SELECT stream_step FROM runs WHERE run_id = ?) IS NULL)",
                (run_id, run_id),
            )
            conn.executemany(
                "INSERT INTO stream_units"
                " (run_id, unit_key, payload, origin_run_id, updated_at)"
                " VALUES (?, ?, '', ?, ?)",
                references,
            )

        self._write("finish_run", op)

    def fail_run(self, run_id: str, error: str) -> None:
        """Mark ``failed``; the checkpoints are kept so the run can resume."""

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
        """A finished run's result, or ``None``.

        A stream run's row holds its unit keys in shard order, whose
        results merge to the result its runner returned.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT result_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None or row["result_json"] is None:
            return None
        doc = json.loads(row["result_json"])
        if "units" not in doc:
            return result_from_doc(doc)
        units = {
            row["unit_key"]: row["payload"]
            for row in self._resolved_units(run_id, "json_extract(payload, '$.result')")
        }
        results = [result_from_doc(json.loads(units[key])) for key in doc["units"]]
        return merge_shard_results(list(enumerate(results)))

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
    # Checkpoints: a journal of loop deltas per run and per shard
    # ------------------------------------------------------------------
    # ``checkpoint_journal`` rows are keyed by run and shard (``NULL`` for
    # a monolithic run) and ordered by ``seq``.

    def save_checkpoint(self, run_id: str, checkpoint: LoopCheckpoint) -> None:
        """Append one loop's delta to the run's journal; record its question count."""
        payload = json.dumps(checkpoint_to_doc(checkpoint), sort_keys=True)
        now = _now()

        def op(conn):
            _append_journal(conn, run_id, None, payload, now)
            conn.execute(
                "UPDATE runs SET questions_asked = ?, updated_at = ? WHERE run_id = ?",
                (checkpoint.questions_asked, now, run_id),
            )

        self._write("save_checkpoint", op)

    def load_checkpoint(self, run_id: str) -> LoopCheckpoint | None:
        """The run's journal folded into one resumable checkpoint, or ``None``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM checkpoint_journal"
                " WHERE run_id = ? AND shard_id IS NULL ORDER BY seq",
                (run_id,),
            ).fetchall()
        return fold_checkpoints(
            [checkpoint_from_doc(json.loads(row["payload"])) for row in rows]
        )

    # ------------------------------------------------------------------
    # Shards and units (partitioned and stream runs)
    # ------------------------------------------------------------------
    # A shard journals its loops under ``(run_id, shard_id)`` while it
    # runs.  When it finishes, its outcome becomes one ``stream_units``
    # row keyed by its unit key, the content key of a graph shard or
    # ``isolated\x1f{i}`` for the i-th isolated one.  A stream run's rows
    # survive ``finish_run``, which adds its reference rows: they are what
    # the next update reuses.

    def save_shard_checkpoint(
        self, run_id: str, shard_id: int, checkpoint: LoopCheckpoint
    ) -> None:
        """Append one loop's delta to a partitioned run's shard journal."""
        payload = json.dumps(checkpoint_to_doc(checkpoint), sort_keys=True)
        self._write(
            "save_shard_checkpoint",
            lambda conn: _append_journal(conn, run_id, shard_id, payload, _now()),
        )

    def save_shard_result(
        self,
        run_id: str,
        shard_id: int,
        key: str,
        kind: str,
        result: RempResult,
        snapshot: dict,
        answer_log: list,
    ) -> None:
        """Record a finished shard: its unit row replaces its journal.

        The row holds the shard's kind, result, loop-state snapshot and
        answer log.  The snapshot feeds the isolated-pair phase on
        resume, so a restored shard contributes exactly the training
        data it produced live; the answer log keeps a stream run's
        new-spend accounting exact.  One transaction writes the row and
        deletes the shard's journal.
        """
        payload = json.dumps(
            {
                "kind": kind,
                "result": result_to_doc(result),
                "snapshot": snapshot,
                "answer_log": answer_log,
            },
            sort_keys=True,
        )

        def op(conn):
            conn.execute(
                "INSERT OR REPLACE INTO stream_units"
                " (run_id, unit_key, payload, origin_run_id, updated_at)"
                " VALUES (?, ?, ?, NULL, ?)",
                (run_id, key, payload, _now()),
            )
            conn.execute(
                "DELETE FROM checkpoint_journal WHERE run_id = ? AND shard_id = ?",
                (run_id, shard_id),
            )

        self._write("save_shard_result", op)

    def load_shard_records(
        self, run_id: str
    ) -> tuple[dict[str, dict], dict[int, LoopCheckpoint]]:
        """A run's resume input: its unit rows and its shard journals.

        Returns the documents of the shards the run finished, keyed by
        unit key (the shape :meth:`load_unit_record_docs` returns), and
        each mid-loop shard's journal folded into one checkpoint, keyed
        by shard id — the resume input of
        :class:`repro.partition.ParallelRunner`.  A stream run's
        reference rows are not its own outcomes and are left out.
        """
        with self._lock:
            units = self._conn.execute(
                "SELECT unit_key, payload FROM stream_units"
                " WHERE run_id = ? AND origin_run_id IS NULL",
                (run_id,),
            ).fetchall()
            journal = self._conn.execute(
                "SELECT shard_id, payload FROM checkpoint_journal"
                " WHERE run_id = ? AND shard_id IS NOT NULL ORDER BY shard_id, seq",
                (run_id,),
            ).fetchall()
        deltas: dict[int, list[LoopCheckpoint]] = {}
        for row in journal:
            deltas.setdefault(row["shard_id"], []).append(
                checkpoint_from_doc(json.loads(row["payload"]))
            )
        return (
            {row["unit_key"]: _unit_doc(row, run_id) for row in units},
            {shard_id: fold_checkpoints(rows) for shard_id, rows in deltas.items()},
        )

    def load_unit_record_docs(self, run_id: str) -> dict[str, dict]:
        """All unit record documents of a stream run, keyed by unit key.

        One self-join resolves references: a row with an
        ``origin_run_id`` reads its payload from its origin's row for the
        same unit key.  A row without one is its own origin, which is how
        every row a store written before references holds reads.  Each
        document's ``key`` and ``origin`` come from the row's columns;
        ``origin`` names the run whose row holds its payload.  Raises
        ``ValueError`` for a reference whose origin holds no payload row
        for its unit.
        """
        return {
            row["unit_key"]: _unit_doc(row, row["origin"])
            for row in self._resolved_units(run_id, "payload")
        }

    def _resolved_units(self, run_id: str, part: str) -> list[sqlite3.Row]:
        """A stream run's unit rows, ordered by key, references resolved.

        One self-join reads each row's payload from its origin's row.
        ``part`` is an SQL expression over that ``payload`` text (the
        whole of it, or a ``json_extract`` of one field), returned as
        the row's ``payload`` beside its ``unit_key`` and ``origin``.
        Raises ``ValueError`` for a reference whose origin holds no
        payload row for its unit.
        """
        with self._lock:
            rows = self._conn.execute(
                f"SELECT unit_key, origin, {part} AS payload FROM ("
                " SELECT u.unit_key, COALESCE(u.origin_run_id, u.run_id) AS origin,"
                " NULLIF(COALESCE(o.payload, u.payload), '') AS payload"
                " FROM stream_units AS u LEFT JOIN stream_units AS o"
                " ON o.run_id = u.origin_run_id AND o.unit_key = u.unit_key"
                " WHERE u.run_id = ?) ORDER BY unit_key",
                (run_id,),
            ).fetchall()
        for row in rows:
            if row["payload"] is None:
                raise ValueError(
                    f"unit {row['unit_key']!r} of run {run_id!r} references run "
                    f"{row['origin']!r}, which holds no payload for it"
                )
        return rows

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

    def active_runs(self) -> list[RunRecord]:
        """Ledger rows still in flight (queued / preparing / running)."""
        return [record for record in self.list_runs() if not record.finished]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row counts for ``repro cache info`` and diagnostics.

        A run (shard) with a resumable checkpoint counts once, however
        many journal rows it holds.
        """
        with self._lock:
            counts = self._conn.execute(
                "SELECT (SELECT COUNT(*) FROM runs) AS runs,"
                " (SELECT COUNT(DISTINCT run_id) FROM checkpoint_journal"
                " WHERE shard_id IS NULL) AS checkpoints,"
                " (SELECT COUNT(*) FROM (SELECT DISTINCT run_id, shard_id"
                " FROM checkpoint_journal WHERE shard_id IS NOT NULL))"
                " AS shard_journals,"
                " (SELECT COUNT(*) FROM stream_units) AS stream_units,"
                " (SELECT COUNT(*) FROM run_obs) AS run_obs,"
                " (SELECT COUNT(*) FROM run_events) AS run_events"
            ).fetchone()
            by_status = dict(
                self._conn.execute(
                    "SELECT status, COUNT(*) FROM runs GROUP BY status"
                ).fetchall()
            )
        return {"path": self.path, "runs_by_status": by_status, **dict(counts)}


def _migrate(conn: sqlite3.Connection) -> None:
    """Upgrade a store written by an earlier release to ``_VERSION``.

    Besides ``_MIGRATIONS``, it moves the checkpoints written before the
    journal into it: each full ``checkpoints`` row, and each
    ``kind='loop'`` row of the dropped ``shard_checkpoints`` table,
    becomes its run's (shard's) first journal row, numbered below every
    existing row.  A full checkpoint is a delta from the prepared state,
    so the run resumes from the fold as before.  A shard's ``done`` row
    has no unit key, so it is not moved: that shard re-executes under the
    same seeds.  A lease stub holds no state.  A row that does not parse
    raises ``ValueError``, and the caller's transaction rolls back.
    """
    for migration in _MIGRATIONS:
        try:
            conn.execute(migration)
        except sqlite3.OperationalError as exc:
            if "duplicate column" not in str(exc).lower():
                raise
    legacy = conn.execute(
        "SELECT run_id, NULL AS shard_id, payload, updated_at FROM checkpoints"
    ).fetchall()
    if conn.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'shard_checkpoints'"
    ).fetchone():
        legacy += conn.execute(
            "SELECT run_id, shard_id, payload, updated_at FROM shard_checkpoints"
            " WHERE kind = 'loop'"
        ).fetchall()
    first = conn.execute(
        "SELECT COALESCE(MIN(seq), 1) FROM checkpoint_journal"
    ).fetchone()[0]
    for offset, row in enumerate(legacy, start=1):
        try:
            doc = json.loads(row["payload"])
            if row["shard_id"] is not None:
                doc = doc["checkpoint"]
            checkpoint = checkpoint_from_doc(doc)
        except (ValueError, KeyError, TypeError) as exc:
            shard = "" if row["shard_id"] is None else f" shard {row['shard_id']}"
            raise ValueError(
                f"the pre-journal checkpoint of run {row['run_id']!r}{shard}"
                f" does not parse: {exc}"
            ) from exc
        conn.execute(
            "INSERT INTO checkpoint_journal"
            " (seq, run_id, shard_id, payload, created_at) VALUES (?, ?, ?, ?, ?)",
            (
                first - offset,
                row["run_id"],
                row["shard_id"],
                json.dumps(checkpoint_to_doc(checkpoint), sort_keys=True),
                row["updated_at"],
            ),
        )
    conn.execute("DELETE FROM checkpoints")
    conn.execute("DROP TABLE IF EXISTS shard_checkpoints")
    conn.execute(f"PRAGMA user_version = {_VERSION}")


def _append_journal(
    conn: sqlite3.Connection, run_id: str, shard_id: int | None, payload: str, now: str
) -> None:
    conn.execute(
        "INSERT INTO checkpoint_journal (run_id, shard_id, payload, created_at)"
        " VALUES (?, ?, ?, ?)",
        (run_id, shard_id, payload, now),
    )


def _unit_doc(row: sqlite3.Row, origin: str) -> dict:
    """A unit row's payload with its ``key`` and ``origin`` columns."""
    return {**json.loads(row["payload"]), "key": row["unit_key"], "origin": origin}


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
