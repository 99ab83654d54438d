"""The concurrent matching service.

:class:`MatchingService` multiplexes many Remp human–machine loops over
one :class:`repro.store.RunStore`:

* ``prepare()`` work is deduplicated through a two-level cache — a
  size-capped in-process LRU in front of the store's SQLite table —
  keyed by content: :func:`repro.substrate.substrate_key`, the KB pair's
  fingerprint plus the config hash.  One lock per key (pruned when its
  compute finishes) makes concurrent submissions on the same KB pair
  compute the offline stages exactly once while every other session
  blocks until the artifact is ready.  Computes run inside, and every
  returned state is attached to, the key's shared kernel arena
  (:mod:`repro.substrate`), so sessions on the same KB pair share one
  literal-interning arena.
* Each submitted run becomes a :class:`MatchingSession` with an explicit
  ``submit / step / status / result`` lifecycle.  ``submit``, ``update``
  and ``resume`` write the run's ledger row first, and the session is
  built from that row.  Background sessions run on a thread pool;
  foreground sessions are advanced by calling
  :meth:`MatchingService.step` one human–machine loop at a time.  A
  session's run scope appends its progress events to the store's
  ``run_events`` table, so another process can watch the run live.
* Every labeling round checkpoints to the store, so a killed process (or
  a failed session) resumes mid-loop via :meth:`MatchingService.resume`,
  replaying the recorded crowd answers instead of re-asking.
* Sessions submitted with ``workers=N`` run partitioned
  (:mod:`repro.partition`): the ER graph is sharded into entity-closure
  components and fanned onto a process pool, checkpointing per shard;
  such runs resume shard-by-shard, and their merged result does not
  depend on the pool size.
* Sessions submitted with ``stream=True`` execute unit-wise
  (:mod:`repro.stream`) and persist content-keyed unit records; the
  :meth:`MatchingService.update` lifecycle verb then applies a
  :class:`repro.stream.KBDelta` incrementally — re-preparing and
  re-running only the entity closures the delta touches, reusing every
  clean unit's recorded outcome and crowd answers, with full lineage
  (parent run, delta, KB fingerprint) in the ledger.
"""

from __future__ import annotations

import json
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

from repro.core import Remp, RempConfig
from repro.core.pipeline import LoopDriver, PreparedState, RempResult
from repro.datasets import load_dataset
from repro.obs import runtime as obs
from repro.obs.artifacts import run_meta
from repro.obs.logging import get_logger
from repro.partition import CrowdSpec, ParallelRunner, PartialResult
from repro.store import RunStore, config_hash
from repro.store.store import RunRecord
from repro.stream import (
    DeltaConflictError,
    IncrementalPrepared,
    KBDelta,
    StreamRunner,
    incremental_prepare,
    unit_record_from_doc,
    unit_record_to_doc,
)
from repro.substrate import SubstrateCache, shared_cache, substrate_key

Pair = tuple[str, str]

log = get_logger("service")

#: A stream update stores its full post-delta prepared state only at
#: stream steps divisible by this.  The states in between are rebuilt on
#: demand by replaying recorded deltas from the nearest stored ancestor,
#: so a cold service replays at most ``FULL_STATE_EVERY - 1`` of them.
FULL_STATE_EVERY = 4

#: Session lifecycle states (mirrors the ledger's run statuses).
QUEUED = "queued"
PREPARING = "preparing"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class PreparedCache:
    """A size-capped LRU of prepared states by content key.

    Callers serialise access.  Each service holds one, and so do the
    experiment drivers: a shared instance would let one service's hits
    come from another's computes, which it would then never store.
    """

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self.evictions = 0
        self._entries: OrderedDict[tuple, PreparedState] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key: tuple) -> PreparedState | None:
        """The cached state, marked most recently used; ``None`` on a miss."""
        state = self._entries.get(key)
        if state is not None:
            self._entries.move_to_end(key)
        return state

    def put(self, key: tuple, state: PreparedState) -> None:
        """Insert ``state``, evicting least recently used entries past capacity."""
        self._entries[key] = state
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.count("prepared.cache.evictions")


class MatchingSession:
    """One resumable Remp run with an explicit stepwise lifecycle.

    A session is its ledger row: ``record`` (a :class:`RunRecord`) fixes
    the dataset, seed, scale, strategy, error rate, pool size and
    lineage, and ``config`` is the row's config.  ``inputs(session)``
    returns the run's ``(state, dirty, reuse, truth)`` — the service's
    one input path for every mode.  Sessions are created by
    :class:`MatchingService` and advanced either by its thread pool
    (:meth:`run`) or manually (:meth:`step` … :meth:`finalize`).  All
    mutating methods take the session lock, so a session may be driven
    from any single thread at a time.
    """

    def __init__(
        self,
        record: RunRecord,
        config: RempConfig | None,
        store: RunStore,
        inputs,
        *,
        delta: KBDelta | None = None,
        on_event=None,
    ):
        self.record = record
        self.run_id = record.run_id
        self.config = config or RempConfig()
        #: A new stream update's delta; ``None`` replays the recorded one.
        self.delta = delta
        self.on_event = on_event
        #: The last stream execution's :class:`repro.stream.StreamOutcome`
        #: (reuse/new-spend accounting); ``None`` until the run finishes.
        self.stream_outcome = None
        self.status = QUEUED
        self.error: str | None = None
        self._store = store
        self._inputs = inputs
        self._lock = threading.RLock()
        #: The monolithic run's loop driver, built on first step or finalize.
        self._driver: LoopDriver | None = None
        #: The session's observability scope: every execution path runs
        #: under its activation, so stage timings, spans and metrics are
        #: attributed to exactly this run, and its progress events are
        #: appended to this run's ``run_events`` rows.
        self._scope = obs.RunScope(
            record.run_id, stream_step=record.stream_step, store=store
        )
        self._result: RempResult | None = None

    # ------------------------------------------------------------------
    @property
    def questions_asked(self) -> int:
        if self._result is not None:
            return self._result.questions_asked
        return self._driver.questions_asked if self._driver is not None else 0

    @property
    def num_loops(self) -> int:
        return len(self._driver.history) if self._driver is not None else 0

    # ------------------------------------------------------------------
    @contextmanager
    def _observed(self):
        """The session lock plus the scope activation, together."""
        with self._lock, self._scope.activate():
            yield

    def _set_status(self, status: str, **fields) -> None:
        """Record a lifecycle transition in the ledger and the run's events."""
        self.status = status
        self._store.update_run_status(self.run_id, status)
        self._scope.publish(f"status.{status}", **fields)

    def _finish(self, result: RempResult, cost_items: list[dict]) -> RempResult:
        """Record a finished run: ledger row, done event, obs document.

        ``cost_items`` itemise the billed questions (loop / shard /
        stream-unit scoped) and become the run's cost ledger, summing to
        the result's ``questions_asked`` exactly.  The document's
        timings are the scope's private registry: only stages that ran
        under this session's activations (plus shard deltas merged back
        from its own pool workers) — exact attribution, not a diff
        against the shared process-wide singleton.
        """
        self._result = result
        self.status = DONE
        self._store.finish_run(self.run_id, result)
        self._scope.publish(
            "status.done",
            questions=result.questions_asked,
            matches=len(result.matches),
        )
        record = self._store.get_run(self.run_id)
        doc = self._scope.export()
        if record is not None:
            doc["meta"] = run_meta(record)
        ledger = {
            "total": sum(item["questions"] for item in cost_items),
            "items": list(cost_items),
        }
        if self.stream_outcome is not None:
            ledger["questions_new"] = self.stream_outcome.questions_new
        if ledger["total"] != result.questions_asked:  # pragma: no cover
            # Never expected; recorded rather than raised so a ledger
            # accounting bug can't fail an otherwise-finished run.
            ledger["mismatch"] = result.questions_asked - ledger["total"]
        doc["cost_ledger"] = ledger
        self._store.save_run_obs(self.run_id, doc)
        log.info(
            "run %s done: %d matches, %d questions, %d loops",
            self.run_id,
            len(result.matches),
            result.questions_asked,
            result.num_loops,
        )
        return result

    # ------------------------------------------------------------------
    def _start(self) -> tuple:
        """Fetch the run's inputs and build its crowd: every mode starts here.

        Returns ``(state, dirty, reuse, crowd)``; the run is ``preparing``
        while the inputs are fetched and ``running`` afterwards.
        """
        self._set_status(PREPARING)
        state, dirty, reuse, truth = self._inputs(self)
        crowd = CrowdSpec(
            truth=truth, error_rate=self.record.error_rate, seed=self.record.seed
        )
        self._set_status(RUNNING)
        return state, dirty, reuse, crowd

    def _ensure_started(self) -> None:
        """Start the run and build its loop driver from any checkpoint."""
        if self._driver is not None:
            return
        state, _, _, crowd = self._start()
        seed = self.record.seed
        checkpoint = self._store.load_checkpoint(self.run_id)
        self._driver = LoopDriver(
            Remp(self.config, seed=seed),
            state,
            crowd.build_seeded(seed),
            self.record.strategy,
            checkpoint,
        )
        if checkpoint is not None:
            obs.event(
                "session.checkpoint_restored",
                loops=checkpoint.next_loop_index,
                questions=checkpoint.questions_asked,
            )
            log.info(
                "run %s restored from checkpoint: %d loops, %d questions",
                self.run_id,
                checkpoint.next_loop_index,
                checkpoint.questions_asked,
            )

    def step(self) -> bool:
        """Advance one human–machine loop and checkpoint it.

        Returns ``False`` once the loop has converged (or already
        finished); call :meth:`finalize` afterwards for the result.
        """
        if self.record.streaming:
            raise ValueError(
                "stream sessions advance whole units, not loops; "
                "use run()/result() instead of step()"
            )
        if self.record.partitioned:
            raise ValueError(
                "partitioned sessions advance whole shards, not loops; "
                "use run()/result() instead of step()"
            )
        with self._observed():
            if self._result is not None:
                return False
            self._ensure_started()
            if self._driver.step() is None:
                return False
            self._store.save_checkpoint(self.run_id, self._driver.checkpoint())
            # The per-loop heartbeat watchers poll for: cheap, and on
            # even under REPRO_NO_TRACE (operational, like counters).
            obs.publish(
                "loop.checkpointed",
                loops=self._driver.next_loop,
                questions=self._driver.questions_asked,
            )
            return True

    def finalize(self) -> RempResult:
        """Final propagation, isolated-pair classification, ledger write."""
        # The mode dispatch.  A monolithic run is not executed as a
        # one-shard plan: shards seed their crowd and classifier with
        # content_seed(seed, str(shard_id)), which would change every
        # monolithic output (among them the seed-0 outputs perfbench
        # pins: 181 questions, F1 0.9581 on clustered-loop); shards have
        # no per-loop step(); and shard checkpoints live in another table.
        if self.record.streaming:
            return self._run_stream()
        if self.record.partitioned:
            return self._run_partitioned()
        with self._observed():
            if self._result is not None:
                return self._result
            self._ensure_started()
            return self._finish(self._driver.finish(), self._driver.cost_items)

    def run(self) -> RempResult:
        """Drive the session to completion (the thread-pool entry point)."""
        try:
            if not self.record.streaming and not self.record.partitioned:
                while self.step():
                    pass
            return self.finalize()
        except Exception as exc:
            fields = {}
            if isinstance(exc, PartialResult):
                # Graceful degradation: the run failed, but structured —
                # the event names the quarantined shards, and the merged
                # healthy result stays reachable on the exception itself.
                fields = {
                    "quarantined": [entry["shard_id"] for entry in exc.quarantined],
                    "partial_matches": len(exc.result.matches),
                    "partial_questions": exc.result.questions_asked,
                }
            with self._lock:
                self.status = FAILED
                self.error = f"{type(exc).__name__}: {exc}"
                self._store.fail_run(self.run_id, traceback.format_exc())
                self._scope.publish("status.failed", error=self.error, **fields)
            log.error("run %s failed: %s", self.run_id, self.error)
            raise

    def _run_partitioned(self) -> RempResult:
        """Shard the prepared state and fan it onto a process pool.

        Every labeling round of every shard checkpoints under
        ``(run_id, shard_id)``, so a killed partitioned run resumes
        shard-by-shard; finished shards are restored from the store and
        never re-executed.

        The session lock is held for the whole run — like the
        monolithic path, which holds it across every ``step()`` — so
        concurrent ``result()``/``finalize()`` callers wait for the one
        execution instead of fanning out a second pool.
        """
        with self._observed():
            if self._result is not None:
                return self._result
            state, _, _, crowd = self._start()
            runner = ParallelRunner(
                self.config,
                seed=self.record.seed,
                workers=self.record.workers,
                strategy=self.record.strategy,
                store=self._store,
                run_id=self.run_id,
                on_event=self.on_event,
            )
            result = runner.run(state, crowd)
            # Shard billing is additive over disjoint pair sets, so the
            # per-shard items sum to the merged question count exactly.
            return self._finish(result, runner.shard_costs)

    def _run_stream(self) -> RempResult:
        """Execute (or incrementally update) unit-wise via the stream runner.

        An update's inputs carry the dirty pair set and the parent's
        unit records; clean units restore from those records, dirty ones
        execute with per-unit checkpoints under ``(run_id, shard_id)`` —
        so an interrupted update resumes without re-asking a question.
        Unit records persist past ``finish_run``: they are what the
        *next* update reuses.
        """
        with self._observed():
            if self._result is not None:
                return self._result
            state, dirty, reuse, crowd = self._start()
            runner = StreamRunner(
                self.config,
                seed=self.record.seed,
                workers=self.record.workers or 1,
                strategy=self.record.strategy,
                store=self._store,
                run_id=self.run_id,
                on_event=self.on_event,
            )
            outcome = runner.run_incremental(state, crowd, dirty=dirty, reuse=reuse)
            self._store.replace_unit_records(
                self.run_id,
                {
                    key: unit_record_to_doc(record)
                    for key, record in outcome.records.items()
                },
            )
            self.stream_outcome = outcome
            # Unit records cover every shard of the run (reused ones bill
            # their recorded, i.e. logical, question count), so the items
            # sum to the merged result's questions_asked.
            cost_items = [
                {
                    "scope": "stream_unit",
                    "key": key,
                    "kind": record.kind,
                    "questions": record.result.questions_asked,
                    "reused": key in outcome.reused_keys,
                }
                for key, record in sorted(outcome.records.items())
            ]
            return self._finish(outcome.result, cost_items)

    def result(self) -> RempResult | None:
        return self._result


class MatchingService:
    """Concurrent front-end over a :class:`repro.store.RunStore`.

    Examples
    --------
    >>> from repro.service import MatchingService
    >>> service = MatchingService(":memory:", max_workers=2)
    >>> a = service.submit("iimb", scale=0.2)
    >>> b = service.submit("iimb", scale=0.2)   # same key: prepare() once
    >>> service.result(a).matches == service.result(b).matches
    True
    >>> service.close()
    """

    def __init__(
        self,
        store: RunStore | str = ":memory:",
        *,
        max_workers: int = 4,
        error_rate: float = 0.0,
        memory_cache_size: int = 8,
        substrate_cache: SubstrateCache | None = None,
    ):
        self._store = store if isinstance(store, RunStore) else RunStore(store)
        self._owns_store = not isinstance(store, RunStore)
        self._default_error_rate = error_rate
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="remp-session"
        )
        self._sessions: dict[str, MatchingSession] = {}
        self._futures: dict[str, Future] = {}
        #: In-memory prepared-state LRU, size-capped at ``memory_cache_size``
        #: (callers hold ``self._lock``).
        self._memory_cache = PreparedCache(memory_cache_size)
        #: Per-key compute locks; pruned as computes finish, so the dict
        #: size is bounded by the number of *in-flight* prepares.
        self._key_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        #: Shared kernel arenas (process-wide by default): every service
        #: in the process converges on one arena per (KB pair, config).
        self._substrate = (
            substrate_cache if substrate_cache is not None else shared_cache()
        )
        #: Prepared-state cache accounting (memory or store hits vs. computes).
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    @property
    def store(self) -> RunStore:
        return self._store

    @property
    def cache_evictions(self) -> int:
        return self._memory_cache.evictions

    def close(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Prepared-state cache
    # ------------------------------------------------------------------
    def prepared(
        self,
        dataset: str,
        seed: int = 0,
        scale: float = 1.0,
        config: RempConfig | None = None,
    ) -> PreparedState:
        """The offline artifacts for a dataset, computed at most once.

        The cache key is the content key of the dataset's KB pair
        (:func:`repro.substrate.substrate_key`), so a changed dataset
        generator misses instead of being served a stale state.  Memory
        LRU first, then the store; a miss runs ``Remp.prepare`` under a
        per-key lock so concurrent sessions asking for the same key wait
        for the one computation instead of repeating it.  The compute
        runs inside the key's shared substrate arena
        (:mod:`repro.substrate`), and every state returned is attached
        to it, so concurrent sessions on the same KB pair share one
        literal-interning arena.
        """
        bundle = load_dataset(dataset, seed=seed, scale=scale)
        key = substrate_key(bundle.kb1, bundle.kb2, config)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        try:
            with key_lock:
                state = self._cached(key)
                if state is not None:
                    with self._lock:
                        self.cache_hits += 1
                    obs.count("prepared.cache.hits")
                    return state
                arena = self._substrate.get_or_create(key)
                with arena.activation():
                    state = Remp(config or RempConfig(), seed=seed).prepare(
                        bundle.kb1, bundle.kb2
                    )
                self._store.save_prepared(key, state)
                arena.attach(state)
                with self._lock:
                    self.cache_misses += 1
                    self._memory_cache.put(key, state)
                obs.count("prepared.cache.misses")
                log.info("prepared state computed for %s %s", dataset, key)
                return state
        finally:
            # The per-key lock exists only to deduplicate in-flight
            # computes; once any holder exits, waiters re-check the cache
            # anyway, so the entry can go.  The identity guard keeps a
            # straggler from deleting a *newer* lock created after an
            # earlier prune.
            with self._lock:
                if self._key_locks.get(key) is key_lock:
                    del self._key_locks[key]

    def _cached(self, key: tuple[str, str]) -> PreparedState | None:
        """The state for a content key from memory, else from the store.

        A store hit is attached to the key's arena and kept in memory.
        Roots and post-delta states are both looked up here.
        """
        with self._lock:
            state = self._memory_cache.get(key)
        if state is None:
            state = self._store.load_prepared(key)
            if state is not None:
                self._substrate.get_or_create(key).attach(state)
                with self._lock:
                    self._memory_cache.put(key, state)
        return state

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str,
        *,
        seed: int = 0,
        scale: float = 1.0,
        config: RempConfig | None = None,
        strategy: str = "remp",
        error_rate: float | None = None,
        background: bool = True,
        workers: int | None = None,
        on_event=None,
        stream: bool = False,
    ) -> str:
        """Register a new run and return its id.

        With ``background=True`` the session starts on the thread pool;
        otherwise it waits to be advanced via :meth:`step` (one
        human–machine loop per call) or driven to completion by
        :meth:`result`.  ``workers`` switches the session to partitioned
        execution (:mod:`repro.partition`): the ER graph is sharded into
        components and run on that many processes, with per-shard
        checkpoints; ``on_event`` receives shard lifecycle events.
        ``stream`` makes this a *stream root* (step 0 of a delta
        lineage): it executes unit-wise and persists content-keyed unit
        records, which is what :meth:`update` later reuses.
        """
        if error_rate is None:
            error_rate = self._default_error_rate
        run_id = self._store.create_run(
            dataset,
            seed,
            scale,
            config,
            strategy=strategy,
            error_rate=error_rate,
            workers=workers,
            stream_step=0 if stream else None,
        )
        return self._open(run_id, background=background, on_event=on_event)

    def update(
        self,
        run_id: str,
        delta: KBDelta,
        *,
        workers: int | None = None,
        background: bool = True,
        on_event=None,
    ) -> str:
        """Incrementally re-match after a KB delta; returns the new run id.

        ``run_id`` must be a *finished stream run* (submitted with
        ``stream=True`` or itself produced by ``update``).  The delta is
        diffed against the cached prepared state; only the entity
        closures it touches are re-prepared and re-run, prior
        resolutions and crowd answers for clean closures are reused
        verbatim, and the new run's result is byte-identical to a
        from-scratch run on the post-delta KBs.  A delta carrying a
        ``parent_fingerprint`` that does not match the run's recorded KB
        fingerprint raises :class:`repro.stream.DeltaConflictError`.
        ``workers`` defaults to the parent run's pool size, so a lineage
        started parallel stays parallel across updates.
        """
        record = self._store.get_run(run_id)
        if record is None:
            raise KeyError(f"unknown run {run_id!r}")
        if workers is None:
            workers = record.workers
        if not record.streaming:
            raise ValueError(
                f"run {run_id!r} is not a stream run; submit with stream=True "
                "to build an updatable lineage"
            )
        if record.status != DONE:
            raise ValueError(
                f"run {run_id!r} has status {record.status!r}; only finished "
                "runs can be updated (resume it first)"
            )
        if (
            delta.parent_fingerprint is not None
            and record.kb_fingerprint is not None
            and delta.parent_fingerprint != record.kb_fingerprint
        ):
            raise DeltaConflictError(
                f"delta was authored against KB pair "
                f"{delta.parent_fingerprint}, but run {run_id!r} matched "
                f"fingerprint {record.kb_fingerprint}"
            )
        new_run_id = self._store.create_run(
            record.dataset,
            record.seed,
            record.scale,
            self._store.get_run_config(run_id),
            strategy=record.strategy,
            error_rate=record.error_rate,
            workers=workers,
            parent_run_id=run_id,
            delta_json=json.dumps(delta.to_doc(), sort_keys=True),
            stream_step=(record.stream_step or 0) + 1,
        )
        return self._open(
            new_run_id, background=background, on_event=on_event, delta=delta
        )

    def resume(
        self,
        run_id: str,
        background: bool = True,
        workers: int | None = None,
        on_event=None,
    ) -> str:
        """Rebuild a session for an interrupted or failed ledger run.

        The stored checkpoint (if any) restores the resolution state and
        replays the crowd answer log, so no past question is re-asked.
        A partitioned run resumes partitioned (its recorded pool size
        can be overridden with ``workers`` — the merged result does not
        depend on it).
        """
        record = self._store.get_run(run_id)
        if record is None:
            raise KeyError(f"unknown run {run_id!r}")
        if record.status == DONE:
            raise ValueError(f"run {run_id!r} already finished")
        with self._lock:
            future = self._futures.get(run_id)
            live = self._sessions.get(run_id)
        if future is not None and not future.done():
            raise ValueError(f"run {run_id!r} is still active in this service")
        if live is not None and live.status in (QUEUED, PREPARING, RUNNING):
            raise ValueError(f"run {run_id!r} has a live session in this service")
        if (
            workers is not None
            and record.workers is None
            and self._store.load_checkpoint(run_id) is not None
        ):
            raise ValueError(
                f"run {run_id!r} is monolithic with a mid-loop checkpoint; "
                "resuming it partitioned would discard that progress"
            )
        if workers is not None and workers != record.workers:
            # Persist the override: later resumes must keep treating the
            # run as partitioned and reuse its shard checkpoints.
            self._store.set_run_workers(run_id, workers)
        return self._open(run_id, background=background, on_event=on_event)

    def _open(
        self,
        run_id: str,
        *,
        background: bool,
        on_event,
        delta: KBDelta | None = None,
    ) -> str:
        """Build a ledger run's session, register it, maybe schedule it.

        The session reads everything but ``delta`` and ``on_event`` from
        the run's ledger row and config, so the three lifecycle verbs
        write the ledger first and then all come through here.
        """
        session = MatchingSession(
            self._store.get_run(run_id),
            self._store.get_run_config(run_id),
            self._store,
            self._inputs,
            delta=delta,
            on_event=on_event,
        )
        with self._lock:
            self._sessions[run_id] = session
            if background:
                self._futures[run_id] = self._executor.submit(session.run)
        return run_id

    # ------------------------------------------------------------------
    # Stream (incremental) plumbing
    # ------------------------------------------------------------------
    def _stream_state_for(self, record: RunRecord) -> PreparedState:
        """The prepared state a finished stream run matched.

        Roots come from :meth:`prepared`; a post-delta state is looked
        up by its ledger fingerprint, in memory and (every
        ``FULL_STATE_EVERY`` steps) in the store.  On a miss this walks
        up the lineage to the nearest state either level holds, or to
        the root, and replays each later run's recorded delta.
        """
        config = self._store.get_run_config(record.run_id)
        digest = config_hash(config)
        replay: list[RunRecord] = []
        current = record
        state = None
        while current.parent_run_id is not None:
            if current.kb_fingerprint is None:
                raise ValueError(
                    f"run {current.run_id!r} predates the lineage migration; "
                    "its prepared state cannot be located"
                )
            state = self._cached((current.kb_fingerprint, digest))
            if state is not None:
                break
            replay.append(current)
            parent = self._store.get_run(current.parent_run_id)
            if parent is None:
                raise KeyError(f"unknown parent run {current.parent_run_id!r}")
            current = parent
        if state is None:
            state = self.prepared(current.dataset, current.seed, current.scale, config)
        for run in reversed(replay):
            prepared = self._splice(state, self._recorded_delta(run.run_id), config)
            if prepared.fingerprint != run.kb_fingerprint:
                raise ValueError(
                    f"replaying run {run.run_id!r}'s delta gave KB fingerprint "
                    f"{prepared.fingerprint}, but the run matched "
                    f"{run.kb_fingerprint}"
                )
            self._keep_stream_state(run.stream_step, prepared.state)
            state = prepared.state
        if replay:
            obs.count("stream.state.replayed", len(replay))
        return state

    def _keep_stream_state(self, step: int, state: PreparedState) -> None:
        """Cache a post-delta state; store it every ``FULL_STATE_EVERY`` steps."""
        key = state.substrate_key
        if step % FULL_STATE_EVERY == 0:
            self._store.save_prepared(key, state)
        with self._lock:
            self._memory_cache.put(key, state)

    def _splice(
        self, parent_state: PreparedState, delta: KBDelta, config: RempConfig | None
    ) -> IncrementalPrepared:
        """Apply ``delta`` to ``parent_state``: the one post-delta splice.

        The splice runs inside the parent's arena so it reuses the
        parent's literal scorers; the spliced state then attaches to its
        own (derived) arena under the post-delta fingerprint.  Both a
        new update and a lineage replay come through here.
        """
        parent_arena = self._substrate.get_or_create(parent_state.substrate_key)
        with parent_arena.activation():
            # The fingerprint guard already ran in update(); a replay
            # checks the spliced fingerprint against the ledger instead.
            prepared = incremental_prepare(
                parent_state, delta, config, check_fingerprint=False
            )
        child = self._substrate.derive(
            parent_arena, (prepared.fingerprint, config_hash(config))
        )
        child.attach(prepared.state)
        return prepared

    def _recorded_delta(self, run_id: str) -> KBDelta:
        delta_json = self._store.get_run_delta_json(run_id)
        if delta_json is None:
            raise ValueError(f"stream run {run_id!r} has no recorded delta")
        return KBDelta.from_doc(json.loads(delta_json))

    def _inputs(self, session: MatchingSession) -> tuple:
        """``(state, dirty, reuse, truth)``: every session's one input path.

        A run without a parent gets its dataset's prepared state and
        gold, with no dirty set and nothing to reuse.  A stream update
        splices its delta into its parent's state and reuses the
        parent's unit records.  Either way the ledger records the
        KB-pair fingerprint the run matched.  Pure given the ledger: a
        resumed run recomputes the inputs the interrupted one saw.
        """
        record = session.record
        if record.parent_run_id is None:
            state = self.prepared(
                record.dataset, record.seed, record.scale, session.config
            )
            self._store.set_run_fingerprint(record.run_id, state.substrate_key[0])
            return state, None, None, self.truth(record.run_id)

        parent = self._store.get_run(record.parent_run_id)
        if parent is None:
            raise KeyError(f"unknown parent run {record.parent_run_id!r}")
        parent_state = self._stream_state_for(parent)
        # A resumed session replays the recorded delta.
        delta = session.delta
        if delta is None:
            delta = self._recorded_delta(record.run_id)
        prepared = self._splice(parent_state, delta, session.config)
        self._store.set_run_fingerprint(record.run_id, prepared.fingerprint)
        self._keep_stream_state(record.stream_step, prepared.state)
        reuse = {
            key: unit_record_from_doc(doc)
            for key, doc in self._store.load_unit_record_docs(
                record.parent_run_id
            ).items()
        }
        return prepared.state, prepared.changed, reuse, self.truth(record.run_id)

    def truth(self, run_id: str) -> set:
        """The simulation gold standard of a run's KB pair.

        The lineage root's dataset gold, folded through every later
        delta's ``gold_add``/``gold_remove``.  A run without a parent is
        its own root, so it gets its dataset's gold.
        """
        chain = self._store.lineage(run_id)
        if not chain:
            raise KeyError(f"unknown run {run_id!r}")
        root = chain[0]
        bundle = load_dataset(root.dataset, seed=root.seed, scale=root.scale)
        truth = set(bundle.gold_matches)
        for record in chain[1:]:
            delta_json = self._store.get_run_delta_json(record.run_id)
            if delta_json is not None:
                truth = KBDelta.from_doc(json.loads(delta_json)).apply_gold(truth)
        return truth

    def stream_outcome(self, run_id: str):
        """The live session's :class:`repro.stream.StreamOutcome`, if any."""
        with self._lock:
            session = self._sessions.get(run_id)
        return session.stream_outcome if session is not None else None

    def _session(self, run_id: str) -> MatchingSession:
        with self._lock:
            session = self._sessions.get(run_id)
        if session is None:
            raise KeyError(f"no live session for run {run_id!r}; use resume()")
        return session

    def step(self, run_id: str) -> bool:
        """Advance a foreground session one human–machine loop."""
        return self._session(run_id).step()

    def status(self, run_id: str) -> str:
        """Live session status, falling back to the ledger."""
        with self._lock:
            session = self._sessions.get(run_id)
        if session is not None:
            return session.status
        record = self._store.get_run(run_id)
        if record is None:
            raise KeyError(f"unknown run {run_id!r}")
        return record.status

    def result(self, run_id: str, timeout: float | None = None) -> RempResult:
        """The final result, driving or awaiting the session as needed.

        Background sessions are awaited; foreground sessions are stepped
        to completion in the calling thread; finished runs are read back
        from the ledger.
        """
        with self._lock:
            future = self._futures.get(run_id)
            session = self._sessions.get(run_id)
        if future is not None:
            return future.result(timeout=timeout)
        if session is not None:
            return session.run()
        stored = self._store.get_result(run_id)
        if stored is None:
            raise KeyError(f"run {run_id!r} has no stored result")
        return stored

    def wait_all(self, timeout: float | None = None) -> None:
        """Block until every background session has finished."""
        with self._lock:
            futures = list(self._futures.values())
        for future in futures:
            future.result(timeout=timeout)

    def list_runs(self, dataset: str | None = None) -> list[RunRecord]:
        return self._store.list_runs(dataset)
