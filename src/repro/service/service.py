"""The concurrent matching service.

:class:`MatchingService` multiplexes many Remp human–machine loops over
one :class:`repro.store.RunStore`:

* ``prepare()`` work is deduplicated through a size-capped in-process
  LRU of arenas (:class:`repro.substrate.SubstrateCache`) keyed by
  content: :func:`repro.substrate.substrate_key`, the KB pair's
  fingerprint plus the config hash.  A key's arena holds its prepared
  state next to its literal-interning scorers.  Nothing is persisted: a
  prepared state is a function of its KB pair, and ``Remp.prepare``
  rebuilds it about as fast as a stored copy loads.  One lock per key
  (pruned when its compute finishes) makes concurrent submissions on
  the same KB pair compute the offline stages exactly once while every
  other session blocks until the artifact is ready.  Computes run
  inside the key's arena, so sessions on the same KB pair share one
  literal-interning arena.
* Each submitted run becomes a :class:`MatchingSession` with an explicit
  ``submit / step / status / result`` lifecycle.  ``submit``, ``update``
  and ``resume`` write the run's ledger row first, and the session is
  built from that row.  Background sessions run on a thread pool;
  foreground sessions are advanced by calling
  :meth:`MatchingService.step` one human–machine loop at a time.  A
  session's run scope appends its progress events to the store's
  ``run_events`` table, so another process can watch the run live.
* Every labeling round appends its checkpoint delta to the run's journal
  in the store, so a killed process (or a failed session) resumes
  mid-loop via :meth:`MatchingService.resume` from the folded journal,
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
  (parent run, delta, KB fingerprint) in the ledger.  A parent state the
  LRU no longer holds is rebuilt from that lineage with one prepare.
* A finished session is released once the store holds what it made: a
  non-stream run's at once, a stream run's when a child update
  finishes.  So the service keeps the unit records of lineage tips
  only; an update from any other run loads its parent's records from
  the store, and a released run's status and result come from the
  ledger.
"""

from __future__ import annotations

import json
import threading
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

from repro.core import Remp, RempConfig
from repro.core.pipeline import LoopDriver, PreparedState, RempResult
from repro.datasets import load_dataset
from repro.obs import runtime as obs
from repro.obs.artifacts import run_meta
from repro.obs.logging import get_logger
from repro.partition import (
    CrowdSpec,
    ParallelRunner,
    PartialResult,
    unit_record_from_doc,
)
from repro.store import RunStore, config_hash
from repro.store.store import RunRecord
from repro.stream import (
    DeltaConflictError,
    IncrementalPrepared,
    KBDelta,
    StreamRunner,
    compose_deltas,
    incremental_prepare,
    kb_pair_fingerprint,
)
from repro.substrate import PrepareSubstrate, SubstrateCache, substrate_key

Pair = tuple[str, str]

log = get_logger("service")

#: Session lifecycle states (mirrors the ledger's run statuses).
QUEUED = "queued"
PREPARING = "preparing"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


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
        #: (reuse/new-spend accounting, and its records are a child
        #: update's reuse input); ``None`` until the run finishes.
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

    def _finish(
        self, result: RempResult, cost_items: list[dict], outcome=None
    ) -> RempResult:
        """Record a finished run: ledger row, done event, obs document.

        ``cost_items`` itemise the billed questions (loop / shard /
        stream-unit scoped) and become the run's cost ledger, summing to
        the result's ``questions_asked`` exactly.  A stream run passes
        its ``outcome``, whose unit keys and origins
        :meth:`RunStore.finish_run` stores.  The document's
        timings are the scope's private registry: only stages that ran
        under this session's activations (plus shard deltas merged back
        from its own pool workers) — exact attribution, not a diff
        against the shared process-wide singleton.

        The session publishes its result and outcome only once
        ``finish_run`` has committed.  When it fails, the run stays
        unfinished, and a retry runs the finish again.
        """
        units = None
        if outcome is not None:
            units = {key: record.origin for key, record in outcome.records.items()}
        # ``result`` holds the driver's work.  A retry after a failed
        # ledger write restarts from the journal, as after a failed
        # checkpoint write in step().
        self._driver = None
        self._store.finish_run(self.run_id, result, units)
        self._result = result
        self.status = DONE
        self.stream_outcome = outcome
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
        if outcome is not None:
            ledger["questions_new"] = outcome.questions_new
        if ledger["total"] != result.questions_asked:  # pragma: no cover
            # Never expected; recorded rather than raised so a ledger
            # accounting bug can't fail an otherwise-finished run.
            ledger["mismatch"] = result.questions_asked - ledger["total"]
        doc["cost_ledger"] = ledger
        self._store.save_run_obs(self.run_id, doc)
        # The store now holds what the scope collected; the session keeps
        # only its result (and a stream outcome, which a child update
        # reuses).
        self._scope = obs.RunScope(
            self.run_id, stream_step=self.record.stream_step, store=self._store
        )
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
        """Advance one human–machine loop and journal its checkpoint delta.

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
            try:
                self._store.save_checkpoint(self.run_id, self._driver.checkpoint())
            except Exception:
                # The driver handed out this loop's delta and the store
                # lost it; continuing would leave a gap in the journal, so
                # the next step restarts from the journal instead.
                self._driver = None
                raise
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
        # no per-loop step(); and a shard's journal rows and finished unit
        # row carry a shard id and a unit key that a monolithic run lacks.
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
        Unit rows persist past ``finish_run``: they are what the *next*
        update reuses.  Each unit this run executed wrote its row when it
        finished; ``finish_run`` stores the run's result as its unit keys
        and writes each reused unit a reference to its origin's row.
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
            return self._finish(outcome.result, cost_items, outcome)

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
    ):
        self._store = store if isinstance(store, RunStore) else RunStore(store)
        self._owns_store = not isinstance(store, RunStore)
        self._default_error_rate = error_rate
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="remp-session"
        )
        self._sessions: dict[str, MatchingSession] = {}
        self._futures: dict[str, Future] = {}
        #: The prepared-state LRU: one arena per content key, holding its
        #: state and scorers, size-capped at ``memory_cache_size``.
        self._arenas = SubstrateCache(memory_cache_size)
        #: Per-key compute locks; pruned as computes finish, so the dict
        #: size is bounded by the number of *in-flight* prepares.
        self._key_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        #: Prepared-state cache accounting (LRU hits vs. computes).
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    @property
    def store(self) -> RunStore:
        return self._store

    @property
    def cache_evictions(self) -> int:
        return self._arenas.evictions

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
        generator misses instead of being served a stale state.
        """
        bundle = load_dataset(dataset, seed=seed, scale=scale)
        key = substrate_key(bundle.kb1, bundle.kb2, config)
        return self._prepared(key, bundle.kb1, bundle.kb2, config)

    def _prepared(
        self, key: tuple[str, str], kb1, kb2, config: RempConfig | None
    ) -> PreparedState:
        """The state of content key ``key``: its arena's, else one prepare.

        A miss runs ``Remp.prepare`` on ``kb1``/``kb2`` under a per-key
        lock, so concurrent sessions asking for the same key wait for the
        one computation instead of repeating it.  The compute runs inside
        the key's arena (:mod:`repro.substrate`), which then holds the
        state, so concurrent sessions on the same KB pair share one
        literal-interning arena.  Roots and rebuilt stream parents both
        come through here.
        """
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        try:
            with key_lock:
                arena, state = self._cached(key)
                if state is not None:
                    return state
                with arena.activation():
                    state = Remp(config or RempConfig()).prepare(kb1, kb2)
                arena.attach(state)
                with self._lock:
                    self.cache_misses += 1
                obs.count("prepared.cache.misses")
                log.info("prepared state computed for %s", key)
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

    def _cached(
        self, key: tuple[str, str]
    ) -> tuple[PrepareSubstrate, PreparedState | None]:
        """The arena of ``key`` and its state; a held state counts as a hit.

        An arena without a state (its compute failed, or a lookup
        created it) is a miss.
        """
        arena = self._arenas.get_or_create(key)
        state = arena.state
        if state is not None:
            with self._lock:
                self.cache_hits += 1
            obs.count("prepared.cache.hits")
        return arena, state

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
                self._futures[run_id] = self._executor.submit(self._run, session)
        return run_id

    def _run(self, session: MatchingSession) -> RempResult:
        """Drive ``session`` to its result, then release what is finished.

        A finished non-stream run drops its session and future, and a
        finished update drops its parent's: their results stay in the
        ledger, where :meth:`status` and :meth:`result` read them.  A
        stream run stays until a child update finishes, because it is its
        lineage's tip; a later update from a released run loads its unit
        rows from the store, as a fresh service does.  A failed run
        raises first and keeps its session, and a failed or interrupted
        update keeps its parent, so its resume reuses the parent's
        records from memory.
        """
        result = session.run()
        record = session.record
        released = record.parent_run_id if record.streaming else record.run_id
        if released is not None:
            with self._lock:
                self._sessions.pop(released, None)
                self._futures.pop(released, None)
        return result

    # ------------------------------------------------------------------
    # Stream (incremental) plumbing
    # ------------------------------------------------------------------
    def _stream_state_for(self, record: RunRecord) -> PreparedState:
        """The prepared state a finished stream run matched.

        Roots come from :meth:`prepared`.  A post-delta state comes from
        its arena under the run's ledger fingerprint, counted as a hit
        like a root's; on a miss it is rebuilt the way a root is built: the
        lineage's recorded deltas are folded into the root's KBs, the
        folded pair must carry that fingerprint, and it is prepared once,
        counted as a miss.  A spliced state equals a from-scratch prepare
        of its KB pair, so the rebuild is exact at any lineage depth.
        """
        config = self._store.get_run_config(record.run_id)
        if record.parent_run_id is None:
            return self.prepared(record.dataset, record.seed, record.scale, config)
        if record.kb_fingerprint is None:
            raise ValueError(
                f"run {record.run_id!r} predates the lineage migration; "
                "its prepared state cannot be located"
            )
        key = (record.kb_fingerprint, config_hash(config))
        _, state = self._cached(key)
        if state is not None:
            return state
        root, deltas = self._lineage(record.run_id)
        bundle = load_dataset(root.dataset, seed=root.seed, scale=root.scale)
        kb1, kb2 = compose_deltas(deltas).apply(
            bundle.kb1, bundle.kb2, check_fingerprint=False
        )
        fingerprint = kb_pair_fingerprint(kb1, kb2)
        if fingerprint != record.kb_fingerprint:
            raise ValueError(
                f"folding the recorded deltas up to run {record.run_id!r} gave "
                f"KB fingerprint {fingerprint}, but the run matched "
                f"{record.kb_fingerprint}"
            )
        return self._prepared(key, kb1, kb2, config)

    def _splice(
        self, parent_state: PreparedState, delta: KBDelta, config: RempConfig | None
    ) -> IncrementalPrepared:
        """Apply ``delta`` to ``parent_state``: the one post-delta splice.

        The splice runs inside the parent's arena so it reuses the
        parent's literal scorers; the spliced state then attaches to its
        own (derived) arena under the post-delta fingerprint, which holds
        it from then on.
        """
        parent_arena = self._arenas.get_or_create(parent_state.substrate_key)
        with parent_arena.activation():
            # The fingerprint guard already ran in update(), against the
            # parent's ledger fingerprint; a resume replays the same delta.
            prepared = incremental_prepare(
                parent_state, delta, config, check_fingerprint=False
            )
        child = self._arenas.derive(
            parent_arena, (prepared.fingerprint, config_hash(config))
        )
        child.attach(prepared.state)
        return prepared

    def _recorded_delta(self, run_id: str) -> KBDelta:
        delta_json = self._store.get_run_delta_json(run_id)
        if delta_json is None:
            raise ValueError(f"stream run {run_id!r} has no recorded delta")
        return KBDelta.from_doc(json.loads(delta_json))

    def _lineage(self, run_id: str) -> tuple[RunRecord, list[KBDelta]]:
        """A run's lineage root and the deltas recorded after it, in order.

        One walk of the ledger.  Every run after the root must carry the
        delta it applied.
        """
        chain = self._store.lineage(run_id)
        if not chain:
            raise KeyError(f"unknown run {run_id!r}")
        root = chain[0]
        if root.parent_run_id is not None:
            raise KeyError(f"unknown parent run {root.parent_run_id!r}")
        return root, [self._recorded_delta(record.run_id) for record in chain[1:]]

    def _inputs(self, session: MatchingSession) -> tuple:
        """``(state, dirty, reuse, truth)``: every session's one input path.

        A run without a parent gets its dataset's prepared state and
        gold, with no dirty set and nothing to reuse.  A stream update
        splices its delta into its parent's state and reuses the
        parent's unit records: the ones the parent's finished session in
        this service holds, shared and never copied, or else the
        parent's rows loaded from the store (a CLI ``update`` or ``run
        --since``, a resume in a fresh process, or an update from a run
        a finished child released).  Either way the
        ledger records the KB-pair fingerprint the run matched.  Pure
        given the ledger: a resumed run recomputes the inputs the
        interrupted one saw.
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
        outcome = self.stream_outcome(parent.run_id)
        if outcome is not None:
            reuse = outcome.records
        else:
            reuse = {
                key: unit_record_from_doc(doc)
                for key, doc in self._store.load_unit_record_docs(parent.run_id).items()
            }
        return prepared.state, prepared.changed, reuse, self.truth(record.run_id)

    def truth(self, run_id: str) -> set:
        """The simulation gold standard of a run's KB pair.

        The lineage root's dataset gold, folded through every later
        delta's ``gold_add``/``gold_remove``.  A run without a parent is
        its own root, so it gets its dataset's gold.
        """
        root, deltas = self._lineage(run_id)
        bundle = load_dataset(root.dataset, seed=root.seed, scale=root.scale)
        truth = set(bundle.gold_matches)
        for delta in deltas:
            truth = delta.apply_gold(truth)
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
            return self._run(session)
        stored = self._store.get_result(run_id)
        if stored is None:
            raise KeyError(f"run {run_id!r} has no stored result")
        return stored

    def list_runs(self, dataset: str | None = None) -> list[RunRecord]:
        return self._store.list_runs(dataset)
