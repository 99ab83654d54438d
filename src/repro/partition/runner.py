"""Parallel execution of a partitioned Remp run.

:class:`ParallelRunner` executes a :class:`~repro.partition.partitioner.PartitionPlan`
in two phases:

1. **Graph shards** run the full human–machine loop concurrently on a
   ``multiprocessing`` pool (or inline for ``workers=1``).  Each shard
   gets a :class:`CrowdPlatform` derived deterministically from
   ``(seed, shard_id)`` and a slice of the question budget, so its
   execution is a pure function of the shard — independent of pool size
   or scheduling order.
2. **Isolated shards** classify the propagation-unreachable pairs against
   the *merged* phase-1 resolutions — the same training data the
   monolithic isolated-pair classifier sees.

A deterministic merger reassembles the shard results into one
:class:`RempResult`; because shard executions are order-independent, the
merged result is identical for every worker count.  With a
:class:`repro.store.RunStore` attached, every labeling round appends its
delta to a journal under a partition-aware key ``(run_id, shard_id)``
and a finished shard writes its unit row in place of its journal, so a
killed run resumes shard-by-shard without re-asking a single question.

Lifecycle events (started / checkpointed / finished / restored / failed,
with loop and question counts) stream to an ``on_event`` callback — the
CLI renders them as a live per-partition status line.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

from repro import faults
from repro.core.config import RempConfig
from repro.obs import runtime as obs
from repro.obs.logging import get_logger
from repro.core.pipeline import (
    LoopCheckpoint,
    LoopDriver,
    PreparedState,
    Remp,
    RempResult,
    fold_checkpoints,
    merge_loop_snapshots,
    merge_shard_results,
)
from repro.crowd.interfaces import CrowdUnavailableError
from repro.crowd.platform import CrowdPlatform
from repro.partition.partitioner import (
    DEFAULT_TARGET_SHARDS,
    GRAPH,
    PartitionPlan,
    Shard,
    partition_state,
)
from repro.store.serialize import result_from_doc

Pair = tuple[str, str]

log = get_logger("partition")


class PartialResult(RuntimeError):
    """A degraded partitioned run: some shards were quarantined.

    Raised instead of a blanket ``RuntimeError`` when one or more poison
    shards exhausted their retry budget while the remaining shards
    completed.  ``result`` merges every healthy shard's outcome;
    ``quarantined`` lists one dict per abandoned shard (``shard_id``,
    ``kind``, ``attempts``, ``error``).  Being a ``RuntimeError`` keeps
    callers that only catch the blanket failure working unchanged.
    """

    def __init__(self, result: "RempResult", quarantined: list[dict]):
        ids = ", ".join(str(entry["shard_id"]) for entry in quarantined)
        super().__init__(
            f"partitioned run degraded: {len(quarantined)} shard(s)"
            f" quarantined after retries: [{ids}]"
        )
        self.result = result
        self.quarantined = quarantined


def unit_content_key(vertices) -> str:
    """Content identity of a shard: a digest of its sorted vertex list.

    Positional shard ids shift whenever the partition layout does; the
    content key survives any layout change that leaves the shard's
    vertex set intact, which is what lets :mod:`repro.stream` match a
    clean shard against a record from an earlier run of a *different*
    prepared state.
    """
    blob = "\x1e".join(f"{left}\x1f{right}" for left, right in sorted(vertices))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def content_seed(seed: int, key: str) -> int:
    """Stable 63-bit seed derived from the run seed and a key.

    The key is a shard's content key (stream units) or its positional
    id as a string (partitioned runs).
    """
    blob = f"{seed}\x1f{key}".encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big") >> 1


@dataclass(slots=True)
class CrowdSpec:
    """A picklable recipe for building crowd platforms.

    Shard workers run in separate processes, so they receive the *recipe*
    for a platform rather than the platform itself; :meth:`build` derives
    the worker-assignment seed from ``(seed, shard_id)``.  An
    ``error_rate`` of 0 yields a perfect oracle.
    """

    truth: set[Pair]
    error_rate: float = 0.0
    seed: int = 0
    num_workers: int = 50
    workers_per_question: int = 5

    def build(self, shard_id: int) -> CrowdPlatform:
        return self.build_seeded(content_seed(self.seed, str(shard_id)))

    def build_seeded(self, platform_seed: int) -> CrowdPlatform:
        """The platform for a pre-derived platform seed.

        Used directly by monolithic runs (seeded with the run seed) and by
        the stream layer, whose per-unit seeds derive from shard *content*
        rather than position so they survive layout changes.
        """
        if self.error_rate <= 0.0:
            return CrowdPlatform.with_oracle(set(self.truth))
        return CrowdPlatform.with_simulated_workers(
            set(self.truth),
            num_workers=self.num_workers,
            error_rate=self.error_rate,
            workers_per_question=self.workers_per_question,
            seed=platform_seed,
        )


@dataclass(slots=True)
class ShardEvent:
    """One lifecycle/progress notification from a shard execution."""

    shard_id: int
    #: "started" | "checkpointed" | "finished" | "restored" | "failed"
    #: | "retried" | "quarantined"
    kind: str
    phase: str  # "graph" | "isolated"
    pairs: int = 0
    loops: int = 0
    questions: int = 0
    matches: int = 0
    #: Execution attempt the event belongs to (retry/quarantine kinds).
    attempt: int = 0


def split_budget(total: int | None, weights: list[int]) -> list[int | None]:
    """Largest-remainder split of a question budget across graph shards.

    Proportional to each shard's pair count; every unit of a finite
    budget is handed to exactly one shard.  ``None`` (unlimited) passes
    through unchanged.
    """
    if total is None:
        return [None] * len(weights)
    if not weights:
        return []
    weight_sum = sum(weights) or len(weights)
    exact = [total * w / weight_sum for w in weights]
    floors = [int(x) for x in exact]
    remainder = total - sum(floors)
    by_fraction = sorted(
        range(len(weights)), key=lambda i: (floors[i] - exact[i], i)
    )
    for index in by_fraction[:remainder]:
        floors[index] += 1
    return floors


@dataclass(slots=True)
class _ShardTask:
    """Everything a worker process needs to execute one shard."""

    shard: Shard
    config: RempConfig
    strategy: str
    seed: int
    checkpoint: LoopCheckpoint | None = None
    #: The graph shards' merged ``(priors, resolution sets)``
    #: (:func:`merge_loop_snapshots`); isolated shards only.
    merged_state: tuple | None = None
    #: The classifier's read-only forest memo: on a stream update, the
    #: forests of the parent's isolated unit; isolated shards only.
    forests: dict = field(default_factory=dict)
    #: Content-derived seed overrides (stream mode); ``None`` falls back
    #: to the positional ``content_seed(seed, str(shard_id))`` derivation.
    remp_seed: int | None = None
    platform_seed: int | None = None
    #: Restrict the slice's candidate set to the shard's entities.
    localize: bool = False
    #: Execution attempt, bumped by the supervisor on every requeue.  The
    #: fault plane's ``where`` filters key on it, so cross-process rules
    #: stay deterministic even though spawn workers hold fresh counters.
    attempt: int = 0


@dataclass(slots=True)
class _ShardOutcome:
    """A finished shard: its partial result, loop snapshot and answer log."""

    shard_id: int
    kind: str
    result: RempResult
    snapshot: dict = field(default_factory=dict)
    answer_log: list = field(default_factory=list)
    #: The export of the shard's worker-side run scope: its timings,
    #: spans and metrics (pool workers only — inline execution records
    #: straight into the session scope).  The parent absorbs it in
    #: ``_finish_shard``.
    telemetry: dict | None = None
    #: The forests an isolated shard's classifier used, by content key.
    forests: dict = field(default_factory=dict)


@dataclass(slots=True)
class UnitRecord:
    """One shard's durable outcome, addressed by content key.

    The stream layer persists these per run; a later incremental run
    reuses a record verbatim when the shard's content key still matches
    and none of its pairs are dirty.  ``answer_log`` carries the crowd
    labels the shard collected, so new-spend accounting can tell a
    replayed question from a genuinely new one.

    ``origin`` names the run that executed the unit, whose store row
    holds the payload: the building run for a unit it executed (or
    restored from its own unit row on resume), the reused record's
    origin for a reused one.  A store writes a unit whose origin is
    another run as a reference to that run's row.  Records are shared
    between runs, never mutated.

    ``forests`` holds the forests an executed isolated unit's classifier
    used, which the next update's classifier takes as its memo.  It
    lives in memory only: no store row carries it, so a record loaded
    from the store has none and the next update fits afresh.
    """

    key: str
    kind: str
    result: RempResult
    snapshot: dict = field(default_factory=dict)
    answer_log: list = field(default_factory=list)
    origin: str | None = None
    forests: dict = field(default_factory=dict, compare=False, repr=False)


def unit_record_from_doc(doc: dict) -> UnitRecord:
    """A :class:`UnitRecord` from a unit row document of the store."""
    return UnitRecord(
        key=doc["key"],
        kind=doc["kind"],
        result=result_from_doc(doc["result"]),
        snapshot=doc["snapshot"],
        answer_log=doc["answer_log"],
        origin=doc["origin"],
    )


def _execute_shard(
    task: _ShardTask, base_state: PreparedState, crowd: CrowdSpec, emit
) -> _ShardOutcome:
    """Run one shard to completion (worker-process entry point).

    ``base_state`` and ``crowd`` are shared by every shard of a run —
    inherited by worker processes at fork time (or pickled once per
    worker under spawn) rather than shipped per task, so a queued task
    costs only its vertex list.  ``emit`` receives
    ``("event", ShardEvent)`` and, after each labeling round,
    ``("checkpoint", shard_id, LoopCheckpoint)`` messages carrying that
    round's delta; the parent persists the deltas so children never
    touch the store.
    """
    shard = task.shard
    with obs.timed(
        "shard.execute", shard=shard.shard_id, phase=shard.kind, pairs=shard.num_pairs
    ):
        return _run_shard(task, base_state, crowd, emit)


def _run_shard(
    task: _ShardTask, base_state: PreparedState, crowd: CrowdSpec, emit
) -> _ShardOutcome:
    shard = task.shard
    phase = shard.kind
    shard_state = shard.slice(base_state, localize=task.localize)
    remp_seed = (
        task.remp_seed
        if task.remp_seed is not None
        else content_seed(task.seed, str(shard.shard_id))
    )
    remp = Remp(task.config, seed=remp_seed)
    platform = (
        crowd.build_seeded(task.platform_seed)
        if task.platform_seed is not None
        else crowd.build(shard.shard_id)
    )
    emit(
        (
            "event",
            ShardEvent(shard.shard_id, "started", phase, pairs=shard.num_pairs),
        )
    )
    if shard.kind == GRAPH:

        def on_checkpoint(checkpoint: LoopCheckpoint) -> None:
            # Probe BEFORE the checkpoint ships: a mid-shard kill here
            # loses the round, and the retry must reproduce it exactly
            # from the previous checkpoint (labels are a pure function
            # of the platform seed, so it does).
            faults.check(
                "worker.mid_shard",
                shard_id=shard.shard_id,
                attempt=task.attempt,
                loop=checkpoint.next_loop_index,
            )
            emit(("checkpoint", shard.shard_id, checkpoint))
            emit(
                (
                    "event",
                    ShardEvent(
                        shard.shard_id,
                        "checkpointed",
                        phase,
                        pairs=shard.num_pairs,
                        loops=checkpoint.next_loop_index,
                        questions=checkpoint.questions_asked,
                    ),
                )
            )

        driver = LoopDriver(remp, shard_state, platform, task.strategy, task.checkpoint)
        driver.run(on_checkpoint)
        # A graph slice carries no isolated pairs, so the finish's
        # classifier has nothing to do; phase 2 classifies them.
        result = driver.finish()
        outcome = _ShardOutcome(
            shard.shard_id,
            shard.kind,
            result,
            driver.loop_state.snapshot(),
            answer_log=platform.export_answer_log(),
        )
    else:
        # Classifier-only shard: restore the merged phase-1 resolutions
        # and let the monolithic isolated-pair path do the rest.  The
        # shard result carries only the *delta* this shard produced.
        loop_state = remp._make_loop_state(shard_state)
        loop_state.restore(*task.merged_state)
        base_labeled = set(loop_state.labeled_matches)
        base_non_matches = set(loop_state.resolved_non_matches)
        isolated_matches, forests = remp._classify_isolated(
            shard_state, loop_state, platform, task.forests
        )
        labeled_delta = loop_state.labeled_matches - base_labeled
        result = RempResult(
            matches=labeled_delta | isolated_matches,
            questions_asked=platform.questions_asked,
            num_loops=0,
            labeled_matches=labeled_delta,
            isolated_matches=isolated_matches,
            non_matches=loop_state.resolved_non_matches - base_non_matches,
        )
        outcome = _ShardOutcome(
            shard.shard_id,
            shard.kind,
            result,
            answer_log=platform.export_answer_log(),
            forests=forests,
        )
    emit(
        (
            "event",
            ShardEvent(
                shard.shard_id,
                "finished",
                phase,
                pairs=shard.num_pairs,
                loops=result.num_loops,
                questions=result.questions_asked,
                matches=len(result.matches),
            ),
        )
    )
    return outcome


def _worker_main(base_state, crowd, conn, worker_index=0) -> None:
    """Pool worker: execute assigned shard tasks until the ``None`` sentinel.

    ``base_state`` and ``crowd`` arrive through the process arguments:
    free under the ``fork`` start method (copy-on-write memory), pickled
    once per worker — never once per shard — under ``spawn``.

    ``conn`` is this worker's *private* duplex pipe to the supervisor.
    A per-worker pipe — instead of one shared event queue — is what
    makes the pool kill-safe: a shared ``multiprocessing.Queue`` guards
    its write end with a cross-process lock, so a worker SIGKILLed while
    its feeder thread holds that lock wedges every other worker's sends
    forever.  Here each pipe has exactly one writer, writing
    synchronously from the worker's only thread, so a kill can never
    strand a lock — the supervisor just sees a dead process and a closed
    pipe.
    """
    try:
        faults.check("worker.start", worker=worker_index)
    except faults.InjectedFault:
        # An injected startup failure: die quietly with a nonzero exit
        # code, exactly like a worker whose interpreter never came up.
        sys.exit(1)
    # The readiness handshake: the supervisor assigns tasks only to
    # workers that survived startup, so a stillborn worker never burns a
    # shard's retry budget.
    conn.send(("ready", worker_index))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return  # supervisor vanished; nothing sane left to do
        if task is None:
            return
        try:
            # A per-task run scope gives exact attribution: the worker's
            # stages/spans/metrics land in the scope's private buffers
            # (stamped with the shard id) and ship back with the outcome.
            scope = obs.RunScope(shard_id=task.shard.shard_id)
            with scope.activate():
                outcome = _execute_shard(task, base_state, crowd, conn.send)
            outcome.telemetry = scope.export()
            conn.send(("done", task.shard.shard_id, outcome))
        except Exception:
            conn.send(("error", task.shard.shard_id, traceback.format_exc()))


@dataclass(slots=True)
class _PoolWorker:
    """The supervisor's view of one pool worker."""

    process: object
    conn: object  # parent end of the worker's private pipe
    index: int
    #: Task currently assigned to this worker (``None`` = idle).  The
    #: supervisor — not the worker — is the source of truth for what to
    #: requeue when the process dies.
    task: _ShardTask | None = None
    #: Whether the readiness handshake arrived (assignable).
    ready: bool = False


class ParallelRunner:
    """Partition a prepared state and run its shards on a worker pool.

    Parameters
    ----------
    config, seed, strategy:
        Forwarded to the per-shard :class:`Remp` instances (each shard's
        effective seed is derived from ``(seed, shard_id)``).
    workers:
        Pool size.  ``1`` executes shards inline in deterministic order —
        the reference semantics every pool size must reproduce.
    max_shard_size, target_shards:
        Partition parameters (see :func:`partition_state`).  Independent
        of ``workers`` by design.
    store, run_id:
        Optional :class:`repro.store.RunStore` (or compatible) plus run
        id; enables per-shard checkpointing and :meth:`run` resume.  The
        runner calls exactly three store methods: ``load_shard_records``
        once per run, ``save_shard_checkpoint`` after every labeling
        round of a graph shard and ``save_shard_result`` once per
        executed shard, which writes the shard's unit row under its unit
        key (:meth:`_shard_keys`).  A resumed run restores a finished
        shard from that row, by the same key.  A shard reused from
        ``reuse`` writes nothing.
    on_event:
        Callback receiving every :class:`ShardEvent`.
    stream:
        Stream mode (:mod:`repro.stream`): each graph shard's candidate
        set is restricted to its own entities, per-shard Remp and crowd
        seeds derive from the shard's unit key instead of its positional
        id, and :attr:`unit_records` collects every shard's durable
        outcome.
    dirty, reuse:
        Stream mode only.  ``dirty`` (a pair set) plus ``reuse`` (a
        unit-keyed :class:`UnitRecord` map from a previous run) let
        clean shards restore a recorded outcome instead of executing.
        The isolated shard always executes, with the forests of the
        previous run's isolated record as its classifier's memo.
    """

    def __init__(
        self,
        config: RempConfig | None = None,
        *,
        seed: int = 0,
        workers: int = 1,
        strategy: str = "remp",
        max_shard_size: int | None = None,
        target_shards: int = DEFAULT_TARGET_SHARDS,
        store=None,
        run_id: str | None = None,
        on_event=None,
        stream: bool = False,
        dirty: set[Pair] | None = None,
        reuse: dict[str, UnitRecord] | None = None,
        max_shard_retries: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if store is not None and run_id is None:
            raise ValueError("run_id is required when a store is attached")
        if (dirty is not None or reuse) and not stream:
            raise ValueError(
                "dirty/reuse require stream: positional seeds change "
                "with the layout, so a reused record would not match"
            )
        self.config = config or RempConfig()
        self.seed = seed
        self.workers = workers
        self.strategy = strategy
        self.max_shard_size = max_shard_size
        self.target_shards = target_shards
        self._store = store
        self._run_id = run_id
        self._on_event = on_event
        self._stream = stream
        self._dirty = dirty
        self._reuse = reuse or {}
        #: Unit keys of the last :meth:`run`'s shards, by shard id.
        self._keys: dict[int, str] = {}
        #: Unit-keyed durable outcomes of the last :meth:`run` (stream
        #: mode only).
        self.unit_records: dict[str, UnitRecord] = {}
        #: Content keys restored from ``reuse`` during the last run.
        self.reused_keys: set[str] = set()
        #: Per-shard billing items from the last :meth:`run` — the
        #: service's cost ledger for partitioned runs.  Shards ask about
        #: disjoint pair sets, so the item questions sum to the merged
        #: result's ``questions_asked`` exactly.
        self.shard_costs: list[dict] = []
        #: How often a failing shard is requeued before quarantine.
        self.max_shard_retries = (
            max_shard_retries
            if max_shard_retries is not None
            else max(0, int(os.environ.get("REPRO_SHARD_RETRIES", "2")))
        )
        #: Quarantine records of the last :meth:`run` (poison shards).
        self.quarantined: list[dict] = []
        #: Deltas received per shard since its task's checkpoint; a
        #: requeue folds them onto it to get the resume point.
        self._shard_deltas: dict[int, list[LoopCheckpoint]] = {}
        self._backoff_rng = random.Random(0xFA17)  # never the global RNG

    # ------------------------------------------------------------------
    def plan(self, state: PreparedState) -> PartitionPlan:
        """The deterministic shard layout for ``state``."""
        return partition_state(
            state,
            max_shard_size=self.max_shard_size,
            target_shards=self.target_shards,
        )

    def run(self, state: PreparedState, crowd: CrowdSpec) -> RempResult:
        """Execute the partitioned pipeline and merge the shard results."""
        with obs.timed("partition.plan"):
            plan = self.plan(state)
        units, journals = (
            self._store.load_shard_records(self._run_id)
            if self._store is not None
            else ({}, {})
        )
        outcomes: dict[int, _ShardOutcome] = {}
        self.unit_records = {}
        self.reused_keys = set()
        self.shard_costs = []
        self.quarantined = []
        self._shard_deltas = {}
        self._keys = keys = self._shard_keys(plan)
        obs.gauge("partition.shards", len(plan.shards))
        log.info(
            "partition plan: %d graph + %d isolated shards, workers=%d",
            len(plan.graph_shards),
            len(plan.isolated_shards),
            self.workers,
        )

        graph_shards = plan.graph_shards
        # Weight by loop pairs: rider isolated pairs can never consume a
        # question, so they must not attract budget either.
        budgets = split_budget(
            self.config.budget, [shard.num_loop_pairs for shard in graph_shards]
        )
        tasks: list[_ShardTask] = []
        for shard, budget in zip(graph_shards, budgets):
            key = keys[shard.shard_id]
            if self._reuse_outcome(shard, key, outcomes):
                continue
            if self._restore_outcome(shard, units.get(key), outcomes):
                continue
            task = self._make_task(shard, replace(self.config, budget=budget), key)
            task.checkpoint = journals.get(shard.shard_id)
            tasks.append(task)
        self._execute(tasks, state, crowd, outcomes)
        if self.quarantined:
            # A quarantined graph shard means the merged state would
            # be missing training data — degrade now rather than let the
            # isolated phase classify against partial resolutions.
            self._raise_partial(outcomes)

        merged_state = merge_loop_snapshots(
            state,
            [
                outcomes[shard.shard_id].snapshot
                for shard in graph_shards
                if shard.shard_id in outcomes
            ],
        )
        isolated_tasks: list[_ShardTask] = []
        for shard in plan.isolated_shards:
            key = keys[shard.shard_id]
            if not self._restore_outcome(shard, units.get(key), outcomes):
                task = self._make_task(shard, self.config, key)
                task.merged_state = merged_state
                parent = self._reuse.get(key)
                if parent is not None:
                    task.forests = parent.forests
                isolated_tasks.append(task)
        self._execute(isolated_tasks, state, crowd, outcomes)
        if self.quarantined:
            self._raise_partial(outcomes)

        if self._stream:
            for shard in plan.shards:
                outcome = outcomes.get(shard.shard_id)
                if outcome is None:
                    continue
                key = keys[shard.shard_id]
                self.unit_records[key] = UnitRecord(
                    key=key,
                    kind=shard.kind,
                    result=outcome.result,
                    snapshot=outcome.snapshot,
                    answer_log=outcome.answer_log,
                    origin=(
                        self._reuse[key].origin
                        if key in self.reused_keys
                        else self._run_id
                    ),
                    forests=outcome.forests,
                )

        self.shard_costs = [
            {
                "scope": "shard",
                "key": str(shard_id),
                "kind": outcome.kind,
                "questions": outcome.result.questions_asked,
            }
            for shard_id, outcome in sorted(outcomes.items())
        ]
        return merge_shard_results(
            [(shard_id, outcome.result) for shard_id, outcome in outcomes.items()]
        )

    def _shard_keys(self, plan: PartitionPlan) -> dict[int, str]:
        """Unit keys per shard id: content keys, isolated shards by position."""
        keys: dict[int, str] = {}
        for shard in plan.graph_shards:
            keys[shard.shard_id] = unit_content_key(shard.vertices)
        for index, shard in enumerate(plan.isolated_shards):
            keys[shard.shard_id] = f"isolated\x1f{index}"
        return keys

    def _make_task(self, shard: Shard, config: RempConfig, key: str) -> _ShardTask:
        task = _ShardTask(
            shard=shard,
            config=config,
            strategy=self.strategy,
            seed=self.seed,
            localize=self._stream and shard.kind == GRAPH,
        )
        if self._stream:
            task.remp_seed = content_seed(self.seed, key)
            task.platform_seed = content_seed(self.seed, "crowd\x1f" + key)
        return task

    def _reuse_outcome(
        self, shard: Shard, key: str, outcomes: dict[int, _ShardOutcome]
    ) -> bool:
        """Restore a clean shard from a previous run's content-keyed record.

        A shard qualifies only when a dirty set was provided, none of its
        pairs are in it, and the reuse map holds its exact content key —
        equal key means equal vertex set, and a clean vertex set means an
        identical slice, so the recorded outcome is what execution would
        reproduce bit for bit.
        """
        if self._dirty is None:
            return False
        record = self._reuse.get(key)
        if record is None or self._dirty.intersection(shard.vertices):
            return False
        self.reused_keys.add(key)
        # By reference: no unit row and no ``run_events`` row.  A resumed
        # run re-derives the same reuse from the same parent records, and
        # the durable log counts reused units on ``stream.summary``.
        self._adopt_outcome(shard, record, outcomes, publish=False)
        return True

    def _restore_outcome(
        self, shard: Shard, doc: dict | None, outcomes: dict[int, _ShardOutcome]
    ) -> bool:
        """Take a finished shard from this run's unit row ``doc``, if any."""
        if doc is None:
            return False
        self._adopt_outcome(shard, unit_record_from_doc(doc), outcomes)
        return True

    def _adopt_outcome(
        self,
        shard: Shard,
        record: UnitRecord,
        outcomes: dict[int, _ShardOutcome],
        *,
        publish: bool = True,
    ) -> None:
        """Take a recorded outcome in place of execution; emits ``restored``."""
        result = record.result
        outcomes[shard.shard_id] = _ShardOutcome(
            shard.shard_id, shard.kind, result, record.snapshot, record.answer_log
        )
        self._emit(
            ShardEvent(
                shard.shard_id,
                "restored",
                shard.kind,
                pairs=shard.num_pairs,
                loops=result.num_loops,
                questions=result.questions_asked,
                matches=len(result.matches),
            ),
            publish=publish,
        )

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    def _execute(
        self,
        tasks: list[_ShardTask],
        state: PreparedState,
        crowd: CrowdSpec,
        outcomes: dict[int, _ShardOutcome],
    ) -> None:
        if not tasks:
            return
        if self.workers == 1 or len(tasks) == 1:
            self._execute_inline(tasks, state, crowd, outcomes)
            return
        self._execute_pool(tasks, state, crowd, outcomes)

    def _execute_inline(
        self,
        tasks: list[_ShardTask],
        state: PreparedState,
        crowd: CrowdSpec,
        outcomes: dict[int, _ShardOutcome],
    ) -> None:
        """Reference semantics, now with the same retry/quarantine loop.

        Only fault-plane failures (injected faults, an exhausted crowd)
        are retried — a raising ``on_event`` sink or store failure is a
        parent-side problem and propagates unchanged, mirroring the pool
        supervisor's split between worker errors and parent errors.
        """
        for task in tasks:
            while True:
                try:
                    outcome = _execute_shard(task, state, crowd, self._handle_message)
                except (faults.InjectedFault, CrowdUnavailableError) as exc:
                    if self._note_retry(task, f"{type(exc).__name__}: {exc}"):
                        continue
                    break
                self._finish_shard(outcome, outcomes)
                break

    def _execute_pool(
        self,
        tasks: list[_ShardTask],
        state: PreparedState,
        crowd: CrowdSpec,
        outcomes: dict[int, _ShardOutcome],
    ) -> None:
        # Prefer fork on Linux: the base state is inherited copy-on-write
        # instead of pickled, and our children touch only inherited data
        # plus the two queues.  Elsewhere (notably macOS, where fork is
        # advertised but unsafe) stay with the platform default — under
        # spawn the state is pickled once per worker via the process args.
        # REPRO_START_METHOD overrides the choice (tests pin ``spawn`` to
        # exercise the pickled transport on Linux).
        method = os.environ.get("REPRO_START_METHOD", "").strip().lower()
        if method:
            context = multiprocessing.get_context(method)
        elif sys.platform.startswith("linux") and (
            "fork" in multiprocessing.get_all_start_methods()
        ):
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context()
        workers: list[_PoolWorker] = []
        next_worker_index = 0

        def spawn_worker() -> None:
            nonlocal next_worker_index
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(state, crowd, child_conn, next_worker_index),
                daemon=True,
            )
            next_worker_index += 1
            process.start()
            # The parent must not hold the child's pipe end: one writer
            # per end is the kill-safety invariant.
            child_conn.close()
            workers.append(_PoolWorker(process, parent_conn, next_worker_index - 1))

        for _ in range(min(self.workers, len(tasks))):
            spawn_worker()
        backlog: list[_ShardTask] = list(tasks)
        pending = {task.shard.shard_id: task for task in tasks}
        clean_exit = False
        try:
            while pending:
                self._assign_tasks(workers, backlog)
                ready = multiprocessing.connection.wait(
                    [worker.conn for worker in workers], timeout=0.2
                )
                for worker in [w for w in workers if w.conn in ready]:
                    self._drain_worker(worker, pending, backlog, outcomes)
                self._reap_dead_workers(workers, pending, backlog, spawn_worker)
            clean_exit = True
        finally:
            self._shutdown_pool(workers, graceful=clean_exit)

    def _assign_tasks(self, workers: list[_PoolWorker], backlog: list) -> None:
        """Hand backlog tasks to idle, ready workers (supervisor-side)."""
        for worker in workers:
            if not backlog:
                return
            if worker.task is not None or not worker.ready:
                continue
            if not worker.process.is_alive():
                continue
            task = backlog.pop(0)
            worker.task = task
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                # Died between the liveness check and the send: the reaper
                # books the retry; the task goes back to the backlog head.
                worker.task = None
                backlog.insert(0, task)
                return

    def _drain_worker(
        self, worker: _PoolWorker, pending: dict, backlog: list, outcomes: dict
    ) -> None:
        """Read every complete message the worker's pipe holds."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # closed pipe; the reaper handles the death
            kind = message[0]
            if kind == "ready":
                worker.ready = True
            elif kind == "done":
                _, shard_id, outcome = message
                worker.task = None
                # Guard against a duplicate completion: a shard requeued
                # after a presumed-dead worker may finish twice,
                # byte-identically — keep the first.
                if shard_id in pending:
                    self._finish_shard(outcome, outcomes)
                    del pending[shard_id]
            elif kind == "error":
                _, shard_id, trace = message
                worker.task = None
                task = pending.get(shard_id)
                if task is not None:
                    if self._note_retry(task, trace):
                        backlog.append(task)
                    else:
                        del pending[shard_id]
            else:
                # Checkpoint/event traffic: a raising on_event sink or
                # a store failure propagates — parent-side problems are
                # fatal, and the finally clause tears the pool down so
                # no worker outlives the failed run.
                self._handle_message(message)

    def _reap_dead_workers(
        self, workers: list[_PoolWorker], pending: dict, backlog: list, spawn_worker
    ) -> None:
        """Requeue the shards of dead workers and replenish the pool."""
        dead = [
            worker
            for worker in workers
            if not worker.process.is_alive()
            and worker.process.exitcode not in (0, None)
        ]
        for worker in dead:
            workers.remove(worker)
            obs.count("fault.worker_death")
            log.warning(
                "shard worker pid %d died with exit code %s",
                worker.process.pid,
                worker.process.exitcode,
            )
            worker.conn.close()
            task = worker.task
            if task is not None and task.shard.shard_id in pending:
                reason = (
                    f"worker pid {worker.process.pid} died with exit code"
                    f" {worker.process.exitcode} while executing shard"
                    f" {task.shard.shard_id}"
                )
                if self._note_retry(task, reason):
                    backlog.append(task)
                else:
                    del pending[task.shard.shard_id]
        if dead:
            while pending and len(workers) < min(self.workers, len(pending)):
                spawn_worker()

    def _note_retry(self, task: _ShardTask, reason: str) -> bool:
        """Book a shard failure: retry (True) or quarantine (False).

        On retry the task resumes from its checkpoint folded with every
        delta the parent has received since, after a capped, jittered
        exponential backoff; on quarantine
        the shard is recorded and the run degrades to a
        :class:`PartialResult` once the healthy shards finish.
        """
        shard = task.shard
        task.attempt += 1
        if task.attempt <= self.max_shard_retries:
            deltas = self._shard_deltas.pop(shard.shard_id, [])
            if deltas:
                base = [task.checkpoint] if task.checkpoint is not None else []
                task.checkpoint = fold_checkpoints(base + deltas)
            obs.count("fault.shard_retry")
            log.warning(
                "shard %d attempt %d failed, requeueing: %s",
                shard.shard_id,
                task.attempt,
                reason.strip().splitlines()[-1] if reason.strip() else reason,
            )
            self._emit(
                ShardEvent(
                    shard.shard_id,
                    "retried",
                    shard.kind,
                    pairs=shard.num_pairs,
                    attempt=task.attempt,
                )
            )
            delay = min(2.0, 0.05 * (2 ** (task.attempt - 1)))
            time.sleep(delay * (0.5 + self._backoff_rng.random()))
            return True
        obs.count("fault.quarantine")
        log.error(
            "shard %d quarantined after %d attempts:\n%s",
            shard.shard_id,
            task.attempt,
            reason,
        )
        self._emit(
            ShardEvent(
                shard.shard_id,
                "quarantined",
                shard.kind,
                pairs=shard.num_pairs,
                attempt=task.attempt,
            )
        )
        self.quarantined.append(
            {
                "shard_id": shard.shard_id,
                "kind": shard.kind,
                "attempts": task.attempt,
                "error": reason,
            }
        )
        return False

    def _raise_partial(self, outcomes: dict[int, _ShardOutcome]) -> None:
        result = merge_shard_results(
            [(shard_id, outcome.result) for shard_id, outcome in outcomes.items()]
        )
        raise PartialResult(result, list(self.quarantined))

    def _shutdown_pool(self, workers: list[_PoolWorker], *, graceful: bool) -> None:
        """Orderly pool teardown on every exit path.

        Graceful exits hand each worker a sentinel; fatal exits (a
        parent-side exception) terminate outright.  Either way each pipe
        is drained *while* joining — a child blocked on a full pipe can
        then flush and exit — and any straggler is escalated
        terminate → kill, so no worker process outlives the run.
        """
        terminated: set[int] = set()
        for worker in workers:
            if not worker.process.is_alive():
                continue
            if graceful:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            else:
                worker.process.terminate()
                terminated.add(worker.index)
        deadline = time.monotonic() + 10.0
        for worker in workers:
            process = worker.process
            while process.is_alive() and time.monotonic() < deadline:
                try:
                    while worker.conn.poll():
                        worker.conn.recv()
                except (EOFError, OSError):
                    pass
                process.join(timeout=0.1)
            if process.is_alive():
                process.terminate()
                terminated.add(worker.index)
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
            worker.conn.close()
            if worker.index not in terminated and process.exitcode not in (0, None):
                # A worker that died on its own but whose death the run
                # never had to react to — e.g. a slow-spawning worker
                # whose startup probe killed it after the last shard
                # finished — is still a death the telemetry must show.
                obs.count("fault.worker_death")
                log.warning(
                    "shard worker pid %d died with exit code %s during shutdown",
                    process.pid,
                    process.exitcode,
                )

    # ------------------------------------------------------------------
    # Parent-side message handling (events + checkpoint persistence)
    # ------------------------------------------------------------------
    def _handle_message(self, message: tuple) -> None:
        if message[0] == "event":
            self._emit(message[1])
        elif message[0] == "checkpoint":
            _, shard_id, checkpoint = message
            # Journal first: a delta the store lost stays out of the
            # requeue fold too, so a retry never runs ahead of the journal.
            if self._store is not None:
                self._store.save_shard_checkpoint(self._run_id, shard_id, checkpoint)
            self._shard_deltas.setdefault(shard_id, []).append(checkpoint)

    def _finish_shard(
        self, outcome: _ShardOutcome, outcomes: dict[int, _ShardOutcome]
    ) -> None:
        outcomes[outcome.shard_id] = outcome
        if outcome.telemetry is not None:
            obs.absorb(outcome.telemetry)
        if self._store is not None:
            self._store.save_shard_result(
                self._run_id,
                outcome.shard_id,
                self._keys[outcome.shard_id],
                outcome.kind,
                outcome.result,
                outcome.snapshot,
                outcome.answer_log,
            )

    def _emit(self, event: ShardEvent, *, publish: bool = True) -> None:
        """Count ``event``, publish it as a run event, hand it to ``on_event``.

        ``publish=False`` keeps the event out of the store's
        ``run_events``; the counter and ``on_event`` still see it.
        """
        obs.count(f"partition.shard.{event.kind}")
        if publish:
            # Shard lifecycle heartbeats for the live plane: _emit always
            # runs in the parent (workers funnel through the event
            # queue), so the session scope is active and writes the row,
            # with the shard id as a column.
            obs.publish(
                f"shard.{event.kind}",
                shard_id=event.shard_id,
                phase=event.phase,
                pairs=event.pairs,
                loops=event.loops,
                questions=event.questions,
                matches=event.matches,
                attempt=event.attempt,
            )
        log.debug(
            "shard %d %s (%s): pairs=%d loops=%d questions=%d",
            event.shard_id,
            event.kind,
            event.phase,
            event.pairs,
            event.loops,
            event.questions,
        )
        if self._on_event is not None:
            self._on_event(event)


# Re-exported for the service/CLI layers.
__all__ = [
    "CrowdSpec",
    "ParallelRunner",
    "PartialResult",
    "ShardEvent",
    "UnitRecord",
    "content_seed",
    "merge_shard_results",
    "split_budget",
    "unit_content_key",
    "unit_record_from_doc",
]
