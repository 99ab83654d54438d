"""The delta-aware run driver.

:class:`StreamRunner` executes a prepared state as *units* — one graph
shard per entity-closure component (``max_shard_size=1``), localized
slices, content-derived seeds — so every unit's outcome is a pure
function of its slice, independent of what the rest of the KB looks
like.  That purity is the whole trick:

* ``run_full`` executes every unit; its merged result is the stream
  layer's *reference semantics* for a KB pair.
* ``run_incremental`` takes the previous run's content-keyed
  :class:`~repro.partition.UnitRecord` map plus the incremental
  preparer's dirty set, restores every clean unit verbatim and executes
  only dirty or new ones — and merges to a result byte-identical to
  ``run_full`` on the same state (the equivalence oracle pinned down by
  ``tests/test_stream_equivalence.py``), for every worker count.

Billing is two-ledger: the merged :class:`~repro.core.RempResult` keeps
the *logical* question count (what a from-scratch run would bill), while
:class:`StreamOutcome.questions_new` counts only questions whose labels
are not already in the lineage's answer logs — the actual crowd spend of
an incremental update.  No question recorded for a surviving (clean)
unit is ever counted as new spend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RempConfig
from repro.core.pipeline import PreparedState, RempResult
from repro.obs import runtime as obs
from repro.obs.logging import get_logger
from repro.partition.partitioner import PartitionPlan, partition_state
from repro.partition.runner import CrowdSpec, ParallelRunner, UnitRecord

Pair = tuple[str, str]

log = get_logger("stream")


@dataclass(slots=True, weakref_slot=True)
class StreamOutcome:
    """One stream run: merged result, per-unit records, spend accounting."""

    result: RempResult
    #: Content-keyed durable unit outcomes (the next update's reuse input).
    records: dict[str, UnitRecord]
    reused_keys: set[str] = field(default_factory=set)
    executed_keys: set[str] = field(default_factory=set)
    #: Questions billed this run whose labels were NOT in the lineage's
    #: answer logs — the incremental crowd spend.
    questions_new: int = 0

    @property
    def questions_total(self) -> int:
        """The logical (from-scratch-equivalent) question count."""
        return self.result.questions_asked


def _log_questions(answer_log: list) -> set[Pair]:
    return {(entry["question"][0], entry["question"][1]) for entry in answer_log}


class StreamRunner:
    """Unit-wise execution of a prepared state with cross-run reuse.

    Parameters mirror :class:`~repro.partition.ParallelRunner`; a store +
    run id enable per-unit checkpointing, so an interrupted update
    resumes without re-asking questions.  ``config.budget`` is rejected:
    a global budget split couples clean units to dirty ones (their
    allocation shifts with every delta), which would break reuse.
    """

    def __init__(
        self,
        config: RempConfig | None = None,
        *,
        seed: int = 0,
        workers: int = 1,
        strategy: str = "remp",
        store=None,
        run_id: str | None = None,
        on_event=None,
    ):
        self.config = config or RempConfig()
        if self.config.budget is not None:
            raise ValueError(
                "stream runs do not support a question budget: the global "
                "split would re-allocate across deltas and invalidate "
                "clean-unit reuse"
            )
        self.seed = seed
        self.workers = workers
        self.strategy = strategy
        self._store = store
        self._run_id = run_id
        self._on_event = on_event

    def plan(self, state: PreparedState) -> PartitionPlan:
        """One graph shard per entity-closure component."""
        return partition_state(state, max_shard_size=1)

    # ------------------------------------------------------------------
    def run_full(self, state: PreparedState, crowd: CrowdSpec) -> StreamOutcome:
        """Execute every unit from scratch — the reference semantics."""
        return self._run(state, crowd, dirty=None, reuse=None)

    def run_incremental(
        self,
        state: PreparedState,
        crowd: CrowdSpec,
        *,
        dirty: set[Pair] | None,
        reuse: dict[str, UnitRecord] | None,
    ) -> StreamOutcome:
        """Execute only dirty units; restore clean ones from ``reuse``.

        ``dirty=None`` (the incremental preparer's full-fallback signal)
        executes everything, exactly like :meth:`run_full`.
        """
        if dirty is None or not reuse:
            return self._run(state, crowd, dirty=None, reuse=None, lineage=reuse)
        return self._run(state, crowd, dirty=set(dirty), reuse=dict(reuse))

    # ------------------------------------------------------------------
    def _run(
        self,
        state: PreparedState,
        crowd: CrowdSpec,
        *,
        dirty: set[Pair] | None,
        reuse: dict[str, UnitRecord] | None,
        lineage: dict[str, UnitRecord] | None = None,
    ) -> StreamOutcome:
        runner = ParallelRunner(
            self.config,
            seed=self.seed,
            workers=self.workers,
            strategy=self.strategy,
            max_shard_size=1,
            store=self._store,
            run_id=self._run_id,
            on_event=self._on_event,
            stream=True,
            dirty=dirty,
            reuse=reuse,
        )
        result = runner.run(state, crowd)
        records = runner.unit_records
        reused_keys = set(runner.reused_keys)
        executed_keys = set(records) - reused_keys

        # New spend: labels collected by executed units that no ancestor
        # run had already recorded.  (Reused units are free by
        # construction; re-asked questions replay to identical labels
        # because per-question answers are pure in the platform seed.)
        inherited: set[Pair] = set()
        for source in (reuse or {}), (lineage or {}):
            for record in source.values():
                inherited |= _log_questions(record.answer_log)
        fresh: set[Pair] = set()
        for key in executed_keys:
            fresh |= _log_questions(records[key].answer_log)
        questions_new = len(fresh - inherited)

        obs.count("stream.units.reused", len(reused_keys))
        obs.count("stream.units.executed", len(executed_keys))
        obs.count("stream.questions.new", questions_new)
        if records:
            obs.gauge(
                "stream.unit_reuse_rate", round(len(reused_keys) / len(records), 6)
            )
        obs.publish(
            "stream.summary",
            units=len(records),
            reused=len(reused_keys),
            executed=len(executed_keys),
            questions_new=questions_new,
        )
        log.info(
            "stream run: %d units (%d reused, %d executed), %d new questions",
            len(records),
            len(reused_keys),
            len(executed_keys),
            questions_new,
        )
        return StreamOutcome(
            result=result,
            records=records,
            reused_keys=reused_keys,
            executed_keys=executed_keys,
            questions_new=questions_new,
        )
