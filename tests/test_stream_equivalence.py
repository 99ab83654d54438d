"""The stream equivalence oracle.

For seeded randomized delta streams, at every step the incremental path
(``incremental_prepare`` + ``StreamRunner.run_incremental`` reusing the
previous step's unit records) must produce a ``RempResult`` *byte-for-byte
identical* (same serialized document) to a from-scratch run on the
post-delta KB pair — across scales, error rates and worker counts — and
its spliced prepared state must serialize identically to a from-scratch
``Remp.prepare``.  Crowd budget conservation rides along: a pair living
in a clean (reused) unit is never re-billed by an update.
"""

import json
from dataclasses import replace

import pytest

from repro.accel import reference
from repro.core import Remp, RempConfig
from repro.datasets import evolving_bundle
from repro.obs import runtime as obs
from repro.partition import CrowdSpec, entity_closure_components, partition_state
from repro.store.serialize import prepared_state_to_doc, result_to_doc
from repro.stream import StreamRunner, incremental_prepare


def _doc(result) -> str:
    return json.dumps(result_to_doc(result), sort_keys=True)


def _crowd(truth, error_rate, seed):
    return CrowdSpec(truth=truth, error_rate=error_rate, seed=seed)


def _incremental_chain(evolving, seed, workers, error_rate):
    """Run base + every delta incrementally; yield (step, state, outcome)."""
    config = RempConfig()
    runner = StreamRunner(config, seed=seed, workers=workers)
    state = Remp(config).prepare(evolving.base.kb1, evolving.base.kb2)
    outcome = runner.run_full(state, _crowd(evolving.gold_at(0), error_rate, seed))
    yield 0, state, outcome
    for step, delta in enumerate(evolving.deltas, start=1):
        prepared = incremental_prepare(state, delta, config)
        state = prepared.state
        outcome = runner.run_incremental(
            state,
            _crowd(evolving.gold_at(step), error_rate, seed),
            dirty=prepared.changed,
            reuse=outcome.records,
        )
        yield step, state, outcome


def _from_scratch(evolving, step, seed, workers, error_rate):
    config = RempConfig()
    bundle = evolving.bundle_at(step)
    state = Remp(config).prepare(bundle.kb1, bundle.kb2)
    runner = StreamRunner(config, seed=seed, workers=workers)
    return state, runner.run_full(state, _crowd(bundle.gold_matches, error_rate, seed))


def _assert_kept_components(state, step):
    """A run's kept components are the reference's, and plan like a fresh walk.

    From step 1 on, the state's components were spliced from its
    parent's; ``replace`` drops them, so the second plan walks every
    retained pair.
    """
    assert state.components is not None, f"no kept components at step {step}"
    assert set(state.components) == {
        frozenset(c) for c in reference.entity_closure_components(state)
    }, f"component drift at step {step}"
    fresh = replace(state, components=None)
    assert partition_state(state, max_shard_size=1) == partition_state(
        fresh, max_shard_size=1
    ), f"plan drift at step {step}"


class TestKeptComponents:
    def test_every_clustered_stream_step_keeps_exact_components(self):
        """The seed-0 ``clustered-stream`` lineage: 16 spliced states."""
        evolving = evolving_bundle(seed=0, scale=6, steps=16)
        config = RempConfig()
        state = Remp(config).prepare(evolving.base.kb1, evolving.base.kb2)
        entity_closure_components(state)
        for step, delta in enumerate(evolving.deltas, start=1):
            prepared = incremental_prepare(state, delta, config)
            assert not prepared.fell_back
            state = prepared.state
            _assert_kept_components(state, step)

    def test_a_splice_without_parent_components_finds_its_own(self):
        evolving = evolving_bundle(seed=0, scale=0.4, steps=1)
        config = RempConfig()
        state = Remp(config).prepare(evolving.base.kb1, evolving.base.kb2)
        spliced = incremental_prepare(state, evolving.deltas[0], config).state
        assert spliced.components is None
        entity_closure_components(spliced)
        _assert_kept_components(spliced, 1)


class TestEquivalenceOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [0.4, 0.75])
    def test_incremental_equals_from_scratch(self, seed, scale):
        """Every step of every seeded stream: results byte-identical."""
        evolving = evolving_bundle(seed=seed, scale=scale, steps=3)
        for step, state, outcome in _incremental_chain(
            evolving, seed=seed, workers=1, error_rate=0.1
        ):
            ref_state, ref = _from_scratch(
                evolving, step, seed=seed, workers=1, error_rate=0.1
            )
            assert prepared_state_to_doc(state) == prepared_state_to_doc(ref_state), (
                f"prepared-state drift at step {step} (seed={seed}, scale={scale})"
            )
            assert _doc(outcome.result) == _doc(ref.result), (
                f"result drift at step {step} (seed={seed}, scale={scale})"
            )
            _assert_kept_components(state, step)

    def test_equivalence_under_oracle_crowd(self):
        evolving = evolving_bundle(seed=3, scale=0.5, steps=3)
        for step, state, outcome in _incremental_chain(
            evolving, seed=3, workers=1, error_rate=0.0
        ):
            _, ref = _from_scratch(evolving, step, seed=3, workers=1, error_rate=0.0)
            assert _doc(outcome.result) == _doc(ref.result)
            _assert_kept_components(state, step)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_equivalence_across_worker_counts(self, workers):
        """workers=4 incremental == workers=1 from-scratch, at every step."""
        evolving = evolving_bundle(seed=0, scale=0.75, steps=2)
        for step, state, outcome in _incremental_chain(
            evolving, seed=0, workers=workers, error_rate=0.1
        ):
            _, ref = _from_scratch(evolving, step, seed=0, workers=1, error_rate=0.1)
            assert _doc(outcome.result) == _doc(ref.result), (
                f"worker-count drift at step {step} (workers={workers})"
            )
            _assert_kept_components(state, step)


class TestForestReuse:
    def test_updates_reuse_the_parent_forest(self):
        """Every update takes its parent's isolated forest and fits none.

        x4 is the smallest ``evolving`` scale whose isolated group trains
        (on seed 0, x0.4 to x3 fit no forest), and its training set stays
        the same across these three deltas.
        """
        evolving = evolving_bundle(seed=0, scale=4, steps=3)
        chain = _incremental_chain(evolving, seed=0, workers=1, error_rate=0.1)
        root_forests = None
        for step in range(len(evolving.deltas) + 1):
            scope = obs.RunScope(trace=False)
            with scope.activate():
                _, _, outcome = next(chain)
            counters = scope.export()["metrics"]["counters"]
            forests = outcome.records["isolated\x1f0"].forests
            if step == 0:
                assert counters["isolated.forest.fitted"] >= 1
                root_forests = forests
            else:
                assert counters["isolated.forest.reused"] >= 1
                assert "isolated.forest.fitted" not in counters
                assert forests.keys() == root_forests.keys()
                assert all(forests[key] is root_forests[key] for key in forests)
            _, ref = _from_scratch(evolving, step, seed=0, workers=1, error_rate=0.1)
            assert _doc(outcome.result) == _doc(ref.result), f"drift at step {step}"


class TestBudgetConservation:
    def _log_questions(self, record):
        return {tuple(entry["question"]) for entry in record.answer_log}

    def test_surviving_pairs_never_rebilled(self):
        """An update's new spend never includes a previously billed question.

        Reused units execute nothing, and the driver's ``questions_new``
        excludes everything in the lineage's answer logs — recomputed
        here independently from the per-unit records.
        """
        evolving = evolving_bundle(seed=1, scale=0.75, steps=3)
        previous_records = None
        for step, _, outcome in _incremental_chain(
            evolving, seed=1, workers=1, error_rate=0.1
        ):
            assert not outcome.reused_keys & outcome.executed_keys
            if previous_records is None:
                assert outcome.questions_new == len(
                    set().union(
                        *(
                            self._log_questions(r)
                            for r in outcome.records.values()
                        ),
                        set(),
                    )
                )
            else:
                inherited = set()
                for record in previous_records.values():
                    inherited |= self._log_questions(record)
                fresh = set()
                for key in outcome.executed_keys:
                    fresh |= self._log_questions(outcome.records[key])
                # The driver's accounting matches the independent recount.
                assert outcome.questions_new == len(fresh - inherited)
                # Questions of surviving (reused) units are disjoint from
                # any newly billed question.
                surviving = set()
                for key in outcome.reused_keys:
                    surviving |= self._log_questions(outcome.records[key])
                assert not (fresh - inherited) & surviving
            previous_records = outcome.records

    def test_reuse_actually_happens(self):
        """The suite must exercise real reuse, not vacuous dirt-everything."""
        evolving = evolving_bundle(seed=1, scale=0.75, steps=3)
        reused_total = 0
        for step, _, outcome in _incremental_chain(
            evolving, seed=1, workers=1, error_rate=0.1
        ):
            if step > 0:
                reused_total += len(outcome.reused_keys)
        assert reused_total > 0

    def test_logical_billing_matches_platform_semantics(self):
        """The merged result's questions_asked equals the from-scratch bill."""
        evolving = evolving_bundle(seed=2, scale=0.5, steps=2)
        for step, _, outcome in _incremental_chain(
            evolving, seed=2, workers=1, error_rate=0.1
        ):
            _, ref = _from_scratch(evolving, step, seed=2, workers=1, error_rate=0.1)
            assert outcome.result.questions_asked == ref.result.questions_asked
            assert outcome.questions_total == ref.result.questions_asked
            assert outcome.questions_new <= outcome.questions_total
