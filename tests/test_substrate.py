"""The prepared-state cache: sharing, equivalence, and the leak fixes.

Covers the :mod:`repro.substrate` contract end to end — concurrent
sessions on one (KB pair, config) key share a single arena and still
produce results byte-identical to fully isolated runs, across
monolithic / partitioned execution, the reference kernels, spawn-started
pools, kill-and-resume, and delta-stream derivation — plus gc-based
regression tests for the leaks the cache could cause
(``MatchingService._key_locks``, ``LiteralScorer`` value pinning and an
evicted arena's KBs).
"""

import gc
import threading
import weakref

import pytest

import repro.service.service
from repro.accel.literals import LiteralScorer
from repro.accel.reference import RebuildRemp, reference_kernels
from repro.core import Remp
from repro.datasets import evolving_bundle
from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase
from repro.service import MatchingService
from repro.store import RunStore, config_hash
from repro.substrate import (
    PrepareSubstrate,
    SubstrateCache,
    literal_scorer,
    substrate_key,
)


def _tiny_pair():
    """A small fresh KB pair, never owned by any dataset cache."""
    kb1 = KnowledgeBase("sub1")
    kb2 = KnowledgeBase("sub2")
    for i in range(4):
        kb1.add_entity(f"a{i}", label=f"movie number {i}")
        kb1.add_attribute_triple(f"a{i}", "year", 1990 + i)
        kb2.add_entity(f"b{i}", label=f"movie number {i}")
        kb2.add_attribute_triple(f"b{i}", "year", 1990 + i)
    return kb1, kb2


class TestFingerprints:
    def test_kb_fingerprint_is_content_addressed(self):
        kb1, kb2 = _tiny_pair()
        again1, again2 = _tiny_pair()
        assert kb_pair_fingerprint(kb1, kb2) == kb_pair_fingerprint(again1, again2)
        again2.add_entity("extra", label="something else")
        assert kb_pair_fingerprint(kb1, kb2) != kb_pair_fingerprint(again1, again2)

    def test_substrate_key_covers_config(self):
        from repro.core import RempConfig

        kb1, kb2 = _tiny_pair()
        base = substrate_key(kb1, kb2, None)
        assert base == (kb_pair_fingerprint(kb1, kb2), config_hash(None))
        assert base == substrate_key(kb1, kb2, RempConfig())
        assert base != substrate_key(kb1, kb2, RempConfig(k=7))


class TestArenaSharing:
    def test_arena_without_state_is_a_miss(self, tmp_path, monkeypatch):
        """A failed compute leaves its arena stateless; the retry fills it."""

        def failing(self, kb1, kb2):
            raise RuntimeError("prepare failed")

        with MatchingService(RunStore(tmp_path / "s.db")) as service:
            monkeypatch.setattr(Remp, "prepare", failing)
            with pytest.raises(RuntimeError, match="prepare failed"):
                service.prepared("iimb", scale=0.2)
            (arena,) = service._arenas._entries.values()
            assert arena.state is None
            assert (service.cache_hits, service.cache_misses) == (0, 0)
            monkeypatch.undo()
            state = service.prepared("iimb", scale=0.2)
            assert (service.cache_hits, service.cache_misses) == (0, 1)
            assert list(service._arenas._entries.values()) == [arena]
            assert arena.state is state
            assert state.substrate_key == arena.key
            assert service.prepared("iimb", scale=0.2) is state
            assert (service.cache_hits, service.cache_misses) == (1, 1)

    def test_two_services_keep_their_own_cache(self):
        """Each service counts its own miss, and their results are equal."""
        results = []
        for _ in range(2):
            with MatchingService(":memory:") as service:
                results.append(
                    service.result(service.submit("iimb", scale=0.2, background=False))
                )
                assert (service.cache_hits, service.cache_misses) == (0, 1)
                assert len(service._arenas) == 1
        assert results[1].matches == results[0].matches
        assert results[1].questions_asked == results[0].questions_asked

    def test_concurrent_shared_sessions_match_isolated_runs(self):
        with MatchingService() as shared:
            run_ids = [shared.submit("iimb", scale=0.2) for _ in range(2)]
            shared_results = [shared.result(run_id) for run_id in run_ids]
        isolated_results = []
        for _ in range(2):
            with MatchingService() as isolated:
                isolated_results.append(
                    isolated.result(isolated.submit("iimb", scale=0.2, background=False))
                )
        for result in shared_results:
            assert result.matches == isolated_results[0].matches
            assert result.questions_asked == isolated_results[0].questions_asked
            assert result.history == isolated_results[0].history
        assert isolated_results[0].matches == isolated_results[1].matches

    def test_reference_kernels_service_identity(self, monkeypatch):
        """A service on the reference kernels and full-rebuild loop
        matches the product service; both attach their arenas."""
        with MatchingService() as service:
            product = service.result(service.submit("iimb", scale=0.2, background=False))
        monkeypatch.setattr(repro.service.service, "Remp", RebuildRemp)
        with reference_kernels(), MatchingService() as service:
            state = service.prepared("iimb", scale=0.2)
            assert state.substrate_key is not None
            reference = service.result(
                service.submit("iimb", scale=0.2, background=False)
            )
        assert reference.matches == product.matches
        assert reference.questions_asked == product.questions_asked
        assert reference.history == product.history
        kb1, kb2 = _tiny_pair()
        arena = PrepareSubstrate(substrate_key(kb1, kb2, None))
        with arena.activation():
            assert literal_scorer(0.9) is arena._scorers[0.9]
        assert literal_scorer(0.9) is not arena._scorers[0.9]

    def test_kill_and_resume_keeps_shared_equivalence(self, tmp_path):
        path = tmp_path / "store.db"
        with MatchingService(RunStore(path)) as service:
            baseline = service.result(service.submit("iimb", scale=0.2, background=False))
            run_id = service.submit("iimb", scale=0.2, background=False)
            assert service.step(run_id)  # one loop, then the process "dies"
        with MatchingService(RunStore(path)) as service:  # fresh arena cache too
            service.resume(run_id, background=False)
            resumed = service.result(run_id)
        assert resumed.matches == baseline.matches
        assert resumed.questions_asked == baseline.questions_asked


class TestWorkers:
    def test_partitioned_run_matches_monolithic_and_never_repacks(self, tmp_path):
        """A ``workers=4`` run matches the monolithic run."""
        with MatchingService(RunStore(tmp_path / "a.db")) as service:
            mono = service.result(service.submit("evolving", scale=0.4, background=False))
        with MatchingService(RunStore(tmp_path / "b.db")) as service:
            run_id = service.submit("evolving", scale=0.4, workers=4, background=False)
            parallel = service.result(run_id)
        assert parallel.matches == mono.matches
        assert parallel.questions_asked == mono.questions_asked

    def test_spawn_pool_equals_forked_pool(self, tmp_path, monkeypatch):
        """A spawn-started pool (base state pickled) matches a forked one."""
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        with MatchingService(RunStore(tmp_path / "spawn.db")) as service:
            run_id = service.submit("evolving", scale=0.4, workers=2, background=False)
            spawned = service.result(run_id)
        monkeypatch.delenv("REPRO_START_METHOD")
        with MatchingService(RunStore(tmp_path / "fork.db")) as service:
            forked = service.result(
                service.submit("evolving", scale=0.4, workers=2, background=False)
            )
        assert spawned.matches == forked.matches
        assert spawned.questions_asked == forked.questions_asked


class TestStreamDerive:
    def test_update_derives_child_arena_seeded_scorers(self, tmp_path):
        evolving = evolving_bundle(seed=0, scale=0.4, steps=1)
        with MatchingService(RunStore(tmp_path / "stream.db")) as service:
            root = service.submit("evolving", scale=0.4, stream=True, background=False)
            service.result(root)
            updated = service.update(root, evolving.deltas[0], background=False)
            service.result(updated)
            arenas = list(service._arenas._entries.values())
        assert len(arenas) == 2
        parent, child = arenas
        assert child.state.substrate_key == child.key != parent.key
        shared_thresholds = set(parent._scorers) & set(child._scorers)
        assert shared_thresholds
        for threshold in shared_thresholds:
            # Seeded by snapshot: the child starts from the parent's
            # interned literals but owns its own scorer object (the
            # arenas lock independently, so aliasing would race).
            assert parent._scorers[threshold] is not child._scorers[threshold]
            assert set(parent._scorers[threshold]._ids) <= set(
                child._scorers[threshold]._ids
            )

    def test_stream_update_equivalent_to_isolated(self, tmp_path):
        evolving = evolving_bundle(seed=0, scale=0.4, steps=1)
        results = []
        for name in ("shared", "isolated"):
            with MatchingService(RunStore(tmp_path / f"{name}.db")) as service:
                root = service.submit(
                    "evolving", scale=0.4, stream=True, background=False
                )
                service.result(root)
                updated = service.update(root, evolving.deltas[0], background=False)
                results.append(service.result(updated))
        assert results[0].matches == results[1].matches
        assert results[0].questions_asked == results[1].questions_asked


class TestLeakFixes:
    def test_key_locks_pruned_after_compute(self):
        with MatchingService() as service:
            service.prepared("iimb", scale=0.2)
            assert service._key_locks == {}
            service.prepared("iimb", scale=0.2)  # cache hit: its lock is pruned too
            assert service._key_locks == {}

    def test_key_locks_pruned_under_concurrency(self):
        with MatchingService() as service:
            threads = [
                threading.Thread(target=service.prepared, args=("iimb",), kwargs={"scale": 0.2})
                for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service._key_locks == {}
            assert service.cache_misses == 1

    def test_memory_cache_is_a_bounded_lru(self):
        with MatchingService(memory_cache_size=2) as service:
            for seed in (0, 1, 2):
                service.prepared("iimb", seed=seed, scale=0.2)
            assert len(service._arenas) == 2
            assert service.cache_evictions == 1
            # Seed 0 was evicted (LRU); seeds 1 and 2 are still hits.
            hits_before = service.cache_hits
            service.prepared("iimb", seed=2, scale=0.2)
            assert service.cache_hits == hits_before + 1

    def test_scorer_does_not_pin_value_collections(self):
        class Values(list):
            """Weakref-able stand-in for a KB value collection."""

        scorer = LiteralScorer(0.9)
        values = Values(["cradle rock", "1999"])
        other = Values(["rock cradle"])
        first = scorer.set_similarity(values, other)
        ref = weakref.ref(values)
        del values
        gc.collect()
        assert ref() is None
        assert scorer.set_similarity(Values(["cradle rock", "1999"]), other) == first

    def test_evicted_arena_frees_its_kbs(self):
        """An arena holds its state's KBs only until the LRU evicts it."""
        with MatchingService(memory_cache_size=1) as service:
            kb1, kb2 = _tiny_pair()
            key = substrate_key(kb1, kb2, None)
            service._prepared(key, kb1, kb2, None)
            refs = [weakref.ref(kb1), weakref.ref(kb2)]
            del kb1, kb2
            gc.collect()
            assert all(ref() is not None for ref in refs)  # the arena holds them
            other1, other2 = _tiny_pair()
            other2.add_entity("extra", label="something else")
            service._prepared(substrate_key(other1, other2, None), other1, other2, None)
            assert service.cache_evictions == 1
            gc.collect()
            assert all(ref() is None for ref in refs)


class TestSubstrateCache:
    def test_lru_eviction_and_stats(self):
        cache = SubstrateCache(capacity=2)
        keys = [(f"kb{i}", f"kb{i}'", "cfg") for i in range(3)]
        first = cache.get_or_create(keys[0])
        second = cache.get_or_create(keys[1])
        assert cache.get_or_create(keys[0]) is first  # refreshes LRU slot
        cache.get_or_create(keys[2])  # evicts keys[1]
        assert (len(cache), cache.evictions) == (2, 1)
        assert cache.get_or_create(keys[0]) is first
        assert cache.get_or_create(keys[1]) is not second

    def test_derive_seeds_scorer_snapshots_only(self):
        cache = SubstrateCache()
        parent = cache.get_or_create(("p", "p'", "cfg"))
        scorer = parent.scorer(0.9)
        sim = scorer.set_similarity(["cradle rock", "1999"], ["rock cradle"])
        child = cache.derive(parent, ("c", "c'", "cfg"))
        assert child is not parent
        seeded = child._scorers[0.9]
        # A snapshot, never an alias: the arenas have separate locks, so
        # a shared mutable scorer could be interned into concurrently.
        assert seeded is not scorer
        for attr in (
            "_ids",
            "_numbers",
            "_tokens",
            "_raw",
            "_token_ids",
            "_pair_sims",
            "_set_sims",
        ):
            assert getattr(seeded, attr) is not getattr(scorer, attr)
        # The snapshot carries the parent's caches (same answers) but
        # mutates independently afterwards.
        assert seeded.threshold == scorer.threshold
        assert seeded._ids == scorer._ids
        assert seeded.set_similarity(["cradle rock", "1999"], ["rock cradle"]) == sim
        seeded.intern("only in child")
        assert (False, "only in child") not in scorer._ids
        assert child.state is None
        # Deriving onto the same key is a no-op identity.
        assert cache.derive(parent, parent.key) is parent
