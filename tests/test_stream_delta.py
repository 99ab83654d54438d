"""Unit tests for the KB-delta model and the incremental preparer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import reference
from repro.core import Remp, RempConfig
from repro.datasets import evolving_bundle
from repro.kb import KnowledgeBase, kb_to_doc
from repro.store.serialize import prepared_state_to_doc
from repro.stream import (
    DeltaConflictError,
    DeltaOp,
    KBDelta,
    compose_deltas,
    incremental_prepare,
    kb_pair_fingerprint,
)
from repro.core.er_graph import ERGraph
from repro.stream.incremental import _dirty_closure, _splice_components


def _tiny_pair():
    kb1, kb2 = KnowledgeBase("a"), KnowledgeBase("b")
    kb1.add_entity("x:1", label="alpha one")
    kb2.add_entity("y:1", label="alpha one")
    kb1.add_relationship_triple("x:1", "r", "x:2")
    kb2.add_relationship_triple("y:1", "r", "y:2")
    return kb1, kb2


class TestKnowledgeBaseMutation:
    def test_remove_attribute_triple_prunes_indexes(self):
        kb = KnowledgeBase("k")
        kb.add_entity("e", label="hello")
        assert kb.remove_attribute_triple("e", "rdfs:label", "hello")
        assert kb.label("e") is None
        assert kb.num_attribute_triples == 0
        assert not kb.remove_attribute_triple("e", "rdfs:label", "hello")

    def test_remove_relationship_triple_prunes_both_directions(self):
        kb = KnowledgeBase("k")
        kb.add_relationship_triple("a", "r", "b")
        assert kb.remove_relationship_triple("a", "r", "b")
        assert kb.relation_values("a", "r") == set()
        assert kb.relation_sources("b", "r") == set()
        assert not kb.has_relations("a")
        assert kb.num_relationship_triples == 0

    def test_remove_entity_cascades(self):
        kb = KnowledgeBase("k")
        kb.add_entity("m", label="movie")
        kb.add_relationship_triple("d", "directed", "m")
        kb.add_relationship_triple("m", "stars", "a")
        assert kb.remove_entity("m")
        assert "m" not in kb
        assert kb.relation_values("d", "directed") == set()
        assert kb.relation_sources("a", "stars") == set()

    def test_removal_retires_property_vocabulary(self):
        """Removing a property's last triple drops it from the vocabulary."""
        kb = KnowledgeBase("k")
        kb.add_attribute_triple("e1", "year", 1999)
        kb.add_attribute_triple("e2", "year", 2001)
        kb.add_relationship_triple("e1", "r", "e2")
        kb.remove_attribute_triple("e1", "year", 1999)
        assert "year" in kb.attributes  # one triple left
        kb.remove_attribute_triple("e2", "year", 2001)
        assert "year" not in kb.attributes
        kb.remove_relationship_triple("e1", "r", "e2")
        assert "r" not in kb.relationships

    def test_mutated_kb_serializes_like_fresh_build(self):
        """Removal must leave no trace — the incremental invariant's base."""
        kb = KnowledgeBase("k")
        kb.add_entity("e1", label="one")
        kb.add_entity("e2", label="two")
        kb.add_attribute_triple("e1", "year", 1999)
        kb.add_relationship_triple("e1", "r", "e2")

        mutated = kb.copy()
        mutated.add_entity("e3", label="three")
        mutated.add_relationship_triple("e2", "r", "e3")
        mutated.remove_entity("e3")
        assert kb_to_doc(mutated) == kb_to_doc(kb)

    def test_copy_is_independent(self):
        kb = KnowledgeBase("k")
        kb.add_entity("e", label="one")
        clone = kb.copy()
        clone.add_attribute_triple("e", "year", 2000)
        clone.remove_attribute_triple("e", "rdfs:label", "one")
        assert kb.label("e") == "one"
        assert kb.attribute_values("e", "year") == set()


class TestDeltaModel:
    def test_apply_does_not_mutate_inputs(self):
        kb1, kb2 = _tiny_pair()
        before = kb_pair_fingerprint(kb1, kb2)
        delta = KBDelta(ops=(DeltaOp("remove_entity", 1, "x:1"),))
        new1, _ = delta.apply(kb1, kb2)
        assert kb_pair_fingerprint(kb1, kb2) == before
        assert "x:1" not in new1

    def test_fingerprint_guard(self):
        kb1, kb2 = _tiny_pair()
        delta = KBDelta(
            ops=(DeltaOp("add_entity", 1, "x:9", value="new"),),
            parent_fingerprint="feedfacefeedface",
        )
        with pytest.raises(DeltaConflictError):
            delta.apply(kb1, kb2)
        # Matching fingerprint passes.
        good = KBDelta(
            ops=delta.ops, parent_fingerprint=kb_pair_fingerprint(kb1, kb2)
        )
        good.apply(kb1, kb2)

    def test_round_trip(self):
        delta = KBDelta(
            ops=(
                DeltaOp("add_entity", 1, "x:9", value="label nine"),
                DeltaOp("add_attribute", 2, "y:1", "year", 2001),
                DeltaOp("remove_relation", 1, "x:1", "r", "x:2"),
            ),
            gold_add=(("x:9", "y:9"),),
            gold_remove=(("x:1", "y:1"),),
            parent_fingerprint="0123456789abcdef",
        )
        assert KBDelta.from_doc(delta.to_doc()) == delta

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            KBDelta.from_doc({"version": 99, "ops": []})

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            DeltaOp("explode", 1, "x")
        with pytest.raises(ValueError):
            DeltaOp("add_entity", 3, "x")

    def test_compose_equals_sequential_application(self):
        kb1, kb2 = _tiny_pair()
        first = KBDelta(
            ops=(DeltaOp("add_entity", 1, "x:9", value="nine"),),
            gold_add=(("x:9", "y:9"),),
        )
        second = KBDelta(
            ops=(DeltaOp("remove_entity", 1, "x:1"),),
            gold_remove=(("x:1", "y:1"), ("x:9", "y:9")),
        )
        sequential = second.apply(*first.apply(kb1, kb2))
        composed = first.compose(second).apply(kb1, kb2)
        assert kb_pair_fingerprint(*sequential) == kb_pair_fingerprint(*composed)
        gold = {("x:1", "y:1"), ("x:5", "y:5")}
        assert second.apply_gold(first.apply_gold(gold)) == first.compose(
            second
        ).apply_gold(gold)

    def test_compose_deltas_empty_is_noop(self):
        kb1, kb2 = _tiny_pair()
        new1, new2 = compose_deltas([]).apply(kb1, kb2)
        assert kb_pair_fingerprint(new1, new2) == kb_pair_fingerprint(kb1, kb2)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100), steps=st.integers(1, 4))
    def test_evolving_compose_matches_stepwise(self, seed, steps):
        """Composing a delta prefix equals applying it step by step."""
        evolving = evolving_bundle(seed=seed, scale=0.4, steps=4)
        base = evolving.base
        composed = compose_deltas(evolving.deltas[:steps])
        via_compose = composed.apply(base.kb1, base.kb2)
        stepwise = evolving.bundle_at(steps)
        assert kb_pair_fingerprint(*via_compose) == kb_pair_fingerprint(
            stepwise.kb1, stepwise.kb2
        )
        assert composed.apply_gold(base.gold_matches) == stepwise.gold_matches


class TestIncrementalPrepare:
    def test_spliced_state_matches_full_prepare(self, clustered6_bundle):
        bundle = clustered6_bundle
        config = RempConfig()
        state = Remp(config).prepare(bundle.kb1, bundle.kb2)
        label = bundle.kb2.label("y:m3_1")
        deltas = [
            KBDelta(
                ops=(
                    DeltaOp("add_entity", 1, "x:m2_77", value="studio002 film extra077"),
                    DeltaOp("add_entity", 2, "y:m2_77", value="studio002 film extra077"),
                    DeltaOp("add_relation", 1, "x:d2", "directed", "x:m2_77"),
                    DeltaOp("add_relation", 2, "y:d2", "directed", "y:m2_77"),
                    DeltaOp("remove_attribute", 2, "y:m3_1", "rdfs:label", label),
                    DeltaOp("add_attribute", 2, "y:m3_1", "rdfs:label", label + " cut"),
                    DeltaOp("remove_entity", 1, "x:a1_0"),
                    DeltaOp("remove_entity", 2, "y:a1_0"),
                ),
            ),
            # Empties the signature of retained pairs such as
            # ("x:a0_0", "y:a0_1"), and the attribute alignment holds.
            KBDelta(ops=(DeltaOp("remove_attribute", 1, "x:a0_0", "born", 1950),)),
        ]
        for delta in deltas:
            prepared = incremental_prepare(state, delta, config)
            assert not prepared.fell_back
            full = Remp(config).prepare(*delta.apply(bundle.kb1, bundle.kb2))
            assert prepared_state_to_doc(prepared.state) == prepared_state_to_doc(full)
            assert prepared.fingerprint == kb_pair_fingerprint(full.kb1, full.kb2)

    def test_changed_set_is_conservative(self, clustered6_bundle):
        """Every pair whose artifacts differ must be in the changed set."""
        bundle = clustered6_bundle
        config = RempConfig()
        state = Remp(config).prepare(bundle.kb1, bundle.kb2)
        delta = KBDelta(ops=(DeltaOp("remove_entity", 1, "x:m4_0"),
                             DeltaOp("remove_entity", 2, "y:m4_0")))
        prepared = incremental_prepare(state, delta, config)
        assert prepared.changed is not None
        new = prepared.state
        union = state.retained | new.retained
        for pair in union - set(prepared.changed):
            assert (pair in state.retained) == (pair in new.retained)
            assert state.graph.groups.get(pair, {}) == new.graph.groups.get(pair, {})
            assert state.priors.get(pair) == new.priors.get(pair)
            assert state.signatures.get(pair) == new.signatures.get(pair)

    def test_untouched_clusters_stay_clean(self, clustered6_bundle):
        bundle = clustered6_bundle
        config = RempConfig()
        state = Remp(config).prepare(bundle.kb1, bundle.kb2)
        # A relation edit inside cluster 0: relations never feed attribute
        # matching, so no global fallback — and dirt stays in the cluster.
        delta = KBDelta(
            ops=(
                DeltaOp("add_relation", 1, "x:m0_0", "stars", "x:a0_1"),
                DeltaOp("add_relation", 2, "y:m0_0", "stars", "y:a0_1"),
            )
        )
        prepared = incremental_prepare(state, delta, config)
        assert not prepared.fell_back
        assert prepared.changed is not None
        assert prepared.changed
        # Dirt is confined to cluster 0's entities.
        for left, right in prepared.changed:
            assert "0_" in left or left == "x:d0"
            assert "0_" in right or right == "y:d0"

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 50), step=st.integers(0, 2))
    def test_every_evolving_step_splices_exactly(self, seed, step):
        """The core invariant under randomized deltas: doc equality."""
        evolving = evolving_bundle(seed=seed, scale=0.4, steps=3)
        config = RempConfig()
        before = evolving.bundle_at(step)
        state = Remp(config).prepare(before.kb1, before.kb2)
        prepared = incremental_prepare(state, evolving.deltas[step], config)
        after = evolving.bundle_at(step + 1)
        full = Remp(config).prepare(after.kb1, after.kb2)
        assert prepared_state_to_doc(prepared.state) == prepared_state_to_doc(full)


_LEFT = st.sampled_from([f"x:{i}" for i in range(8)])
_RIGHT = st.sampled_from([f"y:{i}" for i in range(8)])
_PAIRS = st.sets(st.tuples(_LEFT, _RIGHT), max_size=24)


class TestDirtyClosure:
    @settings(max_examples=300, deadline=None)
    @given(old=_PAIRS, new=_PAIRS, dirty1=st.sets(_LEFT), dirty2=st.sets(_RIGHT))
    def test_walk_equals_union_find(self, old, new, dirty1, dirty2):
        """The by-entity walk finds the union–find closure exactly."""
        assert _dirty_closure(old, new, dirty1, dirty2) == reference.dirty_closure(
            old, new, dirty1, dirty2
        )


class TestSpliceComponents:
    def test_a_touched_component_is_walked_whole(self):
        """A parent component with a changed pair is walked, all of it.

        ``(x:1, y:2)`` shares ``x:1`` with the changed pair but is not
        changed itself (a vertex whose groups alone changed is such a
        pair), so only the parent's component brings it into the walk.
        The untouched component is kept as the parent's own object.
        """
        touched = frozenset({("x:1", "y:1"), ("x:1", "y:2")})
        untouched = frozenset({("x:3", "y:3")})
        retained = set(touched | untouched)
        graph = ERGraph(vertices=set(retained))
        spliced = _splice_components(
            [touched, untouched], retained, graph, {("x:1", "y:1")}
        )
        assert set(spliced) == {touched, untouched}
        assert any(component is untouched for component in spliced)
        assert _splice_components(None, retained, graph, set()) is None
