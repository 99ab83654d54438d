"""Round-trip tests for KB serialization, and the canonical content."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import reference
from repro.datasets import evolving_bundle
from repro.kb import KnowledgeBase, kb_to_doc, load_kb_json, load_kb_tsv, save_kb_json, save_kb_tsv
from repro.kb.io import kb_pair_fingerprint


@pytest.fixture()
def kb():
    kb = KnowledgeBase("io-test")
    kb.add_entity("p1", label="Joan Cusack")
    kb.add_attribute_triple("p1", "born", 1962)
    kb.add_entity("c1", label="Evanston")
    kb.add_relationship_triple("p1", "wasBornIn", "c1")
    kb.add_entity("lonely")
    return kb


def _same_shape(a: KnowledgeBase, b: KnowledgeBase) -> bool:
    return (
        a.entities == b.entities
        and a.attributes == b.attributes
        and a.relationships == b.relationships
        and a.num_relationship_triples == b.num_relationship_triples
    )


def test_json_roundtrip(tmp_path, kb):
    path = tmp_path / "kb.json"
    save_kb_json(kb, path)
    loaded = load_kb_json(path)
    assert _same_shape(kb, loaded)
    # JSON preserves literal types.
    assert loaded.attribute_values("p1", "born") == {1962}
    assert loaded.label("p1") == "Joan Cusack"


def test_json_preserves_isolated_entities(tmp_path, kb):
    path = tmp_path / "kb.json"
    save_kb_json(kb, path)
    loaded = load_kb_json(path)
    assert "lonely" in loaded.entities


def test_tsv_roundtrip_stringifies_literals(tmp_path, kb):
    path = tmp_path / "kb.tsv"
    save_kb_tsv(kb, path)
    loaded = load_kb_tsv(path, name="io-test")
    assert loaded.relation_values("p1", "wasBornIn") == {"c1"}
    assert loaded.attribute_values("p1", "born") == {"1962"}


def test_tsv_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\n")
    with pytest.raises(ValueError, match="expected 4"):
        load_kb_tsv(path)


def test_tsv_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\tX\n")
    with pytest.raises(ValueError, match="unknown triple kind"):
        load_kb_tsv(path)


def test_empty_kb_roundtrips(tmp_path):
    kb = KnowledgeBase("empty")
    json_path = tmp_path / "kb.json"
    tsv_path = tmp_path / "kb.tsv"
    save_kb_json(kb, json_path)
    save_kb_tsv(kb, tsv_path)
    assert len(load_kb_json(json_path)) == 0
    assert len(load_kb_tsv(tsv_path)) == 0


# ----------------------------------------------------------------------
# The kept canonical content against the reference's sort
# ----------------------------------------------------------------------
_ENTITY = st.sampled_from(["e0", "e1", "e2", "e3"])
_ATTRIBUTE = st.sampled_from(["a", "rdfs:label"])
_RELATION = st.sampled_from(["r", "s"])
# 1, 1.0 and True are one set element: a set holds at most one of them.
_LITERAL = st.sampled_from([1, 1.0, True, 0, 0.0, False, "1", "True", "x", 2.5])
_OP = st.one_of(
    st.tuples(st.just("add_entity"), _ENTITY, st.sampled_from([None, "x", "1"])),
    st.tuples(st.just("add_attribute_triple"), _ENTITY, _ATTRIBUTE, _LITERAL),
    st.tuples(st.just("remove_attribute_triple"), _ENTITY, _ATTRIBUTE, _LITERAL),
    st.tuples(st.just("add_relationship_triple"), _ENTITY, _RELATION, _ENTITY),
    st.tuples(st.just("remove_relationship_triple"), _ENTITY, _RELATION, _ENTITY),
    st.tuples(st.just("remove_entity"), _ENTITY),
    st.tuples(st.just("copy")),
)


def _bytes(doc: dict) -> str:
    # JSON tells 1, 1.0 and true apart; ``==`` on the documents does not.
    return json.dumps(doc, sort_keys=True)


def _apply(kb: KnowledgeBase, op: tuple) -> KnowledgeBase:
    name, *args = op
    if name == "copy":
        return kb.copy()
    getattr(kb, name)(*args)
    return kb


def _partner() -> KnowledgeBase:
    partner = KnowledgeBase("partner")
    partner.add_entity("p", label="x")
    partner.add_relationship_triple("p", "r", "q")
    return partner


class TestCanonicalContent:
    @settings(max_examples=300, deadline=None)
    @given(before=st.lists(_OP, max_size=12), after=st.lists(_OP, max_size=30))
    def test_kept_content_equals_a_fresh_sort(self, before, after):
        """After every step, the document and fingerprint equal the reference's.

        ``before`` runs ahead of the first request, so the content is
        built on a mutated KB; ``after`` patches the built content.  A
        copy carries it, and mutating the copy leaves the original's
        as it was.
        """
        partner = _partner()
        kb = KnowledgeBase("kb")
        for op in before:
            kb = _apply(kb, op)
        for op in after:
            original, fingerprint = kb, reference.kb_pair_fingerprint(kb, partner)
            kb = _apply(kb, op)
            assert _bytes(kb_to_doc(kb)) == _bytes(reference.kb_to_doc(kb))
            assert kb_pair_fingerprint(kb, partner) == reference.kb_pair_fingerprint(
                kb, partner
            )
            assert kb_pair_fingerprint(partner, kb) == reference.kb_pair_fingerprint(
                partner, kb
            )
            if original is not kb:
                assert kb_pair_fingerprint(original, partner) == fingerprint

    def test_a_removal_drops_the_literal_the_set_held(self):
        kb = KnowledgeBase("kb")
        kb.add_attribute_triple("e", "a", True)
        kb.add_attribute_triple("e", "a", "x")
        kb_to_doc(kb)
        kb.add_attribute_triple("e", "a", 1)  # already held, as True
        assert _bytes(kb_to_doc(kb)) == _bytes(reference.kb_to_doc(kb))
        # 1's own sort key falls between True's and "x"'s.
        assert kb.remove_attribute_triple("e", "a", 1)
        assert kb_to_doc(kb)["attribute_triples"] == [["e", "a", "x"]]
        assert _bytes(kb_to_doc(kb)) == _bytes(reference.kb_to_doc(kb))

    def test_documents_never_hand_out_the_kept_lists(self, kb):
        expected = _bytes(reference.kb_to_doc(kb))
        doc = kb_to_doc(kb)
        kept = kb.canonical_content()
        for name, lst in zip(
            ("entities", "attribute_triples", "relationship_triples"), kept
        ):
            assert doc[name] is not lst
        doc["entities"].clear()
        doc["attribute_triples"][0].append("stray")
        doc["relationship_triples"].append(["x", "y", "z"])
        assert _bytes(kb_to_doc(kb)) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evolving_deltas_pin_the_reference_fingerprint(self, seed):
        """Each delta's ``parent_fingerprint`` is the pair it applies to."""
        evolving = evolving_bundle(seed, 6, steps=16)
        kb1, kb2 = evolving.base.kb1, evolving.base.kb2
        for delta in evolving.deltas:
            assert delta.parent_fingerprint == reference.kb_pair_fingerprint(kb1, kb2)
            kb1, kb2 = delta.apply(kb1, kb2)
