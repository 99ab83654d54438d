"""Tests for the synthetic dataset suite."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DATASET_NAMES, generate_dataset, load_dataset
from repro.datasets.profiles import PROFILE_BUILDERS, iimb_config
from repro.datasets.synthesis import (
    AttributeSpec,
    NoiseConfig,
    RelationSpec,
    TypeSpec,
    WorldConfig,
    _sample_degree,
)
from repro.datasets.vocab import make_vocabulary, make_word, typo


class TestVocab:
    def test_vocabulary_distinct(self):
        words = make_vocabulary(random.Random(0), 300)
        assert len(words) == 300
        assert len(set(words)) == 300

    def test_make_word_nonempty(self):
        rng = random.Random(1)
        for _ in range(50):
            assert make_word(rng)

    def test_typo_changes_word_usually(self):
        rng = random.Random(2)
        changed = sum(1 for _ in range(100) if typo(rng, "example") != "example")
        assert changed > 90

    def test_typo_empty_word(self):
        assert typo(random.Random(0), "") == ""


class TestSampleDegree:
    def test_mean_one_is_deterministic(self):
        rng = random.Random(0)
        assert all(_sample_degree(rng, 1.0) == 1 for _ in range(20))

    def test_mean_respected_roughly(self):
        rng = random.Random(3)
        samples = [_sample_degree(rng, 2.5) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 2.1 < mean < 2.9
        assert min(samples) >= 1


class TestGeneration:
    @pytest.fixture(scope="class")
    def bundle(self):
        return load_dataset("iimb", seed=0)

    def test_gold_matches_exist_in_both_kbs(self, bundle):
        for e1, e2 in bundle.gold_matches:
            assert e1 in bundle.kb1
            assert e2 in bundle.kb2

    def test_gold_matches_are_one_to_one(self, bundle):
        lefts = [e1 for e1, _ in bundle.gold_matches]
        rights = [e2 for _, e2 in bundle.gold_matches]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)

    def test_entity_types_cover_all_entities(self, bundle):
        for entity in bundle.kb1.entities:
            assert entity in bundle.entity_types
        for entity in bundle.kb2.entities:
            assert entity in bundle.entity_types

    def test_deterministic_generation(self):
        a = generate_dataset(iimb_config(), seed=7)
        b = generate_dataset(iimb_config(), seed=7)
        assert a.gold_matches == b.gold_matches
        assert a.kb1.entities == b.kb1.entities
        assert sorted(t.as_tuple() for t in a.kb1.iter_triples()) == sorted(
            t.as_tuple() for t in b.kb1.iter_triples()
        )

    def test_different_seeds_differ(self):
        a = generate_dataset(iimb_config(), seed=1)
        b = generate_dataset(iimb_config(), seed=2)
        assert a.gold_matches != b.gold_matches

    def test_exact_label_pairs_exist(self, bundle):
        exact = [
            (e1, e2)
            for e1, e2 in bundle.gold_matches
            if bundle.kb1.labels(e1) & bundle.kb2.labels(e2)
        ]
        assert len(exact) >= len(bundle.gold_matches) * 0.3

    def test_attribute_gold_refers_to_real_attributes(self, bundle):
        for a1, a2 in bundle.gold_attribute_matches:
            assert a1 in bundle.kb1.attributes
            assert a2 in bundle.kb2.attributes


class TestProfiles:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_profiles_generate(self, name):
        bundle = load_dataset(name, seed=0, scale=0.3)
        assert len(bundle.gold_matches) > 10
        assert len(bundle.kb1) > 20
        assert len(bundle.kb2) > 20

    def test_dblp_acm_asymmetric(self):
        # DBLP is much larger than ACM; authors follow their publications,
        # which softens the raw ratio, so require a clear 1.5x asymmetry.
        bundle = load_dataset("dblp_acm", seed=0)
        assert len(bundle.kb2) > 1.5 * len(bundle.kb1)

    def test_dblp_acm_single_relationship(self):
        bundle = load_dataset("dblp_acm", seed=0)
        assert len(bundle.kb1.relationships) == 1
        assert len(bundle.kb2.relationships) == 1

    def test_iimb_schemas_identical(self):
        bundle = load_dataset("iimb", seed=0)
        assert bundle.kb1.attributes == bundle.kb2.attributes
        assert bundle.kb1.relationships == bundle.kb2.relationships

    def test_imdb_yago_schemas_renamed(self):
        bundle = load_dataset("imdb_yago", seed=0)
        assert "actedIn" in bundle.kb1.relationships
        assert "performedIn" in bundle.kb2.relationships
        assert "actedIn" not in bundle.kb2.relationships

    def test_isolated_share_ordering(self):
        """Isolated-match share grows IIMB < I-Y < D-Y as in Table VIII."""

        def isolated_share(name):
            bundle = load_dataset(name, seed=0)
            isolated = sum(
                1
                for e1, e2 in bundle.gold_matches
                if not bundle.kb1.has_relations(e1) and not bundle.kb2.has_relations(e2)
            )
            return isolated / len(bundle.gold_matches)

        assert isolated_share("iimb") < isolated_share("imdb_yago") < isolated_share("dbpedia_yago")

    def test_dbpedia_yago_has_attribute_clutter(self):
        bundle = load_dataset("dbpedia_yago", seed=0)
        assert len(bundle.kb1.attributes) > 2 * len(bundle.gold_attribute_matches)

    def test_scale_changes_size(self):
        small = load_dataset("iimb", seed=0, scale=0.25)
        full = load_dataset("iimb", seed=0, scale=1.0)
        assert len(small.kb1) < len(full.kb1) / 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("nope")

    def test_registry_caches(self):
        a = load_dataset("iimb", seed=3)
        b = load_dataset("iimb", seed=3)
        assert a is b


@pytest.mark.parametrize("seed, scale", [(0, 0.4), (0, 6), (3, 1.0), (65, 16)])
def test_evolving_base_is_the_bundles_base_world(seed, scale):
    """``load_dataset("evolving")`` builds only the base world, and it is
    the world ``evolving_bundle`` authors its deltas against."""
    from repro.datasets import evolving_bundle
    from repro.datasets.evolving import evolving_base
    from repro.kb import kb_to_doc

    base = evolving_bundle(seed, scale).base
    for world in (
        evolving_base(seed, scale),
        load_dataset("evolving", seed=seed, scale=scale),
    ):
        assert world.name == base.name
        assert kb_to_doc(world.kb1) == kb_to_doc(base.kb1)
        assert kb_to_doc(world.kb2) == kb_to_doc(base.kb2)
        assert world.gold_matches == base.gold_matches
        assert world.gold_attribute_matches == base.gold_attribute_matches
        assert world.gold_relationship_matches == base.gold_relationship_matches
        assert world.entity_types == base.entity_types


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_world_generation_invariants(seed):
    """Generated KBs never reference entities outside themselves."""
    config = WorldConfig(
        name="prop",
        types=(
            TypeSpec(
                "a",
                20,
                attributes=(AttributeSpec("x", kind="number"),),
                relations=(RelationSpec("r", "b", mean_degree=1.5),),
            ),
            TypeSpec("b", 15),
        ),
        noise2=NoiseConfig(label_typo_prob=0.3, edge_drop_prob=0.2),
    )
    bundle = generate_dataset(config, seed=seed)
    for kb in (bundle.kb1, bundle.kb2):
        for triple in kb.iter_relationship_triples():
            assert triple.subject in kb
            assert str(triple.value) in kb


@pytest.mark.parametrize("name", PROFILE_BUILDERS)
def test_profile_fractions_sum_below_one(name):
    config = PROFILE_BUILDERS[name]()
    assert config.overlap + config.only1 + config.only2 <= 1.0 + 1e-9
