"""Seeded two-KB world synthesis.

A *world* is a set of typed entities with attribute values and
relationships.  Two KBs are derived from the world by (a) sampling which
entities each KB contains, (b) renaming attributes and relationships
according to per-KB schema maps, and (c) corrupting labels, values and
edges with configurable noise.  Entities present in both KBs form the gold
standard; the schema maps define gold attribute matches.

The derivation knobs correspond directly to phenomena the paper's
evaluation hinges on: exact-label pairs seed the attribute matching and
consistency estimation (``M_in``), label noise controls candidate-set pair
completeness (Table V), missing labels reproduce the D-Y recall ceiling,
and relation-free entity types create the isolated pairs of Table VIII.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets.vocab import make_vocabulary, typo
from repro.kb.model import KnowledgeBase


@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """One attribute of an entity type.

    ``kind`` is ``"string"`` (values drawn from a per-attribute vocabulary),
    ``"number"`` (uniform floats) or ``"year"`` (integers in a range).
    ``presence`` is the probability that an entity carries the attribute.
    """

    name: str
    kind: str = "string"
    tokens: int = 2
    values_per_entity: int = 1
    presence: float = 1.0


@dataclass(frozen=True, slots=True)
class RelationSpec:
    """One outgoing relationship of an entity type.

    ``mean_degree`` is the expected number of targets (geometric-ish
    sampling, at least 1 when present); ``presence`` the probability that an
    entity has the relationship at all.
    """

    name: str
    target_type: str
    mean_degree: float = 1.0
    presence: float = 1.0


@dataclass(frozen=True, slots=True)
class TypeSpec:
    """An entity type: how many entities, their attributes and relations.

    ``placement_from_sources`` makes entities of this type appear in a KB
    exactly when some entity pointing at them does — authors exist in a
    bibliography only through their publications, for example.
    """

    name: str
    count: int
    attributes: tuple[AttributeSpec, ...] = ()
    relations: tuple[RelationSpec, ...] = ()
    label_tokens: int = 2
    placement_from_sources: bool = False


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    """Per-KB corruption applied when deriving a KB from the world."""

    label_typo_prob: float = 0.0
    label_token_drop_prob: float = 0.0
    label_missing_prob: float = 0.0
    value_noise_prob: float = 0.0
    value_break_prob: float = 0.0
    attribute_drop_prob: float = 0.0
    edge_drop_prob: float = 0.0


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Full recipe for a synthetic dataset."""

    name: str
    types: tuple[TypeSpec, ...]
    #: Fraction of world entities present in both KBs (gold matches).
    overlap: float = 0.7
    #: Fractions present only in KB1 / only in KB2.
    only1: float = 0.15
    only2: float = 0.15
    #: Fraction of matched entities whose labels stay exactly equal in both
    #: KBs (these seed ``M_in``).
    exact_label_fraction: float = 0.3
    #: Fraction of entities per type that are *homonyms*: they copy the
    #: label of another same-type entity.  Homonyms create exact-label
    #: non-matches, so the initial matches ``M_in`` contain errors and the
    #: similarity partial order is genuinely non-monotone — the phenomenon
    #: that hurts monotonicity-based systems in the paper.
    homonym_fraction: float = 0.0
    noise1: NoiseConfig = field(default=NoiseConfig())
    noise2: NoiseConfig = field(default=NoiseConfig())
    #: Schema maps: world property name -> per-KB name.  Missing keys keep
    #: the world name in both KBs (IIMB-style identical schemas).
    schema1: dict[str, str] = field(default_factory=dict)
    schema2: dict[str, str] = field(default_factory=dict)
    #: Extra unmatched attribute names added to each KB with random values,
    #: reproducing schema clutter (DBpedia has 684 attributes, YAGO 36).
    extra_attributes1: int = 0
    extra_attributes2: int = 0
    vocabulary_size: int = 400
    value_vocabulary_size: int = 150


@dataclass(slots=True)
class DatasetBundle:
    """A generated dataset: two KBs plus the gold standard."""

    name: str
    kb1: KnowledgeBase
    kb2: KnowledgeBase
    gold_matches: set[tuple[str, str]]
    gold_attribute_matches: set[tuple[str, str]]
    gold_relationship_matches: set[tuple[str, str]]
    #: kb-entity id -> world type name (for analysis and partitioning).
    entity_types: dict[str, str]

    @property
    def num_matches(self) -> int:
        return len(self.gold_matches)


@dataclass(slots=True)
class _WorldEntity:
    world_id: str
    type_name: str
    label_tokens: list[str]
    attributes: dict[str, list[object]]


def _sample_degree(rng: random.Random, mean: float) -> int:
    """At-least-1 geometric-style degree with the given mean."""
    if mean <= 1.0:
        return 1
    extra = mean - 1.0
    count = 1
    while rng.random() < extra / (1.0 + extra):
        count += 1
        if count > mean * 6:  # guard against pathological streaks
            break
    return count


class _WorldBuilder:
    """Generates the shared world and derives the two noisy KBs."""

    def __init__(self, config: WorldConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self.label_vocab = make_vocabulary(self.rng, config.vocabulary_size)
        self.value_vocab = make_vocabulary(self.rng, config.value_vocabulary_size)
        self.entities: dict[str, _WorldEntity] = {}
        self.by_type: dict[str, list[str]] = {}
        self.edges: list[tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    def build_world(self) -> None:
        for spec in self.config.types:
            ids = []
            for i in range(spec.count):
                world_id = f"{spec.name}#{i}"
                tokens = self.rng.sample(self.label_vocab, spec.label_tokens)
                attributes = self._sample_attributes(spec)
                self.entities[world_id] = _WorldEntity(world_id, spec.name, tokens, attributes)
                ids.append(world_id)
            self.by_type[spec.name] = ids
            self._introduce_homonyms(ids)
        for spec in self.config.types:
            for world_id in self.by_type[spec.name]:
                self._sample_relations(spec, world_id)

    def _introduce_homonyms(self, ids: list[str]) -> None:
        """Give a fraction of entities the label of a same-type sibling."""
        fraction = self.config.homonym_fraction
        if fraction <= 0.0 or len(ids) < 2:
            return
        rng = self.rng
        for world_id in ids:
            if rng.random() < fraction:
                donor = rng.choice(ids)
                if donor != world_id:
                    self.entities[world_id].label_tokens = list(
                        self.entities[donor].label_tokens
                    )

    def _sample_attributes(self, spec: TypeSpec) -> dict[str, list[object]]:
        rng = self.rng
        attributes: dict[str, list[object]] = {}
        for attr in spec.attributes:
            if rng.random() >= attr.presence:
                continue
            values: list[object] = []
            for _ in range(attr.values_per_entity):
                if attr.kind == "string":
                    words = rng.sample(self.value_vocab, attr.tokens)
                    values.append(" ".join(words))
                elif attr.kind == "number":
                    values.append(round(rng.uniform(10.0, 1000.0), 2))
                elif attr.kind == "year":
                    # Date strings, not integers: percentage difference makes
                    # bare years non-discriminative (1950 vs 1980 -> 0.985),
                    # whereas real KB dates compare as token sets.
                    year = rng.randrange(1900, 2020)
                    month = rng.randrange(1, 13)
                    day = rng.randrange(1, 29)
                    values.append(f"{year}-{month:02d}-{day:02d}")
                else:
                    raise ValueError(f"unknown attribute kind {attr.kind!r}")
            attributes[attr.name] = values
        return attributes

    def _sample_relations(self, spec: TypeSpec, world_id: str) -> None:
        rng = self.rng
        for rel in spec.relations:
            if rng.random() >= rel.presence:
                continue
            targets = self.by_type.get(rel.target_type, [])
            if not targets:
                continue
            degree = min(_sample_degree(rng, rel.mean_degree), len(targets))
            for target in rng.sample(targets, degree):
                if target != world_id:
                    self.edges.append((world_id, rel.name, target))

    # ------------------------------------------------------------------
    def derive(self) -> DatasetBundle:
        config = self.config
        rng = self.rng
        derived_types = {t.name for t in config.types if t.placement_from_sources}
        placement: dict[str, str] = {}
        for world_id, entity in self.entities.items():
            if entity.type_name in derived_types:
                continue
            roll = rng.random()
            if roll < config.overlap:
                placement[world_id] = "both"
            elif roll < config.overlap + config.only1:
                placement[world_id] = "kb1"
            elif roll < config.overlap + config.only1 + config.only2:
                placement[world_id] = "kb2"
            else:
                placement[world_id] = "none"
        if derived_types:
            in1: set[str] = set()
            in2: set[str] = set()
            for source, _, target in self.edges:
                if self.entities[target].type_name not in derived_types:
                    continue
                where = placement.get(source)
                if where in ("both", "kb1"):
                    in1.add(target)
                if where in ("both", "kb2"):
                    in2.add(target)
            for world_id, entity in self.entities.items():
                if entity.type_name not in derived_types:
                    continue
                present1, present2 = world_id in in1, world_id in in2
                if present1 and present2:
                    placement[world_id] = "both"
                elif present1:
                    placement[world_id] = "kb1"
                elif present2:
                    placement[world_id] = "kb2"
                else:
                    placement[world_id] = "none"

        matched = [w for w, where in placement.items() if where == "both"]
        exact_count = int(len(matched) * config.exact_label_fraction)
        exact_label_ids = set(rng.sample(matched, exact_count)) if exact_count else set()

        kb1 = KnowledgeBase(f"{config.name}-1")
        kb2 = KnowledgeBase(f"{config.name}-2")
        id1: dict[str, str] = {}
        id2: dict[str, str] = {}
        entity_types: dict[str, str] = {}
        for world_id, where in placement.items():
            entity = self.entities[world_id]
            if where in ("both", "kb1"):
                local = f"x:{world_id}"
                id1[world_id] = local
                entity_types[local] = entity.type_name
                self._materialize(kb1, local, entity, config.noise1, config.schema1,
                                  exact=world_id in exact_label_ids)
            if where in ("both", "kb2"):
                local = f"y:{world_id}"
                id2[world_id] = local
                entity_types[local] = entity.type_name
                self._materialize(kb2, local, entity, config.noise2, config.schema2,
                                  exact=world_id in exact_label_ids)

        self._materialize_edges(kb1, id1, config.noise1, config.schema1)
        self._materialize_edges(kb2, id2, config.noise2, config.schema2)
        self._add_extra_attributes(kb1, config.extra_attributes1, "k1")
        self._add_extra_attributes(kb2, config.extra_attributes2, "k2")

        gold_matches = {(id1[w], id2[w]) for w in matched}
        attr_names = {a.name for t in config.types for a in t.attributes}
        rel_names = {r.name for t in config.types for r in t.relations}
        gold_attribute_matches = {
            (config.schema1.get(name, name), config.schema2.get(name, name))
            for name in attr_names
        }
        gold_relationship_matches = {
            (config.schema1.get(name, name), config.schema2.get(name, name))
            for name in rel_names
        }
        return DatasetBundle(
            name=config.name,
            kb1=kb1,
            kb2=kb2,
            gold_matches=gold_matches,
            gold_attribute_matches=gold_attribute_matches,
            gold_relationship_matches=gold_relationship_matches,
            entity_types=entity_types,
        )

    # ------------------------------------------------------------------
    def _materialize(
        self,
        kb: KnowledgeBase,
        local_id: str,
        entity: _WorldEntity,
        noise: NoiseConfig,
        schema: dict[str, str],
        exact: bool,
    ) -> None:
        rng = self.rng
        kb.add_entity(local_id)
        if exact or rng.random() >= noise.label_missing_prob:
            tokens = list(entity.label_tokens)
            if not exact:
                if len(tokens) > 1 and rng.random() < noise.label_token_drop_prob:
                    tokens.pop(rng.randrange(len(tokens)))
                if rng.random() < noise.label_typo_prob:
                    pos = rng.randrange(len(tokens))
                    tokens[pos] = typo(rng, tokens[pos])
            kb.add_attribute_triple(local_id, "rdfs:label", " ".join(tokens))
        for attr_name, values in entity.attributes.items():
            if rng.random() < noise.attribute_drop_prob:
                continue
            kb_attr = schema.get(attr_name, attr_name)
            for value in values:
                kb.add_attribute_triple(local_id, kb_attr, self._noisy_value(value, noise))

    def _noisy_value(self, value: object, noise: NoiseConfig) -> object:
        rng = self.rng
        if rng.random() >= noise.value_noise_prob:
            return value
        broken = rng.random() < noise.value_break_prob
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            factor = rng.uniform(0.3, 0.7) if broken else rng.uniform(0.96, 1.04)
            scaled = float(value) * factor
            return int(scaled) if isinstance(value, int) else round(scaled, 2)
        words = str(value).split(" ")
        if broken:
            words = rng.sample(self.value_vocab, max(1, len(words)))
        else:
            pos = rng.randrange(len(words))
            words[pos] = typo(rng, words[pos])
        return " ".join(words)

    def _materialize_edges(
        self,
        kb: KnowledgeBase,
        ids: dict[str, str],
        noise: NoiseConfig,
        schema: dict[str, str],
    ) -> None:
        rng = self.rng
        for source, relation, target in self.edges:
            if source not in ids or target not in ids:
                continue
            if rng.random() < noise.edge_drop_prob:
                continue
            kb.add_relationship_triple(ids[source], schema.get(relation, relation), ids[target])

    def _add_extra_attributes(self, kb: KnowledgeBase, count: int, prefix: str) -> None:
        """Schema clutter: rare attributes present in only one KB."""
        if count <= 0:
            return
        rng = self.rng
        entities = sorted(kb.entities)
        for i in range(count):
            attr = f"{prefix}:extra_{i}"
            for entity in rng.sample(entities, min(3, len(entities))):
                kb.add_attribute_triple(entity, attr, " ".join(rng.sample(self.value_vocab, 2)))


def generate_dataset(config: WorldConfig, seed: int = 0) -> DatasetBundle:
    """Generate a :class:`DatasetBundle` from ``config`` deterministically."""
    builder = _WorldBuilder(config, seed)
    builder.build_world()
    return builder.derive()
