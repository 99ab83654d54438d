"""In-memory knowledge base model.

The paper models a KB as a 5-tuple ``K = (U, L, A, R, T)`` where attribute
triples ``(entity, attribute, literal)`` attach literals to entities and
relationship triples ``(entity, relationship, entity)`` link entities.  The
algorithms in :mod:`repro.core` only ever touch a KB through the value-set
accessors ``attribute_values`` (``N^a_u``) and ``relation_values``
(``N^r_u``), plus the label and neighborhood indexes, so those are kept as
precomputed dictionaries for O(1) lookup.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator


#: Attribute conventionally holding an entity's human-readable label.
LABEL_ATTRIBUTE = "rdfs:label"


def attribute_triple_key(triple: tuple) -> tuple:
    """Type-stable sort key: literals of mixed types cannot be compared."""
    subject, prop, value = triple
    return (subject, prop, type(value).__name__, str(value))


@dataclass(frozen=True, slots=True)
class Triple:
    """A single KB fact ``(subject, property, value)``.

    ``is_relation`` distinguishes relationship triples (value is an entity
    identifier) from attribute triples (value is a literal).
    """

    subject: str
    prop: str
    value: object
    is_relation: bool = False

    def as_tuple(self) -> tuple[str, str, object]:
        return (self.subject, self.prop, self.value)


class KnowledgeBase:
    """A mutable knowledge base with value-set and neighborhood indexes.

    Parameters
    ----------
    name:
        Identifier used in logs, dataset registries and error messages.

    Examples
    --------
    >>> kb = KnowledgeBase("demo")
    >>> kb.add_entity("e1", label="Leonardo da Vinci")
    >>> kb.add_attribute_triple("e1", "birth_date", "1452-04-15")
    >>> kb.add_entity("m1", label="Mona Lisa")
    >>> kb.add_relationship_triple("e1", "works", "m1")
    >>> sorted(kb.relation_values("e1", "works"))
    ['m1']
    """

    def __init__(self, name: str = "kb"):
        self.name = name
        self._entities: set[str] = set()
        # entity -> attribute -> set of literals  (N^a_u)
        self._attr_values: dict[str, dict[str, set[object]]] = {}
        # entity -> relationship -> set of object entities  (N^r_u)
        self._rel_values: dict[str, dict[str, set[str]]] = {}
        # entity -> relationship -> set of subject entities (inverse index)
        self._rel_sources: dict[str, dict[str, set[str]]] = {}
        self._attributes: set[str] = set()
        self._relationships: set[str] = set()
        # Per-property triple counts, so removal can retire a property
        # name once its last triple goes (keeps the vocabulary sets
        # equal to a freshly-built KB's).
        self._attr_counts: dict[str, int] = {}
        self._rel_counts: dict[str, int] = {}
        self._n_attr_triples = 0
        self._n_rel_triples = 0
        # The canonical content (:meth:`canonical_content`): ``None`` until
        # first requested, then patched by every mutator.
        self._canonical: tuple[list[str], list[tuple], list[tuple]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_entity_name(self, entity: str) -> None:
        if entity not in self._entities:
            self._entities.add(entity)
            if self._canonical is not None:
                insort(self._canonical[0], entity)

    def add_entity(self, entity: str, label: str | None = None) -> None:
        """Register ``entity``; optionally attach a ``rdfs:label`` literal."""
        self._add_entity_name(entity)
        if label is not None:
            self.add_attribute_triple(entity, LABEL_ATTRIBUTE, label)

    def add_attribute_triple(self, entity: str, attribute: str, literal: object) -> None:
        """Add ``(entity, attribute, literal)`` to the attribute triples."""
        self._add_entity_name(entity)
        self._attributes.add(attribute)
        values = self._attr_values.setdefault(entity, {}).setdefault(attribute, set())
        if literal not in values:
            values.add(literal)
            self._n_attr_triples += 1
            self._attr_counts[attribute] = self._attr_counts.get(attribute, 0) + 1
            if self._canonical is not None:
                insort(
                    self._canonical[1], (entity, attribute, literal), key=attribute_triple_key
                )

    def add_relationship_triple(self, subject: str, relationship: str, obj: str) -> None:
        """Add ``(subject, relationship, object)`` to the relationship triples."""
        self._add_entity_name(subject)
        self._add_entity_name(obj)
        self._relationships.add(relationship)
        objs = self._rel_values.setdefault(subject, {}).setdefault(relationship, set())
        if obj not in objs:
            objs.add(obj)
            self._n_rel_triples += 1
            self._rel_counts[relationship] = self._rel_counts.get(relationship, 0) + 1
            self._rel_sources.setdefault(obj, {}).setdefault(relationship, set()).add(subject)
            if self._canonical is not None:
                insort(self._canonical[2], (subject, relationship, obj))

    def add_triples(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            if t.is_relation:
                self.add_relationship_triple(t.subject, t.prop, str(t.value))
            else:
                self.add_attribute_triple(t.subject, t.prop, t.value)

    # ------------------------------------------------------------------
    # Mutation (KB deltas, repro.stream)
    # ------------------------------------------------------------------
    def remove_attribute_triple(self, entity: str, attribute: str, literal: object) -> bool:
        """Remove ``(entity, attribute, literal)``; returns whether it existed.

        Empty value sets are pruned so the indexes look exactly as if the
        triple had never been added — the incremental preparer relies on
        a mutated KB being indistinguishable from a freshly-built one.
        """
        by_attr = self._attr_values.get(entity)
        if by_attr is None:
            return False
        values = by_attr.get(attribute)
        if values is None or literal not in values:
            return False
        if self._canonical is not None:
            # The set may hold an equal literal of another type (1, 1.0
            # and True are one element); the canonical triple is the one
            # it holds.
            held = next(v for v in values if v is literal or v == literal)
            triples = self._canonical[1]
            key = attribute_triple_key((entity, attribute, held))
            del triples[bisect_left(triples, key, key=attribute_triple_key)]
        values.discard(literal)
        self._n_attr_triples -= 1
        remaining = self._attr_counts.get(attribute, 1) - 1
        if remaining <= 0:
            self._attr_counts.pop(attribute, None)
            self._attributes.discard(attribute)
        else:
            self._attr_counts[attribute] = remaining
        if not values:
            del by_attr[attribute]
        if not by_attr:
            del self._attr_values[entity]
        return True

    def remove_relationship_triple(self, subject: str, relationship: str, obj: str) -> bool:
        """Remove ``(subject, relationship, object)``; returns whether it existed."""
        by_rel = self._rel_values.get(subject)
        if by_rel is None:
            return False
        objs = by_rel.get(relationship)
        if objs is None or obj not in objs:
            return False
        if self._canonical is not None:
            triples = self._canonical[2]
            del triples[bisect_left(triples, (subject, relationship, obj))]
        objs.discard(obj)
        self._n_rel_triples -= 1
        remaining = self._rel_counts.get(relationship, 1) - 1
        if remaining <= 0:
            self._rel_counts.pop(relationship, None)
            self._relationships.discard(relationship)
        else:
            self._rel_counts[relationship] = remaining
        if not objs:
            del by_rel[relationship]
        if not by_rel:
            del self._rel_values[subject]
        sources = self._rel_sources.get(obj, {})
        subjects = sources.get(relationship)
        if subjects is not None:
            subjects.discard(subject)
            if not subjects:
                del sources[relationship]
            if not sources and obj in self._rel_sources:
                del self._rel_sources[obj]
        return True

    def remove_entity(self, entity: str) -> bool:
        """Remove ``entity`` and every triple mentioning it."""
        if entity not in self._entities:
            return False
        for attribute, literals in list(self._attr_values.get(entity, {}).items()):
            for literal in list(literals):
                self.remove_attribute_triple(entity, attribute, literal)
        for relationship, objs in list(self._rel_values.get(entity, {}).items()):
            for obj in list(objs):
                self.remove_relationship_triple(entity, relationship, obj)
        for relationship, subjects in list(self._rel_sources.get(entity, {}).items()):
            for subject in list(subjects):
                self.remove_relationship_triple(subject, relationship, entity)
        self._entities.discard(entity)
        if self._canonical is not None:
            entities = self._canonical[0]
            del entities[bisect_left(entities, entity)]
        return True

    def copy(self, name: str | None = None) -> "KnowledgeBase":
        """An independent deep copy (delta application never mutates in place).

        The copy carries the canonical content, if built, so its own
        mutations patch it too.
        """
        clone = KnowledgeBase(name or self.name)
        clone._entities = set(self._entities)
        clone._attr_values = {
            entity: {attr: set(values) for attr, values in by_attr.items()}
            for entity, by_attr in self._attr_values.items()
        }
        clone._rel_values = {
            entity: {rel: set(objs) for rel, objs in by_rel.items()}
            for entity, by_rel in self._rel_values.items()
        }
        clone._rel_sources = {
            entity: {rel: set(subjects) for rel, subjects in by_rel.items()}
            for entity, by_rel in self._rel_sources.items()
        }
        clone._attributes = set(self._attributes)
        clone._relationships = set(self._relationships)
        clone._attr_counts = dict(self._attr_counts)
        clone._rel_counts = dict(self._rel_counts)
        clone._n_attr_triples = self._n_attr_triples
        clone._n_rel_triples = self._n_rel_triples
        if self._canonical is not None:
            clone._canonical = tuple(list(part) for part in self._canonical)
        return clone

    def canonical_content(self) -> tuple[list[str], list[tuple], list[tuple]]:
        """The KB's content in canonical order, as the KB keeps it.

        Returns the sorted entities, the attribute triples sorted by
        :func:`attribute_triple_key` and the sorted relationship
        triples, each triple a ``(subject, property, value)`` tuple.
        Equal KBs give equal lists, whatever their insertion order or
        mutation history.  The lists are built on the first call and
        patched by every mutator after it, so a later call walks
        nothing.  They are the KB's own: read them, never mutate them.
        """
        if self._canonical is None:
            self._canonical = (
                sorted(self._entities),
                sorted(
                    (
                        (entity, attribute, literal)
                        for entity, by_attr in self._attr_values.items()
                        for attribute, literals in by_attr.items()
                        for literal in literals
                    ),
                    key=attribute_triple_key,
                ),
                sorted(
                    (subject, relationship, obj)
                    for subject, by_rel in self._rel_values.items()
                    for relationship, objs in by_rel.items()
                    for obj in objs
                ),
            )
        return self._canonical

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def entities(self) -> set[str]:
        return self._entities

    @property
    def attributes(self) -> set[str]:
        return self._attributes

    @property
    def relationships(self) -> set[str]:
        return self._relationships

    @property
    def num_attribute_triples(self) -> int:
        return self._n_attr_triples

    @property
    def num_relationship_triples(self) -> int:
        return self._n_rel_triples

    def __contains__(self, entity: str) -> bool:
        return entity in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def attribute_values(self, entity: str, attribute: str) -> set[object]:
        """Value set ``N^a_u`` — literals of ``attribute`` on ``entity``."""
        return self._attr_values.get(entity, {}).get(attribute, set())

    def relation_values(self, entity: str, relationship: str) -> set[str]:
        """Value set ``N^r_u`` — objects of ``relationship`` on ``entity``."""
        return self._rel_values.get(entity, {}).get(relationship, set())

    def relation_sources(self, entity: str, relationship: str) -> set[str]:
        """Inverse value set — subjects pointing at ``entity`` via ``relationship``."""
        return self._rel_sources.get(entity, {}).get(relationship, set())

    def entity_attributes(self, entity: str) -> dict[str, set[object]]:
        """All attribute value sets of ``entity`` keyed by attribute name."""
        return self._attr_values.get(entity, {})

    def entity_relations(self, entity: str) -> dict[str, set[str]]:
        """All outgoing relationship value sets of ``entity``."""
        return self._rel_values.get(entity, {})

    def entity_inverse_relations(self, entity: str) -> dict[str, set[str]]:
        """All incoming relationship source sets of ``entity``."""
        return self._rel_sources.get(entity, {})

    def label(self, entity: str) -> str | None:
        """The first ``rdfs:label`` of ``entity``, or ``None`` if unlabeled."""
        labels = self.attribute_values(entity, LABEL_ATTRIBUTE)
        if not labels:
            return None
        return min(str(v) for v in labels)

    def labels(self, entity: str) -> set[str]:
        return {str(v) for v in self.attribute_values(entity, LABEL_ATTRIBUTE)}

    def has_relations(self, entity: str) -> bool:
        """True if ``entity`` occurs in any relationship triple."""
        return bool(self._rel_values.get(entity)) or bool(self._rel_sources.get(entity))

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_attribute_triples(self) -> Iterator[Triple]:
        for entity, by_attr in self._attr_values.items():
            for attribute, literals in by_attr.items():
                for literal in literals:
                    yield Triple(entity, attribute, literal, is_relation=False)

    def iter_relationship_triples(self) -> Iterator[Triple]:
        for subject, by_rel in self._rel_values.items():
            for relationship, objects in by_rel.items():
                for obj in objects:
                    yield Triple(subject, relationship, obj, is_relation=True)

    def iter_triples(self) -> Iterator[Triple]:
        yield from self.iter_attribute_triples()
        yield from self.iter_relationship_triples()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeBase(name={self.name!r}, entities={len(self._entities)}, "
            f"attributes={len(self._attributes)}, relationships={len(self._relationships)}, "
            f"attr_triples={self._n_attr_triples}, rel_triples={self._n_rel_triples})"
        )


@dataclass(slots=True)
class EntityPair:
    """An ordered pair of entities, one from each KB.

    Entity pairs are the vertices of the ER graph.  They are hashable and
    compare by the underlying identifiers, so plain tuples may be used
    interchangeably; this class exists for readability at API boundaries.
    """

    left: str
    right: str
    prior: float = field(default=0.5, compare=False)

    def as_tuple(self) -> tuple[str, str]:
        return (self.left, self.right)
