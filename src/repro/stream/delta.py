"""The KB-delta model: composable, serializable edits to a two-KB world.

A :class:`KBDelta` is an ordered list of primitive operations — add or
remove an entity, an attribute triple or a relationship triple, in either
KB — plus the simulation-side bookkeeping an evolving gold standard needs
(``gold_add`` / ``gold_remove``; the matcher never sees it, only the
simulated crowd and the evaluation do).  Deltas compose
(``first.compose(second)`` applies first's ops, then second's), round-trip
through plain JSON documents, and optionally pin the fingerprint of the
KB pair they apply to, so a stale delta is rejected instead of silently
corrupting a cached state.

``apply`` never mutates its inputs: it deep-copies both KBs, replays the
ops and returns the new pair.  The pinned fingerprint is
:func:`repro.kb.io.kb_pair_fingerprint`, re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase

Pair = tuple[str, str]

#: Primitive operation kinds, in their canonical spelling.
OP_KINDS = (
    "add_entity",
    "remove_entity",
    "add_attribute",
    "remove_attribute",
    "add_relation",
    "remove_relation",
)

#: Schema version written into (and required of) delta documents.
DELTA_VERSION = 1


@dataclass(frozen=True, slots=True)
class DeltaOp:
    """One primitive edit.

    ``kb`` selects the target KB (1 or 2).  ``subject`` is the entity the
    op touches; ``prop``/``value`` are the triple payload for attribute
    and relation ops (``value`` is the related entity for relation ops,
    the literal for attribute ops, and the optional label for
    ``add_entity``).
    """

    kind: str
    kb: int
    subject: str
    prop: str | None = None
    value: object = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown delta op kind {self.kind!r}")
        if self.kb not in (1, 2):
            raise ValueError(f"delta op kb must be 1 or 2, got {self.kb!r}")

    def apply(self, kb: KnowledgeBase) -> None:
        """Replay this op against the selected KB (already chosen by kb index)."""
        if self.kind == "add_entity":
            kb.add_entity(self.subject, label=self.value)
        elif self.kind == "remove_entity":
            kb.remove_entity(self.subject)
        elif self.kind == "add_attribute":
            kb.add_attribute_triple(self.subject, self.prop, self.value)
        elif self.kind == "remove_attribute":
            kb.remove_attribute_triple(self.subject, self.prop, self.value)
        elif self.kind == "add_relation":
            kb.add_relationship_triple(self.subject, self.prop, str(self.value))
        else:  # remove_relation
            kb.remove_relationship_triple(self.subject, self.prop, str(self.value))

    def to_doc(self) -> dict:
        doc = {"kind": self.kind, "kb": self.kb, "subject": self.subject}
        if self.prop is not None:
            doc["prop"] = self.prop
        if self.value is not None:
            doc["value"] = self.value
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "DeltaOp":
        return cls(
            kind=doc["kind"],
            kb=doc["kb"],
            subject=doc["subject"],
            prop=doc.get("prop"),
            value=doc.get("value"),
        )


@dataclass(frozen=True, slots=True)
class KBDelta:
    """An ordered batch of KB edits, with optional gold-standard updates.

    ``parent_fingerprint`` (when set) pins the KB pair this delta was
    authored against; appliers compare it to the pair at hand and refuse
    on mismatch.  ``gold_add`` / ``gold_remove`` update the *simulation's*
    ground truth — the matcher never reads them.
    """

    ops: tuple[DeltaOp, ...] = ()
    gold_add: tuple[Pair, ...] = ()
    gold_remove: tuple[Pair, ...] = ()
    parent_fingerprint: str | None = None

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def touched_entities(self) -> tuple[set[str], set[str]]:
        """Entities directly edited in KB1 and KB2 (the dirty seed sets).

        Every entity named by an op counts, including the object side of
        relation edits — a relation change alters both endpoints' value
        sets, hence both endpoints' ER-graph neighborhoods.
        """
        touched1: set[str] = set()
        touched2: set[str] = set()
        for op in self.ops:
            bucket = touched1 if op.kb == 1 else touched2
            bucket.add(op.subject)
            if op.kind in ("add_relation", "remove_relation"):
                bucket.add(str(op.value))
        return touched1, touched2

    def apply(
        self, kb1: KnowledgeBase, kb2: KnowledgeBase, *, check_fingerprint: bool = True
    ) -> tuple[KnowledgeBase, KnowledgeBase]:
        """Apply every op to deep copies of the pair; returns the new pair."""
        if check_fingerprint and self.parent_fingerprint is not None:
            actual = kb_pair_fingerprint(kb1, kb2)
            if actual != self.parent_fingerprint:
                raise DeltaConflictError(
                    f"delta was authored against KB pair {self.parent_fingerprint}, "
                    f"but the pair at hand has fingerprint {actual}"
                )
        new1, new2 = kb1.copy(), kb2.copy()
        for op in self.ops:
            op.apply(new1 if op.kb == 1 else new2)
        return new1, new2

    def apply_gold(self, gold: set[Pair]) -> set[Pair]:
        """The gold standard after this delta (simulation bookkeeping)."""
        return (set(gold) - set(self.gold_remove)) | set(self.gold_add)

    def compose(self, other: "KBDelta") -> "KBDelta":
        """``self`` then ``other`` as a single delta.

        Keeps ``self``'s parent fingerprint: the composition applies to
        the same base pair ``self`` does.  Gold edits fold left-to-right
        (an add in ``self`` survives unless ``other`` removes it).
        """
        gold_add = (set(self.gold_add) - set(other.gold_remove)) | set(other.gold_add)
        gold_remove = (set(self.gold_remove) - set(other.gold_add)) | set(
            other.gold_remove
        )
        return KBDelta(
            ops=self.ops + other.ops,
            gold_add=tuple(sorted(gold_add)),
            gold_remove=tuple(sorted(gold_remove)),
            parent_fingerprint=self.parent_fingerprint,
        )

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "version": DELTA_VERSION,
            "ops": [op.to_doc() for op in self.ops],
            "gold_add": sorted([left, right] for left, right in self.gold_add),
            "gold_remove": sorted([left, right] for left, right in self.gold_remove),
            "parent_fingerprint": self.parent_fingerprint,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "KBDelta":
        version = doc.get("version")
        if version != DELTA_VERSION:
            raise ValueError(
                f"unsupported KBDelta document version {version!r}; "
                f"expected {DELTA_VERSION}"
            )
        return cls(
            ops=tuple(DeltaOp.from_doc(op) for op in doc.get("ops", [])),
            gold_add=tuple((left, right) for left, right in doc.get("gold_add", [])),
            gold_remove=tuple(
                (left, right) for left, right in doc.get("gold_remove", [])
            ),
            parent_fingerprint=doc.get("parent_fingerprint"),
        )


class DeltaConflictError(ValueError):
    """A delta's parent fingerprint does not match the KB pair at hand."""


def compose_deltas(deltas: list[KBDelta]) -> KBDelta:
    """Fold a list of deltas into one (empty list composes to a no-op)."""
    composed = deltas[0] if deltas else KBDelta()
    for delta in deltas[1:]:
        composed = composed.compose(delta)
    return composed
