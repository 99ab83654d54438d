"""Serialization for knowledge bases.

Two formats are supported:

* **JSON** — a single document with explicit attribute and relationship
  triple lists.  Lossless for any literal type JSON can express.
* **TSV** — one triple per line (``subject<TAB>property<TAB>value<TAB>kind``)
  in the style of common public KB dumps.  Literals are stored as strings.

:func:`kb_pair_fingerprint` digests the JSON documents of a KB pair.  It
is the one function that hashes KB content: prepared states, kernel
arenas, run lineage and delta conflict checks all key on it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.kb.model import KnowledgeBase


def kb_to_doc(kb: KnowledgeBase) -> dict:
    """``kb`` as a JSON-able document with deterministically ordered triples.

    Equal knowledge bases produce equal documents regardless of insertion
    order, so the document doubles as a stable serialization format for
    :mod:`repro.store` and as an equality witness in tests.  The lists
    are fresh copies of the KB's canonical content
    (:meth:`~repro.kb.model.KnowledgeBase.canonical_content`).
    """
    entities, attribute_triples, relationship_triples = kb.canonical_content()
    return {
        "name": kb.name,
        "entities": list(entities),
        "attribute_triples": [list(triple) for triple in attribute_triples],
        "relationship_triples": [list(triple) for triple in relationship_triples],
    }


def kb_pair_fingerprint(kb1: KnowledgeBase, kb2: KnowledgeBase) -> str:
    """Stable digest identifying the *content* of a KB pair.

    Equal KB pairs (same entities and triples, regardless of insertion
    order or mutation history) produce equal fingerprints.  It digests
    the JSON of both KBs' :func:`kb_to_doc` documents, read straight off
    their kept canonical content, so it sorts nothing.
    """
    docs = []
    for kb in (kb1, kb2):
        entities, attribute_triples, relationship_triples = kb.canonical_content()
        docs.append(
            {
                "name": kb.name,
                "entities": entities,
                "attribute_triples": attribute_triples,
                "relationship_triples": relationship_triples,
            }
        )
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def kb_from_doc(doc: dict) -> KnowledgeBase:
    """Rebuild a :class:`KnowledgeBase` from a :func:`kb_to_doc` document."""
    kb = KnowledgeBase(doc.get("name", "kb"))
    for entity in doc.get("entities", []):
        kb.add_entity(entity)
    for subject, prop, value in doc.get("attribute_triples", []):
        kb.add_attribute_triple(subject, prop, value)
    for subject, prop, value in doc.get("relationship_triples", []):
        kb.add_relationship_triple(subject, prop, str(value))
    return kb


def save_kb_json(kb: KnowledgeBase, path: str | Path) -> None:
    """Write ``kb`` to ``path`` as a JSON document."""
    Path(path).write_text(json.dumps(kb_to_doc(kb), indent=1, sort_keys=True))


def load_kb_json(path: str | Path) -> KnowledgeBase:
    """Read a KB previously written by :func:`save_kb_json`."""
    return kb_from_doc(json.loads(Path(path).read_text()))


def save_kb_tsv(kb: KnowledgeBase, path: str | Path) -> None:
    """Write ``kb`` as tab-separated triples with a ``kind`` column."""
    lines = []
    for t in kb.iter_attribute_triples():
        lines.append(f"{t.subject}\t{t.prop}\t{t.value}\tA")
    for t in kb.iter_relationship_triples():
        lines.append(f"{t.subject}\t{t.prop}\t{t.value}\tR")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_kb_tsv(path: str | Path, name: str = "kb") -> KnowledgeBase:
    """Read a KB previously written by :func:`save_kb_tsv`.

    All literal values come back as strings; numeric literals should be
    parsed downstream if needed (the similarity layer accepts both).
    """
    kb = KnowledgeBase(name)
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{line_no}: expected 4 tab-separated fields, got {len(parts)}")
        subject, prop, value, kind = parts
        if kind == "A":
            kb.add_attribute_triple(subject, prop, value)
        elif kind == "R":
            kb.add_relationship_triple(subject, prop, value)
        else:
            raise ValueError(f"{path}:{line_no}: unknown triple kind {kind!r}")
    return kb
