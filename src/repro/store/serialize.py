"""Stable serialization of pipeline artifacts.

Every function here maps a pipeline object to a plain JSON-able document
(and back) with deterministic ordering: equal inputs produce equal
documents, so ``json.dumps(doc, sort_keys=True)`` is byte-stable and safe
to hash or diff.  Nothing is pickled — documents survive refactors of the
in-memory classes as long as the schema version is honoured.

Checkpoints carry a ``version`` field, and their reader refuses an
unknown one rather than guessing.  A ``PreparedState`` is written but
never read back: nothing stores one (it is a function of its KB pair),
and :func:`prepared_state_to_doc` serves as the equality witness of the
stream equivalence tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.candidates import CandidateSet
from repro.core.config import RempConfig
from repro.core.er_graph import ERGraph
from repro.core.pipeline import LoopCheckpoint, LoopRecord, PreparedState, RempResult
from repro.kb.io import kb_to_doc

Pair = tuple[str, str]

#: Schema version for loop checkpoints.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def pairs_to_doc(pairs) -> list[list[str]]:
    return sorted([left, right] for left, right in pairs)


def pairs_from_doc(doc) -> set[Pair]:
    return {(left, right) for left, right in doc}


def priors_to_doc(priors: dict[Pair, float]) -> list[list]:
    return sorted([left, right, p] for (left, right), p in priors.items())


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def config_to_doc(config: RempConfig) -> dict:
    return asdict(config)


def config_from_doc(doc: dict) -> RempConfig:
    """The config a ledger row stores, less the ``use_dijkstra`` switch
    earlier releases wrote (either value ran the same inferred sets).
    Any other unknown key still fails, as a corrupt row should."""
    doc = {key: value for key, value in doc.items() if key != "use_dijkstra"}
    return RempConfig(**doc)


def config_hash(config: RempConfig | None) -> str:
    """Short stable digest of a config — part of every store cache key.

    ``None`` hashes like a default :class:`RempConfig`, so callers that
    never customize the config share cache entries.
    """
    doc = config_to_doc(config or RempConfig())
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Offline artifacts
# ----------------------------------------------------------------------
def candidates_to_doc(candidates: CandidateSet) -> dict:
    return {
        "pairs": pairs_to_doc(candidates.pairs),
        "priors": priors_to_doc(candidates.priors),
        "initial_matches": pairs_to_doc(candidates.initial_matches),
    }


def er_graph_to_doc(graph: ERGraph) -> dict:
    groups = []
    for vertex in sorted(graph.groups):
        by_label = [
            [r1, r2, pairs_to_doc(members)]
            for (r1, r2), members in graph.groups[vertex].items()
        ]
        groups.append([vertex[0], vertex[1], sorted(by_label)])
    return {"vertices": pairs_to_doc(graph.vertices), "groups": groups}


def prepared_state_to_doc(state: PreparedState) -> dict:
    """Serialize every offline artifact of a prepared pipeline."""
    return {
        "kb1": kb_to_doc(state.kb1),
        "kb2": kb_to_doc(state.kb2),
        "candidates": candidates_to_doc(state.candidates),
        "attribute_matches": [
            [m.attr1, m.attr2, m.similarity] for m in state.attribute_matches
        ],
        "vectors": sorted(
            [left, right, list(vector)]
            for (left, right), vector in state.vector_index.vectors.items()
        ),
        "retained": pairs_to_doc(state.retained),
        "graph": er_graph_to_doc(state.graph),
        "signatures": sorted(
            [left, right, sorted(signature)]
            for (left, right), signature in state.signatures.items()
        ),
        "priors": priors_to_doc(state.priors),
        "isolated": pairs_to_doc(state.isolated),
    }


# ----------------------------------------------------------------------
# Loop history, checkpoints and results
# ----------------------------------------------------------------------
def loop_record_to_doc(record: LoopRecord) -> dict:
    return {
        "loop_index": record.loop_index,
        "questions": [list(question) for question in record.questions],
        "labeled_matches": record.labeled_matches,
        "labeled_non_matches": record.labeled_non_matches,
        "unresolved_questions": record.unresolved_questions,
        "inferred_matches_so_far": record.inferred_matches_so_far,
    }


def loop_record_from_doc(doc: dict) -> LoopRecord:
    return LoopRecord(
        loop_index=doc["loop_index"],
        questions=[(left, right) for left, right in doc["questions"]],
        labeled_matches=doc["labeled_matches"],
        labeled_non_matches=doc["labeled_non_matches"],
        unresolved_questions=doc["unresolved_questions"],
        inferred_matches_so_far=doc["inferred_matches_so_far"],
    )


def checkpoint_to_doc(checkpoint: LoopCheckpoint) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "next_loop_index": checkpoint.next_loop_index,
        "questions_asked": checkpoint.questions_asked,
        "history": [loop_record_to_doc(record) for record in checkpoint.history],
        "loop_state": checkpoint.loop_state,
        "answer_log": checkpoint.answer_log,
    }


def checkpoint_from_doc(doc: dict) -> LoopCheckpoint:
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint document version {version!r}; "
            f"expected {CHECKPOINT_VERSION}"
        )
    return LoopCheckpoint(
        next_loop_index=doc["next_loop_index"],
        questions_asked=doc["questions_asked"],
        history=[loop_record_from_doc(record) for record in doc["history"]],
        loop_state=doc["loop_state"],
        answer_log=doc["answer_log"],
    )


def result_to_doc(result: RempResult) -> dict:
    return {
        "matches": pairs_to_doc(result.matches),
        "questions_asked": result.questions_asked,
        "num_loops": result.num_loops,
        "history": [loop_record_to_doc(record) for record in result.history],
        "labeled_matches": pairs_to_doc(result.labeled_matches),
        "inferred_matches": pairs_to_doc(result.inferred_matches),
        "isolated_matches": pairs_to_doc(result.isolated_matches),
        "non_matches": pairs_to_doc(result.non_matches),
    }


def result_from_doc(doc: dict) -> RempResult:
    return RempResult(
        matches=pairs_from_doc(doc["matches"]),
        questions_asked=doc["questions_asked"],
        num_loops=doc["num_loops"],
        history=[loop_record_from_doc(record) for record in doc["history"]],
        labeled_matches=pairs_from_doc(doc["labeled_matches"]),
        inferred_matches=pairs_from_doc(doc["inferred_matches"]),
        isolated_matches=pairs_from_doc(doc["isolated_matches"]),
        non_matches=pairs_from_doc(doc["non_matches"]),
    )
