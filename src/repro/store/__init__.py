"""Persistent run store: durable, resumable Remp runs.

``repro.store`` turns the pipeline's in-memory artifacts into durable
state backed by a single SQLite file (stdlib ``sqlite3``, no extra
dependencies):

* :class:`RunStore` — per-run loop checkpoints and a queryable ledger of
  every run's config, lineage, cost and final result.
* :mod:`repro.store.serialize` — stable JSON documents for
  :class:`~repro.kb.KnowledgeBase`, :class:`~repro.core.PreparedState`,
  checkpoints and results; equal objects serialize to equal documents.

:mod:`repro.service` builds the concurrent matching service on top of
this package; the ``repro runs`` and ``repro cache`` CLI verbs expose it
from the command line.
"""

from repro.store.serialize import (
    checkpoint_from_doc,
    checkpoint_to_doc,
    config_from_doc,
    config_hash,
    config_to_doc,
    prepared_state_to_doc,
    result_from_doc,
    result_to_doc,
)
from repro.store.store import RunRecord, RunStore

__all__ = [
    "RunStore",
    "RunRecord",
    "config_hash",
    "config_to_doc",
    "config_from_doc",
    "prepared_state_to_doc",
    "checkpoint_to_doc",
    "checkpoint_from_doc",
    "result_to_doc",
    "result_from_doc",
]
