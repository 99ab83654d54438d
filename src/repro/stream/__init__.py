"""Incremental KB-delta matching.

A production deployment rarely matches two *frozen* KBs — upstream edits
arrive continuously.  This package makes a KB edit cost what it touches
rather than what the KBs contain:

* :mod:`repro.stream.delta` — :class:`KBDelta`: composable, serializable
  add/remove/update edits to a two-KB world, with content fingerprints
  for staleness detection.
* :mod:`repro.stream.incremental` — ``incremental_prepare``: diff a
  cached :class:`~repro.core.PreparedState` against a delta, recomputing
  candidates, vectors, pruning and ER-graph structure only inside the
  affected entity closures; the spliced state serializes identically to
  a from-scratch prepare.
* :mod:`repro.stream.runner` — :class:`StreamRunner`: unit-wise (one
  entity-closure component each) execution with content-derived seeds
  and localized slices, so clean units' recorded outcomes are reused
  verbatim and the merged result is byte-identical to a from-scratch
  run on the post-delta KB pair — the equivalence oracle behind
  ``tests/test_stream_equivalence.py``.

:mod:`repro.service` exposes this as the ``update(run_id, delta)``
lifecycle verb; the CLI as ``repro update`` and ``repro run --since``.
"""

from repro.stream.delta import (
    DeltaConflictError,
    DeltaOp,
    KBDelta,
    compose_deltas,
    kb_pair_fingerprint,
)
from repro.stream.incremental import IncrementalPrepared, incremental_prepare
from repro.stream.runner import StreamOutcome, StreamRunner

__all__ = [
    "DeltaConflictError",
    "DeltaOp",
    "IncrementalPrepared",
    "KBDelta",
    "StreamOutcome",
    "StreamRunner",
    "compose_deltas",
    "incremental_prepare",
    "kb_pair_fingerprint",
]
