"""Remp: crowdsourced collective entity resolution with relational match
propagation — a reproduction of Huang et al., ICDE 2020.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.core` — the Remp pipeline and its stages
* :mod:`repro.kb` — the knowledge-base data model
* :mod:`repro.crowd` — worker simulation and the micro-task platform
* :mod:`repro.datasets` — the synthetic evaluation datasets
* :mod:`repro.baselines` — HIKE, POWER, Corleone, PARIS, SiGMa
* :mod:`repro.experiments` — one driver per paper table/figure
* :mod:`repro.store` — SQLite-backed persistence: per-run loop
  checkpoints for kill-and-resume and a queryable ledger of every run
* :mod:`repro.service` — the concurrent matching service: ``prepare()``
  deduplicated through a memory cache keyed by content (KB-pair
  fingerprint, config hash) and thread-pooled sessions with an explicit
  ``submit / step / status / result`` lifecycle
* :mod:`repro.partition` — partitioned parallel execution: the ER graph
  sharded into entity-closure components and run across a process pool,
  with per-shard checkpoints and a deterministic merge
* :mod:`repro.stream` — incremental KB-delta matching: composable
  :class:`~repro.stream.KBDelta` edits, closure-local re-preparation and
  a delta-aware run driver whose incremental results are byte-identical
  to from-scratch runs on the post-delta KBs
* :mod:`repro.substrate` — the prepared-state cache: one
  content-addressed arena per ``(KB pair, config)`` key, holding the
  key's prepared state and literal scorers, shared by a service's
  sessions and seeding each stream step's child arena
"""

from repro.core import Remp, RempConfig
from repro.crowd import CrowdPlatform
from repro.datasets import load_dataset
from repro.eval import evaluate_matches
from repro.kb import KnowledgeBase
from repro.service import MatchingService
from repro.store import RunStore
from repro.stream import KBDelta

__version__ = "1.9.0"

__all__ = [
    "Remp",
    "RempConfig",
    "CrowdPlatform",
    "KBDelta",
    "KnowledgeBase",
    "RunStore",
    "MatchingService",
    "load_dataset",
    "evaluate_matches",
    "__version__",
]
