"""Shared prepare substrate: one kernel arena per (KB pair, config).

The prepare-time memos — the :class:`repro.accel.literals.LiteralScorer`
interning arenas, the candidate-generation token and label indexes, and
the ER-graph relation adjacency — depend only on the two KBs and the
Remp configuration.  This package owns them once per content key
``(KB-pair fingerprint, config hash)`` and hands them to
every prepare pass that would otherwise rebuild its own: concurrent
:class:`repro.service.MatchingService` sessions on one KB pair, and
incremental stream steps deriving from a parent run.  A prepare pass
outside any arena builds private memos instead, with identical results.
"""

from repro.substrate.arena import (
    PrepareSubstrate,
    current_substrate,
    literal_scorer,
    substrate_key,
)
from repro.substrate.cache import SubstrateCache, shared_cache

__all__ = [
    "PrepareSubstrate",
    "SubstrateCache",
    "current_substrate",
    "literal_scorer",
    "shared_cache",
    "substrate_key",
]
