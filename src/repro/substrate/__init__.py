"""Prepared-state cache: one arena per (KB pair, config).

The offline stages are a pure function of the two KBs and the Remp
configuration.  This package keys them by content, ``(KB-pair
fingerprint, config hash)``: a :class:`SubstrateCache` maps each key to
one :class:`PrepareSubstrate` arena, which holds the key's prepared
state and its :class:`repro.accel.literals.LiteralScorer` interning
arenas.  Concurrent :class:`repro.service.MatchingService` sessions on
one KB pair share the arena, and a stream step's child arena starts
from snapshots of its parent's scorers.  A prepare pass outside any
arena builds private scorers instead, with identical results.
"""

from repro.substrate.arena import (
    PrepareSubstrate,
    literal_scorer,
    substrate_key,
)
from repro.substrate.cache import SubstrateCache

__all__ = [
    "PrepareSubstrate",
    "SubstrateCache",
    "literal_scorer",
    "substrate_key",
]
