"""The prepared-state cache: an LRU of prepare arenas by content key.

A :class:`SubstrateCache` maps each ``(KB-pair fingerprint, config
hash)`` key to its :class:`repro.substrate.PrepareSubstrate`, which
holds the key's prepared state next to its literal scorers.  Each
:class:`repro.service.MatchingService` owns one, and so do the
experiment drivers: a new service starts empty, so its hit and miss
counts describe its own work.

Capacity is bounded: the least-recently-used arena, state and scorers
together, is dropped past ``capacity`` entries, counted by
``prepared.cache.evictions``.  ``derive`` seeds a delta-spliced child
pair's arena with *copies* of the parent's literal scorers — their
caches are content-addressed, so the child only pays for literals the
delta introduced, while each arena keeps sole ownership of its
(mutable) scorers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs import runtime as obs
from repro.substrate.arena import Key, PrepareSubstrate


class SubstrateCache:
    """Bounded LRU of :class:`PrepareSubstrate` arenas."""

    def __init__(self, capacity: int = 8):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Key, PrepareSubstrate] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_create(self, key: Key) -> PrepareSubstrate:
        """The arena for ``key``, marked most recently used; created on a miss."""
        with self._lock:
            arena = self._entries.get(key)
            if arena is not None:
                self._entries.move_to_end(key)
                return arena
            arena = self._entries[key] = PrepareSubstrate(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.count("prepared.cache.evictions")
            return arena

    def derive(self, parent: PrepareSubstrate, key: Key) -> PrepareSubstrate:
        """The arena for a child (delta-spliced) key, seeded by ``parent``.

        Only the literal scorers carry over — their interning caches are
        content-addressed and threshold-keyed, so reuse is sound for any
        KB pair.  They carry over as *snapshots*, never aliases: the two
        arenas have separate locks, so a scorer shared by both could be
        mutated by a parent-activated session and a child-activated
        stream step at once.  The child's state is its own: the caller
        attaches it.
        """
        arena = self.get_or_create(key)
        if parent.key == key:
            return arena
        first, second = sorted((arena, parent), key=lambda a: a.key)
        with first._lock, second._lock:  # key-ordered: no AB/BA deadlock
            for threshold, scorer in parent._scorers.items():
                if threshold not in arena._scorers:
                    arena._scorers[threshold] = scorer.snapshot()
        obs.count("substrate.derived")
        return arena
