"""The process-wide substrate cache: LRU of prepare arenas by content key.

One :class:`SubstrateCache` (normally the module singleton behind
:func:`shared_cache`) maps each ``(KB-pair fingerprint, config hash)``
key to its :class:`repro.substrate.PrepareSubstrate`.
Concurrent :class:`repro.service.MatchingService` instances in one
process therefore converge on one arena per KB pair instead of one per
session.

Capacity is bounded: the least-recently-used arena is dropped past
``capacity`` entries, counted by ``substrate.evictions``.  ``derive`` seeds a delta-spliced child pair's
arena with *copies* of the parent's literal scorers — their caches are
content-addressed, so the child only pays for literals the delta
introduced, while each arena keeps sole ownership of its (mutable)
scorers.
"""

from __future__ import annotations

import os
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
        #: Lookup accounting (also emitted as ``substrate.*`` counters).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_create(self, key: Key) -> PrepareSubstrate:
        """The arena for ``key``, created (and LRU-registered) on a miss."""
        with self._lock:
            arena = self._entries.get(key)
            if arena is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.count("substrate.hits")
                return arena
            arena = PrepareSubstrate(key)
            self._entries[key] = arena
            self.misses += 1
            obs.count("substrate.misses")
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.count("substrate.evictions")
            return arena

    def derive(self, parent: PrepareSubstrate, key: Key) -> PrepareSubstrate:
        """The arena for a child (delta-spliced) key, seeded by ``parent``.

        Only the literal scorers carry over — their interning caches are
        content-addressed and threshold-keyed, so reuse is sound for any
        KB pair.  They carry over as *snapshots*, never aliases: the two
        arenas have separate locks, so a scorer shared by both could be
        mutated by a parent-activated session and a child-activated
        stream step at once.  The identity-keyed indexes are
        pair-specific and rebuilt by the child.
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

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_shared = SubstrateCache()


def shared_cache() -> SubstrateCache:
    """The process-wide cache every service shares by default."""
    return _shared


def _reset_after_fork() -> None:
    # Forked pool workers inherit the parent's arenas mid-flight (their
    # locks may belong to threads that no longer exist); give the child
    # an empty cache — workers never attach arenas themselves.
    global _shared
    _shared = SubstrateCache(capacity=_shared.capacity)


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)
