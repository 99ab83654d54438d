"""The prepare arena: shared kernels for one (KB pair, config) key.

A :class:`PrepareSubstrate` is content-addressed — its key is
:func:`substrate_key`, ``(kb_pair_fingerprint(kb1, kb2),
config_hash(config))``, the same content key the prepared-state caches
use — so everything it caches is a pure function of the key:

* per-threshold :class:`repro.accel.LiteralScorer` arenas (their caches
  are content-addressed, so one scorer soundly serves every prepare,
  attribute-matching round, and incremental splice over the pair);
* the candidate-generation token indexes, the raw-label maps and the
  ER-graph relation adjacency, keyed by KB *identity* (a different KB
  object — e.g. a delta-spliced copy — always rebuilds, so a stale
  index can never leak across stream steps).

Activation is scoped through a context variable:
``arena.activation()`` makes :func:`current_substrate` return the arena
for the duration (holding the arena lock, so concurrent passes over the
same pair serialize instead of racing the plain-dict caches), and the
prepare stages consult it.  Outside any activation they build private
memos, with identical results.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar

from repro.accel.literals import LiteralScorer
from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

#: A content key: (KB-pair fingerprint, config hash).
Key = tuple[str, str]

_ACTIVE: ContextVar["PrepareSubstrate | None"] = ContextVar(
    "repro_substrate", default=None
)


def substrate_key(kb1: KnowledgeBase, kb2: KnowledgeBase, config=None) -> Key:
    """The content key of a KB pair + config.

    It addresses the pair's kernel arena and its prepared state in every
    memory cache.
    """
    # Runtime import: the store's serializers import the core pipeline,
    # which imports this package for current_substrate().
    from repro.store.serialize import config_hash

    return (kb_pair_fingerprint(kb1, kb2), config_hash(config))


def current_substrate() -> "PrepareSubstrate | None":
    """The arena activated for this context, or ``None``."""
    return _ACTIVE.get()


def literal_scorer(threshold: float) -> LiteralScorer:
    """The active arena's simL scorer for ``threshold``, else a fresh one."""
    substrate = _ACTIVE.get()
    if substrate is None:
        return LiteralScorer(threshold)
    return substrate.scorer(threshold)


class PrepareSubstrate:
    """One shared kernel arena; see the module docstring."""

    def __init__(self, key: Key):
        self.key = key
        self._lock = threading.RLock()
        self._scorers: dict[float, LiteralScorer] = {}
        self._token_indexes: dict[int, tuple[weakref.ref, object]] = {}
        self._adjacencies: dict[int, tuple[weakref.ref, object]] = {}
        self._labels_indexes: dict[int, tuple[weakref.ref, object]] = {}
        #: How many prepared states attached (the attach event's count).
        self.attached = 0

    @property
    def key_str(self) -> str:
        """The key flattened for telemetry payloads."""
        return ":".join(self.key)

    # -- activation -----------------------------------------------------
    @contextmanager
    def activation(self):
        """Make this arena :func:`current_substrate` for the duration.

        The arena lock is held throughout: the scorer and token caches
        are plain dicts, so two passes over the same pair serialize here
        (one computes, the next reuses) rather than locking per literal.
        """
        with self._lock:
            token = _ACTIVE.set(self)
            try:
                yield self
            finally:
                _ACTIVE.reset(token)

    # -- shared kernels -------------------------------------------------
    def scorer(self, threshold: float) -> LiteralScorer:
        """The pair's literal-interning arena for ``threshold``."""
        scorer = self._scorers.get(threshold)
        if scorer is None:
            scorer = self._scorers[threshold] = LiteralScorer(threshold)
            obs.count("substrate.scorer.created")
        else:
            obs.count("substrate.scorer.reused")
        return scorer

    def _identity_memo(self, slots: dict, side: int, kb: KnowledgeBase, builder, counter: str):
        """Memoized ``builder(kb)``, keyed by KB side *and identity*.

        Identity keying (``is``, against a weak reference to the KB the
        entry was built from) makes staleness impossible: a spliced or
        re-loaded KB is a different object and rebuilds, replacing the
        entry.  The reference is weak so a long-lived arena never pins a
        dropped KB alive — a dead entry simply rebuilds.
        """
        entry = slots.get(side)
        if entry is not None and entry[0]() is kb:
            obs.count(counter)
            return entry[1]
        result = builder(kb)
        slots[side] = (weakref.ref(kb), result)
        return result

    def token_index(self, side: int, kb: KnowledgeBase, builder):
        """The side's candidate token index (see :meth:`_identity_memo`)."""
        return self._identity_memo(
            self._token_indexes, side, kb, builder, "substrate.token_index.reused"
        )

    def er_adjacency(self, side: int, kb: KnowledgeBase, builder):
        """The side's ER-graph relation adjacency snapshot, memoized."""
        return self._identity_memo(
            self._adjacencies, side, kb, builder, "substrate.er_adjacency.reused"
        )

    def labels_index(self, side: int, kb: KnowledgeBase, builder):
        """The side's raw label → entities map, memoized."""
        return self._identity_memo(
            self._labels_indexes, side, kb, builder, "substrate.labels_index.reused"
        )

    # -- attachment -----------------------------------------------------
    def attach(self, state):
        """Stamp ``state`` with this arena's key and publish the attach.

        The stream path finds a parent run's arena again through the
        stamped ``substrate_key``.
        """
        with self._lock:
            self.attached += 1
            sessions = self.attached
        state.substrate_key = self.key
        obs.event("substrate.attach", key=self.key_str, sessions=sessions)
        return state
