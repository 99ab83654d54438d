"""The prepare arena: one (KB pair, config) key's state and literal scorers.

A :class:`PrepareSubstrate` is content-addressed — its key is
:func:`substrate_key`, ``(kb_pair_fingerprint(kb1, kb2),
config_hash(config))`` — so everything it holds is a pure function of
the key:

* the key's prepared state, which :meth:`PrepareSubstrate.attach` sets
  (``None`` until a prepare or a stream splice attaches one);
* per-threshold :class:`repro.accel.LiteralScorer` arenas (their caches
  are content-addressed, so one scorer soundly serves every prepare,
  attribute-matching round, and incremental splice over the pair).

Activation is scoped through a context variable:
``arena.activation()`` makes :func:`literal_scorer` hand out the arena's
scorers for the duration (holding the arena lock, so concurrent passes
over the same pair serialize instead of racing the plain-dict scorer
caches).  Outside any activation a prepare builds private scorers, with
identical results.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING

from repro.accel.literals import LiteralScorer
from repro.kb.io import kb_pair_fingerprint
from repro.kb.model import KnowledgeBase
from repro.obs import runtime as obs

if TYPE_CHECKING:
    from repro.core.pipeline import PreparedState

#: A content key: (KB-pair fingerprint, config hash).
Key = tuple[str, str]

_ACTIVE: ContextVar["PrepareSubstrate | None"] = ContextVar(
    "repro_substrate", default=None
)


def substrate_key(kb1: KnowledgeBase, kb2: KnowledgeBase, config=None) -> Key:
    """The content key of a KB pair + config.

    It addresses the pair's arena, and so its prepared state, in every
    :class:`repro.substrate.SubstrateCache`.
    """
    # Runtime import: the store's serializers import the core pipeline,
    # which imports this package for literal_scorer().
    from repro.store.serialize import config_hash

    return (kb_pair_fingerprint(kb1, kb2), config_hash(config))


def literal_scorer(threshold: float) -> LiteralScorer:
    """The active arena's simL scorer for ``threshold``, else a fresh one."""
    substrate = _ACTIVE.get()
    if substrate is None:
        return LiteralScorer(threshold)
    return substrate.scorer(threshold)


class PrepareSubstrate:
    """One key's prepared state and shared scorers; see the module docstring."""

    def __init__(self, key: Key):
        self.key = key
        self._lock = threading.RLock()
        self._scorers: dict[float, LiteralScorer] = {}
        #: The key's prepared state, once attached; ``None`` until then.
        self.state: PreparedState | None = None
        #: How many prepared states attached (the attach event's count).
        self.attached = 0

    # -- activation -----------------------------------------------------
    @contextmanager
    def activation(self):
        """Make :func:`literal_scorer` serve this arena's scorers for the duration.

        The arena lock is held throughout: the scorer caches are plain
        dicts, so two passes over the same pair serialize here (one
        computes, the next reuses) rather than locking per literal.
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

    # -- attachment -----------------------------------------------------
    def attach(self, state: PreparedState) -> PreparedState:
        """Hold ``state`` as this key's prepared state, stamped with the key.

        The stream path finds a parent run's arena again through the
        stamped ``substrate_key``.  The stamp lands before the state is
        published, so a reader of :attr:`state` always sees it.
        """
        state.substrate_key = self.key
        with self._lock:
            self.attached += 1
            sessions = self.attached
            self.state = state
        obs.event("substrate.attach", key=":".join(self.key), sessions=sessions)
        return state
