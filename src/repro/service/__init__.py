"""Matching-as-a-service front-end over the persistent run store.

:class:`MatchingService` owns a :class:`repro.store.RunStore`, serves
``PreparedState`` through a concurrency-safe in-memory LRU (offline
work is computed at most once per KB-pair content and config while the
LRU holds it),
and runs many Remp sessions on a thread pool with an explicit
``submit / step / status / result`` lifecycle.  Interrupted sessions
resume from their latest checkpoint, replaying recorded crowd answers.

Exposed on the command line as ``repro serve-batch``, ``repro runs`` and
``repro cache``.
"""

from repro.service.service import MatchingService, MatchingSession

__all__ = ["MatchingService", "MatchingSession"]
