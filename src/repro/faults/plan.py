"""The fault-plan model: named sites, deterministic rules, JSON round-trip.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each naming
a probe *site* (``store.write``, ``crowd.answer``, ``worker.mid_shard``,
…) and an *action* to take when a probe at that site matches.  Faults
fire **only** at explicit :func:`repro.faults.check` probes, and a rule
matches deterministically:

* the site name (exact, or an ``fnmatch`` pattern such as ``store.*``);
* the ``where`` filters — equality constraints on the context fields the
  probe supplies (``shard_id``, ``attempt``, ``op``, ``question``, …);
* the ``times`` budget — how often the rule may fire *per plan
  instance* (``None`` = unlimited).

No randomness is consulted anywhere, so replaying the same plan against
the same execution produces the same faults at the same probes — which
is what lets the recovery paths be tested for byte-identical results.
Cross-process determinism (pool workers re-create the plan from
``REPRO_FAULTS`` with fresh counters) should lean on ``where`` filters
like ``{"attempt": 0}`` rather than ``times`` budgets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

#: The probe sites the execution layers expose.  A plan may name others
#: (probes are just strings), but these are the documented contract.
FAULT_SITES = (
    "store.write",
    "crowd.answer",
    "worker.start",
    "worker.mid_shard",
)

#: Actions a matching rule may take at its probe.
FAULT_ACTIONS = ("error", "kill", "delay")


class InjectedFault(RuntimeError):
    """The transient failure an ``error``-action rule raises at its probe."""


def _norm(value):
    """Normalise context/filter values so JSON round-trips compare equal."""
    if isinstance(value, (tuple, list)):
        return [_norm(item) for item in value]
    return value


@dataclass(slots=True)
class FaultRule:
    """One deterministic fault: where it fires, what it does, how often."""

    site: str
    action: str = "error"
    #: Max firings for this plan instance; ``None`` = every matching probe.
    times: int | None = 1
    #: Seconds to sleep for ``delay`` rules (ignored otherwise).
    delay: float = 0.0
    #: Equality filters on the probe's context fields; a probe matches
    #: only when every listed field is present and equal.
    where: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError("times must be positive (or None for unlimited)")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def matches(self, site: str, context: dict) -> bool:
        if site != self.site and not fnmatchcase(site, self.site):
            return False
        for key, expected in self.where.items():
            if key not in context or _norm(context[key]) != _norm(expected):
                return False
        return True

    def to_doc(self) -> dict:
        doc = {"site": self.site, "action": self.action, "times": self.times}
        if self.delay:
            doc["delay"] = self.delay
        if self.where:
            doc["where"] = {key: _norm(value) for key, value in self.where.items()}
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultRule":
        return cls(
            site=doc["site"],
            action=doc.get("action", "error"),
            times=doc.get("times", 1),
            delay=float(doc.get("delay", 0.0)),
            where=dict(doc.get("where", {})),
        )


class FaultPlan:
    """An ordered rule list plus per-rule firing counters (thread-safe)."""

    def __init__(self, rules: list[FaultRule] | None = None):
        self.rules = list(rules or [])
        self._fired = [0] * len(self.rules)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def select(self, site: str, context: dict) -> FaultRule | None:
        """The first matching rule with budget left; consumes one firing."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.matches(site, context):
                    self._fired[index] += 1
                    return rule
        return None

    def fired(self, index: int | None = None) -> int:
        """Total firings (of one rule, or across the whole plan)."""
        with self._lock:
            if index is not None:
                return self._fired[index]
            return sum(self._fired)

    def reset(self) -> None:
        """Zero every firing counter (fresh replay of the same plan)."""
        with self._lock:
            self._fired = [0] * len(self.rules)

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        return {"rules": [rule.to_doc() for rule in self.rules]}

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        if isinstance(doc, list):  # bare rule list is accepted shorthand
            rules = doc
        else:
            rules = doc.get("rules", [])
        return cls([FaultRule.from_doc(rule) for rule in rules])
