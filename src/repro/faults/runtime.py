"""Fault-plan activation and the ``check`` probe the execution layers call.

A plan activates one of two ways:

* programmatically — ``with faults.activate(plan): ...`` (tests, the
  chaos oracle);
* via the environment — ``REPRO_FAULTS`` holds either a JSON document
  (``{"rules": [...]}`` or a bare rule list) or ``@path/to/plan.json``.
  The env plan is parsed once per process and cached; pool workers
  started with ``spawn`` therefore re-create it with *fresh* counters,
  which is why cross-process rules should use ``where`` context filters
  rather than ``times`` budgets.

``check(site, **context)`` is the only place faults ever happen.  With
no active plan it is a near-free early return, so the fault plane can
stay compiled into every execution path (bench_faults pins the overhead
at ≤ 3%).
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager

from .plan import FaultPlan, InjectedFault

ENV_VAR = "REPRO_FAULTS"

_active: FaultPlan | None = None
_env_plan: FaultPlan | None = None
_env_raw: str | None = None
_disabled = 0


def parse_plan(text: str) -> FaultPlan:
    """Parse a plan from a JSON string or an ``@file`` reference."""
    text = text.strip()
    if not text:
        return FaultPlan()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_doc(json.loads(text))


def _from_env() -> FaultPlan | None:
    global _env_plan, _env_raw
    raw = os.environ.get(ENV_VAR)
    if not raw:
        _env_plan = None
        _env_raw = None
        return None
    if raw != _env_raw:
        _env_raw = raw
        _env_plan = parse_plan(raw)
    return _env_plan


def current_plan() -> FaultPlan | None:
    """The plan probes consult: programmatic activation wins over env."""
    if _disabled:
        return None
    if _active is not None:
        return _active
    return _from_env()


@contextmanager
def activate(plan: FaultPlan):
    """Make *plan* the active plan for the duration of the block."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


@contextmanager
def disabled():
    """Suppress all fault injection inside the block (bench baselines)."""
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def check(site: str, **context) -> str | None:
    """Probe *site*; fire the first matching rule of the active plan.

    Returns ``"delay"`` after a ``delay`` firing, ``None`` when nothing
    fired.  ``error`` raises :class:`InjectedFault`; ``kill`` SIGKILLs
    the current process — exactly what a crashed worker looks like.
    """
    plan = current_plan()
    if plan is None or not plan.rules:
        return None
    rule = plan.select(site, context)
    if rule is None:
        return None

    from repro import obs

    obs.count("fault.injected")
    obs.count(f"fault.injected.{site}")
    obs.publish("fault.injected", site=site, action=rule.action, **context)

    if rule.action == "error":
        raise InjectedFault(f"injected fault at {site} ({context!r})")
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if rule.action == "delay" and rule.delay:
        time.sleep(rule.delay)
    return rule.action
