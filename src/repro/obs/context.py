"""The active run scope, as a :mod:`contextvars` variable.

This module is the bottom of the observability dependency graph: it
imports nothing from :mod:`repro`, so every other module can consult the
current scope without a cycle.

A *scope* is any object exposing ``timings`` (a
:class:`repro.obs.metrics.KernelTimings`), ``tracer`` (a
:class:`repro.obs.trace.Tracer`) and ``metrics`` (a
:class:`repro.obs.metrics.MetricsRegistry`) — in practice always a
:class:`repro.obs.runtime.RunScope`.  Context variables give exact
attribution: each service thread (and each activation on the main
thread) sees only the scope it activated, so two concurrent sessions can
no longer contaminate each other's persisted profiles.

A second variable holds the innermost open *timing frame* — a stage of
:func:`repro.obs.timed`, or an activation's root frame — as a
one-element list: the seconds its closed child frames took so far,
which its own time leaves out.
"""

from __future__ import annotations

import os
from contextvars import ContextVar

_SCOPE: ContextVar = ContextVar("repro_obs_scope", default=None)
_FRAME: ContextVar = ContextVar("repro_obs_frame", default=None)


def current_scope():
    """The active run scope, or ``None`` outside any activation."""
    return _SCOPE.get()


def push_scope(scope):
    """Activate ``scope``; returns a token for :func:`pop_scope`."""
    return _SCOPE.set(scope)


def pop_scope(token) -> None:
    _SCOPE.reset(token)


def push_frame() -> tuple[list, object]:
    """Open a timing frame; returns its children's-seconds cell and a token."""
    children = [0.0]
    return children, _FRAME.set(children)


def pop_frame(token) -> list | None:
    """Close the innermost frame; returns the enclosing frame's cell, if any."""
    _FRAME.reset(token)
    return _FRAME.get()


def clear_scope() -> None:
    """Drop any inherited scope and open frame (the after-fork hook below).

    A pool worker forked mid-run inherits the parent's context — and
    with it the parent's scope object, whose buffers the child must not
    write into, and the parent's open frame: the child records into its
    own shard scope and ships that scope's export back.
    """
    _SCOPE.set(None)
    _FRAME.set(None)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=clear_scope)
