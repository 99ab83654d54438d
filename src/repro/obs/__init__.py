"""``repro.obs`` — structured tracing, run metrics, run artifacts.

A process-wide but run-scoped observability layer:

* :class:`RunScope` — one container per run (tracer + metrics registry +
  private stage timings), activated via a context variable so concurrent
  sessions never contaminate each other's profiles.
* :class:`Tracer` / :class:`MetricsRegistry` — the collectors; spans are
  gated by ``REPRO_NO_TRACE=1`` and never perturb results.
* :func:`timed` / :func:`count` / :func:`gauge` / :func:`span` /
  :func:`event` — module helpers that route to the active scope and
  no-op outside one, so library code instruments unconditionally.
  :func:`timed` is the program's one time signal: it opens
  ``span(name)`` and records the stage's inclusive seconds, calls and
  own seconds in the scope's timings.  Each activation adds the scope's
  ``root`` entry — its wall clock and the remainder no stage claimed —
  so the own times and that remainder add up to the wall clock.
* :func:`export_run_artifacts` — the ``runs/<run_id>/`` artifact
  contract (``meta.json`` + ``trace.jsonl`` + ``metrics.json`` +
  ``cost_ledger.json`` + ``result.json``).
* :func:`get_logger` — stdlib logging for the serving layers, gated by
  ``REPRO_LOG=<level>``.

Exports resolve lazily (PEP 562): the accel kernels import
:mod:`repro.obs.runtime` from the very bottom of the dependency graph,
which runs this ``__init__`` first — an eager import of the artifact
helpers here would re-enter :mod:`repro.core` mid-initialisation.
"""

from importlib import import_module

#: Public name -> defining submodule (resolved on first attribute access).
_EXPORTS = {
    "ARTIFACT_FILES": "repro.obs.artifacts",
    "export_run_artifacts": "repro.obs.artifacts",
    "fallback_cost_ledger": "repro.obs.artifacts",
    "run_meta": "repro.obs.artifacts",
    "current_scope": "repro.obs.context",
    "chrome_trace": "repro.obs.export",
    "filter_spans": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    "RunWatch": "repro.obs.live",
    "render_top": "repro.obs.live",
    "get_logger": "repro.obs.logging",
    "MetricsRegistry": "repro.obs.metrics",
    "RunScope": "repro.obs.runtime",
    "absorb": "repro.obs.runtime",
    "count": "repro.obs.runtime",
    "event": "repro.obs.runtime",
    "gauge": "repro.obs.runtime",
    "publish": "repro.obs.runtime",
    "span": "repro.obs.runtime",
    "timed": "repro.obs.runtime",
    "Tracer": "repro.obs.trace",
    "tracing_enabled": "repro.obs.trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
