"""The per-run artifact contract: ``runs/<run_id>/``.

Every stored run exports one directory with a fixed layout, so benches,
CI and serving front ends all read the same shape:

``meta.json``
    Run identity and provenance: config hash, dataset/seed/scale,
    package version, strategy, pool size, stream lineage fields — and
    ``stage_timings``, the run's stage ledger: per stage its inclusive
    ``seconds``, ``calls`` and ``own`` seconds, and the ``root`` entry
    (wall clock, activations, unattributed remainder as ``own``).
``trace.jsonl``
    One span per line (start order) from the run's tracer.
``metrics.json``
    ``{"counters": {...}, "gauges": {...}}`` — the run's registry.
``cost_ledger.json``
    ``{"total": N, "items": [...]}`` itemising billed questions by
    loop, shard or stream unit; ``total`` equals the stored result's
    ``questions_asked``.
``result.json``
    The final :class:`~repro.core.RempResult` document.

Benchmarks reuse the metrics shape through
:func:`benchmark_metrics_doc` (``BENCH_obs.json``), and the CLI verbs
``runs trace`` / ``runs metrics`` / ``runs export-artifacts`` read it.
Runs persisted before the obs layer still export: meta falls back to
the ledger row and the cost ledger collapses to one run-level item.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.store.serialize import result_to_doc


def _package_version() -> str:
    # Imported lazily: this module is loaded while ``repro/__init__`` is
    # still executing (service -> obs), before ``__version__`` is bound.
    from repro import __version__

    return __version__

#: File names of the contract, in the order they are written.
ARTIFACT_FILES = (
    "meta.json",
    "trace.jsonl",
    "metrics.json",
    "cost_ledger.json",
    "result.json",
)


def run_meta(record, *, extra: dict | None = None) -> dict:
    """The ``meta.json`` document for a ledger row."""
    meta = {
        "run_id": record.run_id,
        "dataset": record.dataset,
        "seed": record.seed,
        "scale": record.scale,
        "config_hash": record.config_hash,
        "strategy": record.strategy,
        "error_rate": record.error_rate,
        "status": record.status,
        "workers": record.workers,
        "parent_run_id": record.parent_run_id,
        "stream_step": record.stream_step,
        "kb_fingerprint": record.kb_fingerprint,
        "created_at": record.created_at,
        "updated_at": record.updated_at,
        "repro_version": _package_version(),
    }
    if extra:
        meta.update(extra)
    return meta


def fallback_cost_ledger(record) -> dict:
    """A one-item ledger for runs that predate the obs layer.

    The invariant still holds: the total equals the ledger row's
    question count (which ``finish_run`` copies from the result).
    """
    return {
        "total": record.questions_asked,
        "items": [
            {
                "scope": "run",
                "key": record.run_id,
                "questions": record.questions_asked,
            }
        ],
    }


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def export_run_artifacts(
    store, run_id: str, root: str | Path = "runs", *, force: bool = False
) -> Path:
    """Materialise ``<root>/<run_id>/`` from the store; returns the dir.

    ``store`` is a :class:`repro.store.RunStore` (or anything exposing
    ``get_run`` / ``load_run_obs`` / ``load_run_timings`` /
    ``get_result``).  Raises :class:`KeyError` for an unknown run, and
    :class:`FileExistsError` when the destination already exists unless
    ``force`` — a previous export (possibly of a *different* store's
    run under the same id) is never silently overwritten.
    """
    record = store.get_run(run_id)
    if record is None:
        raise KeyError(f"unknown run {run_id!r}")
    obs_doc = store.load_run_obs(run_id) or {}
    timings = store.load_run_timings(run_id)

    dest = Path(root) / run_id
    if dest.exists() and any(dest.iterdir()) and not force:
        raise FileExistsError(
            f"{dest} already exists; pass force=True (--force) to overwrite"
        )
    dest.mkdir(parents=True, exist_ok=True)

    meta = obs_doc.get("meta") or run_meta(record)
    if timings is not None and "stage_timings" not in meta:
        meta["stage_timings"] = timings.get("stages", {})
    _dump(dest / "meta.json", meta)

    spans = obs_doc.get("trace", [])
    with (dest / "trace.jsonl").open("w") as sink:
        for span in spans:
            sink.write(json.dumps(span, sort_keys=True) + "\n")

    _dump(dest / "metrics.json", obs_doc.get("metrics") or {"counters": {}, "gauges": {}})
    _dump(dest / "cost_ledger.json", obs_doc.get("cost_ledger") or fallback_cost_ledger(record))

    result = store.get_result(run_id)
    if result is not None:
        _dump(dest / "result.json", result_to_doc(result))
    return dest


def benchmark_metrics_doc(meta: dict, metrics: dict) -> dict:
    """The ``BENCH_*.json`` shape: run-artifact meta + metrics documents.

    ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.as_doc`
    document — the exact shape ``metrics.json`` carries per run — so
    trajectory tooling parses bench artifacts and run artifacts alike.
    """
    return {"meta": dict(meta), "metrics": dict(metrics)}
