"""End-to-end benchmark of the matching service: closed-loop ER workloads.

Run from the repository root::

    python3 perfbench/run.py --workload clustered-loop --seed 1 --seconds 40 --trace 0

Each job is a fresh single-threaded process (``perfbench/job.py``) with an
empty file store; a run makes a fixed number of jobs per workload, one
after another, on dataset seeds derived from ``--seed`` (``--seconds`` is
accepted for the command-line contract; the job count sets the length).
Every time is scaled to reference CPU speed by the job's speed probe
(see ``scaled``), then times are medians over jobs and dataset-dependent
sizes are means.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each dataset seed untraced and traced and prints
per-layer self times.  Every metric is printed with its unit and sample
count; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, dataset_seeds

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"
OUT = Path(__file__).resolve().parent / "out"
#: A job normally takes 7–12 s; this keeps a run with a hung job under
#: three minutes.
JOB_TIMEOUT_S = 30.0
#: Median time of ``job.speed_probe`` on the reference machine (a 2-vCPU
#: 2.1 GHz Xeon VM, Python 3.11).  Times are reported as seconds on it.
REFERENCE_PROBE_S = 0.003
#: Timings a job records; ``scaled`` puts them on the reference clock.
TIME_KEYS = ("setup_s", "job_s", "first_batch_s", "unattributed_s")
#: A traced job fails if its self times and ``unattributed_s`` miss
#: ``job_s`` by more than this share, or if more than
#: ``MAX_UNATTRIBUTED`` of ``job_s`` lies outside every span.
MAX_BALANCE_GAP = 0.01
MAX_UNATTRIBUTED = 0.05

#: Spans whose self time is reported as the per-layer metric ``<span>_s``.
LAYER_SPANS = [
    "prepare.candidates", "prepare.attributes", "prepare.vectors",
    "prepare.pruning", "prepare.graph", "prepare.signatures",
    "loop.propagate", "loop.askable", "loop.select", "loop.truth", "loop.snapshot",
    "crowd.ask", "isolated.classify",
    "store.checkpoint", "store.save_prepared", "store.finish", "store.unit_records",
    "store.blob", "store.obs", "store.shard", "store.events", "store.unit_load",
    "store.other",
    "service.self", "service.prepared", "substrate.attach", "substrate.derive",
    "stream.incremental_prepare", "stream.run", "partition.run",
    "obs.export", "dataset.load",
]
#: Per-layer counts with their units.
LAYER_COUNTS = {
    "loop.iterations": "count",
    "crowd.questions_billed": "count",
    "crowd.retry": "count",
    "isolated.pairs": "count",
    "store.checkpoint_calls": "count",
    "store.checkpoint_bytes": "B",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
}


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(workload: str, dataset_seed: int, traced: bool) -> dict:
    """Run one job in a fresh interpreter and return its record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(dataset_seed % 2**32)
    # SQLite and tempfile put scratch files here, inside the checkout.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(OUT)
    # One thread: BLAS pools would otherwise compete with the job on a small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(JOB), "--workload", workload,
        "--dataset-seed", str(dataset_seed), "--out", str(OUT),
    ]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ops": 1, "failed": 1, "errors": [f"job timed out after {JOB_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {
            "ops": 1, "failed": 1,
            "errors": [f"job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"],
        }
    record["wall_s"] = time.monotonic() - t0
    return scaled(record)


def scaled(record: dict) -> dict:
    """The job's timings in seconds of the reference machine.

    A shared VM's CPU throughput drifts by up to ~30% within minutes.
    The client times a fixed probe after every batch, so the probe's
    median tracks the speed the job ran at; each timing is multiplied by
    ``REFERENCE_PROBE_S / probe median``.  The raw wall times stay in the
    record under ``raw``.
    """
    if record["failed"]:
        return record
    factor = REFERENCE_PROBE_S / record["probe_s"]
    record["slowdown"] = 1 / factor
    raw = {k: record[k] for k in TIME_KEYS if k in record}
    record["raw"] = {**raw, "later_s": record["later_s"]}
    for key, value in raw.items():
        record[key] = value * factor
    record["later_s"] = [v * factor for v in record["later_s"]]
    if "layers" in record:
        record["layers"] = {k: v * factor for k, v in record["layers"].items()}
    return record


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str, int, str]]:
    """metric -> (value, unit, samples, note) over the run's healthy jobs."""
    ok = [r for r in records if not r["failed"]]
    later = [s * 1000 for r in ok for s in r["later_s"]]
    tail, pct = _tail(later)
    # Times are medians, which a slow spell on a shared machine moves
    # least; per-job sizes depend only on the dataset, so they are means.
    med = lambda key: statistics.median(r[key] for r in ok)  # noqa: E731
    mean = lambda key: statistics.fmean(r[key] for r in ok)  # noqa: E731
    return {
        "setup_s": (med("setup_s"), "s", len(ok), "median of jobs"),
        "job_s": (med("job_s"), "s", len(ok), "median of jobs"),
        "turnaround_p50_ms": (statistics.median(later), "ms", len(later), "median of later batches"),
        "turnaround_tail_ms": (tail, "ms", len(later), f"p{pct:.1f} of later batches"),
        "questions": (mean("questions"), "count", len(ok), "mean of jobs"),
        "f1": (mean("f1"), "ratio", len(ok), "mean of jobs"),
        "peak_rss_mb": (mean("peak_rss_mb"), "MB", len(ok), "mean of jobs"),
        "store_mb": (mean("store_mb"), "MB", len(ok), "mean of jobs"),
    }


def per_layer(records: list[dict]) -> dict[str, tuple[float, str, int, str]]:
    """Per-layer self time and counts: means over the traced jobs.

    Means, not medians, so the layer self times and ``unattributed_s``
    still sum to ``traced_job_s``.
    """
    traced = [r for r in records if r.get("traced") and not r["failed"]]
    plain = {r["dataset_seed"]: r for r in records if not r.get("traced") and not r["failed"]}
    n = len(traced)
    mean = lambda values: sum(values) / n  # noqa: E731
    metrics = {}
    for span in LAYER_SPANS:
        value = mean([r["layers"].get(span, 0.0) for r in traced])
        metrics[f"{span}_s"] = (value, "s", n, "self time, mean per job")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (mean([r["counts"].get(name, 0) for r in traced]), unit, n, "mean per job")

    def ratio(num: str, den: str) -> float:
        total = sum(r["counts"].get(den, 0) for r in traced)
        return sum(r["counts"].get(num, 0) for r in traced) / total if total else 0.0

    metrics["prepare.retained_ratio"] = (
        ratio("prepare.retained", "prepare.candidates"), "ratio", n, "retained / candidates")
    metrics["stream.reuse_ratio"] = (
        ratio("stream.units_reused", "stream.units"), "ratio", n, "reused / units")
    # One sample per job, and it waits on the store's first fsyncs: too
    # noisy to gate, so it is reported here, from the untraced jobs.
    metrics["first_batch_s"] = (
        statistics.median(r["first_batch_s"] for r in plain.values()), "s", len(plain),
        "median of the untraced jobs",
    )
    metrics["traced_job_s"] = (mean([r["job_s"] for r in traced]), "s", n, "mean per job")
    metrics["unattributed_s"] = (
        mean([r["unattributed_s"] for r in traced]), "s", n, "job_s - sum of self times")
    overheads = [
        r["job_s"] / plain[r["dataset_seed"]]["job_s"] - 1
        for r in traced if r["dataset_seed"] in plain
    ]
    metrics["trace_overhead_ratio"] = (
        statistics.median(overheads) if overheads else 0.0, "ratio", len(overheads),
        "traced / untraced job_s - 1, same input",
    )
    return metrics


def trace_checks(records: list[dict]) -> tuple[list[str], list[str]]:
    """(failures, notes) for the traced run's own guarantees."""
    failures, notes = [], []
    plain = {r["dataset_seed"]: r for r in records if not r.get("traced") and not r["failed"]}
    for r in records:
        if not r.get("traced") or r["failed"]:
            continue
        seed = r["dataset_seed"]
        if seed in plain and plain[seed]["digest"] != r["digest"]:
            failures.append(f"seed {seed}: traced result differs from the untraced one")
        if r["trace_errors"]:
            failures.append(f"seed {seed}: invalid Chrome trace: {r['trace_errors'][:3]}")
        # The sum balances unless spans failed to nest (a span left open,
        # or one closed on another thread), which would double-count.
        total = sum(r["layers"].values()) + r["unattributed_s"]
        apart = abs(total - r["job_s"]) / r["job_s"]
        share = r["unattributed_s"] / r["job_s"]
        notes.append(
            f"seed {seed}: self times + unattributed = {total:.4f} s vs job_s "
            f"{r['job_s']:.4f} s ({apart:.3%} apart); unattributed {share:.2%} of job_s"
        )
        if apart > MAX_BALANCE_GAP:
            failures.append(f"seed {seed}: self times miss job_s by {apart:.2%}")
        if share > MAX_UNATTRIBUTED:
            failures.append(f"seed {seed}: {share:.2%} of job_s lies outside every span")
    return failures, notes


def inclusive(records: list[dict]) -> dict[str, dict]:
    """The program's persisted stage timings, mean per traced job."""
    traced = [r for r in records if r.get("traced") and not r["failed"]]
    merged: dict[str, dict] = {}
    for r in traced:
        for name, entry in r["inclusive"].items():
            slot = merged.setdefault(name, {"seconds": 0.0, "calls": 0.0})
            slot["seconds"] += entry["seconds"] / len(traced)
            slot["calls"] += entry["calls"] / len(traced)
    return dict(sorted(merged.items(), key=lambda kv: -kv[1]["seconds"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    context = machine_context()
    seeds = dataset_seeds(workload, args.seed)
    if args.trace:
        seeds = seeds[: max(1, len(seeds) // 2)]
        # Each dataset seed runs untraced and traced, alternating which goes first.
        plan = [(s, i % 2 == 1 - first) for i, s in enumerate(seeds) for first in (0, 1)]
    else:
        plan = [(s, False) for s in seeds]

    records = [spawn(workload.name, dataset_seed, traced) for dataset_seed, traced in plan]
    errors = [e for r in records for e in r["errors"]]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    healthy = [r for r in records if not r["failed"]]

    notes: list[str] = []
    metrics: dict = {}
    if healthy and (not args.trace or any(r.get("traced") for r in healthy)):
        metrics = per_layer(records) if args.trace else end_to_end(records)
    if args.trace:
        trace_failures, notes = trace_checks(records)
        failed += len(trace_failures)
        errors += trace_failures
    correct = failed == 0 and bool(metrics)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(context)}")
    print(f"jobs: {len(records)} ({sum(r.get('wall_s', 0) for r in records):.1f} s), "
          f"dataset seeds {sorted({r.get('dataset_seed') for r in records} - {None})}")
    slowdowns = [r["slowdown"] for r in records if "slowdown" in r]
    if slowdowns:
        print(f"slowdown: probe median / reference = {', '.join(f'{v:.3f}' for v in slowdowns)} "
              f"(times below are scaled to the reference; raw wall times are in history.jsonl)")
    for name, (value, unit, samples, how) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit:6s} n={samples:<4d} {how}")
    print(f"  {'failed_ratio':34s} {failed / max(attempted, 1):14.6f} ratio  n={attempted:<4d} failed / attempted operations")
    for note in notes:
        print(f"  check: {note}")
    stages = inclusive(records) if args.trace and healthy else None
    if stages is not None:
        print("inclusive stage timings (program-persisted, nested; rows overlap, do not sum):")
        for name, entry in stages.items():
            print(f"  {name:34s} {entry['seconds']:14.6f} s      calls={entry['calls']:g}")
    for error in errors:
        print(f"error: {error}")

    with open(OUT / "history.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": context, "correct": correct,
            "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()},
            "inclusive": stages,
            "jobs": [
                {k: r.get(k) for k in ("dataset_seed", "traced", "wall_s", "slowdown", "probes",
                                       "setup_s", "job_s", "first_batch_s", "later_s",
                                       "raw", "questions", "f1")}
                for r in records
            ],
        }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, failed, 1),
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
