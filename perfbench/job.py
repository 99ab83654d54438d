"""One benchmark job in a fresh process: set up, drive one client, check.

``run.py`` spawns this once per job; it is not meant to be run by hand,
but can be::

    PYTHONPATH=src python3 perfbench/job.py --workload clustered-loop \\
        --dataset-seed 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')" \\
        --out perfbench/out

``--t0`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide), so ``setup_s`` runs from interpreter start to
ready-to-submit.  The last stdout line is one JSON record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from repro.datasets import evolving_bundle, load_dataset
from repro.eval.metrics import evaluate_matches
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.service import MatchingService
from repro.store.serialize import result_to_doc

import tracing
from workloads import ERROR_RATE, WORKLOADS

#: The speed probe's input: fixed keys, built once at import.
_PROBE_KEYS = [((i * 7919) % 100_003, i & 255) for i in range(24_000)]
_PROBE_SLICE = 6_000


def speed_probe(k: int) -> float:
    """Seconds one fixed unit of pure-Python dict work takes now.

    The client runs it between service calls, outside every timed
    interval.  A shared VM's CPU throughput drifts by up to ~30% over
    minutes; run this often through a job, the probe's median moves with
    that drift, so ``run.py`` can divide it out.  It allocates only two
    containers per call, so it shifts almost no garbage-collection work
    into or out of the program.
    """
    offset = (k * 977) % (len(_PROBE_KEYS) - _PROBE_SLICE)
    began = time.perf_counter()
    counts: dict = {}
    for key in _PROBE_KEYS[offset: offset + _PROBE_SLICE]:
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)
    return time.perf_counter() - began


def _check_outputs(store, results: dict) -> list[str]:
    """Stored results and cost ledgers must agree with what the client got."""
    problems = []
    for run_id, result in results.items():
        stored = store.get_result(run_id)
        if stored is None or result_to_doc(stored) != result_to_doc(result):
            problems.append(f"{run_id}: stored result differs from the returned one")
        ledger = (store.load_run_obs(run_id) or {}).get("cost_ledger") or {}
        if ledger.get("total") != result.questions_asked:
            problems.append(
                f"{run_id}: cost ledger total {ledger.get('total')} != "
                f"questions_asked {result.questions_asked}"
            )
    return problems


def _persisted(store, run_ids) -> tuple[dict, float]:
    """Summed stage timings (inclusive, nested) and ``crowd.retry`` of the runs."""
    stages: dict[str, dict] = {}
    retries = 0.0
    for run_id in run_ids:
        doc = store.load_run_timings(run_id) or {}
        for name, entry in (doc.get("stages") or {}).items():
            slot = stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += entry["seconds"]
            slot["calls"] += entry["calls"]
        counters = ((store.load_run_obs(run_id) or {}).get("metrics") or {}).get("counters", {})
        retries += counters.get("crowd.retry", 0)
    return stages, retries


def run_job(args) -> dict:
    workload = WORKLOADS[args.workload]
    seed = args.dataset_seed
    record: dict = {
        "workload": workload.name,
        "dataset_seed": seed,
        "traced": args.trace,
        "ops": 0,
        "failed": 0,
        "errors": [],
    }
    out = Path(args.out)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=out)
    store_path = os.path.join(store_dir, "store.db")
    service = None
    installed = None
    try:
        service = MatchingService(store_path, max_workers=1, error_rate=ERROR_RATE)
        results: dict = {}
        batches: list[float] = []
        probes: list[float] = []

        def probe() -> None:
            for _ in range(workload.probes):
                probes.append(speed_probe(len(probes)))

        if workload.deltas:
            lineage = evolving_bundle(seed, workload.scale, steps=workload.deltas)
            gold = lineage.gold_at(workload.deltas)
            # The lineage's root run is the stream's first (cold) batch;
            # it belongs to set-up, and the job is the updates after it.
            record["ops"] += 2
            began = time.perf_counter()
            run_id = service.submit(
                workload.dataset, seed=seed, scale=workload.scale,
                background=False, stream=True,
            )
            results[run_id] = service.result(run_id)
            batches.append(time.perf_counter() - began)
        else:
            gold = load_dataset(workload.dataset, seed=seed, scale=workload.scale).gold_matches
        record["setup_s"] = time.monotonic() - args.t0

        if args.trace:
            recorder = tracing.Recorder()
            installed = tracing.Installed(recorder)
        hits, misses = service.cache_hits, service.cache_misses
        started = time.perf_counter()
        if workload.deltas:
            for delta in lineage.deltas:
                record["ops"] += 2
                began = time.perf_counter()
                run_id = service.update(run_id, delta, background=False)
                result = service.result(run_id)
                batches.append(time.perf_counter() - began)
                results[run_id] = result
                probe()
        else:
            record["ops"] += 1
            run_id = service.submit(
                workload.dataset, seed=seed, scale=workload.scale, background=False
            )
            while True:
                record["ops"] += 1
                began = time.perf_counter()
                more = service.step(run_id)
                batches.append(time.perf_counter() - began)
                if not more:
                    break
                probe()
            record["ops"] += 1
            result = service.result(run_id)
            results[run_id] = result
        record["job_s"] = time.perf_counter() - started - sum(probes)
        record["probe_s"] = statistics.median(probes)
        record["probes"] = len(probes)
        if installed is not None:
            installed.remove()
            installed = None
            record["layers"] = recorder.self_times()
            record["counts"] = dict(recorder.counts)
            record["counts"]["service.cache_hits"] = service.cache_hits - hits
            record["counts"]["service.cache_misses"] = service.cache_misses - misses
            record["unattributed_s"] = record["job_s"] - recorder.root_seconds()
            job_runs = list(results)[1:] if workload.deltas else list(results)
            record["inclusive"], record["counts"]["crowd.retry"] = _persisted(
                service.store, job_runs
            )
            record["trace_errors"] = _write_trace(recorder, out, workload.name, seed)

        record["first_batch_s"] = batches[0]
        record["later_s"] = batches[1:]
        record["questions"] = result.questions_asked
        record["f1"] = evaluate_matches(result.matches, gold).f1
        record["digest"] = hashlib.sha256(
            json.dumps(result_to_doc(result), sort_keys=True).encode()
        ).hexdigest()
        problems = _check_outputs(service.store, results)
        if seed == 0 and (result.questions_asked, round(record["f1"], 4)) != workload.expected:
            problems.append(
                f"default seed gave questions={result.questions_asked} "
                f"f1={record['f1']:.4f}, expected {workload.expected}"
            )
        if problems:
            record["failed"] += 1
            record["errors"].extend(problems)
    except Exception:
        record["failed"] += 1
        record["errors"].append(traceback.format_exc(limit=8))
    finally:
        if installed is not None:
            installed.remove()
        if service is not None:
            service.close()
        if os.path.exists(store_path):
            record["store_mb"] = os.path.getsize(store_path) / 1e6
        shutil.rmtree(store_dir, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def _write_trace(recorder, out: Path, workload: str, seed: int) -> list[str]:
    """Write the job's spans as Chrome trace JSON; returns validation errors."""
    doc = chrome_trace(recorder.chrome_spans())
    errors = validate_chrome_trace(doc)
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    record = run_job(parser.parse_args(argv))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
