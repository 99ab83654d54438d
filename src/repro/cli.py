"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table II-style statistics for the four synthetic profiles.
``run``
    Run the Remp pipeline on one dataset and report quality and cost.
    With ``--store`` the run is resumable: offline work comes from the
    prepared-state cache, every loop checkpoints, and ``--resume RUN_ID``
    continues an interrupted run without re-asking questions.  With
    ``--workers N`` the ER graph is sharded into entity-closure
    components and executed on ``N`` processes (``repro.partition``),
    with per-shard checkpoints and a live per-partition status line; the
    merged result is identical for every ``N``.  With ``--stream`` the
    run executes unit-wise and records per-unit outcomes, making it the
    root of an updatable lineage; ``--since RUN_ID --steps K`` advances
    an ``evolving``-dataset stream run incrementally to step ``K``.
``update``
    Apply a KB delta (a JSON file) to a finished stream run: only the
    entity closures the delta touches are re-prepared and re-run, the
    rest is reused verbatim (``repro.stream``).
``partition``
    Inspect the shard layout (``partition info DATASET``).
``serve-batch``
    Run several datasets concurrently through the matching service.
``runs``
    Query the run ledger (``runs list`` / ``runs show RUN_ID``), dump a
    run's observability data (``runs trace`` / ``runs metrics``),
    materialise its artifact directory (``runs export-artifacts``) or
    follow an in-flight run live from another process (``runs watch``).
``top``
    One line per in-flight run across the store — the live counterpart
    of ``runs list``.
``bench``
    Cross-run perf tooling: ``bench compare BASELINE CURRENT`` diffs
    per-stage timings between two artifacts and flags slowdowns beyond
    a noise-modelled threshold (the CI regression sentinel).
``cache``
    Inspect or clear the prepared-state cache (``cache info`` / ``clear``).
``experiment``
    Regenerate one paper artifact (``table3`` … ``figure6``).
``export``
    Write a generated dataset's two KBs and gold standard to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core import Remp, RempConfig
from repro.datasets import DATASET_NAMES, EVOLVING_NAME, load_dataset
from repro.eval import evaluate_matches
from repro.kb import describe, save_kb_json
from repro.obs import export_run_artifacts
from repro.partition import (
    CrowdSpec,
    ParallelRunner,
    PartialResult,
    ShardProgressPrinter,
    partition_state,
)
from repro.service import MatchingService
from repro.store import RunStore
from repro.stream import DeltaConflictError, KBDelta

#: Datasets the ``run`` family of commands accepts.
RUN_DATASET_CHOICES = DATASET_NAMES + (EVOLVING_NAME,)

#: Default store location; overridable per-command or via REPRO_STORE.
DEFAULT_STORE = ".repro/store.db"


def _store_path(args: argparse.Namespace) -> str:
    return args.store or os.environ.get("REPRO_STORE") or DEFAULT_STORE


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name in DATASET_NAMES:
        bundle = load_dataset(name, seed=args.seed, scale=args.scale)
        print(f"== {name}: {bundle.num_matches} gold matches")
        print("  ", describe(bundle.kb1).as_row())
        print("  ", describe(bundle.kb2).as_row())
    return 0


def _apply_env_flags(args: argparse.Namespace) -> None:
    """``--profile`` and ``--faults`` take effect through the environment.

    ``--profile`` turns on the sampling wall-clock profiler, so shard
    worker processes inherit it and the run's artifact directory gains
    ``profile.folded``.
    """
    if getattr(args, "profile", False):
        os.environ["REPRO_PROFILE"] = "1"
    if getattr(args, "faults", None):
        # A fault plan rides the environment so spawn-started shard
        # workers re-create it too; the value is JSON or @path-to-json.
        os.environ["REPRO_FAULTS"] = args.faults


def _cmd_run(args: argparse.Namespace) -> int:
    _apply_env_flags(args)
    if args.dataset is None and args.resume is None and args.since is None:
        print(
            "run: a dataset is required unless --resume or --since is given",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print("run: --workers must be at least 1", file=sys.stderr)
        return 2
    has_store = bool(args.store or os.environ.get("REPRO_STORE"))
    if args.stream and not has_store:
        print("run: --stream requires --store (or REPRO_STORE)", file=sys.stderr)
        return 2
    if args.stream and args.budget is not None:
        print("run: --stream does not support --budget", file=sys.stderr)
        return 2
    if args.steps is not None and args.since is None:
        print("run: --steps only applies with --since", file=sys.stderr)
        return 2
    if args.since is not None:
        if not has_store:
            print("run: --since requires --store (or REPRO_STORE)", file=sys.stderr)
            return 2
        if args.resume or args.dataset is not None:
            print(
                "run: --since cannot be combined with a dataset or --resume",
                file=sys.stderr,
            )
            return 2
        # Like --resume: the lineage continues under the stored run's
        # configuration, so flags that would silently be ignored are
        # rejected instead.
        conflicting = [
            name
            for name, given in (
                ("--mu", args.mu != 10),
                ("--tau", args.tau != 0.9),
                ("--budget", args.budget is not None),
                ("--error-rate", args.error_rate != 0.05),
                ("--seed", args.seed != 0),
                ("--scale", args.scale != 1.0),
                ("--stream", args.stream),
            )
            if given
        ]
        if conflicting:
            print(
                f"run: {', '.join(conflicting)} cannot be combined with --since; "
                "the stored lineage's dataset and config are used",
                file=sys.stderr,
            )
            return 2
        if args.steps is None or args.steps < 1:
            print("run: --since requires --steps K (K >= 1)", file=sys.stderr)
            return 2
        return _run_since(args)
    if args.resume:
        # A resumed run continues under its stored configuration; flags
        # that would silently be ignored are rejected instead.
        conflicting = [
            name
            for name, given in (
                ("dataset", args.dataset is not None),
                ("--mu", args.mu != 10),
                ("--tau", args.tau != 0.9),
                ("--budget", args.budget is not None),
                ("--stream", args.stream),
            )
            if given
        ]
        if conflicting:
            print(
                f"run: {', '.join(conflicting)} cannot be combined with --resume; "
                "the stored run's dataset and config are used",
                file=sys.stderr,
            )
            return 2
    config = RempConfig(mu=args.mu, tau=args.tau, budget=args.budget)
    if args.store or args.resume or os.environ.get("REPRO_STORE"):
        return _run_via_service(args, config)
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    crowd = CrowdSpec(
        truth=bundle.gold_matches, error_rate=args.error_rate, seed=args.seed
    )
    if args.workers is not None:
        # Partitioned in-process run: shard the ER graph and fan the
        # shards onto a worker pool, streaming per-partition progress.
        state = Remp(config, seed=args.seed).prepare(bundle.kb1, bundle.kb2)
        progress = ShardProgressPrinter()
        runner = ParallelRunner(
            config, seed=args.seed, workers=args.workers, on_event=progress
        )
        try:
            result = runner.run(state, crowd)
        except PartialResult as exc:
            # Graceful degradation: report the quarantined shards and
            # the merged healthy result instead of a traceback.
            print(f"run: degraded: {exc}", file=sys.stderr)
            _print_run_summary(exc.result, bundle.gold_matches)
            return 1
        finally:
            progress.close()
        _print_run_summary(result, bundle.gold_matches)
        return 0
    result = Remp(config, seed=args.seed).run(
        bundle.kb1, bundle.kb2, crowd.build_seeded(args.seed)
    )
    _print_run_summary(result, bundle.gold_matches)
    return 0


def _print_run_summary(result, gold_matches, run_id: str | None = None) -> None:
    quality = evaluate_matches(result.matches, gold_matches)
    print(quality.as_row())
    line = (
        f"questions={result.questions_asked} loops={result.num_loops} "
        f"labeled={len(result.labeled_matches)} inferred={len(result.inferred_matches)} "
        f"isolated={len(result.isolated_matches)}"
    )
    if run_id is not None:
        line = f"run={run_id} " + line
    print(line)


def _run_via_service(args: argparse.Namespace, config: RempConfig) -> int:
    """Durable variant of ``run``: cached prepare, checkpoints, resume."""
    # A resumed run may turn out to be partitioned (the ledger remembers);
    # give it a printer too — monolithic sessions simply emit no events.
    progress = (
        ShardProgressPrinter() if args.workers is not None or args.resume else None
    )
    with MatchingService(_store_path(args), max_workers=1) as service:
        if args.resume:
            try:
                run_id = service.resume(
                    args.resume,
                    background=False,
                    workers=args.workers,
                    on_event=progress,
                )
            except (KeyError, ValueError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                print(f"run: cannot resume: {message}", file=sys.stderr)
                return 1
        else:
            run_id = service.submit(
                args.dataset,
                seed=args.seed,
                scale=args.scale,
                config=config,
                error_rate=args.error_rate,
                background=False,
                workers=args.workers,
                on_event=progress,
                stream=args.stream,
            )
        try:
            result = service.result(run_id)
        except PartialResult as exc:
            # Graceful degradation: the ledger already recorded the run
            # as failed with the quarantined shards; show the merged
            # healthy remainder instead of a traceback.
            print(f"run: degraded: {exc}", file=sys.stderr)
            _print_run_summary(exc.result, service.truth(run_id), run_id=run_id)
            return 1
        finally:
            if progress is not None:
                progress.close()
        _print_run_summary(result, service.truth(run_id), run_id=run_id)
    return 0


def _run_since(args: argparse.Namespace) -> int:
    """``run --since RUN_ID --steps K``: advance an evolving stream run."""
    from repro.datasets import evolving_bundle

    with MatchingService(_store_path(args), max_workers=1) as service:
        record = service.store.get_run(args.since)
        if record is None:
            print(f"run: unknown run {args.since!r}", file=sys.stderr)
            return 1
        if not record.streaming or record.kb_fingerprint is None:
            print(
                f"run: {args.since!r} is not a stream run (or predates the "
                "lineage migration); submit it with --stream first",
                file=sys.stderr,
            )
            return 1
        if record.dataset != EVOLVING_NAME:
            print(
                f"run: --since generates deltas for the {EVOLVING_NAME!r} "
                f"dataset; run {args.since!r} matched {record.dataset!r}",
                file=sys.stderr,
            )
            return 1
        current_step = record.stream_step or 0
        if args.steps <= current_step:
            print(
                f"run: {args.since!r} is already at step {current_step}; "
                f"--steps must exceed it",
                file=sys.stderr,
            )
            return 1
        evolving = evolving_bundle(
            seed=record.seed, scale=record.scale, steps=args.steps
        )
        run_id = args.since
        try:
            for step in range(current_step + 1, args.steps + 1):
                # One printer per step: the live status line aggregates
                # per-shard state, which must not leak across runs.
                progress = ShardProgressPrinter()
                try:
                    run_id = service.update(
                        run_id,
                        evolving.deltas[step - 1],
                        workers=args.workers,
                        background=False,
                        on_event=progress,
                    )
                    result = service.result(run_id)
                finally:
                    progress.close()
                outcome = service.stream_outcome(run_id)
                print(
                    f"step {step}: run={run_id} "
                    f"reused={len(outcome.reused_keys)}/{len(outcome.records)} "
                    f"new-questions={outcome.questions_new}"
                )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            print(f"run: cannot update: {message}", file=sys.stderr)
            return 1
        _print_run_summary(result, evolving.gold_at(args.steps), run_id=run_id)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    """``update RUN_ID --delta FILE``: apply one KB delta incrementally."""
    _apply_env_flags(args)
    delta_path = Path(args.delta)
    if not delta_path.exists():
        print(f"update: no such delta file {args.delta!r}", file=sys.stderr)
        return 2
    try:
        delta = KBDelta.from_doc(json.loads(delta_path.read_text()))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"update: malformed delta file: {exc}", file=sys.stderr)
        return 2
    progress = ShardProgressPrinter()
    with MatchingService(_store_path(args), max_workers=1) as service:
        try:
            run_id = service.update(
                args.run_id,
                delta,
                workers=args.workers,
                background=False,
                on_event=progress,
            )
            result = service.result(run_id)
        except KeyError:
            progress.close()
            print(f"update: unknown run {args.run_id!r}", file=sys.stderr)
            return 1
        except DeltaConflictError as exc:
            progress.close()
            print(f"update: delta conflicts with the cached KBs: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            progress.close()
            print(f"update: {exc}", file=sys.stderr)
            return 1
        progress.close()
        outcome = service.stream_outcome(run_id)
        _print_run_summary(result, service.truth(run_id), run_id=run_id)
        if outcome is not None:
            print(
                f"reused {len(outcome.reused_keys)}/{len(outcome.records)} units, "
                f"{outcome.questions_new} newly billed question(s)"
            )
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    with MatchingService(
        _store_path(args), max_workers=args.workers, error_rate=args.error_rate
    ) as service:
        run_ids = [
            service.submit(
                dataset, seed=args.seed, scale=args.scale, strategy=args.strategy
            )
            for dataset in args.datasets
        ]
        for dataset, run_id in zip(args.datasets, run_ids):
            result = service.result(run_id)
            bundle = load_dataset(dataset, seed=args.seed, scale=args.scale)
            quality = evaluate_matches(result.matches, bundle.gold_matches)
            print(
                f"{run_id}  {dataset:<14} {quality.as_row()} "
                f"questions={result.questions_asked} loops={result.num_loops}"
            )
        print(
            f"prepared-state cache: {service.cache_hits} hits, "
            f"{service.cache_misses} misses"
        )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    with RunStore(_store_path(args)) as store:
        if args.runs_command == "list":
            records = store.list_runs(dataset=args.dataset)
            if not records:
                print("no runs recorded")
                return 0
            print(
                f"{'RUN':<14} {'DATASET':<14} {'SEED':>4} {'SCALE':>6} "
                f"{'STRATEGY':<8} {'STATUS':<9} {'QUESTIONS':>9}  UPDATED"
            )
            for r in records:
                print(
                    f"{r.run_id:<14} {r.dataset:<14} {r.seed:>4} {r.scale:>6} "
                    f"{r.strategy:<8} {r.status:<9} {r.questions_asked:>9}  {r.updated_at}"
                )
            return 0
        record = store.get_run(args.run_id)
        if record is None:
            print(f"unknown run {args.run_id!r}", file=sys.stderr)
            return 1
        if args.runs_command == "watch":
            return _watch_run(store, args)
        if args.runs_command == "trace":
            from repro.obs.export import chrome_trace, filter_spans

            doc = store.load_run_obs(args.run_id) or {}
            spans = doc.get("trace", [])
            if not spans:
                print(f"no trace recorded for run {args.run_id!r}", file=sys.stderr)
                return 1
            spans = filter_spans(spans, name=args.span, shard_id=args.shard)
            if not spans:
                print(
                    f"no spans match the filter for run {args.run_id!r}",
                    file=sys.stderr,
                )
                return 1
            if args.chrome:
                print(json.dumps(chrome_trace(spans), sort_keys=True))
            else:
                for span in spans:
                    print(json.dumps(span, sort_keys=True))
            if doc.get("trace_dropped"):
                print(
                    f"({doc['trace_dropped']} span(s) dropped at the buffer cap)",
                    file=sys.stderr,
                )
            return 0
        if args.runs_command == "metrics":
            doc = store.load_run_obs(args.run_id) or {}
            metrics = doc.get("metrics") or {"counters": {}, "gauges": {}}
            if args.prometheus:
                from repro.obs.export import prometheus_text

                timings = store.load_run_timings(args.run_id) or {}
                sys.stdout.write(
                    prometheus_text(
                        metrics,
                        labels={
                            "run_id": args.run_id,
                            "dataset": record.dataset,
                        },
                        timings=timings.get("stages"),
                    )
                )
                return 0
            out = {
                "metrics": metrics,
                "cost_ledger": doc.get("cost_ledger"),
            }
            print(json.dumps(out, indent=1, sort_keys=True))
            return 0
        if args.runs_command == "export-artifacts":
            try:
                dest = export_run_artifacts(
                    store, args.run_id, root=args.output, force=args.force
                )
            except FileExistsError as exc:
                print(f"export-artifacts: {exc}", file=sys.stderr)
                return 1
            print(f"wrote run artifacts to {dest}")
            return 0
        # runs show
        for key in (
            "run_id", "dataset", "seed", "scale", "config_hash", "strategy",
            "error_rate", "status", "questions_asked", "created_at", "updated_at",
        ):
            print(f"{key}: {getattr(record, key)}")
        if record.streaming:
            print(f"stream_step: {record.stream_step}")
            print(f"kb_fingerprint: {record.kb_fingerprint}")
            chain = store.lineage(args.run_id)
            if len(chain) > 1:
                print("lineage: " + " -> ".join(r.run_id for r in chain))
            units = store.load_unit_record_docs(args.run_id)
            if units:
                reusable = sum(1 for doc in units.values() if doc["kind"] == "graph")
                print(f"stream units: {len(units)} recorded ({reusable} reusable)")
        checkpoint = store.load_checkpoint(args.run_id)
        if checkpoint is not None:
            print(
                f"checkpoint: loop {checkpoint.next_loop_index}, "
                f"{checkpoint.questions_asked} questions asked, "
                f"{len(checkpoint.answer_log)} labels recorded"
            )
        timings = store.load_run_timings(args.run_id)
        if timings is not None:
            stages = timings.get("stages", {})
            if stages:
                # Stages nest (prepare.candidates contains candidates.score,
                # which contains kernel.candidates), so rows do not add up.
                print("kernel timings (inclusive seconds x calls; nested stages overlap):")
                for name, entry in sorted(
                    stages.items(), key=lambda item: -item[1]["seconds"]
                ):
                    print(
                        f"  {name:<28} {entry['seconds']:>9.3f}s x{entry['calls']}"
                    )
        result = store.get_result(args.run_id)
        if result is not None:
            print(
                f"result: {len(result.matches)} matches "
                f"(labeled={len(result.labeled_matches)} "
                f"inferred={len(result.inferred_matches)} "
                f"isolated={len(result.isolated_matches)}) "
                f"in {result.num_loops} loops"
            )
        if record.error:
            print(f"error:\n{record.error}")
    return 0


def _watch_run(store: RunStore, args: argparse.Namespace) -> int:
    """``runs watch RUN_ID``: tail the live event stream of one run.

    Polls the ``run_events`` table (which the run's scope writes) by
    sequence number, so it works from a *different process* than the one
    executing the run.  On a TTY the multi-line frame redraws in place;
    on a pipe each changed frame prints once.  Exits when the run
    reaches a terminal status (or after ``--for`` seconds).
    """
    from repro.obs.live import RunWatch

    watch = RunWatch()
    stream = sys.stdout
    live = bool(getattr(stream, "isatty", lambda: False)())
    deadline = None if args.duration is None else time.monotonic() + args.duration
    frame_lines = 0
    while True:
        record = store.get_run(args.run_id)
        if record is None:
            print(f"unknown run {args.run_id!r}", file=sys.stderr)
            return 1
        changed = watch.feed(store.tail_run_events(args.run_id, watch.last_seq))
        finished = record.finished
        timings = None
        if finished:
            doc = store.load_run_timings(args.run_id)
            timings = doc.get("stages") if doc else None
        frame = watch.render(record, timings)
        if live:
            if frame_lines:
                # Redraw in place: up over the previous frame, clear down.
                stream.write(f"\x1b[{frame_lines}A\x1b[J")
            stream.write(frame + "\n")
            frame_lines = frame.count("\n") + 1
        elif changed or finished or not frame_lines:
            stream.write(frame + "\n")
            frame_lines = 1
        stream.flush()
        if finished or args.once:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        time.sleep(args.interval)


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: every in-flight run of the store, one line each."""
    from repro.obs.live import RunWatch, render_top

    deadline = None if args.duration is None else time.monotonic() + args.duration
    watches: dict[str, RunWatch] = {}
    with RunStore(_store_path(args)) as store:
        while True:
            rows = []
            for record in store.active_runs():
                watch = watches.get(record.run_id) or RunWatch()
                watch.feed(store.tail_run_events(record.run_id, watch.last_seq))
                rows.append((record, watch))
            watches = {record.run_id: watch for record, watch in rows}
            print(render_top(rows))
            if not args.watch:
                return 0
            if deadline is not None and time.monotonic() >= deadline:
                return 0
            time.sleep(args.interval)
            print()


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench compare``: the cross-run regression sentinel."""
    from repro.obs import sentinel

    try:
        baseline = sentinel.load_snapshot(args.baseline)
        current = sentinel.load_snapshot(args.current)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    findings = sentinel.compare(
        baseline,
        current,
        max_slowdown=args.max_slowdown,
        min_seconds=args.min_seconds,
        z=args.z,
    )
    print(sentinel.render_report(baseline, current, findings))
    return 1 if sentinel.flagged(findings) else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    with RunStore(_store_path(args)) as store:
        if args.cache_command == "clear":
            removed = store.clear_prepared()
            print(f"removed {removed} prepared state(s) from {store.path}")
        else:  # info
            stats = store.stats()
            print(f"store: {stats['path']}")
            print(f"prepared states: {stats['prepared_states']}")
            for fingerprint, digest, version in store.list_prepared():
                print(f"  kb={fingerprint} config={digest} version={version}")
            print(f"runs: {stats['runs']} {stats['runs_by_status']}")
            print(f"checkpoints: {stats['checkpoints']}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    """``partition info``: show the shard layout for one dataset."""
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    state = Remp(RempConfig(), seed=args.seed).prepare(bundle.kb1, bundle.kb2)
    kwargs = {}
    if args.shards is not None:
        kwargs["target_shards"] = args.shards
    plan = partition_state(state, max_shard_size=args.max_shard_size, **kwargs)
    print(f"== {args.dataset} seed={args.seed} scale={args.scale}")
    print(plan.describe())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    result = module.run(scale=args.scale, seed=args.seed)
    print(result.render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_kb_json(bundle.kb1, out / "kb1.json")
    save_kb_json(bundle.kb2, out / "kb2.json")
    (out / "gold_matches.json").write_text(
        json.dumps(sorted(map(list, bundle.gold_matches)), indent=1)
    )
    (out / "gold_attribute_matches.json").write_text(
        json.dumps(sorted(map(list, bundle.gold_attribute_matches)), indent=1)
    )
    print(f"wrote kb1.json, kb2.json and gold files to {out}")
    return 0


EXPERIMENT_NAMES = (
    "table3", "figure3", "table4", "table5", "figure4",
    "table6", "figure5", "table7", "table8", "figure6",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Remp reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="show dataset statistics")
    p_datasets.add_argument("--scale", type=float, default=1.0)
    p_datasets.add_argument("--seed", type=int, default=0)
    p_datasets.set_defaults(func=_cmd_datasets)

    p_run = sub.add_parser("run", help="run the Remp pipeline on a dataset")
    p_run.add_argument("dataset", nargs="?", choices=RUN_DATASET_CHOICES)
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--mu", type=int, default=10)
    p_run.add_argument("--tau", type=float, default=0.9)
    p_run.add_argument("--budget", type=int, default=None)
    p_run.add_argument(
        "--error-rate", type=float, default=0.05,
        help="worker error rate; 0 uses a perfect oracle",
    )
    p_run.add_argument(
        "--store", default=None,
        help="run durably through this store: cached prepare + loop checkpoints",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted run from its checkpoint",
    )
    p_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="partitioned execution: shard the ER graph and run on N"
        " processes (the merged result is identical for every N)",
    )
    p_run.add_argument(
        "--stream", action="store_true",
        help="run unit-wise and record per-unit outcomes, making this the"
        " root of an updatable lineage (requires --store)",
    )
    p_run.add_argument(
        "--since", default=None, metavar="RUN_ID",
        help="advance an evolving-dataset stream run incrementally"
        " (combine with --steps K)",
    )
    p_run.add_argument(
        "--steps", type=int, default=None, metavar="K",
        help="target stream step for --since",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="sample wall-clock stacks during the run (REPRO_PROFILE=1);"
        " with --store the folded stacks land in the run's artifacts",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="JSON_OR_@FILE",
        help="activate a deterministic fault plan (repro.faults) for the"
        " run: inline JSON or @path/to/plan.json (sets REPRO_FAULTS)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_update = sub.add_parser(
        "update", help="apply a KB delta to a finished stream run"
    )
    p_update.add_argument("run_id")
    p_update.add_argument(
        "--delta", required=True, metavar="FILE",
        help="JSON file holding a KBDelta document",
    )
    p_update.add_argument("--workers", type=int, default=None, metavar="N")
    p_update.add_argument("--store", default=None)
    p_update.add_argument(
        "--faults", default=None, metavar="JSON_OR_@FILE",
        help="activate a deterministic fault plan (repro.faults) for the"
        " update: inline JSON or @path/to/plan.json (sets REPRO_FAULTS)",
    )
    p_update.set_defaults(func=_cmd_update)

    p_partition = sub.add_parser("partition", help="inspect the partition layer")
    partition_sub = p_partition.add_subparsers(dest="partition_command", required=True)
    p_partition_info = partition_sub.add_parser(
        "info", help="show the shard layout for a dataset"
    )
    p_partition_info.add_argument("dataset", choices=DATASET_NAMES)
    p_partition_info.add_argument("--scale", type=float, default=1.0)
    p_partition_info.add_argument("--seed", type=int, default=0)
    p_partition_info.add_argument("--shards", type=int, default=None,
                                  help="target number of graph shards")
    p_partition_info.add_argument("--max-shard-size", type=int, default=None,
                                  help="cap on candidate pairs per graph shard")
    p_partition.set_defaults(func=_cmd_partition)

    p_serve = sub.add_parser(
        "serve-batch", help="run several datasets concurrently via the service"
    )
    p_serve.add_argument("datasets", nargs="+", choices=DATASET_NAMES)
    p_serve.add_argument("--scale", type=float, default=1.0)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--strategy", default="remp", choices=("remp", "maxinf", "maxpr"))
    p_serve.add_argument("--workers", type=int, default=4, help="thread-pool size")
    p_serve.add_argument(
        "--error-rate", type=float, default=0.0,
        help="worker error rate; 0 uses a perfect oracle",
    )
    p_serve.add_argument("--store", default=None)
    p_serve.set_defaults(func=_cmd_serve_batch)

    p_runs = sub.add_parser("runs", help="query the run ledger")
    p_runs.add_argument("--store", default=None)
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="list recorded runs")
    p_runs_list.add_argument("--dataset", default=None)
    p_runs_list.add_argument("--store", default=argparse.SUPPRESS)
    p_runs_show = runs_sub.add_parser("show", help="show one run in detail")
    p_runs_show.add_argument("run_id")
    p_runs_show.add_argument("--store", default=argparse.SUPPRESS)
    p_runs_trace = runs_sub.add_parser(
        "trace", help="dump a run's trace spans as JSONL"
    )
    p_runs_trace.add_argument("run_id")
    p_runs_trace.add_argument(
        "--span", default=None, metavar="NAME",
        help="only spans whose name contains NAME",
    )
    p_runs_trace.add_argument(
        "--shard", type=int, default=None, metavar="ID",
        help="only spans correlated to this shard id",
    )
    p_runs_trace.add_argument(
        "--chrome", action="store_true",
        help="emit Chrome trace_event JSON (loads in Perfetto) instead of JSONL",
    )
    p_runs_trace.add_argument("--store", default=argparse.SUPPRESS)
    p_runs_metrics = runs_sub.add_parser(
        "metrics", help="print a run's metrics and cost ledger as JSON"
    )
    p_runs_metrics.add_argument("run_id")
    p_runs_metrics.add_argument(
        "--prometheus", action="store_true",
        help="emit the Prometheus text exposition format instead of JSON",
    )
    p_runs_metrics.add_argument("--store", default=argparse.SUPPRESS)
    p_runs_watch = runs_sub.add_parser(
        "watch", help="follow an in-flight run live (tails the event stream)"
    )
    p_runs_watch.add_argument("run_id")
    p_runs_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="poll interval in seconds (default: 0.5)",
    )
    p_runs_watch.add_argument(
        "--for", type=float, default=None, metavar="S", dest="duration",
        help="stop watching after S seconds even if the run is still going",
    )
    p_runs_watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (snapshot mode)",
    )
    p_runs_watch.add_argument("--store", default=argparse.SUPPRESS)
    p_runs_export = runs_sub.add_parser(
        "export-artifacts",
        help="materialise runs/<run_id>/ (meta, trace, metrics, ledger, result)",
    )
    p_runs_export.add_argument("run_id")
    p_runs_export.add_argument(
        "--output", "--out", default="runs", metavar="DIR",
        help="artifact root directory (default: runs/)",
    )
    p_runs_export.add_argument(
        "--force", action="store_true",
        help="overwrite an existing runs/<run_id>/ export",
    )
    p_runs_export.add_argument("--store", default=argparse.SUPPRESS)
    p_runs.set_defaults(func=_cmd_runs)

    p_top = sub.add_parser(
        "top", help="show every in-flight run of the store (live counterpart"
        " of 'runs list')"
    )
    p_top.add_argument("--store", default=None)
    p_top.add_argument(
        "--watch", action="store_true",
        help="refresh repeatedly instead of printing one snapshot",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval for --watch (default: 1.0)",
    )
    p_top.add_argument(
        "--for", type=float, default=None, metavar="S", dest="duration",
        help="stop after S seconds (with --watch)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_bench = sub.add_parser(
        "bench", help="cross-run benchmark tooling (regression sentinel)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_compare = bench_sub.add_parser(
        "compare",
        help="diff per-stage timings between two artifacts; exit 1 on a"
        " flagged regression",
    )
    p_bench_compare.add_argument(
        "baseline",
        help="baseline artifact: a runs/<id>/ dir, BENCH_history.jsonl, or"
        " BENCH_*.json",
    )
    p_bench_compare.add_argument("current", help="current artifact (same shapes)")
    p_bench_compare.add_argument(
        "--max-slowdown", type=float, default=0.5, metavar="FRAC",
        help="minimum tolerated slowdown fraction before flagging (default 0.5)",
    )
    p_bench_compare.add_argument(
        "--min-seconds", type=float, default=0.05, metavar="S",
        help="ignore stages faster than S seconds on either side (default 0.05)",
    )
    p_bench_compare.add_argument(
        "--z", type=float, default=3.0,
        help="noise multiplier: allowance grows to z x the baseline's"
        " coefficient of variation (default 3.0)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_cache = sub.add_parser("cache", help="inspect or clear the prepared-state cache")
    p_cache.add_argument("--store", default=None)
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_info = cache_sub.add_parser("info", help="show cache and ledger statistics")
    p_cache_info.add_argument("--store", default=argparse.SUPPRESS)
    p_cache_clear = cache_sub.add_parser("clear", help="drop all cached prepared states")
    p_cache_clear.add_argument("--store", default=argparse.SUPPRESS)
    p_cache.set_defaults(func=_cmd_cache)

    p_exp = sub.add_parser("experiment", help="regenerate one paper artifact")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.set_defaults(func=_cmd_experiment)

    p_export = sub.add_parser("export", help="write a dataset to disk")
    p_export.add_argument("dataset", choices=DATASET_NAMES)
    p_export.add_argument("output")
    p_export.add_argument("--scale", type=float, default=1.0)
    p_export.add_argument("--seed", type=int, default=0)
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --profile / --faults work by setting REPRO_PROFILE / REPRO_FAULTS
    # (checked at call sites, including in worker processes); restore
    # the prior values so embedding callers can invoke main() repeatedly
    # without one command's flag leaking into the next.
    previous = {
        name: os.environ.get(name) for name in ("REPRO_PROFILE", "REPRO_FAULTS")
    }
    try:
        return args.func(args)
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
