"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.store import RunStore


def test_datasets_command(capsys):
    assert main(["datasets", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    for name in ("iimb", "dblp_acm", "imdb_yago", "dbpedia_yago"):
        assert name in out


def test_run_command_oracle(capsys):
    assert main(["run", "iimb", "--scale", "0.2", "--error-rate", "0"]) == 0
    out = capsys.readouterr().out
    assert "F1=" in out
    assert "questions=" in out


def test_run_command_with_budget(capsys):
    assert main(["run", "iimb", "--scale", "0.2", "--budget", "3", "--error-rate", "0"]) == 0
    assert "questions=" in capsys.readouterr().out


def test_experiment_command(capsys):
    assert main(["experiment", "table5", "--scale", "0.2"]) == 0
    assert "Table V" in capsys.readouterr().out


def test_export_command(tmp_path, capsys):
    assert main(["export", "iimb", str(tmp_path / "out"), "--scale", "0.2"]) == 0
    gold = json.loads((tmp_path / "out" / "gold_matches.json").read_text())
    assert gold
    assert (tmp_path / "out" / "kb1.json").exists()
    assert (tmp_path / "out" / "kb2.json").exists()


def test_run_workers_partitioned(capsys):
    assert main(
        ["run", "iimb", "--scale", "0.2", "--error-rate", "0", "--workers", "2"]
    ) == 0
    captured = capsys.readouterr()
    assert "F1=" in captured.out
    # The live status line streams shard lifecycle events to stderr.
    assert "shard 0" in captured.err
    assert "finished" in captured.err


def test_run_workers_zero_rejected(capsys):
    assert main(["run", "iimb", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_partition_info(capsys):
    assert main(["partition", "info", "iimb", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "graph shard(s)" in out
    assert "SHARD" in out
    assert "isolated" in out


def test_partition_info_with_shard_cap(capsys):
    assert main(
        ["partition", "info", "iimb", "--scale", "0.2", "--max-shard-size", "10"]
    ) == 0
    assert "max shard size 10" in capsys.readouterr().out


def test_unknown_dataset_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


def test_run_without_dataset_or_resume_rejected(capsys):
    assert main(["run"]) == 2
    assert "dataset is required" in capsys.readouterr().err


def test_parser_lists_all_experiments():
    parser = build_parser()
    help_text = parser.format_help()
    assert "experiment" in help_text
    for command in ("serve-batch", "runs", "cache"):
        assert command in help_text


class TestStoreCommands:
    @pytest.fixture()
    def store_path(self, tmp_path):
        return str(tmp_path / "store.db")

    def test_run_with_store_records_ledger(self, store_path, capsys):
        argv = ["run", "iimb", "--scale", "0.2", "--error-rate", "0",
                "--store", store_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run=" in out

        assert main(["runs", "list", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "iimb" in out
        assert "done" in out

    def test_in_process_run_matches_store_run(self, store_path, capsys, monkeypatch):
        """``--seed`` reaches the crowd and the classifier on both run paths."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        argv = ["run", "dbpedia_yago", "--scale", "0.2", "--seed", "1",
                "--error-rate", "0.05"]
        assert main(argv) == 0
        in_process = capsys.readouterr().out.splitlines()
        assert main(argv + ["--store", store_path]) == 0
        durable = capsys.readouterr().out.splitlines()
        prefix, durable[-1] = durable[-1].split(" ", 1)
        assert prefix.startswith("run=")
        assert durable == in_process

    def test_second_run_hits_prepared_cache(self, store_path, capsys):
        argv = ["serve-batch", "iimb", "--scale", "0.2", "--store", store_path]
        assert main(argv) == 0
        assert "1 misses" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 hits, 0 misses" in out

    def test_serve_batch_multiple_datasets(self, store_path, capsys):
        argv = ["serve-batch", "iimb", "dblp_acm", "--scale", "0.2",
                "--workers", "2", "--store", store_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "iimb" in out and "dblp_acm" in out
        assert "F1=" in out

    def test_runs_show(self, store_path, capsys):
        main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
              "--store", store_path])
        out = capsys.readouterr().out
        run_id = out.split("run=")[1].split()[0]
        assert main(["runs", "show", run_id, "--store", store_path]) == 0
        detail = capsys.readouterr().out
        assert f"run_id: {run_id}" in detail
        assert "result:" in detail
        store = RunStore(store_path)
        timings = store.load_run_timings(run_id)
        assert "accel" not in timings
        store.close()

    def test_runs_show_unknown_run(self, store_path, capsys):
        assert main(["runs", "show", "nope", "--store", store_path]) == 1

    def _submit_run(self, store_path, capsys, *extra):
        main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
              "--store", store_path, *extra])
        out = capsys.readouterr().out
        return out.split("run=")[1].split()[0]

    def test_runs_show_totals_kernel_timings(self, store_path, capsys):
        run_id = self._submit_run(store_path, capsys)
        assert main(["runs", "show", run_id, "--store", store_path]) == 0
        detail = capsys.readouterr().out
        header = "kernel timings (inclusive seconds x calls; nested stages overlap):"
        lines = detail.splitlines()
        start = lines.index(header) + 1
        stage_lines = []
        for line in lines[start:]:
            if not line.startswith("  "):
                break
            stage_lines.append(line)
        seconds = [float(line.split()[-2].rstrip("s")) for line in stage_lines]
        assert seconds == sorted(seconds, reverse=True)
        # Nested stages are inclusive and overlap, so no row sums them.
        assert "total" not in detail

    def test_runs_trace_prints_jsonl(self, store_path, capsys):
        run_id = self._submit_run(store_path, capsys)
        assert main(["runs", "trace", run_id, "--store", store_path]) == 0
        out = capsys.readouterr().out
        spans = [json.loads(line) for line in out.splitlines()]
        assert spans
        assert all(span["run_id"] == run_id for span in spans)
        assert "loop.iteration" in {span["name"] for span in spans}

    def test_runs_trace_without_trace_is_clean_error(self, store_path, capsys):
        run_id = self._submit_run(store_path, capsys)
        with RunStore(store_path) as store:
            doc = store.load_run_obs(run_id)
            doc["trace"] = []
            store.save_run_obs(run_id, doc)
        assert main(["runs", "trace", run_id, "--store", store_path]) == 1
        assert "no trace recorded" in capsys.readouterr().err
        assert main(["runs", "trace", "nope", "--store", store_path]) == 1

    def test_runs_metrics_reports_ledger(self, store_path, capsys):
        run_id = self._submit_run(store_path, capsys)
        assert main(["runs", "metrics", run_id, "--store", store_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        ledger = doc["cost_ledger"]
        assert ledger["total"] == sum(i["questions"] for i in ledger["items"])
        with RunStore(store_path) as store:
            record = store.get_run(run_id)
        assert ledger["total"] == record.questions_asked
        assert doc["metrics"]["counters"]["loop.iterations"] >= 1

    def test_runs_export_artifacts(self, store_path, capsys, tmp_path):
        run_id = self._submit_run(store_path, capsys, "--workers", "2")
        out_root = tmp_path / "artifacts"
        assert main(["runs", "export-artifacts", run_id,
                     "--output", str(out_root), "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "wrote run artifacts to" in out
        dest = out_root / run_id
        for name in ("meta.json", "trace.jsonl", "metrics.json",
                     "cost_ledger.json", "result.json"):
            assert (dest / name).is_file()
        meta = json.loads((dest / "meta.json").read_text())
        assert meta["run_id"] == run_id
        assert main(["runs", "export-artifacts", "nope",
                     "--store", store_path]) == 1

    def test_runs_export_artifacts_refuses_overwrite(
        self, store_path, capsys, tmp_path
    ):
        run_id = self._submit_run(store_path, capsys)
        out_root = tmp_path / "artifacts"
        argv = ["runs", "export-artifacts", run_id,
                "--out", str(out_root), "--store", store_path]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0
        assert "wrote run artifacts" in capsys.readouterr().out

    def test_run_profile_flag_collects_samples(self, store_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.001")
        assert main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
                     "--profile", "--store", store_path]) == 0
        out = capsys.readouterr().out
        run_id = next(
            part.split("=", 1)[1] for part in out.split() if part.startswith("run=")
        )
        with RunStore(store_path) as store:
            doc = store.load_run_obs(run_id)
        assert doc["profile"]["samples"] >= 0
        assert "interval" in doc["profile"]
        # The flag must not leak into later commands' environment.
        import os
        assert os.environ.get("REPRO_PROFILE") is None

    def test_cache_info_and_clear(self, store_path, capsys):
        main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
              "--store", store_path])
        capsys.readouterr()
        assert main(["cache", "info", "--store", store_path]) == 0
        assert "prepared states: 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", store_path]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_store_with_substrate_blobs_upgrades_cleanly(self, store_path, capsys):
        """A store from before the blob table's removal opens and serves.

        Such a store holds every current table plus ``substrate_blobs``
        (packed dominance matrices).  Opening it drops the table; a
        service job and ``cache info`` / ``cache clear`` then work and
        print no blob line.
        """
        import sqlite3

        from repro.service import MatchingService

        RunStore(store_path).close()
        legacy = sqlite3.connect(store_path)
        legacy.executescript(
            """
            CREATE TABLE IF NOT EXISTS substrate_blobs (
                key TEXT PRIMARY KEY, rows INTEGER NOT NULL,
                cols INTEGER NOT NULL, payload BLOB NOT NULL,
                digest TEXT, created_at TEXT NOT NULL);
            INSERT INTO substrate_blobs VALUES
                ('a:b:c', 1, 1, zeroblob(8), NULL, '2026-01-01');
            """
        )
        legacy.commit()
        legacy.close()

        with MatchingService(RunStore(store_path)) as service:
            service.result(service.submit("iimb", scale=0.2, background=False))
        tables = sqlite3.connect(store_path)
        try:
            assert tables.execute(
                "SELECT name FROM sqlite_master WHERE name = 'substrate_blobs'"
            ).fetchall() == []
        finally:
            tables.close()
        assert main(["cache", "info", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "prepared states: 1" in out
        assert "substrate blob" not in out
        assert main(["cache", "clear", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert "substrate blob" not in out

    def test_store_with_dataset_keyed_prepared_states_upgrades_cleanly(
        self, store_path, capsys
    ):
        """A store from before content keys drops its old prepared table.

        That ``prepared_states`` table keyed states by dataset name, and
        post-delta states by ``fp:`` names.  Opening the store drops it:
        ``cache info`` reports no states, and a service job then stores
        exactly one row, under its content key.
        """
        import sqlite3

        from repro.datasets import load_dataset
        from repro.service import MatchingService
        from repro.store.serialize import PREPARED_STATE_VERSION
        from repro.substrate import substrate_key

        RunStore(store_path).close()
        legacy = sqlite3.connect(store_path)
        legacy.executescript(
            """
            CREATE TABLE prepared_states (
                dataset TEXT NOT NULL, seed INTEGER NOT NULL,
                scale REAL NOT NULL, config_hash TEXT NOT NULL,
                payload TEXT NOT NULL, created_at TEXT NOT NULL,
                PRIMARY KEY (dataset, seed, scale, config_hash));
            INSERT INTO prepared_states VALUES
                ('iimb', 0, 0.2, 'x', '{}', '2026-01-01'),
                ('fp:0123456789abcdef', 0, 0.2, 'x', '{}', '2026-01-01');
            """
        )
        legacy.commit()
        legacy.close()

        assert main(["cache", "info", "--store", store_path]) == 0
        assert "prepared states: 0" in capsys.readouterr().out
        tables = sqlite3.connect(store_path)
        try:
            assert tables.execute(
                "SELECT name FROM sqlite_master WHERE name = 'prepared_states'"
            ).fetchall() == []
        finally:
            tables.close()
        with MatchingService(store_path) as service:
            service.result(service.submit("iimb", scale=0.2, background=False))
        bundle = load_dataset("iimb", seed=0, scale=0.2)
        key = substrate_key(bundle.kb1, bundle.kb2, None)
        with RunStore(store_path) as store:
            assert store.list_prepared() == [(*key, PREPARED_STATE_VERSION)]

    def test_run_honors_repro_store_env(self, store_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", store_path)
        assert main(["run", "iimb", "--scale", "0.2", "--error-rate", "0"]) == 0
        assert "run=" in capsys.readouterr().out
        assert main(["runs", "list"]) == 0
        assert "done" in capsys.readouterr().out

    def test_resume_rejects_conflicting_flags(self, store_path, capsys):
        assert main(["run", "iimb", "--resume", "rid", "--store", store_path]) == 2
        assert "cannot be combined with --resume" in capsys.readouterr().err
        assert main(["run", "--resume", "rid", "--budget", "5",
                     "--store", store_path]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_resume_unknown_run_is_clean_error(self, store_path, capsys):
        assert main(["run", "--resume", "nope", "--store", store_path]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_finished_run_is_clean_error(self, store_path, capsys):
        main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
              "--store", store_path])
        out = capsys.readouterr().out
        run_id = out.split("run=")[1].split()[0]
        assert main(["run", "--resume", run_id, "--store", store_path]) == 1
        assert "already finished" in capsys.readouterr().err

    def test_resume_via_cli(self, store_path, capsys):
        from repro.service import MatchingService

        # Interrupt a run after one loop, as if the process had died.
        with MatchingService(store_path) as service:
            run_id = service.submit(
                "iimb", scale=0.2, error_rate=0.0, background=False
            )
            assert service.step(run_id)

        assert main(["run", "--resume", run_id, "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert f"run={run_id}" in out
        assert "F1=" in out

    def test_update_via_cli_reuses_clean_units(self, store_path, tmp_path, capsys):
        from repro.datasets import evolving_bundle

        assert main(["run", "evolving", "--scale", "0.4", "--error-rate", "0",
                     "--stream", "--store", store_path]) == 0
        run_id = capsys.readouterr().out.split("run=")[1].split()[0]
        evolving = evolving_bundle(seed=0, scale=0.4, steps=1)
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(evolving.deltas[0].to_doc()))
        assert main(["update", run_id, "--delta", str(delta_file),
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "reused" in out
        assert "F1=" in out

    def test_run_since_advances_stream(self, store_path, capsys):
        assert main(["run", "evolving", "--scale", "0.4", "--error-rate", "0",
                     "--stream", "--store", store_path]) == 0
        run_id = capsys.readouterr().out.split("run=")[1].split()[0]
        assert main(["run", "--since", run_id, "--steps", "2",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "step 1:" in out and "step 2:" in out
        assert "F1=" in out

    def test_update_after_cache_clear_replays_lineage(
        self, store_path, tmp_path, capsys
    ):
        """``cache clear`` drops every prepared state, not the lineage.

        The ledger still records each delta, so ``update`` from a
        non-root run rebuilds its parent state from the root and lands
        on the same result as the same update before the clear.
        """
        import re
        import shutil

        from repro.datasets import evolving_bundle

        assert main(["run", "evolving", "--scale", "0.4", "--error-rate", "0",
                     "--stream", "--store", store_path]) == 0
        root = capsys.readouterr().out.split("run=")[1].split()[0]
        assert main(["run", "--since", root, "--steps", "2",
                     "--store", store_path]) == 0
        step2 = capsys.readouterr().out.split("run=")[-1].split()[0]
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(
            evolving_bundle(seed=0, scale=0.4, steps=3).deltas[2].to_doc()
        ))
        warm_path = str(tmp_path / "warm.db")
        shutil.copyfile(store_path, warm_path)
        assert main(["update", step2, "--delta", str(delta_file),
                     "--store", warm_path]) == 0
        warm = capsys.readouterr().out
        assert main(["cache", "clear", "--store", store_path]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["update", step2, "--delta", str(delta_file),
                     "--store", store_path]) == 0
        cold = capsys.readouterr().out
        assert "F1=" in cold
        # Same F1 row, questions and reuse split; only the run id differs.
        assert re.sub(r"run=\w+ ", "", cold) == re.sub(r"run=\w+ ", "", warm)

    def test_runs_show_prints_lineage(self, store_path, capsys):
        main(["run", "evolving", "--scale", "0.4", "--error-rate", "0",
              "--stream", "--store", store_path])
        root = capsys.readouterr().out.split("run=")[1].split()[0]
        main(["run", "--since", root, "--steps", "1", "--store", store_path])
        child = capsys.readouterr().out.split("run=")[-1].split()[0]
        assert main(["runs", "show", child, "--store", store_path]) == 0
        detail = capsys.readouterr().out
        assert "stream_step: 1" in detail
        assert f"lineage: {root} -> {child}" in detail
        assert "kb_fingerprint:" in detail


class TestStreamErrorPaths:
    """CLI error paths for the stream verbs (``update`` / ``run --since``)."""

    @pytest.fixture()
    def store_path(self, tmp_path):
        return str(tmp_path / "stream.db")

    @pytest.fixture()
    def delta_file(self, tmp_path):
        from repro.datasets import evolving_bundle

        path = tmp_path / "delta.json"
        path.write_text(
            json.dumps(evolving_bundle(seed=0, scale=0.4, steps=1).deltas[0].to_doc())
        )
        return str(path)

    def test_stream_requires_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["run", "evolving", "--stream"]) == 2
        assert "--stream requires --store" in capsys.readouterr().err

    def test_stream_rejects_budget(self, store_path, capsys):
        assert main(["run", "evolving", "--stream", "--budget", "5",
                     "--store", store_path]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_steps_requires_since(self, store_path, capsys):
        assert main(["run", "evolving", "--steps", "2", "--store", store_path]) == 2
        assert "--steps only applies with --since" in capsys.readouterr().err

    def test_since_requires_steps(self, store_path, capsys):
        assert main(["run", "--since", "rid", "--store", store_path]) == 2
        assert "--steps" in capsys.readouterr().err

    def test_since_rejects_conflicting_flags(self, store_path, capsys):
        """Flags the lineage would silently ignore are rejected instead."""
        assert main(["run", "--since", "rid", "--steps", "1", "--mu", "5",
                     "--store", store_path]) == 2
        assert "--mu" in capsys.readouterr().err
        assert main(["run", "--since", "rid", "--steps", "1",
                     "--error-rate", "0.3", "--store", store_path]) == 2
        assert "--error-rate" in capsys.readouterr().err
        assert main(["run", "--since", "rid", "--steps", "1", "--scale", "0.5",
                     "--store", store_path]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_since_unknown_run(self, store_path, capsys):
        assert main(["run", "--since", "nope", "--steps", "1",
                     "--store", store_path]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_since_non_stream_run(self, store_path, capsys):
        main(["run", "iimb", "--scale", "0.2", "--error-rate", "0",
              "--store", store_path])
        run_id = capsys.readouterr().out.split("run=")[1].split()[0]
        assert main(["run", "--since", run_id, "--steps", "1",
                     "--store", store_path]) == 1
        assert "not a stream run" in capsys.readouterr().err

    def test_update_unknown_run(self, store_path, delta_file, capsys):
        assert main(["update", "nope", "--delta", delta_file,
                     "--store", store_path]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_update_missing_delta_file(self, store_path, capsys):
        assert main(["update", "rid", "--delta", "/no/such/file.json",
                     "--store", store_path]) == 2
        assert "no such delta file" in capsys.readouterr().err

    def test_update_malformed_delta_file(self, store_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99}")
        assert main(["update", "rid", "--delta", str(bad),
                     "--store", store_path]) == 2
        assert "malformed delta" in capsys.readouterr().err

    def test_update_conflicting_fingerprint(self, store_path, tmp_path, capsys):
        """A delta pinned to the wrong KB pair is rejected, not applied."""
        from repro.datasets import evolving_bundle
        from repro.stream import KBDelta

        main(["run", "evolving", "--scale", "0.4", "--error-rate", "0",
              "--stream", "--store", store_path])
        run_id = capsys.readouterr().out.split("run=")[1].split()[0]
        delta = evolving_bundle(seed=0, scale=0.4, steps=1).deltas[0]
        stale = KBDelta(
            ops=delta.ops,
            gold_add=delta.gold_add,
            gold_remove=delta.gold_remove,
            parent_fingerprint="deadbeefdeadbeef",
        )
        stale_file = tmp_path / "stale.json"
        stale_file.write_text(json.dumps(stale.to_doc()))
        assert main(["update", run_id, "--delta", str(stale_file),
                     "--store", store_path]) == 1
        assert "conflicts" in capsys.readouterr().err

    def test_since_against_premigration_store(self, tmp_path, capsys):
        """A store created before the lineage migration upgrades cleanly.

        The legacy schema (no parent/delta/step/fingerprint columns, no
        stream_units table) must be migrated on open, and ``run --since``
        against its old runs must fail with a clear message instead of
        crashing.
        """
        import sqlite3

        from repro.store import RunStore

        path = str(tmp_path / "legacy.db")
        legacy = sqlite3.connect(path)
        legacy.executescript(
            """
            CREATE TABLE prepared_states (
                dataset TEXT NOT NULL, seed INTEGER NOT NULL,
                scale REAL NOT NULL, config_hash TEXT NOT NULL,
                payload TEXT NOT NULL, created_at TEXT NOT NULL,
                PRIMARY KEY (dataset, seed, scale, config_hash));
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, dataset TEXT NOT NULL,
                seed INTEGER NOT NULL, scale REAL NOT NULL,
                config_hash TEXT NOT NULL, strategy TEXT NOT NULL,
                error_rate REAL NOT NULL DEFAULT 0.0, status TEXT NOT NULL,
                config_json TEXT NOT NULL,
                questions_asked INTEGER NOT NULL DEFAULT 0,
                result_json TEXT, error TEXT, workers INTEGER,
                created_at TEXT NOT NULL, updated_at TEXT NOT NULL);
            CREATE TABLE checkpoints (
                run_id TEXT PRIMARY KEY, payload TEXT NOT NULL,
                updated_at TEXT NOT NULL);
            CREATE TABLE shard_checkpoints (
                run_id TEXT NOT NULL, shard_id INTEGER NOT NULL,
                kind TEXT NOT NULL, payload TEXT NOT NULL,
                updated_at TEXT NOT NULL, PRIMARY KEY (run_id, shard_id));
            INSERT INTO runs VALUES
                ('legacyrun', 'evolving', 0, 0.4, 'x', 'remp', 0.0, 'done',
                 '{}', 0, NULL, NULL, NULL, '2026-01-01', '2026-01-01');
            """
        )
        legacy.commit()
        legacy.close()

        assert main(["run", "--since", "legacyrun", "--steps", "1",
                     "--store", path]) == 1
        err = capsys.readouterr().err
        assert "not a stream run" in err and "lineage migration" in err
        # The open performed the migration: lineage columns and the
        # stream_units table now exist, and old rows read back as
        # non-stream runs.
        with RunStore(path) as store:
            record = store.get_run("legacyrun")
            assert record is not None
            assert record.stream_step is None
            assert record.kb_fingerprint is None
            assert not record.streaming
            assert store.stats()["stream_units"] == 0

