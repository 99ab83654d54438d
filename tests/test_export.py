"""Standard exporters: Chrome trace, span filters."""

import json

from repro.cli import main
from repro.obs.export import chrome_trace, filter_spans, validate_chrome_trace
from repro.service import MatchingService
from repro.store import RunStore

SPANS = [
    {"name": "prepare", "ts": 10.0, "dur": 0.5, "run_id": "r1"},
    {"name": "loop.iteration", "ts": 10.6, "dur": 0.25, "run_id": "r1", "loop": 1},
    {"name": "shard.work", "ts": 10.7, "dur": 0.1, "run_id": "r1", "shard_id": 2},
    {"name": "mark", "ts": 10.9, "dur": 0.0, "run_id": "r1"},
]


class TestChromeTrace:
    def test_spans_become_complete_and_instant_events(self):
        doc = chrome_trace(SPANS)
        events = doc["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        # Timestamps rebase to the earliest span, in microseconds.
        assert by_name["prepare"]["ts"] == 0
        assert by_name["prepare"]["dur"] == 500_000
        assert by_name["loop.iteration"]["ts"] == 600_000
        assert by_name["loop.iteration"]["args"]["loop"] == 1
        # Session spans on tid 0, shard spans on shard_id + 1.
        assert by_name["prepare"]["tid"] == 0
        assert by_name["shard.work"]["tid"] == 3
        # Zero-duration events become thread-scoped instants.
        assert by_name["mark"]["ph"] == "i"
        assert by_name["mark"]["s"] == "t"
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"session", "shard 2"}

    def test_empty_span_list(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc) == []

    def test_exported_trace_validates(self):
        assert validate_chrome_trace(chrome_trace(SPANS)) == []

    def test_validator_catches_structural_breaks(self):
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        errors = validate_chrome_trace(
            {
                "traceEvents": [
                    "not-an-object",
                    {"ph": "X", "pid": 1, "tid": 0, "ts": -5},
                    {"name": "i", "ph": "i", "pid": 1, "tid": 0},
                    {"name": "z", "ph": "?", "pid": 1, "tid": 0},
                ]
            }
        )
        assert any("not an object" in e for e in errors)
        assert any("missing 'name'" in e for e in errors)
        assert any("bad ts" in e for e in errors)
        assert any("missing scope" in e for e in errors)
        assert any("unknown phase" in e for e in errors)


class TestFilterSpans:
    def test_name_substring_and_shard_filters(self):
        assert [s["name"] for s in filter_spans(SPANS, name="loop")] == [
            "loop.iteration"
        ]
        assert [s["name"] for s in filter_spans(SPANS, shard_id=2)] == [
            "shard.work"
        ]
        assert filter_spans(SPANS, name="shard", shard_id=3) == []
        assert filter_spans(SPANS) == SPANS


class TestTraceCLI:
    def _run(self, tmp_path, monkeypatch):
        # dblp_acm decomposes into several components, so the pool path
        # really runs and worker spans come back stamped with shard ids.
        path = tmp_path / "s.db"
        monkeypatch.setenv("REPRO_STORE", str(path))
        with MatchingService(RunStore(path)) as service:
            run_id = service.submit(
                "dblp_acm", scale=0.2, workers=2, background=False
            )
            service.result(run_id)
        return run_id

    def test_span_filter_narrows_output(self, tmp_path, monkeypatch, capsys):
        run_id = self._run(tmp_path, monkeypatch)
        assert main(["runs", "trace", run_id, "--span", "loop.iteration"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(
            json.loads(line)["name"] == "loop.iteration" for line in lines
        )

    def test_shard_filter_narrows_output(self, tmp_path, monkeypatch, capsys):
        run_id = self._run(tmp_path, monkeypatch)
        assert main(["runs", "trace", run_id, "--shard", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["shard_id"] == 0 for line in lines)

    def test_unmatched_filter_fails(self, tmp_path, monkeypatch, capsys):
        run_id = self._run(tmp_path, monkeypatch)
        assert main(["runs", "trace", run_id, "--span", "nonexistent"]) == 1
        assert "no spans match" in capsys.readouterr().err

    def test_chrome_export_validates(self, tmp_path, monkeypatch, capsys):
        run_id = self._run(tmp_path, monkeypatch)
        assert main(["runs", "trace", run_id, "--chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]
