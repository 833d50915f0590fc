"""``python -m repro.serve``: load gates, stdio protocol, metrics export."""

import io
import json
import time

from repro.serve import cli
from repro.serve.cli import main
from repro.serve.metrics import METRICS_SCHEMA


class TestLoad:
    def test_load_passes_its_gates(self, capsys):
        rc = main([
            "load", "--requests", "12", "--unique", "3",
            "--min-hit-rate", "0.7",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mismatches 0" in out

    def test_load_json_report(self, capsys):
        rc = main(["load", "--requests", "8", "--unique", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["requests"] == 8
        assert data["mismatches"] == 0
        assert data["hit_rate"] >= data["expected_hit_rate"]

    def test_unreachable_hit_rate_fails_the_gate(self, capsys):
        rc = main([
            "load", "--requests", "4", "--unique", "4",
            "--min-hit-rate", "0.9",
        ])
        assert rc == 1
        assert "LOAD GATE FAILURE" in capsys.readouterr().err

    def test_concurrent_load_with_disk_cache(self, tmp_path, capsys):
        rc = main([
            "load", "--requests", "12", "--unique", "3", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--min-hit-rate", "0.5", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["mismatches"] == 0

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        rc = main([
            "load", "--requests", "6", "--unique", "2",
            "--metrics-out", str(path),
        ])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["schema"] == METRICS_SCHEMA
        assert data["counters"]["requests"] == 6


class TestAdaptLoad:
    def test_phase_shift_drives_a_hot_swap_end_to_end(self, capsys):
        rc = main([
            "load", "--adapt", "--requests", "160", "--unique", "4",
            "--drift-at", "80", "--warmup", "3",
            "--drift-threshold", "0.1", "--min-samples", "8", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["mismatches"] == 0
        adaptation = data["adaptation"]
        assert adaptation["drained"]
        assert adaptation["tier_promotions"] >= 1
        assert adaptation["drift_events"] >= 1
        assert adaptation["hot_swaps"] >= 1
        assert adaptation["post_swap_mismatches"] == 0
        assert adaptation["post_swap_verified"] == 4
        generations = [row["generation"] for row in adaptation["keys"]]
        assert max(generations) >= 2

    def test_stationary_adaptive_load_promotes_without_swapping(self, capsys):
        rc = main([
            "load", "--adapt", "--requests", "24", "--unique", "2",
            "--warmup", "2", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["mismatches"] == 0
        assert data["adaptation"]["tier_promotions"] >= 1
        assert data["adaptation"]["hot_swaps"] == 0

    def test_metrics_dump_leaves_a_final_snapshot(self, tmp_path, capsys):
        path = tmp_path / "live-metrics.json"
        rc = main([
            "load", "--adapt", "--requests", "10", "--unique", "2",
            "--metrics-out", str(path),
        ])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["schema"] == METRICS_SCHEMA
        assert data["counters"]["requests"] == 10 + 2  # load + replay
        for counter in ("live_samples", "hot_swaps", "tier_promotions"):
            assert counter in data["counters"]


class TestMetricsDumper:
    def test_rewrites_the_snapshot_while_running(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "METRICS_EVERY_S", 0.01)
        path = tmp_path / "metrics.json"
        calls = []

        def snapshot():
            calls.append(None)
            return {"calls": len(calls)}

        with cli._MetricsDumper(str(path), snapshot):
            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert path.exists()  # written before the block exits
        assert json.loads(path.read_text()) == {"calls": len(calls)}
        assert not list(tmp_path.glob(".*.tmp"))


class TestServeStdio:
    def _serve(self, monkeypatch, lines):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(lines) + "\n")
        )
        return main(["serve"])

    def test_request_response_and_metrics_lines(
        self, monkeypatch, capsys, diamond_source
    ):
        request = {
            "source": diamond_source, "args": [4, 5, 1],
            "variant": "ssapre",
        }
        rc = self._serve(monkeypatch, [
            json.dumps(request),
            json.dumps(request),
            json.dumps({"cmd": "metrics"}),
        ])
        assert rc == 0
        replies = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert len(replies) == 3
        first, second, metrics = replies
        assert first["status"] == second["status"] == "ok"
        assert first["served_by"] == "compile"
        assert second["served_by"] == "memory"
        assert first["return_value"] == second["return_value"]
        assert metrics["counters"]["requests"] == 2

    def test_bad_json_line_keeps_the_loop_alive(
        self, monkeypatch, capsys, diamond_source
    ):
        request = {"source": diamond_source, "args": [1, 2, 0],
                   "variant": "ssapre"}
        rc = self._serve(monkeypatch, [
            "{ not json",
            json.dumps(request),
        ])
        assert rc == 0
        replies = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert replies[0]["status"] == "error"
        assert "bad JSON" in replies[0]["error"]
        assert replies[1]["status"] == "ok"

    def test_unknown_field_is_rejected_per_line(
        self, monkeypatch, capsys, diamond_source
    ):
        rc = self._serve(monkeypatch, [
            json.dumps({"source": diamond_source, "zap": 1}),
        ])
        assert rc == 0
        reply = json.loads(capsys.readouterr().out.splitlines()[0])
        assert reply["status"] == "error"
        assert "unknown request fields" in reply["error"]
