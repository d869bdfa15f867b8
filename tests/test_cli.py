"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "staleness" in out
        assert "online" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Galaxy S7" in out
        assert "Honor 10" in out

    def test_dampening(self, capsys):
        assert main(["dampening", "--tau-thres", "12"]) == 0
        out = capsys.readouterr().out
        assert "beta" in out
        assert "AdaSGD" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["staleness"])
        assert args.algorithm == "adasgd"
        assert args.mu == 6.0


class TestExperiments:
    def test_staleness_smoke(self, capsys):
        assert main([
            "staleness", "--algorithm", "ssgd", "--steps", "40",
            "--batch-size", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_profile_smoke(self, capsys):
        assert main(["profile", "--requests", "2", "--slo", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "I-Prof on Galaxy S7" in out

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["staleness", "--algorithm", "bogus"])


class TestNewCommands:
    def test_list_includes_new_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-sim" in out
        assert "freshness" in out

    def test_fleet_sim_smoke(self, capsys):
        assert main([
            "fleet-sim", "--users", "4", "--hours", "0.05",
            "--think-time", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "model updates" in out
        assert "staleness" in out

    def test_freshness_smoke(self, capsys):
        assert main(["freshness", "--users", "4"]) == 0
        out = capsys.readouterr().out
        assert "eligibility by hour" in out
        assert "data-to-model delay" in out

    def test_parser_defaults_for_new_commands(self):
        parser = build_parser()
        fleet = parser.parse_args(["fleet-sim"])
        assert fleet.users == 20 and fleet.hours == 0.5
        fresh = parser.parse_args(["freshness"])
        assert fresh.users == 16
        gateway = parser.parse_args(["gateway-sim"])
        assert gateway.trace is False
        assert gateway.trace_sample == 1.0
        assert gateway.journal is None

    def test_gateway_sim_trace_and_report_round_trip(self, capsys, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert main([
            "gateway-sim", "--shards", "2", "--users", "4", "--hours", "0.05",
            "--trace", "--journal", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path over" in out
        assert "span coverage of end-to-end latency: 1.000" in out
        assert path.exists()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path over" in out
        assert "queue.batcher" in out

    def test_gateway_sim_metrics_formats(self, capsys):
        assert main([
            "gateway-sim", "--users", "4", "--hours", "0.05",
            "--metrics-format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE gateway_results_total counter" in out
        assert main([
            "gateway-sim", "--users", "4", "--hours", "0.05",
            "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"counters"' in out


class TestDurabilityCommands:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["gateway-sim"])
        assert args.durability is False
        assert args.wal_dir is None
        assert args.crash_shard_at is None
        assert args.checkpoint_every == 100

    def test_gateway_sim_durability_and_wal_inspect(self, capsys, tmp_path):
        root = tmp_path / "walroot"
        assert main([
            "gateway-sim", "--shards", "2", "--users", "4", "--hours", "0.05",
            "--durability", "--wal-dir", str(root),
            "--checkpoint-every", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "durability:" in out
        assert (root / "journal.jsonl").exists()

        assert main(["wal-inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "wal:" in out
        assert "intact" in out
        assert "ckpt-" in out
        assert "wal_seq=" in out

        # A single shard directory works too.
        shard_dir = sorted(
            p for p in root.iterdir() if (p / "wal").is_dir()
        )[0]
        assert main(["wal-inspect", str(shard_dir)]) == 0
        assert "wal:" in capsys.readouterr().out

    def test_gateway_sim_crash_failover(self, capsys, tmp_path):
        assert main([
            "gateway-sim", "--shards", "3", "--users", "6", "--hours", "0.1",
            "--durability", "--wal-dir", str(tmp_path / "dur"),
            "--crash-shard-at", "120", "--detector-timeout", "60",
            "--checkpoint-every", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "crashes 2, failovers 1" in out  # injection + detector verdict
        assert "restores" in out


class TestStageFlags:
    def test_fleet_sim_with_stages(self, capsys):
        assert main([
            "fleet-sim", "--users", "4", "--hours", "0.05",
            "--think-time", "20", "--stage", "dp:noise=0.0",
            "--stage", "telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "rejections by reason" in out
        assert "pipeline.requests" in out  # telemetry stage report surfaced

    def test_gateway_sim_with_stages(self, capsys):
        assert main([
            "gateway-sim", "--shards", "2", "--users", "4", "--hours", "0.05",
            "--batch-size", "2", "--stage", "robust:window=2",
        ]) == 0
        out = capsys.readouterr().out
        assert "rejections by reason" in out

    def test_rejection_breakdown_names_the_reason(self, capsys):
        assert main([
            "fleet-sim", "--users", "4", "--hours", "0.05",
            "--think-time", "20", "--stage", "admission:min_batch=1000000000",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch_too_small=" in out

    def test_bad_stage_spec_raises(self):
        with pytest.raises(ValueError):
            main(["fleet-sim", "--users", "2", "--hours", "0.02",
                  "--stage", "warp-drive"])

    def test_stage_defaults_to_none(self):
        parser = build_parser()
        assert parser.parse_args(["fleet-sim"]).stage is None
        assert parser.parse_args(["gateway-sim"]).stage is None


class TestFrontendSim:
    def test_push_mode_smoke(self, capsys):
        assert main([
            "frontend-sim", "--mode", "push", "--devices", "4",
            "--uploads", "3", "--shards", "2", "--batch-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "received" in out and "applied after drain" in out
        assert "uploads/s" in out

    def test_closed_mode_drives_real_workers(self, capsys):
        assert main([
            "frontend-sim", "--devices", "3", "--uploads", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "acked" in out and "applied after drain" in out

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["frontend-sim"])
        assert args.mode == "closed"
        assert args.devices == 16
        assert args.window == 8

    def test_push_mode_journal_and_prometheus_tail(self, capsys, tmp_path):
        journal = tmp_path / "frontend.jsonl"
        assert main([
            "frontend-sim", "--mode", "push", "--devices", "2",
            "--uploads", "2", "--journal", str(journal),
            "--metrics-format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert f"-> {journal}" in out
        assert "# TYPE gateway_results_total counter" in out
        kinds = {json.loads(line)["kind"] for line in journal.read_text().splitlines()}
        assert "frontend_drain" in kinds


class TestTierFlags:
    """``gateway-sim`` and ``frontend-sim`` share their tier flags; the
    no-argument parse of each is pinned field by field."""

    def test_gateway_sim_no_argument_parse(self):
        assert vars(build_parser().parse_args(["gateway-sim"])) == {
            "command": "gateway-sim", "shards": 4, "users": 20, "hours": 0.5,
            "think_time": 15.0, "batch_size": 4, "batch_deadline": 30.0,
            "sync_every": 300.0, "admission_rate": None, "runtime": "sync",
            "autoscale": False, "max_shards": 8, "autoscale_window": 60.0,
            "queue_capacity": 64, "routing": "hash", "straggler_factor": 1.5,
            "stage": None, "trace": False, "trace_sample": 1.0,
            "journal": None, "metrics_format": "text", "durability": False,
            "wal_dir": None, "crash_shard_at": None, "checkpoint_every": 100,
            "detector_timeout": 60.0, "slo": False, "slo_latency_bound": 2.0,
            "slo_staleness_bound": 16.0, "slo_fast_window": 300.0,
            "slo_slow_window": 3600.0, "slo_json": None, "per_shard": False,
            "seed": 0,
        }

    def test_frontend_sim_no_argument_parse(self):
        assert vars(build_parser().parse_args(["frontend-sim"])) == {
            "command": "frontend-sim", "devices": 16, "mode": "closed",
            "uploads": 8, "think_time": 0.0, "rate": 50.0, "duration": None,
            "window": 8, "shards": 2, "batch_size": 4, "batch_deadline": 0.05,
            "sync_every": 10.0, "admission_rate": None, "stage": None,
            "trace": False, "slo": False, "journal": None,
            "metrics_format": "text", "seed": 0,
        }
