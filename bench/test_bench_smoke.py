"""Smoke test: the benchmark command runs, checks its outputs, and stays in contract.

Runs ``--quick`` (D=256, 64 uploads per connection, one trial, one half-second
rung, traced trial included): every workload and metric name is present
and well-formed, the output checks pass, a flipped expected count fails
the command, and ``BENCHMARK.json`` mirrors the code and is not rewritten.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from bench import checks, metrics, run
from bench.workloads import WORKLOADS

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_reports_every_metric_and_passes_its_checks():
    before = BENCHMARK_JSON.read_bytes()
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--quick"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert BENCHMARK_JSON.read_bytes() == before

    report = json.loads((run.QUICK_DIR / "report_seed0_set0.json").read_text())
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, workload in report["workloads"].items():
        assert workload["correct"] and not workload["problems"], name
        assert workload["failed"] == 0 < workload["attempted"], name
        end_to_end = workload["end_to_end"]
        assert len(end_to_end) <= 16 and len(workload["per_layer"]) <= 128
        for metric in [*end_to_end, *workload["per_layer"]]:
            assert NAME.fullmatch(metric), metric
        assert {m.name for m in metrics.END_TO_END} <= set(end_to_end)
        assert end_to_end["failed_share"]["value"] == 0.0
        assert workload["per_layer"]["codec.passes_per_upload"] == 3.0
        # Absent, not zero-filled, where the workload has no such layer.
        assert ("durability.restore_ms" in workload["per_layer"]) == WORKLOADS[name].durable
        assert ("loadgen.r100.ok" in workload["per_layer"]) == WORKLOADS[name].paced
        assert (run.QUICK_DIR / f"trace_{name}.json").exists()
    durable = report["workloads"]["durable_d16k"]
    assert durable["end_to_end"]["recovery_ms"]["value"] > 0
    assert durable["per_layer"]["durability.replayed_records"] == 8  # 64 uploads / batch of 8
    assert report["workloads"]["paced_d16k"]["end_to_end"]["max_rate_ok_per_s"]["value"] == 100


def test_a_failing_output_check_fails_the_command(monkeypatch, capsys):
    real_oracle = checks.oracle

    def one_update_too_many(*args):
        parameters, clocks = real_oracle(*args)
        return parameters, {shard: clock + 1 for shard, clock in clocks.items()}

    monkeypatch.setattr(checks, "oracle", one_update_too_many)
    assert run.main(["--workload", "served_d16k", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_benchmark_json_mirrors_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
