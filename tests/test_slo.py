"""Tests for the serving-tier SLO engine, alerting, and health surface.

Covers: spec validation, tracker window math over synthetic cumulative
SLIs, multi-window fire/resolve hysteresis (fast reacts, slow confirms),
journaled alert records, bit-identical alert sequences across same-seed
virtual-clock runs, the gateway health snapshot (strict JSON, crashed
shards reported down), and the autoscaler's opt-in alert-driven
scale-up pressure.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ElasticityPolicy, FleetBuilder, RuntimeSpec
from repro.core import make_fedavg
from repro.devices.device import DeviceFeatures
from repro.durability import DurabilitySpec
from repro.gateway import Gateway, GatewayConfig
from repro.observability import EventJournal, SLOEngine, SLOSpec, SLOTracker
from repro.observability.slo import FIRE_BURN_RATE, LATENCY_OBJECTIVE
from repro.profiler import IProf, SLO
from repro.runtime import AggregationCostModel
from repro.server import FleetServer
from repro.server.protocol import TaskResult

DIM = 32

# Windows sized for tests: alerts move within a few dozen virtual seconds.
_SPEC = SLOSpec(
    latency_bound_s=1.0,
    fast_window_s=10.0,
    slow_window_s=40.0,
    evaluate_every_s=1.0,
)


def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _result(worker_id: int, gradient: np.ndarray, pull_step: int = 0) -> TaskResult:
    return TaskResult(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        pull_step=pull_step,
        gradient=gradient,
        label_counts=np.ones(10),
        batch_size=8,
        computation_time_s=1.0,
        energy_percent=0.01,
    )


def _spec():
    builder = FleetBuilder(np.zeros(DIM), num_labels=10).slo(3.0)
    builder.algorithm("fedavg", learning_rate=0.05)
    return builder.spec()


def _gateway(slo: SLOSpec = _SPEC, runtime: RuntimeSpec | None = None) -> Gateway:
    return Gateway.from_spec(
        1,
        _spec(),
        GatewayConfig(batch_size=4, batch_deadline_s=5.0, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.5, per_result_s=0.1),
        runtime=runtime,
        slo=slo,
    )


def _drive(gateway: Gateway, uploads: int = 200, workers: int = 8) -> None:
    rng = np.random.default_rng(7)
    for i in range(uploads):
        gateway.handle_result(
            _result(i % workers, rng.normal(size=DIM)), now=i * 0.25
        )
    gateway.finalize(now=uploads * 0.25 + 10.0)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSLOSpec:
    def test_defaults_are_valid(self):
        spec = SLOSpec()
        assert LATENCY_OBJECTIVE == 0.95
        assert spec.slow_window_s > spec.fast_window_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_bound_s": 0.0},
            {"staleness_bound": -1.0},
            {"fast_window_s": 0.0},
            {"slow_window_s": 300.0, "fast_window_s": 300.0},
            {"evaluate_every_s": 0.0},
            {"evaluate_every_s": 400.0, "fast_window_s": 300.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SLOSpec(**kwargs)


# ----------------------------------------------------------------------
# Tracker window math on a synthetic SLI
# ----------------------------------------------------------------------
class _FakeSLI:
    """Scriptable cumulative (good, total) source."""

    def __init__(self) -> None:
        self.good = 0.0
        self.total = 0.0

    def add(self, good: float, bad: float) -> None:
        self.good += good
        self.total += good + bad

    def __call__(self) -> tuple[float, float]:
        return self.good, self.total


class TestSLOTracker:
    def test_eventless_window_burns_zero(self):
        tracker = SLOTracker("x", 0.95, _SPEC, _FakeSLI())
        tracker.observe(0.0)
        status = tracker.status(0.0, firing=False)
        assert status.bad_fraction_fast == 0.0
        assert status.burn_rate_slow == 0.0
        assert status.budget_remaining == 1.0

    def test_window_deltas_not_lifetime_totals(self):
        sli = _FakeSLI()
        tracker = SLOTracker("x", 0.90, _SPEC, sli)
        # 20s of all-bad events, then 20s of all-good: the fast window
        # (10s) must see only the recent good run while the slow window
        # (40s) still remembers the bad stretch.
        for t in range(20):
            sli.add(good=0.0, bad=5.0)
            tracker.observe(float(t))
        for t in range(20, 40):
            sli.add(good=5.0, bad=0.0)
            tracker.observe(float(t))
        status = tracker.status(39.0, firing=False)
        assert status.bad_fraction_fast == 0.0
        # Slow window spans both stretches: roughly half its events bad.
        assert 0.3 < status.bad_fraction_slow < 0.7
        # Burn rate is bad fraction over the 10% budget.
        assert status.burn_rate_slow == pytest.approx(
            status.bad_fraction_slow / 0.1
        )

    def test_prunes_but_keeps_slow_window_base(self):
        sli = _FakeSLI()
        tracker = SLOTracker("x", 0.95, _SPEC, sli)
        for t in range(500):
            sli.add(good=1.0, bad=0.0)
            tracker.observe(float(t))
        # Retention is bounded by the slow window, not the run length.
        assert len(tracker._samples) <= _SPEC.slow_window_s + 2
        # A delta across the full slow window is still answerable.
        status = tracker.status(499.0, firing=False)
        assert status.bad_fraction_slow == 0.0


# ----------------------------------------------------------------------
# Fire/resolve hysteresis
# ----------------------------------------------------------------------
def _engine(sli: _FakeSLI, journal: EventJournal | None = None) -> SLOEngine:
    tracker = SLOTracker("latency", 0.90, _SPEC, sli)
    return SLOEngine(_SPEC, [tracker], journal=journal)


class TestAlertHysteresis:
    def test_fast_spike_alone_does_not_fire(self):
        sli = _FakeSLI()
        engine = _engine(sli)
        # Long good history fills the slow window...
        for t in range(40):
            sli.add(good=10.0, bad=0.0)
            engine.evaluate(float(t))
        # ...then a short, violent burst of bad events: the fast window
        # burns hot but the slow window still confirms nothing.
        sli.add(good=0.0, bad=100.0)
        statuses = engine.evaluate(40.0)
        assert statuses["latency"].burn_rate_fast >= FIRE_BURN_RATE
        assert statuses["latency"].burn_rate_slow < FIRE_BURN_RATE
        assert not statuses["latency"].firing
        assert engine.active_alerts() == ()

    def test_fire_then_resolve_sequence(self):
        journal = EventJournal()
        sli = _FakeSLI()
        engine = _engine(sli, journal=journal)
        # Sustained badness: both windows above the fire threshold.
        for t in range(15):
            sli.add(good=1.0, bad=9.0)
            engine.evaluate(float(t))
        assert engine.active_alerts() == ("latency",)
        assert engine.alerts.fired == 1
        # Recovery: the fast window empties of bad events and the alert
        # resolves, even while the slow window still carries the incident.
        for t in range(15, 30):
            sli.add(good=10.0, bad=0.0)
            engine.evaluate(float(t))
        assert engine.active_alerts() == ()
        assert engine.alerts.resolved == 1

        kinds = [e["kind"] for e in journal.to_dicts()]
        assert kinds == ["alert_fire", "alert_resolve"]
        fire, resolve = journal.to_dicts()
        assert fire["slo"] == "latency"
        assert fire["burn_rate_fast"] >= FIRE_BURN_RATE
        assert resolve["duration_s"] > 0

    def test_no_refire_while_active(self):
        sli = _FakeSLI()
        engine = _engine(sli)
        for t in range(30):
            sli.add(good=0.0, bad=10.0)
            engine.evaluate(float(t))
        # One continuous incident journals exactly one fire.
        assert engine.alerts.fired == 1
        assert engine.active_alerts() == ("latency",)


# ----------------------------------------------------------------------
# Gateway integration
# ----------------------------------------------------------------------
class TestGatewayIntegration:
    def test_latency_alert_fires_on_slow_tier(self):
        # per_flush 0.5s + per_result 0.1s against a 1s bound: most
        # uploads blow the latency budget, so the objective must fire.
        gateway = _gateway()
        _drive(gateway)
        assert gateway.slo_engine.evaluations > 0
        assert "upload_latency" in gateway.slo_engine.active_alerts()
        fires = [
            e for e in gateway.journal.to_dicts() if e["kind"] == "alert_fire"
        ]
        assert any(e["slo"] == "upload_latency" for e in fires)

    def test_snapshot_is_strict_json(self):
        gateway = _gateway()
        _drive(gateway, uploads=60)
        document = gateway.slo_engine.snapshot()
        parsed = json.loads(json.dumps(document, allow_nan=False))
        assert set(parsed["objectives"]) == {
            "upload_latency",
            "shed_rate",
            "applied_staleness",
            "availability",
        }
        assert parsed["evaluations"] == gateway.slo_engine.evaluations

    def test_alert_sequence_bit_identical_across_runs(self):
        def run() -> tuple[list[dict], dict]:
            gateway = _gateway()
            _drive(gateway)
            alerts = [
                e
                for e in gateway.journal.to_dicts()
                if e["kind"] in ("alert_fire", "alert_resolve")
            ]
            return alerts, gateway.slo_engine.snapshot()

        first_alerts, first_snapshot = run()
        second_alerts, second_snapshot = run()
        assert first_alerts  # the scenario actually alerts
        assert first_alerts == second_alerts
        assert first_snapshot == second_snapshot

    def test_engine_off_by_default(self):
        gateway = Gateway.from_spec(
            1,
            _spec(),
            GatewayConfig(batch_size=4, batch_deadline_s=5.0, sync_every_s=1e9),
            cost_model=AggregationCostModel(per_flush_s=0.5, per_result_s=0.1),
        )
        assert gateway.slo_engine is None
        assert "gateway.upload_latency_s" not in gateway.metrics.histograms
        _drive(gateway, uploads=20)  # no crash without the engine

    def test_alert_pressure_scales_the_tier_up(self):
        # Thresholds parked out of reach: only the firing latency alert
        # can supply scale-up pressure.
        policy = ElasticityPolicy(
            min_shards=1,
            max_shards=4,
            window_s=5.0,
            cooldown_s=5.0,
            scale_up_occupancy=0.99,
            scale_up_backlog_s=1e9,
            scale_up_queue_depth=1e9,
            scale_up_shed_rate=1e9,
            scale_up_on_alert=True,
        )
        runtime = RuntimeSpec(
            mode="async", queue_capacity=64,
            autoscale=policy,
        )
        gateway = _gateway(runtime=runtime)
        _drive(gateway)
        assert gateway.num_shards > 1
        assert any(
            "slo alert" in event.reason for event in gateway.autoscaler.events
        )

    def test_alert_flag_off_means_no_alert_pressure(self):
        policy = ElasticityPolicy(
            min_shards=1,
            max_shards=4,
            window_s=5.0,
            cooldown_s=5.0,
            scale_up_occupancy=0.99,
            scale_up_backlog_s=1e9,
            scale_up_queue_depth=1e9,
            scale_up_shed_rate=1e9,
            scale_up_on_alert=False,
        )
        runtime = RuntimeSpec(
            mode="async", queue_capacity=64,
            autoscale=policy,
        )
        gateway = _gateway(runtime=runtime)
        _drive(gateway)
        assert gateway.num_shards == 1


# ----------------------------------------------------------------------
# Health surface
# ----------------------------------------------------------------------
def _durable_gateway(tmp_path, shards: int = 3) -> Gateway:
    return Gateway.from_spec(
        shards,
        lambda i: FleetServer(
            make_fedavg(np.zeros(DIM), learning_rate=0.05),
            IProf(),
            SLO(time_seconds=3.0),
        ),
        GatewayConfig(batch_size=2, batch_deadline_s=1.0, sync_every_s=1e9),
        durability=DurabilitySpec(
            root_dir=tmp_path / "dur",
            checkpoint_every_updates=5,
            detector_timeout_s=10.0,
        ),
        slo=_SPEC,
    )


class TestHealthSnapshot:
    def test_healthy_tier_is_ok_and_strict_json(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        rng = np.random.default_rng(3)
        for i in range(12):
            gateway.handle_result(
                _result(i % 4, rng.normal(size=DIM)), now=float(i)
            )
        health = gateway.health_snapshot()
        json.dumps(health, allow_nan=False)  # strict JSON or raise
        assert health["status"] in ("ok", "degraded")
        assert health["num_shards"] == 3
        assert health["crashed_shards"] == []
        for doc in health["shards"].values():
            assert doc["status"] in ("ok", "suspect")
            assert doc["wal"] is not None
            assert doc["wal"]["next_seq"] >= 0
            assert doc["wal"]["checkpoint_lag_clock"] >= 0

    def test_crashed_shard_reports_down(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        rng = np.random.default_rng(3)
        for i in range(12):
            gateway.handle_result(
                _result(i % 4, rng.normal(size=DIM)), now=float(i)
            )
        victim = sorted(gateway.shards)[0]
        gateway.crash_shard(victim, now=13.0)
        # Park one more result for the dead shard so the snapshot has
        # something to count.
        health = gateway.health_snapshot(now=14.0)
        json.dumps(health, allow_nan=False)
        assert health["status"] == "degraded"
        assert victim in health["crashed_shards"]
        doc = health["shards"][victim]
        assert doc["status"] == "down"
        assert doc["clock"] is None
        assert doc["restore_pending"] is True  # factory retained

        gateway.failover(victim, now=15.0)
        recovered = gateway.health_snapshot(now=16.0)
        assert victim not in recovered["crashed_shards"]
        assert recovered["shards"][victim]["status"] in ("ok", "suspect")

    def test_empty_tier_is_unavailable(self, tmp_path):
        gateway = _durable_gateway(tmp_path, shards=1)
        victim = sorted(gateway.shards)[0]
        gateway.handle_result(_result(0, np.zeros(DIM)), now=0.0)
        gateway.crash_shard(victim, now=1.0)
        health = gateway.health_snapshot(now=2.0)
        assert health["status"] == "unavailable"
        assert health["num_shards"] == 0
