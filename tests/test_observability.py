"""Tests for end-to-end upload tracing, the event journal and exporters.

Covers: deterministic sampling (seeded, PYTHONHASHSEED-independent),
trace propagation through the sync gateway and the async virtual-lane
runtime (same upload id in every span, spans summing to the end-to-end
latency), bit-stable virtual traces, the
journal's typed records / ring semantics / JSONL round trip, and the
Prometheus + JSON registry exporters.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.api import FleetBuilder, RuntimeSpec
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig, ObservabilitySpec
from repro.observability import (
    EventJournal,
    FinishedTrace,
    Span,
    SpanCollector,
    UploadTracer,
    critical_path_table,
    journal_summary,
    load_jsonl,
    registry_snapshot,
    render_prometheus,
    sanitize_metric_name,
)
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskResult
from repro.server.telemetry import MetricsRegistry, RejectionStats

DIM = 32


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


def _gateway(
    runtime: RuntimeSpec | None = None,
    sample_rate: float = 1.0,
    seed: int = 0,
    shards: int = 1,
) -> Gateway:
    return Gateway.from_spec(
        shards,
        _spec(),
        GatewayConfig(batch_size=4, batch_deadline_s=5.0, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.5, per_result_s=0.1),
        runtime=runtime,
        observability=ObservabilitySpec(sample_rate=sample_rate, seed=seed),
    )


def _drive(gateway: Gateway, uploads: int = 40, workers: int = 8) -> None:
    rng = np.random.default_rng(7)
    for i in range(uploads):
        gateway.handle_result(
            _result(i % workers, rng.normal(size=DIM)), now=i * 0.25
        )
    gateway.finalize(now=uploads * 0.25 + 10.0)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_deterministic_under_seed(self):
        spec = ObservabilitySpec(sample_rate=0.25, seed=42)
        first = UploadTracer(spec)
        second = UploadTracer(spec)
        picks = [first.would_sample(i) for i in range(10_000)]
        assert picks == [second.would_sample(i) for i in range(10_000)]
        # The realized rate honors the configured one.
        assert 0.22 < np.mean(picks) < 0.28

    def test_seed_changes_the_subset_not_the_rate(self):
        a = UploadTracer(ObservabilitySpec(sample_rate=0.25, seed=1))
        b = UploadTracer(ObservabilitySpec(sample_rate=0.25, seed=2))
        picks_a = [a.would_sample(i) for i in range(10_000)]
        picks_b = [b.would_sample(i) for i in range(10_000)]
        assert picks_a != picks_b
        assert abs(np.mean(picks_a) - np.mean(picks_b)) < 0.03

    def test_extreme_rates(self):
        always = UploadTracer(ObservabilitySpec(sample_rate=1.0))
        never = UploadTracer(ObservabilitySpec(sample_rate=0.0))
        assert all(always.would_sample(i) for i in range(1000))
        assert not any(never.would_sample(i) for i in range(1000))

    def test_begin_advances_seq_even_when_unsampled(self):
        tracer = UploadTracer(ObservabilitySpec(sample_rate=0.0))
        for _ in range(5):
            assert tracer.begin(worker_id=0, now=0.0) is None
        assert tracer.uploads_seen == 5
        assert tracer.started == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ObservabilitySpec(sample_rate=1.5)


# ----------------------------------------------------------------------
# Trace propagation: sync gateway (virtual clock)
# ----------------------------------------------------------------------
class TestVirtualTraces:
    def test_every_upload_traced_at_rate_one(self):
        gateway = _gateway()
        _drive(gateway, uploads=40)
        tracer = gateway.tracer
        assert tracer.uploads_seen == 40
        assert tracer.started == 40
        assert tracer.collector.finished == 40

    def test_spans_sum_to_end_to_end_latency(self):
        gateway = _gateway()
        _drive(gateway, uploads=40)
        for trace in gateway.tracer.collector.traces:
            assert trace.clock == "virtual"
            span_sum = sum(span.duration for span in trace.spans)
            assert span_sum == pytest.approx(trace.total_s, abs=1e-12)
            # Contiguous: each span starts where the previous ended.
            for prev, cur in zip(trace.spans, trace.spans[1:]):
                assert cur.start == prev.end
            assert [s.name for s in trace.spans] == [
                "queue.batcher", "queue.lane", "apply",
            ]

    def test_upload_ids_unique_and_dense(self):
        gateway = _gateway()
        _drive(gateway, uploads=40)
        ids = sorted(t.upload_id for t in gateway.tracer.collector.traces)
        assert ids == list(range(40))

    def test_cpu_phases_carry_wall_measurements(self):
        # Sync gateway delivers decoded results directly (no codec hop),
        # so the informational phases are the stage chain + fold.
        gateway = _gateway()
        _drive(gateway, uploads=8)
        phases = {
            name
            for trace in gateway.tracer.collector.traces
            for name, _ in trace.cpu_phases
        }
        assert "fold" in phases

    def test_virtual_traces_bit_stable_under_seed(self):
        def run() -> list[FinishedTrace]:
            gateway = _gateway(seed=3)
            _drive(gateway, uploads=40)
            return gateway.tracer.collector.traces

        first, second = run(), run()
        assert len(first) == len(second) == 40
        for a, b in zip(first, second):
            # Spans and totals are virtual-clock arithmetic: bit-equal.
            assert a.spans == b.spans
            assert a.total_s == b.total_s
            assert (a.upload_id, a.worker_id, a.shard_id) == (
                b.upload_id, b.worker_id, b.shard_id,
            )

    def test_sampled_subset_matches_configured_rate(self):
        gateway = _gateway(sample_rate=0.25, seed=11)
        _drive(gateway, uploads=200, workers=16)
        tracer = gateway.tracer
        expected = [i for i in range(200) if tracer.would_sample(i)]
        got = sorted(t.upload_id for t in tracer.collector.traces)
        assert got == expected
        assert tracer.uploads_seen == 200
        assert tracer.started == len(expected)


# ----------------------------------------------------------------------
# Trace propagation: async runtimes
# ----------------------------------------------------------------------
class TestAsyncTraces:
    def test_async_virtual_matches_sync_traces(self):
        # The determinism contract: single-worker async on the virtual
        # clock is bit-identical to the sync gateway — including traces.
        sync_gw = _gateway()
        async_gw = _gateway(runtime=RuntimeSpec(mode="async"))
        _drive(sync_gw, uploads=40)
        _drive(async_gw, uploads=40)
        sync_traces = sync_gw.tracer.collector.traces
        async_traces = async_gw.tracer.collector.traces
        assert len(sync_traces) == len(async_traces) == 40
        for a, b in zip(sync_traces, async_traces):
            assert a.upload_id == b.upload_id
            assert a.spans == b.spans
            assert a.total_s == b.total_s

    def test_async_virtual_decode_phase_recorded(self):
        gateway = _gateway(runtime=RuntimeSpec(mode="async"))
        _drive(gateway, uploads=8)
        phases = {
            name
            for trace in gateway.tracer.collector.traces
            for name, _ in trace.cpu_phases
        }
        assert "decode" in phases
        assert "fold" in phases


# ----------------------------------------------------------------------
# Span collector
# ----------------------------------------------------------------------
class TestSpanCollector:
    def test_ring_bounds_retention_not_the_count(self):
        collector = SpanCollector(capacity=4)
        for i in range(10):
            collector.add(
                FinishedTrace(
                    upload_id=i, worker_id=0, shard_id="shard-0",
                    clock="virtual", batch_size=1, admitted_at=0.0,
                    total_s=1.0, spans=(Span("apply", 0.0, 1.0),),
                )
            )
        assert len(collector) == 4
        assert collector.finished == 10
        assert [t.upload_id for t in collector.traces] == [6, 7, 8, 9]


# ----------------------------------------------------------------------
# Event journal
# ----------------------------------------------------------------------
class TestEventJournal:
    def _populate(self, journal: EventJournal) -> None:
        journal.admission_shed(1.0, 3, tokens=0.2, rate_per_s=5.0, capacity=10.0)
        journal.steer(
            2.0, 4, action="steer", reason="fresh_straggler",
            from_shard="shard-0", to_shard="shard-1",
            latency_ratio=2.1, from_load=3.0, to_load=0.5,
        )
        journal.sync_round(3.0, 0.25, 2, {"shard-0": 0.6, "shard-1": 0.4})
        journal.lane_shed(4.0, "shard-1", batch_size=4, queue_depth=8)
        journal.evaluation(5.0, 0.91, 17)

    def test_counts_and_dicts(self):
        journal = EventJournal()
        self._populate(journal)
        assert journal.recorded == 5
        assert journal.counts_by_kind() == {
            "admission_shed": 1, "steer": 1, "sync": 1,
            "lane_shed": 1, "eval": 1,
        }
        dicts = journal.to_dicts()
        assert [d["kind"] for d in dicts] == [
            "admission_shed", "steer", "sync", "lane_shed", "eval",
        ]
        assert dicts[1]["reason"] == "fresh_straggler"
        assert dicts[2]["weights"] == {"shard-0": 0.6, "shard-1": 0.4}

    def test_ring_eviction_keeps_monotone_counts(self):
        journal = EventJournal(capacity=3)
        for i in range(8):
            journal.evaluation(float(i), 0.5, i)
        assert len(journal.events) == 3
        assert journal.recorded == 8
        assert journal.counts_by_kind() == {"eval": 8}
        assert [e.time for e in journal.events] == [5.0, 6.0, 7.0]

    def test_jsonl_round_trip(self, tmp_path):
        journal = EventJournal()
        self._populate(journal)
        path = tmp_path / "journal.jsonl"
        extra = [{"kind": "trace", "upload_id": 0, "total_s": 1.5}]
        written = journal.export_jsonl(path, extra=extra)
        assert written == 6
        records = load_jsonl(path)
        assert len(records) == 6
        assert records[-1] == extra[0]
        by_kind = {r["kind"] for r in records}
        assert by_kind == {
            "admission_shed", "steer", "sync", "lane_shed", "eval", "trace",
        }

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("gateway.requests", "requests seen").increment(7)
        registry.gauge("runtime.lanes", "active lanes").set(3.0)
        summary = registry.summary("gateway.batch_size", "batch sizes")
        summary.observe_many(np.array([1.0, 2.0, 3.0, 4.0]))
        hist = registry.histogram(
            "pipeline.staleness_hist", "staleness", buckets=(1.0, 2.0, 4.0)
        )
        hist.observe_many(np.array([0.5, 1.5, 3.0, 9.0]))
        stats = RejectionStats()
        registry.attach_rejections("gateway.rejections", stats)
        return registry

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("gateway.batch_size") == "gateway_batch_size"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a b/c") == "a_b_c"

    def test_prometheus_rendering(self):
        text = render_prometheus(self._registry())
        assert "# TYPE gateway_requests_total counter" in text
        assert "gateway_requests_total 7" in text
        assert "runtime_lanes 3" in text
        assert 'gateway_batch_size{quantile="0.5"} 2.5' in text
        assert "gateway_batch_size_count 4" in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'pipeline_staleness_hist_bucket{le="1"} 1' in text
        assert 'pipeline_staleness_hist_bucket{le="2"} 2' in text
        assert 'pipeline_staleness_hist_bucket{le="4"} 3' in text
        assert 'pipeline_staleness_hist_bucket{le="+Inf"} 4' in text
        assert "pipeline_staleness_hist_count 4" in text
        # Empty rejection breakdown still exposes a zero counter.
        assert "gateway_rejections_total 0" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_snapshot_is_strict_json(self):
        snapshot = registry_snapshot(self._registry())
        encoded = json.dumps(snapshot)  # must not raise (no NaN/ndarray)
        decoded = json.loads(encoded)
        assert decoded["counters"]["gateway.requests"] == 7
        assert decoded["summaries"]["gateway.batch_size"]["count"] == 4
        hist = decoded["histograms"]["pipeline.staleness_hist"]
        assert hist["count"] == 4
        assert hist["buckets"][-1]["le"] is None  # overflow bucket
        assert decoded["rejections"]["gateway.rejections"] == {}

    def test_snapshot_empty_distributions_use_null(self):
        registry = MetricsRegistry()
        registry.summary("empty.summary")
        registry.histogram("empty.hist", buckets=(1.0, 2.0))
        snapshot = registry_snapshot(registry)
        assert snapshot["summaries"]["empty.summary"]["mean"] is None
        assert snapshot["histograms"]["empty.hist"]["p50"] is None
        json.dumps(snapshot)

    def test_snapshot_round_trips_strict_json_with_stable_key_order(self):
        # Register in scrambled order: the snapshot must emit sorted keys
        # so equal registries serialize byte-identically regardless of
        # registration order.
        registry = MetricsRegistry()
        registry.counter("z.last").increment(1)
        registry.counter("a.first").increment(2)
        registry.gauge("m.middle").set(0.5)
        snapshot = registry_snapshot(registry)
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        encoded = json.dumps(snapshot, allow_nan=False)  # strict, no NaN
        assert json.loads(encoded) == snapshot

        scrambled = MetricsRegistry()
        scrambled.gauge("m.middle").set(0.5)
        scrambled.counter("a.first").increment(2)
        scrambled.counter("z.last").increment(1)
        assert json.dumps(registry_snapshot(scrambled)) == json.dumps(snapshot)

    def test_snapshot_nonfinite_gauge_becomes_null(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("runtime.ratio")
        gauge._value = float("nan")  # bypass set()'s finite check
        snapshot = registry_snapshot(registry)
        assert snapshot["gauges"]["runtime.ratio"] is None
        json.dumps(snapshot, allow_nan=False)

    def test_prometheus_nonfinite_values_use_exposition_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("a.nan")._value = float("nan")
        registry.gauge("b.inf")._value = float("inf")
        registry.gauge("c.ninf")._value = float("-inf")
        text = render_prometheus(registry)
        assert "a_nan NaN" in text
        assert "b_inf +Inf" in text
        assert "c_ninf -Inf" in text
        # Never the Python float spellings Prometheus rejects at scrape.
        assert "nan\n" not in text and "inf\n" not in text

    def test_prometheus_label_values_escaped(self):
        class _Rejection:
            def __init__(self, reason: str) -> None:
                self.reason = reason

        registry = MetricsRegistry()
        stats = RejectionStats()
        stats.record(_Rejection('quo"te'))
        stats.record(_Rejection("back\\slash"))
        stats.record(_Rejection("new\nline"))
        registry.attach_rejections("gateway.rejections", stats)
        text = render_prometheus(registry)
        assert '{reason="quo\\"te"}' in text
        assert '{reason="back\\\\slash"}' in text
        assert '{reason="new\\nline"}' in text
        # A raw newline inside a label value would split its sample line;
        # escaped, every line still carries a value after the labels.
        for line in text.splitlines():
            assert line.startswith("#") or line.rsplit(" ", 1)[1].strip()

    def test_prometheus_exposition_conformance(self):
        """Every emitted line parses as comment or sample (format check)."""
        registry = self._registry()
        registry.gauge("weird.gauge")._value = float("inf")

        class _Rejection:
            def __init__(self, reason: str) -> None:
                self.reason = reason

        stats = RejectionStats()
        stats.record(_Rejection('tricky "reason"\nwith\\escapes'))
        registry.attach_rejections("pipeline.rejections", stats)

        comment = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"\})?'
            r" (NaN|[+-]Inf|[-+0-9.eE]+)$"  # value
        )
        text = render_prometheus(registry)
        for line in text.splitlines():
            assert comment.match(line) or sample.match(line), (
                f"non-conforming exposition line: {line!r}"
            )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def test_critical_path_empty(self):
        assert critical_path_table([]) == "no traces collected"

    def test_critical_path_coverage_is_one_for_gateway_traces(self):
        gateway = _gateway()
        _drive(gateway, uploads=40)
        traces = [t.to_dict() for t in gateway.tracer.collector.traces]
        table = critical_path_table(traces)
        assert "critical path over 40 traced uploads" in table
        assert "queue.batcher" in table
        assert "span coverage of end-to-end latency: 1.000" in table

    def test_journal_summary_names_top_causes(self):
        journal = EventJournal()
        for _ in range(3):
            journal.steer(
                0.0, 1, action="steer", reason="fresh_straggler",
                from_shard="shard-0", to_shard="shard-1",
                latency_ratio=2.0, from_load=1.0, to_load=0.0,
            )
        journal.admission_shed(0.0, 2, tokens=0.0, rate_per_s=1.0, capacity=2.0)
        text = journal_summary(journal.to_dicts(), journal.counts_by_kind())
        assert "steer=3" in text
        assert "steer/fresh_straggler×3" in text
        assert "admission sheds: 1" in text

    def test_journal_summary_empty(self):
        assert journal_summary([], {}) == "journal: no events recorded"


# ----------------------------------------------------------------------
# Journal wiring through the gateway
# ----------------------------------------------------------------------
class TestGatewayJournalWiring:
    def test_sync_rounds_journaled(self):
        gateway = _gateway(shards=2)
        _drive(gateway, uploads=20, workers=8)
        kinds = gateway.journal.counts_by_kind()
        assert kinds.get("sync", 0) >= 1

    def test_admission_sheds_journaled_with_bucket_state(self):
        from repro.server.protocol import TaskRequest

        gateway = Gateway.from_spec(
            1,
            _spec(),
            GatewayConfig(
                batch_size=4, batch_deadline_s=5.0, sync_every_s=1e9,
                admission_rate_per_s=0.5, admission_burst=1,
            ),
            observability=ObservabilitySpec(),
        )
        request = TaskRequest(
            worker_id=1, device_model="Galaxy S7",
            features=_features(), label_counts=np.ones(10),
        )
        gateway.handle_request(request, now=0.0)
        gateway.handle_request(request, now=0.01)  # bucket empty: shed
        sheds = [
            e for e in gateway.journal.events if e.kind == "admission_shed"
        ]
        assert len(sheds) == 1
        assert sheds[0].rate_per_s == 0.5
        assert sheds[0].tokens < 1.0
