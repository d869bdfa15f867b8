"""Tests for the server metrics registry (server.telemetry)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="forward"):
            Counter("requests").increment(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("in_flight")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0

    def test_non_finite_rejected(self):
        gauge = Gauge("x")
        with pytest.raises(ValueError):
            gauge.set(float("nan"))
        with pytest.raises(ValueError):
            gauge.set(float("inf"))


class TestSummary:
    def test_percentiles_and_mean(self):
        summary = Summary("latency")
        for value in range(1, 101):
            summary.observe(float(value))
        assert summary.count == 100
        assert summary.mean() == pytest.approx(50.5)
        assert summary.percentile(50) == pytest.approx(50.5)
        assert summary.max() == 100.0

    def test_empty_summary_is_nan(self):
        summary = Summary("latency")
        assert np.isnan(summary.percentile(90))
        assert np.isnan(summary.mean())
        assert np.isnan(summary.max())

    def test_window_evicts(self):
        summary = Summary("latency", window=3)
        for value in (100.0, 1.0, 2.0, 3.0):
            summary.observe(value)
        assert summary.max() == 3.0

    def test_invalid_inputs(self):
        summary = Summary("latency")
        with pytest.raises(ValueError):
            summary.observe(float("inf"))
        with pytest.raises(ValueError):
            summary.percentile(101)
        with pytest.raises(ValueError):
            Summary("latency", window=0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_percentile_order_property(self, values):
        summary = Summary("x")
        for value in values:
            summary.observe(value)
        assert summary.percentile(10) <= summary.percentile(50) <= summary.percentile(90)
        assert summary.percentile(100) == pytest.approx(summary.max())


class TestMetricsRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.summary("c") is registry.summary("c")

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="another kind"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="another kind"):
            registry.summary("x")

    def test_report_contains_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("tasks_total").increment(7)
        registry.gauge("in_flight").set(2.0)
        summary = registry.summary("latency_s")
        summary.observe(1.0)
        summary.observe(3.0)
        report = registry.report()
        assert "tasks_total" in report and "7" in report
        assert "in_flight" in report
        assert "latency_s" in report and "n=2" in report

    def test_report_renders_empty_summary(self):
        registry = MetricsRegistry()
        registry.summary("never_observed")
        assert "(empty)" in registry.report()

    def test_empty_registry_report(self):
        assert MetricsRegistry().report() == ""


class TestRejectionStats:
    def _stats(self, capacity=512):
        from repro.server.telemetry import RejectionStats

        return RejectionStats(capacity=capacity)

    def _rejection(self, reason):
        from repro.server.protocol import TaskRejection

        return TaskRejection(reason=reason, batch_size=1, similarity=0.5)

    def test_counts_per_reason(self):
        from repro.server.protocol import RejectionReason

        stats = self._stats()
        for _ in range(3):
            stats.record(self._rejection(RejectionReason.BATCH_TOO_SMALL))
        stats.record(self._rejection(RejectionReason.SIMILARITY_TOO_HIGH))
        assert stats.counts[RejectionReason.BATCH_TOO_SMALL] == 3
        assert stats.counts[RejectionReason.SIMILARITY_TOO_HIGH] == 1
        assert stats.total == 4

    def test_ring_caps_recents_but_not_counts(self):
        from repro.server.protocol import RejectionReason

        stats = self._stats(capacity=5)
        for _ in range(9):
            stats.record(self._rejection(RejectionReason.OVERLOADED))
        assert len(stats.recent) == 5
        assert stats.total == 9
        assert stats.counts[RejectionReason.OVERLOADED] == 9

    def test_breakdown_rendering(self):
        from repro.server.protocol import RejectionReason

        stats = self._stats()
        assert stats.breakdown() == "none"
        stats.record(self._rejection(RejectionReason.SIMILARITY_TOO_HIGH))
        stats.record(self._rejection(RejectionReason.BATCH_TOO_SMALL))
        assert stats.breakdown() == "batch_too_small=1 similarity_too_high=1"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            self._stats(capacity=0)

    def test_attach_rejections_surfaces_in_report(self):
        from repro.server.protocol import RejectionReason

        registry = MetricsRegistry()
        stats = self._stats()
        registry.attach_rejections("gateway.rejections", stats)
        assert "none" in registry.report()
        stats.record(self._rejection(RejectionReason.OVERLOADED))
        stats.record(self._rejection(RejectionReason.OVERLOADED))
        report = registry.report()
        assert "gateway.rejections" in report
        assert "overloaded=2" in report
        breakdowns = registry.rejection_breakdowns()
        assert breakdowns["gateway.rejections"][RejectionReason.OVERLOADED] == 2

    def test_attach_rejections_accepts_callable_rejects_junk(self):
        registry = MetricsRegistry()
        registry.attach_rejections("live", lambda: {"overloaded": 3})
        assert registry.rejection_breakdowns()["live"] == {"overloaded": 3}
        with pytest.raises(TypeError):
            registry.attach_rejections("bad", object())


class TestSummaryCache:
    def test_materialization_cached_between_observes(self):
        summary = Summary("latency")
        summary.observe(1.0)
        summary.observe(2.0)
        first = summary._materialized()
        again = summary._materialized()
        assert first is again  # cached, not rebuilt per query
        summary.observe(3.0)
        rebuilt = summary._materialized()
        assert rebuilt is not first
        assert rebuilt.tolist() == [1.0, 2.0, 3.0]

    def test_quantiles_single_pass_matches_percentile(self):
        summary = Summary("latency")
        summary.observe_many(np.arange(1.0, 101.0))
        qs = summary.quantiles((50.0, 90.0, 99.0))
        assert qs[0] == pytest.approx(summary.percentile(50))
        assert qs[1] == pytest.approx(summary.percentile(90))
        assert qs[2] == pytest.approx(summary.percentile(99))

    def test_observe_many_invalidates_cache(self):
        summary = Summary("latency")
        summary.observe(10.0)
        assert summary.max() == 10.0
        summary.observe_many(np.array([20.0, 30.0]))
        assert summary.max() == 30.0
        assert summary.sum() == pytest.approx(60.0)


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 9.0):
            hist.observe(value)
        # side="left": a value equal to a bound belongs to that bucket.
        assert hist.bucket_counts.tolist() == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min() == 0.5
        assert hist.max() == 9.0
        assert hist.sum() == pytest.approx(15.0)
        assert hist.mean() == pytest.approx(3.0)

    def test_observe_many_matches_scalar_observe(self):
        values = np.random.default_rng(0).uniform(0.0, 10.0, size=500)
        one = Histogram("a", buckets=(1.0, 2.0, 4.0, 8.0))
        many = Histogram("b", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in values:
            one.observe(float(value))
        many.observe_many(values)
        assert one.bucket_counts.tolist() == many.bucket_counts.tolist()
        assert one.sum() == pytest.approx(many.sum())
        assert one.min() == many.min() and one.max() == many.max()

    def test_percentiles_monotone_and_clamped(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        hist.observe_many(np.random.default_rng(1).uniform(0.5, 6.0, 2_000))
        ps = [hist.percentile(q) for q in (0, 10, 50, 90, 100)]
        assert ps == sorted(ps)
        assert ps[0] >= hist.min()
        assert ps[-1] <= hist.max()

    def test_percentile_tracks_exact_extremes(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(3.0)
        hist.observe(7.0)
        # Both fall in bucket [.., 10]; interpolation is clamped to the
        # observed [3, 7], never reporting the bucket edge 10.
        assert 3.0 <= hist.percentile(50) <= 7.0
        assert hist.percentile(100) <= 7.0

    def test_empty_histogram_is_nan(self):
        hist = Histogram("h", buckets=(1.0,))
        assert np.isnan(hist.percentile(50))
        assert np.isnan(hist.mean())
        assert np.isnan(hist.max())

    def test_single_sample_percentile_is_the_sample(self):
        hist = Histogram("h", buckets=(1.0, 4.0, 10.0))
        hist.observe(2.5)
        # With one observation every percentile collapses to it: the
        # interpolation range is clamped to [min, max] = [2.5, 2.5].
        for q in (0, 1, 50, 99, 100):
            assert hist.percentile(q) == pytest.approx(2.5)

    def test_count_le_exact_at_bucket_bounds(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe_many(np.array([0.5, 1.0, 1.5, 3.0, 9.0]))
        # observe puts value==bound in that bound's bucket, so counting
        # at a configured bound is exact — the SLO engine's good-event
        # counter relies on this.
        assert hist.count_le(1.0) == 2
        assert hist.count_le(2.0) == 3
        assert hist.count_le(4.0) == 4
        assert hist.count_le(0.0) == 0
        # Off-edge bounds round down to the nearest edge — including past
        # the largest edge, where the overflow bucket's values are
        # unknowable and therefore never counted as good.
        assert hist.count_le(1.7) == 2
        assert hist.count_le(100.0) == 4

    def test_count_le_empty(self):
        assert Histogram("h", buckets=(1.0,)).count_le(1.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_registry_histogram_factory_and_report(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_hist", buckets=(1.0, 2.0))
        assert registry.histogram("latency_hist") is hist
        with pytest.raises(ValueError, match="another kind"):
            registry.counter("latency_hist")
        hist.observe(0.5)
        report = registry.report()
        assert "latency_hist" in report and "[histogram]" in report
