"""Serving metrics: pinned schema, histogram maths, hit rate."""

import json

import pytest

from repro.serve.metrics import (
    COUNTERS,
    LATENCY_BUCKETS,
    METRICS_SCHEMA,
    Histogram,
    ServeMetrics,
    merge_histogram_dicts,
    merge_metrics_dicts,
    percentile_from_histogram_dict,
    sample_percentile,
)

#: The documented metrics export schema (docs/SERVING.md).  Additions
#: require a METRICS_SCHEMA bump.
EXPORT_KEYS = {"schema", "counters", "hit_rate", "histograms"}
HISTOGRAM_KEYS = {
    "count", "sum_s", "min_s", "max_s", "mean_s", "percentiles", "buckets",
}
PERCENTILE_KEYS = {"p50", "p95", "p99"}
COUNTER_NAMES = {
    "requests", "hits_memory", "hits_disk", "misses", "coalesced",
    "compiles", "compile_failures", "degraded", "timeouts", "errors",
    "evictions", "disk_corrupt",
    # Adaptation-tier counters (schema 2; docs/SERVING.md "Adaptation").
    "live_samples", "tier_interp", "drift_events", "recompiles",
    "hot_swaps", "tier_promotions", "tier_demotions", "rollbacks",
    # Cluster-tier counters (schema 3; docs/SERVING.md "Cluster").
    "plan_hits", "lock_rehydrates", "lock_breaks",
}


class TestSchema:
    def test_pinned_counter_set(self):
        assert set(COUNTERS) == COUNTER_NAMES

    def test_export_shape_is_json_safe(self):
        metrics = ServeMetrics()
        metrics.inc("requests")
        metrics.observe("request_s", 0.003)
        data = json.loads(json.dumps(metrics.to_dict()))
        assert set(data) == EXPORT_KEYS
        assert data["schema"] == METRICS_SCHEMA
        assert set(data["counters"]) == COUNTER_NAMES
        assert set(data["histograms"]) == {
            "compile_s", "execute_s", "request_s",
        }
        for hist in data["histograms"].values():
            assert set(hist) == HISTOGRAM_KEYS
            assert set(hist["percentiles"]) == PERCENTILE_KEYS

    def test_unknown_counter_and_histogram_are_rejected(self):
        metrics = ServeMetrics()
        with pytest.raises(KeyError):
            metrics.inc("typo")
        with pytest.raises(KeyError):
            metrics.observe("typo", 1.0)


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        hist = Histogram()
        hist.observe(0.00005)   # below the first bound
        hist.observe(0.3)       # in (0.25, 0.5]
        hist.observe(100.0)     # above every bound -> +inf
        data = hist.to_dict()
        assert data["count"] == 3
        assert data["buckets"]["le_0.0001"] == 1
        assert data["buckets"]["le_0.5"] == 1
        assert data["buckets"]["le_inf"] == 1
        assert sum(data["buckets"].values()) == 3
        assert data["min_s"] == 0.00005
        assert data["max_s"] == 100.0

    def test_empty_histogram_exports_zeros(self):
        data = Histogram().to_dict()
        assert data["count"] == 0
        assert data["mean_s"] == 0.0
        assert data["min_s"] == 0.0

    def test_bounds_are_strictly_increasing(self):
        assert list(LATENCY_BUCKETS) == sorted(set(LATENCY_BUCKETS))


class TestHitRate:
    def test_memory_disk_and_coalesced_all_count(self):
        metrics = ServeMetrics()
        for counter, amount in (
            ("requests", 10), ("hits_memory", 4), ("hits_disk", 1),
            ("coalesced", 2), ("misses", 3),
        ):
            metrics.inc(counter, amount)
        assert metrics.hit_rate() == pytest.approx(0.7)
        assert metrics.to_dict()["hit_rate"] == pytest.approx(0.7)

    def test_zero_requests_is_zero_not_nan(self):
        assert ServeMetrics().hit_rate() == 0.0


class TestPercentiles:
    """The pinned interpolation rule, on known distributions."""

    def test_single_bucket_interpolates_linearly(self):
        hist = Histogram()
        for _ in range(100):
            hist.observe(0.0007)  # all in (0.0005, 0.001]
        assert hist.percentile(0.5) == pytest.approx(0.00075)
        assert hist.percentile(0.99) == pytest.approx(0.000995)

    def test_multi_bucket_distribution(self):
        hist = Histogram()
        for _ in range(10):
            hist.observe(0.00005)  # le_0.0001
        for _ in range(80):
            hist.observe(0.0002)   # (0.0001, 0.00025]
        for _ in range(10):
            hist.observe(0.04)     # (0.025, 0.05]
        # p50: rank 50 of 100; 10 below, 40/80 into the second bucket.
        assert hist.percentile(0.5) == pytest.approx(0.000175)
        # p95: rank 95; 90 below, 5/10 into the (0.025, 0.05] bucket.
        assert hist.percentile(0.95) == pytest.approx(0.0375)
        assert hist.percentile(0.99) == pytest.approx(0.0475)

    def test_inf_bucket_resolves_to_observed_max(self):
        hist = Histogram()
        for _ in range(10):
            hist.observe(123.0)
        assert hist.percentile(0.99) == 123.0
        assert hist.to_dict()["percentiles"]["p99"] == 123.0

    def test_empty_histogram_is_zero(self):
        assert Histogram().percentile(0.99) == 0.0

    def test_dict_form_matches_live_object(self):
        hist = Histogram()
        for value in (0.0002, 0.003, 0.003, 0.08, 0.7, 9.0):
            hist.observe(value)
        exported = hist.to_dict()
        for q in (0.5, 0.95, 0.99):
            assert percentile_from_histogram_dict(exported, q) == pytest.approx(
                hist.percentile(q)
            )

    def test_sample_percentile_linear_rule(self):
        assert sample_percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        values = [float(i) for i in range(100)]
        assert sample_percentile(values, 0.99) == pytest.approx(98.01)
        assert sample_percentile([7.0], 0.95) == 7.0
        assert sample_percentile([], 0.5) == 0.0


class TestMerge:
    """Cluster aggregation over exported per-worker snapshots."""

    def test_merged_histogram_equals_union_of_observations(self):
        combined = Histogram()
        parts = [Histogram(), Histogram()]
        for i, value in enumerate((0.0002, 0.003, 0.003, 0.08, 0.7, 9.0)):
            combined.observe(value)
            parts[i % 2].observe(value)
        merged = merge_histogram_dicts([p.to_dict() for p in parts])
        want = combined.to_dict()
        assert merged["count"] == want["count"]
        assert merged["buckets"] == want["buckets"]
        assert merged["min_s"] == want["min_s"]
        assert merged["max_s"] == want["max_s"]
        assert merged["percentiles"] == want["percentiles"]
        assert set(merged) == HISTOGRAM_KEYS

    def test_merge_ignores_empty_worker_min(self):
        busy, idle = Histogram(), Histogram()
        busy.observe(0.5)
        merged = merge_histogram_dicts([busy.to_dict(), idle.to_dict()])
        assert merged["min_s"] == 0.5
        assert merged["count"] == 1

    def test_merge_metrics_sums_counters_and_recomputes_hit_rate(self):
        a, b = ServeMetrics(), ServeMetrics()
        a.inc("requests", 6)
        a.inc("hits_memory", 3)
        a.inc("compiles", 2)
        b.inc("requests", 4)
        b.inc("hits_disk", 2)
        b.inc("plan_hits", 4)
        merged = merge_metrics_dicts([a.to_dict(), b.to_dict()])
        assert merged["schema"] == METRICS_SCHEMA
        assert merged["counters"]["requests"] == 10
        assert merged["counters"]["compiles"] == 2
        assert merged["counters"]["plan_hits"] == 4
        assert merged["hit_rate"] == pytest.approx(0.5)
        assert merged["workers"] == 2
        # Merged snapshots add only provenance on top of the export.
        assert set(merged) == EXPORT_KEYS | {"workers"}

    def test_merge_rejects_schema_mismatch(self):
        snapshot = ServeMetrics().to_dict()
        old = dict(snapshot, schema=METRICS_SCHEMA - 1)
        with pytest.raises(ValueError):
            merge_metrics_dicts([snapshot, old])

    def test_merge_of_nothing_is_an_empty_snapshot(self):
        merged = merge_metrics_dicts([])
        assert merged["counters"]["requests"] == 0
        assert merged["hit_rate"] == 0.0
