"""Serving metrics: counters and latency histograms, exported as JSON.

One :class:`ServeMetrics` instance per service.  Everything is guarded
by one lock (requests touch several counters and a histogram each; a
torn read would make the CI hit-rate gate flaky), and
:meth:`ServeMetrics.to_dict` takes a consistent snapshot under the same
lock.  The schema is pinned by ``tests/serve/test_metrics.py`` and
documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import math
import threading

#: Version of the exported metrics JSON layout.
#: 2: adaptation counters (live profiles, drift, hot swaps, tiering).
#: 3: cluster counters (plan cache, cross-process single-flight) and
#:    per-histogram p50/p95/p99 summaries.
#: 4: sparse-profiling counters (live_probe_samples,
#:    profile_reconstructions).
#: 5: those two dropped with the sparse mode: every compiled run
#:    counts chords and derives its profile the same way.
METRICS_SCHEMA = 5

#: The percentiles every histogram export carries, as fractions.
PERCENTILES = (0.5, 0.95, 0.99)

#: Histogram bucket upper bounds in seconds (log-spaced, the usual
#: serving-latency decades), plus an implicit +inf bucket.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Counter names, in export order.  Kept in one tuple so the exporter,
#: the reset path and the schema test cannot drift apart.
COUNTERS = (
    "requests",          # every request the service accepted
    "hits_memory",       # artifact served from the in-memory LRU
    "hits_disk",         # artifact served from the on-disk store
    "misses",            # artifact had to be built
    "plan_hits",         # parse/prepare/key taken from the plan cache
    "coalesced",         # request waited on another request's compile
    "compiles",          # artifact builds that ran a real compile
    "compile_failures",  # compiles that raised (artifact degraded)
    "degraded",          # requests served by the reference interpreter
    "timeouts",          # requests that exceeded their deadline
    "errors",            # requests that failed outright (bad input, run error)
    "evictions",         # in-memory LRU evictions
    "disk_corrupt",      # on-disk artifacts dropped as unreadable
    # -- adaptation tier (repro.serve.adapt) ---------------------------
    "live_samples",      # served runs folded into a live profile
    "tier_interp",       # requests served by the tier-0 interpreter
    "drift_events",      # drift-detector firings (live vs compile profile)
    "recompiles",        # background builds the adaptation tier scheduled
    "hot_swaps",         # artifact bindings atomically replaced
    "tier_promotions",   # interpreter -> compiled-artifact promotions
    "tier_demotions",    # compiled-artifact -> interpreter demotions
    "rollbacks",         # hot swaps undone to the previous artifact
    # -- cluster tier (repro.serve.cluster) ----------------------------
    "lock_rehydrates",   # cross-process race losers served from disk
    "lock_breaks",       # stale cross-process build locks broken
)

__all__ = [
    "COUNTERS",
    "LATENCY_BUCKETS",
    "METRICS_SCHEMA",
    "PERCENTILES",
    "Histogram",
    "ServeMetrics",
    "merge_histogram_dicts",
    "merge_metrics_dicts",
    "percentile_from_histogram_dict",
    "sample_percentile",
]


class Histogram:
    """A fixed-bucket latency histogram (seconds).

    Not thread-safe on its own; :class:`ServeMetrics` serialises access.
    """

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th quantile (``q`` in ``[0, 1]``) from buckets.

        Pinned interpolation rule (tests/serve/test_metrics.py):

        * empty histogram -> ``0.0``;
        * the target rank is ``q * count``; the answer lives in the first
          bucket whose cumulative count reaches it;
        * within a finite bucket ``(lower, upper]`` (the first bucket's
          lower bound is ``0.0``) interpolate linearly by the fraction of
          the bucket's observations below the target rank;
        * a target that lands in the +inf bucket resolves to ``max``,
          the largest value actually observed.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if cumulative + n >= target and n > 0:
                fraction = (target - cumulative) / n
                fraction = min(max(fraction, 0.0), 1.0)
                return lower + fraction * (bound - lower)
            cumulative += n
            lower = bound
        return self.max

    def to_dict(self) -> dict:
        buckets = {f"le_{bound:g}": n for bound, n in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_s": round(self.total, 6),
            "min_s": round(self.min, 6) if self.count else 0.0,
            "max_s": round(self.max, 6),
            "mean_s": round(self.total / self.count, 6) if self.count else 0.0,
            "percentiles": {
                f"p{int(q * 100)}": round(self.percentile(q), 6)
                for q in PERCENTILES
            },
            "buckets": buckets,
        }


class ServeMetrics:
    """Thread-safe counters + histograms for one compile service."""

    #: Histogram names, in export order.
    HISTOGRAMS = ("compile_s", "execute_s", "request_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = dict.fromkeys(COUNTERS, 0)
        self._histograms = {name: Histogram() for name in self.HISTOGRAMS}

    # ------------------------------------------------------------------
    def inc(self, counter: str, amount: int = 1) -> None:
        if counter not in self._counters:
            raise KeyError(f"unknown counter {counter!r}; known: {COUNTERS}")
        with self._lock:
            self._counters[counter] += amount

    def observe(self, histogram: str, seconds: float) -> None:
        hist = self._histograms.get(histogram)
        if hist is None:
            raise KeyError(
                f"unknown histogram {histogram!r}; known: {self.HISTOGRAMS}"
            )
        with self._lock:
            hist.observe(seconds)

    def get(self, counter: str) -> int:
        with self._lock:
            return self._counters[counter]

    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        """Fraction of requests that never waited on a compile of their own.

        Memory hits, disk hits and coalesced requests all count: none of
        them paid for a compile, which is the cost the cache exists to
        amortise.  0.0 before any request.
        """
        with self._lock:
            hits = (
                self._counters["hits_memory"]
                + self._counters["hits_disk"]
                + self._counters["coalesced"]
            )
            requests = self._counters["requests"]
        return hits / requests if requests else 0.0

    def to_dict(self) -> dict:
        """A consistent JSON-safe snapshot of every counter and histogram."""
        with self._lock:
            counters = dict(self._counters)
            histograms = {
                name: hist.to_dict() for name, hist in self._histograms.items()
            }
        hits = counters["hits_memory"] + counters["hits_disk"] + counters["coalesced"]
        requests = counters["requests"]
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "hit_rate": round(hits / requests, 4) if requests else 0.0,
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# Cluster-side aggregation.  Workers live in separate processes, so the
# front end only ever sees their exported ``to_dict`` JSON — the merge
# helpers below therefore operate on that form, not on live objects.

def _bucket_bound(key: str) -> float:
    return math.inf if key == "le_inf" else float(key[3:])


def percentile_from_histogram_dict(hist: dict, q: float) -> float:
    """The pinned :meth:`Histogram.percentile` rule, on an exported dict."""
    count = hist["count"]
    if count == 0:
        return 0.0
    items = sorted(hist["buckets"].items(), key=lambda kv: _bucket_bound(kv[0]))
    target = q * count
    cumulative = 0
    lower = 0.0
    for key, n in items:
        bound = _bucket_bound(key)
        if cumulative + n >= target and n > 0:
            if math.isinf(bound):
                return hist["max_s"]
            fraction = min(max((target - cumulative) / n, 0.0), 1.0)
            return lower + fraction * (bound - lower)
        cumulative += n
        lower = bound
    return hist["max_s"]


def merge_histogram_dicts(dicts: list[dict]) -> dict:
    """Merge exported histograms with identical bucket layouts."""
    if not dicts:
        return Histogram().to_dict()
    keys = list(dicts[0]["buckets"])
    for other in dicts[1:]:
        if list(other["buckets"]) != keys:
            raise ValueError("cannot merge histograms with different buckets")
    buckets = {
        key: sum(d["buckets"][key] for d in dicts) for key in keys
    }
    count = sum(d["count"] for d in dicts)
    total = sum(d["sum_s"] for d in dicts)
    nonempty = [d for d in dicts if d["count"]]
    merged = {
        "count": count,
        "sum_s": round(total, 6),
        "min_s": min((d["min_s"] for d in nonempty), default=0.0),
        "max_s": max((d["max_s"] for d in dicts), default=0.0),
        "mean_s": round(total / count, 6) if count else 0.0,
        "buckets": buckets,
    }
    merged["percentiles"] = {
        f"p{int(q * 100)}": round(percentile_from_histogram_dict(merged, q), 6)
        for q in PERCENTILES
    }
    # Export-order parity with Histogram.to_dict: percentiles precede buckets.
    merged["buckets"] = merged.pop("buckets")
    return merged


def merge_metrics_dicts(dicts: list[dict]) -> dict:
    """Merge per-worker ``ServeMetrics.to_dict`` exports into one snapshot.

    Counters sum, histograms merge bucket-wise (so the cluster-wide
    percentiles come from the union of every worker's observations), and
    ``hit_rate`` is recomputed from the merged counters.
    """
    if not dicts:
        return dict(ServeMetrics().to_dict(), workers=0)
    for d in dicts:
        if d["schema"] != METRICS_SCHEMA:
            raise ValueError(
                f"cannot merge metrics schema {d['schema']} "
                f"(expected {METRICS_SCHEMA})"
            )
    counters = {
        name: sum(d["counters"].get(name, 0) for d in dicts) for name in COUNTERS
    }
    histograms = {
        name: merge_histogram_dicts([d["histograms"][name] for d in dicts])
        for name in ServeMetrics.HISTOGRAMS
    }
    hits = counters["hits_memory"] + counters["hits_disk"] + counters["coalesced"]
    requests = counters["requests"]
    return {
        "schema": METRICS_SCHEMA,
        "workers": len(dicts),
        "counters": counters,
        "hit_rate": round(hits / requests, 4) if requests else 0.0,
        "histograms": histograms,
    }


def sample_percentile(values: list[float], q: float) -> float:
    """Exact ``q``-th quantile of raw samples (``q`` in ``[0, 1]``).

    Pinned rule: sort ascending, take the linearly interpolated value at
    rank ``q * (n - 1)`` (the classic "linear" / numpy default rule).
    Used by the load generator on recorded per-request latencies, where
    the raw samples are available and bucketing would lose precision.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] + fraction * (ordered[high] - ordered[low])
