"""Live metrics for the query service: counters, gauges, latency histograms.

The gateway (admission control, :mod:`repro.runtime.gateway`) and the
session layer record everything an operator needs to run the service under
real traffic — queue depths, queue-wait vs execute latency, shed counts,
plan-cache hit rate, per-party bytes on the wire, agent page faults and CPU
time — while recording **no query payloads**: the observability surface
follows the privacy constraint of the rest of the system (observe shapes,
counts and timings, never plaintext rows).

Three primitives, all safe for concurrent writers with tiny critical
sections:

* counters and gauges — one shared lock for the whole table, so multi-key
  updates (``inc_many``) are atomic and a snapshot can never observe a torn
  invariant (e.g. ``plan_cache_hits + plan_cache_misses == queries``);
* :class:`LatencyHistogram` — a streaming histogram over geometric buckets
  with exact count/sum/min/max and interpolated p50/p95/p99 estimates,
  O(1) per observation, constant memory;
* :meth:`GatewayMetrics.snapshot` — an immutable plain-dict copy of
  everything, which :attr:`QuerySession.stats
  <repro.runtime.service.QuerySession.stats>` reshapes for callers.
"""

from __future__ import annotations

import math
import threading

#: Default histogram bucket upper bounds (seconds): geometric from 0.5 ms to
#: ~4400 s.  Anything above the last bound lands in the +Inf overflow bucket.
DEFAULT_BUCKETS = tuple(0.0005 * 2**k for k in range(24))

#: Percentiles included in every histogram summary.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


class LatencyHistogram:
    """Streaming histogram with geometric buckets and percentile estimates.

    ``observe`` is O(number of buckets) in the worst case (a ``bisect``-free
    linear scan would be; we binary-search) and holds its lock only for the
    few increments.  Percentiles are estimated by linear interpolation
    inside the bucket containing the target rank, clamped to the exact
    observed min/max, so single-value streams report that value exactly.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self._bounds = tuple(sorted(buckets))
        if not self._bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        # counts has one extra slot: the +Inf overflow bucket.
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _state(self) -> tuple[list[int], int, float, float, float]:
        with self._lock:
            return list(self._counts), self._count, self._sum, self._min, self._max

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0 < p <= 100) of the stream."""
        counts, count, _total, minimum, maximum = self._state()
        return self._percentile_from(counts, count, minimum, maximum, p)

    def _percentile_from(
        self, counts: list[int], count: int, minimum: float, maximum: float, p: float
    ) -> float:
        if count == 0:
            return 0.0
        target = max(1, math.ceil(count * p / 100.0))
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative < target:
                continue
            if i >= len(self._bounds):  # overflow bucket: report the true max
                return maximum
            lower = self._bounds[i - 1] if i > 0 else 0.0
            upper = self._bounds[i]
            fraction = (target - previous) / bucket_count
            estimate = lower + (upper - lower) * fraction
            return min(max(estimate, minimum), maximum)
        return maximum

    def summary(self) -> dict:
        """An immutable plain-dict summary (count, sum, mean, percentiles)."""
        counts, count, total, minimum, maximum = self._state()
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": minimum if count else 0.0,
            "max": maximum if count else 0.0,
        }
        for p in SUMMARY_PERCENTILES:
            out[f"p{p:g}"] = self._percentile_from(counts, count, minimum, maximum, p)
        return out


class GatewayMetrics:
    """The query service's metric registry.

    Counters and gauges share one lock so multi-key increments are atomic
    and snapshots are internally consistent; histograms are created on first
    observation and carry their own locks.  ``snapshot()`` returns plain
    nested dicts (safe to hand to callers — mutating a snapshot can never
    touch live state).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        #: Optional provider of per-party counters, set by the session: a
        #: zero-argument callable returning {party: {"wire": {peer: {metric:
        #: int}}, "proc": {metric: int}}}.
        self._party_provider = None

    # -- writers -----------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def inc_many(self, updates: dict[str, int]) -> None:
        """Atomically increment several counters (one lock acquisition, so a
        snapshot sees either all of the updates or none of them)."""
        with self._lock:
            for name, amount in updates.items():
                self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
        histogram.observe(value)

    def set_party_provider(self, provider) -> None:
        with self._lock:
            self._party_provider = provider

    # -- readers -----------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def _party_snapshot(self) -> dict:
        with self._lock:
            provider = self._party_provider
        if provider is None:
            return {}
        return provider()

    def snapshot(self) -> dict:
        """One immutable, internally consistent view of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        parties = self._party_snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "latency": {name: h.summary() for name, h in histograms.items()},
            "wire": {party: c["wire"] for party, c in parties.items()},
            "proc": {party: c["proc"] for party, c in parties.items()},
        }
