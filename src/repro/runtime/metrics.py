"""Live metrics for the query service: counters, gauges, latency histograms.

The gateway (admission control + fair scheduling, :mod:`repro.runtime
.gateway`) and the session layer record everything an operator needs to run
the service under real traffic — queue depths, queue-wait vs execute
latency, shed counts, plan-cache hit rate, per-party bytes on the wire —
while recording **no query payloads**: the observability surface follows the
privacy constraint of the rest of the system (observe shapes and timings,
never plaintext rows).

Three primitives, all safe for concurrent writers with tiny critical
sections:

* counters and gauges — one shared lock for the whole table, so multi-key
  updates (``inc_many``) are atomic and a snapshot can never observe a torn
  invariant (e.g. ``plan_cache_hits + plan_cache_misses == queries``);
* :class:`LatencyHistogram` — a streaming histogram over geometric buckets
  (Prometheus-style ``le`` bounds) with exact count/sum/min/max and
  interpolated p50/p95/p99 estimates, O(1) per observation, constant
  memory;
* :meth:`GatewayMetrics.snapshot` — an immutable plain-dict copy of
  everything, and :meth:`GatewayMetrics.render_prometheus` — the same data
  in the Prometheus text exposition format, served over a local HTTP handle
  by :class:`MetricsServer` (``GET /metrics``).
"""

from __future__ import annotations

import math
import socket
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

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs in Prometheus histogram form."""
        counts, _count, _total, _minimum, _maximum = self._state()
        out, cumulative = [], 0
        for bound, bucket_count in zip(self._bounds, counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out


class GatewayMetrics:
    """The query service's metric registry.

    Counters and gauges share one lock so multi-key increments are atomic
    and snapshots are internally consistent; histograms are created on first
    observation and carry their own locks.  ``snapshot()`` returns plain
    nested dicts (safe to hand to callers — mutating a snapshot can never
    touch live state), and ``render_prometheus()`` emits the text exposition
    format for scraping.
    """

    def __init__(self, namespace: str = "conclave"):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        #: Optional provider of per-party wire traffic, set by the session:
        #: a zero-argument callable returning {party: {peer: {metric: int}}}.
        self._wire_provider = None

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

    def add_gauge(self, name: str, delta: float) -> None:
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + delta

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
        histogram.observe(value)

    def set_wire_provider(self, provider) -> None:
        with self._lock:
            self._wire_provider = provider

    # -- readers -----------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def histogram(self, name: str) -> LatencyHistogram | None:
        """The live histogram named ``name`` (``None`` before first observe)."""
        with self._lock:
            return self._histograms.get(name)

    def _wire_snapshot(self) -> dict:
        with self._lock:
            provider = self._wire_provider
        if provider is None:
            return {}
        return provider()

    def snapshot(self) -> dict:
        """One immutable, internally consistent view of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": counters,
            "gauges": gauges,
            "latency": {name: h.summary() for name, h in histograms.items()},
            "wire": self._wire_snapshot(),
        }

    # -- Prometheus text exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text format (version 0.0.4)."""
        ns = self.namespace
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: list[str] = []
        for name, value in counters:
            metric = f"{ns}_{name}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in gauges:
            metric = f"{ns}_{name}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")
        for name, histogram in histograms:
            metric = f"{ns}_{name}"
            lines.append(f"# TYPE {metric} histogram")
            for bound, cumulative in histogram.bucket_counts():
                le = "+Inf" if math.isinf(bound) else _format_value(bound)
                lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
            summary = histogram.summary()
            lines.append(f"{metric}_sum {_format_value(summary['sum'])}")
            lines.append(f"{metric}_count {summary['count']}")
        for party, peers in sorted(self._wire_snapshot().items()):
            for peer, traffic in sorted(peers.items()):
                for key in ("bytes_sent", "bytes_received"):
                    metric = f"{ns}_wire_{key}_total"
                    lines.append(
                        f'{metric}{{party="{party}",peer="{peer}"}} {traffic.get(key, 0)}'
                    )
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsServer:
    """A local plaintext scrape endpoint (``GET /metrics``) for a renderer.

    Binds ``127.0.0.1`` on an ephemeral port by default (no fixed-port races
    in tests or co-located sessions); ``url`` is the scrape target.  The
    server runs on a daemon thread and never blocks session work.
    """

    def __init__(self, render, host: str = "127.0.0.1", port: int = 0):
        # Imported when a scrape endpoint is asked for: http.server loads
        # http.client, email and ssl, megabytes that every session process —
        # and every agent forked from it — would otherwise carry unused.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._render = render

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    body = server._render().encode("utf-8")
                except Exception as exc:  # noqa: BLE001 - scrape must not crash
                    self.send_error(500, f"metrics render failed: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: D102 - silence per-request logging
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name="metrics-scrape"
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def close(self) -> None:
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
        except (OSError, socket.error):
            pass
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
