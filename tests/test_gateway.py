"""Tests for the query gateway and metrics subsystem.

Unit layer (no processes): admission control sheds with an explicit
:class:`QueryRejected` instead of hanging, per-analyst queue/in-flight caps,
the smooth-weighted-round-robin dispatch order (deterministic, no
starvation), close-fails-queued semantics, dispatch-failure slot release,
and the metrics primitives (histogram percentiles, atomic multi-counter
updates, Prometheus rendering).

Integration layer (real two-party sessions): a saturated bounded queue
sheds without poisoning the session, two analysts soak without starvation,
``QuerySession.stats`` is an immutable internally consistent snapshot even
under concurrent submission, and the ``/metrics`` scrape endpoint serves
the session's live registry.
"""

import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

import repro as cc
from repro.core.config import GatewayConfig
from repro.runtime.gateway import DEFAULT_ANALYST, QueryGateway, QueryRejected
from repro.runtime.metrics import GatewayMetrics, LatencyHistogram, MetricsServer
from repro.runtime.service import SessionClosed

from test_query_service import two_party_query, wait_until


class StubDispatcher:
    """Dispatch-closure factory recording dispatch order; tests resolve futures."""

    def __init__(self):
        self.lock = threading.Lock()
        self.futures: list[Future] = []
        self.order: list[str] = []
        self._resolved = 0

    def make(self, tag: str):
        def dispatch() -> Future:
            future = Future()
            with self.lock:
                self.futures.append(future)
                self.order.append(tag)
            return future

        return dispatch

    def finish_next(self, value=None) -> None:
        with self.lock:
            future = self.futures[self._resolved]
            self._resolved += 1
        future.set_result(value)


class TestGatewayConfig:
    def test_defaults_are_unlimited(self):
        config = GatewayConfig().validate()
        assert config.max_in_flight is None
        assert config.max_queue_depth is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"max_queue_depth": -1},
            {"max_queue_per_analyst": 0},
            {"max_in_flight_per_analyst": 0},
            {"default_weight": 0},
            {"analyst_weights": {"a": 0}},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs).validate()


class TestAdmissionControl:
    def test_full_queue_sheds_immediately(self):
        stub = StubDispatcher()
        gw = QueryGateway(GatewayConfig(max_in_flight=1, max_queue_depth=1))
        gw.submit("a", stub.make("a1"))  # dispatched
        queued = gw.submit("a", stub.make("a2"))  # queued
        started = time.monotonic()
        with pytest.raises(QueryRejected) as info:
            gw.submit("a", stub.make("a3"))
        # Shed is an immediate, stateless decision — never a hang.
        assert time.monotonic() - started < 1.0
        assert info.value.analyst == "a"
        assert info.value.queued == 1
        assert info.value.in_flight == 1
        assert gw.metrics.counter("queries_rejected") == 1
        # The shed left no residue: draining the slot dispatches the queued
        # query and the gateway goes fully idle.
        stub.finish_next()
        stub.finish_next()
        assert queued.result(timeout=5) is None
        assert gw.in_flight() == 0 and gw.queued() == 0

    def test_per_analyst_queue_cap(self):
        stub = StubDispatcher()
        gw = QueryGateway(GatewayConfig(max_in_flight=1, max_queue_per_analyst=1))
        gw.submit("a", stub.make("a1"))
        gw.submit("a", stub.make("a2"))
        with pytest.raises(QueryRejected):
            gw.submit("a", stub.make("a3"))
        # Another analyst's queue is unaffected by a's cap.
        other = gw.submit("b", stub.make("b1"))
        assert gw.queued("a") == 1 and gw.queued("b") == 1
        for _ in range(3):
            stub.finish_next()
        assert other.result(timeout=5) is None

    def test_per_analyst_in_flight_cap_reserves_slots(self):
        stub = StubDispatcher()
        gw = QueryGateway(
            GatewayConfig(max_in_flight=4, max_in_flight_per_analyst=1)
        )
        gw.submit("a", stub.make("a1"))
        gw.submit("a", stub.make("a2"))  # queued: a is at its in-flight cap
        gw.submit("b", stub.make("b1"))  # b still dispatches immediately
        assert stub.order == ["a1", "b1"]
        assert gw.in_flight() == 2 and gw.queued("a") == 1

    def test_inline_dispatch_error_raises_and_releases(self):
        gw = QueryGateway(GatewayConfig(max_in_flight=1))
        boom = RuntimeError("frame failed to encode")

        def dispatch():
            raise boom

        with pytest.raises(RuntimeError, match="frame failed to encode"):
            gw.submit("a", dispatch)
        assert gw.in_flight() == 0
        assert gw.metrics.counter("queries_failed") == 1
        # The slot was released: the next submission dispatches normally.
        stub = StubDispatcher()
        future = gw.submit("a", stub.make("a1"))
        stub.finish_next("ok")
        assert future.result(timeout=5) == "ok"

    def test_queued_dispatch_error_fails_future_and_pumps_on(self):
        stub = StubDispatcher()
        gw = QueryGateway(GatewayConfig(max_in_flight=1))
        gw.submit("a", stub.make("blocker"))
        boom = RuntimeError("dead on dispatch")

        def failing():
            raise boom

        doomed = gw.submit("a", failing)
        survivor = gw.submit("a", stub.make("a2"))
        stub.finish_next()  # release the blocker; the pump hits the failure
        assert doomed.exception(timeout=5) is boom
        stub.finish_next("ok")
        assert survivor.result(timeout=5) == "ok"
        assert gw.in_flight() == 0

    def test_close_fails_queued_queries(self):
        stub = StubDispatcher()
        gw = QueryGateway(GatewayConfig(max_in_flight=1), closed_error=SessionClosed)
        inflight = gw.submit("a", stub.make("a1"))
        queued = gw.submit("a", stub.make("a2"))
        gw.close()
        with pytest.raises(SessionClosed):
            queued.result(timeout=5)
        with pytest.raises(SessionClosed):
            gw.submit("a", stub.make("a3"))
        # Already-dispatched work is untouched by close.
        stub.finish_next("done")
        assert inflight.result(timeout=5) == "done"


class TestFairScheduling:
    def test_weighted_round_robin_order(self):
        stub = StubDispatcher()
        gw = QueryGateway(
            GatewayConfig(max_in_flight=1, analyst_weights={"h": 2, "l": 1})
        )
        gw.submit("h", stub.make("h"))  # dispatches; the rest queue behind it
        for _ in range(5):
            gw.submit("h", stub.make("h"))
        for _ in range(3):
            gw.submit("l", stub.make("l"))
        for _ in range(9):
            stub.finish_next()
        # Smooth WRR with weights 2:1 — deterministic, interleaved, and the
        # light analyst is never starved behind the heavy one's backlog.
        assert stub.order == ["h", "h", "l", "h", "h", "l", "h", "h", "l"]

    def test_equal_weights_alternate(self):
        stub = StubDispatcher()
        gw = QueryGateway(GatewayConfig(max_in_flight=1))
        gw.submit("a", stub.make("a"))
        for _ in range(3):
            gw.submit("a", stub.make("a"))
        for _ in range(3):
            gw.submit("b", stub.make("b"))
        for _ in range(7):
            stub.finish_next()
        interleaved = stub.order[1:]
        # With equal weights each round dispatches one of each; b never
        # waits for more than two a dispatches.
        assert interleaved.count("a") == 3 and interleaved.count("b") == 3
        assert "b" in interleaved[:2]


class TestLatencyHistogram:
    def test_single_value_is_exact(self):
        hist = LatencyHistogram()
        hist.observe(0.0421)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == 0.0421
        assert summary["p50"] == pytest.approx(0.0421)
        assert summary["p99"] == pytest.approx(0.0421)

    def test_bimodal_percentiles(self):
        hist = LatencyHistogram()
        for _ in range(50):
            hist.observe(0.001)
        for _ in range(50):
            hist.observe(0.1)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(50 * 0.001 + 50 * 0.1)
        assert summary["p50"] == pytest.approx(0.001, rel=0.5)
        assert summary["p99"] == pytest.approx(0.1, rel=0.5)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_bucket_counts_are_cumulative(self):
        hist = LatencyHistogram()
        for value in (0.0001, 0.01, 1.0, 10_000.0):  # last lands in +Inf
            hist.observe(value)
        counts = hist.bucket_counts()
        assert counts[-1][1] == 4
        cumulative = [count for _bound, count in counts]
        assert cumulative == sorted(cumulative)


class TestGatewayMetrics:
    def test_inc_many_is_atomic_under_concurrency(self):
        metrics = GatewayMetrics()
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                metrics.inc_many({"queries": 1, "plan_cache_hits": 1})

        def reader():
            while not stop.is_set():
                snap = metrics.snapshot()["counters"]
                if snap.get("queries", 0) != snap.get("plan_cache_hits", 0):
                    torn.append(snap)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not torn

    def test_render_prometheus_format(self):
        metrics = GatewayMetrics()
        metrics.inc("queries", 3)
        metrics.set_gauge("in_flight", 2)
        metrics.observe("queue_wait_seconds", 0.004)
        metrics.set_party_provider(lambda: {"a": {
            "wire": {"b": {"bytes_sent": 10, "bytes_received": 20}},
            "proc": {"minor_faults": 7, "user_ms": 3, "sys_ms": 1},
        }})
        text = metrics.render_prometheus()
        assert "# TYPE conclave_queries_total counter" in text
        assert "conclave_queries_total 3" in text
        assert "conclave_in_flight 2" in text
        assert '# TYPE conclave_queue_wait_seconds histogram' in text
        assert 'conclave_queue_wait_seconds_bucket{le="+Inf"} 1' in text
        assert 'conclave_wire_bytes_sent_total{party="a",peer="b"} 10' in text
        assert 'conclave_agent_minor_faults_total{party="a"} 7' in text

    def test_metrics_server_serves_and_404s(self):
        metrics = GatewayMetrics()
        metrics.inc("queries", 7)
        with MetricsServer(metrics.render_prometheus) as server:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                body = response.read().decode("utf-8")
                assert response.headers["Content-Type"].startswith("text/plain")
            assert "conclave_queries_total 7" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.url.replace("/metrics", "/secrets"), timeout=5
                )


class TestSessionIntegration:
    def test_saturation_sheds_without_poisoning_the_session(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(
            inputs, seed=3,
            gateway=GatewayConfig(max_in_flight=1, max_queue_depth=1),
        )
        try:
            admitted, rejected = [], 0
            for _ in range(6):
                try:
                    admitted.append(session.submit_async(compiled))
                except QueryRejected:
                    rejected += 1
            assert rejected > 0, "a 6-deep burst against depth 1+1 must shed"
            assert len(admitted) >= 2
            for pending in admitted:
                pending.result(timeout=60)
            # The shed queries left no residue: the session still serves.
            result = session.submit(compiled, timeout=60)
            assert "out" in result.outputs
            stats = session.stats
            assert stats["queries_rejected"] == rejected
            assert stats["queries"] == len(admitted) + 1
            assert stats["plan_cache_hits"] + stats["plan_cache_misses"] == stats["queries"]
            assert stats["in_flight"] == 0 and stats["queued"] == 0
        finally:
            session.close()

    def test_two_analyst_soak_no_starvation(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(
            inputs, seed=3, gateway=GatewayConfig(max_in_flight=1),
        )
        try:
            alice = [session.submit_async(compiled, analyst="alice") for _ in range(5)]
            bob = session.submit_async(compiled, analyst="bob")
            bob.result(timeout=120)
            # Fair scheduling: bob's single query overtook alice's backlog
            # instead of waiting for all five to drain.
            assert not all(pending.done() for pending in alice)
            for pending in alice:
                pending.result(timeout=120)
            stats = session.stats
            assert stats["queries"] == 6
            assert stats["queries_completed"] == 6
            assert stats["latency"]["queue_wait_seconds"]["count"] == 6
            assert stats["latency"]["execute_seconds"]["count"] == 6
        finally:
            session.close()

    def test_stats_snapshot_consistent_under_concurrent_submits(self):
        ctx_a, inputs = two_party_query()
        ctx_b, _ = two_party_query(agg_extra=True)
        plans = [cc.compile_query(ctx_a), cc.compile_query(ctx_b)]
        session = cc.open_session(inputs, seed=3)
        try:
            torn = []
            stop = threading.Event()

            def read_stats():
                while not stop.is_set():
                    stats = session.stats
                    if stats["plan_cache_hits"] + stats["plan_cache_misses"] != stats["queries"]:
                        torn.append(stats)

            reader = threading.Thread(target=read_stats)
            reader.start()
            try:
                pending = [session.submit_async(plans[i % 2]) for i in range(8)]
                for item in pending:
                    item.result(timeout=120)
            finally:
                stop.set()
                reader.join(timeout=10)
            assert not torn, f"torn stats snapshot observed: {torn[:1]}"
            stats = session.stats
            assert stats["queries"] == 8
            assert stats["plan_cache_misses"] == 2
            assert stats["plan_cache_hits"] == 6
        finally:
            session.close()

    def test_stats_is_an_immutable_snapshot(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(inputs, seed=3)
        try:
            session.submit(compiled, timeout=60)
            snapshot = session.stats
            snapshot["queries"] = 999
            snapshot["latency"]["bogus"] = {}
            fresh = session.stats
            assert fresh["queries"] == 1
            assert "bogus" not in fresh["latency"]
        finally:
            session.close()

    def test_scrape_endpoint_serves_session_metrics(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(inputs, seed=3)
        try:
            session.submit(compiled, timeout=60)
            server = session.serve_metrics()
            assert session.serve_metrics() is server  # idempotent
            with urllib.request.urlopen(server.url, timeout=5) as response:
                body = response.read().decode("utf-8")
            assert "conclave_queries_total 1" in body
            assert "conclave_queue_wait_seconds_bucket" in body
            # Wire accounting flows into the scrape with party/peer labels.
            assert 'conclave_wire_bytes_sent_total{party=' in body
        finally:
            session.close()
        # Closing the session tears the endpoint down with it.
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(server.url, timeout=2)

    def test_max_workers_validation(self):
        with pytest.raises(ValueError):
            cc.open_session(parties=["a", "b"], max_workers=0)
        with pytest.raises(ValueError):
            cc.open_session(parties=["a", "b"], max_workers="many")

    def test_rejection_error_is_exported(self):
        assert cc.QueryRejected is QueryRejected
        assert cc.GatewayConfig is GatewayConfig
        assert DEFAULT_ANALYST == "anonymous"
