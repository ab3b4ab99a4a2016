"""Tests for the query gateway and metrics subsystem.

Unit layer (no processes): admission control sheds with an explicit
:class:`QueryRejected` instead of hanging, queued queries dispatch in
submission order, close-fails-queued semantics, dispatch-failure slot
release, completion counters and latencies, and the metrics primitives
(histogram percentiles, atomic multi-counter updates, detached snapshots).

Integration layer (real two-party sessions): a saturated bounded queue
sheds without poisoning the session, a queued burst drains with every
query's latency recorded, and ``QuerySession.stats`` is an immutable
internally consistent snapshot even under concurrent submission.
"""

import threading
import time
from concurrent.futures import Future

import pytest

import repro as cc
from repro.runtime.gateway import QueryGateway, QueryRejected
from repro.runtime.metrics import GatewayMetrics, LatencyHistogram
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

    def _next(self) -> Future:
        with self.lock:
            future = self.futures[self._resolved]
            self._resolved += 1
        return future

    def finish_next(self, value=None) -> None:
        self._next().set_result(value)

    def fail_next(self, error: BaseException) -> None:
        self._next().set_exception(error)


class TestAdmissionControl:
    def test_full_queue_sheds_immediately(self):
        stub = StubDispatcher()
        gw = QueryGateway(1, 1)
        gw.submit(stub.make("q1"))  # dispatched
        queued = gw.submit(stub.make("q2"))  # queued
        started = time.monotonic()
        with pytest.raises(QueryRejected) as info:
            gw.submit(stub.make("q3"))
        # Shed is an immediate, stateless decision — never a hang.
        assert time.monotonic() - started < 1.0
        assert info.value.queued == 1
        assert info.value.in_flight == 1
        assert gw.metrics.counter("queries_rejected") == 1
        # The shed left no residue: draining the slot dispatches the queued
        # query and the gateway goes fully idle.
        stub.finish_next()
        stub.finish_next()
        assert queued.result(timeout=5) is None
        assert gw.in_flight() == 0 and gw.queued() == 0

    def test_inline_dispatch_error_raises_and_releases(self):
        gw = QueryGateway(1)
        boom = RuntimeError("frame failed to encode")

        def dispatch():
            raise boom

        with pytest.raises(RuntimeError, match="frame failed to encode"):
            gw.submit(dispatch)
        assert gw.in_flight() == 0
        assert gw.metrics.counter("queries_failed") == 1
        # The slot was released: the next submission dispatches normally.
        stub = StubDispatcher()
        future = gw.submit(stub.make("q1"))
        stub.finish_next("ok")
        assert future.result(timeout=5) == "ok"

    def test_queued_dispatch_error_fails_future_and_pumps_on(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        gw.submit(stub.make("blocker"))
        boom = RuntimeError("dead on dispatch")

        def failing():
            raise boom

        doomed = gw.submit(failing)
        survivor = gw.submit(stub.make("q2"))
        stub.finish_next()  # release the blocker; the pump hits the failure
        assert doomed.exception(timeout=5) is boom
        stub.finish_next("ok")
        assert survivor.result(timeout=5) == "ok"
        assert gw.in_flight() == 0

    def test_close_fails_queued_queries(self):
        stub = StubDispatcher()
        gw = QueryGateway(1, closed_error=SessionClosed)
        inflight = gw.submit(stub.make("q1"))
        queued = gw.submit(stub.make("q2"))
        gw.close()
        with pytest.raises(SessionClosed):
            queued.result(timeout=5)
        with pytest.raises(SessionClosed):
            gw.submit(stub.make("q3"))
        # Already-dispatched work is untouched by close.
        stub.finish_next("done")
        assert inflight.result(timeout=5) == "done"

    def test_close_keeps_its_first_reason(self):
        gw = QueryGateway(1, closed_error=SessionClosed)
        gw.close(RuntimeError("agents lost"))
        gw.close(RuntimeError("second close"))
        with pytest.raises(SessionClosed, match="agents lost"):
            gw.submit(StubDispatcher().make("q1"))

    def test_in_flight_limit_bounds_concurrent_dispatch(self):
        stub = StubDispatcher()
        gw = QueryGateway(2)
        for i in range(5):
            gw.submit(stub.make(f"q{i}"))
        assert stub.order == ["q0", "q1"]
        assert gw.in_flight() == 2 and gw.queued() == 3
        gauges = gw.metrics.snapshot()["gauges"]
        assert gauges == {"in_flight": 2, "queue_depth": 3}
        stub.finish_next()
        assert stub.order == ["q0", "q1", "q2"]
        assert gw.in_flight() == 2 and gw.queued() == 2

    def test_in_flight_cap_applies_without_a_queue_limit(self):
        stub = StubDispatcher()
        gw = QueryGateway(3)
        for i in range(4):
            gw.submit(stub.make(f"q{i}"))
        assert stub.order == ["q0", "q1", "q2"]
        assert gw.queued() == 1

    def test_unbounded_queue_never_sheds(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        futures = [gw.submit(stub.make(f"q{i}")) for i in range(50)]
        assert gw.queued() == 49
        for i in range(50):
            stub.finish_next(i)
        assert [f.result(timeout=5) for f in futures] == list(range(50))
        counters = gw.metrics.snapshot()["counters"]
        assert counters == {
            "queries_submitted": 50,
            "queries_queued": 49,
            "queries_admitted": 50,
            "queries_completed": 50,
        }

    def test_shed_and_admitted_add_up_to_submitted(self):
        stub = StubDispatcher()
        gw = QueryGateway(1, 2)
        rejected = 0
        for i in range(5):
            try:
                gw.submit(stub.make(f"q{i}"))
            except QueryRejected:
                rejected += 1
        assert rejected == 2
        for _ in range(3):
            stub.finish_next()
        counters = gw.metrics.snapshot()["counters"]
        assert counters["queries_submitted"] == 5
        assert counters["queries_rejected"] == rejected
        assert counters["queries_admitted"] == counters["queries_completed"] == 3

    def test_failed_execution_fails_the_future_and_pumps_on(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        doomed = gw.submit(stub.make("q1"))
        survivor = gw.submit(stub.make("q2"))
        boom = RuntimeError("agent died mid-query")
        stub.fail_next(boom)
        assert doomed.exception(timeout=5) is boom
        assert gw.metrics.counter("queries_failed") == 1
        assert stub.order == ["q1", "q2"]
        stub.finish_next("ok")
        assert survivor.result(timeout=5) == "ok"
        assert gw.metrics.counter("queries_completed") == 1

    def test_completion_counters_are_added_on_success(self):
        stub = StubDispatcher()
        gw = QueryGateway(1, completion_counters=lambda rows: {"rows_processed": rows})
        first, second = gw.submit(stub.make("q1")), gw.submit(stub.make("q2"))
        stub.finish_next(7)
        stub.finish_next(5)
        assert first.result(timeout=5) == 7 and second.result(timeout=5) == 5
        assert gw.metrics.counter("rows_processed") == 12
        assert gw.metrics.counter("queries_completed") == 2

    def test_broken_completion_counters_never_fail_a_query(self):
        stub = StubDispatcher()

        def broken(_result):
            raise KeyError("payload without a rows field")

        gw = QueryGateway(1, completion_counters=broken)
        future = gw.submit(stub.make("q1"))
        stub.finish_next("ok")
        assert future.result(timeout=5) == "ok"
        assert gw.metrics.counter("queries_completed") == 1
        assert gw.metrics.counter("queries_failed") == 0

    def test_every_query_records_its_three_latencies(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        for i in range(3):
            gw.submit(stub.make(f"q{i}"))
        for _ in range(3):
            stub.finish_next()
        latency = gw.metrics.snapshot()["latency"]
        for name in ("queue_wait_seconds", "execute_seconds", "query_seconds"):
            assert latency[name]["count"] == 3
            assert latency[name]["min"] >= 0.0


class TestFifoOrder:
    def test_queued_queries_dispatch_in_submission_order(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        gw.submit(stub.make("q0"))  # dispatches; the rest queue behind it
        for i in range(1, 6):
            gw.submit(stub.make(f"q{i}"))
        assert stub.order == ["q0"] and gw.queued() == 5
        for _ in range(6):
            stub.finish_next()
        assert stub.order == [f"q{i}" for i in range(6)]
        assert gw.in_flight() == 0 and gw.queued() == 0

    def test_a_failed_dispatch_keeps_the_order_of_the_rest(self):
        stub = StubDispatcher()
        gw = QueryGateway(1)
        gw.submit(stub.make("q0"))
        gw.submit(stub.make("q1"))

        def failing():
            raise RuntimeError("dead on dispatch")

        doomed = gw.submit(failing)
        gw.submit(stub.make("q3"))
        gw.submit(stub.make("q4"))
        for _ in range(4):
            stub.finish_next()
        assert isinstance(doomed.exception(timeout=5), RuntimeError)
        assert stub.order == ["q0", "q1", "q3", "q4"]


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

    def test_empty_histogram_summarises_to_zero(self):
        summary = LatencyHistogram().summary()
        assert summary == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_overflow_bucket_reports_the_true_max(self):
        hist = LatencyHistogram(buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.percentile(99) == 7.0
        assert hist.summary()["max"] == 7.0

    def test_estimates_stay_inside_the_observed_range(self):
        hist = LatencyHistogram()
        for value in (0.0030, 0.0032, 0.0035):
            hist.observe(value)
        summary = hist.summary()
        for p in ("p50", "p95", "p99"):
            assert 0.0030 <= summary[p] <= 0.0035
        assert hist.percentile(95) == summary["p95"]

    def test_a_histogram_needs_a_bound(self):
        with pytest.raises(ValueError, match="bucket"):
            LatencyHistogram(buckets=())


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

    def test_snapshot_is_detached_from_live_state(self):
        metrics = GatewayMetrics()
        metrics.inc("queries", 2)
        metrics.set_gauge("in_flight", 1)
        metrics.observe("query_seconds", 0.01)
        snap = metrics.snapshot()
        snap["counters"]["queries"] = 99
        snap["gauges"].clear()
        snap["latency"]["query_seconds"]["count"] = 99
        fresh = metrics.snapshot()
        assert fresh["counters"] == {"queries": 2}
        assert fresh["gauges"] == {"in_flight": 1}
        assert fresh["latency"]["query_seconds"]["count"] == 1

    def test_unknown_counter_reads_zero(self):
        metrics = GatewayMetrics()
        assert metrics.counter("never_touched") == 0
        assert metrics.snapshot()["latency"] == {}

    def test_party_provider_feeds_wire_and_proc(self):
        metrics = GatewayMetrics()
        assert metrics.snapshot()["wire"] == {} and metrics.snapshot()["proc"] == {}
        metrics.set_party_provider(lambda: {
            "a": {"wire": {"b": {"bytes_sent": 10}}, "proc": {"page_faults": 3}},
            "b": {"wire": {"a": {"bytes_sent": 12}}, "proc": {"page_faults": 4}},
        })
        snap = metrics.snapshot()
        assert snap["wire"] == {"a": {"b": {"bytes_sent": 10}}, "b": {"a": {"bytes_sent": 12}}}
        assert snap["proc"] == {"a": {"page_faults": 3}, "b": {"page_faults": 4}}


class TestSessionIntegration:
    def test_saturation_sheds_without_poisoning_the_session(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(
            inputs, seed=3, max_workers=1, max_queue_depth=1,
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

    def test_queued_burst_drains_with_latency_recorded(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(
            inputs, seed=3, max_workers=1,
        )
        try:
            burst = [session.submit_async(compiled) for _ in range(6)]
            for pending in burst:
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

    def test_rejection_error_is_exported(self):
        assert cc.QueryRejected is QueryRejected
