"""Tests for the MPC backend facade (Sharemind-style) and the MPC cost models."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.model.counters import CostMeter, NetworkStats
from repro.model.prices import GarbledCostModel, SharemindCostModel
from repro.mpc.sharemind import SharemindBackend
from repro.workloads.generators import uniform_key_value_table
from tests.conftest import PARTIES


class TestSharemindBackend:
    def setup_method(self):
        self.backend = SharemindBackend(PARTIES, seed=3)
        self.table = uniform_key_value_table(12, 4, seed=1)
        self.other = uniform_key_value_table(8, 4, seed=2)

    def test_party_count_limits(self):
        with pytest.raises(ValueError):
            SharemindBackend(["only-one"])
        with pytest.raises(ValueError):
            SharemindBackend(["a", "b", "c", "d"])
        assert SharemindBackend(["a", "b"]).engine.num_parties == 2

    def test_ingest_reveal_roundtrip(self):
        handle = self.backend.ingest(self.table, contributor=PARTIES[0])
        assert self.backend.reveal(handle) == self.table

    def test_operator_results_match_cleartext(self):
        h = self.backend.ingest(self.table)
        o = self.backend.ingest(self.other)
        assert self.backend.project(h, ["value"]).reveal() == self.table.project(["value"])
        assert self.backend.filter(h, "value", ">", 500).reveal().equals_unordered(
            self.table.filter("value", ">", 500)
        )
        assert self.backend.join(h, o, "key", "key").reveal().equals_unordered(
            self.table.join(self.other, ["key"], ["key"])
        )
        assert self.backend.aggregate(h, "key", [("sum", "value", "t")]).reveal().equals_unordered(
            self.table.aggregate(["key"], "value", "sum", "t")
        )
        assert self.backend.concat([h, o]).reveal().equals_unordered(
            self.table.concat(self.other)
        )
        assert self.backend.sort_by(h, "value").reveal() == self.table.sort_by(["value"])
        assert self.backend.limit(h, 3).num_rows == 3
        assert sorted(
            self.backend.distinct(h, ["key"]).reveal().column("key").tolist()
        ) == sorted(self.table.distinct(["key"]).column("key").tolist())

    def test_multiply_and_divide(self):
        h = self.backend.ingest(self.table)
        doubled = self.backend.arith(h, "d", "value", "*", 2)
        assert doubled.reveal().column("d").tolist() == (self.table.column("value") * 2).tolist()
        ratio = self.backend.arith(h, "r", "value", "/", "key")
        expected = self.table.arithmetic("r", "value", "/", "key").column("r")
        assert np.allclose(ratio.reveal().column("r"), expected, atol=1e-4)

    def seconds(self) -> float:
        """The backend's work so far, priced."""
        return SharemindCostModel().work_seconds(self.backend.meter)

    def test_priced_work_grows_with_work(self):
        baseline = self.seconds()
        h = self.backend.ingest(self.table)
        o = self.backend.ingest(self.other)
        after_ingest = self.seconds()
        self.backend.join(h, o, "key", "key")
        after_join = self.seconds()
        assert baseline < after_ingest < after_join

    def test_priced_work_counts_rounds_and_bytes(self):
        """The engine's meter is fed by its network, so executed rounds and
        bytes — real or analytic — are priced, not only the estimator's."""
        engine, model = self.backend.engine, SharemindCostModel()
        assert engine.meter.network is engine.network.stats
        self.backend.ingest(self.table)
        stats = engine.network.stats
        assert stats.rounds > 0 and stats.bytes_sent > 0

        before = self.seconds()
        engine.charge(CostMeter(network=NetworkStats(rounds=1)))
        one_round = self.seconds()
        assert one_round - before == pytest.approx(model.round_latency_seconds, rel=1e-9)
        engine.charge(CostMeter(network=NetworkStats(rounds=1, bytes_sent=125_000)))
        assert self.seconds() - one_round == pytest.approx(
            model.round_latency_seconds + 125_000 / model.bytes_per_second, rel=1e-9
        )


class TestCostModels:
    def test_sharemind_cost_model_components(self):
        model = SharemindCostModel()
        meter = CostMeter(comparisons=1000)
        base = model.work_seconds(CostMeter())
        assert model.work_seconds(meter) == pytest.approx(base + 1000 * model.per_comparison_seconds)

    def test_garbled_cost_model_memory(self):
        model = GarbledCostModel()
        assert model.memory_bytes(live_wires=10, buffered_gates=5) == 10 * 16 + 5 * 32
