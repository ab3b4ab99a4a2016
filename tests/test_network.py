"""Tests for the party-to-party network's round primitive and its accounting."""

import pytest

from repro.model.counters import NetworkStats
from repro.mpc.network import Network
from repro.runtime.transport import SimulatedTransport, Transport


@pytest.fixture
def net():
    return Network(["a", "b", "c"])


def _stats(network):
    s = network.stats
    return (s.messages, s.bytes_sent, s.rounds, s.wire_rounds)


class RecordingTransport(Transport):
    """Records every ``exchange`` call and answers with a canned delivery."""

    def __init__(self, party_names, reply=None):
        super().__init__(party_names)
        self.calls = []
        self.reply = reply or {}

    def exchange(self, tag, sends, size_bytes):
        self.calls.append((tag, sends, size_bytes))
        return self.reply


def test_round_returns_every_payload_keyed_by_its_pair(net):
    delivered = net.round("t", [("a", "b", {"x": 1}), ("a", "c", "from-a"), ("b", "c", "from-b")], 16)
    assert delivered == {("a", "b"): {"x": 1}, ("a", "c"): "from-a", ("b", "c"): "from-b"}


#: (sends, size_bytes) -> (messages, bytes_sent, rounds, wire_rounds): what the
#: round adds to the counters.  n sends of one size are n messages, n * size
#: bytes and one round; a round that carries nothing is not a round.
ACCOUNTING_CASES = [
    ([], 100, (0, 0, 0, 0)),
    ([("a", "b", "m1")], 100, (1, 100, 1, 1)),
    ([("a", "b", "m1"), ("a", "c", "m2")], 50, (2, 100, 1, 1)),
    ([("a", "b", "x"), ("b", "c", "y")], 1, (2, 2, 1, 1)),
    ([("a", "b", None), ("a", "c", None)], 10, (2, 20, 1, 1)),
    ([(s, r, 0) for s in "abc" for r in "abc" if s != r], 8, (6, 48, 1, 1)),
    ([("a", "b", "empty-vector")], 0, (1, 0, 1, 1)),
]


@pytest.mark.parametrize("sends, size, added", ACCOUNTING_CASES)
def test_round_accounting(net, sends, size, added):
    net.round("t", sends, size)
    assert _stats(net) == added
    net.round("t", sends, size)
    assert _stats(net) == tuple(2 * n for n in added)


def test_empty_round_is_not_counted_between_real_ones(net):
    net.round("t", [], 1)
    assert net.stats.rounds == 0
    net.round("t", [("a", "b", "x"), ("b", "c", "y")], 1)
    assert net.stats.rounds == 1
    net.round("t", [], 1)
    assert net.stats.rounds == 1


def test_self_send_rejected(net):
    with pytest.raises(ValueError, match="to itself"):
        net.round("t", [("a", "a", "loop")], 1)


def test_unknown_party_rejected(net):
    with pytest.raises(KeyError):
        net.round("t", [("a", "zzz", "x")], 1)
    with pytest.raises(KeyError):
        net.round("t", [("zzz", "a", "x")], 1)


def test_rejected_round_is_neither_counted_nor_carried():
    transport = RecordingTransport(["a", "b"])
    net = Network(["a", "b"], transport=transport)
    with pytest.raises(ValueError):
        net.round("t", [("a", "b", "ok"), ("b", "b", "loop")], 8)
    assert _stats(net) == (0, 0, 0, 0)
    assert transport.calls == []
    net.round("t", [], 8)
    assert transport.calls == [], "an empty round never reaches the transport"


def test_duplicate_party_names_rejected():
    with pytest.raises(ValueError):
        Network(["a", "a"])


def test_reset_stats(net):
    net.round("t", [("a", "b", "x")], 1)
    net.stats.reset()
    assert _stats(net) == (0, 0, 0, 0)


def test_stats_merge_and_copy():
    a = NetworkStats(messages=1, bytes_sent=10, rounds=2)
    b = NetworkStats(messages=2, bytes_sent=5, rounds=1)
    c = a.copy()
    a.merge(b)
    assert (a.messages, a.bytes_sent, a.rounds) == (3, 15, 3)
    assert (c.messages, c.bytes_sent, c.rounds) == (1, 10, 2)


class TestTransportAbstraction:
    def test_default_transport_is_simulated(self, net):
        assert isinstance(net.transport, SimulatedTransport)
        assert net.reference_party == "a"

    def test_explicit_simulated_transport_behaves_identically(self):
        explicit = Network(["a", "b"], transport=SimulatedTransport(["a", "b"]))
        implicit = Network(["a", "b"])
        delivered = [n.round("t", [("a", "b", "x")], 7) for n in (explicit, implicit)]
        assert explicit.stats == implicit.stats
        assert delivered[0] == delivered[1] == {("a", "b"): "x"}

    def test_transport_party_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            Network(["a", "b"], transport=SimulatedTransport(["a", "c"]))

    def test_round_hands_the_transport_tag_sends_and_size(self):
        transport = RecordingTransport(["a", "b"], reply={("a", "b"): "off-the-wire"})
        net = Network(["a", "b"], transport=transport)
        sends = [("a", "b", "local-copy")]
        assert net.round("open-share", sends, 24) == {("a", "b"): "off-the-wire"}
        assert transport.calls == [("open-share", sends, 24)]
