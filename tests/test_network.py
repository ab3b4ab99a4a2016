"""Tests for the party-to-party network's round primitive and its accounting."""

import numpy as np
import pytest

import repro as cc
from repro.core.dispatch import QueryRunner
from repro.model.counters import CleartextWork, NetworkStats
from repro.mpc.network import Network, TransportError
from repro.mpc.secretshare import SecretSharingEngine
from repro.queries import aspirin_count_query
from repro.runtime.queues import run_on_queue_channels
from repro.runtime.service import merge_payloads
from repro.runtime.wire import decode_payload, encode_payload
from repro.workloads.healthlnk import HealthLNKWorkload

from test_differential import PARTY_A, PARTY_B, SEED, build_query, generate_spec
from test_round_budget import WORKLOADS


@pytest.fixture
def net():
    return Network(["a", "b", "c"])


def _stats(network):
    s = network.stats
    return (s.messages, s.bytes_sent, s.rounds, s.wire_rounds)


class RecordingChannel:
    """A fake mesh channel for ``party``: records every send and receive
    and answers each receive with a canned ``(tag, payload)`` frame."""

    def __init__(self, party, peers, frames=None):
        self.party = party
        self.peers = set(peers)
        self.frames = frames or {}
        self.calls = []

    def send_message(self, peer, tag, payload):
        self.calls.append(("send", peer, tag, payload))

    def receive_message(self, peer):
        self.calls.append(("receive", peer))
        return self.frames[peer]


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
    channel = RecordingChannel("a", ["b"])
    net = Network(["a", "b"], channel=channel)
    with pytest.raises(ValueError):
        net.round("t", [("a", "b", "ok"), ("b", "b", "loop")], 8)
    assert _stats(net) == (0, 0, 0, 0)
    assert channel.calls == []
    net.round("t", [], 8)
    assert channel.calls == [], "an empty round never reaches the channel"


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


class TestRoundCarriage:
    def test_without_a_channel_the_round_is_delivered_in_process(self, net):
        assert net.channel is None
        assert net.reference_party == "a"

    def test_an_explicit_none_channel_behaves_identically(self):
        explicit = Network(["a", "b"], channel=None)
        implicit = Network(["a", "b"])
        delivered = [n.round("t", [("a", "b", "x")], 7) for n in (explicit, implicit)]
        assert explicit.stats == implicit.stats
        assert delivered[0] == delivered[1] == {("a", "b"): "x"}

    def test_the_reference_party_is_the_channels(self):
        assert Network(["a", "b"], channel=RecordingChannel("b", ["a"])).reference_party == "b"

    def test_round_hands_the_channel_tag_and_payloads(self):
        channel = RecordingChannel("b", ["a"], frames={"a": ("open-share", "off-the-wire")})
        net = Network(["a", "b"], channel=channel)
        sends = [("a", "b", "local-copy"), ("b", "a", "mine")]
        assert net.round("open-share", sends, 24) == {
            ("a", "b"): "off-the-wire", ("b", "a"): "mine",
        }
        assert channel.calls == [("send", "a", "open-share", "mine"), ("receive", "a")]
        # Accounting is the same with and without a channel.
        assert _stats(net) == (2, 48, 1, 1)

    def test_frame_of_another_round_is_a_desynchronisation(self):
        channel = RecordingChannel("b", ["a"], frames={"a": ("beaver-open", None)})
        net = Network(["a", "b"], channel=channel)
        with pytest.raises(TransportError, match="protocol desynchronisation"):
            net.round("open-share", [("a", "b", None)], 8)


class TestHandBack:
    """``SecretSharingEngine.hand_back`` over a channel: the STP sends its
    payload, flags as packed bits, and a peer checks what it reads against
    the public layout."""

    LAYOUT = [(np.int64, 3), (bool, 10)]
    ORDER = np.array([2, 0, 1], dtype=np.int64)
    FLAGS = np.arange(10) % 3 == 0

    def engine(self, party, frames=None):
        channel = RecordingChannel(party, {"a", "b", "c"} - {party}, frames)
        network = Network(["a", "b", "c"], channel=channel)
        return SecretSharingEngine(["a", "b", "c"], seed=1, network=network, local_parties=[party])

    def test_the_stp_sends_its_payload_and_keeps_it(self):
        engine = self.engine("a")
        got = engine.hand_back("a", (self.ORDER, self.FLAGS), self.LAYOUT)
        assert got[0] is self.ORDER and got[1] is self.FLAGS
        sends = engine.network.channel.calls
        assert [(kind, peer, tag) for kind, peer, tag, _ in sends] == [
            ("send", "b", "hand-back"), ("send", "c", "hand-back"),
        ]
        order, packed = sends[0][3]
        assert order is self.ORDER and np.array_equal(packed, np.packbits(self.FLAGS))
        # 8 B per index, one bit per flag, to each of the two peers.
        assert engine.network.schedule == [("hand-back", 2, 2 * (24 + 2))]

    def test_a_peer_reads_the_payload_off_the_wire(self):
        frame = ("hand-back", (self.ORDER, np.packbits(self.FLAGS)))
        order, flags = self.engine("b", {"a": frame}).hand_back("a", None, self.LAYOUT)
        assert np.array_equal(order, self.ORDER) and np.array_equal(flags, self.FLAGS)

    @pytest.mark.parametrize("payload", [
        None,
        (ORDER,),
        (ORDER.astype(np.uint64), np.packbits(FLAGS)),
        (ORDER[:2], np.packbits(FLAGS)),
        (ORDER, FLAGS.astype(np.uint8)),
    ], ids=["none", "short", "dtype", "length", "unpacked"])
    def test_a_peer_refuses_a_payload_off_its_layout(self, payload):
        engine = self.engine("b", {"a": ("hand-back", payload)})
        with pytest.raises(TransportError, match="hand-back"):
            engine.hand_back("a", None, self.LAYOUT)

    def test_a_party_outside_the_mpc_hands_back_with_no_round(self):
        engine = self.engine("b")
        payload = (self.ORDER, self.FLAGS)
        assert engine.hand_back("stp.example", payload, self.LAYOUT) is payload
        assert engine.network.schedule == [] and engine.network.channel.calls == []


# -- executors over a minimal channel ---------------------------------------------------------


THREE = [PARTY_A, PARTY_B, "gamma.example"]


def _corpus(plan):
    """A two-party corpus plan, with a third compute party that holds no input."""
    ctx, inputs = build_query(generate_spec(SEED + plan))
    return ctx, inputs, cc.CompilationConfig(), THREE


def _judged(name):
    spec, inputs, config = WORKLOADS[name]()
    return spec.context, inputs, config, spec.parties


def _stp_outside_the_run():
    """Fig. 5a's hybrid join: its STP holds no input and gets no output, so
    no agent is its own, and every agent replays its key match."""
    pa, pb, pc = (cc.Party(name) for name in THREE)
    key = cc.Column("key", cc.INT, trust=[pa])
    with cc.QueryContext() as ctx:
        left = ctx.new_table("left", [key, cc.Column("value", cc.INT)], at=pb)
        right = ctx.new_table("right", [key, cc.Column("value", cc.INT)], at=pc)
        left.join(right, on="key").collect("out", to=[pb])
    schema = cc.Schema([cc.ColumnDef("key"), cc.ColumnDef("value")])
    inputs = {
        pb.name: {"left": cc.Table(schema, [np.arange(20), np.arange(20)])},
        pc.name: {"right": cc.Table(schema, [np.arange(10, 30), np.arange(20)])},
    }
    return ctx, inputs, cc.CompilationConfig(), [pb.name, pc.name]


def _aspirin_count():
    """Two hospitals' aspirin count: a public join, whose host's match every
    party can replay, because the public keys are opened to all."""
    health = HealthLNKWorkload(patient_overlap=0.1, seed=23)
    diagnoses, medications = health.aspirin_count_inputs(50)
    spec = aspirin_count_query(rows_per_relation=50)
    inputs = {
        party: {f"diagnoses_{i}": diagnoses[i], f"medications_{i}": medications[i]}
        for i, party in enumerate(spec.parties)
    }
    return spec.context, inputs, cc.CompilationConfig(), spec.parties


def _transfer():
    """c's relation collected by a and b: its columns cross twice."""
    parties = [cc.Party(name) for name in THREE]
    columns = [cc.Column("k", cc.INT), cc.Column("v", cc.FLOAT)]
    with cc.QueryContext() as ctx:
        cc.new_table("r", columns, at=parties[2]).collect("out", to=parties[:2])
    schema = cc.Schema([cc.ColumnDef("k"), cc.ColumnDef("v", cc.FLOAT)])
    table = cc.Table(schema, [np.arange(4), np.linspace(0, 1, 4)])
    return ctx, {THREE[2]: {"r": table}}, cc.CompilationConfig(), THREE


PLANS = {
    **{f"corpus-{plan}": (lambda plan=plan: _corpus(plan)) for plan in range(6)},
    **{name: (lambda name=name: _judged(name)) for name in WORKLOADS},
    "transfer": _transfer,
}


@pytest.mark.parametrize("plan", PLANS)
def test_executors_over_minimal_channels_match_the_in_process_run(plan):
    """Every relation crosses in a round: three executors joined by channels
    that carry nothing but round messages, and know nothing but their link
    keys, produce the in-process run's outputs, MPC profile and leakage,
    byte for byte."""
    ctx, inputs, config, parties = PLANS[plan]()
    compiled = cc.compile_query(ctx, config)
    reference = QueryRunner(parties, inputs, compiled.config, seed=5).run(compiled)
    outcomes = run_on_queue_channels(parties, inputs, compiled, seed=5)
    for party, outcome in outcomes.items():
        assert outcome.mpc_profile == reference.mpc_profile, party
        assert outcome.leakage.events == reference.leakage.events, party
    for collect in compiled.dag.outputs():
        name = collect.out_rel.name
        for party, outcome in outcomes.items():
            if party in collect.recipients:
                assert outcome.outputs[name] == reference.outputs[name], (party, name)
            else:
                assert name not in outcome.outputs, (party, name)


def test_only_the_stp_does_the_stp_work():
    """The keys of a hybrid operator reach the STP's executor only, so it
    alone runs the STP's cleartext join and sort: over queue channels, the
    banks charge the STP's engine nothing, the STP charges it what the
    in-process run charges, and the joint clock is the in-process run's."""
    ctx, inputs, config, parties = _judged("credit_hybrid")
    compiled = cc.compile_query(ctx, config)
    (stp,) = {node.stp for node in compiled.dag.topological() if hasattr(node, "stp")}
    runner = QueryRunner(parties, inputs, compiled.config, seed=5)
    reference = runner.run(compiled)
    executors = {}
    outcomes = run_on_queue_channels(parties, inputs, compiled, 5, executors)
    charged = runner.local_backends[stp].work
    assert charged.jobs > 0
    for party, executor in executors.items():
        engine = executor.local_backends.get(stp)
        work = CleartextWork() if engine is None else engine.work
        assert work == (charged if party == stp else CleartextWork()), party
    assert merge_payloads(compiled, parties, _payloads(outcomes)).simulated_seconds == (
        reference.simulated_seconds
    )


def _payloads(outcomes):
    """What each agent returns of its outcome to the coordinator, through the
    wire codec: no seconds, and its tally as flat arrays."""
    return {
        party: decode_payload(encode_payload({
            "outputs": outcome.outputs, "leakage": outcome.leakage,
            "tally": {engine: counts.ravel() for engine, counts in outcome.tally.items()},
            "mpc_profile": outcome.mpc_profile,
        }))
        for party, outcome in outcomes.items()
    }


MERGED_PLANS = {
    "credit_hybrid": lambda: _judged("credit_hybrid"),
    "aspirin_count": _aspirin_count,
    "stp_outside_the_run": _stp_outside_the_run,
}


@pytest.mark.parametrize("plan", MERGED_PLANS)
def test_the_merged_cost_is_the_in_process_cost(plan):
    """The coordinator prices one tally: each party's engine as its own
    agent counted it, the MPC and an STP outside the run as the lead
    counted them.  So the merged seconds are the in-process run's exactly —
    the work an agent does on a replica of a peer's engine (the aspirin
    count's public-join host) is that peer's agent's to report.  And the
    result keeps no view of an agent's frame, which would keep it alive."""
    ctx, inputs, config, parties = MERGED_PLANS[plan]()
    compiled = cc.compile_query(ctx, config)
    reference = QueryRunner(parties, inputs, seed=5).run(compiled)
    payloads = _payloads(run_on_queue_channels(parties, inputs, compiled, 5))
    merged = merge_payloads(compiled, parties, payloads)
    assert merged.simulated_seconds == reference.simulated_seconds
    assert merged.backend_seconds == reference.backend_seconds
    assert merged.tally.keys() == reference.tally.keys()
    for engine, counts in reference.tally.items():
        assert np.array_equal(merged.tally[engine], counts), engine
    def arrays(tally, outputs):
        return [*tally.values(), *(column for t in outputs.values() for column in t.columns())]

    decoded = [a for p in payloads.values() for a in arrays(p["tally"], p["outputs"])]
    kept = arrays(merged.tally, merged.outputs)
    assert not any(np.shares_memory(a, b) for a in kept for b in decoded)
