"""Cryptographic isolation tests for the per-party share slices.

The properties asserted here are what make the distributed runtime's
secret sharing *real* rather than replicated theatre:

* a :class:`SecretSharingEngine` holds only its local parties' additive
  share slices — no other party's share material, and no other party's cleartext
  input, exists in the process;
* openings (``open``, Beaver openings, env-opens) reconstruct from the
  share frames *delivered by the transport*: tampering with one share frame
  in transit changes (or fails) the opened result, proving the wire bytes
  are load-bearing;
* the lockstep sliced engines stay byte-identical to the all-local
  simulation engine;
* a socket endpoint writes all of a round's frames before it reads one, and
  refuses a frame that belongs to another pair or another round;
* a pickle frame is a :class:`WireError` on every kind of link — decoder,
  control, mesh and rejoin — and nothing it names ever runs;
* a mesh reader's death poisons even frames that were already
  demultiplexed — a consumer never reads stale data off a dead link;
* across the differential corpus, every agent process's isolation audit
  shows it held only its own share slices and cleartext inputs, and an
  output table exists only at the agents of its recipients.
"""

import os
import pickle
import queue
import socket
import threading
import time

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.mpc.network import Network
from repro.mpc.protocols import SharedTable, mpc_aggregate, mpc_filter
from repro.mpc.secretshare import AdditiveSharing, SecretSharingEngine
from repro.runtime.mesh import (
    KIND_MSG,
    MeshChannel,
    MeshTimeout,
    PeerMesh,
    _check_mesh_hello,
    accept_rejoin,
    bind_listener,
)
from repro.runtime.executor import PlanExecutor
from repro.runtime.transport import SocketTransport, TransportError
from repro.runtime.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    recv_frame,
    send_frame,
)

from test_differential import (
    NUM_PLANS,
    PARTY_A,
    PARTY_B,
    SEED,
    build_query,
    generate_spec,
    oracle,
)

PARTIES = [PARTY_A, PARTY_B]
PARTY_C = "gamma.example"
NONCE = "5" * 32


# -- in-process mesh pair for two sliced engines ------------------------------------------


class _PipeMesh:
    """Minimal MeshChannel stand-in: two queues, optional frame tampering."""

    def __init__(self, party, peer, inbox, outbox, tamper=None):
        self.party = party
        self.peers = {peer}
        self._inbox = inbox
        self._outbox = outbox
        self._tamper = tamper

    def send_message(self, peer, message):
        if self._tamper is not None:
            message = self._tamper(message)
        self._outbox.put(message)

    def receive_message(self, peer):
        return self._inbox.get(timeout=30)

    def close(self):
        pass


def sliced_engine_pair(seed=7, tamper_from_b=None):
    """Two engines (one slice each) joined by an in-process pipe."""
    a_to_b, b_to_a = queue.Queue(), queue.Queue()
    mesh_a = _PipeMesh(PARTY_A, PARTY_B, inbox=b_to_a, outbox=a_to_b)
    mesh_b = _PipeMesh(PARTY_B, PARTY_A, inbox=a_to_b, outbox=b_to_a, tamper=tamper_from_b)
    engines = []
    for party, mesh in ((PARTY_A, mesh_a), (PARTY_B, mesh_b)):
        network = Network(PARTIES, transport=SocketTransport(PARTIES, mesh))
        engines.append(
            SecretSharingEngine(PARTIES, seed=seed, network=network, local_parties=[party])
        )
    return engines


def run_lockstep(engines, fn):
    """Run ``fn(engine)`` concurrently on each engine (they block on each
    other's frames) and return the per-engine results; re-raises the first
    exception."""
    results = [None] * len(engines)
    errors = [None] * len(engines)

    def work(i, engine):
        try:
            results[i] = fn(engine)
        except BaseException as exc:  # noqa: BLE001 - reported to the test thread
            errors[i] = exc

    threads = [
        threading.Thread(target=work, args=(i, e), daemon=True)
        for i, e in enumerate(engines)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "lockstep protocol deadlocked"
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _demo_protocol(engine):
    """share -> add -> mul -> compare -> open, exercising every round kind."""
    if PARTY_A in engine.local_parties:
        x = engine.input_vector(np.array([3, -1, 7, 0]), contributor=PARTY_A)
    else:
        x = engine.input_vector(None, contributor=PARTY_A, num_rows=4)
    if PARTY_B in engine.local_parties:
        y = engine.input_vector(np.array([2, 5, -4, 9]), contributor=PARTY_B)
    else:
        y = engine.input_vector(None, contributor=PARTY_B, num_rows=4)
    z = engine.add(engine.mul(x, y), 10)
    flags = engine.less_than(x, y)
    z = engine.add(z, flags)
    return engine.open(z)


EXPECTED_DEMO = np.array([3 * 2 + 10, -5 + 10 + 1, -28 + 10, 0 + 10 + 1], dtype=np.int64)


class TestShareSlices:
    def test_sliced_engines_match_the_all_local_simulation(self):
        engines = sliced_engine_pair(seed=7)
        opened = run_lockstep(engines, _demo_protocol)
        simulated = _demo_protocol(SecretSharingEngine(PARTIES, seed=7))
        np.testing.assert_array_equal(simulated, EXPECTED_DEMO)
        for got in opened:
            np.testing.assert_array_equal(got, simulated)
        # Identical communication accounting on every engine.
        sim_engine = SecretSharingEngine(PARTIES, seed=7)
        _demo_protocol(sim_engine)
        for engine in engines:
            assert vars(engine.network.stats) == vars(sim_engine.network.stats)

    def test_each_engine_holds_only_its_own_slice(self):
        engines = sliced_engine_pair(seed=7)

        def protocol(engine):
            vec = _share_both(engine)
            return vec

        vecs = run_lockstep(engines, protocol)
        for engine, vec in zip(engines, vecs):
            assert engine.held_share_parties == (next(iter(engine.local_parties)),)
            assert engine.num_local_shares == 1
            assert len(vec.shares) == 1
        # One slice alone reveals nothing: it differs from the cleartext,
        # while both slices together reconstruct it.
        cleartext = np.array([3, -1, 7, 0], dtype=np.int64)
        both = [vecs[0].shares[0], vecs[1].shares[0]]
        np.testing.assert_array_equal(AdditiveSharing.reconstruct(both), cleartext)
        assert not np.array_equal(np.asarray(vecs[0].shares[0], dtype=np.int64), cleartext)

    def test_reveal_to_returns_values_only_at_the_target(self):
        engines = sliced_engine_pair(seed=11)

        def protocol(engine):
            vec = _share_both(engine)
            return engine.reveal_to_many([vec], PARTY_B)

        got_a, got_b = run_lockstep(engines, protocol)
        assert got_a is None
        np.testing.assert_array_equal(got_b, [np.array([3, -1, 7, 0])])

    def test_observer_engine_holds_nothing_and_refuses_primitives(self):
        engine = SecretSharingEngine(PARTIES, seed=3, local_parties=[])
        assert engine.held_share_parties == ()
        with pytest.raises(RuntimeError, match="holds no share slices"):
            engine.input_vector(np.array([1, 2]), contributor=PARTY_A)

    def test_tampered_share_frame_corrupts_or_fails_the_opening(self):
        """The acceptance property: flipping one share frame in transit must
        change (or fail) the opened result — the wire bytes are load-bearing."""

        def tamper(message):
            sender, receiver, payload, size = message
            tag, body = payload
            if tag == "open-share" and body[0].size:
                (vector,) = body
                vector = vector.copy()
                vector[0] += np.uint64(1)
                return (sender, receiver, (tag, (vector,)), size)
            return message

        engines = sliced_engine_pair(seed=7, tamper_from_b=tamper)
        try:
            opened = run_lockstep(engines, _demo_protocol)
        except (TransportError, RuntimeError):
            return  # failing loudly satisfies the property too
        got_a, got_b = opened
        # Party A reconstructed from B's tampered frame: off by exactly the
        # perturbation.  Party B used A's clean frame plus its own slice.
        assert got_a[0] == EXPECTED_DEMO[0] + 1
        np.testing.assert_array_equal(got_b, EXPECTED_DEMO)


class TestAggregateKeyOpening:
    """An aggregation opens its group-by key to the environment once, and
    everything it derives — sort order, equality flags, segment bounds —
    hangs on the bytes of that one frame."""

    TABLE = cc.Table(
        cc.Schema([cc.ColumnDef("k"), cc.ColumnDef("v")]),
        [np.array([1, 3, 2, 3, 1]), np.array([10, 20, 30, 40, 50])],
    )
    EXPECTED = [(1, 60), (2, 30), (3, 60)]

    def _aggregate(self, engine):
        if PARTY_A in engine.local_parties:
            shared = SharedTable.from_table(engine, self.TABLE, contributor=PARTY_A)
        else:
            shared = SharedTable.from_metadata(
                engine, self.TABLE.schema, self.TABLE.num_rows, contributor=PARTY_A
            )
        return sorted(mpc_aggregate(shared, "k", "v", "sum", "total").reveal().rows())

    def test_untampered_aggregate_matches_the_oracle_with_one_key_opening(self):
        engines = sliced_engine_pair(seed=7)
        for rows in run_lockstep(engines, self._aggregate):
            assert rows == self.EXPECTED
        simulated = SecretSharingEngine(PARTIES, seed=7)
        assert self._aggregate(simulated) == self.EXPECTED
        for engine in engines:
            assert vars(engine.network.stats) == vars(simulated.network.stats)

    def test_a_bit_flipped_in_the_key_opening_corrupts_the_aggregate(self):
        seen = []

        def tamper(message):
            sender, receiver, (tag, body), size = message
            if tag != "env-open":
                return message
            seen.append(len(body[0]))
            (keys,) = body
            keys = keys.copy()
            keys[0] ^= np.uint64(1 << 40)
            return (sender, receiver, (tag, (keys,)), size)

        engines = sliced_engine_pair(seed=7, tamper_from_b=tamper)
        try:
            got_a, _got_b = run_lockstep(engines, self._aggregate)
        except (TransportError, RuntimeError, ValueError, IndexError):
            assert seen == [self.TABLE.num_rows]
            return  # failing loudly satisfies the property too
        # The only env-open of the whole aggregation was the key column.
        assert seen == [self.TABLE.num_rows]
        assert got_a != self.EXPECTED


class TestFlagOpeningIsLoadBearing:
    """``compact`` keeps the rows whose flag *bit* opens to one, and that bit
    is the XOR of the packed slices as delivered: a peer's frame decides
    which rows survive."""

    TABLE = cc.Table(
        cc.Schema([cc.ColumnDef("k"), cc.ColumnDef("v")]),
        [np.arange(9), np.array([5, 50, 7, 70, 9, 90, 1, 10, 60])],
    )
    EXPECTED = [(1, 50), (3, 70), (5, 90), (8, 60)]

    def _filter(self, engine):
        if PARTY_A in engine.local_parties:
            shared = SharedTable.from_table(engine, self.TABLE, contributor=PARTY_A)
        else:
            shared = SharedTable.from_metadata(
                engine, self.TABLE.schema, self.TABLE.num_rows, contributor=PARTY_A
            )
        return mpc_filter(shared, "v", ">", 20)

    def _rows(self, engine):
        return sorted(self._filter(engine).reveal().rows())

    def _run(self, corrupt, protocol=None):
        seen = []

        def tamper(message):
            sender, receiver, (tag, body), size = message
            if tag != "open-flags":
                return message
            seen.append((body.dtype, body.shape, size))
            return (sender, receiver, (tag, corrupt(body)), size)

        engines = sliced_engine_pair(seed=7, tamper_from_b=tamper)
        return seen, lambda: run_lockstep(engines, protocol or self._rows)

    def test_sliced_filter_matches_the_simulation_with_two_byte_flag_frames(self):
        seen, run = self._run(lambda body: body)
        assert run() == [self.EXPECTED, self.EXPECTED]
        assert self._rows(SecretSharingEngine(PARTIES, seed=7)) == self.EXPECTED
        assert seen == [(np.uint8, (2,), 2)]  # nine flags: two bytes, not 72

    @pytest.mark.parametrize("bit", [0x80, 0x01])
    def test_one_flipped_bit_changes_the_kept_rows(self, bit):
        def flip(body):
            body = body.copy()
            body[0] ^= bit
            return body

        _seen, run = self._run(flip, lambda engine: self._filter(engine).num_rows)
        kept_a, kept_b = run()
        # A keeps or drops one row more than B, which opened A's clean frame;
        # the parties' next opening would no longer line up.
        assert kept_b == len(self.EXPECTED)
        assert abs(kept_a - kept_b) == 1
        _seen, run = self._run(flip)
        with pytest.raises((TransportError, RuntimeError, ValueError)):
            run()

    @pytest.mark.parametrize(
        "corrupt",
        [lambda body: body[:1], lambda body: np.r_[body, body], lambda body: body.astype(np.uint64)],
        ids=["short", "long", "wide"],
    )
    def test_a_frame_of_the_wrong_size_is_a_typed_error(self, corrupt):
        # The protocol ends with the filter: B, whose inbound frames are
        # clean, finishes it and has no later round to wait for A in.
        _seen, run = self._run(corrupt, self._filter)
        with pytest.raises(TransportError, match="open-flags.*9 flag bits"):
            run()


class TestRelationWideRoundsOnSlices:
    """One round per relation, whichever slices an engine holds: a sliced
    pair sharing and revealing three columns at once ends up with exactly
    the slices, values and traffic totals of the all-local engine doing it
    one column per round."""

    COLUMNS = [np.array([3, -1, 7, 0]), np.array([1, 0, 0, 1]), np.array([2**61, -(2**61), 5, 6])]

    def _many(self, engine):
        mine = PARTY_A in engine.local_parties
        vectors = engine.input_vectors(
            self.COLUMNS if mine else None, PARTY_A, None if mine else [4, 4, 4]
        )
        return [v.shares[0] for v in vectors], engine.reveal_to_many(vectors, PARTY_B)

    def test_byte_identical_to_the_per_column_rounds(self):
        everyone = SecretSharingEngine(PARTIES, seed=11)
        per_column = [everyone.input_vector(c, contributor=PARTY_A) for c in self.COLUMNS]
        opened = [everyone.reveal_to_many([v], PARTY_B)[0] for v in per_column]

        engines = sliced_engine_pair(seed=11)
        (slices_a, got_a), (slices_b, got_b) = run_lockstep(engines, self._many)
        assert got_a is None
        for k, column in enumerate(self.COLUMNS):
            np.testing.assert_array_equal(slices_a[k], per_column[k].shares[0])
            np.testing.assert_array_equal(slices_b[k], per_column[k].shares[1])
            np.testing.assert_array_equal(got_b[k], opened[k])
            np.testing.assert_array_equal(got_b[k], column)
        for engine in engines:
            stats = engine.network.stats
            assert (stats.wire_rounds, everyone.network.stats.wire_rounds) == (2, 6)
            assert stats.bytes_sent == everyone.network.stats.bytes_sent
            assert engine.meter.input_records == everyone.meter.input_records == 12
            assert engine.meter.output_records == everyone.meter.output_records == 12


def _share_both(engine):
    if PARTY_A in engine.local_parties:
        return engine.input_vector(np.array([3, -1, 7, 0]), contributor=PARTY_A)
    return engine.input_vector(None, contributor=PARTY_A, num_rows=4)


# -- the socket endpoint's round schedule and frame checks --------------------------------


class _ScriptedMesh:
    """MeshChannel stand-in that records the call order and serves scripted
    frames: ``frames[peer]`` is what ``receive_message(peer)`` returns."""

    def __init__(self, party, peers, frames):
        self.party = party
        self.peers = set(peers)
        self.frames = frames
        self.log = []

    def send_message(self, peer, message):
        self.log.append(("send", peer, message))

    def receive_message(self, peer):
        self.log.append(("receive", peer))
        return self.frames[peer]

    def close(self):
        pass


THREE = [PARTY_A, PARTY_B, PARTY_C]
ALL_TO_ALL = [(s, r, f"{s}->{r}") for s in THREE for r in THREE if s != r]


class TestSocketTransportRound:
    @pytest.mark.parametrize("me", THREE)
    def test_every_frame_is_written_before_the_first_read(self, me):
        """The lockstep-schedule invariant: in a 3-party all-to-all round no
        party's write waits on another party's frame."""
        others = [p for p in THREE if p != me]
        frames = {p: (p, me, ("open-share", f"wire:{p}"), 8) for p in others}
        mesh = _ScriptedMesh(me, others, frames)
        delivered = SocketTransport(THREE, mesh).exchange("open-share", ALL_TO_ALL, 8)

        kinds = [entry[0] for entry in mesh.log]
        assert kinds == ["send", "send", "receive", "receive"]
        # Frames and per-link order are the engine's: one frame per peer, in
        # the order the round lists them.
        assert [(peer, message) for _kind, peer, message in mesh.log[:2]] == [
            (p, (me, p, ("open-share", f"{me}->{p}"), 8)) for p in others
        ]
        assert [entry[1] for entry in mesh.log[2:]] == others
        # Inbound payloads come off the wire; everything else is the replica.
        assert set(delivered) == {(s, r) for s, r, _ in ALL_TO_ALL}
        for sender, receiver, replica in ALL_TO_ALL:
            expected = f"wire:{sender}" if receiver == me else replica
            assert delivered[(sender, receiver)] == expected

    @pytest.mark.parametrize(
        "wire_pair", [(PARTY_C, PARTY_A), (PARTY_B, PARTY_C)],
        ids=["wrong-sender", "wrong-receiver"],
    )
    def test_frame_for_another_pair_is_a_divergence(self, wire_pair):
        frames = {PARTY_B: (*wire_pair, ("open-share", "x"), 8)}
        transport = SocketTransport(PARTIES, _ScriptedMesh(PARTY_A, [PARTY_B], frames))
        with pytest.raises(TransportError, match="diverged"):
            transport.exchange("open-share", [(PARTY_B, PARTY_A, None)], 8)

    def test_frame_of_another_round_is_a_desynchronisation(self):
        frames = {PARTY_B: (PARTY_B, PARTY_A, ("beaver-open", "x"), 8)}
        transport = SocketTransport(PARTIES, _ScriptedMesh(PARTY_A, [PARTY_B], frames))
        with pytest.raises(TransportError, match="protocol desynchronisation"):
            transport.exchange("open-share", [(PARTY_B, PARTY_A, None)], 8)


# -- pickle frames are refused ---------------------------------------------------------------


class _Evil:
    """Pickles to a call that creates ``path`` — if anything ever unpickles it."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _pickle_frame(obj) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


class TestPickleFramesAreRefused:
    def _refused(self, stream: bytes, before: list):
        """``stream`` fails both decoders at its first pickle frame, after
        yielding exactly the codec frames ``before`` it."""
        with pytest.raises(WireError, match="not a codec frame"):
            FrameDecoder().feed(stream)
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(stream)
            ours.settimeout(5.0)
            assert [recv_frame(ours) for _ in before] == before
            with pytest.raises(WireError, match="not a codec frame"):
                recv_frame(ours)
        finally:
            ours.close()
            theirs.close()

    def test_reduce_payload_is_refused_and_never_runs(self, tmp_path):
        marker = tmp_path / "pwned"
        self._refused(_pickle_frame(_Evil(marker)), before=[])
        assert not marker.exists(), "a pickle frame was executed"

    def test_legacy_pickle_dict_is_refused(self):
        self._refused(_pickle_frame({"k": [1, 2], "arr": "legacy"}), before=[])

    def test_pickle_frame_interleaved_with_codec_frames_is_refused(self, tmp_path):
        marker = tmp_path / "pwned"
        stream = encode_frame(1) + _pickle_frame(_Evil(marker)) + encode_frame("after")
        self._refused(stream, before=[1])
        assert not marker.exists(), "a pickle frame was executed"

    def test_objects_outside_the_type_set_cannot_be_sent(self, tmp_path):
        for payload in (_Evil(tmp_path / "pwned"), threading.Thread, eval):
            with pytest.raises(WireError, match="not expressible"):
                encode_frame(payload)

    def test_mesh_link_dies_on_a_pickle_frame(self, tmp_path):
        marker = tmp_path / "pwned"
        ours, theirs = socket.socketpair()
        mesh = PeerMesh(PARTY_A, {PARTY_B: ours}, timeout=2.0)
        try:
            theirs.sendall(_pickle_frame(_Evil(marker)))
            started = time.monotonic()
            with pytest.raises(TransportError):
                mesh.channel(0).receive_message(PARTY_B)
            assert time.monotonic() - started < 5.0
        finally:
            theirs.close()
            mesh.close()
        assert not marker.exists(), "a pickle frame was executed"

    def test_rejoin_accept_drops_a_pickle_hello(self, tmp_path):
        marker = tmp_path / "pwned"
        listener = bind_listener(timeout=5.0)
        dialler = socket.create_connection(listener.getsockname(), timeout=5.0)
        try:
            dialler.sendall(_pickle_frame(_Evil(marker)))
            with pytest.raises(MeshTimeout):
                accept_rejoin(listener, PARTY_A, PARTY_B, epoch=1, timeout=1.0, nonce=NONCE)
        finally:
            dialler.close()
            listener.close()
        assert not marker.exists(), "a pickle frame was executed"

    def test_control_link_dies_on_a_pickle_frame(self, tmp_path):
        """A pickle frame on a live control link is that agent's death, not
        an object: the session fails the query within its bound."""
        from repro.runtime.service import AgentFailure

        marker = tmp_path / "pwned"
        ctx, inputs = build_query(generate_spec(SEED))
        with cc.open_session(inputs, seed=1, timeout=10.0) as session:
            session._pool._connections[PARTY_A].sendall(_pickle_frame(_Evil(marker)))
            with pytest.raises((AgentFailure, cc.SessionClosed)):
                session.submit(ctx, timeout=20.0)
        assert not marker.exists(), "a pickle frame was executed"

    def test_legitimate_frames_round_trip(self):
        from repro.data.schema import ColumnDef, Schema
        from repro.data.table import Table

        table = Table(Schema([ColumnDef("k"), ColumnDef("v")]),
                      [np.arange(4), np.arange(4) * 2])
        payloads = [
            (3, KIND_MSG, 0, (PARTY_A, PARTY_B, ("open-share", np.arange(5, dtype=np.uint64)), 40)),
            ("result", {"outputs": {"out": table}, "durations": {1: 0.5}}),
            ("error", ValueError("boom")),
            np.datetime64("2026-08-08"),
        ]
        decoder = FrameDecoder()
        for payload in payloads:
            (got,) = decoder.feed(encode_frame(payload))
            if isinstance(payload, tuple) and payload[0] == "error":
                assert isinstance(got[1], ValueError) and got[1].args == ("boom",)


# -- one hello shape ------------------------------------------------------------------------


class TestHellosCarryTheSessionNonce:
    def test_hellos_without_the_session_nonce_are_malformed(self):
        """One hello shape: the nonce is part of it, not an extra."""
        assert _check_mesh_hello(("hello", PARTY_B, NONCE), PARTY_A, PARTIES, NONCE) == PARTY_B
        for frame in (("hello", PARTY_B), ("hello", PARTY_B, NONCE, "extra")):
            with pytest.raises(TransportError, match="malformed mesh hello"):
                _check_mesh_hello(frame, PARTY_A, PARTIES, NONCE)
        with pytest.raises(TransportError, match="wrong session nonce"):
            _check_mesh_hello(("hello", PARTY_B, "0" * 32), PARTY_A, PARTIES, NONCE)

    def test_rejoin_accept_drops_a_hello_without_the_nonce(self):
        listener = bind_listener(timeout=5.0)
        dialler = socket.create_connection(listener.getsockname(), timeout=5.0)
        try:
            send_frame(dialler, ("rejoin-hello", PARTY_B, 1))
            with pytest.raises(MeshTimeout):
                accept_rejoin(listener, PARTY_A, PARTY_B, epoch=1, timeout=1.0, nonce=NONCE)
        finally:
            dialler.close()
            listener.close()


# -- mesh poisoning of already-demultiplexed frames ----------------------------------------


class TestMeshPoisonCoversBufferedFrames:
    def test_buffered_frames_do_not_outlive_reader_death(self):
        """Frames demultiplexed *before* the link died must not be served to
        a consumer afterwards: the first receive reports the dead link."""
        ours, theirs = socket.socketpair()
        mesh = PeerMesh(PARTY_A, {PARTY_B: ours}, timeout=2.0)
        try:
            send_frame(theirs, (1, KIND_MSG, 0, "stale-frame-1"))
            send_frame(theirs, (2, KIND_MSG, 0, "stale-frame-2"))
            deadline = time.monotonic() + 5
            key = (KIND_MSG, 0, PARTY_B)
            while time.monotonic() < deadline:
                q = mesh._queues.get(key)
                if q is not None and q.qsize() >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("frames were never demultiplexed")
            theirs.close()  # reader dies with a WireError
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and PARTY_B not in mesh._peer_errors:
                time.sleep(0.01)
            assert PARTY_B in mesh._peer_errors, "reader death was never detected"
            with pytest.raises(TransportError, match="closed"):
                mesh.channel(0).receive_message(PARTY_B)
            # ...and stays poisoned for later receives too.
            with pytest.raises(TransportError, match="closed"):
                mesh.channel(0).receive_message(PARTY_B)
        finally:
            theirs.close()
            mesh.close()


# -- MPC ingest ships metadata only -------------------------------------------------------


def corpus_over_a_socket_mesh():
    """Run the 50-plan corpus with one executor per party joined by a real
    socket mesh; yields ``(spec, compiled, {party: ExecutionOutcome})``."""
    sock_a, sock_b = socket.socketpair()
    meshes = {
        PARTY_A: PeerMesh(PARTY_A, {PARTY_B: sock_a}, timeout=30.0),
        PARTY_B: PeerMesh(PARTY_B, {PARTY_A: sock_b}, timeout=30.0),
    }
    try:
        for plan in range(NUM_PLANS):
            spec = generate_spec(SEED + plan)
            ctx, inputs = build_query(spec)
            compiled = cc.compile_query(ctx)
            executors = [
                PlanExecutor(
                    PARTIES, {party: inputs[party]}, seed=3,
                    local_parties={party}, mesh=meshes[party].channel(plan + 1),
                )
                for party in PARTIES
            ]
            outcomes = run_lockstep(executors, lambda ex: ex.execute(compiled))
            yield spec, compiled, dict(zip(PARTIES, outcomes))
    finally:
        for mesh in meshes.values():
            mesh.close()


def test_corpus_mpc_ingest_broadcasts_only_schema_and_row_count(monkeypatch):
    """Cleartext never leaves its owner through MPC ingest: across the
    50-plan corpus, with one executor per party joined by a real socket
    mesh, every table frame an agent broadcasts is exactly ``{"schema",
    "num_rows"}`` — the relation itself travels as share slices only."""
    broadcast = []
    send = MeshChannel.broadcast_table

    def recording_broadcast(channel, relation, payload):
        broadcast.append(payload)
        send(channel, relation, payload)

    monkeypatch.setattr(MeshChannel, "broadcast_table", recording_broadcast)
    for spec, _compiled, outcomes in corpus_over_a_socket_mesh():
        assert sorted(outcomes[PARTY_A].outputs["out"].rows()) == oracle(spec)
    assert broadcast, "the corpus never crossed into MPC"
    for payload in broadcast:
        assert isinstance(payload, dict) and set(payload) == {"schema", "num_rows"}
        assert isinstance(payload["num_rows"], int)


def test_corpus_outputs_reach_their_recipients_only():
    """An MPC output is revealed to its recipients, not opened to every
    agent: across the corpus, over a real socket mesh, an agent that is not
    in ``recipients`` returns no output table — while every agent, recipient
    or not, writes the identical leakage report."""
    for spec, compiled, outcomes in corpus_over_a_socket_mesh():
        (collect,) = compiled.dag.outputs()
        assert collect.recipients == [PARTY_A]
        assert sorted(outcomes[PARTY_A].outputs["out"].rows()) == oracle(spec)
        assert outcomes[PARTY_B].outputs == {}, f"seed {spec['seed']}: output at a non-recipient"
        assert outcomes[PARTY_B].leakage.events == outcomes[PARTY_A].leakage.events


# -- corpus-wide isolation audit -----------------------------------------------------------


def test_corpus_agents_never_hold_foreign_secrets():
    """Across the 50-plan differential corpus, every agent process's
    isolation audit must show it materialised only its own party's share
    slices and only its own cleartext inputs."""
    config = CompilationConfig(cleartext_backend="python", mpc_backend="sharemind")
    with cc.QuerySession(PARTIES, config=config, seed=3) as session:
        for plan in range(NUM_PLANS):
            spec = generate_spec(SEED + plan)
            ctx, inputs = build_query(spec)
            compiled = cc.compile_query(ctx, config)
            result = session.submit(compiled, inputs=inputs)
            assert sorted(result.outputs["out"].rows()) == oracle(spec)
            assert set(result.isolation) == set(PARTIES), (
                f"plan {plan}: expected an isolation audit from every agent"
            )
            for party, audit in result.isolation.items():
                assert audit["local_parties"] == [party], (
                    f"plan {plan}: agent {party} executed for {audit['local_parties']}"
                )
                assert set(audit["share_parties"]) <= {party}, (
                    f"plan {plan}: agent {party} materialised share slices of "
                    f"{audit['share_parties']}"
                )
                assert set(audit["cleartext_input_parties"]) <= {party}, (
                    f"plan {plan}: agent {party} held cleartext inputs of "
                    f"{audit['cleartext_input_parties']}"
                )
