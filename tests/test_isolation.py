"""Cryptographic isolation tests for the per-party share slices.

The properties asserted here are what make the distributed runtime's
secret sharing *real* rather than replicated theatre:

* a :class:`SecretSharingEngine` holds only its local parties' additive
  share slices — no other party's share material, and no other party's cleartext
  input, exists in the process;
* a private input's slices expand from the pairwise keys of the mesh links,
  which fresh secrets in the join hellos fix: no function of the query
  seed, and no other link's key, rebuilds the input; the keys differ per
  link and change when a restart brings the mesh up again;
* openings (``open``, Beaver openings, env-opens) reconstruct from the
  share frames *delivered by the network round*: tampering with one share frame
  in transit changes (or fails) the opened result, proving the wire bytes
  are load-bearing;
* the lockstep sliced engines stay byte-identical to the all-local
  simulation engine;
* a round over a mesh channel writes all of its frames before it reads
  one, and refuses a frame that belongs to another round;
* a pickle frame is a :class:`WireError` on every kind of link — decoder,
  control, mesh and mesh join — and nothing it names ever runs;
* a mesh reader's death poisons even frames that were already
  demultiplexed — a consumer never reads stale data off a dead link;
* across the differential corpus, every agent process's isolation audit
  shows it held only its own share slices and cleartext inputs, and an
  output table exists only at the agents of its recipients; across its
  hybrid plans, an agent received exactly the column reveals the leakage
  report makes to its party — a reveal to the STP reaches the STP only;
* a forked agent maps every page of its own party's input buffers, which
  it computes on in place, and no page of another party's; it reads zeros
  (or nothing) at every other party's input bytes, those on partial pages
  included, at session start and after a restart; the session frame
  carries no relation; and a fork from another thread while a session
  opens keeps every page.
"""

import errno
import mmap
import multiprocessing
import os
import pickle
import queue
import secrets
import socket
import threading
import time

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig, RestartPolicy, TransportSecurity
from repro.mpc.network import Network
from repro.mpc.protocols import SharedTable, mpc_aggregate, mpc_filter
from repro.mpc.secretshare import AdditiveSharing, SecretSharingEngine
from repro.queries import market_concentration_query
from repro.runtime.faults import FaultPlan, KillFault
from repro.runtime.mesh import (
    KIND_MSG,
    MeshTimeout,
    PeerMesh,
    bind_listener,
    join_mesh,
    link_key,
)
from repro.runtime import TransportError
from repro.runtime.executor import PlanExecutor
from repro.runtime.pool import active_agent_processes
from repro.runtime.wire import (
    WireError,
    decode_mesh_payload,
    encode_frame,
    encode_mesh_frame,
    recv_frame,
    send_frame,
    send_mesh_frame,
)
from repro.workloads import TaxiWorkload
from repro.workloads.generators import split_across_parties

from test_differential import (
    NUM_PLANS,
    assert_byte_identical,
    PARTY_A,
    PARTY_B,
    SEED,
    build_query,
    generate_spec,
    oracle,
)
from test_round_budget import WORKLOADS

PARTIES = [PARTY_A, PARTY_B]
PARTY_C = "gamma.example"
NONCE = "5" * 32
#: A dialler's link secret in a hello (64 hex digits).
SECRET = "a7" * 32


def joined_keys(parties, epoch=0):
    """``{(party, peer): key}`` of every link of a mesh of ``parties``, each
    derived as :func:`~repro.runtime.mesh.join_mesh` derives it: from a
    fresh secret of the dialler (the higher rank)."""
    keys = {}
    for rank, acceptor in enumerate(parties):
        for dialler in parties[rank + 1:]:
            key = link_key(NONCE, epoch, dialler, acceptor, secrets.token_hex(32))
            keys[dialler, acceptor] = keys[acceptor, dialler] = key
    return keys


def keys_of(party, keys):
    """``party``'s end of the links of ``keys``: ``{peer: key}``."""
    return {peer: key for (holder, peer), key in keys.items() if holder == party}


# -- in-process mesh pair for two sliced engines ------------------------------------------


class _PipeMesh:
    """Minimal MeshChannel stand-in: two queues of mesh-layout frames, the
    party's link keys (``{peer: key}``), optional tampering with a message
    ``(tag, payload)`` before it is encoded."""

    query_id = 1

    def __init__(self, party, keys, inbox=None, outbox=None, tamper=None):
        self.party = party
        self.peers = set(keys)
        self._keys = keys
        self._inbox = inbox
        self._outbox = outbox
        self._tamper = tamper

    def link_key(self, peer):
        return self._keys[peer]

    def send_message(self, peer, tag, payload):
        message = (tag, payload)
        if self._tamper is not None:
            message = self._tamper(message)
        self._outbox.put(encode_mesh_frame(1, KIND_MSG, 0, message))

    def receive_message(self, peer):
        _seq, _kind, _query_id, message = decode_mesh_payload(self._inbox.get(timeout=30)[4:])
        return message

    def close(self):
        pass


def sliced_engine_pair(seed=7, tamper_from_b=None, tamper_from_a=None):
    """Two engines (one slice each) joined by an in-process pipe."""
    a_to_b, b_to_a = queue.Queue(), queue.Queue()
    keys = joined_keys(PARTIES)
    mesh_a = _PipeMesh(
        PARTY_A, keys_of(PARTY_A, keys), inbox=b_to_a, outbox=a_to_b, tamper=tamper_from_a
    )
    mesh_b = _PipeMesh(
        PARTY_B, keys_of(PARTY_B, keys), inbox=a_to_b, outbox=b_to_a, tamper=tamper_from_b
    )
    engines = []
    for party, mesh in ((PARTY_A, mesh_a), (PARTY_B, mesh_b)):
        network = Network(PARTIES, channel=mesh)
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
            tag, body = message
            if tag == "open-share" and body[0].size:
                (vector,) = body
                vector = vector.copy()
                vector[0] += np.uint64(1)
                return (tag, (vector,))
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
    """An aggregation sends its group-by key to the last compute party once,
    and everything it derives — sort order, equality flags, segment bounds —
    hangs on the bytes of the slices that party was delivered."""

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
        return sorted(mpc_aggregate(shared, "k", [("sum", "v", "total")]).reveal().rows())

    def test_untampered_aggregate_matches_the_oracle_with_one_key_opening(self):
        engines = sliced_engine_pair(seed=7)
        for rows in run_lockstep(engines, self._aggregate):
            assert rows == self.EXPECTED
        simulated = SecretSharingEngine(PARTIES, seed=7)
        assert self._aggregate(simulated) == self.EXPECTED
        for engine in engines:
            assert vars(engine.network.stats) == vars(simulated.network.stats)

    def test_a_bit_flipped_in_the_hosts_key_slice_corrupts_the_aggregate(self):
        """The last party (``PARTY_B``) sorts the key reconstructed from the
        slice ``PARTY_A`` delivered: a flipped bit there moves a key of 1 past
        every other, so its row leaves its group."""
        seen = []

        def tamper(message):
            tag, body = message
            if tag != "env-apply":
                return message
            seen.append(len(body[0]))
            (keys,) = body
            keys = keys.copy()
            keys[0] ^= np.uint64(1 << 40)
            return (tag, (keys,))

        engines = sliced_engine_pair(seed=7, tamper_from_a=tamper)
        try:
            got_a, _got_b = run_lockstep(engines, self._aggregate)
        except (TransportError, RuntimeError, ValueError, IndexError):
            assert seen == [self.TABLE.num_rows]
            return  # failing loudly satisfies the property too
        # The only env-apply of the whole aggregation was the key column.
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
            tag, body = message
            if tag != "open-flags":
                return message
            seen.append((body.dtype, body.shape))
            return (tag, corrupt(body))

        engines = sliced_engine_pair(seed=7, tamper_from_b=tamper)
        return seen, lambda: run_lockstep(engines, protocol or self._rows)

    def test_sliced_filter_matches_the_simulation_with_two_byte_flag_frames(self):
        seen, run = self._run(lambda body: body)
        assert run() == [self.EXPECTED, self.EXPECTED]
        assert self._rows(SecretSharingEngine(PARTIES, seed=7)) == self.EXPECTED
        assert seen == [(np.uint8, (2,))]  # nine flags: two bytes, not 72

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
    pair sharing and revealing three columns at once ends up with slices
    that reconstruct the columns, and the values and traffic totals of the
    all-local engine doing it one column per round."""

    COLUMNS = [np.array([3, -1, 7, 0]), np.array([1, 0, 0, 1]), np.array([2**61, -(2**61), 5, 6])]

    def _many(self, engine):
        mine = PARTY_A in engine.local_parties
        vectors = engine.input_vectors(
            self.COLUMNS if mine else None, PARTY_A, None if mine else [4, 4, 4]
        )
        return [v.shares[0] for v in vectors], engine.reveal_to_many(vectors, PARTY_B)

    def test_same_values_and_traffic_as_the_per_column_rounds(self):
        everyone = SecretSharingEngine(PARTIES, seed=11)
        per_column = [everyone.input_vector(c, contributor=PARTY_A) for c in self.COLUMNS]
        opened = [everyone.reveal_to_many([v], PARTY_B)[0] for v in per_column]

        engines = sliced_engine_pair(seed=11)
        (slices_a, got_a), (slices_b, got_b) = run_lockstep(engines, self._many)
        assert got_a is None
        for k, column in enumerate(self.COLUMNS):
            np.testing.assert_array_equal(
                AdditiveSharing.reconstruct([slices_a[k], slices_b[k]]), column
            )
            np.testing.assert_array_equal(got_b[k], opened[k])
            np.testing.assert_array_equal(got_b[k], column)
        for engine in engines:
            stats = engine.network.stats
            # Sharing is priced as a round but carries none: the reveals do.
            assert (stats.rounds, everyone.network.stats.rounds) == (2, 6)
            assert (stats.wire_rounds, everyone.network.stats.wire_rounds) == (1, 3)
            assert stats.bytes_sent == everyone.network.stats.bytes_sent
            assert engine.meter.input_records == everyone.meter.input_records == 12
            assert engine.meter.output_records == everyone.meter.output_records == 12


def _expansion(key, n, vector=0):
    """``n`` slice elements expanded from ``key`` (bytes, or the engine's
    integer form) as an agent expands its slice of the ``vector``-th private
    input vector of ``n`` elements on a link in query
    :attr:`_PipeMesh.query_id`: the link's one generator of the query, past
    the vectors before it."""
    if isinstance(key, bytes):
        key = int.from_bytes(key, "little")
    seq = np.random.SeedSequence(key, spawn_key=(_PipeMesh.query_id,))
    return np.random.PCG64(seq).random_raw(n * (vector + 1))[-n:]


class TestPrivateInputsArePrivate:
    """A party agent's private input enters the MPC as slices that no peer
    can expand alone: party j's slice of A's input expands from the key of
    their link, which the dialler's fresh secret fixes — not the query seed
    every agent knows, nor the key of another link.  Each probe is granted
    A's own slice too, which never leaves A: what stands between it and the
    input is the one slice it cannot expand."""

    THREE = [PARTY_A, PARTY_B, PARTY_C]
    VALUES = np.array([17, -4, 2**40, 0, 99], dtype=np.int64)

    def _contribute(self, seed):
        """Party A's agent shares ``VALUES``; returns every agent's slice,
        ``{party: slice}``, and the link keys."""
        keys = joined_keys(self.THREE)
        engines = {
            party: SecretSharingEngine(
                self.THREE, seed=seed, local_parties={party},
                network=Network(self.THREE, channel=_PipeMesh(party, keys_of(party, keys))),
            )
            for party in self.THREE
        }
        slices = {PARTY_A: engines[PARTY_A].input_vector(self.VALUES, contributor=PARTY_A)}
        for party in (PARTY_B, PARTY_C):
            slices[party] = engines[party].input_vector(
                contributor=PARTY_A, num_rows=len(self.VALUES)
            )
        for engine in engines.values():
            assert engine.network.stats.wire_rounds == 0  # nothing crossed
        slices = {party: vec.shares[0] for party, vec in slices.items()}
        assert np.array_equal(AdditiveSharing.reconstruct(list(slices.values())), self.VALUES)
        return slices, keys

    def _rebuilt(self, slices, b_slice):
        return AdditiveSharing.reconstruct([slices[PARTY_A], b_slice, slices[PARTY_C]])

    def test_the_query_seed_does_not_recover_a_contributors_input(self):
        slices, keys = self._contribute(seed=7)
        n = len(self.VALUES)
        # The probe expands as B's agent does: with B's key, it is B's slice.
        assert np.array_equal(_expansion(keys[PARTY_A, PARTY_B], n), slices[PARTY_B])
        # C keys B's stream as the all-local simulation keys it, from the seed.
        seeded = SecretSharingEngine(self.THREE, seed=7)._pair_key(0, 1)
        assert not np.array_equal(self._rebuilt(slices, _expansion(seeded, n)), self.VALUES)

    def test_no_function_of_the_seed_fixes_the_sharing(self):
        first, _ = self._contribute(seed=7)
        second, _ = self._contribute(seed=7)
        for party in self.THREE:
            assert not np.array_equal(first[party], second[party])

    def test_a_third_party_cannot_expand_another_links_slice(self):
        """C holds the seed, the key of its own link to A and its own slice:
        expanding B's slice from any of its keys rebuilds nothing."""
        slices, keys = self._contribute(seed=7)
        n = len(self.VALUES)
        seeded = SecretSharingEngine(self.THREE, seed=7)
        for key in (keys[PARTY_A, PARTY_C], seeded._pair_key(0, 2), seeded._pair_key(0, 1)):
            for vector in range(2):
                guess = _expansion(key, n, vector)
                assert not np.array_equal(self._rebuilt(slices, guess), self.VALUES)
        assert np.array_equal(self._rebuilt(slices, _expansion(keys[PARTY_A, PARTY_B], n)), self.VALUES)


def _share_both(engine):
    if PARTY_A in engine.local_parties:
        return engine.input_vector(np.array([3, -1, 7, 0]), contributor=PARTY_A)
    return engine.input_vector(None, contributor=PARTY_A, num_rows=4)


# -- the socket endpoint's round schedule and frame checks --------------------------------


class _ScriptedMesh:
    """MeshChannel stand-in that records the call order and serves scripted
    ``(tag, payload)`` frames: ``frames[peer]`` is what
    ``receive_message(peer)`` returns."""

    def __init__(self, party, peers, frames):
        self.party = party
        self.peers = set(peers)
        self.frames = frames
        self.log = []

    def send_message(self, peer, tag, payload):
        self.log.append(("send", peer, (tag, payload)))

    def receive_message(self, peer):
        self.log.append(("receive", peer))
        return self.frames[peer]

    def close(self):
        pass


THREE = [PARTY_A, PARTY_B, PARTY_C]


def _slice(sender, receiver, origin="replica"):
    """A distinct share-slice payload per (sender, receiver, origin)."""
    seed = [THREE.index(sender), THREE.index(receiver), origin == "wire"]
    return (np.random.default_rng(seed).integers(0, 2**63, 3, dtype=np.uint64),)


ALL_TO_ALL = [(s, r, _slice(s, r)) for s in THREE for r in THREE if s != r]


class TestChannelRound:
    @pytest.mark.parametrize("me", THREE)
    def test_every_frame_is_written_before_the_first_read(self, me):
        """The lockstep-schedule invariant: in a 3-party all-to-all round no
        party's write waits on another party's frame."""
        others = [p for p in THREE if p != me]
        frames = {p: ("open-share", _slice(p, me, "wire")) for p in others}
        mesh = _ScriptedMesh(me, others, frames)
        delivered = Network(THREE, channel=mesh).round("open-share", ALL_TO_ALL, 8)

        kinds = [entry[0] for entry in mesh.log]
        assert kinds == ["send", "send", "receive", "receive"]
        # Frames and per-link order are the engine's: one frame per peer, in
        # the order the round lists them, and the frame is the tag and the
        # payload — the link names the pair.
        assert [(peer, message) for _kind, peer, message in mesh.log[:2]] == [
            (p, ("open-share", payload)) for s, p, payload in ALL_TO_ALL if s == me
        ]
        assert [entry[1] for entry in mesh.log[2:]] == others
        # Inbound payloads come off the wire; everything else is the replica.
        assert set(delivered) == {(s, r) for s, r, _ in ALL_TO_ALL}
        for sender, receiver, replica in ALL_TO_ALL:
            expected = _slice(sender, me, "wire") if receiver == me else replica
            np.testing.assert_array_equal(delivered[(sender, receiver)], expected)

    def test_frame_of_another_round_is_a_desynchronisation(self):
        frames = {PARTY_B: ("beaver-open", (np.zeros(1, dtype=np.uint64),))}
        network = Network(PARTIES, channel=_ScriptedMesh(PARTY_A, [PARTY_B], frames))
        with pytest.raises(TransportError, match="protocol desynchronisation"):
            network.round("open-share", [(PARTY_B, PARTY_A, None)], 8)


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
        """``stream`` fails the reader at its first pickle frame, after
        yielding exactly the codec frames ``before`` it."""
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

    @pytest.mark.parametrize("epoch", [0, 1])
    def test_join_accept_drops_a_pickle_hello(self, tmp_path, epoch):
        marker = tmp_path / "pwned"
        listener = bind_listener(timeout=5.0)
        dialler = socket.create_connection(listener.getsockname(), timeout=5.0)
        try:
            dialler.sendall(_pickle_frame(_Evil(marker)))
            with pytest.raises(MeshTimeout):
                _accept_only(listener, {PARTY_B: epoch}, timeout=1.0)
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
            ("join", PARTY_A, 0, NONCE, SECRET),
            ("result", 3, {"outputs": {"out": table}, "tally": {"mpc": np.arange(11)}}),
            ("error", 3, ValueError("boom"), "traceback..."),
        ]
        ours, theirs = socket.socketpair()
        try:
            ours.settimeout(5.0)
            for payload in payloads:
                theirs.sendall(encode_frame(payload))
            hello, result, error = (recv_frame(ours) for _ in payloads)
        finally:
            ours.close()
            theirs.close()
        assert hello == payloads[0]
        assert result[2]["outputs"]["out"] == table
        assert type(error[2]) is ValueError and error[2].args == ("boom",)


# -- one hello shape ------------------------------------------------------------------------


def _accept_only(listener, expected, timeout, nonce=NONCE):
    """The accept side of the one mesh join: dial nobody, accept ``expected``."""
    return join_mesh(PARTY_A, {}, expected, listener, epoch=0, nonce=nonce, timeout=timeout)


def _dial_hello(listener, hello):
    dialler = socket.create_connection(listener.getsockname(), timeout=5.0)
    send_frame(dialler, hello)
    return dialler


class TestHellosCarryTheSessionNonce:
    def test_malformed_hellos_are_drained_and_every_expected_peer_joins(self):
        """One hello shape, nonce and link secret included: anything else on
        the listener — at start as at a restart — is drained, never a link,
        and never fails the join of the peers that do present it.  Each
        joined link's key is the one its dialler derives from its secret."""
        listener = bind_listener(timeout=5.0)
        secret_c = secrets.token_hex(32)
        diallers = [
            _dial_hello(listener, frame)
            for frame in (
                ("join", PARTY_B, 0),
                ("join", PARTY_B, 0, NONCE),
                ("join", PARTY_B, 0, NONCE, "extra"),
                ("join", PARTY_B, 0, NONCE, SECRET.upper()),
                ("join", PARTY_B, 0, NONCE, SECRET, "extra"),
                ("hello", PARTY_B, NONCE),
                ("join", PARTY_B, 1, NONCE, SECRET),
                ("join", PARTY_B, 0, NONCE, SECRET),
                ("join", PARTY_C, 0, NONCE, secret_c),
            )
        ]
        try:
            links, keys = _accept_only(listener, {PARTY_B: 0, PARTY_C: 0}, timeout=5.0)
            assert sorted(links) == sorted(keys) == [PARTY_B, PARTY_C]
            assert keys[PARTY_B] == link_key(NONCE, 0, PARTY_B, PARTY_A, SECRET)
            assert keys[PARTY_C] == link_key(NONCE, 0, PARTY_C, PARTY_A, secret_c)
            assert keys[PARTY_B] != keys[PARTY_C]
            for sock in links.values():
                sock.close()
        finally:
            for dialler in diallers:
                dialler.close()
            listener.close()

    @pytest.mark.parametrize("epoch", [0, 1])
    def test_a_wrong_session_nonce_fails_the_join(self, epoch):
        listener = bind_listener(timeout=5.0)
        dialler = _dial_hello(listener, ("join", PARTY_B, epoch, "0" * 32, SECRET))
        try:
            with pytest.raises(TransportError, match="wrong session nonce"):
                _accept_only(listener, {PARTY_B: epoch}, timeout=5.0)
        finally:
            dialler.close()
            listener.close()

    @pytest.mark.parametrize("epoch", [0, 1])
    def test_join_accept_drops_a_hello_without_the_nonce(self, epoch):
        listener = bind_listener(timeout=5.0)
        dialler = _dial_hello(listener, ("join", PARTY_B, epoch))
        try:
            with pytest.raises(MeshTimeout):
                _accept_only(listener, {PARTY_B: epoch}, timeout=1.0)
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
            stale = np.arange(2, dtype=np.uint64)
            send_mesh_frame(theirs, 1, KIND_MSG, 0, ("stale-frame-1", stale))
            send_mesh_frame(theirs, 2, KIND_MSG, 0, ("stale-frame-2", stale))
            deadline = time.monotonic() + 5
            key = (0, PARTY_B)
            while time.monotonic() < deadline:
                q = mesh._inboxes.get(key)
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
    keys = joined_keys(PARTIES)
    meshes = {
        PARTY_A: PeerMesh(PARTY_A, {PARTY_B: sock_a}, timeout=30.0,
                          link_keys=keys_of(PARTY_A, keys)),
        PARTY_B: PeerMesh(PARTY_B, {PARTY_A: sock_b}, timeout=30.0,
                          link_keys=keys_of(PARTY_B, keys)),
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


def test_corpus_mpc_ingest_sends_only_the_row_count(monkeypatch):
    """Neither cleartext nor a share of it leaves its owner through MPC
    ingest: across the 50-plan corpus, with one executor per party joined
    by a real socket mesh, the one frame that brings a party's relation into
    the MPC is one int64, the relation's row count.  The peers expand their
    slices from their link keys, so no input frame follows it."""
    sent = {party: [] for party in PARTIES}
    send = PeerMesh._send

    def recording_send(mesh, peer, kind, query_id, payload):
        if kind == KIND_MSG:
            sent[mesh.party].append(payload)
        send(mesh, peer, kind, query_id, payload)

    monkeypatch.setattr(PeerMesh, "_send", recording_send)
    ingests = 0
    for spec, compiled, outcomes in corpus_over_a_socket_mesh():
        assert sorted(outcomes[PARTY_A].outputs["out"].rows()) == oracle(spec)
        entering = [
            parent.out_rel.name
            for node in compiled.dag.topological() if node.is_mpc
            for parent in node.parents if not parent.is_mpc
        ]
        messages = [message for party in PARTIES for message in sent[party]]
        assert sorted(tag for tag, _ in messages if tag in entering) == sorted(entering)
        for party in PARTIES:
            assert "input-share" not in [tag for tag, _ in sent[party]]
            for tag, count in sent[party]:
                if tag not in entering:
                    continue
                assert isinstance(count, np.ndarray) and count.dtype == np.int64
                assert count.shape == (1,)
                ingests += 1
            sent[party].clear()
    assert ingests, "the corpus never crossed into MPC"


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
    config = CompilationConfig()
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


def hybrid_corpus():
    """The corpus plans that run a hybrid operator once every key column
    trusts ``PARTY_A``: ``(spec, compiled, inputs)``."""
    plans = []
    for plan in range(NUM_PLANS):
        spec = generate_spec(SEED + plan)
        ctx, inputs = build_query(spec, stp=PARTY_A)
        compiled = cc.compile_query(ctx)
        if any(hasattr(node, "stp") for node in compiled.dag.topological()):
            plans.append((spec, compiled, inputs))
    return plans


@pytest.mark.parametrize("tls", [False, True], ids=["plaintext", "tls"])
def test_each_agent_received_only_the_reveals_made_to_it(tls, tmp_path):
    """A reveal to the STP reaches the STP's agent only: over real agent
    processes, on plaintext and on mutual-TLS links, each agent's audit of
    the columns it received is the leakage report's reveals to its party,
    across the corpus's hybrid plans and ``credit_hybrid``.  The STP lists
    the key columns; every other agent lists none."""
    spec, inputs, config = WORKLOADS["credit_hybrid"]()
    runs = [
        (spec.parties, config, [(None, cc.compile_query(spec.context, config), inputs)]),
        (PARTIES, CompilationConfig(), hybrid_corpus()),
    ]
    for parties, config, plans in runs:
        security = TransportSecurity.dev(parties, tmp_path / "-".join(parties)) if tls else None
        with cc.QuerySession(parties, config=config, seed=3, security=security) as session:
            for plan_spec, compiled, plan_inputs in plans:
                result = session.submit(compiled, inputs=plan_inputs)
                if plan_spec is not None:
                    assert sorted(result.outputs["out"].rows()) == oracle(plan_spec)
                stps = {node.stp for node in compiled.dag.topological() if hasattr(node, "stp")}
                for party in parties:
                    reveals = result.leakage.column_reveals_to(party)
                    assert result.isolation[party]["revealed_columns"] == [
                        (event.relation, event.columns) for event in reveals
                    ], party
                    assert bool(reveals) == (party in stps), party


class TestLinkKeys:
    """Over real agent processes, on plaintext and on mutual-TLS links: the
    join hellos agree one key per mesh link — both ends of a link hold the
    same key, no two links the same — and a supervised restart brings the
    mesh up again with new keys, while the query it replays returns the
    same bytes as the in-process run."""

    @staticmethod
    def _keys(result) -> dict:
        """``{link: key fingerprint}``, each link's ends agreeing on it."""
        links = {}
        for party, audit in result.isolation.items():
            for peer, fingerprint in audit["link_keys"].items():
                assert links.setdefault(frozenset((party, peer)), fingerprint) == fingerprint
        return links

    @pytest.mark.parametrize("tls", [False, True], ids=["plaintext", "tls"])
    def test_keys_differ_per_link_and_change_after_a_restart(self, tls, tmp_path):
        spec, inputs, config = WORKLOADS["hhi_mpc_only"]()
        compiled = cc.compile_query(spec.context, config)
        reference = cc.run_query(spec.context, inputs, config, seed=SEED)
        security = TransportSecurity.dev(spec.parties, tmp_path / "certs") if tls else None
        # The second query's intake kills one agent: the whole mesh comes up
        # again at the next epoch and the query is replayed on it.
        faults = FaultPlan(kills=(KillFault(spec.parties[1], at_query=2),))
        with cc.QuerySession(
            spec.parties, inputs=inputs, config=config, seed=SEED, security=security,
            faults=faults, timeout=60.0,
            restart=RestartPolicy(
                backoff_seconds=0.05, max_backoff_seconds=0.5, heartbeat_interval_seconds=None
            ),
        ) as session:
            results = [session.submit(compiled, timeout=120) for _ in range(2)]
            stats = session.stats
        assert stats["restarts"] == 1 and stats["retries"] >= 1
        for result in results:
            assert result.outputs.keys() == reference.outputs.keys()
            for name, table in reference.outputs.items():
                assert result.outputs[name] == table
            assert result.mpc_profile == reference.mpc_profile
        before, after = (self._keys(result) for result in results)
        assert len(before) == len(after) == 3  # every link of three agents
        assert len(set(before.values())) == 3
        assert set(after) == set(before) and not set(after.values()) & set(before.values())


# -- the agent's process image --------------------------------------------------------------

#: Trips per party: every column buffer spans hundreds of pages.
FENCE_ROWS = 200_000


def _taxi_session_inputs(rows: int):
    spec = market_concentration_query(rows_per_party=rows)
    tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), rows)
    return spec, {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}


def _column_pages(inputs) -> list[tuple[int, int]]:
    """``[start, end)`` of the whole pages inside each input column's buffer."""
    page, spans = mmap.PAGESIZE, []
    for tables in inputs.values():
        for table in tables.values():
            for column in table.columns():
                start = column.ctypes.data
                spans.append((-(-start // page) * page, (start + column.nbytes) // page * page))
    assert all(end - start > 100 * page for start, end in spans)
    return spans


def _mapped(pid: int) -> list[tuple[int, int]]:
    with open(f"/proc/{pid}/maps") as maps:
        return [tuple(int(end, 16) for end in line.split()[0].split("-")) for line in maps]


def _unmapped_part(span, mapped) -> list[tuple[int, int]]:
    """The parts of ``span`` no range of ``mapped`` covers."""
    start, end = span
    holes = []
    for lo, hi in sorted(mapped):
        if hi <= start or lo >= end:
            continue
        if lo > start:
            holes.append((start, lo))
        start = max(start, hi)
    return holes + ([(start, end)] if start < end else [])


def _assert_each_agent_maps_its_own_input_only(session, spans) -> None:
    """Every agent maps every page of its own party's input (``spans``:
    party -> ``[start, end)`` of its columns' whole pages) and none of
    another party's."""
    processes = session._pool._processes
    assert sorted(processes) == sorted(spans)
    for party, proc in processes.items():
        mapped = _mapped(proc.pid)
        for owner, owned in spans.items():
            if owner == party:
                holes = [_unmapped_part(span, mapped) for span in owned]
                assert not any(holes), f"agent {proc.name} misses own input pages at {holes}"
            else:
                overlaps = [
                    (hex(lo), hex(hi)) for lo, hi in mapped
                    for start, end in owned if lo < end and start < hi
                ]
                assert not overlaps, f"agent {proc.name} maps {owner}'s input pages at {overlaps}"


def _assert_same_result(result, reference) -> None:
    assert result.outputs == reference.outputs
    assert result.mpc_profile == reference.mpc_profile
    assert result.leakage.events == reference.leakage.events


def _restart_every_agent(session, party) -> None:
    """Kill ``party``'s agent and wait until the supervisor brought the
    mesh up again."""
    restarts = session.stats["restarts"]
    session._pool._processes[party].kill()
    deadline = time.monotonic() + 60
    while session.stats["restarts"] <= restarts and time.monotonic() < deadline:
        time.sleep(0.05)
    assert session._pool.wait_recovered(60)


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"), reason="MADV_DONTFORK is Linux's")
def test_no_agent_maps_a_page_of_another_partys_input():
    """Each forked agent starts with none of the other parties' input
    pages mapped, and every page of its own, which it computes on in place
    — and so does every agent a restart brings up.  Results stay
    byte-identical to the in-process runner."""
    spec, inputs = _taxi_session_inputs(FENCE_ROWS)
    spans = {party: _column_pages({party: tables}) for party, tables in inputs.items()}
    compiled = cc.compile_query(spec.context)
    reference = cc.QueryRunner(spec.parties, inputs, seed=5).run(compiled)
    restart = cc.RestartPolicy(backoff_seconds=0.05, heartbeat_interval_seconds=None)
    with cc.QuerySession(spec.parties, inputs=inputs, seed=5, restart=restart) as session:
        _assert_each_agent_maps_its_own_input_only(session, spans)
        _assert_same_result(session.submit(compiled), reference)
        _restart_every_agent(session, spec.parties[1])
        _assert_each_agent_maps_its_own_input_only(session, spans)
        _assert_same_result(session.submit(compiled), reference)


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"), reason="MADV_DONTFORK is Linux's")
def test_no_agent_maps_the_buffer_behind_a_selected_or_sliced_input():
    """The pages left out are those of the buffer that owns each column: a
    standing input that is a pending selection, or a slice of a larger
    table, keeps every page of the whole table out of the other parties'
    agents."""
    spec, inputs = _taxi_session_inputs(FENCE_ROWS)
    spans = {party: _column_pages({party: tables}) for party, tables in inputs.items()}
    first, second = spec.parties[:2]
    (name, table), = inputs[first].items()
    inputs[first][name] = table.select_rows(table.columns()[0] % 2 == 0)
    (name, table), = inputs[second].items()
    inputs[second][name] = table.limit(FENCE_ROWS // 2)
    with cc.QuerySession(spec.parties, inputs=inputs, seed=5) as session:
        _assert_each_agent_maps_its_own_input_only(session, spans)


def _inputs_without_zeros(rows: int, split: bool = False):
    """The taxi query's inputs with every value shifted off zero, so a read
    of an input element that gives zero bytes read no input; with
    ``split``, each party's is a pending selection of one table whose rows
    ``split_across_parties`` dealt to the parties."""
    spec = market_concentration_query(rows_per_party=rows)
    tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), rows)
    tables = [cc.Table(t.schema, [column + 1 for column in t.columns()]) for t in tables]
    assert all(column.all() for t in tables for column in t.columns())
    if split:
        tables = split_across_parties(tables[0].concat(*tables[1:]), len(spec.parties), seed=3)
        assert all(t.pending_selection() for t in tables)
    return spec, {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}


def _read_memory(pid: int, address: int, length: int) -> bytes | None:
    """``length`` bytes at ``address`` in process ``pid``, or ``None`` where
    it maps nothing (the read fails with EIO)."""
    with open(f"/proc/{pid}/mem", "rb", buffering=0) as memory:
        memory.seek(address)
        try:
            return memory.read(length)
        except OSError as exc:
            if exc.errno != errno.EIO:
                raise
            return None


def _row_elements(table) -> list[np.ndarray]:
    """One-element views of each column of ``table`` at its first and last
    row, where those rows lie (for a pending selection, in its source)."""
    pending = table.pending_selection()
    if pending:
        source, flags = pending
        rows = np.flatnonzero(flags)[[0, -1]]
        return [column[i:i + 1] for column in source.columns() for i in rows]
    return [element for column in table.columns() for element in (column[:1], column[-1:])]


def _assert_no_agent_reads_another_partys_input(session, inputs) -> None:
    """Every agent reads its own party's first and last rows as they are in
    the inputs it forked with, and zero bytes, or nothing, at those of
    every other party's, both where the session was given them and where
    the pool copied them out of a buffer two parties reach."""
    forked = session._pool._forked
    for party, proc in session._pool._processes.items():
        for owner, tables in inputs.items():
            held = [e for table in forked[owner].values() for e in _row_elements(table)]
            given = [e for table in tables.values() for e in _row_elements(table)]
            for element in held if owner == party else held + given:
                read = _read_memory(proc.pid, element.ctypes.data, element.nbytes)
                if owner == party:
                    assert read == element.tobytes(), (proc.name, owner)
                else:
                    assert read in (None, bytes(element.nbytes)), (proc.name, owner, read)


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"), reason="MADV_DONTFORK is Linux's")
@pytest.mark.parametrize("split", [False, True], ids=["apart", "split"])
@pytest.mark.parametrize("rows", [50, FENCE_ROWS])
def test_no_agent_reads_a_byte_of_another_partys_input(rows, split):
    """Not even the bytes on the pages an input buffer shares with other
    memory: at 50 rows no column fills a page, and at 200 000 each column's
    first and last pages are partial.  An agent zeroes the other parties'
    bytes there before anything else, at open and after a restart, and
    computes the same results.  When the parties' inputs are selections of
    one table (``split``), every party's input reaches one source buffer
    that holds every party's rows: each agent forks with its own rows
    copied out of it, and the source is left out of every agent.  The
    in-process runner runs on inputs of its own, since it copies a pending
    selection's rows out as it reads them."""
    spec, inputs = _inputs_without_zeros(rows, split)
    compiled = cc.compile_query(spec.context)
    _, own_inputs = _inputs_without_zeros(rows, split)
    reference = cc.QueryRunner(spec.parties, own_inputs, seed=5).run(compiled)
    restart = cc.RestartPolicy(backoff_seconds=0.05, heartbeat_interval_seconds=None)
    with cc.QuerySession(spec.parties, inputs=inputs, seed=5, restart=restart) as session:
        _assert_no_agent_reads_another_partys_input(session, inputs)
        _assert_same_result(session.submit(compiled), reference)
        _restart_every_agent(session, spec.parties[1])
        _assert_no_agent_reads_another_partys_input(session, inputs)
        _assert_same_result(session.submit(compiled), reference)
    assert all(bool(t.pending_selection()) == split for ts in inputs.values() for t in ts.values())


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"), reason="MADV_DONTFORK is Linux's")
def test_a_buffer_two_parties_hold_stays_with_both_agents():
    """A table two parties both hold is each one's own input: neither agent
    has its pages left out or its bytes zeroed."""
    spec, inputs = _taxi_session_inputs(2_000)
    first, second = spec.parties[:2]
    (table,) = inputs[first].values()
    (name,) = inputs[second]
    inputs[second][name] = table
    compiled = cc.compile_query(spec.context)
    with cc.QuerySession(spec.parties, inputs=inputs, seed=5) as session:
        _assert_same_result(session.submit(compiled),
                            cc.QueryRunner(spec.parties, inputs, seed=5).run(compiled))


def test_an_input_sharing_a_buffer_it_does_not_span_is_copied_out():
    """A party that holds a whole table keeps it; a slice and a selection
    of it that other parties hold are copied out of its buffers, with the
    same rows, and the inputs as given are left as they are."""
    from repro.runtime.pool import _fork_inputs, _input_buffers

    spec, inputs = _taxi_session_inputs(2_000)
    first, second, third = spec.parties
    (name, table), = inputs[first].items()
    inputs[second] = {"sliced": table.limit(1_500)}
    inputs[third] = {"selected": table.select_rows(table.columns()[1] % 3 != 0)}
    forked = _fork_inputs(inputs)
    assert forked[first][name] is table
    assert forked[second]["sliced"] == inputs[second]["sliced"]
    assert inputs[third]["selected"].pending_selection() is not None
    assert forked[third]["selected"].pending_selection() is None
    assert forked[third]["selected"] == inputs[third]["selected"]
    for party in (second, third):
        assert not _input_buffers({party: forked[party]}) & _input_buffers({first: inputs[first]})


def test_the_session_frame_carries_no_relation(monkeypatch):
    """An agent holds its own inputs from the fork: the session frame is
    the same size over 1 000 and 200 000 standing rows per party."""
    from repro.runtime import pool

    sizes = []

    def recording_send(sock, frame):
        if frame[0] == "session":
            sizes.append(len(encode_frame(frame)))
        send_frame(sock, frame)

    monkeypatch.setattr(pool, "send_frame", recording_send)
    for rows in (1_000, FENCE_ROWS):
        spec, inputs = _taxi_session_inputs(rows)
        with cc.QuerySession(spec.parties, inputs=inputs, seed=5):
            pass
    assert len(sizes) == 2 * len(spec.parties)
    assert sizes[:len(spec.parties)] == sizes[len(spec.parties):]


@pytest.mark.parametrize("push_down", [True, False])
def test_sessions_compute_on_a_selected_and_a_sliced_standing_input(push_down):
    """An agent computes on its inherited standing input as it is: a
    pending selection (not copied out at the coordinator, since no other
    party's input shares its buffer) and a slice of a larger table give
    the in-process runner's outputs, MPC profile and leakage."""
    spec, inputs = _taxi_session_inputs(2_000)
    first, second = spec.parties[:2]
    (name, table), = inputs[first].items()
    selected = inputs[first][name] = table.select_rows(table.columns()[1] % 3 != 0)
    (name, table), = inputs[second].items()
    inputs[second][name] = table.limit(1_500)
    config = CompilationConfig(enable_push_down=push_down)
    compiled = cc.compile_query(spec.context, config)
    with cc.QuerySession(spec.parties, inputs=inputs, config=config, seed=5) as session:
        result = session.submit(compiled)
    assert selected.pending_selection() is not None
    _assert_same_result(result, cc.QueryRunner(spec.parties, inputs, seed=5).run(compiled))


def _column_sum(inputs) -> int:
    return sum(int(column.sum()) for tables in inputs.values()
               for table in tables.values() for column in table.columns())


def _report_sum(inputs, conn) -> None:
    conn.send(_column_sum(inputs))
    conn.close()


def _child_sum(inputs):
    """The column sum an ordinary ``fork`` child computes from the inherited
    inputs, or how it died if it could not.  The answer is read off the pipe,
    never inferred from the exit code: a ``Process.start()`` on another
    thread polls every child, this one too, and may reap it first, and then
    its ``exitcode`` reads None."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_sum, args=(inputs, theirs))
    child.start()
    theirs.close()
    try:
        return ours.recv() if ours.poll(60) else "no answer"
    except EOFError:  # the child died before it answered
        child.join(60)
        return f"died: exit code {child.exitcode}"
    finally:
        child.join(60)
        ours.close()


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"), reason="MADV_DONTFORK is Linux's")
def test_a_fork_from_another_thread_keeps_every_input_page():
    """A session leaves the input pages out of its agents only: ``fork``
    children started from another thread while sessions open, and one
    forked once a session is open, all read every input and sum it exactly."""
    spec, inputs = _taxi_session_inputs(FENCE_ROWS)
    expected = _column_sum(inputs)
    stop, sums = threading.Event(), []

    def fork_until_stopped():
        while not stop.is_set():
            sums.append(_child_sum(inputs))

    forker = threading.Thread(target=fork_until_stopped)
    forker.start()
    try:
        for _ in range(3):
            with cc.QuerySession(spec.parties, inputs=inputs, seed=5):
                pass
    finally:
        stop.set()
        forker.join(120)
    assert not forker.is_alive()
    assert sums and sums == [expected] * len(sums)
    with cc.QuerySession(spec.parties, inputs=inputs, seed=5):
        assert _child_sum(inputs) == expected
