"""Property-based round-trip tests for the wire framing and mesh multiplexing.

Seeded random generation drives codec frames over real socket pairs through
the properties service mode leans on: arbitrary payloads round-trip
byte-exactly regardless of how the stream is chunked; empty and >64 KiB
payloads are ordinary frames; frames of interleaved query ids demultiplex
into per-query FIFO order; and a stream that ends mid-frame is *rejected* as
truncated, never silently dropped.  Hypothesis drives the segment encoder:
whatever it borrows, the joined segments are the one wire format, byte for
byte.
"""

import contextlib
import secrets
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as cc
from repro.core.config import TransportSecurity
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.runtime import wire
from repro.runtime.mesh import MeshTimeout, PeerMesh
from repro.runtime import TransportError
from repro.runtime.executor import PlanExecutor
from repro.runtime.wire import (
    BORROW_FLOOR,
    MAX_FRAME_BYTES,
    MESH_DTYPES,
    LinkStats,
    WireError,
    decode_payload,
    encode_frame,
    encode_payload,
    encode_segments,
    recv_frame,
    secure_client_socket,
    secure_server_socket,
    send_frame,
)

SEED = 20260730


def random_payload(rng: np.random.Generator):
    """One random payload: mixed types, sizes from empty to >64 KiB."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return b""
    if kind == 1:
        return bytes(rng.integers(0, 256, int(rng.integers(1, 200)), dtype=np.uint8))
    if kind == 2:  # comfortably above one 64 KiB socket buffer
        return bytes(rng.integers(0, 256, int(rng.integers(1 << 16, 1 << 17)), dtype=np.uint8))
    if kind == 3:
        return {"k": int(rng.integers(-1000, 1000)), "nested": [None, ("t", 1.5)]}
    if kind == 4:
        return "x" * int(rng.integers(0, 5000))
    return rng.integers(-100, 100, int(rng.integers(0, 1000)))


def payloads_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


@contextlib.contextmanager
def streamed(chunks):
    """A socket reading ``chunks``, written in order by another thread,
    after which the writer closes its end."""
    left, right = socket.socketpair()
    right.settimeout(10)

    def write() -> None:
        try:
            for chunk in chunks:
                left.sendall(chunk)
        finally:
            left.close()

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield right
    finally:
        right.close()
        writer.join(timeout=10)


def read_frames(sock, count: int) -> list:
    """``count`` frames off ``sock``, which must then be at a clean end."""
    frames = [recv_frame(sock) for _ in range(count)]
    assert sock.recv(1) == b"", "the stream did not end on a frame boundary"
    return frames


# -- codec round-trips ----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(20))
def test_random_frame_sequences_round_trip_under_random_chunking(case):
    """Any frame sequence decodes identically however the bytes are split."""
    rng = np.random.default_rng(SEED + case)
    frames = [random_payload(rng) for _ in range(int(rng.integers(1, 8)))]
    stream = b"".join(encode_frame(f) for f in frames)

    chunks = []
    position = 0
    while position < len(stream):
        step = int(rng.integers(1, max(2, len(stream) // 3)))
        chunks.append(stream[position:position + step])
        position += step
    with streamed(chunks) as sock:
        decoded = read_frames(sock, len(frames))

    for got, expected in zip(decoded, frames):
        assert payloads_equal(got, expected)


def test_empty_payload_is_an_ordinary_frame():
    for empty in (b"", "", (), [], {}, None):
        with streamed([encode_frame(empty)]) as sock:
            (got,) = read_frames(sock, 1)
        assert payloads_equal(got, empty)


def test_large_frame_round_trips_over_a_real_socket():
    """A >64 KiB frame crosses a socket in multiple recv() chunks."""
    left, right = socket.socketpair()
    try:
        left.settimeout(10)
        right.settimeout(10)
        payload = bytes(np.random.default_rng(SEED).integers(0, 256, 300_000, dtype=np.uint8))
        sender = threading.Thread(target=send_frame, args=(left, ("big", payload)))
        sender.start()
        tag, got = recv_frame(right)
        sender.join(timeout=10)
        assert tag == "big" and got == payload
    finally:
        left.close()
        right.close()


# -- query-id interleaving ------------------------------------------------------------------


def test_interleaved_query_ids_demultiplex_in_per_query_order():
    """Frames of many queries interleaved on one stream keep per-query FIFO order."""
    rng = np.random.default_rng(SEED)
    expected: dict[int, list] = {qid: [] for qid in (1, 2, 7)}
    stream = bytearray()
    for _ in range(60):
        qid = int(rng.choice(list(expected)))
        payload = random_payload(rng)
        expected[qid].append(payload)
        stream.extend(encode_frame(("msg", qid, payload)))

    got: dict[int, list] = {qid: [] for qid in expected}
    with streamed([bytes(stream)]) as sock:
        for kind, qid, payload in read_frames(sock, 60):
            assert kind == "msg"
            got[qid].append(payload)

    for qid in expected:
        assert len(got[qid]) == len(expected[qid])
        for a, b in zip(got[qid], expected[qid]):
            assert payloads_equal(a, b)


def make_mesh_pair(timeout: float = 5.0) -> tuple[PeerMesh, PeerMesh]:
    """Two connected single-link meshes (parties ``a`` and ``b``) that share
    one link key."""
    sock_a, sock_b = socket.socketpair()
    sock_a.settimeout(timeout)
    sock_b.settimeout(timeout)
    key = secrets.token_bytes(32)
    return (
        PeerMesh("a", {"b": sock_a}, timeout=timeout, link_keys={"b": key}),
        PeerMesh("b", {"a": sock_b}, timeout=timeout, link_keys={"a": key}),
    )


def test_mesh_channels_isolate_concurrent_queries():
    """Messages of two queries interleaved on one socket reach their channels."""
    mesh_a, mesh_b = make_mesh_pair()
    try:
        rng = np.random.default_rng(SEED + 1)
        sent: dict[int, list] = {1: [], 2: []}
        for i in range(40):
            qid = int(rng.integers(1, 3))
            message = (f"round-{i}", (np.full(3, i, dtype=np.uint64),))
            sent[qid].append(message)
            mesh_b.channel(qid).send_message("a", *message)
        for qid in (1, 2):
            channel = mesh_a.channel(qid)
            for tag, (vector,) in sent[qid]:
                got_tag, (got,) = channel.receive_message("b")
                assert got_tag == tag and np.array_equal(got, vector)
    finally:
        mesh_a.close()
        mesh_b.close()


def _flag(value: int) -> np.ndarray:
    return np.array([value], dtype=np.uint8)


def test_channel_abort_poisons_only_that_query():
    mesh_a, mesh_b = make_mesh_pair()
    try:
        mesh_b.channel(5).send_message("a", "alive", _flag(5))
        mesh_b.channel(3).abort("boom at b")
        # Query 3 fails immediately — existing and future receives alike.
        with pytest.raises(TransportError, match="aborted query 3"):
            mesh_a.channel(3).receive_message("b")
        with pytest.raises(TransportError, match="aborted query 3"):
            mesh_a.channel(3).receive_message("b")
        # Query 5 is untouched.
        tag, flag = mesh_a.channel(5).receive_message("b")
        assert tag == "alive" and flag.tolist() == [5]
    finally:
        mesh_a.close()
        mesh_b.close()


def test_released_query_drops_late_frames_instead_of_accumulating():
    """Frames racing a channel release are discarded — a long-lived mesh
    must not grow per-finished-query state (the slow-leak regression)."""
    mesh_a, mesh_b = make_mesh_pair()
    try:
        channel = mesh_a.channel(4)
        mesh_b.channel(4).send_message("a", "consumed", None)
        assert channel.receive_message("b") == ("consumed", None)
        channel.close()  # query finished; id 4 is released
        mesh_b.channel(4).send_message("a", "late", None)
        mesh_b.channel(4).abort("late abort")
        # A later frame on the same link proves the earlier ones were read.
        mesh_b.channel(6).send_message("a", "fresh", None)
        assert mesh_a.channel(6).receive_message("b") == ("fresh", None)
        assert not [k for k in mesh_a._inboxes if k[0] == 4]
    finally:
        mesh_a.close()
        mesh_b.close()


def _diverges_at_once(receive) -> None:
    """``receive()`` raises a divergence error, not a timeout, well inside
    the mesh timeout."""
    started = time.monotonic()
    with pytest.raises(TransportError, match="diverged|desynchronisation") as info:
        receive()
    assert not isinstance(info.value, MeshTimeout)
    assert time.monotonic() - started < 0.5


_COLUMNS = [cc.Column("k", cc.INT), cc.Column("v", cc.FLOAT)]


def _transfer_plan():
    """``r`` at b, collected by a: its columns cross from b to a."""
    with cc.QueryContext() as query:
        cc.new_table("r", _COLUMNS, at=cc.Party("b")).collect("out", to=[cc.Party("a")])
    return cc.compile_query(query), "r"


def _ingest_plan():
    """a's and b's partial sums meet in the MPC: b's row count crosses to a."""
    with cc.QueryContext() as query:
        tables = [cc.new_table(f"t{p}", _COLUMNS, at=cc.Party(p)) for p in "ab"]
        cc.concat(tables).aggregate(group=["k"], aggs={"s": cc.SUM("v")}).collect(
            "out", to=[cc.Party("a")]
        )
    compiled = cc.compile_query(query)
    concat = next(node for node in compiled.dag.topological() if node.is_mpc)
    return compiled, concat.parents[1].out_rel.name


_INPUT = Table(
    Schema([ColumnDef("k"), ColumnDef("v", ColumnType.FLOAT)]), [np.arange(3), np.ones(3)]
)


@pytest.mark.parametrize(
    "plan, message",
    [
        (_transfer_plan, lambda rel: (rel, np.array([3], dtype=np.int64))),
        (_transfer_plan, lambda rel: ("other", (np.arange(3), np.ones(3)))),
        (_transfer_plan, lambda rel: (rel, (np.arange(3),))),
        (_transfer_plan, lambda rel: (rel, (np.arange(3), np.arange(3)))),
        (_transfer_plan, lambda rel: (rel, (np.arange(3), np.ones(2)))),
        (_ingest_plan, lambda rel: (rel, (np.arange(3), np.ones(3)))),
        (_ingest_plan, lambda rel: (rel, np.array([-1], dtype=np.int64))),
        (_ingest_plan, lambda rel: ("other", np.array([3], dtype=np.int64))),
    ],
    ids=[
        "rows-for-columns", "wrong-relation", "missing-column", "column-type",
        "column-length", "columns-for-rows", "negative-rows", "wrong-relation-rows",
    ],
)
def test_a_relation_out_of_schedule_is_divergence_not_a_timeout(plan, message):
    """A relation crosses as one round's message, checked against the plan:
    a row count where the columns are due (or the reverse), another
    relation's message, or columns that are not the plan's are the party
    processes diverging — an error at once, not a wait for the timeout."""
    compiled, relation = plan()
    mesh_a, mesh_b = make_mesh_pair(timeout=5.0)
    try:
        executor = PlanExecutor(
            ["a", "b"], {"a": {"ta": _INPUT}}, local_parties={"a"}, mesh=mesh_a.channel(1)
        )
        mesh_b.channel(1).send_message("a", *message(relation))
        _diverges_at_once(lambda: executor.execute(compiled))
    finally:
        mesh_a.close()
        mesh_b.close()


def test_an_abort_ends_the_inbox_after_the_frames_before_it():
    mesh_a, mesh_b = make_mesh_pair()
    try:
        mesh_b.channel(3).send_message("a", "first", _flag(1))
        mesh_b.channel(3).send_message("a", "second", _flag(2))
        mesh_b.channel(3).abort("boom at b")
        channel = mesh_a.channel(3)
        assert [channel.receive_message("b")[0] for _ in range(2)] == ["first", "second"]
        for _ in range(3):
            with pytest.raises(TransportError, match="aborted query 3: boom at b"):
                channel.receive_message("b")
    finally:
        mesh_a.close()
        mesh_b.close()


def test_an_abort_for_a_released_query_creates_no_inbox():
    mesh_a, mesh_b = make_mesh_pair()
    try:
        mesh_a.channel(7).close()
        mesh_b.channel(7).abort("late abort")
        # A later frame on the same link proves the abort was read.
        mesh_b.channel(8).send_message("a", "fresh", None)
        assert mesh_a.channel(8).receive_message("b") == ("fresh", None)
        assert (7, "b") not in mesh_a._inboxes
    finally:
        mesh_a.close()
        mesh_b.close()


def test_peer_death_poisons_existing_and_future_channels():
    mesh_a, mesh_b = make_mesh_pair()
    try:
        existing = mesh_a.channel(1)
        mesh_b.close()  # peer process gone: its sockets close
        with pytest.raises(TransportError, match="closed"):
            existing.receive_message("b")
        # A channel opened only after the death must fail too, immediately.
        with pytest.raises(TransportError, match="closed"):
            mesh_a.channel(2).receive_message("b")
    finally:
        mesh_a.close()


# -- truncation and corruption --------------------------------------------------------------


@pytest.mark.parametrize("case", range(10))
def test_truncated_streams_are_rejected(case):
    """Every cut that ends mid-frame raises WireError at eof()."""
    rng = np.random.default_rng(SEED + 100 + case)
    frames = [random_payload(rng) for _ in range(3)]
    encoded = [encode_frame(f) for f in frames]
    stream = b"".join(encoded)
    boundaries = {0}
    offset = 0
    for chunk in encoded:
        offset += len(chunk)
        boundaries.add(offset)

    cuts = sorted(set(int(c) for c in rng.integers(0, len(stream), 25)) | boundaries)
    for cut in cuts:
        complete = sum(1 for b in boundaries if 0 < b <= cut)
        with streamed([stream[:cut]]) as sock:
            if cut in boundaries:
                read_frames(sock, complete)  # clean boundary: no truncation
            else:
                for _ in range(complete):
                    recv_frame(sock)
                with pytest.raises(WireError, match="closed mid-frame"):
                    recv_frame(sock)


def test_truncated_socket_stream_raises_wire_error():
    left, right = socket.socketpair()
    try:
        right.settimeout(5)
        frame = encode_frame({"half": "frame"})
        left.sendall(frame[: len(frame) - 3])
        left.close()
        with pytest.raises(WireError, match="closed mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_oversized_header_is_stream_corruption():
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with streamed([header + b"xxxx"]) as sock:
        with pytest.raises(WireError, match="corrupt"):
            recv_frame(sock)


def test_idle_timeout_is_distinguished_from_mid_frame_death():
    left, right = socket.socketpair()
    try:
        right.settimeout(0.05)
        # Idle: no byte of a frame arrived — TimeoutError (stream is fine).
        with pytest.raises(TimeoutError):
            recv_frame(right, allow_idle_timeout=True)
        # Mid-frame: a partial header arrived — always a WireError.
        left.sendall(b"\x00\x00")
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right, allow_idle_timeout=True)
    finally:
        left.close()
        right.close()


# -- codec segments: borrowed buffers, one wire format ---------------------------------------


@contextlib.contextmanager
def borrow_floor(nbytes):
    """Encode with another borrow floor (the encoder reads it per array)."""
    saved = wire.BORROW_FLOOR
    wire.BORROW_FLOOR = nbytes
    try:
        yield
    finally:
        wire.BORROW_FLOOR = saved


def copied_payload(obj) -> bytes:
    """The payload with nothing borrowed: the single-buffer encoding."""
    with borrow_floor(MAX_FRAME_BYTES + 1):
        (only,) = encode_segments(obj)
    return bytes(only)


def varint(value: int) -> bytes:
    out = bytearray()
    while True:
        out.append((value & 0x7F) | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


def reference_array_payload(arr: np.ndarray) -> bytes:
    """The format of a bare array, written out independently of the codec:
    magic, tag, dtype code, element count, zero padding to the next offset
    divisible by 8, C-order bytes."""
    head = b"\xc7" + bytes([wire._T_ARRAY, MESH_DTYPES.index(arr.dtype)]) + varint(arr.size)
    return head + bytes(-len(head) % 8) + arr.tobytes(order="C")


@st.composite
def arrays(draw):
    """One-dimensional arrays of the allowlist, length 0-5, contiguous,
    strided or reversed."""
    dtype = draw(st.sampled_from(MESH_DTYPES))
    count = draw(st.integers(0, 5))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).copy()
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed"]))
    if layout == "strided":
        return arr[::2]
    if layout == "reversed":
        return arr[::-1]
    return arr


def nested(leaves):
    return st.recursive(
        leaves | st.integers(-5, 5) | st.text(max_size=3),
        lambda inner: st.tuples(inner, inner)
        | st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=6,
    )


@given(arr=arrays())
@settings(max_examples=150, deadline=None)
def test_a_bare_array_is_the_one_format_borrowed_or_copied(arr):
    expected = reference_array_payload(arr)
    assert copied_payload(arr) == expected
    with borrow_floor(1):
        segments = encode_segments(arr)
    assert b"".join(segments) == expected
    # Borrowed: the layout bytes, then a view of the data, and nothing after.
    assert len(segments) == (2 if arr.nbytes else 1)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_joined_segments_equal_the_copied_payload(data):
    """Nested in containers and repeated, with the floor low enough that
    small arrays are borrowed too."""
    pool = data.draw(st.lists(arrays(), min_size=1, max_size=3))
    obj = data.draw(nested(st.sampled_from(pool)))
    floor = data.draw(st.sampled_from([1, 8, 64, BORROW_FLOOR]))
    expected = copied_payload(obj)
    with borrow_floor(floor):
        segments = encode_segments(obj)
    assert b"".join(segments) == expected
    assert encode_payload(obj) == expected
    assert encode_frame(obj) == len(expected).to_bytes(4, "big") + expected


@pytest.mark.parametrize("nbytes", [BORROW_FLOOR - 1, BORROW_FLOOR, BORROW_FLOOR + 1])
def test_the_borrow_floor_decides_between_a_copy_and_a_view(nbytes):
    arr = np.arange(nbytes, dtype=np.uint8)
    frame = (7, "msg", 3, ("a.example", "b.example", ("env-open", (arr, arr[:8], arr)), 64))
    segments = encode_segments(frame)
    assert b"".join(segments) == copied_payload(frame)
    if nbytes < BORROW_FLOOR:
        assert len(segments) == 1
    else:
        # Each occurrence of ``arr`` is borrowed; the short slice is copied.
        assert len(segments) == 5
        for view in (segments[1], segments[3]):
            assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), arr)


_SHARED = np.array([1, -2], dtype="<i8")

#: Payloads and their bytes, pinned against drift.
GOLDEN = [
    ((7, "msg", 3, np.array([1, 2**63, 3], dtype=np.uint64)),
     "c7070403010705036d73670301030c0003000000000000000100000000000000"
     "00000000000000800300000000000000"),
    ({"a": _SHARED, "b": [_SHARED, (_SHARED,)]},
     "c709020501610c0202000000000000000100000000000000feffffffffffffff"
     "05016208020c02020100000000000000feffffffffffffff07010c0202000000"
     "0100000000000000feffffffffffffff"),
    (np.arange(10, dtype=np.int64)[1::3],
     "c70c020300000000010000000000000004000000000000000700000000000000"),
    (np.array([0.5, -1.0]), "c70c030200000000000000000000e03f000000000000f0bf"),
    (np.array([], dtype=np.uint8), "c70c010000000000"),
    ({"k", "a", "z"}, "c70a0305016105016b05017a"),
]


@pytest.mark.parametrize("obj, golden", GOLDEN, ids=range(len(GOLDEN)))
@pytest.mark.parametrize("floor", [1, BORROW_FLOOR])
def test_golden_bytes_do_not_drift(obj, golden, floor):
    with borrow_floor(floor):
        assert b"".join(encode_segments(obj)).hex() == golden


def _decoded_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _decoded_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _decoded_arrays(value)


def test_arrays_decoded_from_a_frame_buffer_are_writable_and_alias_nothing():
    sent = [np.arange(5000, dtype=np.uint64), np.arange(3, dtype=np.uint8),
            np.linspace(0, 1, 4000), np.arange(7, dtype=np.uint64)]
    frame = ("x", sent[0], {"k": (sent[1], sent[2])}, [sent[3]])
    payload = encode_payload(frame)
    for buffer in (bytearray(payload), payload, memoryview(payload)):
        got = list(_decoded_arrays(decode_payload(buffer)))
        assert len(got) == len(sent)
        for arr, original in zip(got, sent):
            assert np.array_equal(arr, original) and arr.dtype == original.dtype
            assert arr.flags.writeable and arr.flags.aligned
            assert not np.shares_memory(arr, original)
            arr[...] = 0  # a write reaches no other array
        for i, arr in enumerate(got):
            assert not arr.any()
            assert not any(np.shares_memory(arr, other) for other in got[i + 1:])
        assert sent[0][1] == 1
    # The payload is copied into a buffer of its own, which the decoded
    # arrays view: none aliases the caller's buffer.
    buffer = bytearray(payload)
    got = list(_decoded_arrays(decode_payload(buffer)))
    frame_bytes = np.frombuffer(buffer, dtype=np.uint8)
    assert not any(np.shares_memory(arr, frame_bytes) for arr in got)


class _CountingSocket:
    """A socket whose gather-writes are observed (and nothing else changed)."""

    def __init__(self, sock):
        self._sock = sock
        self.sendmsg_returns = []

    def sendmsg(self, buffers):
        sent = self._sock.sendmsg(buffers)
        self.sendmsg_returns.append(sent)
        return sent

    def sendall(self, data):
        raise AssertionError("a frame with a borrowed array is gather-written")


def test_partial_gather_writes_carry_a_borrowed_frame_whole():
    """A 4 KB send buffer takes a 4 MB frame in many partial ``sendmsg``s."""
    left, right = socket.socketpair()
    try:
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        left.settimeout(20)
        right.settimeout(20)
        vector = np.arange(1 << 19, dtype=np.uint64)
        frame = (7, "msg", 3, ("a", "b", ("open-share", vector), vector.nbytes))
        received, got = LinkStats(), []
        reader = threading.Thread(
            target=lambda: got.append(recv_frame(right, stats=received))
        )
        reader.start()
        sent = LinkStats()
        counting = _CountingSocket(left)
        send_frame(counting, frame, stats=sent)
        reader.join(timeout=20)
        assert not reader.is_alive()

        size = 4 + len(encode_payload(frame))
        assert sent.bytes_sent == received.bytes_received == size
        assert sent.frames_sent == received.frames_received == 1
        assert len(counting.sendmsg_returns) > 1
        assert sum(counting.sendmsg_returns) == size
        assert max(counting.sendmsg_returns) < size
        assert np.array_equal(got[0][3][2][1], vector)
    finally:
        left.close()
        right.close()


def test_a_borrowed_frame_round_trips_over_a_secure_socket_pair(tmp_path):
    security = TransportSecurity.dev(["a.example", "b.example"], tmp_path / "certs")
    raw_client, raw_server = socket.socketpair()
    raw_client.settimeout(20)
    raw_server.settimeout(20)
    server_side = []
    accept = threading.Thread(
        target=lambda: server_side.append(
            secure_server_socket(raw_server, security.server_context("b.example"))
        )
    )
    accept.start()
    client = secure_client_socket(raw_client, security.client_context("a.example"))
    accept.join(timeout=20)
    (server,) = server_side
    try:
        vector = np.arange(1 << 19, dtype=np.uint64)
        frame = (1, "msg", 1, (vector[:10].copy(), vector, "tail"))
        received, got = LinkStats(), []
        reader = threading.Thread(
            target=lambda: got.append(recv_frame(server, stats=received))
        )
        reader.start()
        sent = LinkStats()
        send_frame(client, frame, stats=sent)
        reader.join(timeout=20)
        assert not reader.is_alive()
        assert sent.bytes_sent == received.bytes_received == 4 + len(encode_payload(frame))
        assert np.array_equal(got[0][3][1], vector) and got[0][3][2] == "tail"
    finally:
        client.close()
        server.close()


class _NoWrites:
    def sendall(self, data):
        raise AssertionError("a refused frame must not reach the socket")

    sendmsg = sendall


@pytest.mark.parametrize(
    "payload",
    [
        np.array([object()], dtype=object),
        np.zeros(3, dtype=[("a", "i4"), ("b", "f8")]),
        # Refused although a borrowable array was already encoded before it.
        (np.zeros(BORROW_FLOOR, dtype=np.uint8), np.array([None], dtype=object)),
    ],
    ids=["object", "void", "object-after-borrow"],
)
def test_unsafe_dtypes_are_refused_before_any_byte_is_written(payload):
    with pytest.raises(WireError, match="not expressible"):
        send_frame(_NoWrites(), payload)


def test_a_frame_over_the_cap_is_refused_before_any_byte_is_written(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1 << 16)
    big = np.zeros(1 << 16, dtype=np.uint8)
    with pytest.raises(WireError, match="exceeds"):
        send_frame(_NoWrites(), ("msg", big))
    with pytest.raises(WireError, match="exceeds"):
        encode_frame(("msg", big))
