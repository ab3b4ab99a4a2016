"""Property-based round-trip tests for the wire framing and mesh multiplexing.

Seeded random generation drives the frame codec through the properties
service mode leans on: arbitrary payloads round-trip byte-exactly regardless
of how the stream is chunked; empty and >64 KiB payloads are ordinary
frames; frames of interleaved query ids demultiplex into per-query FIFO
order; and a stream that ends mid-frame is *rejected* as truncated, never
silently dropped.  Hypothesis drives the segment encoder: whatever it
borrows, the joined segments are the one wire format, byte for byte.
"""

import contextlib
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TransportSecurity
from repro.runtime import wire
from repro.runtime.mesh import PeerMesh
from repro.runtime.transport import TransportError
from repro.runtime.wire import (
    BORROW_FLOOR,
    MAX_FRAME_BYTES,
    FrameDecoder,
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


# -- codec round-trips ----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(20))
def test_random_frame_sequences_round_trip_under_random_chunking(case):
    """Any frame sequence decodes identically however the bytes are split."""
    rng = np.random.default_rng(SEED + case)
    frames = [random_payload(rng) for _ in range(int(rng.integers(1, 8)))]
    stream = b"".join(encode_frame(f) for f in frames)

    decoder = FrameDecoder()
    decoded = []
    position = 0
    while position < len(stream):
        step = int(rng.integers(1, max(2, len(stream) // 3)))
        decoded.extend(decoder.feed(stream[position:position + step]))
        position += step
    decoder.eof()  # ended exactly on a frame boundary

    assert len(decoded) == len(frames)
    for got, expected in zip(decoded, frames):
        assert payloads_equal(got, expected)


def test_empty_payload_is_an_ordinary_frame():
    for empty in (b"", "", (), [], {}, None):
        decoder = FrameDecoder()
        (got,) = decoder.feed(encode_frame(empty))
        assert payloads_equal(got, empty)
        decoder.eof()


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

    decoder = FrameDecoder()
    got: dict[int, list] = {qid: [] for qid in expected}
    for kind, qid, payload in decoder.feed(bytes(stream)):
        assert kind == "msg"
        got[qid].append(payload)
    decoder.eof()

    for qid in expected:
        assert len(got[qid]) == len(expected[qid])
        for a, b in zip(got[qid], expected[qid]):
            assert payloads_equal(a, b)


def make_mesh_pair(timeout: float = 5.0) -> tuple[PeerMesh, PeerMesh]:
    """Two connected single-link meshes (parties ``a`` and ``b``)."""
    sock_a, sock_b = socket.socketpair()
    sock_a.settimeout(timeout)
    sock_b.settimeout(timeout)
    return PeerMesh("a", {"b": sock_a}, timeout=timeout), PeerMesh("b", {"a": sock_b}, timeout=timeout)


def test_mesh_channels_isolate_concurrent_queries():
    """Messages of two queries interleaved on one socket reach their channels."""
    mesh_a, mesh_b = make_mesh_pair()
    try:
        rng = np.random.default_rng(SEED + 1)
        sent: dict[int, list] = {1: [], 2: []}
        for i in range(40):
            qid = int(rng.integers(1, 3))
            message = ("round", qid, i)
            sent[qid].append(message)
            mesh_b.channel(qid).send_message("a", message)
        for qid in (1, 2):
            channel = mesh_a.channel(qid)
            for expected in sent[qid]:
                assert channel.receive_message("b") == expected
        # Tables travel the same multiplexed link, checked by relation name.
        mesh_b.channel(9).send_table("a", "rel", {"rows": 3})
        assert mesh_a.channel(9).receive_table("b", "rel") == {"rows": 3}
        with pytest.raises(TransportError, match="diverged"):
            mesh_b.channel(9).send_table("a", "other", {"rows": 1})
            mesh_a.channel(9).receive_table("b", "rel")
    finally:
        mesh_a.close()
        mesh_b.close()


def test_channel_abort_poisons_only_that_query():
    mesh_a, mesh_b = make_mesh_pair()
    try:
        mesh_b.channel(5).send_message("a", "alive")
        mesh_b.channel(3).abort("boom at b")
        # Query 3 fails immediately — existing and future receives alike.
        with pytest.raises(TransportError, match="aborted query 3"):
            mesh_a.channel(3).receive_message("b")
        with pytest.raises(TransportError, match="aborted query 3"):
            mesh_a.channel(3).receive_table("b", "rel")
        # Query 5 is untouched.
        assert mesh_a.channel(5).receive_message("b") == "alive"
    finally:
        mesh_a.close()
        mesh_b.close()


def test_released_query_drops_late_frames_instead_of_accumulating():
    """Frames racing a channel release are discarded — a long-lived mesh
    must not grow per-finished-query state (the slow-leak regression)."""
    mesh_a, mesh_b = make_mesh_pair()
    try:
        channel = mesh_a.channel(4)
        mesh_b.channel(4).send_message("a", "consumed")
        assert channel.receive_message("b") == "consumed"
        channel.close()  # query finished; id 4 is released
        mesh_b.channel(4).send_message("a", "late")
        mesh_b.channel(4).abort("late abort")
        # A later frame on the same link proves the earlier ones were read.
        mesh_b.channel(6).send_message("a", "fresh")
        assert mesh_a.channel(6).receive_message("b") == "fresh"
        assert not [k for k in mesh_a._queues if k[1] == 4]
        assert not [k for k in mesh_a._aborted if k[1] == 4]
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
        decoder = FrameDecoder()
        decoder.feed(stream[:cut])
        if cut in boundaries:
            decoder.eof()  # clean boundary: no truncation
        else:
            with pytest.raises(WireError, match="truncated"):
                decoder.eof()


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
    decoder = FrameDecoder()
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(WireError, match="corrupt"):
        decoder.feed(header + b"xxxx")


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


def reference_ndarray_payload(arr: np.ndarray) -> bytes:
    """The format of a bare array, written out independently of the codec:
    magic, tag, dtype string, rank, dims, byte count, C-order bytes."""
    spec = arr.dtype.str.encode()
    data = arr.tobytes(order="C")
    dims = b"".join(varint(d) for d in arr.shape)
    return (
        b"\xc7\x0e" + varint(len(spec)) + spec + varint(arr.ndim) + dims
        + varint(len(data)) + data
    )


#: One dtype (or more) of every kind in ``_SAFE_DTYPE_KINDS``.
DTYPES = ["?", "i1", "<i4", ">i8", "u8", "<f4", ">f8", "c8", "m8[s]", "M8[D]", "S3", "U2"]


@st.composite
def arrays(draw):
    """0-3 dimensions, sides 0-5, C / Fortran / strided / reversed layout."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    count = int(np.prod(shape, dtype=np.int64))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "strided" and arr.ndim:
        return arr[::2]
    if layout == "reversed" and arr.ndim:
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


def test_safe_dtype_kinds_are_all_generated():
    assert {np.dtype(d).kind for d in DTYPES} == set(wire._SAFE_DTYPE_KINDS)


@given(arr=arrays())
@settings(max_examples=150, deadline=None)
def test_a_bare_array_is_the_one_format_borrowed_or_copied(arr):
    expected = reference_ndarray_payload(arr)
    assert copied_payload(arr) == expected
    with borrow_floor(1):
        segments = encode_segments(arr)
    assert b"".join(segments) == expected
    # Borrowed: codec bytes, then a view of the data, then nothing more.
    assert len(segments) == (3 if arr.nbytes else 1)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_joined_segments_equal_the_copied_payload(data):
    """Nested in containers and repeated (the memo's back-references), with
    the floor low enough that small arrays are borrowed too."""
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
        # The repeat of ``arr`` is a back-reference, not a second borrow.
        assert len(segments) == 3
        assert np.shares_memory(np.frombuffer(segments[1], dtype=np.uint8), arr)


_SHARED = np.array([1, -2], dtype="<i4")

#: Payloads and their bytes as encoded before segments existed.
GOLDEN = [
    ((7, "msg", 3, np.array([1, 2**63, 3], dtype=np.uint64)),
     "c70a0403010706036d73670301030e033c7538010318010000000000000000000000000000800300000000000000"),
    ({"a": _SHARED, "b": [_SHARED, (_SHARED,)]},
     "c70b020601610e033c693401020801000000feffffff060162090213010a011301"),
    (np.asfortranarray(np.arange(6, dtype=">f4").reshape(2, 3)),
     "c70e033e663402020318000000003f80000040000000404000004080000040a00000"),
    (np.arange(10, dtype=np.int16)[1::3], "c70e033c6932010306010004000700"),
    (np.array(["2026-10-01", "1970-01-01"], dtype="M8[D]"),
     "c70e063c4d385b445d010210f7500000000000000000000000000000"),
    (np.array(["ab", "c"], dtype="U2"), "c70e033c553201021061000000620000006300000000000000"),
    (np.empty((2, 0), dtype=np.complex64), "c70e033c633802020000"),
    (np.array(True), "c70e037c6231000101"),
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
    sent = [np.arange(5000, dtype=np.uint64), np.arange(3, dtype=np.int8),
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
    # Decoded arrays are copied out: none pins or aliases the frame buffer.
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
