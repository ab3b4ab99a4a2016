"""Property tests for the mesh layout: the one format of agent-to-agent frames.

After the hello, a mesh link carries ``msg`` and ``abort`` frames in one
closed, flat layout (``repro.runtime.wire``, "mesh frames").
Hypothesis drives it through the properties the runtime leans on:

* every kind and form round-trips — no payload, one array, a tuple of
  arrays (the empty tuple included), zero-length and non-contiguous arrays
  of every admitted dtype, non-ASCII strings — and the bytes are the same
  whether large buffers are borrowed or copied;
* decoded arrays are aligned, writable views of the frame's own buffer;
* every strict prefix, trailing bytes, an unknown kind / form / dtype code
  and an element count past the end are :class:`WireError`\\ s, and a
  payload outside the layout is refused at the sender before a byte moves;
* a live mesh link that receives anything else — a valid ``0xC7`` codec
  frame, a pickle — marks its peer closed;
* the layout crosses plain and TLS sockets (``SecureSocket.sendmsg``) alike.
"""

import contextlib
import os
import pickle
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TransportSecurity
from repro.runtime import wire
from repro.runtime.mesh import PeerMesh
from repro.runtime import TransportError
from repro.runtime.wire import (
    BORROW_FLOOR,
    KIND_ABORT,
    KIND_MSG,
    MESH_DTYPES,
    MESH_MAGIC,
    LinkStats,
    UnsupportedPayload,
    WireError,
    decode_mesh_payload,
    encode_mesh_frame,
    recv_mesh_frame,
    secure_client_socket,
    secure_server_socket,
    send_frame,
    send_mesh_frame,
)

# -- strategies ------------------------------------------------------------------------------


@st.composite
def arrays(draw, dtypes=MESH_DTYPES, max_size=40):
    """One-dimensional arrays of an admitted dtype, any bit pattern, in a
    contiguous, strided or reversed layout."""
    dtype = draw(st.sampled_from(dtypes))
    count = draw(st.integers(0, max_size))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).copy()
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed"]))
    if layout == "strided":
        return arr[::2]
    if layout == "reversed":
        return arr[::-1]
    return arr


bodies = st.none() | arrays() | st.lists(arrays(), max_size=4).map(tuple)
ids = st.integers(0, 2**64 - 1)
texts = st.text(max_size=12)


@st.composite
def frames(draw):
    """``(seq, kind, query_id, payload)`` of any kind and form."""
    kind = draw(st.sampled_from([KIND_MSG, KIND_ABORT]))
    if kind == KIND_MSG:
        payload = (draw(texts), draw(bodies))
    else:
        payload = draw(st.text(max_size=40))
    return draw(ids), kind, draw(ids), payload


# -- helpers ---------------------------------------------------------------------------------


@contextlib.contextmanager
def borrow_floor(nbytes):
    """Encode with another borrow floor (the writer reads it per array)."""
    saved = wire.BORROW_FLOOR
    wire.BORROW_FLOOR = nbytes
    try:
        yield
    finally:
        wire.BORROW_FLOOR = saved


def payload_of(frame) -> bytes:
    """The encoded payload of ``frame`` (its bytes after the length header)."""
    data = encode_mesh_frame(*frame)
    assert int.from_bytes(data[:4], "big") == len(data) - 4
    return data[4:]


def arrays_in(payload, kind):
    if kind == KIND_MSG:
        body = payload[1]
        return [] if body is None else list(body) if isinstance(body, tuple) else [body]
    return []


def same_array(got: np.ndarray, sent: np.ndarray) -> bool:
    """Equal dtype, length and bytes (NaN payloads included)."""
    return got.dtype == sent.dtype and got.shape == sent.shape and got.tobytes() == sent.tobytes()


def assert_same_frame(got, sent):
    seq, kind, query_id, payload = sent
    assert got[:3] == (seq, kind, query_id)
    if kind == KIND_MSG:
        tag, body = payload
        assert got[3][0] == tag
        if isinstance(body, tuple):
            assert isinstance(got[3][1], tuple) and len(got[3][1]) == len(body)
        elif body is None:
            assert got[3][1] is None
        else:
            assert isinstance(got[3][1], np.ndarray)
    else:
        assert got[3] == payload
    sent_arrays, got_arrays = arrays_in(payload, kind), arrays_in(got[3], kind)
    assert len(got_arrays) == len(sent_arrays)
    for a, b in zip(got_arrays, sent_arrays):
        assert same_array(a, b)


# -- round trips -----------------------------------------------------------------------------


@given(frame=frames(), floor=st.sampled_from([1, 8, BORROW_FLOOR]))
@settings(max_examples=300, deadline=None)
def test_every_kind_and_form_round_trips_and_borrowing_changes_no_byte(frame, floor):
    data = payload_of(frame)
    assert data[0] == MESH_MAGIC
    with borrow_floor(floor):
        borrowed = encode_mesh_frame(*frame)
    assert borrowed[4:] == data
    assert_same_frame(decode_mesh_payload(data), frame)


@given(frame=frames())
@settings(max_examples=150, deadline=None)
def test_decoded_arrays_are_aligned_writable_views_of_the_frame(frame):
    got = decode_mesh_payload(payload_of(frame))
    decoded = arrays_in(got[3], got[1])
    for i, arr in enumerate(decoded):
        assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous
        arr[...] = 0  # writable, and a write reaches no other decoded array
        assert not any(np.shares_memory(arr, other) for other in decoded[i + 1:])
    # Views of the frame's one buffer, not per-array copies.
    assert not any(arr.flags.owndata for arr in decoded)
    assert len({id(arr.base) for arr in decoded}) <= 1


def test_every_admitted_dtype_and_no_other():
    for dtype in MESH_DTYPES:
        arr = np.arange(5).astype(dtype)
        (_, _, _, (_, got)) = decode_mesh_payload(payload_of((1, KIND_MSG, 1, ("t", arr))))
        assert same_array(got, arr)
    for dtype in (">u8", "<i4", "?", "<f4", "<u2", "O", "U2"):
        arr = np.zeros(2, dtype=dtype)
        with pytest.raises(UnsupportedPayload):
            encode_mesh_frame(1, KIND_MSG, 1, ("t", arr))


@pytest.mark.parametrize(
    "body",
    [
        None,
        (),
        np.empty(0, dtype=np.uint64),
        (np.empty(0, dtype=np.uint8), np.arange(3, dtype=np.uint64)),
        np.arange(20, dtype=np.int64)[::3],
        np.arange(9, dtype=np.float64)[::-1],
    ],
    ids=["none", "empty-tuple", "zero-length", "tuple-with-empty", "strided", "reversed"],
)
def test_the_edge_forms_round_trip(body):
    got = decode_mesh_payload(payload_of((3, KIND_MSG, 9, ("open-share", body))))
    assert_same_frame(got, (3, KIND_MSG, 9, ("open-share", body)))


def test_non_ascii_tags_and_reasons_round_trip():
    message = (2, KIND_MSG, 5, ("scöre ∑", (np.arange(4), np.linspace(0, 1, 4))))
    assert_same_frame(decode_mesh_payload(payload_of(message)), message)
    reason = "ValueError: 合計 overflowed — naïve ∑"
    assert decode_mesh_payload(payload_of((5, KIND_ABORT, 5, reason)))[3] == reason


def test_derivable_fields_are_not_on_the_wire():
    """A two-slice ``msg`` is the header, the tag and the two buffers with
    their dtype codes, counts and padding: no party names, no byte count."""
    a, b = np.arange(3, dtype=np.uint64), np.arange(3, 6, dtype=np.uint64)
    data = payload_of((1, KIND_MSG, 2, ("open-share", (a, b))))
    assert data.hex() == (
        "4d" "01" "01" "02"  # magic, kind msg, seq, query id
        "0a" + b"open-share".hex() + "02" "02"  # tag, tuple form, two arrays
        "00" "03" "0000000000"  # <u8, three elements, padding to offset 24
        + a.tobytes().hex()
        + "00" "03" "000000000000"  # <u8, three elements, padding to offset 56
        + b.tobytes().hex()
    )


# -- rejection -------------------------------------------------------------------------------


@given(frame=frames())
@settings(max_examples=100, deadline=None)
def test_every_strict_prefix_and_any_trailing_byte_is_a_wire_error(frame):
    data = payload_of(frame)
    for cut in range(len(data)):
        with pytest.raises(WireError):
            decode_mesh_payload(data[:cut])
    for extra in (b"\x00", b"\x4d", bytes(8)):
        with pytest.raises(WireError, match="trailing"):
            decode_mesh_payload(data + extra)


def _msg(form: int, rest: bytes = b"") -> bytes:
    return bytes([MESH_MAGIC, 1, 1, 1, 1]) + b"t" + bytes([form]) + rest


@pytest.mark.parametrize(
    "data, why",
    [
        (b"", "not a mesh frame"),
        (bytes([0xC7, 1, 1, 1]), "not a mesh frame"),
        (bytes([MESH_MAGIC, 0, 1, 1]), "unknown frame kind"),
        (bytes([MESH_MAGIC, 3, 1, 1]), "unknown frame kind"),
        (_msg(3), "unknown payload form"),
        (_msg(1, bytes([4, 0])), "unknown dtype code"),
        (_msg(1, bytes([0, 2]) + bytes(1) + bytes(15)), "overruns"),
        (_msg(1, bytes([1, 200, 1]) + bytes(7) + bytes(10)), "overruns"),
        (_msg(2, bytes([0xFF, 0x7F])), "overruns"),
        (_msg(1, bytes([0, 1, 0, 9, 0, 0, 0, 0, 0]) + bytes(8)), "padding"),
        (bytes([MESH_MAGIC, 2, 1, 1, 2]) + b"\xff\xfe", "utf-8"),
        (bytes([MESH_MAGIC, 2]) + b"\xff" * 10 + b"\x01", "overflow"),
    ],
    ids=[
        "empty", "codec-magic", "kind-0", "kind-3", "form", "dtype", "count-overrun",
        "varint-count-overrun", "tuple-count", "nonzero-padding", "bad-utf8", "varint",
    ],
)
def test_malformed_payloads_are_wire_errors(data, why):
    with pytest.raises(WireError, match=why):
        decode_mesh_payload(data)


class _NoWrites:
    def sendall(self, data):
        raise AssertionError("a refused frame must not reach the socket")

    sendmsg = sendall


@pytest.mark.parametrize(
    "kind, payload",
    [
        (KIND_MSG, ("t", "a string")),
        (KIND_MSG, ("t", [np.zeros(2, dtype=np.uint64)])),
        (KIND_MSG, ("t", {"k": np.zeros(2, dtype=np.uint64)})),
        (KIND_MSG, ("t", np.zeros((2, 2), dtype=np.uint64))),
        (KIND_MSG, ("t", np.uint64(3))),
        (KIND_MSG, (b"bytes-tag", None)),
        # Refused although a borrowable array was already written before it.
        (KIND_MSG, ("t", (np.zeros(BORROW_FLOOR, dtype=np.uint8), np.zeros(1, dtype=object)))),
        (KIND_ABORT, ValueError("not a string")),
        ("hello", ("t", None)),
    ],
    ids=[
        "str-body", "list-body", "dict-body", "2-d", "scalar", "bytes-tag", "object-after-borrow",
        "abort-object", "unknown-kind",
    ],
)
def test_payloads_outside_the_layout_are_refused_at_the_sender(kind, payload):
    with pytest.raises(UnsupportedPayload):
        send_mesh_frame(_NoWrites(), 1, kind, 1, payload)


def test_a_frame_over_the_cap_is_refused_before_any_byte_is_written(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1 << 16)
    big = np.zeros(1 << 16, dtype=np.uint8)
    with pytest.raises(WireError, match="exceeds"):
        send_mesh_frame(_NoWrites(), 1, KIND_MSG, 1, ("t", big))


# -- sockets ---------------------------------------------------------------------------------


def test_frames_cross_a_socket_whole_and_are_counted_on_both_ends():
    left, right = socket.socketpair()
    try:
        left.settimeout(20)
        right.settimeout(20)
        vector = np.arange(1 << 18, dtype=np.uint64)  # borrowed: over the floor
        flags = np.packbits(vector[:77] & 1)
        sent = [
            (1, KIND_MSG, 3, ("open-share", (vector[:10].copy(), vector))),
            (2, KIND_MSG, 3, ("open-flags", flags)),
            (3, KIND_MSG, 3, ("rel", (np.arange(2), np.ones(2)))),
            (4, KIND_ABORT, 3, "gone"),
        ]
        received, got = LinkStats(), []
        reader = threading.Thread(
            target=lambda: got.extend(recv_mesh_frame(right, stats=received) for _ in sent)
        )
        reader.start()
        stats = LinkStats()
        for frame in sent:
            send_mesh_frame(left, *frame, stats=stats)
        reader.join(timeout=20)
        assert not reader.is_alive()
        for frame_in, frame_out in zip(got, sent):
            assert_same_frame(frame_in, frame_out)
        size = sum(len(encode_mesh_frame(*frame)) for frame in sent)
        assert stats.bytes_sent == received.bytes_received == size
        assert stats.frames_sent == received.frames_received == len(sent)
    finally:
        left.close()
        right.close()


def test_idle_timeout_is_distinguished_from_mid_frame_death():
    left, right = socket.socketpair()
    try:
        right.settimeout(0.05)
        with pytest.raises(TimeoutError):
            recv_mesh_frame(right, allow_idle_timeout=True)
        left.sendall(encode_mesh_frame(1, KIND_ABORT, 1, "cut")[:6])
        with pytest.raises(WireError, match="mid-frame"):
            recv_mesh_frame(right, allow_idle_timeout=True)
    finally:
        left.close()
        right.close()


def test_mesh_frames_cross_a_secure_socket_pair(tmp_path):
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
        vector = np.arange(1 << 18, dtype=np.uint64)
        frame = (1, KIND_MSG, 1, ("open-share", (vector[:10].copy(), vector, np.empty(0, np.uint8))))
        got = []
        reader = threading.Thread(target=lambda: got.append(recv_mesh_frame(server)))
        reader.start()
        send_mesh_frame(client, *frame)
        reader.join(timeout=20)
        assert not reader.is_alive()
        assert_same_frame(got[0], frame)
        # A whole mesh over the secured pair: the channels see the same frames.
        mesh_a = PeerMesh("a.example", {"b.example": client}, timeout=10.0)
        mesh_b = PeerMesh("b.example", {"a.example": server}, timeout=10.0)
        mesh_a.channel(2).send_message("b.example", "reveal-share", (vector,))
        tag, (back,) = mesh_b.channel(2).receive_message("a.example")
        assert tag == "reveal-share" and same_array(back, vector)
        mesh_a.close()
        mesh_b.close()
    finally:
        client.close()
        server.close()


# -- a live mesh link refuses anything but the layout ----------------------------------------


class _Evil:
    """Pickles to a call that creates ``path`` — if anything ever unpickles it."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _pickle_frame(obj) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


@pytest.mark.parametrize("foreign", ["codec", "pickle"])
def test_a_foreign_frame_on_a_live_mesh_link_marks_the_peer_closed(foreign, tmp_path):
    marker = tmp_path / "pwned"
    ours, theirs = socket.socketpair()
    mesh = PeerMesh("a", {"b": ours}, timeout=2.0)
    try:
        # A well-formed frame first: the link is live when the foreign one lands.
        send_mesh_frame(theirs, 1, KIND_MSG, 7, ("ok", None))
        assert mesh.channel(7).receive_message("b") == ("ok", None)
        if foreign == "codec":  # a valid 0xC7 frame of the old mesh shape
            send_frame(theirs, (2, KIND_MSG, 7, ("b", "a", ("ok", None), 0)))
        else:
            theirs.sendall(_pickle_frame(_Evil(marker)))
        started = time.monotonic()
        with pytest.raises(TransportError, match="not a mesh frame"):
            mesh.channel(7).receive_message("b")
        assert time.monotonic() - started < 5.0
        assert isinstance(mesh._peer_errors["b"], WireError)
    finally:
        theirs.close()
        mesh.close()
    assert not marker.exists(), "a pickle frame was executed"


def test_a_duplicated_frame_is_delivered_once_and_a_torn_one_closes_the_link():
    """The chaos faults in the layout: a byte-identical repeat carries a used
    sequence number and is discarded; a torn frame is the sender's death."""
    ours, theirs = socket.socketpair()
    mesh = PeerMesh("a", {"b": ours}, timeout=2.0)
    try:
        first = encode_mesh_frame(1, KIND_MSG, 4, ("r1", np.arange(3, dtype=np.uint64)))
        theirs.sendall(first + first)
        theirs.sendall(encode_mesh_frame(2, KIND_MSG, 4, ("r2", None)))
        channel = mesh.channel(4)
        assert channel.receive_message("b")[0] == "r1"
        assert channel.receive_message("b") == ("r2", None)
        wire.send_torn_frame(theirs, encode_mesh_frame(3, KIND_MSG, 4, ("r3", None)))
        theirs.close()
        with pytest.raises(TransportError, match="mid-frame"):
            channel.receive_message("b")
    finally:
        theirs.close()
        mesh.close()
