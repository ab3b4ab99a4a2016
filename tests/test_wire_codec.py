"""Property tests for the self-describing wire codec and wire-layer bugfixes.

Mirrors :mod:`tests.test_wire_props` (seeded generation, no external
property-testing dependency) but targets the codec layer itself: every
frame kind the runtime ships round-trips byte-exactly (including >64 KiB
NumPy payloads, repro dataclasses, enums, exception envelopes, shared
references and cycles), truncated or corrupted codec payloads are rejected
with :class:`WireError` rather than silently misdecoded, and a payload that
is not a codec payload — a pickle, say — is a :class:`WireError` too.

Also holds the regression tests for the three wire-layer bugfixes:

* decoding an exception envelope must never *import* a module while
  resolving the exception class — hostile frames naming an importable
  module used to trigger its import side effects on every party;
* ``send_torn_frame`` must always leave the receiver genuinely mid-frame
  (header plus at least one payload byte, never the whole frame) and
  refuse frames too small to tear — tiny frames used to send the header
  only;
* ``mesh._endpoint`` must not silently rewrite a bare advertised port to
  loopback, where the silent rewrite dialled the wrong machine: an
  advertised address is a ``(host, port)`` pair or a :class:`WireError`.
"""

import pickle
import socket
import sys
import threading

import numpy as np
import pytest

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.runtime.mesh import _endpoint
from repro.runtime.transport import TransportError
from repro.runtime.wire import (
    CODEC_MAGIC,
    FrameDecoder,
    UnsupportedPayload,
    WireError,
    decode_payload,
    encode_frame,
    encode_payload,
    recv_frame,
    send_torn_frame,
)

SEED = 20260808


def roundtrip(obj):
    data = encode_payload(obj)
    assert data[0] == CODEC_MAGIC
    return decode_payload(data)


def deep_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            deep_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and set(a) == set(b)
            and all(deep_equal(a[k], b[k]) for k in a)
        )
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return type(a) is type(b) and a == b


# -- round-trips of every frame kind ---------------------------------------------------------


PRIMITIVES = [
    None, True, False, 0, 1, -1, 2**80, -(2**80), 0.0, -1.5, float("inf"),
    complex(1.5, -2.5), "", "héllo wörld", "x" * 5000, b"", b"\x00\xff" * 300,
    [], (), {}, set(), frozenset(), [1, [2, [3]]], (1, (2, (3,))),
    {"k": 1, 2: "v", None: (1, 2)}, {1, 2, 3}, frozenset({"a", "b"}),
]


@pytest.mark.parametrize("value", PRIMITIVES, ids=[repr(v)[:30] for v in PRIMITIVES])
def test_primitive_round_trips(value):
    assert deep_equal(roundtrip(value), value)


def test_nan_round_trips():
    got = roundtrip(float("nan"))
    assert isinstance(got, float) and got != got


def test_bytearray_round_trips():
    got = roundtrip(bytearray(b"abc"))
    assert isinstance(got, bytearray) and got == b"abc"


@pytest.mark.parametrize("case", range(10))
def test_random_ndarrays_round_trip(case):
    rng = np.random.default_rng(SEED + case)
    dtype = rng.choice(["int64", "uint64", "int32", "float64", "complex128", "bool"])
    shape = tuple(int(rng.integers(0, 7)) for _ in range(int(rng.integers(0, 4))))
    arr = (rng.integers(-100, 100, size=shape) if dtype != "bool"
           else rng.integers(0, 2, size=shape)).astype(dtype)
    got = roundtrip(arr)
    assert deep_equal(got, arr)


def test_large_ndarray_round_trips():
    """Arrays well past one 64 KiB socket buffer are ordinary payloads."""
    rng = np.random.default_rng(SEED)
    arr = rng.integers(0, 2**63, size=(1 << 14,), dtype=np.uint64)  # 128 KiB
    assert arr.nbytes > (1 << 16)
    assert deep_equal(roundtrip(arr), arr)


def test_non_contiguous_and_zero_dim_arrays():
    base = np.arange(24, dtype=np.int64).reshape(4, 6)
    views = [base[:, ::2], base.T, np.array(7, dtype=np.int64)]
    for view in views:
        got = roundtrip(view)
        assert got.shape == view.shape and np.array_equal(got, view)


def test_numpy_scalars_round_trip():
    for scalar in (np.int64(-9), np.uint64(2**63), np.float64(1.25),
                   np.bool_(True), np.datetime64("2026-08-08")):
        got = roundtrip(scalar)
        assert got == scalar and got.dtype == scalar.dtype


def test_repro_dataclasses_and_enums_round_trip():
    table = Table(Schema([ColumnDef("k"), ColumnDef("v", ColumnType.FLOAT)]),
                  [np.arange(5), np.arange(5) * 0.5])
    got = roundtrip({"outputs": {"out": table}, "type": ColumnType.FLOAT})
    out = got["outputs"]["out"]
    assert type(out) is Table
    assert out.schema.names == table.schema.names
    assert sorted(out.rows()) == sorted(table.rows())
    assert got["type"] is ColumnType.FLOAT


def test_exception_envelopes_round_trip():
    exc = TransportError("mesh link died")
    exc.party = "P1"
    got = roundtrip(("error", 7, exc, "traceback..."))
    assert type(got[2]) is TransportError
    assert got[2].args == ("mesh link died",)
    assert got[2].party == "P1"
    builtin = roundtrip(TimeoutError("t", 42))
    assert type(builtin) is TimeoutError and builtin.args == ("t", 42)


def test_unresolvable_exception_decodes_to_runtimeerror():
    """An exception class the receiver cannot resolve (without importing
    anything) degrades to a descriptive RuntimeError, never an import."""
    data = bytearray(encode_payload(ValueError("x")))
    # Rewrite the module string "builtins" to an equal-length name that is
    # certainly not loaded.
    idx = bytes(data).find(b"builtins")
    data[idx:idx + 8] = b"evil_mod"
    got = decode_payload(bytes(data))
    assert isinstance(got, RuntimeError)
    assert "evil_mod" in str(got)
    assert "evil_mod" not in sys.modules


def test_shared_references_are_preserved():
    shared = [1, 2, 3]
    arr = np.arange(4)
    obj = {"a": shared, "b": shared, "t": (shared, arr), "u": [arr]}
    got = roundtrip(obj)
    assert got["a"] is got["b"] is got["t"][0]
    assert got["t"][1] is got["u"][0]


def test_cycles_round_trip():
    cyc = {"name": "root"}
    cyc["self"] = cyc
    lst = [cyc]
    cyc["list"] = lst
    got = roundtrip(cyc)
    assert got["self"] is got
    assert got["list"][0] is got


def test_mesh_frame_shapes_round_trip():
    frames = [
        (3, "msg", 1, ("P1", "P2", ("open-share", np.arange(9, dtype=np.uint64)), 72)),
        (4, "table", 2, ("rel", Table(Schema([ColumnDef("x")]), [np.arange(3)]))),
        (5, "abort", 1, "executor failed"),
        ("hello", "P1", "a" * 32),
        ("rejoin-hello", "P2", 3, "a" * 32),
    ]
    decoder = FrameDecoder()
    blob = b"".join(encode_frame(f) for f in frames)
    got = decoder.feed(blob)
    decoder.eof()
    assert len(got) == len(frames)
    for sent, received in zip(frames, got):
        assert type(received) is tuple and len(received) == len(sent)


# -- corruption and truncation rejection -----------------------------------------------------


@pytest.mark.parametrize("case", range(10))
def test_truncated_codec_payloads_are_rejected(case):
    rng = np.random.default_rng(SEED + case)
    payload = encode_payload({"k": list(range(50)), "arr": np.arange(100)})
    cut = int(rng.integers(1, len(payload) - 1))
    with pytest.raises(WireError):
        decode_payload(payload[:cut])


def test_trailing_bytes_are_rejected():
    with pytest.raises(WireError, match="trailing"):
        decode_payload(encode_payload([1, 2]) + b"\x00")


def test_unknown_tag_is_rejected():
    with pytest.raises(WireError, match="unknown tag"):
        decode_payload(bytes([CODEC_MAGIC, 0x7E]))


def test_dangling_memo_reference_is_rejected():
    with pytest.raises(WireError, match="memo"):
        decode_payload(bytes([CODEC_MAGIC, 0x13, 0x05]))


def test_object_dtype_is_rejected_both_ways():
    with pytest.raises(UnsupportedPayload):
        encode_payload(np.array([object()], dtype=object))
    # A forged frame claiming an object dtype must be refused at decode.
    forged = bytearray(encode_payload(np.arange(2)))
    idx = bytes(forged).find(b"<i8")
    forged[idx:idx + 3] = b"|O8"
    with pytest.raises(WireError):
        decode_payload(bytes(forged))


def test_non_repro_class_is_rejected_both_ways():
    class Outside:
        pass

    with pytest.raises(WireError, match="not expressible in the wire codec"):
        encode_frame(Outside())
    # A forged OBJ frame naming a non-repro class must be refused at decode.
    table = Table(Schema([ColumnDef("x")]), [np.arange(2)])
    forged = bytes(encode_payload(table)).replace(b"repro.data.table", b"subprocess.abcde")
    with pytest.raises(WireError, match="non-repro"):
        decode_payload(forged)


def test_a_pickle_payload_is_not_a_codec_payload():
    """Whatever a payload's first byte is, only ``0xC7`` is ever decoded."""
    data = pickle.dumps({"k": 1}, protocol=pickle.HIGHEST_PROTOCOL)
    for payload in (data, b"", b"\x00", bytes([CODEC_MAGIC ^ 0xFF]) + data):
        with pytest.raises(WireError, match="not a codec frame"):
            decode_payload(payload)


# -- bugfix regression: exception envelopes must not import modules --------------------------


class TestExceptionEnvelopesNeverImport:
    def _envelope(self, module: str, name: str) -> bytes:
        """A codec exception envelope naming ``module.name``, as a hostile
        frame would carry it (equal-length rewrite of a genuine envelope)."""
        genuine = encode_payload(ValueError("x"))
        forged = genuine.replace(b"\x08builtins", bytes([len(module)]) + module.encode())
        return forged.replace(b"\x0aValueError", bytes([len(name)]) + name.encode())

    def test_unloaded_module_is_never_imported(self, tmp_path, monkeypatch):
        """Resolving an exception class must consult sys.modules only —
        naming an importable-but-unloaded module must not import it (the
        pre-fix decoder ran the module's top-level code here)."""
        marker = tmp_path / "imported.marker"
        mod_name = "wire_codec_hostile_mod"
        (tmp_path / f"{mod_name}.py").write_text(
            "from pathlib import Path\n"
            f"Path({str(marker)!r}).write_text('imported')\n"
            "class Boom(Exception):\n    pass\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        sys.modules.pop(mod_name, None)
        got = decode_payload(self._envelope(mod_name, "Boom"))
        assert isinstance(got, RuntimeError) and mod_name in str(got)
        assert mod_name not in sys.modules
        assert not marker.exists(), "hostile frame triggered a module import"

    def test_loaded_module_exception_still_resolves(self):
        got = decode_payload(self._envelope("builtins", "TimeoutError"))
        assert type(got) is TimeoutError and got.args == ("x",)

    def test_loaded_module_non_exception_is_never_instantiated(self):
        got = decode_payload(self._envelope("threading", "Thread"))
        assert isinstance(got, RuntimeError) and "threading.Thread" in str(got)


# -- bugfix regression: send_torn_frame must tear inside the payload -------------------------


class TestSendTornFrame:
    def test_tiny_frame_raises_instead_of_sending_header_only(self):
        """A frame with a 1-byte payload cannot be torn mid-payload; the
        pre-fix code sent the 4-byte header only and returned."""
        a, b = socket.socketpair()
        try:
            with pytest.raises(WireError, match="too small to tear"):
                send_torn_frame(a, b"\x00\x00\x00\x01X")
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.6, 0.99, 1.0])
    def test_cut_always_lands_inside_the_payload(self, fraction):
        frame = encode_frame({"k": np.arange(64)})
        full = len(frame)
        a, b = socket.socketpair()
        try:
            sent = send_torn_frame(a, frame, fraction)
            assert 5 <= sent <= full - 1, "tear must keep >=1 and omit >=1 payload byte"
            a.close()
            b.settimeout(5.0)
            with pytest.raises(WireError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_receiver_is_inside_the_frame_even_for_minimal_frames(self):
        a, b = socket.socketpair()
        try:
            sent = send_torn_frame(a, b"\x00\x00\x00\x02XY")
            assert sent == 5  # header + exactly one of the two payload bytes
            a.close()
            b.settimeout(5.0)
            with pytest.raises(WireError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()


# -- bugfix regression: _endpoint must not silently assume loopback --------------------------


class TestEndpointNormalisation:
    @pytest.mark.parametrize("bad", [4000, "a1", None, ("10.0.0.7",), ("h", 1, 2), ("h", "x")])
    def test_anything_but_a_host_port_pair_raises(self, bad):
        """Pre-fix, a stale bare-port hello on a routable session silently
        dialled 127.0.0.1 — the wrong machine."""
        with pytest.raises(WireError, match="not a \\(host, port\\) endpoint"):
            _endpoint(bad)

    def test_full_endpoints_pass_through(self):
        assert _endpoint(("10.0.0.7", 4000)) == ("10.0.0.7", 4000)
        assert _endpoint(["192.168.1.9", 81]) == ("192.168.1.9", 81)
