"""Length-prefixed framing, the self-describing codec and the mesh layout.

Every connection of the distributed runtime — coordinator-to-agent control
links and the agent-to-agent mesh — speaks the same trivial protocol: a
4-byte big-endian length header followed by one encoded payload.  Two
payload layouts exist, and each link speaks exactly one of them at a time:

* control links, and the mesh hellos, speak the **codec** (magic ``0xC7``);
* a mesh link, once its hello is through, speaks the **mesh layout** (magic
  ``0x4D``): one closed, flat binary layout for the three frame kinds
  agents exchange — ``msg``, ``table`` and ``abort`` — written by
  :func:`send_mesh_frame` and read by :func:`recv_mesh_frame` (see the
  "mesh frames" section below).

The codec is a tag-length-value encoding over the *closed* set of types
that legitimately cross the wire: ``None``/bools, ints, floats, complex,
str/bytes/bytearray, lists/tuples/dicts/sets/frozensets, NumPy arrays and
scalars (dtype + shape + raw buffer), instances of classes defined inside
the ``repro`` package (module + qualname + attribute state), enums from the
``repro`` package, and exception envelopes.  Nothing else is expressible,
so arbitrary-object deserialization is structurally impossible: the decoder
builds containers and fills attribute dicts, it never resolves or calls a
global outside the ``repro`` package and the exception allowlist.

Every codec payload starts with the magic byte ``0xC7``; a frame whose
payload starts with anything else, or whose bytes do not decode to exactly
one value of the type set, is a :class:`WireError`.

The codec framing is exposed in two forms:

* :func:`send_frame` / :func:`recv_frame` — the socket-bound pair the
  runtime uses.  A frame is written as *segments* (:func:`encode_segments`):
  the codec bytes plus borrowed views of large array buffers, gathered by
  one ``sendmsg``, so a share vector is never copied on its way to the
  kernel; a frame of small values is one buffer and one ``sendall``.  The
  payload is read into one preallocated buffer and decoded arrays are
  copied out of it.  ``recv_frame(..., allow_idle_timeout=True)`` lets a serving
  agent distinguish "no frame started yet" (the socket timed out while the
  stream sat idle between frames — re-raised as :class:`TimeoutError` so the
  caller can apply an idle policy) from "the stream died mid-frame" (always
  a :class:`WireError`).
* :func:`encode_frame` / :class:`FrameDecoder` — the same protocol over
  plain bytes (the segments joined), so framing properties (round-trips,
  interleaving, truncation rejection) are testable without sockets and the
  decoder can be reused by future non-socket transports.

TLS support lives here too: :func:`secure_server_socket` /
:func:`secure_client_socket` wrap an accepted/dialled socket with a context
built by :class:`repro.core.config.TransportSecurity`, and
:func:`peer_common_name` extracts the authenticated identity (the
certificate CN) that hello verification checks party ids against.
"""

from __future__ import annotations

import importlib
import socket
import struct
import sys
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema

if TYPE_CHECKING:  # pragma: no cover - SecureSocket imports it where TLS runs
    import ssl

#: Upper bound on a single frame; a frame larger than this indicates stream
#: corruption (e.g. a desynchronised header), not a legitimate payload.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")

#: First byte of every frame payload.
CODEC_MAGIC = 0xC7


class WireError(ConnectionError):
    """A connection failed mid-frame or produced a corrupt frame."""


class UnsupportedPayload(TypeError):
    """A payload contains an object outside the codec's closed type set."""


def _resolve_exception_class(module: str, name: str) -> type | None:
    """Resolve ``module.name`` to an exception class without importing.

    Only modules that are *already loaded* (``sys.modules``) are consulted —
    a hostile frame naming an importable-but-unloaded module must not be
    able to trigger that module's import side effects on every party.
    """
    mod = sys.modules.get(module)
    if mod is None:
        return None
    obj: object = mod
    for part in name.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return obj
    return None


# --------------------------------------------------------------------------
# the wire codec: tag-length-value over the closed frame-payload type set
# --------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_COMPLEX = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_BYTEARRAY = 0x08
_T_LIST = 0x09
_T_TUPLE = 0x0A
_T_DICT = 0x0B
_T_SET = 0x0C
_T_FROZENSET = 0x0D
_T_NDARRAY = 0x0E
_T_NPSCALAR = 0x0F
_T_OBJ = 0x10
_T_ENUM = 0x11
_T_EXC = 0x12
_T_REF = 0x13

_FLOAT_STRUCT = struct.Struct(">d")
_COMPLEX_STRUCT = struct.Struct(">dd")

#: An array of at least this many bytes is not copied into the codec bytes:
#: the encoder emits a borrowed view of the array's own buffer as a segment
#: of its own.  Below it a copy is cheaper than one more ``sendmsg`` buffer,
#: and frames of small values stay a single buffer and a single ``sendall``.
BORROW_FLOOR = 1 << 14

#: Buffers handed to one ``sendmsg`` call (POSIX guarantees ``IOV_MAX`` >= 16;
#: Linux allows 1024).
_SENDMSG_BUFFERS = 512

#: dtype kinds the codec will carry: booleans, signed/unsigned ints, floats,
#: complex, timedelta/datetime, and fixed-width byte/unicode strings.  The
#: object ('O') and structured-void ('V') kinds are rejected — they smuggle
#: arbitrary Python objects or lose field metadata.
_SAFE_DTYPE_KINDS = frozenset("biufcmMSU")


def _write_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:  # most varints: one byte
        out.append(value)
        return
    if value < 0:
        raise UnsupportedPayload("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out.extend(data)


class _Encoder:
    """Encodes one payload as *segments*: codec bytes interleaved with
    borrowed views of large array buffers; their concatenation is the
    payload."""

    def __init__(self) -> None:
        self.out = bytearray((CODEC_MAGIC,))
        #: Segments completed so far; ``out`` collects the codec bytes after
        #: the last borrowed view.
        self.segments: list = []
        self.memo: dict[int, int] = {}
        # Keeps memoised objects alive so id() values cannot be recycled
        # mid-encode (a freed id reused by a new object would alias refs).
        self.memo_objs: list[object] = []

    def _memoise(self, obj: object) -> None:
        self.memo[id(obj)] = len(self.memo_objs)
        self.memo_objs.append(obj)

    def encode(self, obj: object) -> None:
        out = self.out
        if obj is None:
            out.append(_T_NONE)
            return
        if obj is True:
            out.append(_T_TRUE)
            return
        if obj is False:
            out.append(_T_FALSE)
            return
        kind = type(obj)
        if kind is int:
            out.append(_T_INT)
            data = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            _write_varint(out, len(data))
            out.extend(data)
            return
        if kind is float:
            out.append(_T_FLOAT)
            out.extend(_FLOAT_STRUCT.pack(obj))
            return
        if kind is complex:
            out.append(_T_COMPLEX)
            out.extend(_COMPLEX_STRUCT.pack(obj.real, obj.imag))
            return
        if kind is str:
            out.append(_T_STR)
            _write_str(out, obj)
            return
        if kind is bytes:
            out.append(_T_BYTES)
            _write_varint(out, len(obj))
            out.extend(obj)
            return
        ref = self.memo.get(id(obj))
        if ref is not None:
            out.append(_T_REF)
            _write_varint(out, ref)
            return
        if kind is bytearray:
            self._memoise(obj)
            out.append(_T_BYTEARRAY)
            _write_varint(out, len(obj))
            out.extend(obj)
            return
        if kind is list:
            self._memoise(obj)
            out.append(_T_LIST)
            _write_varint(out, len(obj))
            for item in obj:
                self.encode(item)
            return
        if kind is dict:
            self._memoise(obj)
            out.append(_T_DICT)
            _write_varint(out, len(obj))
            for key, value in obj.items():
                self.encode(key)
                self.encode(value)
            return
        if kind is set:
            self._memoise(obj)
            out.append(_T_SET)
            _write_varint(out, len(obj))
            for item in obj:
                self.encode(item)
            return
        if kind is tuple:
            out.append(_T_TUPLE)
            _write_varint(out, len(obj))
            for item in obj:
                self.encode(item)
            self._memoise(obj)
            return
        if kind is frozenset:
            out.append(_T_FROZENSET)
            _write_varint(out, len(obj))
            for item in obj:
                self.encode(item)
            self._memoise(obj)
            return
        if kind is np.ndarray:
            self._encode_ndarray(obj)
            return
        if isinstance(obj, np.generic):
            self._encode_npscalar(obj)
            return
        if isinstance(obj, BaseException):
            self._encode_exception(obj)
            return
        module = getattr(kind, "__module__", "") or ""
        if module == "repro" or module.startswith("repro."):
            import enum as _enum

            if isinstance(obj, _enum.Enum):
                out.append(_T_ENUM)
                _write_str(out, module)
                _write_str(out, kind.__qualname__)
                _write_str(out, obj.name)
                return
            self._encode_repro_instance(obj, module, kind)
            return
        raise UnsupportedPayload(
            f"object of type {module}.{kind.__qualname__} is outside the wire codec's type set"
        )

    def _encode_ndarray(self, arr: np.ndarray) -> None:
        if arr.dtype.kind not in _SAFE_DTYPE_KINDS or arr.dtype.hasobject:
            raise UnsupportedPayload(f"ndarray dtype {arr.dtype!r} is not wire-safe")
        out = self.out
        out.append(_T_NDARRAY)
        _write_str(out, arr.dtype.str)
        _write_varint(out, arr.ndim)
        for dim in arr.shape:
            _write_varint(out, dim)
        if arr.nbytes < BORROW_FLOOR:
            data = arr.tobytes()
            _write_varint(out, len(data))
            out.extend(data)
        else:
            # The raw C-order buffer as bytes, whatever the dtype (the buffer
            # protocol itself refuses datetimes); no copy for a contiguous
            # array.  The view keeps the array alive; ``out`` is emptied in
            # place because callers up the recursion hold a reference to it.
            data = memoryview(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
            _write_varint(out, len(data))
            self.segments.append(bytes(out))
            out.clear()
            self.segments.append(data)
        self._memoise(arr)

    def _encode_npscalar(self, value: np.generic) -> None:
        dtype = np.dtype(type(value)) if not hasattr(value, "dtype") else value.dtype
        if dtype.kind not in _SAFE_DTYPE_KINDS or dtype.hasobject:
            raise UnsupportedPayload(f"numpy scalar dtype {dtype!r} is not wire-safe")
        out = self.out
        out.append(_T_NPSCALAR)
        _write_str(out, dtype.str)
        data = value.tobytes()
        _write_varint(out, len(data))
        out.extend(data)

    def _encode_exception(self, exc: BaseException) -> None:
        kind = type(exc)
        out = self.out
        out.append(_T_EXC)
        _write_str(out, kind.__module__ or "builtins")
        _write_str(out, kind.__qualname__)
        self.encode(tuple(exc.args))
        state = getattr(exc, "__dict__", None)
        self.encode(dict(state) if state else None)
        self._memoise(exc)

    def _encode_repro_instance(self, obj: object, module: str, kind: type) -> None:
        out = self.out
        out.append(_T_OBJ)
        _write_str(out, module)
        _write_str(out, kind.__qualname__)
        self._memoise(obj)
        dict_state = getattr(obj, "__dict__", None)
        slot_state: dict[str, object] = {}
        for klass in kind.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("__dict__", "__weakref__"):
                    continue
                try:
                    slot_state[slot] = getattr(obj, slot)
                except AttributeError:
                    continue
        self.encode(dict(dict_state) if dict_state is not None else None)
        self.encode(slot_state or None)


def encode_segments(obj: object) -> list:
    """Serialise ``obj`` with the wire codec (no length header) as segments.

    The payload is the concatenation of the returned bytes-like segments.
    Arrays of :data:`BORROW_FLOOR` bytes or more are *borrowed* — their
    segment is a view of the array's buffer, not a copy — so the caller must
    not mutate them until the segments have been written or joined.  A
    payload with nothing to borrow is a single segment.

    Raises :class:`UnsupportedPayload` for objects outside the closed type
    set.
    """
    encoder = _Encoder()
    try:
        encoder.encode(obj)
    except RecursionError:
        raise UnsupportedPayload("payload nesting exceeds the codec recursion limit") from None
    encoder.segments.append(encoder.out)
    return encoder.segments


def encode_payload(obj: object) -> bytes:
    """Serialise ``obj`` with the wire codec (no length header) as one buffer."""
    return b"".join(encode_segments(obj))


class _Decoder:
    def __init__(self, data: bytes | memoryview) -> None:
        self.data = memoryview(data)
        self.pos = 0
        self.memo: list[object] = []

    def _fail(self, why: str) -> WireError:
        return WireError(f"corrupt codec frame at byte {self.pos}: {why}")

    def _take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise self._fail(f"needs {n} more bytes past end of payload")
        view = self.data[self.pos:self.pos + n]
        self.pos += n
        return view

    def _read_varint(self) -> int:
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise self._fail("truncated varint")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise self._fail("varint overflow")

    def _read_str(self) -> str:
        length = self._read_varint()
        try:
            # Interned: the same names and keys arrive with every frame, and a
            # client that retains results retains every copy.
            return sys.intern(str(self._take(length), "utf-8"))
        except UnicodeDecodeError as exc:
            raise self._fail(f"invalid utf-8: {exc}") from None

    def decode(self) -> object:
        if self.pos >= len(self.data):
            raise self._fail("truncated payload: expected a tag")
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            length = self._read_varint()
            return int.from_bytes(self._take(length), "big", signed=True)
        if tag == _T_FLOAT:
            return _FLOAT_STRUCT.unpack(self._take(8))[0]
        if tag == _T_COMPLEX:
            real, imag = _COMPLEX_STRUCT.unpack(self._take(16))
            return complex(real, imag)
        if tag == _T_STR:
            return self._read_str()
        if tag == _T_BYTES:
            return bytes(self._take(self._read_varint()))
        if tag == _T_BYTEARRAY:
            value = bytearray(self._take(self._read_varint()))
            self.memo.append(value)
            return value
        if tag == _T_LIST:
            count = self._read_varint()
            out: list[object] = []
            self.memo.append(out)
            for _ in range(count):
                out.append(self.decode())
            return out
        if tag == _T_DICT:
            count = self._read_varint()
            mapping: dict = {}
            self.memo.append(mapping)
            for _ in range(count):
                key = self.decode()
                mapping[key] = self.decode()
            return mapping
        if tag == _T_SET:
            count = self._read_varint()
            values: set = set()
            self.memo.append(values)
            for _ in range(count):
                values.add(self.decode())
            return values
        if tag == _T_TUPLE:
            count = self._read_varint()
            value = tuple(self.decode() for _ in range(count))
            self.memo.append(value)
            return value
        if tag == _T_FROZENSET:
            count = self._read_varint()
            value = frozenset(self.decode() for _ in range(count))
            self.memo.append(value)
            return value
        if tag == _T_NDARRAY:
            return self._decode_ndarray()
        if tag == _T_NPSCALAR:
            dtype = self._read_dtype()
            data = self._take(self._read_varint())
            try:
                return np.frombuffer(data, dtype=dtype)[0]
            except (ValueError, IndexError) as exc:
                raise self._fail(f"bad numpy scalar: {exc}") from None
        if tag == _T_OBJ:
            return self._decode_repro_instance()
        if tag == _T_ENUM:
            return self._decode_enum()
        if tag == _T_EXC:
            return self._decode_exception()
        if tag == _T_REF:
            index = self._read_varint()
            if index >= len(self.memo):
                raise self._fail(f"dangling memo reference {index}")
            return self.memo[index]
        raise self._fail(f"unknown tag 0x{tag:02x}")

    def _read_dtype(self) -> np.dtype:
        spec = self._read_str()
        try:
            dtype = np.dtype(spec)
        except TypeError as exc:
            raise self._fail(f"bad dtype {spec!r}: {exc}") from None
        if dtype.kind not in _SAFE_DTYPE_KINDS or dtype.hasobject:
            raise self._fail(f"dtype {spec!r} is not wire-safe")
        return dtype

    def _decode_ndarray(self) -> np.ndarray:
        dtype = self._read_dtype()
        ndim = self._read_varint()
        if ndim > 32:
            raise self._fail(f"ndarray claims {ndim} dimensions")
        shape = tuple(self._read_varint() for _ in range(ndim))
        data = self._take(self._read_varint())
        try:
            arr = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise self._fail(f"bad ndarray buffer: {exc}") from None
        self.memo.append(arr)
        return arr

    def _resolve_repro_class(self, module: str, qualname: str) -> type:
        if not (module == "repro" or module.startswith("repro.")):
            raise self._fail(f"frame references non-repro class {module}.{qualname}")
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            raise self._fail(f"unknown repro module {module}: {exc}") from None
        obj: object = mod
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                raise self._fail(f"unknown repro class {module}.{qualname}")
        if not isinstance(obj, type):
            raise self._fail(f"{module}.{qualname} is not a class")
        return obj

    def _decode_repro_instance(self) -> object:
        module = self._read_str()
        qualname = self._read_str()
        cls = self._resolve_repro_class(module, qualname)
        try:
            inst = cls.__new__(cls)
        except TypeError as exc:
            raise self._fail(f"cannot instantiate {module}.{qualname}: {exc}") from None
        self.memo.append(inst)
        dict_state = self.decode()
        slot_state = self.decode()
        if dict_state is not None:
            if not isinstance(dict_state, dict):
                raise self._fail("instance dict state is not a dict")
            inst.__dict__.update(dict_state)
        if slot_state is not None:
            if not isinstance(slot_state, dict):
                raise self._fail("instance slot state is not a dict")
            for key, value in slot_state.items():
                object.__setattr__(inst, key, value)
        return inst

    def _decode_enum(self) -> object:
        import enum as _enum

        module = self._read_str()
        qualname = self._read_str()
        member = self._read_str()
        cls = self._resolve_repro_class(module, qualname)
        if not issubclass(cls, _enum.Enum):
            raise self._fail(f"{module}.{qualname} is not an enum")
        try:
            return cls[member]
        except KeyError:
            raise self._fail(f"unknown enum member {qualname}.{member}") from None

    def _decode_exception(self) -> BaseException:
        module = self._read_str()
        qualname = self._read_str()
        args = self.decode()
        state = self.decode()
        if not isinstance(args, tuple):
            raise self._fail("exception args are not a tuple")
        cls: type[BaseException] | None = None
        if module == "repro" or module.startswith("repro."):
            try:
                candidate: object = importlib.import_module(module)
                for part in qualname.split("."):
                    candidate = getattr(candidate, part, None)
                    if candidate is None:
                        break
                if isinstance(candidate, type) and issubclass(candidate, BaseException):
                    cls = candidate
            except ImportError:
                cls = None
        else:
            cls = _resolve_exception_class(module, qualname)
        if cls is None:
            exc: BaseException = RuntimeError(
                f"remote exception {module}.{qualname}{args!r} "
                "(class not resolvable on this party)"
            )
        else:
            try:
                exc = cls(*args)
            except Exception:
                exc = cls.__new__(cls)
                exc.args = args
        if isinstance(state, dict):
            try:
                exc.__dict__.update(state)
            except AttributeError:
                pass
        elif state is not None:
            raise self._fail("exception state is not a dict")
        self.memo.append(exc)
        return exc


def decode_payload(data: bytes | memoryview) -> object:
    """Decode one codec payload (the bytes after the length header)."""
    view = memoryview(data)
    if len(view) == 0 or view[0] != CODEC_MAGIC:
        raise WireError("payload is not a codec frame (missing magic byte)")
    decoder = _Decoder(view[1:])
    try:
        value = decoder.decode()
    except RecursionError:
        raise WireError("codec frame nesting exceeds the recursion limit") from None
    if decoder.pos != len(decoder.data):
        raise WireError(
            f"corrupt codec frame: {len(decoder.data) - decoder.pos} trailing bytes"
        )
    return value


# --------------------------------------------------------------------------
# link statistics
# --------------------------------------------------------------------------


class LinkStats:
    """Byte/frame counters for one connection, safe for concurrent writers.

    The metrics layer observes *traffic shape* (bytes and frame counts per
    link), never payload contents — monitoring stays on the right side of
    the privacy boundary.  A sender thread and the peer-facing reader thread
    update the same instance, so the tiny increments take a lock.
    """

    __slots__ = ("_lock", "bytes_sent", "bytes_received", "frames_sent", "frames_received")

    def __init__(self):
        self._lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    def add_sent(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_sent += nbytes
            self.frames_sent += 1

    def add_received(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_received += nbytes
            self.frames_received += 1

    def snapshot(self) -> dict:
        """An immutable, internally consistent copy of the counters."""
        with self._lock:
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
            }


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------


def _frame_segments(obj: object) -> tuple[list, int]:
    """``obj``'s length-prefixed frame as segments, and its size in bytes."""
    try:
        segments = encode_segments(obj)
    except UnsupportedPayload as exc:
        raise WireError(f"payload not expressible in the wire codec: {exc}") from exc
    length = sum(map(len, segments))
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    segments[0] = _HEADER.pack(length) + segments[0]
    return segments, _HEADER.size + length


def encode_frame(obj: object) -> bytes:
    """Serialise ``obj`` as one length-prefixed frame in one buffer.

    Raises :class:`WireError` for a payload outside the codec's closed type
    set or over the frame cap.
    """
    return b"".join(_frame_segments(obj)[0])


class FrameDecoder:
    """Incremental decoder for a byte stream of length-prefixed frames.

    Feed arbitrary chunks (network reads split frames at arbitrary points);
    :meth:`frames` yields every complete decoded object.  :meth:`eof` must be
    called when the stream ends: a stream that stops mid-frame is truncated
    and raises :class:`WireError` instead of silently dropping the tail.
    """

    def __init__(self):
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[object]:
        """Absorb ``chunk`` and return the objects completed by it."""
        self._buffer.extend(chunk)
        frames = []
        while True:
            if len(self._buffer) < _HEADER.size:
                break
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(f"incoming frame claims {length} bytes; stream is corrupt")
            if len(self._buffer) < _HEADER.size + length:
                break
            payload = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            frames.append(decode_payload(payload))
        return frames

    def eof(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise WireError(
                f"stream truncated mid-frame: {len(self._buffer)} trailing bytes"
            )


def send_frame(sock: socket.socket, obj: object, *, stats: LinkStats | None = None) -> None:
    """Serialise ``obj`` and write it as one length-prefixed frame.

    With ``stats``, the frame's full wire size (header + payload) is counted
    once the write completed.
    """
    segments, size = _frame_segments(obj)
    try:
        _send_segments(sock, segments)
    except OSError as exc:
        raise WireError(f"failed to send {size}-byte frame: {exc}") from exc
    if stats is not None:
        stats.add_sent(size)


def _send_segments(sock: socket.socket, segments: list) -> None:
    """Write ``segments`` in order: a lone buffer with ``sendall``, several
    gathered by ``sendmsg``, resuming after partial sends."""
    if len(segments) == 1:
        sock.sendall(segments[0])
        return
    views = [memoryview(segment) for segment in segments]
    first = 0
    while first < len(views):
        sent = sock.sendmsg(views[first:first + _SENDMSG_BUFFERS])
        while first < len(views) and sent >= len(views[first]):
            sent -= len(views[first])
            first += 1
        if sent:
            views[first] = views[first][sent:]


def send_torn_frame(sock: socket.socket, data: bytes, fraction: float = 0.6) -> int:
    """Write only a *prefix* of the encoded frame ``data`` — a deliberately
    torn frame.

    Used by the fault-injection layer to reproduce what a process dying
    mid-``sendall`` looks like from the other end: the header promises a
    frame the stream can never complete, so the receiver's read fails with
    a mid-frame :class:`WireError` (never a silent truncation, as the
    framing tests assert).  At least the header plus one payload byte is
    written so the receiver is genuinely *inside* the frame, and never the
    whole frame; a frame too small to satisfy both (payload under two bytes)
    raises :class:`WireError` instead of silently sending a clean prefix.
    Returns the number of bytes written.
    """
    if len(data) < _HEADER.size + 2:
        raise WireError(
            f"frame of {len(data)} bytes is too small to tear: a torn frame "
            "must include the header, at least one payload byte, and omit at "
            "least one payload byte"
        )
    cut = max(_HEADER.size + 1, int(len(data) * fraction))
    cut = min(cut, len(data) - 1)
    try:
        sock.sendall(data[:cut])
    except OSError as exc:
        raise WireError(f"failed to send torn frame: {exc}") from exc
    return cut


def recv_frame(
    sock: socket.socket,
    *,
    allow_idle_timeout: bool = False,
    stats: LinkStats | None = None,
) -> object:
    """Read one length-prefixed frame and decode it.

    With ``allow_idle_timeout`` a socket timeout that fires *before any byte
    of the frame arrived* is re-raised as :class:`TimeoutError` (the stream
    is merely idle); a timeout mid-frame is still a :class:`WireError`.
    With ``stats``, the frame's full wire size (header + payload) is counted
    once the frame was read completely.
    """
    header = _recv_exact(sock, _HEADER.size, allow_idle_timeout=allow_idle_timeout)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame claims {length} bytes; stream is corrupt")
    payload = _recv_exact(sock, length)
    if stats is not None:
        stats.add_received(_HEADER.size + length)
    return decode_payload(payload)


def _recv_exact(sock: socket.socket, n: int, *, allow_idle_timeout: bool = False) -> bytearray:
    """Read exactly ``n`` bytes into a fresh buffer the caller then owns."""
    buf = bytearray(n)
    _recv_into(sock, memoryview(buf), allow_idle_timeout=allow_idle_timeout)
    return buf


def _recv_into(sock: socket.socket, view: memoryview, *, allow_idle_timeout: bool = False) -> None:
    """Fill ``view`` from the stream; only a timeout before its first byte
    may surface as :class:`TimeoutError` (with ``allow_idle_timeout``)."""
    n = len(view)
    filled = 0
    while filled < n:
        try:
            count = sock.recv_into(view[filled:])
        except TimeoutError:
            if allow_idle_timeout and not filled:
                raise
            raise WireError("connection timed out mid-frame") from None
        except OSError as exc:  # a TLS failure (ssl.SSLError) is one as well
            raise WireError(f"connection error while reading frame: {exc}") from exc
        if not count:
            raise WireError("connection closed mid-frame")
        filled += count


def close_quietly(sock, *, shutdown: bool = False) -> None:
    """Close a socket (or listener) that is being discarded; ``None`` is a no-op.

    The one teardown idiom of the runtime: the link is going away, so an
    ``OSError`` from a socket that is already dead has nobody left to act on
    it.  ``shutdown`` first interrupts a thread blocked in ``recv`` on the
    socket, which a plain ``close()`` would not.
    """
    if sock is None:
        return
    if shutdown:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
    try:
        sock.close()
    except OSError:
        pass


# --------------------------------------------------------------------------
# mesh frames: one closed, flat layout for every agent-to-agent frame
# --------------------------------------------------------------------------
#
# payload := MESH_MAGIC kind varint(seq) varint(query_id) body
#   msg   := str(tag) form [array | varint(count) array*]
#            form 0: no payload, 1: one array, 2: a tuple of arrays
#   array := dtype-code varint(count) pad buffer
#   table := str(relation) varint(ncols) column* varint(num_rows)
#            has-columns (0 | 1) [pad buffer]*ncols
#   column:= str(name) ctype-code varint(ntrust) str(trust)*  (sorted)
#   abort := str(reason)
#   str   := varint(length) utf-8 bytes
#   pad   := zero bytes up to the next payload offset divisible by 8
#
# The sender and receiver of a frame are the link's two ends and the byte
# count of a round is the receiver's own replica's business, so neither is
# on the wire; the round tag is, and the transport checks it.

#: First byte of every mesh frame payload; ``0xC7`` (a codec frame) is not one.
MESH_MAGIC = 0x4D

KIND_MSG = "msg"
KIND_TABLE = "table"
KIND_ABORT = "abort"
_KIND_CODES = {KIND_MSG: 1, KIND_TABLE: 2, KIND_ABORT: 3}
_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_FORM_NONE = 0
_FORM_ARRAY = 1
_FORM_TUPLE = 2

#: The dtype allowlist, indexed by its one-byte code: share slices, packed
#: flag bits, and int / float table columns — exactly what the engine sends.
MESH_DTYPES = (np.dtype("<u8"), np.dtype("|u1"), np.dtype("<i8"), np.dtype("<f8"))
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(MESH_DTYPES)}

_CTYPES = (ColumnType.INT, ColumnType.FLOAT)
_CTYPE_CODES = {ctype: code for code, ctype in enumerate(_CTYPES)}
#: The dtype of a table column of each type (``Table`` stores no other).
_COLUMN_DTYPES = {ColumnType.INT: np.dtype("<i8"), ColumnType.FLOAT: np.dtype("<f8")}

_ALIGN = 8
_PAD = bytes(_ALIGN)


class _MeshWriter:
    """One mesh frame as segments: layout bytes interleaved with borrowed
    views of large array buffers; ``segments[0]`` starts with room for the
    length header."""

    __slots__ = ("segments", "out", "base")

    def __init__(self, kind: str, seq: int, query_id: int) -> None:
        self.out = bytearray(_HEADER.size)
        self.out.append(MESH_MAGIC)
        self.out.append(_KIND_CODES[kind])
        self.segments = [self.out]
        #: Payload offset of ``out[0]`` (the header is not payload).
        self.base = -_HEADER.size
        _write_varint(self.out, seq)
        _write_varint(self.out, query_id)

    def text(self, value: str) -> None:
        if type(value) is not str:
            raise UnsupportedPayload(f"mesh frame field {value!r} is not a string")
        data = value.encode("utf-8")
        _write_varint(self.out, len(data))
        self.out += data

    def array(self, arr: np.ndarray) -> None:
        code = _DTYPE_CODES.get(arr.dtype) if isinstance(arr, np.ndarray) else None
        if code is None or arr.ndim != 1:
            raise UnsupportedPayload(
                f"mesh payload {type(arr).__name__} {getattr(arr, 'dtype', '')} is not a "
                f"one-dimensional array of {[d.str for d in MESH_DTYPES]}"
            )
        self.out.append(code)
        _write_varint(self.out, arr.size)
        self.buffer(arr)

    def buffer(self, arr: np.ndarray) -> None:
        """Pad to the next aligned payload offset, then the raw C-order buffer."""
        out = self.out
        out += _PAD[:-(self.base + len(out)) % _ALIGN]
        if arr.nbytes < BORROW_FLOOR:
            out += arr.tobytes()
            return
        # No copy of a contiguous array: the view keeps it alive.
        view = memoryview(np.ascontiguousarray(arr).view(np.uint8))
        self.base += len(out) + len(view)
        self.out = bytearray()
        self.segments += (view, self.out)

    def finish(self) -> tuple[list, int]:
        """The segments with the header filled in, and the frame's size."""
        length = self.base + len(self.out)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
        segments = self.segments if self.out else self.segments[:-1]
        _HEADER.pack_into(segments[0], 0, length)
        return segments, _HEADER.size + length


def _mesh_segments(seq: int, kind: str, query_id: int, payload) -> tuple[list, int]:
    if kind not in _KIND_CODES:
        raise UnsupportedPayload(f"unknown mesh frame kind {kind!r}")
    writer = _MeshWriter(kind, seq, query_id)
    if kind == KIND_MSG:
        tag, body = payload
        writer.text(tag)
        if body is None:
            writer.out.append(_FORM_NONE)
        elif type(body) is tuple:
            writer.out.append(_FORM_TUPLE)
            _write_varint(writer.out, len(body))
            for arr in body:
                writer.array(arr)
        else:
            writer.out.append(_FORM_ARRAY)
            writer.array(body)
    elif kind == KIND_TABLE:
        relation, schema, num_rows, columns = payload
        writer.text(relation)
        _write_varint(writer.out, len(schema))
        for col in schema:
            writer.text(col.name)
            writer.out.append(_CTYPE_CODES[col.ctype])
            _write_varint(writer.out, len(col.trust))
            for party in sorted(col.trust):
                writer.text(party)
        _write_varint(writer.out, num_rows)
        writer.out.append(int(columns is not None))
        if columns is not None:
            if len(columns) != len(schema):
                raise UnsupportedPayload(f"{len(columns)} columns for a {len(schema)}-column schema")
            for col, arr in zip(schema, columns):
                if not (
                    isinstance(arr, np.ndarray) and arr.dtype == _COLUMN_DTYPES[col.ctype]
                    and arr.shape == (num_rows,)
                ):
                    raise UnsupportedPayload(
                        f"column {col.name!r} is not {num_rows} values of {col.ctype.value}"
                    )
                writer.buffer(arr)
    else:
        writer.text(payload)
    return writer.finish()


def encode_mesh_frame(seq: int, kind: str, query_id: int, payload) -> bytes:
    """One length-prefixed mesh frame in one buffer.

    ``payload`` by kind: ``msg`` — ``(tag, body)`` with ``body`` ``None``, an
    array or a tuple of arrays of :data:`MESH_DTYPES`; ``table`` —
    ``(relation, schema, num_rows, columns)`` with ``columns`` ``None`` when
    only the relation's shape crosses; ``abort`` — the reason.  Anything else
    is an :class:`UnsupportedPayload`.
    """
    return b"".join(_mesh_segments(seq, kind, query_id, payload)[0])


def send_mesh_frame(
    sock: socket.socket, seq: int, kind: str, query_id: int, payload,
    *, stats: LinkStats | None = None,
) -> None:
    """Write one mesh frame (see :func:`encode_mesh_frame`), gathering
    borrowed array buffers as :func:`send_frame` does."""
    segments, size = _mesh_segments(seq, kind, query_id, payload)
    try:
        _send_segments(sock, segments)
    except OSError as exc:
        raise WireError(f"failed to send {size}-byte frame: {exc}") from exc
    if stats is not None:
        stats.add_sent(size)


class _MeshReader:
    """Reads one mesh payload out of ``view``, a byte view of an aligned,
    writable buffer the decoded arrays then view in turn."""

    __slots__ = ("view", "pos")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.pos = 0

    def fail(self, why: str) -> WireError:
        return WireError(f"corrupt mesh frame at byte {self.pos}: {why}")

    def byte(self) -> int:
        try:
            value = self.view[self.pos]
        except IndexError:
            raise self.fail("truncated frame") from None
        self.pos += 1
        return value

    def varint(self) -> int:
        value = self.byte()
        if value < 0x80:
            return value
        value &= 0x7F
        shift = 7
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise self.fail("varint overflow")

    def text(self) -> str:
        length = self.varint()
        end = self.pos + length
        if end > len(self.view):
            raise self.fail(f"{length}-byte string overruns the frame")
        try:
            value = sys.intern(str(self.view[self.pos:end], "utf-8"))
        except UnicodeDecodeError as exc:
            raise self.fail(f"invalid utf-8: {exc}") from None
        self.pos = end
        return value

    def array(self) -> np.ndarray:
        code = self.byte()
        if code >= len(MESH_DTYPES):
            raise self.fail(f"unknown dtype code {code}")
        return self.buffer(MESH_DTYPES[code], self.varint())

    def buffer(self, dtype: np.dtype, count: int) -> np.ndarray:
        """An aligned, writable view of ``count`` elements of the frame buffer."""
        pos = self.pos
        start = pos + (-pos % _ALIGN)
        end = start + count * dtype.itemsize
        if end > len(self.view):
            raise self.fail(f"{count}-element array overruns the frame")
        if start != pos and any(self.view[pos:start]):
            raise self.fail("nonzero alignment padding")
        self.pos = end
        return np.ndarray((count,), dtype, self.view, start)

    def column(self) -> ColumnDef:
        name = self.text()
        code = self.byte()
        if code >= len(_CTYPES):
            raise self.fail(f"unknown column type code {code}")
        trust = [self.text() for _ in range(self.varint())]
        if any(a >= b for a, b in zip(trust, trust[1:])):
            raise self.fail(f"trust set of column {name!r} is not strictly sorted")
        try:
            return ColumnDef(name, _CTYPES[code], frozenset(trust))
        except ValueError as exc:
            raise self.fail(str(exc)) from None

    def table(self) -> tuple:
        relation = self.text()
        columns = [self.column() for _ in range(self.varint())]
        try:
            schema = Schema(columns)
        except ValueError as exc:
            raise self.fail(str(exc)) from None
        num_rows = self.varint()
        has_columns = self.byte()
        if has_columns > 1:
            raise self.fail(f"unknown table form {has_columns}")
        data = None
        if has_columns:
            data = tuple(self.buffer(_COLUMN_DTYPES[col.ctype], num_rows) for col in schema)
        return relation, schema, num_rows, data


def _decode_mesh(view: memoryview) -> tuple[int, str, int, object]:
    """Decode the mesh payload in ``view`` (see :func:`_aligned_buffer`)."""
    reader = _MeshReader(view)
    if not len(view) or view[0] != MESH_MAGIC:
        raise WireError("payload is not a mesh frame (missing magic byte)")
    reader.pos = 1
    code = reader.byte()
    kind = _KINDS.get(code)
    if kind is None:
        raise reader.fail(f"unknown frame kind {code}")
    seq = reader.varint()
    query_id = reader.varint()
    if kind == KIND_MSG:
        tag = reader.text()
        form = reader.byte()
        if form == _FORM_TUPLE:
            count = reader.varint()
            if count > len(view):
                raise reader.fail(f"a tuple of {count} arrays overruns the frame")
            body = tuple([reader.array() for _ in range(count)])
        elif form == _FORM_ARRAY:
            body = reader.array()
        elif form == _FORM_NONE:
            body = None
        else:
            raise reader.fail(f"unknown payload form {form}")
        payload = (tag, body)
    elif kind == KIND_TABLE:
        payload = reader.table()
    else:
        payload = reader.text()
    if reader.pos != len(view):
        raise WireError(f"corrupt mesh frame: {len(view) - reader.pos} trailing bytes")
    return seq, kind, query_id, payload


def _aligned_buffer(n: int) -> memoryview:
    """``n`` writable bytes starting on an 8-byte boundary, as a byte view."""
    return memoryview(np.empty(-(-n // _ALIGN), dtype=np.uint64)).cast("B")[:n]


def decode_mesh_payload(data) -> tuple[int, str, int, object]:
    """Decode one mesh payload (the bytes after the length header) into
    ``(seq, kind, query_id, payload)``; the bytes are copied into a buffer
    of the frame's own, which the decoded arrays view."""
    view = _aligned_buffer(len(data))
    view[:] = data
    return _decode_mesh(view)


def recv_mesh_frame(
    sock: socket.socket,
    *,
    allow_idle_timeout: bool = False,
    stats: LinkStats | None = None,
) -> tuple[int, str, int, object]:
    """Read one mesh frame into an aligned buffer of its own and decode it
    in place: every decoded array is a writable view of that buffer, not a
    copy.  Timeouts and counting as for :func:`recv_frame`."""
    header = _recv_exact(sock, _HEADER.size, allow_idle_timeout=allow_idle_timeout)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame claims {length} bytes; stream is corrupt")
    view = _aligned_buffer(length)
    _recv_into(sock, view)
    if stats is not None:
        stats.add_received(_HEADER.size + length)
    return _decode_mesh(view)


# --------------------------------------------------------------------------
# TLS socket wrapping + authenticated peer identity
# --------------------------------------------------------------------------


class SecureSocket:
    """A full-duplex-safe TLS channel over one blocking TCP socket.

    ``ssl.SSLSocket`` shares a single OpenSSL ``SSL`` object between its
    ``recv`` and ``send`` paths, and OpenSSL forbids driving one connection
    from two threads concurrently.  The mesh does exactly that — one reader
    thread plus (lock-serialised) writer threads per peer socket — and under
    load the shared ``SSLSocket`` state corrupts, killing the link with
    spurious mid-frame EOFs.

    This wrapper keeps the runtime's one-socket-per-peer duplex model by
    separating TLS state from network I/O: an :class:`ssl.SSLObject` over
    memory BIOs holds the TLS machine, and **every** access to it happens
    under one short-held lock that is *never* held across blocking I/O.

    * Readers feed ciphertext from blocking ``recv`` (no lock) into the
      incoming BIO and pull plaintext out (locked, non-blocking).
    * Writers encrypt into the outgoing BIO (locked, non-blocking) and then
      write ciphertext under a separate write lock, so TCP backpressure on
      sends can never stall the reader draining the peer — the deadlock the
      single-lock design would reintroduce.

    The exposed surface is the subset of the socket API the runtime uses:
    ``sendall`` / ``sendmsg`` / ``recv_into`` / ``settimeout`` / ``shutdown``
    / ``close`` plus ``getpeercert`` for :func:`peer_common_name`.
    """

    _RECV_CHUNK = 1 << 16

    def __init__(
        self,
        sock: socket.socket,
        context: ssl.SSLContext,
        *,
        server_side: bool,
    ):
        # ``ssl`` is imported where TLS runs, not at module level: a plaintext
        # deployment never loads libssl (~3 MB in every process).
        import ssl

        self._sock = sock
        self._in = ssl.MemoryBIO()
        self._out = ssl.MemoryBIO()
        self._ssl = context.wrap_bio(self._in, self._out, server_side=server_side)
        #: Serialises all access to the TLS state machine (never held while
        #: blocking on the network).
        self._ssl_lock = threading.Lock()
        #: Serialises ciphertext writes, preserving TLS record order across
        #: concurrent senders.
        self._write_lock = threading.Lock()
        self._eof = False
        self._handshake()

    # -- internals ---------------------------------------------------------------------

    def _flush(self) -> None:
        """Ship any ciphertext the TLS machine queued (ordered, blocking)."""
        with self._ssl_lock:
            data = self._out.read() if self._out.pending else b""
        if data:
            with self._write_lock:
                self._sock.sendall(data)

    def _fill(self) -> None:
        """Blocking read of more ciphertext into the incoming BIO."""
        chunk = self._sock.recv(self._RECV_CHUNK)
        with self._ssl_lock:
            if chunk:
                self._in.write(chunk)
            else:
                self._eof = True
                self._in.write_eof()

    def _handshake(self) -> None:
        import ssl

        while True:
            try:
                with self._ssl_lock:
                    self._ssl.do_handshake()
                self._flush()
                return
            except ssl.SSLWantReadError:
                self._flush()
                self._fill()
                if self._eof:
                    raise ssl.SSLEOFError("EOF during TLS handshake")
            except ssl.SSLWantWriteError:  # pragma: no cover - memory BIOs never fill
                self._flush()

    # -- the socket surface the runtime uses -------------------------------------------

    def recv_into(self, buffer) -> int:
        """Decrypt up to ``len(buffer)`` bytes into ``buffer``; 0 at EOF."""
        import ssl

        while True:
            with self._ssl_lock:
                try:
                    return self._ssl.read(len(buffer), buffer)
                except ssl.SSLWantReadError:
                    pass
                except (ssl.SSLZeroReturnError, ssl.SSLEOFError):
                    # Clean close_notify, or a ragged EOF after the stream
                    # died: both look like EOF, exactly as for a plaintext
                    # socket (SSLSocket's suppress_ragged_eofs default).
                    return 0
            # Reading may have queued output (e.g. a TLS 1.3 KeyUpdate
            # response); ship it before blocking for more ciphertext.
            self._flush()
            if self._eof:
                return 0
            self._fill()

    def sendall(self, data) -> None:
        self.sendmsg([data])

    def sendmsg(self, buffers) -> int:
        """Encrypt and send every buffer, in order, as one unit.

        Unlike ``socket.sendmsg`` this never sends partially.  The write
        lock spans encrypt + send of all the buffers, so concurrent senders
        can neither interleave their TLS records out of encryption order nor
        split each other's frames.
        """
        total = 0
        with self._write_lock:
            for data in buffers:
                view = memoryview(data)
                offset = 0
                while offset < len(view):
                    with self._ssl_lock:
                        written = self._ssl.write(view[offset:])
                        out = self._out.read()
                    self._sock.sendall(out)
                    offset += written
                total += len(view)
        return total

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def gettimeout(self):
        return self._sock.gettimeout()

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def getpeercert(self) -> dict | None:
        with self._ssl_lock:
            return self._ssl.getpeercert()


def secure_server_socket(sock: socket.socket, context: ssl.SSLContext) -> SecureSocket:
    """Wrap an *accepted* socket server-side, failing closed on handshake errors.

    The socket's existing timeout bounds the handshake, so a client that
    connects and stalls can never hang the accept loop.
    """
    try:
        return SecureSocket(sock, context, server_side=True)
    except OSError as exc:  # ssl.SSLError included
        close_quietly(sock)
        raise WireError(f"TLS server handshake failed: {exc}") from exc


def secure_client_socket(sock: socket.socket, context: ssl.SSLContext) -> SecureSocket:
    """Wrap a *dialled* socket client-side, failing closed on handshake errors."""
    try:
        return SecureSocket(sock, context, server_side=False)
    except OSError as exc:  # ssl.SSLError included
        close_quietly(sock)
        raise WireError(f"TLS client handshake failed: {exc}") from exc


def peer_common_name(sock: socket.socket) -> str | None:
    """The CN of the peer's verified certificate, or ``None`` without TLS.

    Both sides of every secured link require a peer certificate
    (``CERT_REQUIRED``), so on a TLS socket this is the identity the session
    CA vouched for — hello verification checks claimed party ids against it.
    """
    getpeercert = getattr(sock, "getpeercert", None)  # SecureSocket, ssl.SSLSocket
    if getpeercert is None:
        return None
    cert = getpeercert()
    if not cert:
        return None
    for rdn in cert.get("subject", ()):
        for key, value in rdn:
            if key == "commonName":
                return value
    return None
