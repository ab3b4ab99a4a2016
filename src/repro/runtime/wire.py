"""Length-prefixed framing, the two closed payload layouts, and TLS.

Every connection of the distributed runtime speaks one trivial protocol: a
4-byte big-endian length header followed by one encoded payload, in one of
two layouts.  Control links and the mesh hellos speak the **codec** (magic
``0xC7``: :func:`send_frame` / :func:`recv_frame`); a mesh link, once its
hello is through, speaks the **mesh layout** (magic ``0x4D``:
:func:`send_mesh_frame` / :func:`recv_mesh_frame`), one flat layout for the
two frames agents exchange: ``msg``, one round's message of arrays, and
``abort``.  A relation crosses between agents as a round's message too — its
row count or its columns — so the mesh layout carries no schema: every
agent reads it from the plan it already holds.

Both layouts are closed: nothing outside them can be written, and decoding
never resolves a name, imports a module or runs a constructor the layout
does not list.  The codec is a tag-prefixed tree over one value grammar —
``None``, bools, ints, floats, ``str``, ``bytes``, tuples, lists, dicts,
sets (written sorted, so equal values encode to equal bytes) and 1-D arrays
of :data:`MESH_DTYPES` — plus two fixed registries, each entry with a
one-byte code.  A **record** is a registered type (the compiled plan and
its DAG, relations, schemas, tables, leakage reports, fault plans) written
as its fields; records carrying another party's data are rebuilt through
their constructors, so their invariants are checked.  An **error** is a
registered class and its args; an error of any other class crosses as its
nearest registered base, its message prefixed with its own class name.  An
unknown tag, record or dtype code, a truncated payload, trailing bytes, or
a record its constructor refuses is a :class:`WireError`; a value outside
the grammar is an :class:`UnsupportedPayload` at the sender.

Both layouts share one writer and one reader.  A frame is written as
*segments* — layout bytes plus borrowed views of arrays of at least
:data:`BORROW_FLOOR` bytes, gathered by one ``sendmsg`` — and read into one
8-byte-aligned buffer of its own, which every decoded array is an aligned,
writable view of.  ``recv_frame(..., allow_idle_timeout=True)`` tells "no
frame started yet" (:class:`TimeoutError`) from "the stream died
mid-frame" (always a :class:`WireError`).

:func:`secure_server_socket` / :func:`secure_client_socket` wrap a socket
in TLS built by :class:`repro.core.config.TransportSecurity`, and
:func:`peer_common_name` extracts the authenticated identity (the
certificate CN) that hello verification checks party ids against.
"""

from __future__ import annotations

import dataclasses
import functools
import socket
import struct
import sys
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table

if TYPE_CHECKING:  # pragma: no cover - SecureSocket imports it where TLS runs
    import ssl

#: Upper bound on a single frame; a frame larger than this indicates stream
#: corruption (e.g. a desynchronised header), not a legitimate payload.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")

#: First byte of every codec payload.
CODEC_MAGIC = 0xC7
#: First byte of every mesh frame payload.
MESH_MAGIC = 0x4D

#: An array of at least this many bytes is not copied into the frame: the
#: writer emits a borrowed view of the array's own buffer as a segment of its
#: own.  Below it a copy is cheaper than one more ``sendmsg`` buffer, and
#: frames of small values stay a single buffer and a single ``sendall``.
BORROW_FLOOR = 1 << 14

#: Buffers handed to one ``sendmsg`` call (POSIX guarantees ``IOV_MAX`` >= 16;
#: Linux allows 1024).
_SENDMSG_BUFFERS = 512

#: The dtype allowlist of both layouts, indexed by its one-byte code: share
#: slices, packed flag bits, and int / float table columns.
MESH_DTYPES = (np.dtype("<u8"), np.dtype("|u1"), np.dtype("<i8"), np.dtype("<f8"))
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(MESH_DTYPES)}

_ALIGN = 8
_PAD = bytes(_ALIGN)


class WireError(ConnectionError):
    """A connection failed mid-frame or produced a corrupt frame."""


class UnsupportedPayload(TypeError):
    """A payload contains an object outside the layout it is written in."""


# --------------------------------------------------------------------------
# the shared writer and reader
# --------------------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise UnsupportedPayload("varint must be non-negative")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


class _Writer:
    """One frame as segments: layout bytes interleaved with borrowed views
    of large array buffers; ``segments[0]`` starts with room for the length
    header."""

    __slots__ = ("segments", "out", "base")

    def __init__(self, magic: int) -> None:
        self.out = bytearray(_HEADER.size)
        self.out.append(magic)
        self.segments = [self.out]
        #: Payload offset of ``out[0]`` (the header is not payload).
        self.base = -_HEADER.size

    def text(self, value: str) -> None:
        if type(value) is not str:
            raise UnsupportedPayload(f"frame field {value!r} is not a string")
        data = value.encode("utf-8")
        _write_varint(self.out, len(data))
        self.out += data

    def array(self, arr: np.ndarray) -> None:
        code = _DTYPE_CODES.get(arr.dtype) if isinstance(arr, np.ndarray) else None
        if code is None or arr.ndim != 1:
            raise UnsupportedPayload(
                f"payload {type(arr).__name__} {getattr(arr, 'dtype', '')} is not a "
                f"one-dimensional array of {[d.str for d in MESH_DTYPES]}"
            )
        out = self.out
        out.append(code)
        _write_varint(out, arr.size)
        # Pad to the next aligned payload offset, then the raw C-order buffer.
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


class _Reader:
    """Reads one payload out of ``view``, a byte view of an aligned,
    writable buffer the decoded arrays then view in turn."""

    __slots__ = ("view", "pos")

    #: The layout's name (in error messages) and first payload byte.
    layout, magic = "frame", None

    def __init__(self, view: memoryview) -> None:
        if not len(view) or view[0] != self.magic:
            raise WireError(f"payload is not a {self.layout} frame (missing magic byte)")
        self.view = view
        self.pos = 1

    def fail(self, why: str) -> WireError:
        return WireError(f"corrupt {self.layout} frame at byte {self.pos}: {why}")

    def byte(self) -> int:
        try:
            value = self.view[self.pos]
        except IndexError:
            raise self.fail("truncated frame") from None
        self.pos += 1
        return value

    def varint(self) -> int:
        value = shift = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
            shift += 7
            if shift > 63:
                raise self.fail("varint overflow")

    def take(self, length: int) -> memoryview:
        end = self.pos + length
        if end > len(self.view):
            raise self.fail(f"{length} bytes overrun the frame")
        data = self.view[self.pos:end]
        self.pos = end
        return data

    def text(self) -> str:
        try:
            # Interned: the same names and keys arrive with every frame, and a
            # client that retains results retains every copy.
            return sys.intern(str(self.take(self.varint()), "utf-8"))
        except UnicodeDecodeError as exc:
            raise self.fail(f"invalid utf-8: {exc}") from None

    def array(self) -> np.ndarray:
        code = self.byte()
        if code >= len(MESH_DTYPES):
            raise self.fail(f"unknown dtype code {code}")
        dtype, count = MESH_DTYPES[code], self.varint()
        # An aligned, writable view of ``count`` elements of the frame buffer.
        pos = self.pos
        start = pos + (-pos % _ALIGN)
        end = start + count * dtype.itemsize
        if end > len(self.view):
            raise self.fail(f"{count}-element array overruns the frame")
        if start != pos and any(self.view[pos:start]):
            raise self.fail("nonzero alignment padding")
        self.pos = end
        return np.ndarray((count,), dtype, self.view, start)

    def done(self) -> None:
        if self.pos != len(self.view):
            raise WireError(
                f"corrupt {self.layout} frame: {len(self.view) - self.pos} trailing bytes"
            )


def _aligned_buffer(n: int) -> memoryview:
    """``n`` writable bytes starting on an 8-byte boundary, as a byte view."""
    return memoryview(np.empty(-(-n // _ALIGN), dtype=np.uint64)).cast("B")[:n]


def _copied(data) -> memoryview:
    view = _aligned_buffer(len(data))
    view[:] = data
    return view


# --------------------------------------------------------------------------
# the codec: one value grammar, one record registry
# --------------------------------------------------------------------------
#
# value := NONE | TRUE | FALSE | INT varint(n) n bytes (big-endian, signed)
#        | FLOAT 8 bytes (big-endian) | STR str | BYTES varint(n) n bytes
#        | (TUPLE | LIST | SET | FROZENSET) varint(n) value*n    (sets sorted)
#        | DICT varint(n) (value value)*n
#        | ARRAY array                 the mesh layout's array, views on decode
#        | RECORD code value*arity     arity fixed by the record's code
#        | ERROR code value            the value is the error's args tuple

(_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_STR, _T_BYTES, _T_TUPLE, _T_LIST,
 _T_DICT, _T_SET, _T_FROZENSET, _T_ARRAY, _T_RECORD, _T_ERROR) = range(15)

_FLOAT_STRUCT = struct.Struct(">d")
_CONSTANTS = {_T_NONE: None, _T_TRUE: True, _T_FALSE: False}
_SEQUENCE_TAGS = {tuple: _T_TUPLE, list: _T_LIST, set: _T_SET, frozenset: _T_FROZENSET}
_CONTAINERS = {_T_TUPLE: tuple, _T_LIST: list, _T_SET: set, _T_FROZENSET: frozenset, _T_DICT: dict}

#: Error args of these types cross as they are; any other arg as its ``str``.
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


class _Record(NamedTuple):
    cls: type
    arity: int
    fields: Callable  # the record's field values, in wire order
    build: Callable  # the record from its decoded field values


#: Every field of an operator node other than its links: the base fields of
#: every node, then each operator class's own, in code order.
_NODE_FIELDS = ("node_id", "out_rel", "is_mpc", "run_at", "lifted", "key_range_check")
_AGGREGATE_FIELDS = ("group_col", "outputs", "presorted", "is_secondary")
_OPERATOR_FIELDS = {
    "Create": (), "Collect": ("recipients",), "Project": ("columns",),
    "Filter": ("column", "op", "value"), "Aggregate": _AGGREGATE_FIELDS,
    "Map": ("out_name", "left", "op", "right"), "Compare": ("out_name", "left", "op", "right"),
    "BoolOp": ("out_name", "op", "operands"), "SortBy": ("column", "ascending"),
    "Distinct": ("columns",), "Limit": ("n",), "Concat": (), "Merge": ("column", "ascending"),
    "Join": ("left_on", "right_on"), "HybridJoin": ("left_on", "right_on", "stp"),
    "PublicJoin": ("left_on", "right_on", "host"), "HybridAggregate": _AGGREGATE_FIELDS + ("stp",),
}


class _Registry:
    """Every record type and error class the codec knows; an entry's code is
    its index.  Built on first use: the classes live in modules that import
    this one."""

    def __init__(self) -> None:
        from repro.core import operators
        from repro.core.compiler import CompilationReport, CompiledQuery
        from repro.core.config import CompilationConfig
        from repro.core.dag import Dag
        from repro.core.relation import Relation
        from repro.hybrid.stp import LeakageEvent, LeakageReport
        from repro.mpc.network import TransportError
        from repro.runtime.executor import SecurityError
        from repro.runtime.faults import FaultPlan, KillFault, LinkFault
        from repro.runtime.mesh import MeshTimeout
        from repro.runtime.pool import AgentCrashed, AgentFailure, SessionClosed

        self.operators = tuple(getattr(operators, name) for name in _OPERATOR_FIELDS)
        self.operator_codes = {cls: code for code, cls in enumerate(self.operators)}
        self.dag_cls = Dag
        self.records = (
            _dataclass_record(CompiledQuery),
            _dataclass_record(CompilationReport),
            _dataclass_record(CompilationConfig),
            _Record(Dag, 3, self._dag_fields, self._dag),
            _dataclass_record(Relation),
            _Record(Schema, 1, lambda schema: (schema.columns,), _schema),
            _dataclass_record(ColumnDef),
            _Record(ColumnType, 1, lambda ctype: (ctype.value,), ColumnType),
            _Record(Table, 3, lambda t: (t.schema, t.num_rows, t.columns()), _table),
            _dataclass_record(LeakageEvent),
            _dataclass_record(LeakageReport),
            _dataclass_record(FaultPlan),
            _dataclass_record(KillFault),
            _dataclass_record(LinkFault),
        )
        self.record_codes = {record.cls: code for code, record in enumerate(self.records)}
        #: Builtins an agent raises, then the runtime's own errors.
        self.errors = (
            BaseException, Exception, KeyboardInterrupt, SystemExit,
            ArithmeticError, ZeroDivisionError, OverflowError, FloatingPointError,
            AssertionError, AttributeError, LookupError, IndexError, KeyError,
            MemoryError, NotImplementedError, RecursionError, RuntimeError,
            OSError, ConnectionError, TimeoutError, TypeError, ValueError,
            TransportError, MeshTimeout, WireError, UnsupportedPayload, SecurityError,
            AgentFailure, AgentCrashed, SessionClosed,
        )
        self.error_codes = {cls: code for code, cls in enumerate(self.errors)}

    # A Dag is its nodes in topological order, each a tuple of plain values:
    # (operator code, parent indices, child indices, node fields...).  It is
    # not a reference graph: the indices are the only links.

    def _dag_fields(self, dag) -> tuple:
        nodes = dag.topological()
        index = {id(node): i for i, node in enumerate(nodes)}
        entries = tuple(self._node_fields(node, index) for node in nodes)
        return tuple(index[id(root)] for root in dag.roots), dag._fresh_names, entries

    def _node_fields(self, node, index: dict) -> tuple:
        kind = type(node)
        if kind not in self.operator_codes:
            raise UnsupportedPayload(f"operator {kind.__qualname__} is outside the registry")
        return (
            self.operator_codes[kind],
            tuple(index[id(p)] for p in node.parents),
            tuple(index[id(c)] for c in node.children),
            *(getattr(node, name) for name in _NODE_FIELDS + _OPERATOR_FIELDS[kind.__name__]),
        )

    def _dag(self, roots, fresh_names, entries):
        nodes = []
        for code, _parents, _children, *values in entries:
            cls = _pick(self.operators, code)
            names = _NODE_FIELDS + _OPERATOR_FIELDS[cls.__name__]
            if len(values) != len(names):
                raise ValueError(f"{cls.__name__} node has {len(values)} fields, expected {len(names)}")
            node = cls.__new__(cls)
            vars(node).update(zip(names, values))
            nodes.append(node)
        for node, (_code, parents, children, *_values) in zip(nodes, entries):
            node.parents = [_pick(nodes, i) for i in parents]
            node.children = [_pick(nodes, i) for i in children]
        dag = self.dag_cls([_pick(nodes, i) for i in roots])
        dag._fresh_names = fresh_names
        dag.validate()
        if len(dag.nodes()) != len(nodes):
            raise ValueError("a node is unreachable from the roots")
        return dag


def _pick(items: tuple | list, index):
    if type(index) is not int or not 0 <= index < len(items):
        raise ValueError(f"index {index!r} out of range")
    return items[index]


def _dataclass_record(cls: type) -> _Record:
    """A record of a dataclass's fields, rebuilt by its constructor."""
    names = tuple(field.name for field in dataclasses.fields(cls))
    return _Record(cls, len(names), lambda obj: [getattr(obj, name) for name in names], cls)


def _schema(columns) -> Schema:
    if not all(isinstance(col, ColumnDef) for col in columns):
        raise TypeError("schema columns are not column definitions")
    return Schema(columns)


def _table(schema, num_rows, columns) -> Table:
    if not isinstance(schema, Schema) or len(columns) != len(schema):
        raise TypeError("table columns do not match its schema")
    for col, arr in zip(schema, columns):
        if not isinstance(arr, np.ndarray) or arr.dtype != Table._dtype(col):
            raise TypeError(f"column {col.name!r} is not {col.ctype.value} data")
    table = Table(schema, columns)
    if table.num_rows != num_rows:
        raise ValueError(f"table claims {num_rows!r} rows, its columns hold {table.num_rows}")
    return table


_registry = functools.cache(_Registry)


class _Encoder(_Writer):
    """Writes one value of the grammar (see the section comment above)."""

    __slots__ = ()

    def value(self, obj: object) -> None:
        kind = type(obj)
        if kind is str:
            self.out.append(_T_STR)
            self.text(obj)
        elif kind is int:
            out = self.out
            out.append(_T_INT)
            data = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            _write_varint(out, len(data))
            out += data
        elif obj is None:
            self.out.append(_T_NONE)
        elif kind is bool:
            self.out.append(_T_TRUE if obj else _T_FALSE)
        elif kind in _SEQUENCE_TAGS:
            if kind is set or kind is frozenset:
                try:
                    obj = sorted(obj)
                except TypeError:
                    raise UnsupportedPayload(f"set {obj!r} has no canonical order") from None
            self.out.append(_SEQUENCE_TAGS[kind])
            _write_varint(self.out, len(obj))
            for item in obj:
                self.value(item)
        elif kind is dict:
            self.out.append(_T_DICT)
            _write_varint(self.out, len(obj))
            for key, item in obj.items():
                self.value(key)
                self.value(item)
        elif kind is float:
            self.out.append(_T_FLOAT)
            self.out += _FLOAT_STRUCT.pack(obj)
        elif kind is np.ndarray:
            self.out.append(_T_ARRAY)
            self.array(obj)
        elif kind is bytes:
            self.out.append(_T_BYTES)
            _write_varint(self.out, len(obj))
            self.out += obj
        elif isinstance(obj, BaseException):
            self.error(obj)
        else:
            registry = _registry()
            code = registry.record_codes.get(kind)
            if code is None:
                raise UnsupportedPayload(
                    f"object of type {kind.__module__}.{kind.__qualname__} is outside "
                    "the wire codec's type set"
                )
            self.out.append(_T_RECORD)
            self.out.append(code)
            for item in registry.records[code].fields(obj):
                self.value(item)

    def error(self, exc: BaseException) -> None:
        codes = _registry().error_codes
        kind = type(exc)
        code = codes.get(kind)
        args = exc.args
        if code is None:
            # BaseException is registered, so every error has a registered base.
            code = next(codes[base] for base in kind.__mro__ if base in codes)
            args = (f"{kind.__name__}: {exc}",)
        self.out.append(_T_ERROR)
        self.out.append(code)
        self.value(tuple(arg if type(arg) in _SCALARS else str(arg) for arg in args))


class _Decoder(_Reader):
    __slots__ = ()
    layout, magic = "codec", CODEC_MAGIC

    def value(self) -> object:
        tag = self.byte()
        if tag == _T_STR:
            return self.text()
        if tag == _T_INT:
            return int.from_bytes(self.take(self.varint()), "big", signed=True)
        if tag in _CONSTANTS:
            return _CONSTANTS[tag]
        if tag in _CONTAINERS:
            count = self.varint()
            items = [
                (self.value(), self.value()) if tag == _T_DICT else self.value()
                for _ in range(count)
            ]
            try:
                return _CONTAINERS[tag](items)
            except TypeError as exc:
                raise self.fail(f"unhashable key or element: {exc}") from None
        if tag == _T_FLOAT:
            return _FLOAT_STRUCT.unpack(self.take(8))[0]
        if tag == _T_ARRAY:
            return self.array()
        if tag == _T_BYTES:
            return bytes(self.take(self.varint()))
        if tag == _T_RECORD:
            return self.record()
        if tag == _T_ERROR:
            return self.error()
        raise self.fail(f"unknown tag 0x{tag:02x}")

    def record(self) -> object:
        code = self.byte()
        records = _registry().records
        if code >= len(records):
            raise self.fail(f"unknown record code {code}")
        cls, arity, _fields, build = records[code]
        values = [self.value() for _ in range(arity)]
        try:
            return build(*values)
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise self.fail(f"invalid {cls.__name__} record: {exc}") from None

    def error(self) -> BaseException:
        code = self.byte()
        args = self.value()
        if type(args) is not tuple:
            raise self.fail("error args are not a tuple")
        errors = _registry().errors
        if code >= len(errors):
            return RuntimeError(f"remote error of unregistered code {code}: {args!r}")
        try:
            return errors[code](*args)
        except Exception as exc:  # noqa: BLE001 - a constructor refusing forged args
            raise self.fail(f"invalid {errors[code].__name__} args: {exc}") from None


def _codec_segments(obj: object) -> tuple[list, int]:
    writer = _Encoder(CODEC_MAGIC)
    try:
        writer.value(obj)
    except RecursionError:
        raise UnsupportedPayload("payload nesting exceeds the codec recursion limit") from None
    return writer.finish()


def encode_segments(obj: object) -> list:
    """Serialise ``obj`` with the wire codec (no length header) as the
    bytes-like segments whose concatenation is the payload; arrays of
    :data:`BORROW_FLOOR` bytes or more are borrowed views, not copies.
    Raises :class:`UnsupportedPayload` for values outside the grammar.
    """
    segments, _size = _codec_segments(obj)
    segments[0] = memoryview(segments[0])[_HEADER.size:]
    return segments


def encode_payload(obj: object) -> bytes:
    """Serialise ``obj`` with the wire codec (no length header) as one buffer."""
    return b"".join(encode_segments(obj))


def _decode_codec(view: memoryview) -> object:
    """Decode the codec payload in ``view`` (see :func:`_aligned_buffer`)."""
    decoder = _Decoder(view)
    try:
        value = decoder.value()
    except RecursionError:
        raise WireError("codec frame nesting exceeds the recursion limit") from None
    decoder.done()
    return value


def decode_payload(data) -> object:
    """Decode one codec payload (the bytes after the length header); the
    bytes are copied into a buffer of the payload's own, which the decoded
    arrays view."""
    return _decode_codec(_copied(data))


# --------------------------------------------------------------------------
# framing and link statistics
# --------------------------------------------------------------------------


class LinkStats:
    """Byte/frame counters for one connection, safe for concurrent writers:
    the metrics layer observes *traffic shape* per link, never payloads."""

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


def _frame_segments(obj: object) -> tuple[list, int]:
    """``obj``'s length-prefixed codec frame as segments, and its size."""
    try:
        return _codec_segments(obj)
    except UnsupportedPayload as exc:
        raise WireError(f"payload not expressible in the wire codec: {exc}") from exc


def encode_frame(obj: object) -> bytes:
    """``obj`` as one length-prefixed codec frame in one buffer; a payload
    outside the grammar or over the frame cap is a :class:`WireError`."""
    return b"".join(_frame_segments(obj)[0])


def send_frame(sock: socket.socket, obj: object, *, stats: LinkStats | None = None) -> None:
    """Write ``obj`` as one length-prefixed codec frame; with ``stats``, its
    full wire size (header + payload) is counted once the write completed."""
    _send(sock, *_frame_segments(obj), stats)


def _send(sock: socket.socket, segments: list, size: int, stats: LinkStats | None) -> None:
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
    """Write only a *prefix* of the encoded frame ``data`` — what a process
    dying mid-``sendall`` looks like to the receiver, whose read then fails
    with a mid-frame :class:`WireError`.  The prefix holds the header and at
    least one payload byte, and never the whole frame; a frame too small for
    both is a :class:`WireError`.  Returns the number of bytes written.
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


def recv_frame(sock: socket.socket, *, allow_idle_timeout: bool = False,
               stats: LinkStats | None = None) -> object:
    """Read one codec frame into an aligned buffer of its own and decode it.

    With ``allow_idle_timeout`` a socket timeout that fires *before any byte
    of the frame arrived* is re-raised as :class:`TimeoutError` (the stream
    is merely idle); a timeout mid-frame is still a :class:`WireError`.
    With ``stats``, the frame's full wire size (header + payload) is counted
    once the frame was read completely.
    """
    return _decode_codec(_recv_payload(sock, allow_idle_timeout, stats))


def _recv_payload(sock: socket.socket, allow_idle_timeout: bool, stats: LinkStats | None) -> memoryview:
    header = bytearray(_HEADER.size)
    _recv_into(sock, memoryview(header), allow_idle_timeout=allow_idle_timeout)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame claims {length} bytes; stream is corrupt")
    view = _aligned_buffer(length)
    _recv_into(sock, view)
    if stats is not None:
        stats.add_received(_HEADER.size + length)
    return view


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
    """Close a socket (or listener) that is being discarded, ignoring the
    ``OSError`` of one already dead; ``None`` is a no-op.  ``shutdown`` first
    interrupts a thread blocked in ``recv`` on it, which ``close()`` would not.
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
#   abort := str(reason)
#   str   := varint(length) utf-8 bytes
#   pad   := zero bytes up to the next payload offset divisible by 8
#
# The sender and receiver of a frame are the link's two ends and the byte
# count of a round is the receiver's own replica's business, so neither is
# on the wire; the round tag is, and ``Network.round`` checks it.  Every
# agent-to-agent message is a round's: the MPC's, and the row count or the
# columns of a relation crossing between parties, whose schema every agent
# reads from the plan.

KIND_MSG = "msg"
KIND_ABORT = "abort"
_KIND_CODES = {KIND_MSG: 1, KIND_ABORT: 2}
_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_FORM_NONE = 0
_FORM_ARRAY = 1
_FORM_TUPLE = 2


def _mesh_segments(seq: int, kind: str, query_id: int, payload) -> tuple[list, int]:
    if kind not in _KIND_CODES:
        raise UnsupportedPayload(f"unknown mesh frame kind {kind!r}")
    writer = _Writer(MESH_MAGIC)
    writer.out.append(_KIND_CODES[kind])
    _write_varint(writer.out, seq)
    _write_varint(writer.out, query_id)
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
    else:
        writer.text(payload)
    return writer.finish()


def encode_mesh_frame(seq: int, kind: str, query_id: int, payload) -> bytes:
    """One length-prefixed mesh frame in one buffer.

    ``payload`` by kind: ``msg`` — ``(tag, body)`` with ``body`` ``None``, an
    array or a tuple of arrays of :data:`MESH_DTYPES`; ``abort`` — the
    reason.  Anything else is an :class:`UnsupportedPayload`.
    """
    return b"".join(_mesh_segments(seq, kind, query_id, payload)[0])


def send_mesh_frame(
    sock: socket.socket, seq: int, kind: str, query_id: int, payload,
    *, stats: LinkStats | None = None,
) -> None:
    """Write one mesh frame (see :func:`encode_mesh_frame`), gathering
    borrowed array buffers as :func:`send_frame` does."""
    _send(sock, *_mesh_segments(seq, kind, query_id, payload), stats)


class _MeshReader(_Reader):
    __slots__ = ()
    layout, magic = "mesh", MESH_MAGIC


def _decode_mesh(view: memoryview) -> tuple[int, str, int, object]:
    """Decode the mesh payload in ``view`` (see :func:`_aligned_buffer`)."""
    reader = _MeshReader(view)
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
    else:
        payload = reader.text()
    reader.done()
    return seq, kind, query_id, payload


def decode_mesh_payload(data) -> tuple[int, str, int, object]:
    """Decode one mesh payload (the bytes after the length header) into
    ``(seq, kind, query_id, payload)``, as :func:`decode_payload` does."""
    return _decode_mesh(_copied(data))


def recv_mesh_frame(sock: socket.socket, *, allow_idle_timeout: bool = False,
                    stats: LinkStats | None = None) -> tuple[int, str, int, object]:
    """Read one mesh frame as :func:`recv_frame` reads a codec frame:
    every decoded array is a writable view of the frame's own buffer."""
    return _decode_mesh(_recv_payload(sock, allow_idle_timeout, stats))


# --------------------------------------------------------------------------
# TLS socket wrapping + authenticated peer identity
# --------------------------------------------------------------------------


class SecureSocket:
    """A full-duplex-safe TLS channel over one blocking TCP socket.

    OpenSSL forbids driving one ``SSL`` object from two threads at once, and
    the mesh runs a reader thread and writer threads per peer socket: a
    shared ``ssl.SSLSocket`` corrupts under load.  Here an
    :class:`ssl.SSLObject` over memory BIOs holds the TLS machine, and every
    access to it happens under one short lock never held across blocking
    I/O.  Readers feed ciphertext from a blocking ``recv`` into the incoming
    BIO; writers encrypt into the outgoing BIO and write ciphertext under a
    separate write lock, so TCP backpressure on sends never stalls the
    reader.  The surface is the subset of the socket API the runtime uses.
    """

    _RECV_CHUNK = 1 << 16

    def __init__(self, sock: socket.socket, context: ssl.SSLContext, *, server_side: bool):
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
