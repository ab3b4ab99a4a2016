"""Tests for the closed wire codec and wire-layer bugfixes.

The codec speaks one value grammar (scalars, containers, sorted sets,
one-dimensional arrays of the mesh dtypes) plus a fixed registry of records
and errors.  Every value of the grammar and every registered record and
error round-trips, every compiled plan of the differential corpus comes back
as a DAG that renders identically, and equal plans encode to equal bytes
whatever the interpreter's hash seed.  Forged frames — a table whose row
count disagrees with its columns, a column of the wrong dtype, a column
definition without a name, an unknown tag, record or dtype code, truncated
payloads, trailing bytes, a pickle — are :class:`WireError`\\ s; an unknown
error code is a ``RuntimeError`` and imports nothing.

Also holds the regression tests for two wire-layer bugfixes:

* ``send_torn_frame`` must always leave the receiver genuinely mid-frame
  (header plus at least one payload byte, never the whole frame) and
  refuse frames too small to tear — tiny frames used to send the header
  only;
* ``mesh._endpoint`` must not silently rewrite a bare advertised port to
  loopback, where the silent rewrite dialled the wrong machine: an
  advertised address is a ``(host, port)`` pair or a :class:`WireError`.
"""

import os
import pathlib
import pickle
import socket
import subprocess
import sys

import numpy as np
import pytest

import repro as cc
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.hybrid.stp import LeakageEvent, LeakageReport
from repro.queries import credit_card_regulation_query
from repro.runtime import wire
from repro.runtime.faults import FaultPlan, KillFault, LinkFault
from repro.runtime.mesh import _endpoint
from repro.runtime.wire import (
    CODEC_MAGIC,
    MESH_DTYPES,
    UnsupportedPayload,
    WireError,
    decode_payload,
    encode_frame,
    encode_payload,
    recv_frame,
    send_frame,
    send_torn_frame,
)

from test_differential import NUM_PLANS, build_query, generate_spec
from test_differential import SEED as CORPUS_SEED

SEED = 20260808
REPO = pathlib.Path(__file__).resolve().parent.parent


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


# -- round-trips of the value grammar ---------------------------------------------------------


PRIMITIVES = [
    None, True, False, 0, 1, -1, 2**80, -(2**80), 0.0, -1.5, float("inf"),
    "", "héllo wörld", "x" * 5000, b"", b"\x00\xff" * 300,
    [], (), {}, set(), frozenset(), [1, [2, [3]]], (1, (2, (3,))),
    {"k": 1, 2: "v", None: (1, 2)}, {1, 2, 3}, frozenset({"a", "b"}),
]


@pytest.mark.parametrize("value", PRIMITIVES, ids=[repr(v)[:30] for v in PRIMITIVES])
def test_primitive_round_trips(value):
    assert deep_equal(roundtrip(value), value)


def test_nan_round_trips():
    got = roundtrip(float("nan"))
    assert isinstance(got, float) and got != got


def test_sets_are_written_sorted():
    """Equal sets encode to equal bytes whatever their iteration order."""
    names = [f"party-{i}" for i in range(40)]
    assert encode_payload(set(names)) == encode_payload(set(reversed(names)))
    with pytest.raises(UnsupportedPayload, match="canonical order"):
        encode_payload({1, "a"})


@pytest.mark.parametrize("case", range(10))
def test_random_arrays_round_trip(case):
    rng = np.random.default_rng(SEED + case)
    dtype = MESH_DTYPES[int(rng.integers(0, len(MESH_DTYPES)))]
    arr = rng.integers(0, 100, size=int(rng.integers(0, 50))).astype(dtype)
    got = roundtrip(arr)
    assert deep_equal(got, arr)
    assert got.flags.writeable and got.flags.aligned


def test_large_array_round_trips():
    """Arrays well past one 64 KiB socket buffer are ordinary payloads."""
    rng = np.random.default_rng(SEED)
    arr = rng.integers(0, 2**63, size=(1 << 14,), dtype=np.uint64)  # 128 KiB
    assert arr.nbytes > (1 << 16)
    assert deep_equal(roundtrip(arr), arr)


def test_non_contiguous_arrays_round_trip():
    base = np.arange(24, dtype=np.int64)
    for view in (base[::2], base[::-1], base[3:17:5]):
        got = roundtrip(view)
        assert got.shape == view.shape and np.array_equal(got, view)


@pytest.mark.parametrize(
    "arr",
    [np.arange(4).reshape(2, 2), np.array(7), np.zeros(3, dtype=np.int32),
     np.array(["a"]), np.array([object()], dtype=object)],
    ids=["2-d", "0-d", "int32", "unicode", "object"],
)
def test_arrays_outside_the_allowlist_are_refused(arr):
    with pytest.raises(UnsupportedPayload, match="one-dimensional array"):
        encode_payload(arr)


def test_table_and_column_type_round_trip():
    table = Table(Schema([ColumnDef("k"), ColumnDef("v", ColumnType.FLOAT)]),
                  [np.arange(5), np.arange(5) * 0.5])
    got = roundtrip({"outputs": {"out": table}, "type": ColumnType.FLOAT})
    out = got["outputs"]["out"]
    assert type(out) is Table and out == table
    assert got["type"] is ColumnType.FLOAT


# -- the record registry ----------------------------------------------------------------------


def _compiled_credit_plan():
    spec = credit_card_regulation_query(rows_demographics=50, rows_per_agency=50)
    return cc.compile_query(spec.context)


def record_samples() -> list:
    """One instance of every record type of the registry."""
    compiled = _compiled_credit_plan()
    relation = compiled.dag.topological()[-1].out_rel
    column = ColumnDef("v", ColumnType.FLOAT, frozenset({"a.example", "*"}))
    event = LeakageEvent("cardinality", "rel", ("k",), ("a.example",), "rows=3")
    kill = KillFault("a.example", at_query=2, after_mesh_frames=1)
    link = LinkFault("b.example", "delay", nth_frame=0, delay_seconds=0.25)
    return [
        compiled, compiled.report, compiled.config, compiled.dag, relation,
        Schema([ColumnDef("k"), column]), column, ColumnType.INT,
        Table(Schema([ColumnDef("k"), column]), [np.arange(3), np.linspace(0, 1, 3)]),
        event, LeakageReport([event]), FaultPlan(kills=(kill,), links=(link,)), kill, link,
    ]


def test_every_record_type_round_trips():
    samples = record_samples()
    assert [type(s) for s in samples] == [r.cls for r in wire._registry().records]
    for sample in samples:
        got = roundtrip(sample)
        assert type(got) is type(sample)
        # Records are written field by field in a fixed order, so a faithful
        # decode re-encodes to the same bytes.
        assert encode_payload(got) == encode_payload(sample), type(sample).__name__
    assert roundtrip(samples[8]) == samples[8]  # Table compares by value
    assert roundtrip(samples[9]) == samples[9]  # and so do the dataclasses


def test_the_operator_field_table_covers_every_node_attribute():
    """No attribute of any corpus node is left off the wire."""
    for plan in range(NUM_PLANS):
        ctx, _inputs = build_query(generate_spec(CORPUS_SEED + plan))
        for node in cc.compile_query(ctx).dag.topological():
            fields = wire._NODE_FIELDS + wire._OPERATOR_FIELDS[type(node).__name__]
            assert set(vars(node)) == {"parents", "children", *fields}


def test_corpus_plans_round_trip_to_identical_dags():
    for plan in range(NUM_PLANS):
        ctx, _inputs = build_query(generate_spec(CORPUS_SEED + plan))
        compiled = cc.compile_query(ctx)
        got = roundtrip(compiled)
        assert got.dag.render() == compiled.dag.render(), f"plan {plan}"
        assert got.config == compiled.config and got.report == compiled.report
        assert encode_payload(got) == encode_payload(compiled), f"plan {plan}"


def test_the_plan_fingerprint_does_not_depend_on_the_hash_seed():
    """Sets are written sorted, so one plan has one fingerprint in every
    process (the parties' sets used to be written in hash order)."""
    script = (
        "import repro as cc\n"
        "from repro.queries import credit_card_regulation_query\n"
        "from repro.runtime.service import plan_fingerprint\n"
        "spec = credit_card_regulation_query(rows_demographics=50, rows_per_agency=50)\n"
        "print(plan_fingerprint(cc.compile_query(spec.context)))\n"
    )
    fingerprints = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        fingerprints.add(out.stdout.strip())
    assert len(fingerprints) == 1, fingerprints


# -- the error registry -----------------------------------------------------------------------


@pytest.mark.parametrize("cls", wire._registry().errors, ids=lambda cls: cls.__name__)
def test_every_registered_error_round_trips(cls):
    exc = cls("mesh link died", 42)
    got = roundtrip(("error", 7, exc, "traceback..."))[2]
    assert type(got) is cls and got.args == exc.args


def test_an_unregistered_error_crosses_as_its_nearest_registered_base():
    class Boom(KeyError):
        pass

    got = roundtrip(Boom("x"))
    assert type(got) is KeyError and got.args == ("Boom: 'x'",)
    # Args outside the scalars cross as their text.
    got = roundtrip(ValueError("bad", ("a", 1), [2]))
    assert got.args == ("bad", "('a', 1)", "[2]")


def test_an_unknown_error_code_decodes_to_runtimeerror_and_imports_nothing():
    args = encode_payload(("boom",))[1:]
    payload = bytes([CODEC_MAGIC, wire._T_ERROR, 250]) + args
    before = set(sys.modules)
    got = decode_payload(payload)
    assert type(got) is RuntimeError and "250" in str(got) and "boom" in str(got)
    assert set(sys.modules) == before


# -- forged records are refused ---------------------------------------------------------------


def _int_table(rows: int = 3) -> Table:
    return Table(Schema([ColumnDef("x")]), [np.arange(rows)])


def test_a_table_whose_row_count_disagrees_with_its_columns_is_refused():
    forged = _int_table()
    forged._nrows = 5
    with pytest.raises(WireError, match="claims 5 rows"):
        decode_payload(encode_payload(forged))


def test_a_table_with_a_unicode_column_is_refused():
    forged = _int_table()
    forged._columns = (np.array(list("abc")),)
    with pytest.raises(WireError):
        decode_payload(encode_frame(forged)[4:])
    # A forged dtype code outside the allowlist is refused on decode, and so
    # is an allowlisted dtype the column's type does not store.
    genuine = encode_payload(_int_table())
    column = bytes([wire._T_ARRAY, 2, 3])
    assert genuine.count(column) == 1
    for code, why in ((9, "unknown dtype code"), (3, "is not int data")):
        with pytest.raises(WireError, match=why):
            decode_payload(genuine.replace(column, bytes([wire._T_ARRAY, code, 3])))


def test_a_column_definition_without_a_name_is_refused():
    forged = ColumnDef("x")
    object.__setattr__(forged, "name", "")
    with pytest.raises(WireError, match="non-empty"):
        decode_payload(encode_payload(forged))


def test_an_unknown_record_code_is_refused():
    with pytest.raises(WireError, match="unknown record code"):
        decode_payload(bytes([CODEC_MAGIC, wire._T_RECORD, 0xFF]))


def test_a_forged_plan_is_refused():
    """A DAG whose links do not form the plan they claim is refused by the
    DAG's own validation."""
    compiled = _compiled_credit_plan()
    forged = wire._registry()._dag_fields(compiled.dag)
    roots, fresh, nodes = forged
    cyclic = list(nodes)
    cyclic[0] = (nodes[0][0], (len(nodes) - 1,), *nodes[0][2:])
    for fields in ((roots, fresh, tuple(cyclic)), ((len(nodes),), fresh, nodes), ((), fresh, nodes)):
        record = bytearray([CODEC_MAGIC, wire._T_RECORD, wire._registry().record_codes[type(compiled.dag)]])
        for value in fields:
            record += encode_payload(value)[1:]
        with pytest.raises(WireError, match="invalid Dag record"):
            decode_payload(bytes(record))


# -- control frames ---------------------------------------------------------------------------


def test_control_frames_round_trip_over_a_socket():
    frames = [
        ("hello", "alpha.example"),
        ("ports", ("127.0.0.1", 4000)),
        ("peers", {"dial": {"alpha.example": ("127.0.0.1", 4000)},
                   "accept": {"gamma.example": 0}}),
        ("ready", None),
        ("join", "alpha.example", 0, "a" * 32, "b" * 64),
        ("join", "beta.example", 3, "a" * 32, "c" * 64),
        ("session", {"parties": ["alpha.example", "beta.example"], "idle_timeout": None,
                     "max_workers": 8, "released_watermark": 3}),
    ]
    left, right = socket.socketpair()
    try:
        right.settimeout(5)
        for frame in frames:
            send_frame(left, frame)
        assert [recv_frame(right) for _ in frames] == frames
    finally:
        left.close()
        right.close()


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


def test_objects_outside_the_registry_are_refused():
    class Outside:
        pass

    with pytest.raises(WireError, match="not expressible in the wire codec"):
        encode_frame(Outside())
    with pytest.raises(WireError, match="not expressible in the wire codec"):
        encode_frame(np.float64(1.5))


def test_a_pickle_payload_is_not_a_codec_payload():
    """Whatever a payload's first byte is, only ``0xC7`` is ever decoded."""
    data = pickle.dumps({"k": 1}, protocol=pickle.HIGHEST_PROTOCOL)
    for payload in (data, b"", b"\x00", bytes([CODEC_MAGIC ^ 0xFF]) + data):
        with pytest.raises(WireError, match="not a codec frame"):
            decode_payload(payload)


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
