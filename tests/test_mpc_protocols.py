"""Tests for the oblivious relational operators over secret-shared tables."""

import contextlib
import copy
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid import SelectivelyTrustedParty, hybrid_agg
from repro.model.counters import CostMeter
from repro.mpc import protocols
from repro.mpc.network import Network, TransportError
from repro.mpc.oblivious import oblivious_merge, oblivious_shuffle, oblivious_sort
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import AdditiveSharing, SecretSharingEngine, SharedVector
from repro.mpc.shape import ShapeEngine
from repro.mpc.sharemind import SharemindBackend
from repro.runtime.queues import queue_channels
from test_differential import NUM_PLANS, SEED, generate_spec, run_generated
from tests.conftest import PARTIES, make_table


def share(engine, table):
    return SharedTable.from_table(engine, table)


class TestShareAndReveal:
    def test_roundtrip(self, engine, kv_table):
        shared = share(engine, kv_table)
        assert shared.reveal() == kv_table

    def test_roundtrip_float_columns(self, engine):
        table = make_table({"x": [1.25, -2.5, 0.0]}, float_cols={"x"})
        shared = share(engine, table)
        assert np.allclose(shared.reveal().column("x"), [1.25, -2.5, 0.0])

    def test_reveal_to_single_party(self, engine, kv_table):
        shared = share(engine, kv_table)
        revealed = shared.reveal_to(PARTIES[1])
        assert revealed == kv_table

    def test_schema_width_mismatch_rejected(self, engine, kv_table):
        shared = share(engine, kv_table)
        with pytest.raises(ValueError):
            SharedTable(engine, kv_table.schema, shared.columns[:1])


class TestProjectConcat:
    def test_project(self, engine, kv_table):
        shared = share(engine, kv_table)
        projected = protocols.mpc_project(shared, ["value"])
        assert projected.reveal() == kv_table.project(["value"])

    def test_concat(self, engine, kv_table, other_kv_table):
        a, b = share(engine, kv_table), share(engine, other_kv_table)
        combined = protocols.mpc_concat([a, b])
        assert combined.reveal().equals_unordered(kv_table.concat(other_kv_table))

    def test_concat_incompatible_schemas_rejected(self, engine, kv_table):
        other = make_table({"a": [1]})
        with pytest.raises(ValueError):
            protocols.mpc_concat([share(engine, kv_table), share(engine, other)])

    def test_concat_across_engines_rejected(self, engine, kv_table):
        other_engine = SecretSharingEngine(["x", "y"], seed=0)
        with pytest.raises(ValueError):
            protocols.mpc_concat([share(engine, kv_table), share(other_engine, kv_table)])


class TestFilterSort:
    @pytest.mark.parametrize("op,value", [("==", 1), ("!=", 1), ("<", 3), (">", 2), ("<=", 2), (">=", 3)])
    def test_filter_matches_cleartext(self, engine, kv_table, op, value):
        shared = share(engine, kv_table)
        result = protocols.mpc_filter(shared, "key", op, value)
        assert result.reveal().equals_unordered(kv_table.filter("key", op, value))

    def test_filter_unknown_op_rejected(self, engine, kv_table):
        with pytest.raises(ValueError):
            protocols.mpc_filter(share(engine, kv_table), "key", "~", 1)

    def test_sort_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_sort(shared, "value")
        assert result.reveal() == kv_table.sort_by(["value"])

    def test_sort_descending(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_sort(shared, "value", ascending=False)
        assert result.reveal() == kv_table.sort_by(["value"], ascending=False)


class TestJoin:
    def test_join_matches_cleartext(self, engine, kv_table, other_kv_table):
        left, right = share(engine, kv_table), share(engine, other_kv_table)
        joined = protocols.mpc_join(left, right, "key", "key")
        expected = kv_table.join(other_kv_table, ["key"], ["key"])
        assert joined.reveal().equals_unordered(expected)
        assert joined.schema.names == expected.schema.names

    def test_join_cost_is_quadratic_comparisons(self, engine, kv_table, other_kv_table):
        left, right = share(engine, kv_table), share(engine, other_kv_table)
        before = engine.meter.comparisons
        protocols.mpc_join(left, right, "key", "key")
        assert engine.meter.comparisons - before >= kv_table.num_rows * other_kv_table.num_rows

    def test_join_empty_side(self, engine, kv_table, kv_schema):
        left = share(engine, kv_table)
        right = share(engine, Table.empty(kv_schema))
        joined = protocols.mpc_join(left, right, "key", "key")
        assert joined.num_rows == 0

    def test_join_across_engines_rejected(self, engine, kv_table):
        other_engine = SecretSharingEngine(["x", "y"], seed=0)
        with pytest.raises(ValueError):
            protocols.mpc_join(share(engine, kv_table), share(other_engine, kv_table), "key", "key")


class TestAggregate:
    def test_grouped_sum_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_aggregate(shared, "key", [("sum", "value", "total")])
        expected = kv_table.aggregate(["key"], "value", "sum", "total")
        assert result.reveal().equals_unordered(expected)

    def test_grouped_count_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_aggregate(shared, "key", [("count", None, "cnt")])
        expected = kv_table.aggregate(["key"], None, "count", "cnt")
        assert result.reveal().equals_unordered(expected)

    def test_scalar_sum_and_count(self, engine, kv_table):
        shared = share(engine, kv_table)
        total = protocols.mpc_aggregate(shared, None, [("sum", "value", "s")])
        count = protocols.mpc_aggregate(shared, None, [("count", None, "c")])
        assert total.reveal().rows() == [(210,)]
        assert count.reveal().rows() == [(6,)]

    def test_scalar_sum_requires_no_comparisons(self, engine, kv_table):
        shared = share(engine, kv_table)
        before = engine.meter.comparisons
        protocols.mpc_aggregate(shared, None, [("sum", "value", "s")])
        assert engine.meter.comparisons == before

    def test_presorted_aggregation_skips_sort(self, engine, kv_table):
        sorted_table = kv_table.sort_by(["key"])
        shared = share(engine, sorted_table)
        before = engine.meter.comparisons
        result = protocols.mpc_aggregate(shared, "key", [("sum", "value", "t")], presorted=True)
        presorted_cost = engine.meter.comparisons - before
        expected = kv_table.aggregate(["key"], "value", "sum", "t")
        assert result.reveal().equals_unordered(expected)

        engine2 = SecretSharingEngine(PARTIES, seed=5)
        shared2 = SharedTable.from_table(engine2, sorted_table)
        before2 = engine2.meter.comparisons
        protocols.mpc_aggregate(shared2, "key", [("sum", "value", "t")], presorted=False)
        unsorted_cost = engine2.meter.comparisons - before2
        assert presorted_cost < unsorted_cost

    def test_unsupported_grouped_function_rejected(self, engine, kv_table):
        with pytest.raises(ValueError):
            protocols.mpc_aggregate(share(engine, kv_table), "key", [("mean", "value", "m")])

    def test_empty_relation(self, engine, kv_schema):
        shared = share(engine, Table.empty(kv_schema))
        result = protocols.mpc_aggregate(shared, "key", [("sum", "value", "t")])
        assert result.num_rows == 0

    def test_distinct(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_distinct(shared, ["key"])
        assert sorted(result.reveal().column("key").tolist()) == [1, 2, 3, 4]


class RoundLog(Network):
    """The in-process network, remembering ``(tag, size_bytes)`` of every
    round that carries traffic."""

    def __init__(self, party_names):
        super().__init__(party_names)
        self.rounds = []

    def round(self, tag, sends, size_bytes):
        if sends:
            self.rounds.append((tag, int(size_bytes)))
        return super().round(tag, sends, size_bytes)


#: Relations for the single-opening test; every one is sorted by key, so the
#: same rows serve the sorted and the presorted path.
AGGREGATE_CASES = {
    "empty": [],
    "one-row": [(3, 10)],
    "two-rows": [(1, 5), (2, 7)],
    "all-equal": [(4, v) for v in (6, 1, 5, 2, 4, 3)],
    "all-distinct": [(k, 10 * k) for k in range(1, 7)],
}

#: ``(comparisons, multiplications)`` one aggregation charged at the commit
#: before the key column was opened once — by ``(scan kind, presorted, rows)``.
#: The ideal functionality may be computed from fewer openings; the price of
#: the oblivious protocol it stands for may not move.
AGGREGATE_CHARGES = {
    ("sum", False, 2): (2, 5), ("sum", False, 6): (29, 101),
    ("sum", True, 2): (1, 1), ("sum", True, 6): (5, 5),
    ("extremum", False, 2): (3, 6), ("extremum", False, 6): (34, 106),
    ("extremum", True, 2): (2, 2), ("extremum", True, 6): (10, 10),
    # A count's column of ones is ones in any order: the sort carries the
    # key alone.
    ("count", False, 2): (2, 3), ("count", False, 6): (29, 53),
}


class TestAggregateSendsItsKeyOnce:
    @pytest.mark.parametrize("case", AGGREGATE_CASES)
    @pytest.mark.parametrize("presorted", [False, True], ids=["sorted", "presorted"])
    @pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
    def test_one_key_round_same_rows_same_charges(self, func, presorted, case, kv_schema):
        rows = AGGREGATE_CASES[case]
        n = len(rows)
        table = Table.from_rows(kv_schema, rows) if rows else Table.empty(kv_schema)
        log = RoundLog(PARTIES)
        engine = SecretSharingEngine(PARTIES, seed=3, network=log)
        shared = share(engine, table)
        del log.rounds[:]
        comparisons, multiplications = engine.meter.comparisons, engine.meter.multiplications

        agg_col = None if func == "count" else "value"
        result = protocols.mpc_aggregate(
            shared, "key", [(func, agg_col, "out")], presorted=presorted
        )

        assert result.reveal().equals_unordered(table.aggregate(["key"], agg_col, func, "out"))
        scan = "sum" if func in ("sum", "count") else "extremum"
        # The key column goes to the last compute party once, and its order
        # (unless presorted) and packed adjacent-equality flags come back;
        # for min/max the value column the scan runs on goes there too.
        assert "env-open" not in [tag for tag, _size in log.rounds]
        assert [size for tag, size in log.rounds if tag == "env-apply"] == [n * 8] * (
            (n > 1) * (1 + (scan == "extremum"))
        )
        assert [size for tag, size in log.rounds if tag == "hand-back"] == [
            (0 if presorted else 8 * n) + (n + 6) // 8
        ] * (n > 1)
        assert (
            engine.meter.comparisons - comparisons,
            engine.meter.multiplications - multiplications,
        ) == AGGREGATE_CHARGES.get(
            (func, presorted, n), AGGREGATE_CHARGES.get((scan, presorted, n), (0, 0))
        )

    def test_distinct_sends_its_column_once(self, kv_table):
        log = RoundLog(PARTIES)
        engine = SecretSharingEngine(PARTIES, seed=3, network=log)
        shared = share(engine, kv_table)
        del log.rounds[:]
        result = protocols.mpc_distinct(shared, ["key"])
        assert sorted(result.reveal().column("key").tolist()) == [1, 2, 3, 4]
        tags = [tag for tag, _size in log.rounds]
        assert (tags.count("env-open"), tags.count("env-apply"), tags.count("hand-back")) == (0, 1, 1)


class TestArithmetic:
    def test_multiply_by_scalar_and_column(self, engine, kv_table):
        shared = share(engine, kv_table)
        by_scalar = protocols.mpc_arith(shared, "double", "value", "*", 2)
        assert by_scalar.reveal().column("double").tolist() == [
            2 * v for _, v in kv_table.rows()
        ]
        by_column = protocols.mpc_arith(shared, "prod", "key", "*", "value")
        assert by_column.reveal().column("prod").tolist() == [
            k * v for k, v in kv_table.rows()
        ]

    def test_fixed_point_multiplication_rescales(self, engine):
        table = make_table({"a": [0.5, 1.5], "b": [0.5, 2.0]}, float_cols={"a", "b"})
        shared = share(engine, table)
        result = protocols.mpc_arith(shared, "ab", "a", "*", "b")
        assert np.allclose(result.reveal().column("ab"), [0.25, 3.0], atol=1e-4)

    def test_divide_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_arith(shared, "ratio", "value", "/", "key")
        expected = [v / k for k, v in kv_table.rows()]
        assert np.allclose(result.reveal().column("ratio"), expected, atol=1e-4)

    def test_divide_by_zero_gives_zero(self, engine):
        table = make_table({"a": [10], "b": [0]})
        shared = share(engine, table)
        result = protocols.mpc_arith(shared, "q", "a", "/", "b")
        assert result.reveal().column("q").tolist() == [0.0]
        result = protocols.mpc_arith(shared, "q", "a", "/", 0)
        assert result.reveal().column("q").tolist() == [0.0]

    def test_divide_by_public_scalar(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_arith(shared, "quarter", "value", "/", 4)
        assert result.schema["quarter"].ctype is ColumnType.FLOAT
        assert result.reveal().column("quarter").tolist() == [v / 4 for _, v in kv_table.rows()]


# -- property-based equivalence with the cleartext reference ---------------------------------

rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-100, 100)), min_size=1, max_size=12
)


@given(rows=rows_strategy)
@settings(max_examples=15, deadline=None)
def test_mpc_aggregate_equals_cleartext_property(rows):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows)
    engine = SecretSharingEngine(PARTIES, seed=11)
    shared = SharedTable.from_table(engine, table)
    result = protocols.mpc_aggregate(shared, "key", [("sum", "value", "total")])
    assert result.reveal().equals_unordered(table.aggregate(["key"], "value", "sum", "total"))


@given(left=rows_strategy, right=rows_strategy)
@settings(max_examples=10, deadline=None)
def test_mpc_join_equals_cleartext_property(left, right):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    lt, rt = Table.from_rows(schema, left), Table.from_rows(schema, right)
    engine = SecretSharingEngine(PARTIES, seed=13)
    joined = protocols.mpc_join(
        SharedTable.from_table(engine, lt), SharedTable.from_table(engine, rt), "key", "key"
    )
    assert joined.reveal().equals_unordered(lt.join(rt, ["key"], ["key"]))


# -- the invariant the one-bit flag opening rests on -----------------------------------------


@contextlib.contextmanager
def watching_compact():
    """Record the cleartext of every flags vector that reaches ``compact``
    (the hybrid aggregation reaches it through the aggregations' shared
    tail in the same module).  The reconstruction is the test's own, full
    width, from the slices the all-local engine holds."""
    seen, compact = [], protocols.compact

    def watched(engine, flags, columns):
        seen.append(AdditiveSharing.reconstruct(flags.shares))
        return compact(engine, flags, columns)

    with mock.patch.object(protocols, "compact", watched):
        yield seen


def assert_all_bits(seen):
    assert seen, "no flags vector reached compact"
    for flags in seen:
        assert np.isin(flags, (0, 1)).all(), flags


@given(
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.one_of(st.integers(-100, 100), st.integers(-(2**62), 2**62))),
        max_size=12,
    ),
    op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    value=st.one_of(st.integers(-100, 100), st.floats(-3, 3, allow_nan=False)),
    func=st.sampled_from(["sum", "count", "min", "max"]),
)
@settings(max_examples=40, deadline=None)
def test_every_flags_vector_reaching_compact_holds_bits(rows, op, value, func):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows) if rows else Table.empty(schema)
    backend = SharemindBackend(PARTIES, seed=17)
    shared = backend.ingest(table)
    stp = SelectivelyTrustedParty("stp.example", ColumnarBackend())
    with watching_compact() as seen:
        backend.filter(shared, "value", op, value)
        backend.join(shared, shared, "key", "key")
        backend.aggregate(shared, "key", [(func, "value", "out")])
        backend.aggregate(
            backend.sort_by(shared, "key"), "key", [(func, "value", "out")], presorted=True
        )
        hybrid_agg.hybrid_aggregate(backend, stp, shared, "key", [("sum", "value", "out")])
    assert len(seen) == (5 if rows else 2)  # an empty aggregation compacts nothing
    assert_all_bits(seen)


def test_corpus_flags_reaching_compact_hold_bits():
    """The 50-plan differential corpus, simulated transport: compound
    predicates (and / or / not over secret flags), joins and both
    aggregations all hand ``compact`` zeros and ones, nothing else."""
    with watching_compact() as seen:
        for plan in range(NUM_PLANS):
            run_generated(generate_spec(SEED + plan))
    # One compaction per MPC group-by (however many aggregates it has),
    # filter on a mask and MPC join of the corpus: the exact count pins
    # that the watcher sees all of them.
    assert len(seen) == 49
    assert_all_bits(seen)


# -- compaction reshares the payload at the surviving rows only ------------------------------

COMPACT_SEED = 29
COMPACT_FLAGS = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1], dtype=np.int64)
COMPACT_COLUMNS = [
    np.arange(14, dtype=np.int64) * 7 - 30,
    np.array([2**62, -(2**62), 5, -1, 0, 9, 9, 3, -7, 2**40, 11, 4, 4, 8], dtype=np.int64),
]
#: Every party's slice of the flags and of each payload column.
COMPACT_FLAG_SLICES = AdditiveSharing.share(COMPACT_FLAGS, len(PARTIES), np.random.default_rng(1))
COMPACT_COLUMN_SLICES = [
    AdditiveSharing.share(col, len(PARTIES), np.random.default_rng(2 + k))
    for k, col in enumerate(COMPACT_COLUMNS)
]


def full_reshare_compact(engine, flags, columns):
    """Compaction through the whole-relation shuffle: every payload column
    reshared over all rows, then the survivors taken."""
    shuffled = oblivious_shuffle(engine, [flags, *columns])
    keep = engine.rows_where(engine.open_flags(shuffled[0]))
    return [col.take(keep) for col in shuffled[1:]]


def agent_engines(channels):
    """One engine per party, holding its slice only, on ``channels``."""
    return [
        SecretSharingEngine(
            PARTIES, seed=COMPACT_SEED, local_parties=[party],
            network=Network(PARTIES, channel=channels[party]),
        )
        for party in PARTIES
    ]


def compaction_engines(layout):
    """One engine holding every slice, or one agent-shaped engine per party
    (one slice each) joined by in-memory queue channels."""
    if layout == "all-local":
        return [SecretSharingEngine(PARTIES, seed=COMPACT_SEED)]
    return agent_engines(queue_channels(PARTIES))


def run_compaction(layout, protocol):
    """Run ``protocol`` in lockstep on every engine of ``layout``.  Returns
    the output slices by party, and per engine the mask streams as they
    stood before the compaction and after it."""

    def run(engine):
        held = engine.local_indices
        flags = SharedVector(engine, [COMPACT_FLAG_SLICES[i] for i in held])
        columns = [SharedVector(engine, [slices[i] for i in held]) for slices in COMPACT_COLUMN_SLICES]
        before = copy.deepcopy(engine._mask_rngs)
        return engine, before, protocol(engine, flags, columns)

    engines = compaction_engines(layout)
    with ThreadPoolExecutor(len(engines)) as pool:
        runs = list(pool.map(run, engines))
    slices = [[None] * len(PARTIES) for _ in COMPACT_COLUMNS]
    for engine, _before, out in runs:
        for k, col in enumerate(out):
            for pos, i in enumerate(engine.local_indices):
                slices[k][i] = col.shares[pos]
    return slices, [(engine, before) for engine, before, _out in runs]


def surviving_rows():
    """Input positions of the kept rows, in the order compaction emits them."""
    order = np.random.default_rng(COMPACT_SEED).permutation(len(COMPACT_FLAGS))
    return order[COMPACT_FLAGS[order] == 1]


@pytest.mark.parametrize("layout", ["all-local", "agents"])
class TestCompactionResharesTheSurvivors:
    def test_same_rows_in_the_same_order_as_a_full_reshare(self, layout):
        new, _ = run_compaction(layout, protocols.compact)
        old, _ = run_compaction(layout, full_reshare_compact)
        rows = surviving_rows()
        for k, values in enumerate(COMPACT_COLUMNS):
            assert AdditiveSharing.reconstruct(new[k]).tolist() == values[rows].tolist()
            assert AdditiveSharing.reconstruct(old[k]).tolist() == values[rows].tolist()

    def test_every_surviving_slice_is_fresh(self, layout):
        out, _ = run_compaction(layout, protocols.compact)
        rows = surviving_rows()
        for k, slices in enumerate(COMPACT_COLUMN_SLICES):
            for i in range(len(PARTIES)):
                assert not np.array_equal(out[k][i], slices[i][rows]), (k, i)

    @pytest.mark.parametrize("protocol", [protocols.compact, full_reshare_compact], ids=["compact", "full-reshare"])
    def test_each_mask_stream_draws_one_word_per_resharing(self, layout, protocol):
        n, k, m = len(COMPACT_FLAGS), len(COMPACT_COLUMNS), len(surviving_rows())
        words = n + k * m if protocol is protocols.compact else n * (k + 1)
        last = len(PARTIES) - 1
        _, runs = run_compaction(layout, protocol)
        for engine, before in runs:
            held = engine.local_indices
            for j, (old, now) in enumerate(zip(before, engine._mask_rngs)):
                # Party j's own mask; the last party's slice needs them all.
                drawn = last in held or j in held
                old.bit_generator.random_raw(words if drawn else 0)
                assert old.bit_generator.state == now.bit_generator.state, (held, j)


def test_an_empty_compaction_runs_no_round_and_draws_no_permutation():
    log = RoundLog(PARTIES)
    engine = SecretSharingEngine(PARTIES, seed=COMPACT_SEED, network=log)
    state = engine.rng.bit_generator.state
    empty = engine.empty_vector()
    out = protocols.compact(engine, empty, [empty, empty])
    assert [len(col) for col in out] == [0, 0]
    assert log.rounds == [] and engine.meter.counts() == CostMeter().counts()
    assert engine.rng.bit_generator.state == state


@pytest.mark.parametrize("n", [0, len(COMPACT_FLAGS)])
def test_a_shape_run_charges_the_compaction_an_execution_charges(n):
    engine = SecretSharingEngine(PARTIES, seed=COMPACT_SEED)
    flags = engine.constant(COMPACT_FLAGS[:n])
    out = protocols.compact(engine, flags, [engine.constant(col[:n]) for col in COMPACT_COLUMNS])
    m = len(out[0])
    shape = ShapeEngine(PARTIES, rows_out=lambda: m)
    shaped = protocols.compact(shape, shape.fill(0, n), [shape.fill(0, n) for _ in COMPACT_COLUMNS])
    assert [len(col) for col in shaped] == [m] * len(COMPACT_COLUMNS)
    assert shape.meter.counts() == engine.meter.counts()


# -- the environment's functions run at the last compute party only ----------------------------

#: Two fixed-point operand columns: row 0 has ``a > b`` (``a < b`` is false
#: there), row 1 ``a == b``.
APPLY_COLUMNS = [np.array([3.0, 1.5, -2.25, 4.0]), np.array([-5.0, 1.5, 0.5, 8.0])]
APPLY_SCHEMA = Schema([ColumnDef("a", ColumnType.FLOAT), ColumnDef("b", ColumnType.FLOAT)])
APPLY_SLICES = [
    AdditiveSharing.share(
        np.round(col * protocols.FIXED_POINT_SCALE).astype(np.int64),
        len(PARTIES), np.random.default_rng(7 + k),
    )
    for k, col in enumerate(APPLY_COLUMNS)
]
#: Each ideal functionality over the operand table, and how many vectors
#: its ``env-apply`` round carries.
APPLY_STEPS = {
    "less-than": (lambda t: t.engine.less_than(*t.columns), 2),
    "equals": (lambda t: t.engine.equals(*t.columns), 1),
    "multiply-fixed": (lambda t: protocols.mpc_arith(t, "out", "a", "*", "b").column("out"), 1),
    "divide": (lambda t: protocols.mpc_arith(t, "out", "a", "/", "b").column("out"), 2),
}


def run_apply(step, engines):
    """``step`` on the operand table at every engine of ``engines``, in
    lockstep; returns each engine's slices of the result."""

    def run(engine):
        held = engine.local_indices
        columns = [SharedVector(engine, [slices[i] for i in held]) for slices in APPLY_SLICES]
        return APPLY_STEPS[step][0](SharedTable(engine, APPLY_SCHEMA, columns)).shares

    with ThreadPoolExecutor(len(engines)) as pool:
        return [share for shares in pool.map(run, engines) for share in shares]


@contextlib.contextmanager
def reconstructions():
    """The held parties of every engine that reconstructs an ``env-apply``
    round's slices, call by call."""
    with mock.patch.object(
        SecretSharingEngine, "_opened", autospec=True, side_effect=SecretSharingEngine._opened
    ) as opened:
        seen = []
        yield seen
    seen.extend(
        call.args[0].held_share_parties for call in opened.call_args_list if call.args[2] == "env-apply"
    )


@pytest.mark.parametrize("step", APPLY_STEPS)
def test_an_ideal_functionality_sends_its_operands_to_the_last_party_only(step):
    """One ``env-apply`` round of ``n - 1`` frames, all to the last compute
    party, whose engine alone reconstructs the operands; every slice of the
    result is the all-local engine's, byte for byte."""
    host, n, operands = PARTIES[-1], len(APPLY_COLUMNS[0]), APPLY_STEPS[step][1]
    channels = queue_channels(PARTIES)
    engines = agent_engines(channels)
    with reconstructions() as reconstructed:
        slices = run_apply(step, engines)
    reference = run_apply(step, [SecretSharingEngine(PARTIES, seed=COMPACT_SEED)])

    for engine in engines:
        applied = [r for r in engine.network.schedule if r[0] == "env-apply"]
        assert applied == [("env-apply", 2, 2 * n * operands * 8)]
    for party, channel in channels.items():
        assert channel.received.get("env-apply", [0, 0])[0] == (2 if party == host else 0)
    assert reconstructed == [(host,)]
    for got, want in zip(slices, reference, strict=True):
        assert got.tobytes() == want.tobytes()


def test_a_bit_flipped_in_the_hosts_env_apply_slice_corrupts_the_comparison():
    """The last party reconstructs the operands from the slices as
    delivered: flipping the top bit of one word of a peer's frame moves
    ``a[0]`` by ``2**63`` and flips ``a[0] < b[0]`` — or fails loudly."""
    channels = queue_channels(PARTIES)
    host = channels[PARTIES[-1]]
    receive, seen = host.receive_message, []

    def flipped(peer):
        tag, payload = receive(peer)
        if tag == "env-apply" and peer == PARTIES[0]:
            first = payload[0].copy()
            first[0] ^= np.uint64(1 << 63)
            seen.append(len(first))
            payload = (first, *payload[1:])
        return tag, payload

    host.receive_message = flipped
    expected = (APPLY_COLUMNS[0] < APPLY_COLUMNS[1]).tolist()
    try:
        slices = run_apply("less-than", agent_engines(channels))
    except (TransportError, RuntimeError, ValueError):
        assert seen == [len(expected)]
        return  # failing loudly satisfies the property too
    assert seen == [len(expected)]
    got = AdditiveSharing.reconstruct(slices).astype(bool).tolist()
    assert got == [not expected[0], *expected[1:]]



# -- sort positions are computed at the last compute party and handed back --------------------

#: A key column of two sorted runs (rows ``:3`` and ``3:``), the same keys
#: sorted for the presorted aggregation, and a value column.
POSITION_KEYS = {
    "runs": np.array([-1, 3, 3, -1, 3, 7, 2**40], dtype=np.int64),
    "sorted": np.array([-1, -1, 3, 3, 3, 7, 2**40], dtype=np.int64),
}
POSITION_VALUES = np.arange(7, dtype=np.int64) * 11 - 20
POSITION_SLICES = {
    kind: [
        AdditiveSharing.share(col, len(PARTIES), np.random.default_rng(13 + k))
        for k, col in enumerate((keys, POSITION_VALUES))
    ]
    for kind, keys in POSITION_KEYS.items()
}
KV_SCHEMA = Schema([ColumnDef("k"), ColumnDef("v")])
RUNS = [np.arange(3), np.arange(3, 7)]


def aggregate(presorted):
    def step(engine, key, value):
        table = SharedTable(engine, KV_SCHEMA, [key, value])
        return protocols.mpc_aggregate(table, "k", [("sum", "v", "s")], presorted=presorted).columns

    return step


def sort(engine, key, value):
    key, payload = oblivious_sort(engine, key, [value])
    return [key, *payload]


def merge(engine, key, value):
    key, payload = oblivious_merge(engine, [(key.take(rows), [value.take(rows)]) for rows in RUNS])
    return [key, *payload]


#: Each step over the key and value columns: the keys it takes, the step
#: (returning its result columns), and the payload bytes of the hand-back
#: every other party receives for ``n`` key rows — the order, the packed
#: adjacent-equality flags, or both.
POSITION_STEPS = {
    "aggregate": ("runs", aggregate(False), lambda n: 8 * n + (n + 6) // 8),
    "aggregate-presorted": ("sorted", aggregate(True), lambda n: (n + 6) // 8),
    "sort": ("runs", sort, lambda n: 8 * n),
    "merge": ("runs", merge, lambda n: 8 * n),
}


def received_payloads(channel):
    """Record ``(tag, payload bytes)`` of every frame ``channel`` receives."""
    receive, seen = channel.receive_message, []

    def recording(peer):
        tag, payload = receive(peer)
        arrays = payload if isinstance(payload, tuple) else (payload,)
        seen.append((tag, sum(array.nbytes for array in arrays)))
        return tag, payload

    channel.receive_message = recording
    return seen


def run_positions(step, engines):
    """``step`` at every engine of ``engines``, in lockstep:
    ``{(column, party): slice bytes}`` of its result."""
    kind, protocol, _ = POSITION_STEPS[step]

    def run(engine):
        held = engine.local_indices
        key, value = (SharedVector(engine, [slices[i] for i in held]) for slices in POSITION_SLICES[kind])
        return {
            (k, i): share.tobytes()
            for k, col in enumerate(protocol(engine, key, value))
            for i, share in zip(held, col.shares)
        }

    with ThreadPoolExecutor(len(engines)) as pool:
        return {got: data for out in pool.map(run, engines) for got, data in out.items()}


def assert_key_went_to_the_host_only(channels, payloads, handed_back):
    """One ``env-apply`` round of a key column, received by the last party;
    one hand-back frame of ``handed_back`` payload bytes at every other
    party; no ``env-open`` frame anywhere."""
    host = PARTIES[-1]
    for party, channel in channels.items():
        assert "env-open" not in channel.received
        assert channel.received.get("env-apply", [0])[0] == (2 if party == host else 0)
        handed = [size for tag, size in payloads[party] if tag == "hand-back"]
        assert handed == ([] if party == host else [handed_back])


@pytest.mark.parametrize("step", POSITION_STEPS)
def test_sort_positions_are_computed_at_the_last_party_and_handed_back(step):
    """The key column's slices go to the last compute party only, whose
    engine alone reconstructs it; the others receive one hand-back frame
    of the order and/or the packed flags; every slice of the result is the
    all-local engine's, byte for byte."""
    channels = queue_channels(PARTIES)
    payloads = {party: received_payloads(channel) for party, channel in channels.items()}
    with reconstructions() as reconstructed:
        slices = run_positions(step, agent_engines(channels))
    reference = run_positions(step, [SecretSharingEngine(PARTIES, seed=COMPACT_SEED)])

    assert_key_went_to_the_host_only(channels, payloads, POSITION_STEPS[step][2](len(POSITION_VALUES)))
    assert reconstructed == [(PARTIES[-1],)]
    assert slices == reference


@pytest.mark.parametrize(
    "base, verdict", [(5, [9, 12]), (10, [2**40, 12]), (2**41, [None, None])]
)
def test_a_key_range_verdict_is_decided_at_the_last_party(base, verdict):
    """Both key columns go to the last compute party in one round, which
    hands back each one's first value out of range (or none) in one frame
    of 8 bytes per column."""
    rng = np.random.default_rng(5)
    columns = [
        AdditiveSharing.share(np.array(values, dtype=np.int64), len(PARTIES), rng)
        for values in ([4, 0, 9, 2**40, 7], [1, 3, 2, 0, 12])
    ]
    channels = queue_channels(PARTIES)
    payloads = {party: received_payloads(channel) for party, channel in channels.items()}

    def check(engine):
        return engine.key_outside(
            [SharedVector(engine, [column[i] for i in engine.local_indices]) for column in columns],
            base,
        )

    with reconstructions() as reconstructed, ThreadPoolExecutor(len(PARTIES)) as pool:
        verdicts = list(pool.map(check, agent_engines(channels)))

    assert verdicts == [verdict] * len(PARTIES)
    assert check(SecretSharingEngine(PARTIES, seed=COMPACT_SEED)) == verdict
    assert_key_went_to_the_host_only(channels, payloads, 16)
    assert reconstructed == [(PARTIES[-1],)]
