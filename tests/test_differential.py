"""Randomized differential testing of the one executable configuration.

A seeded generator builds random query plans — random schemas, compound
filter predicates, ``with_column`` arithmetic, single- and composite-key
joins, multi-aggregate group-bys — and executes each of them through the
full compiler on the columnar cleartext engine and the secret-sharing MPC
backend, under both cleartext price lists.  Results must equal two
references: an independently implemented row-at-a-time oracle (plain
Python over row dicts — deliberately *not* the Table methods the engines
use), and, byte for byte (row order, MPC work/traffic profile, leakage),
the same compiled plan replayed on the ``Table`` reference engine
(``tests/oracle_engine.py``).

The same plans are additionally executed over the socket runtime (one OS
process per party, cold and through one warm session) and must stay
byte-identical to the reference engine's in-process run.
"""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.runtime.service import SocketCoordinator

from oracle_engine import OracleRunner

SEED = 20260729
NUM_PLANS = 50
#: Plans additionally cross-checked over real per-party processes.
NUM_SOCKET_PLANS = 6

PARTY_A = "alpha.example"
PARTY_B = "beta.example"

#: The one executable configuration (columnar engine + share engine) under
#: the two cleartext price lists ``cleartext_backend`` can name.
PRICE_LISTS = ["python", "spark"]

COMPARE_OPS = ["==", "!=", "<", "<=", ">", ">="]
ARITH_OPS = ["+", "-", "*"]
AGG_FUNCS = ["sum", "count", "min", "max"]


# -- plan generation --------------------------------------------------------------------------


def generate_spec(seed: int) -> dict:
    """Generate one random query-plan specification."""
    rng = np.random.default_rng(seed)
    num_keys = int(rng.integers(1, 3))
    num_vals = int(rng.integers(1, 3))
    key_cols = [f"k{i}" for i in range(num_keys)]
    val_cols = [f"v{i}" for i in range(num_vals)]
    columns = key_cols + val_cols

    spec = {
        "seed": seed,
        "columns": columns,
        "key_cols": key_cols,
        "tables": [_random_rows(rng, columns, key_cols) for _ in range(2)],
        "ops": [],
    }
    numeric = list(columns)

    if rng.random() < 0.5:
        name = "c0"
        a, b = rng.choice(numeric, size=2, replace=True)
        op1, op2 = rng.choice(ARITH_OPS, size=2)
        const = int(rng.integers(-3, 4))
        spec["ops"].append(("with_column", name, (str(a), str(op1), str(b), str(op2), const)))
        numeric.append(name)

    if rng.random() < 0.6:
        spec["ops"].append(("filter", _random_predicate(rng, numeric)))

    join_cols: list[str] = []
    if rng.random() < 0.4:
        right_keys = [f"m{i}" for i in range(num_keys)]
        right_vals = [f"w{i}" for i in range(int(rng.integers(1, 3)))]
        right_cols = right_keys + right_vals
        pairs = list(zip(key_cols, right_keys))
        key_base = int(rng.choice([64, 1 << 20])) if num_keys > 1 else None
        spec["ops"].append((
            "join",
            [_random_rows(rng, right_cols, right_keys) for _ in range(2)],
            right_cols,
            pairs,
            key_base,
        ))
        join_cols = right_vals
        numeric.extend(right_vals)

    if rng.random() < 0.7:
        group = list(rng.choice(spec["key_cols"], size=int(rng.integers(1, num_keys + 1)), replace=False))
        value_pool = [c for c in numeric if c not in spec["key_cols"] and c not in group]
        aggs = []
        for i in range(int(rng.integers(1, 3))):
            func = str(rng.choice(AGG_FUNCS))
            over = str(rng.choice(value_pool)) if func != "count" else None
            aggs.append((f"a{i}", func, over))
        key_base = int(rng.choice([64, 1 << 20])) if len(group) > 1 else None
        spec["ops"].append(("aggregate", [str(g) for g in group], aggs, key_base))
    elif join_cols and rng.random() < 0.5:
        keep = spec["key_cols"] + [c for c in numeric if c not in spec["key_cols"]][:2]
        spec["ops"].append(("project", keep))

    return spec


def _random_rows(rng, columns, key_cols):
    rows = []
    for _ in range(int(rng.integers(6, 11))):
        row = {}
        for col in columns:
            row[col] = int(rng.integers(0, 5)) if col in key_cols else int(rng.integers(-20, 21))
        rows.append(row)
    return rows


def _random_predicate(rng, columns, depth: int = 0):
    if depth >= 2 or rng.random() < 0.55:
        leaf = ("cmp", str(rng.choice(columns)), str(rng.choice(COMPARE_OPS)), int(rng.integers(-5, 6)))
        if rng.random() < 0.25:
            return ("not", leaf)
        return leaf
    op = "and" if rng.random() < 0.5 else "or"
    return (op, _random_predicate(rng, columns, depth + 1), _random_predicate(rng, columns, depth + 1))


# -- query construction -----------------------------------------------------------------------


def build_query(spec):
    """Lower a spec to a QueryContext plus party inputs."""
    pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
    frontend_cols = [cc.Column(c, cc.INT) for c in spec["columns"]]

    def to_table(rows, columns):
        schema = Schema([ColumnDef(c) for c in columns])
        return Table.from_rows(schema, [tuple(r[c] for c in columns) for r in rows])

    inputs = {
        PARTY_A: {"t0": to_table(spec["tables"][0], spec["columns"])},
        PARTY_B: {"t1": to_table(spec["tables"][1], spec["columns"])},
    }

    with QueryContext() as ctx:
        t0 = ctx.new_table("t0", frontend_cols, at=pa)
        t1 = ctx.new_table("t1", frontend_cols, at=pb)
        rel = ctx.concat([t0, t1])
        for op in spec["ops"]:
            if op[0] == "with_column":
                _, name, (a, op1, b, op2, const) = op
                expr = _arith_expr(a, op1, b, op2, const)
                rel = rel.with_column(name, expr)
            elif op[0] == "filter":
                rel = rel.filter(_predicate_expr(op[1]))
            elif op[0] == "project":
                rel = rel.project(op[1])
            elif op[0] == "join":
                _, right_tables, right_cols, pairs, key_base = op
                right_frontend = [cc.Column(c, cc.INT) for c in right_cols]
                r0 = ctx.new_table("r0", right_frontend, at=pa)
                r1 = ctx.new_table("r1", right_frontend, at=pb)
                inputs[PARTY_A]["r0"] = to_table(right_tables[0], right_cols)
                inputs[PARTY_B]["r1"] = to_table(right_tables[1], right_cols)
                right = ctx.concat([r0, r1])
                kwargs = {"key_base": key_base} if key_base else {}
                rel = rel.join(right, on=pairs, **kwargs)
            elif op[0] == "aggregate":
                _, group, aggs, key_base = op
                agg_map = {
                    out: (cc.COUNT() if func == "count" else cc.AggSpec(func, over))
                    for out, func, over in aggs
                }
                kwargs = {"key_base": key_base} if key_base else {}
                rel = rel.aggregate(group=group, aggs=agg_map, **kwargs)
        rel.collect("out", to=[pa])
    return ctx, inputs


def _arith_expr(a, op1, b, op2, const):
    import operator

    py_ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}
    return py_ops[op2](py_ops[op1](cc.col(a), cc.col(b)), const)


def _predicate_expr(pred):
    kind = pred[0]
    if kind == "cmp":
        _, col, op, const = pred
        lhs = cc.col(col)
        return {
            "==": lhs == const, "!=": lhs != const, "<": lhs < const,
            "<=": lhs <= const, ">": lhs > const, ">=": lhs >= const,
        }[op]
    if kind == "not":
        return ~_predicate_expr(pred[1])
    left, right = _predicate_expr(pred[1]), _predicate_expr(pred[2])
    return (left & right) if kind == "and" else (left | right)


# -- the oracle -------------------------------------------------------------------------------


def oracle(spec):
    """Evaluate the spec with plain Python over row dicts.

    Independent of the Table/backends implementation on purpose: joins are
    nested loops, aggregation is a dict of groups, predicates are evaluated
    row by row.
    """
    rows = [dict(r) for r in spec["tables"][0] + spec["tables"][1]]
    columns = list(spec["columns"])

    for op in spec["ops"]:
        if op[0] == "with_column":
            _, name, (a, op1, b, op2, const) = op
            for row in rows:
                row[name] = _arith_eval(_arith_eval(row[a], op1, row[b]), op2, const)
            columns.append(name)
        elif op[0] == "filter":
            rows = [row for row in rows if _pred_eval(op[1], row)]
        elif op[0] == "project":
            columns = list(op[1])
            rows = [{c: row[c] for c in columns} for row in rows]
        elif op[0] == "join":
            _, right_tables, right_cols, pairs, _key_base = op
            right_rows = [dict(r) for r in right_tables[0] + right_tables[1]]
            right_keys = [rk for _, rk in pairs]
            joined = []
            for left_row in rows:
                for right_row in right_rows:
                    if all(left_row[lk] == right_row[rk] for lk, rk in pairs):
                        merged = dict(left_row)
                        for c in right_cols:
                            if c not in right_keys:
                                merged[c] = right_row[c]
                        joined.append(merged)
            rows = joined
            columns = columns + [c for c in right_cols if c not in right_keys]
        elif op[0] == "aggregate":
            _, group, aggs, _key_base = op
            groups: dict[tuple, list[dict]] = {}
            for row in rows:
                groups.setdefault(tuple(row[g] for g in group), []).append(row)
            out_rows = []
            for key, members in groups.items():
                out = dict(zip(group, key))
                for out_name, func, over in aggs:
                    if func == "count":
                        out[out_name] = len(members)
                    else:
                        values = [m[over] for m in members]
                        out[out_name] = {"sum": sum, "min": min, "max": max}[func](values)
                out_rows.append(out)
            rows = out_rows
            columns = list(group) + [out for out, _, _ in aggs]
    return sorted(tuple(row[c] for c in columns) for row in rows)


def _arith_eval(a, op, b):
    return {"+": a + b, "-": a - b, "*": a * b}[op]


def _pred_eval(pred, row):
    kind = pred[0]
    if kind == "cmp":
        _, col, op, const = pred
        value = row[col]
        return {
            "==": value == const, "!=": value != const, "<": value < const,
            "<=": value <= const, ">": value > const, ">=": value >= const,
        }[op]
    if kind == "not":
        return not _pred_eval(pred[1], row)
    if kind == "and":
        return _pred_eval(pred[1], row) and _pred_eval(pred[2], row)
    return _pred_eval(pred[1], row) or _pred_eval(pred[2], row)


# -- the differential tests --------------------------------------------------------------------


def run_spec(spec, cleartext: str = "python", runtime: str = "simulated", seed: int = 0):
    """Compile ``spec`` and run it; ``runtime="oracle"`` replays the plan
    in-process on the ``Table`` reference engine."""
    ctx, inputs = build_query(spec)
    config = CompilationConfig(cleartext_backend=cleartext)
    compiled = cc.compile_query(ctx, config)
    parties = sorted(compiled.dag.parties() | set(inputs))
    runner = {
        "simulated": QueryRunner, "oracle": OracleRunner, "sockets": SocketCoordinator,
    }[runtime]
    return compiled, runner(parties, inputs, config, seed=seed).run(compiled)


def assert_byte_identical(result, reference, where: str) -> None:
    """Outputs (row order included), MPC work/traffic profile and leakage."""
    assert result.outputs["out"] == reference.outputs["out"], f"{where}: outputs differ"
    assert result.mpc_profile == reference.mpc_profile, f"{where}: MPC profile differs"
    assert result.leakage.events == reference.leakage.events, f"{where}: leakage differs"


@pytest.mark.parametrize("plan", range(NUM_PLANS))
def test_random_plan_matches_oracle_under_both_price_lists(plan):
    spec = generate_spec(SEED + plan)
    expected = oracle(spec)
    for cleartext in PRICE_LISTS:
        _compiled, result = run_spec(spec, cleartext)
        got = sorted(result.outputs["out"].rows())
        assert got == expected, (
            f"plan {plan} (seed {spec['seed']}) diverged from the oracle on "
            f"cleartext={cleartext}:\n got      {got}\n expected {expected}"
        )


@pytest.mark.parametrize("plan", range(NUM_PLANS))
def test_random_plan_columnar_byte_identical_to_row_engine(plan):
    """Every differential plan must be byte-identical (outputs including row
    order, the MPC work/traffic profile, the leakage report) to the same
    plan replayed on the row-at-a-time reference engine."""
    spec = generate_spec(SEED + plan)
    _compiled, reference = run_spec(spec, runtime="oracle")
    assert sorted(reference.outputs["out"].rows()) == oracle(spec)
    for cleartext in PRICE_LISTS:
        _c, columnar = run_spec(spec, cleartext)
        assert_byte_identical(
            columnar, reference, f"plan {plan} (seed {spec['seed']}) cleartext={cleartext}"
        )


class TestCompositeKeyRangeGuard:
    """Out-of-range composite-key values fail loudly instead of silently
    matching unequal keys (regression for the negative-key hazard)."""

    KEY_BASE = 100

    def build_join(self):
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        cols = [cc.Column("k1"), cc.Column("k2"), cc.Column("v")]
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", cols, at=pa)
            t1 = ctx.new_table("t1", [cc.Column("m1"), cc.Column("m2"), cc.Column("w")], at=pb)
            t0.join(t1, on=[("k1", "m1"), ("k2", "m2")], key_base=self.KEY_BASE).collect(
                "out", to=[pa]
            )
        return ctx

    def inputs(self, left_rows, right_rows):
        left = Schema([ColumnDef("k1"), ColumnDef("k2"), ColumnDef("v")])
        right = Schema([ColumnDef("m1"), ColumnDef("m2"), ColumnDef("w")])
        return {
            PARTY_A: {"t0": Table.from_rows(left, left_rows)},
            PARTY_B: {"t1": Table.from_rows(right, right_rows)},
        }

    def test_in_range_keys_join_correctly(self):
        result = cc.run_query(self.build_join(), self.inputs([(1, 2, 10)], [(1, 2, 20)]))
        assert result.outputs["out"].rows() == [(1, 2, 10, 20)]

    @pytest.mark.parametrize("bad_row", [(1, -2, 10), (-1, 2, 10), (1, 100, 10)])
    def test_out_of_range_left_key_raises(self, bad_row):
        with pytest.raises(ValueError, match="composite-key column .* outside"):
            cc.run_query(self.build_join(), self.inputs([bad_row], [(1, 2, 20)]))

    def test_out_of_range_right_key_raises(self):
        with pytest.raises(ValueError, match="composite-key column .* outside"):
            cc.run_query(self.build_join(), self.inputs([(1, 2, 10)], [(1, -3, 20)]))

    def test_guard_ignores_lanes_filtered_out_before_the_encode(self):
        """Only live rows are range-checked: the engine's filters are lazy
        masks, and a masked-out lane must not trip the guard."""
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k1"), cc.Column("k2"), cc.Column("v")], at=pa)
            t1 = ctx.new_table("t1", [cc.Column("m1"), cc.Column("m2"), cc.Column("w")], at=pb)
            t0.filter(cc.col("k2") >= 0).join(
                t1, on=[("k1", "m1"), ("k2", "m2")], key_base=self.KEY_BASE
            ).collect("out", to=[pa])
        result = cc.run_query(ctx, self.inputs([(1, 2, 10), (1, -2, 11)], [(1, 2, 20)]))
        assert result.outputs["out"].rows() == [(1, 2, 10, 20)]

    def test_guard_fires_inside_mpc_when_encode_is_not_pushed_down(self):
        """With push-down disabled the encode runs on secret-shared data;
        the executor still checks it (acting as the environment)."""
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        cols = [cc.Column("k1"), cc.Column("k2"), cc.Column("v")]
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", cols, at=pa)
            t1 = ctx.new_table("t1", cols, at=pb)
            combined = ctx.concat([t0, t1])
            combined.aggregate(
                group=["k1", "k2"], aggs={"s": cc.SUM("v")}, key_base=self.KEY_BASE
            ).collect("out", to=[pa])
        config = CompilationConfig(enable_push_down=False)
        schema = Schema([ColumnDef("k1"), ColumnDef("k2"), ColumnDef("v")])
        inputs = {
            PARTY_A: {"t0": Table.from_rows(schema, [(1, 2, 10)])},
            PARTY_B: {"t1": Table.from_rows(schema, [(1, -2, 20)])},
        }
        with pytest.raises(ValueError, match="composite-key"):
            cc.run_query(ctx, inputs, config)

    def test_grouped_aggregate_guard(self):
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        cols = [cc.Column("k1"), cc.Column("k2"), cc.Column("v")]
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", cols, at=pa)
            t1 = ctx.new_table("t1", cols, at=pb)
            ctx.concat([t0, t1]).aggregate(
                group=["k1", "k2"], aggs={"s": cc.SUM("v")}, key_base=self.KEY_BASE
            ).collect("out", to=[pa])
        schema = Schema([ColumnDef("k1"), ColumnDef("k2"), ColumnDef("v")])
        inputs = {
            PARTY_A: {"t0": Table.from_rows(schema, [(1, 2, 10)])},
            PARTY_B: {"t1": Table.from_rows(schema, [(3, 200, 20)])},
        }
        with pytest.raises(ValueError, match="outside \\[0, 100\\)"):
            cc.run_query(ctx, inputs)


@pytest.mark.parametrize("plan", range(NUM_SOCKET_PLANS))
def test_random_plan_byte_identical_across_transports(plan):
    """Real per-party processes vs the reference engine in the simulation."""
    spec = generate_spec(SEED + plan)
    _compiled, reference = run_spec(spec, runtime="oracle", seed=3)
    compiled, socketed = run_spec(spec, runtime="sockets", seed=3)
    assert_byte_identical(socketed, reference, f"plan {plan} over sockets")
    assert compiled.mpc_operator_count() == _compiled.mpc_operator_count()
    assert sorted(socketed.outputs["out"].rows()) == oracle(spec)


def test_fifty_plans_replayed_through_one_warm_session():
    """Service-mode differential: replay all 50 seeded random plans through
    ONE long-lived session and require byte-identity (outputs including row
    order, the MPC work/traffic profile, leakage) of the warm run, a
    fresh-process socket run and the simulated runtime with the reference
    engine's replay of every plan."""
    config = CompilationConfig()
    parties = [PARTY_A, PARTY_B]
    with cc.QuerySession(parties, config=config, seed=3) as session:
        for plan in range(NUM_PLANS):
            spec = generate_spec(SEED + plan)
            ctx, inputs = build_query(spec)
            compiled = cc.compile_query(ctx, config)

            reference = OracleRunner(parties, inputs, config, seed=3).run(compiled)
            runs = {
                "simulated": QueryRunner(parties, inputs, config, seed=3).run(compiled),
                "cold": SocketCoordinator(parties, inputs, config, seed=3).run(compiled),
                "warm": session.submit(compiled, inputs=inputs),
            }
            for label, result in runs.items():
                assert_byte_identical(
                    result, reference, f"plan {plan} (seed {spec['seed']}) {label} run"
                )
            assert sorted(runs["warm"].outputs["out"].rows()) == oracle(spec), (
                f"plan {plan} (seed {spec['seed']}) diverged from the oracle in the "
                f"warm session"
            )
        assert session.stats["queries"] == NUM_PLANS
