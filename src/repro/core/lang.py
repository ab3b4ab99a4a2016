"""LINQ-style query frontend.

Analysts describe a Conclave query as if all data lived in one database
(§4.2).  The frontend is built around a small typed expression AST
(:mod:`repro.core.expr`): predicates and derived columns are ordinary Python
expressions over :func:`repro.core.expr.col` and
:func:`repro.core.expr.lit`::

    import repro as cc

    with cc.QueryContext() as q:
        pA, pB = cc.Party("mpc.a.com"), cc.Party("mpc.b.com")
        schema = [cc.Column("ssn", cc.INT, trust=[pA]), cc.Column("score", cc.INT)]
        scores1 = cc.new_table("scores1", schema, at=pB)
        ...
        good = scores.filter((cc.col("score") > 600) & (cc.col("score") < 850))
        joined = demo.join(scores, on="ssn")                      # or on=[("a","b"), ("c","d")]
        stats = joined.aggregate(group=["zip"],
                                 aggs={"total": cc.SUM("score"), "cnt": cc.COUNT()})
        avg = stats.with_column("avg", cc.col("total") / cc.col("cnt"))
        avg.collect("avg_scores", to=[pA])

Every builder method *lowers* its expressions into the compiler's fixed
operator vocabulary — ``Filter`` chains for conjunctions of simple
predicates, ``Compare``/``BoolOp`` mask columns for compound predicates,
``Map`` chains for arithmetic, a composite-key
encode plus a single-key ``Join`` for multi-column joins, and per-aggregate
``Aggregate`` nodes joined on the group key for multi-aggregate group-bys —
so the ownership/trust propagation, MPC-frontier and hybrid passes operate
on plain relational operators and need no knowledge of the AST.

Query construction is safe under concurrency: the active-context stack
lives in a :class:`contextvars.ContextVar`, so concurrent asyncio tasks (or
threads) building queries simultaneously each see their own stack.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from typing import Mapping, Sequence

from repro.core.expr import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Negation,
    as_simple_comparison,
    conjuncts,
    validate_columns,
)
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Filter,
    Join,
    Limit,
    Map,
    OpNode,
    Project,
    SortBy,
)
from repro.core.party import Party
from repro.core.relation import Relation
from repro.core.dag import Dag
from repro.core.types import AggSpec, Column, build_schema
from repro.data.schema import ColumnDef, ColumnType, Schema, arithmetic_typing

#: Packing base of the composite-key encoding used for multi-column join and
#: group-by keys: ``key = ((k1 * BASE) + k2) * BASE + k3 …``.  The encoding
#: is collision-free while every key component is a non-negative integer
#: below the base; pass ``key_base=`` to ``join`` for wider domains.
COMPOSITE_KEY_BASE = 1 << 20

#: Aggregation functions the frontend accepts.
AGG_FUNCS = ("sum", "count", "min", "max", "mean")

#: Relation-name prefixes of the ``Map`` outputs that scale or divide.
_MAP_HINTS = {"*": "mul", "/": "div"}

#: Stack of active query contexts.  A ContextVar (not a module-level list)
#: so concurrent query construction — async serving, parallel benchmarks —
#: cannot interleave two queries' operator nodes.
_context_stack: ContextVar[tuple["QueryContext", ...]] = ContextVar(
    "conclave_query_contexts", default=()
)


class QueryContext:
    """Collects the operator nodes of one query.

    Use as a context manager (``with QueryContext() as q:``) or explicitly;
    the module-level helpers (:func:`new_table`, :func:`concat`) operate on
    the innermost active context *of the current thread or asyncio task*.
    """

    def __init__(self):
        self._roots: list[Create] = []
        self._outputs: list[Collect] = []
        self._name_counter = itertools.count()
        self._col_counter = itertools.count()
        #: Every relation name in use -> what it names (for clash errors).
        self._names: dict[str, str] = {}

    # -- context management -----------------------------------------------------------

    def __enter__(self) -> "QueryContext":
        _context_stack.set(_context_stack.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        stack = list(_context_stack.get())
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        _context_stack.set(tuple(stack))

    @staticmethod
    def current() -> "QueryContext":
        stack = _context_stack.get()
        if not stack:
            raise RuntimeError(
                "no active QueryContext; wrap query construction in `with QueryContext():`"
            )
        return stack[-1]

    # -- relation naming -----------------------------------------------------------------

    def fresh_name(self, hint: str) -> str:
        name = hint
        while name in self._names:
            name = f"{hint}_{next(self._name_counter)}"
        self._names[name] = "an intermediate relation"
        return name

    def claim_name(self, name: str, role: str) -> str:
        """Reserve an input's or output's (``role``) own name: a name in use
        is a ``ValueError``, never a rename."""
        if name in self._names:
            raise ValueError(
                f"{role} name {name!r} is already the name of {self._names[name]} "
                "in this query; input and output names must be unique"
            )
        self._names[name] = f"an {role}"
        return name

    def fresh_column(self, *schemas: Schema, prefix: str = "_e") -> str:
        """A column name unused by any of the given schemas (for lowering temps)."""
        while True:
            name = f"{prefix}{next(self._col_counter)}"
            if all(name not in schema for schema in schemas):
                return name

    # -- inputs and outputs -----------------------------------------------------------------

    def new_table(
        self,
        name: str,
        columns: Sequence[Column],
        at: Party,
        estimated_rows: int | None = None,
    ) -> "RelationHandle":
        """Declare an input relation stored at party ``at``."""
        if not isinstance(at, Party):
            raise TypeError("`at` must be a Party")
        schema = build_schema(columns, owner=at)
        rel = Relation(
            name=self.claim_name(name, "input"),
            schema=schema,
            stored_with={at.name},
            owner=at.name,
            trust={c.name: c.trust for c in schema},
            estimated_rows=estimated_rows,
        )
        node = Create(rel)
        self._roots.append(node)
        return RelationHandle(self, node)

    def concat(self, handles: Sequence["RelationHandle"], name: str | None = None) -> "RelationHandle":
        """Combine several parties' relations into one partitioned relation."""
        if not handles:
            raise ValueError("concat requires at least one relation")
        nodes = [h.node for h in handles]
        first_schema = nodes[0].out_rel.schema
        for n in nodes[1:]:
            if not first_schema.concat_compatible(n.out_rel.schema):
                raise ValueError("concat inputs must share the same schema")
        stored = set()
        for n in nodes:
            stored |= n.out_rel.stored_with
        rel = Relation(
            name=self.fresh_name(name or "concat"),
            schema=first_schema,
            stored_with=stored,
        )
        node = Concat(rel, nodes)
        return RelationHandle(self, node)

    def build_dag(self) -> Dag:
        """Finalise the query into a validated DAG."""
        if not self._outputs:
            raise ValueError("query has no outputs; call .collect(...) on a relation")
        dag = Dag(self._roots)
        dag.validate()
        return dag

    def _register_output(self, node: Collect) -> None:
        self._outputs.append(node)


class RelationHandle:
    """Fluent handle to a relation being built in a :class:`QueryContext`."""

    def __init__(self, context: QueryContext, node: OpNode):
        self.context = context
        self.node = node

    @property
    def schema(self) -> Schema:
        return self.node.out_rel.schema

    @property
    def name(self) -> str:
        return self.node.out_rel.name

    # -- builder methods --------------------------------------------------------------------

    def project(self, columns: Sequence[str | int], name: str | None = None) -> "RelationHandle":
        """Keep only the named columns (names or positional indices)."""
        resolved = [self.schema.resolve(c) for c in columns]
        rel = self._derive(name or "project", self.schema.project(resolved))
        return self._wrap(Project(rel, self.node, resolved))

    def filter(self, predicate: Expr, name: str | None = None) -> "RelationHandle":
        """Keep rows satisfying ``predicate``.

        ``predicate`` is an expression built from :func:`~repro.core.expr.col`
        and :func:`~repro.core.expr.lit`, e.g. ``cc.col("price") > 0`` or
        ``(cc.col("d") == 414) & ~(cc.col("m") == 99)``.  Conjunctions of
        simple ``column <op> constant`` tests lower to a chain of ``Filter``
        operators; anything else lowers to a mask column that is filtered on
        and dropped.
        """
        if not isinstance(predicate, Expr) or not predicate.is_boolean():
            raise TypeError(
                f"filter needs a predicate (a comparison or boolean combination), "
                f"got {predicate!r}"
            )
        validate_columns(predicate, set(self.schema.names), "filter predicate")
        # Partition the top-level conjuncts: column-vs-constant tests (and
        # their negations) chain as classic Filter operators — which also
        # shrink the row count before any expensive mask work — while only
        # the compound remainder is materialised as a 0/1 mask column.
        simple: list[Comparison] = []
        compound: list[Expr] = []
        for part in conjuncts(predicate):
            as_simple = as_simple_comparison(part)
            if as_simple is not None:
                simple.append(as_simple)
            else:
                compound.append(part)

        handle = self
        last = len(simple) - 1
        for i, part in enumerate(simple):
            norm = part.normalised()
            hint = name if (i == last and name and not compound) else "filter"
            rel = handle._derive(hint, handle.schema)
            handle = handle._wrap(
                Filter(rel, handle.node, norm.left.name, norm.op, norm.right.value)
            )
        if not compound:
            return handle
        remainder = compound[0] if len(compound) == 1 else BooleanOp("and", tuple(compound))
        original = list(handle.schema.names)
        masked, mask_col = handle._lower_value(remainder)
        rel = masked._derive("filter_mask", masked.schema)
        filtered = masked._wrap(Filter(rel, masked.node, mask_col, "==", 1))
        return filtered.project(original, name=name or "filter")

    def with_column(self, out_name: str, expression, name: str | None = None) -> "RelationHandle":
        """Append ``out_name`` computed by an expression over this relation.

        ``expression`` may mix columns, constants, arithmetic, comparisons
        and boolean combinators; it is lowered to a chain of row-wise
        operators and any lowering temporaries are projected away, so the
        result schema is exactly the input schema plus ``out_name``.
        """
        if isinstance(expression, (int, float)) and not isinstance(expression, bool):
            expression = Literal(expression)
        if not isinstance(expression, Expr):
            raise TypeError(
                f"with_column needs an expression (col()/lit() combination), "
                f"got {type(expression).__name__}"
            )
        if out_name in self.schema:
            raise ValueError(f"column {out_name!r} already exists; pick a new name")
        validate_columns(expression, set(self.schema.names), f"with_column({out_name!r})")
        original = list(self.schema.names)
        handle, _ = self._lower_value(expression, out_name=out_name)
        if handle.schema.names != original + [out_name]:
            handle = handle.project(original + [out_name], name=name)
        elif name is not None:
            # Single-operator lowering: give the *result* relation the
            # analyst's name (plan dumps and codegen reference it).
            handle.node.out_rel.name = self.context.fresh_name(name)
        return handle

    def aggregate(
        self,
        *,
        group: Sequence[str] = (),
        aggs: Mapping[str, AggSpec],
        name: str | None = None,
        key_base: int = COMPOSITE_KEY_BASE,
    ) -> "RelationHandle":
        """Group-by aggregation with any number of group columns and aggregates.

        ``group`` lists zero or more group columns and ``aggs`` maps each
        output column name to an aggregate spec built by calling an
        aggregation function::

            rel.aggregate(group=["zip"], aggs={"total": cc.SUM("score"),
                                               "cnt": cc.COUNT()})

        Multiple aggregates lower to one ``Aggregate`` operator each, joined
        on the group key; two or more group columns lower to a composite-key
        encode so the single-key frontier/hybrid rewrites apply unchanged.
        ``key_base`` sizes that encoding exactly as for :meth:`join` — and
        with the same caveat: group values must be non-negative integers
        below the base (default 2**20) or distinct groups can silently
        merge.  With at most one group column no encoding happens and
        ``key_base`` is ignored.
        """
        group = list(group)
        if not aggs:
            raise ValueError("aggs must name at least one aggregate")
        specs: dict[str, AggSpec] = {}
        for out, spec in aggs.items():
            if isinstance(spec, AggSpec):
                pass
            elif isinstance(spec, tuple):
                spec = AggSpec(*spec)
            elif isinstance(spec, str):
                spec = AggSpec(spec)
            else:
                raise TypeError(
                    f"aggregate spec for {out!r} must be built by calling an aggregation "
                    f"function, e.g. cc.SUM('price') or cc.COUNT(); got {spec!r}"
                )
            if spec.func not in AGG_FUNCS:
                raise ValueError(
                    f"unsupported aggregation {spec.func!r}; supported: {', '.join(AGG_FUNCS)}"
                )
            if out in group:
                raise ValueError(f"aggregate output {out!r} collides with a group column")
            specs[out] = spec
        for g_col in group:
            self.schema.index_of(g_col)
        for spec in specs.values():
            if spec.over is not None:
                self.schema.index_of(spec.over)

        if len(group) <= 1 and len(specs) == 1:
            (out, spec), = specs.items()
            return self._single_aggregate(out, spec.func, group[0] if group else None, spec.over, name)
        if len(group) == 1:
            return self._joined_aggregates(self, group[0], group, specs, name)
        if not group:
            return self._scalar_aggregates(specs, name)
        # Two or more group columns: pack them into a composite key so every
        # Aggregate (and any later hybrid rewrite) stays single-key, then
        # recover the group columns via per-group `min` aggregates (they are
        # constant within a group).
        keyed, _ = self._encode_composite_key(
            group, self.context.fresh_column(self.schema, prefix="_gk"), key_base
        )
        key = keyed.schema.names[-1]
        parts: dict[str, AggSpec] = {g: AggSpec("min", g) for g in group}
        parts.update(specs)
        return self._joined_aggregates(keyed, key, group, parts, name, project_to=group + list(specs))

    def join(
        self,
        other: "RelationHandle",
        *,
        on,
        name: str | None = None,
        key_base: int = COMPOSITE_KEY_BASE,
    ) -> "RelationHandle":
        """Inner equi-join with ``other``.

        ``on`` names the key columns:

        * ``on="ssn"`` — one key column with the same name on both sides;
        * ``on=[("a", "b")]`` — one key column, ``a`` on the left and ``b``
          on the right (a bare tuple is rejected as ambiguous);
        * ``on=["a", "c"]`` / ``on=[("a", "b"), ("c", "d")]`` — multi-column
          keys (same-name shorthand and per-side pairs may be mixed).

        Multi-column keys are lowered to a composite-key encode (base
        ``key_base``, default :data:`COMPOSITE_KEY_BASE`) followed by a
        single-key join, so the MPC-frontier and hybrid-join rewrites apply
        unchanged.

        .. warning::
           The encoding is collision-free only for **non-negative integer
           keys below the base** (default 2**20 ≈ 1.05M); out-of-range key
           values can silently match unequal keys, and the key data is
           private so the runtime cannot check.  Pass ``key_base=`` sized to
           your key domain — ``key_base ** num_key_columns`` must fit in
           2**63, which is validated at query-build time.  With a single key
           column no encoding happens and ``key_base`` is ignored.
        """
        pairs = _normalise_join_keys(on)
        for l_col, r_col in pairs:
            l_type = self.schema[self.schema.resolve(l_col)].ctype
            r_type = other.schema[other.schema.resolve(r_col)].ctype
            if l_type is not r_type:
                # MPC carries a FLOAT key in fixed point and an INT key as is,
                # so the two could match only in the clear.
                raise ValueError(
                    f"join key {l_col!r} is {l_type.name} but {r_col!r} is "
                    f"{r_type.name}; both key columns must have one type"
                )
        if len(pairs) == 1:
            return self._single_join(other, pairs[0][0], pairs[0][1], name)
        return self._multi_key_join(other, pairs, name, key_base)

    def sort_by(self, column: str, ascending: bool = True, name: str | None = None) -> "RelationHandle":
        """Order the relation by ``column``."""
        self.schema.index_of(column)
        rel = self._derive(name or "sort", self.schema)
        return self._wrap(SortBy(rel, self.node, column, ascending))

    def distinct(self, columns: Sequence[str], name: str | None = None) -> "RelationHandle":
        """Keep the distinct values of the named columns."""
        resolved = [self.schema.resolve(c) for c in columns]
        rel = self._derive(name or "distinct", self.schema.project(resolved))
        return self._wrap(Distinct(rel, self.node, resolved))

    def limit(self, n: int, name: str | None = None) -> "RelationHandle":
        """Keep the first ``n`` rows."""
        rel = self._derive(name or f"limit_{n}", self.schema)
        return self._wrap(Limit(rel, self.node, n))

    def concat_with(self, others: Sequence["RelationHandle"], name: str | None = None) -> "RelationHandle":
        """Union this relation with others (see :func:`concat`)."""
        return self.context.concat([self, *others], name=name)

    def collect(self, name: str, to: Sequence[Party]) -> "RelationHandle":
        """Mark this relation as a query output revealed to ``to``."""
        if not to:
            raise ValueError("an output needs at least one recipient party")
        recipients = [p.name if isinstance(p, Party) else str(p) for p in to]
        rel = Relation(name=self.context.claim_name(name, "output"), schema=self.schema,
                       stored_with=set(recipients))
        node = Collect(rel, self.node, recipients)
        self.context._register_output(node)
        return self._wrap(node)

    # Alias matching the paper's listings.
    def write_to_csv(self, name: str, to: Sequence[Party]) -> "RelationHandle":
        return self.collect(name, to)

    # -- expression lowering ------------------------------------------------------------------

    def _lower_value(
        self, expression: Expr, out_name: str | None = None
    ) -> "tuple[RelationHandle, str | float]":
        """Lower ``expression`` to a column (or public scalar) on a derived handle.

        Returns ``(handle, operand)`` where ``operand`` is a column name of
        ``handle`` — guaranteed to equal ``out_name`` when one is requested —
        or a plain scalar when the expression is constant and no output
        column was requested.
        """
        if isinstance(expression, Literal):
            value = _normalise_scalar(expression.value)
            if out_name is None:
                return self, value
            return self._materialise_scalar(value, out_name), out_name
        if isinstance(expression, ColumnRef):
            if out_name is None or out_name == expression.name:
                return self, expression.name
            return self._emit_map(out_name, expression.name, "+", 0), out_name
        if isinstance(expression, Arithmetic):
            return self._lower_arithmetic(expression, out_name)
        if isinstance(expression, Comparison):
            norm = expression.normalised()
            handle, left = self._lower_value(norm.left)
            if not isinstance(left, str):
                # Constant-vs-something: materialise the constant side.
                tmp = handle._fresh_col()
                handle = handle._materialise_scalar(left, tmp)
                left = tmp
            handle, right = handle._lower_value(norm.right)
            target = out_name or handle._fresh_col()
            return handle._emit_compare(target, left, norm.op, right), target
        if isinstance(expression, BooleanOp):
            handle = self
            operand_cols: list[str] = []
            for operand in expression.operands:
                handle, column = handle._lower_value(operand)
                operand_cols.append(column)
            target = out_name or handle._fresh_col()
            return handle._emit_bool(target, expression.op, operand_cols), target
        if isinstance(expression, Negation):
            handle, column = self._lower_value(expression.operand)
            target = out_name or handle._fresh_col()
            return handle._emit_bool(target, "not", [column]), target
        raise TypeError(f"cannot lower expression node {type(expression).__name__}")

    def _lower_arithmetic(
        self, expression: Arithmetic, out_name: str | None
    ) -> "tuple[RelationHandle, str | float]":
        handle, left = self._lower_value(expression.left)
        handle, right = handle._lower_value(expression.right)
        op = expression.op
        if not isinstance(left, str) and not isinstance(right, str):
            value = _normalise_scalar(_fold_constants(left, op, right))
            if out_name is None:
                return handle, value
            return handle._materialise_scalar(value, out_name), out_name
        if not isinstance(left, str):
            if op in ("+", "*"):
                left, right = right, left
            elif op == "-":
                # c - x  lowers to  (x * -1) + c
                negated = handle._fresh_col()
                handle = handle._emit_map(negated, right, "*", -1)
                target = out_name or handle._fresh_col()
                return handle._emit_map(target, negated, "+", left), target
            else:  # "/"
                scalar_col = handle._fresh_col()
                handle = handle._materialise_scalar(left, scalar_col)
                left = scalar_col
        if isinstance(right, (int, float)):
            right = _normalise_scalar(right)
        target = out_name or handle._fresh_col()
        return handle._emit_map(target, left, op, right), target

    def _materialise_scalar(self, value: float, out_name: str) -> "RelationHandle":
        """Append a column holding the public constant ``value``.

        Lowered as ``base * 0 (+ value)``, so the new column inherits the
        base column's trust annotation; prefer a public INT column as the
        base so a query constant stays as public (and integer-typed) as the
        schema allows.
        """
        ranked = sorted(
            self.schema,
            key=lambda c: (not c.is_public, c.ctype is not ColumnType.INT),
        )
        base = ranked[0].name
        if value == 0:
            return self._emit_map(out_name, base, "*", 0)
        zeroed = self._fresh_col()
        handle = self._emit_map(zeroed, base, "*", 0)
        return handle._emit_map(out_name, zeroed, "+", value)

    # -- single-operator emitters -------------------------------------------------------------

    def _emit_map(
        self, out_name: str, left: str, op: str, right: str | float, hint: str | None = None
    ) -> "RelationHandle":
        self.schema.index_of(left)
        if isinstance(right, str):
            self.schema.index_of(right)
        _, _, out_type = arithmetic_typing(self.schema, left, op, right)
        rel = self._derive(
            hint or f"{_MAP_HINTS.get(op, 'map')}_{out_name}",
            self.schema.with_column(ColumnDef(out_name, out_type)),
        )
        return self._wrap(Map(rel, self.node, out_name, left, op, right))

    def _emit_compare(
        self, out_name: str, left: str, op: str, right: str | float, hint: str | None = None
    ) -> "RelationHandle":
        self.schema.index_of(left)
        if isinstance(right, str):
            self.schema.index_of(right)
        elif isinstance(right, (int, float)):
            right = _normalise_scalar(right)
        rel = self._derive(
            hint or f"cmp_{out_name}",
            self.schema.with_column(ColumnDef(out_name, ColumnType.INT)),
        )
        return self._wrap(Compare(rel, self.node, out_name, left, op, right))

    def _emit_bool(
        self, out_name: str, op: str, operands: Sequence[str], hint: str | None = None
    ) -> "RelationHandle":
        for operand in operands:
            self.schema.index_of(operand)
        rel = self._derive(
            hint or f"bool_{out_name}",
            self.schema.with_column(ColumnDef(out_name, ColumnType.INT)),
        )
        return self._wrap(BoolOp(rel, self.node, out_name, op, list(operands)))

    # -- join lowering ------------------------------------------------------------------------

    def _single_join(
        self, other: "RelationHandle", left_on: str, right_on: str, name: str | None
    ) -> "RelationHandle":
        self.schema.index_of(left_on)
        other.schema.index_of(right_on)
        out_cols = list(self.schema.columns)
        taken = {c.name for c in out_cols}
        for cdef in other.schema:
            if cdef.name == right_on:
                continue
            out_name = cdef.name + "_r" if cdef.name in taken else cdef.name
            out_cols.append(ColumnDef(out_name, cdef.ctype, cdef.trust))
        rel = self._derive(name or "join", Schema(out_cols))
        return self._wrap(Join(rel, self.node, other.node, left_on, right_on))

    def _multi_key_join(
        self,
        other: "RelationHandle",
        pairs: "list[tuple[str, str]]",
        name: str | None,
        key_base: int,
    ) -> "RelationHandle":
        key = self.context.fresh_column(self.schema, other.schema, prefix="_jk")
        left_keys = [l_col for l_col, _ in pairs]
        right_keys = [r_col for _, r_col in pairs]

        left_handle, left_temps = self._encode_composite_key(left_keys, key, key_base)
        right_handle, _ = other._encode_composite_key(right_keys, key, key_base)
        # Mirror single-key semantics: the right side's key columns are
        # redundant after the join (equal to the left side's), so drop them —
        # along with the right-side encode temporaries — before joining.
        right_kept = [c for c in other.schema.names if c not in right_keys]
        right_handle = right_handle.project([key, *right_kept])

        joined = left_handle._single_join(right_handle, key, key, None)
        drop = set(left_temps) | {key}
        out_cols = [c for c in joined.schema.names if c not in drop]
        return joined.project(out_cols, name=name or "join")

    def _encode_composite_key(
        self, columns: Sequence[str], out_name: str, key_base: int
    ) -> "tuple[RelationHandle, list[str]]":
        """Append ``out_name`` packing ``columns`` into one key column.

        Returns the extended handle plus the intermediate temporary columns
        (callers project them away once the key has served its purpose).
        """
        if key_base < 2:
            raise ValueError("key_base must be at least 2")
        if key_base ** len(columns) > 2**63:
            raise ValueError(
                f"composite key of {len(columns)} columns with base {key_base} "
                f"overflows the 64-bit value domain; lower key_base (base**columns "
                f"must fit in 2**63) or reduce the number of key columns"
            )
        handle = self
        temps: list[str] = []
        acc = columns[0]
        for i, column in enumerate(columns[1:]):
            is_last = i == len(columns) - 2
            shifted = handle._fresh_col()
            handle = handle._emit_map(shifted, acc, "*", key_base)
            if i == 0:
                # The encoding is collision-free only for key values in
                # [0, key_base); mark the first operator of the encode chain
                # so the executor checks the actual key data at run time
                # instead of silently mis-encoding (see
                # repro.runtime.executor.apply_operator).
                handle.node.key_range_check = (tuple(columns), int(key_base))
            temps.append(shifted)
            target = out_name if is_last else handle._fresh_col()
            handle = handle._emit_map(target, shifted, "+", column)
            if not is_last:
                temps.append(target)
            acc = target
        return handle, temps

    # -- aggregate lowering ---------------------------------------------------------------------

    def _single_aggregate(
        self,
        out_name: str,
        func: str,
        group_col: str | None,
        over: str | None,
        name: str | None,
    ) -> "RelationHandle":
        if func not in AGG_FUNCS:
            raise ValueError(
                f"unsupported aggregation {func!r}; supported: {', '.join(AGG_FUNCS)}"
            )
        if over is not None:
            self.schema.index_of(over)
        elif func != "count":
            raise ValueError(f"aggregation {func!r} requires a value column")
        if group_col is not None:
            self.schema.index_of(group_col)

        out_type = ColumnType.INT
        if over is not None and func != "count":
            out_type = self.schema[over].ctype
        if func == "mean":
            out_type = ColumnType.FLOAT
        cols = []
        if group_col is not None:
            cols.append(self.schema[group_col])
        cols.append(ColumnDef(out_name, out_type))
        rel = self._derive(name or f"agg_{out_name}", Schema(cols))
        return self._wrap(Aggregate(rel, self.node, group_col, over, func, out_name))

    @staticmethod
    def _joined_aggregates(
        source: "RelationHandle",
        group_col: str,
        group: list[str],
        specs: Mapping[str, AggSpec],
        name: str | None,
        project_to: list[str] | None = None,
    ) -> "RelationHandle":
        """One Aggregate per spec over the same input, joined on the group key."""
        handles = [
            source._single_aggregate(out, spec.func, group_col, spec.over, None)
            for out, spec in specs.items()
        ]
        result = handles[0]
        for i, part in enumerate(handles[1:]):
            is_last = i == len(handles) - 2
            result = result._single_join(
                part, group_col, group_col, name if (is_last and name and not project_to) else None
            )
        if project_to is not None:
            result = result.project(project_to, name=name)
        return result

    def _scalar_aggregates(
        self, specs: Mapping[str, AggSpec], name: str | None
    ) -> "RelationHandle":
        """Multiple whole-relation reductions, aligned on a constant key."""
        key = self.context.fresh_column(self.schema, prefix="_ak")
        keyed: list[RelationHandle] = []
        for out, spec in specs.items():
            part = self._single_aggregate(out, spec.func, None, spec.over, None)
            keyed.append(part._emit_map(key, out, "*", 0))
        result = keyed[0]
        for part in keyed[1:]:
            result = result._single_join(part, key, key, None)
        return result.project(list(specs), name=name)

    # -- helpers -----------------------------------------------------------------------------

    def _fresh_col(self) -> str:
        return self.context.fresh_column(self.schema)

    def _derive(self, hint: str, schema: Schema) -> Relation:
        parent_rel = self.node.out_rel
        return Relation(
            name=self.context.fresh_name(hint),
            schema=schema,
            stored_with=set(parent_rel.stored_with),
        )

    def _wrap(self, node: OpNode) -> "RelationHandle":
        return RelationHandle(self.context, node)


# -- lowering helpers ------------------------------------------------------------------------


def _normalise_scalar(value: float) -> float:
    """Collapse integral floats to ints so schemas stay INT where possible."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _fold_constants(left: float, op: str, right: float) -> float:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        return 0.0
    return left / right


def _normalise_join_keys(on) -> "list[tuple[str, str]]":
    """Normalise the ``on=`` argument to a list of (left, right) pairs."""

    def as_pair(item) -> "tuple[str, str]":
        if isinstance(item, str):
            return (item, item)
        if isinstance(item, tuple) and len(item) == 2 and all(isinstance(c, str) for c in item):
            return (item[0], item[1])
        raise TypeError(
            f"join key {item!r} must be a column name or a (left, right) pair of names"
        )

    if isinstance(on, str):
        return [as_pair(on)]
    if isinstance(on, tuple):
        # A bare tuple is ambiguous: a (left, right) pair reads the same as
        # a two-column composite key.  Force the caller to disambiguate.
        raise TypeError(
            f"on={on!r} is ambiguous: use on=[{on!r}] for one key pair "
            f"(left column, right column) or on={list(on)!r} for a "
            f"multi-column key with the same names on both sides"
        )
    pairs = [as_pair(item) for item in on]
    if not pairs:
        raise ValueError("join needs at least one key column")
    return pairs


# -- module-level conveniences mirroring the paper's listings -------------------------------------


def new_table(
    name: str, columns: Sequence[Column], at: Party, estimated_rows: int | None = None
) -> RelationHandle:
    """Declare an input relation in the innermost active :class:`QueryContext`."""
    return QueryContext.current().new_table(name, columns, at, estimated_rows)


def concat(handles: Sequence[RelationHandle], name: str | None = None) -> RelationHandle:
    """Union several relations in the innermost active :class:`QueryContext`."""
    return QueryContext.current().concat(handles, name)
