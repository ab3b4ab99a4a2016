"""Operator nodes of the query DAG.

Conclave represents a query as a directed acyclic graph of relational
operators (§4).  Each node produces exactly one output
:class:`~repro.core.relation.Relation` and carries the execution annotations
the compiler passes fill in:

* ``is_mpc`` — whether the operator must run under MPC (set by the
  ownership pass and adjusted by the frontier and hybrid passes);
* ``run_at`` — for cleartext operators, the party executing them (the
  relation owner, or the output recipient for operators the push-up pass
  lifted out of MPC);
* hybrid-specific fields (``stp``, ``host``) for the operators inserted by
  the hybrid rewrite pass (§5.3).
"""

from __future__ import annotations

import itertools
import numbers
from typing import Sequence

from repro.core.expr import ARITHMETIC_OPS, COMPARISON_OPS
from repro.core.relation import Relation

_node_counter = itertools.count()

#: Comparison operators ``Filter`` and ``Compare`` accept — the expression
#: AST's operator set, validated eagerly at node construction so a typo like
#: ``"=>"`` fails when the query is *built*, not when it eventually executes.
SUPPORTED_FILTER_OPS = COMPARISON_OPS


def validate_comparison_op(op: str, context: str) -> str:
    """Reject unknown comparison operators with a helpful message."""
    if op not in SUPPORTED_FILTER_OPS:
        raise ValueError(
            f"unsupported {context} operator {op!r}; supported operators are: "
            + ", ".join(SUPPORTED_FILTER_OPS)
        )
    return op


class OpNode:
    """Base class of all DAG operator nodes."""

    #: Operator name used in plans, generated code and debug output.
    op_name = "op"

    def __init__(self, out_rel: Relation, parents: Sequence["OpNode"]):
        self.node_id = next(_node_counter)
        self.out_rel = out_rel
        self.parents: list[OpNode] = list(parents)
        self.children: list[OpNode] = []
        #: Whether this operator must execute under MPC.
        self.is_mpc: bool = False
        #: Party name executing the operator when it runs in the clear.
        self.run_at: str | None = None
        #: Set by the push-up pass on an operator it lifted out of MPC.
        self.lifted = False
        #: ``(columns, key_base)`` on the first operator of a composite-key
        #: encode chain, whose key range the executor checks at run time.
        self.key_range_check: tuple[tuple[str, ...], int] | None = None
        for p in self.parents:
            p.children.append(self)

    # -- DAG surgery helpers -------------------------------------------------------------

    def replace_parent(self, old: "OpNode", new: "OpNode") -> None:
        """Replace parent ``old`` with ``new`` and fix child links."""
        for i, p in enumerate(self.parents):
            if p is old:
                self.parents[i] = new
                if self in old.children:
                    old.children.remove(self)
                new.children.append(self)
                return
        raise ValueError(f"{old} is not a parent of {self}")

    def remove_from_dag(self) -> None:
        """Splice this unary node out of the DAG (children adopt its parent)."""
        if len(self.parents) != 1:
            raise ValueError("can only splice out unary operators")
        parent = self.parents[0]
        parent.children.remove(self)
        for child in list(self.children):
            child.replace_parent(self, parent)
        self.parents = []
        self.children = []

    @property
    def parent(self) -> "OpNode":
        """The single parent of a unary operator."""
        if len(self.parents) != 1:
            raise ValueError(f"{self} has {len(self.parents)} parents, expected 1")
        return self.parents[0]

    def input_relations(self) -> list[Relation]:
        return [p.out_rel for p in self.parents]

    def detail(self) -> str:
        """The operator's own fields, as the plan rendering prints them."""
        return ""

    def locus(self) -> tuple[str, str]:
        """Execution locus: ``("mpc", "joint")`` or ``("local", party)``."""
        if self.is_mpc:
            return ("mpc", "joint")
        party = self.run_at or self.out_rel.owner or "unplaced"
        return ("local", party)

    def __repr__(self) -> str:
        tag = "MPC" if self.is_mpc else (self.run_at or self.out_rel.owner or "?")
        return f"{type(self).__name__}#{self.node_id}[{self.out_rel.name}@{tag}]"


# -- leaf / root nodes ---------------------------------------------------------------------------


class Create(OpNode):
    """An input relation stored at one party (a DAG root)."""

    op_name = "create"

    def __init__(self, out_rel: Relation):
        super().__init__(out_rel, [])


class Collect(OpNode):
    """An output relation revealed to one or more recipient parties (a leaf)."""

    op_name = "collect"

    def __init__(self, out_rel: Relation, parent: OpNode, recipients: Sequence[str]):
        super().__init__(out_rel, [parent])
        self.recipients: list[str] = list(recipients)


# -- unary relational operators ---------------------------------------------------------------


class Project(OpNode):
    """Column projection / reordering."""

    op_name = "project"

    def __init__(self, out_rel: Relation, parent: OpNode, columns: Sequence[str]):
        super().__init__(out_rel, [parent])
        self.columns: list[str] = list(columns)


class Filter(OpNode):
    """Row filter against a public scalar constant."""

    op_name = "filter"

    def __init__(self, out_rel: Relation, parent: OpNode, column: str, op: str, value: float):
        super().__init__(out_rel, [parent])
        self.column = column
        self.op = validate_comparison_op(op, "filter")
        self.value = value


class Aggregate(OpNode):
    """Group-by aggregation (or whole-relation reduction with no group).

    ``outputs`` lists one ``(func, over, out_name)`` per output column:
    every output reduces its own column (``None`` for a ``count``) over the
    same groups, so a group-by with any number of aggregates sorts — or
    scatters — its rows once.  The output schema is the group column, then
    the outputs in order.
    """

    op_name = "aggregate"

    def __init__(
        self,
        out_rel: Relation,
        parent: OpNode,
        group_col: str | None,
        outputs: Sequence[tuple[str, str | None, str]],
    ):
        super().__init__(out_rel, [parent])
        self.group_col = group_col
        self.outputs: tuple[tuple[str, str | None, str], ...] = tuple(
            (func, over, out_name) for func, over, out_name in outputs
        )
        if not self.outputs:
            raise ValueError("an aggregation needs at least one output")
        #: Set by the sort-elimination pass when the input is already grouped.
        self.presorted = False
        #: Marks the MPC-side merge step of a split aggregation (push-down).
        self.is_secondary = False

    @property
    def funcs(self) -> set[str]:
        """The reducers of the outputs."""
        return {func for func, _, _ in self.outputs}

    def detail(self) -> str:
        outputs = ", ".join(f"{out}={func}({over or ''})" for func, over, out in self.outputs)
        return f"group={self.group_col or '-'} {outputs}"


class Map(OpNode):
    """Append ``out_name = left <op> right`` for ``op`` in ``+ - * /``.

    The one row-wise arithmetic operator: ``right`` is a column name or a
    public scalar, and the output column is typed by
    :func:`~repro.data.schema.arithmetic_typing`.
    """

    op_name = "map"

    def __init__(
        self, out_rel: Relation, parent: OpNode, out_name: str, left: str, op: str, right: str | float
    ):
        if op not in ARITHMETIC_OPS:
            raise ValueError(f"map supports {', '.join(ARITHMETIC_OPS)}, got {op!r}")
        super().__init__(out_rel, [parent])
        self.out_name = out_name
        self.left = left
        self.op = op
        self.right = right

    @property
    def scalar_operand(self) -> bool:
        return not isinstance(self.right, str)


class Compare(OpNode):
    """Append a 0/1 column ``out_name = left <op> right``.

    Unlike :class:`Filter`, which discards rows by comparing a column against
    a public constant, ``Compare`` materialises the comparison outcome as a
    column — the building block compound predicates (disjunctions,
    negations, column-vs-column tests) lower to.
    """

    op_name = "compare"

    def __init__(
        self, out_rel: Relation, parent: OpNode, out_name: str, left: str, op: str, right: str | float
    ):
        super().__init__(out_rel, [parent])
        self.out_name = out_name
        self.left = left
        self.op = validate_comparison_op(op, "compare")
        self.right = right

    @property
    def scalar_operand(self) -> bool:
        return not isinstance(self.right, str)


class BoolOp(OpNode):
    """Append ``out_name`` combining 0/1 columns with and/or/not."""

    op_name = "bool_op"

    def __init__(
        self, out_rel: Relation, parent: OpNode, out_name: str, op: str, operands: Sequence[str]
    ):
        operands = list(operands)
        if op not in ("and", "or", "not"):
            raise ValueError(f"bool_op supports 'and', 'or' and 'not', got {op!r}")
        if op == "not" and len(operands) != 1:
            raise ValueError("'not' takes exactly one operand column")
        if op in ("and", "or") and len(operands) < 2:
            raise ValueError(f"{op!r} needs at least two operand columns")
        super().__init__(out_rel, [parent])
        self.out_name = out_name
        self.op = op
        self.operands = operands


class SortBy(OpNode):
    """Order the relation by one column."""

    op_name = "sort_by"

    def __init__(self, out_rel: Relation, parent: OpNode, column: str, ascending: bool = True):
        super().__init__(out_rel, [parent])
        self.column = column
        self.ascending = ascending


class Distinct(OpNode):
    """Distinct values of the selected columns."""

    op_name = "distinct"

    def __init__(self, out_rel: Relation, parent: OpNode, columns: Sequence[str]):
        super().__init__(out_rel, [parent])
        self.columns: list[str] = list(columns)


class Limit(OpNode):
    """Keep the first ``n`` rows (used with an order-by for top-k queries)."""

    op_name = "limit"

    def __init__(self, out_rel: Relation, parent: OpNode, n: int):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"limit takes a non-negative integer row count, not {n!r}")
        super().__init__(out_rel, [parent])
        self.n = int(n)


# -- multi-input operators --------------------------------------------------------------------


class Concat(OpNode):
    """Duplicate-preserving union of relations with identical schemas."""

    op_name = "concat"

    def __init__(self, out_rel: Relation, parents: Sequence[OpNode]):
        if len(parents) < 1:
            raise ValueError("concat requires at least one input")
        super().__init__(out_rel, parents)


class Merge(OpNode):
    """Merge several relations that are each sorted by the same column.

    Inserted by the sort push-up extension (§5.4): pushing a sort through a
    ``concat`` turns it into per-party local sorts followed by this merge,
    which under MPC costs an O(n log n) oblivious merge instead of an
    O(n log^2 n) oblivious sort.
    """

    op_name = "merge"

    def __init__(self, out_rel: Relation, parents: Sequence[OpNode], column: str, ascending: bool = True):
        if len(parents) < 1:
            raise ValueError("merge requires at least one input")
        super().__init__(out_rel, parents)
        self.column = column
        self.ascending = ascending


class Join(OpNode):
    """Inner equi-join on one key column per side."""

    op_name = "join"

    def __init__(
        self,
        out_rel: Relation,
        left: OpNode,
        right: OpNode,
        left_on: str,
        right_on: str,
    ):
        super().__init__(out_rel, [left, right])
        self.left_on = left_on
        self.right_on = right_on


# -- hybrid operators (inserted by the hybrid rewrite pass, §5.3) -------------------------------


class HybridJoin(Join):
    """Join whose key matching is outsourced to a selectively-trusted party."""

    op_name = "hybrid_join"

    def __init__(
        self,
        out_rel: Relation,
        left: OpNode,
        right: OpNode,
        left_on: str,
        right_on: str,
        stp: str,
    ):
        super().__init__(out_rel, left, right, left_on, right_on)
        self.stp = stp
        self.is_mpc = True


class PublicJoin(Join):
    """Join over public key columns, computed in the clear at a host party."""

    op_name = "public_join"

    def __init__(
        self,
        out_rel: Relation,
        left: OpNode,
        right: OpNode,
        left_on: str,
        right_on: str,
        host: str,
    ):
        super().__init__(out_rel, left, right, left_on, right_on)
        self.host = host
        self.is_mpc = True


class HybridAggregate(Aggregate):
    """Grouped aggregation whose sort/grouping is outsourced to an STP."""

    op_name = "hybrid_aggregate"

    def __init__(
        self,
        out_rel: Relation,
        parent: OpNode,
        group_col: str,
        outputs: Sequence[tuple[str, str | None, str]],
        stp: str,
    ):
        super().__init__(out_rel, parent, group_col, outputs)
        self.stp = stp
        self.is_mpc = True


#: Operators that distribute over a partitioned union: applying them to each
#: partition and concatenating gives the same result as applying them to the
#: concatenation (used by the MPC-frontier push-down, §5.2).  The row-wise
#: expression operators (map/compare/bool_op) are distributive because they
#: look at one row at a time.
DISTRIBUTIVE_OPS = (Project, Filter, Map, Compare, BoolOp)

#: Aggregation functions that can be split into per-party partials plus an
#: MPC merge step.  The merge function for ``count`` partials is ``sum``.
SPLITTABLE_AGGS = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def is_reversible(node: OpNode) -> bool:
    """True if the operator's input can be reconstructed from its output.

    Reversible leaf operators can be lifted out of MPC by the push-up pass
    (§5.2): the recipient would learn the operator's input from the output
    anyway, so computing it in the clear leaks nothing extra.
    """
    if isinstance(node, Map):
        # Adding/subtracting a public constant is always invertible, scaling
        # by one unless it is zero.
        return node.scalar_operand and (node.op in "+-" or node.right != 0)
    if isinstance(node, Project):
        # A projection is reversible only if it merely reorders (keeps every
        # input column).
        parent_cols = set(node.parent.out_rel.schema.names)
        return set(node.columns) == parent_cols
    return False
