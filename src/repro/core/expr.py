"""Typed expression AST for the analyst-facing frontend.

Analysts build predicates and derived columns with ordinary Python
operators over :func:`col` and :func:`lit`::

    import repro as cc

    paid   = trips.filter(cc.col("price") > 0)
    flagged = scores.filter((cc.col("score") > 600) & ~(cc.col("region") == 4))
    shares  = revenue.with_column("share", cc.col("local_rev") / cc.col("total_rev"))

Expressions are *descriptions*, not computations: the frontend lowers each
expression into the compiler's operator vocabulary — ``Filter`` plus the
row-wise ``Map`` (all of ``+ - * /``), ``Compare`` and ``BoolOp``
operators — so every downstream pass — ownership/trust propagation,
MPC-frontier push-down, hybrid rewrites, partitioning, and all execution
backends — sees plain relational operators and needs no knowledge of the
AST.  The lowering lives in :mod:`repro.core.lang`; this module only defines
the node types and the structural analyses the lowering relies on
(column-set extraction, conjunction flattening, simple-predicate
classification).

Design notes:

* ``==`` and ``!=`` are overloaded to build :class:`Comparison` nodes, so
  expression objects are identity-hashed and must not be used as dict keys
  expecting value semantics.
* ``&``, ``|`` and ``~`` build boolean nodes (Python's ``and``/``or``/``not``
  cannot be overloaded); comparisons bind tighter than ``&``/``|`` only when
  parenthesised, exactly as in pandas/PySpark.
* Arithmetic on two booleans or boolean tests of arithmetic results are
  permitted — booleans lower to 0/1 integer columns.
"""

from __future__ import annotations

from typing import Iterator, Union

#: Comparison operators an expression (and the ``Filter`` operator) may use.
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Arithmetic operators supported in expressions.
ARITHMETIC_OPS = ("+", "-", "*", "/")

_MIRRORED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPLEMENTED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

Scalar = Union[int, float]


class Expr:
    """Base class of all expression nodes."""

    __hash__ = object.__hash__

    # -- structural analyses -----------------------------------------------------------

    def columns(self) -> set[str]:
        """Names of every input column this expression reads.

        The frontier pass uses this to decide whether an expression-derived
        operator can be pushed below a partition point, and the frontend uses
        it for eager schema validation.
        """
        return {node.name for node in self.walk() if isinstance(node, ColumnRef)}

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every sub-expression (pre-order)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def is_boolean(self) -> bool:
        """True for nodes that evaluate to a 0/1 truth value."""
        return isinstance(self, (Comparison, BooleanOp, Negation))

    # -- operator overloading ------------------------------------------------------------

    def _arith(self, op: str, other, reflected: bool = False) -> "Arithmetic":
        other = _coerce(other)
        return Arithmetic(other, op, self) if reflected else Arithmetic(self, op, other)

    def __add__(self, other):
        return self._arith("+", other)

    def __radd__(self, other):
        return self._arith("+", other, reflected=True)

    def __sub__(self, other):
        return self._arith("-", other)

    def __rsub__(self, other):
        return self._arith("-", other, reflected=True)

    def __mul__(self, other):
        return self._arith("*", other)

    def __rmul__(self, other):
        return self._arith("*", other, reflected=True)

    def __truediv__(self, other):
        return self._arith("/", other)

    def __rtruediv__(self, other):
        return self._arith("/", other, reflected=True)

    def __neg__(self):
        return Arithmetic(Literal(0), "-", self)

    def _compare(self, op: str, other) -> "Comparison":
        return Comparison(self, op, _coerce(other))

    def __eq__(self, other):  # type: ignore[override]
        return self._compare("==", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare("!=", other)

    def __lt__(self, other):
        return self._compare("<", other)

    def __le__(self, other):
        return self._compare("<=", other)

    def __gt__(self, other):
        return self._compare(">", other)

    def __ge__(self, other):
        return self._compare(">=", other)

    def __and__(self, other):
        return BooleanOp("and", (_require_boolean(self, "&"), _require_boolean(other, "&")))

    def __rand__(self, other):
        return BooleanOp("and", (_require_boolean(other, "&"), _require_boolean(self, "&")))

    def __or__(self, other):
        return BooleanOp("or", (_require_boolean(self, "|"), _require_boolean(other, "|")))

    def __ror__(self, other):
        return BooleanOp("or", (_require_boolean(other, "|"), _require_boolean(self, "|")))

    def __invert__(self):
        return Negation(_require_boolean(self, "~"))

    def __bool__(self):
        raise TypeError(
            "Conclave expressions have no truth value; use & (and), | (or) and "
            "~ (not) to combine predicates instead of and/or/not"
        )


class ColumnRef(Expr):
    """Reference to a column of the relation the expression is applied to."""

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("col() needs a non-empty column name")
        self.name = name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expr):
    """A public scalar constant embedded in the query."""

    def __init__(self, value: Scalar):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"lit() supports int/float constants, got {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Arithmetic(Expr):
    """Binary arithmetic: ``left <op> right`` with ``op`` in ``+ - * /``."""

    def __init__(self, left: Expr, op: str, right: Expr):
        if op not in ARITHMETIC_OPS:
            raise ValueError(f"unsupported arithmetic op {op!r}; supported: {ARITHMETIC_OPS}")
        self.left = left
        self.op = op
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expr):
    """Row-wise comparison producing a 0/1 truth value."""

    def __init__(self, left: Expr, op: str, right: Expr):
        if op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison op {op!r}; supported: {COMPARISON_OPS}")
        self.left = left
        self.op = op
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def normalised(self) -> "Comparison":
        """Return an equivalent comparison with any literal on the right."""
        if isinstance(self.left, Literal) and not isinstance(self.right, Literal):
            return Comparison(self.right, _MIRRORED[self.op], self.left)
        return self

    def is_simple(self) -> bool:
        """True for ``column <op> constant`` — the shape ``Filter`` handles natively."""
        norm = self.normalised()
        return isinstance(norm.left, ColumnRef) and isinstance(norm.right, Literal)

    def complement(self) -> "Comparison":
        """The logically negated comparison (``not (a < b)`` is ``a >= b``)."""
        return Comparison(self.left, _COMPLEMENTED[self.op], self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanOp(Expr):
    """N-ary conjunction or disjunction of boolean sub-expressions."""

    def __init__(self, op: str, operands: tuple[Expr, ...]):
        if op not in ("and", "or"):
            raise ValueError(f"boolean op must be 'and' or 'or', got {op!r}")
        if len(operands) < 2:
            raise ValueError("boolean op needs at least two operands")
        # Flatten nested same-op nodes so (a & b) & c lowers to one chain.
        flat: list[Expr] = []
        for operand in operands:
            if not operand.is_boolean():
                raise TypeError(
                    f"boolean {op!r} operands must be predicates, got {operand!r}"
                )
            if isinstance(operand, BooleanOp) and operand.op == op:
                flat.extend(operand.operands)
            else:
                flat.append(operand)
        self.op = op
        self.operands: tuple[Expr, ...] = tuple(flat)

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def __repr__(self) -> str:
        sep = f" {'&' if self.op == 'and' else '|'} "
        return "(" + sep.join(repr(o) for o in self.operands) + ")"


class Negation(Expr):
    """Logical negation of a boolean sub-expression."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


# -- public constructors ---------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Reference a column of the relation an expression is applied to."""
    return ColumnRef(name)


def lit(value: Scalar) -> Literal:
    """Embed a public scalar constant in an expression."""
    return Literal(value)


# -- helpers used by the lowering ------------------------------------------------------------


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"cannot use {type(value).__name__} in an expression; wrap columns with "
            "col() and constants with lit()"
        )
    return Literal(value)


def _require_boolean(value, operator: str) -> Expr:
    value = _coerce(value)
    if not value.is_boolean():
        raise TypeError(
            f"operands of {operator} must be predicates (comparisons or boolean "
            f"combinations), got {value!r}"
        )
    return value


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(expr, BooleanOp) and expr.op == "and":
        return list(expr.operands)
    return [expr]


def as_simple_comparison(expr: Expr) -> "Comparison | None":
    """A ``column <op> constant`` comparison equivalent to ``expr``, or None.

    Recognises plain simple comparisons and their negations (``~(a == 1)``
    is ``a != 1``), so the filter lowering can keep both on the cheap
    ``Filter`` fast path instead of materialising a mask column.
    """
    if isinstance(expr, Comparison) and expr.is_simple():
        return expr
    if isinstance(expr, Negation):
        inner = expr.operand
        if isinstance(inner, Comparison) and inner.is_simple():
            return inner.complement()
    return None


def validate_columns(expr: Expr, available: set[str], context: str) -> None:
    """Eagerly reject expressions referencing unknown columns."""
    missing = sorted(expr.columns() - available)
    if missing:
        raise KeyError(
            f"{context} references unknown column(s) {missing}; have {sorted(available)}"
        )
