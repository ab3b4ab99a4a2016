"""Relation schemas.

A :class:`Schema` is an ordered list of :class:`ColumnDef` objects.  Columns
carry a type (``INT`` or ``FLOAT``) and an optional *trust set*: the set of
party names that are authorised to see the column in the clear (§4.3 of the
paper).  An empty trust set means "private to the owning party"; the special
marker :data:`PUBLIC` means every party may see it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class ColumnType(enum.Enum):
    """Value type of a column."""

    INT = "int"
    FLOAT = "float"

    def python_type(self) -> type:
        """Return the Python type used to store values of this column."""
        return int if self is ColumnType.INT else float


#: Sentinel trust-set entry meaning "all parties" (a public column).
PUBLIC = "*"


@dataclass(frozen=True)
class ColumnDef:
    """Definition of a single column.

    Parameters
    ----------
    name:
        Column name, unique within its schema.
    ctype:
        Value type.
    trust:
        Names of parties trusted to see the column in the clear, in addition
        to the owning party.  ``{PUBLIC}`` marks a public column.
    """

    name: str
    ctype: ColumnType = ColumnType.INT
    trust: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if not isinstance(self.trust, frozenset):
            object.__setattr__(self, "trust", frozenset(self.trust))

    @property
    def is_public(self) -> bool:
        """True if every party is trusted with this column."""
        return PUBLIC in self.trust

    def with_trust(self, trust: Iterable[str]) -> "ColumnDef":
        """Return a copy of this column with a replaced trust set."""
        return ColumnDef(self.name, self.ctype, frozenset(trust))

    def renamed(self, name: str) -> "ColumnDef":
        """Return a copy of this column with a new name."""
        return ColumnDef(name, self.ctype, self.trust)


class Schema:
    """Ordered collection of column definitions.

    Schemas are immutable; transformation helpers return new instances.
    """

    def __init__(self, columns: Sequence[ColumnDef]):
        cols = list(columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        self._columns: tuple[ColumnDef, ...] = tuple(cols)
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(cols)}

    # -- basic container protocol -------------------------------------------------

    @property
    def columns(self) -> tuple[ColumnDef, ...]:
        return self._columns

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[ColumnDef]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: int | str) -> ColumnDef:
        if isinstance(key, int):
            return self._columns[key]
        return self._columns[self._index[key]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{c.name}:{c.ctype.value}" + (f"[trust={sorted(c.trust)}]" if c.trust else "")
            for c in self._columns
        )
        return f"Schema({cols})"

    # -- lookups -------------------------------------------------------------------

    def index_of(self, name: str) -> int:
        """Return the positional index of column ``name``.

        Raises ``KeyError`` if the column does not exist.
        """
        if name not in self._index:
            raise KeyError(f"no column named {name!r}; have {self.names}")
        return self._index[name]

    def indices_of(self, names: Sequence[str]) -> list[int]:
        """Return positional indices for a list of column names."""
        return [self.index_of(n) for n in names]

    def resolve(self, key: int | str) -> str:
        """Normalise a column reference (index or name) to a column name."""
        if isinstance(key, int):
            return self._columns[key].name
        self.index_of(key)
        return key

    # -- derivation helpers --------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema consisting of the named columns, in the given order."""
        return Schema([self[self.index_of(n)] for n in names])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with columns renamed according to ``mapping``."""
        return Schema([c.renamed(mapping.get(c.name, c.name)) for c in self._columns])

    def with_column(self, column: ColumnDef) -> "Schema":
        """Return a schema with ``column`` appended."""
        return Schema([*self._columns, column])

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a schema without the named columns."""
        drop = set(names)
        return Schema([c for c in self._columns if c.name not in drop])

    def concat_compatible(self, other: "Schema") -> bool:
        """True if two schemas can be concatenated row-wise (names and types match)."""
        if len(self) != len(other):
            return False
        return all(
            a.name == b.name and a.ctype == b.ctype
            for a, b in zip(self._columns, other._columns)
        )


def make_schema(*specs: tuple[str, ColumnType] | str) -> Schema:
    """Convenience constructor: ``make_schema("a", ("b", ColumnType.FLOAT))``."""
    cols = []
    for spec in specs:
        if isinstance(spec, str):
            cols.append(ColumnDef(spec, ColumnType.INT))
        else:
            name, ctype = spec
            cols.append(ColumnDef(name, ctype))
    return Schema(cols)


def arithmetic_typing(
    schema: Schema, left: str, op: str, right: "str | float"
) -> tuple[bool, bool, ColumnType]:
    """The one typing rule of row-wise arithmetic ``left <op> right``.

    Returns whether each operand — a column name or a public scalar — is
    carried in fixed point (a FLOAT column, a fractional scalar), and the
    result's type: FLOAT for a division or as soon as either operand is
    fixed point, INT otherwise.  The frontend types ``Map`` outputs with it,
    the share engine aligns and rescales by it, the estimator prices by it.
    """
    left_fixed = schema[left].ctype is ColumnType.FLOAT
    if isinstance(right, str):
        right_fixed = schema[right].ctype is ColumnType.FLOAT
    else:
        right_fixed = not float(right).is_integer()
    floating = op == "/" or left_fixed or right_fixed
    return left_fixed, right_fixed, ColumnType.FLOAT if floating else ColumnType.INT


#: Aggregation function names an ``Aggregate`` output may use.
AGG_FUNCS = ("sum", "count", "min", "max", "mean")


def aggregate_schema(
    schema: Schema, group_col: "str | None", outputs: "Sequence[tuple[str, str | None, str]]"
) -> Schema:
    """The one typing rule of an aggregation over ``schema``.

    The output is the group column (when there is one), then one column per
    ``(func, over, out_name)`` output, in order: a ``count`` is INT, a
    ``mean`` FLOAT, any other reducer has its column's type.  The frontend,
    the cleartext engines and the MPC protocols all type their outputs here.
    """
    columns = [schema[group_col]] if group_col is not None else []
    for func, over, out_name in outputs:
        if func not in AGG_FUNCS:
            raise ValueError(f"unsupported aggregation {func!r}; supported: {', '.join(AGG_FUNCS)}")
        if func != "count" and over is None:
            raise ValueError(f"aggregation {func!r} requires a value column")
        ctype = ColumnType.INT if func == "count" else schema[over].ctype
        columns.append(ColumnDef(out_name, ColumnType.FLOAT if func == "mean" else ctype))
    return Schema(columns)
