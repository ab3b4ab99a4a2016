"""Frontend column specifications and type constants.

These are the names analysts use when declaring input relations, mirroring
Listing 1/2 of the paper::

    schema = [cc.Column("ssn", cc.INT, trust=[regulator]),
              cc.Column("score", cc.INT)]

A :class:`Column` here is a *frontend* specification; the compiler converts
it to the data plane's :class:`~repro.data.schema.ColumnDef`, resolving the
``trust`` list of :class:`~repro.core.party.Party` objects into a set of
party names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.party import Party
from repro.data.schema import ColumnDef, ColumnType, PUBLIC, Schema

#: Frontend aliases for column types.
INT = ColumnType.INT
FLOAT = ColumnType.FLOAT


@dataclass(frozen=True)
class AggSpec:
    """One aggregate of a multi-aggregate ``aggregate`` call.

    Built by calling an aggregation function: ``SUM("price")``,
    ``COUNT()``, ``MEAN("score")``.  ``over`` is the aggregated column
    (``None`` only for ``count``).
    """

    func: str
    over: str | None = None

    def __post_init__(self) -> None:
        func = self.func.lower()
        object.__setattr__(self, "func", func)
        if func != "count" and self.over is None:
            raise ValueError(f"aggregation {func!r} needs a column: {func.upper()}('col')")


class AggFunc(str):
    """Aggregation function usable both as a string constant and as a
    callable building an :class:`AggSpec` for the expression frontend.

    ``SUM`` compares equal to ``"sum"`` (the name operators and engines use)
    while ``SUM("price")`` names the aggregated column for
    ``aggregate(group=..., aggs=...)``.
    """

    def __call__(self, over: str | None = None) -> AggSpec:
        return AggSpec(str(self), over)


#: Frontend aliases for aggregation functions.
SUM = AggFunc("sum")
COUNT = AggFunc("count")
MIN = AggFunc("min")
MAX = AggFunc("max")
MEAN = AggFunc("mean")


@dataclass
class Column:
    """Frontend column specification with an optional trust annotation.

    ``trust`` lists parties authorised to learn this column in the clear
    (§4.3); pass :data:`PUBLIC_COLUMN` (or ``public=True``) to mark the
    column as public to every party.
    """

    name: str
    ctype: ColumnType = INT
    trust: Sequence[Party] = field(default_factory=tuple)
    public: bool = False

    def to_column_def(self, owner: Party | None = None) -> ColumnDef:
        """Convert to a data-plane column definition.

        The owning party is implicitly a member of every trust set
        (§4.3: "A party storing an input relation is implicitly in the
        trust set for all its columns").
        """
        trust: set[str] = set()
        if self.public:
            trust.add(PUBLIC)
        for party in self.trust:
            trust.add(party.name if isinstance(party, Party) else str(party))
        if owner is not None:
            trust.add(owner.name)
        return ColumnDef(self.name, self.ctype, frozenset(trust))


def build_schema(columns: Iterable[Column], owner: Party | None = None) -> Schema:
    """Convert a list of frontend columns into a data-plane schema."""
    return Schema([c.to_column_def(owner) for c in columns])
