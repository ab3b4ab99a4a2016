"""The share engine run on row counts alone: what a plan estimate executes.

:class:`ShapeEngine` is a :class:`~repro.mpc.secretshare.SecretSharingEngine`
that holds no slice and draws no randomness: its vectors carry only a
length.  The relational protocols (:mod:`repro.mpc.protocols`,
:mod:`repro.mpc.oblivious`, :mod:`repro.hybrid`) run on it unchanged, so
every step they take is charged exactly as in execution — the carried
primitives charge their :mod:`repro.model.steps` meter, the analytic steps
their ``engine.charge`` — at O(1) per step, whatever the row count.  The
plan estimator prices an MPC node with the meter of one such run; there is
no second list of an operator's steps.

Opened values and row positions are :class:`Positions`: a count, sliceable.
Only two things a shape run cannot derive from its inputs' lengths — how
many rows a size-revealing compaction keeps, and how many pairs an STP's
key match returns — and both are the node's estimated output rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import Schema
from repro.model import steps
from repro.model.counters import CostMeter
from repro.mpc.network import Network
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SecretSharingEngine, SharedVector
from repro.mpc.sharemind import SharemindBackend


class Positions:
    """Row positions, or opened values, of which only the count is known."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: "slice | Positions") -> "Positions":
        if isinstance(rows, Positions):
            return Positions(len(rows))
        return Positions(len(range(self.n)[rows]))


class ShapeEngine(SecretSharingEngine):
    """A share engine whose vectors carry only a length.

    ``rows_out`` is the estimated output of the node being priced: what
    :meth:`rows_where` keeps.  No slice, stream or dealer exists, so a
    primitive that would touch one fails loudly instead of silently
    allocating a billion-row vector.
    """

    def __init__(self, party_names: Sequence[str], rows_out: int):
        self.party_names = list(party_names)
        self.num_parties = len(self.party_names)
        self.local_parties = set()
        self.local_indices = []
        self._local_pos = {}
        self.num_local_shares = 0
        self.network = Network(self.party_names)
        self.meter = CostMeter(network=self.network.stats)
        self.rows_out = rows_out

    def _require_local(self) -> None:
        pass

    def _vector(self, n: int) -> SharedVector:
        return SharedVector(self, [], n)

    # -- the carried primitives: the step meter of each round -----------------------------

    def input_vectors(self, values=None, contributor=None, num_rows=None, public=False):
        rows = [len(v) for v in values] if values is not None else list(num_rows)
        self.charge(steps.input_meter(sum(rows), self.num_parties))
        return [self._vector(n) for n in rows]

    def _broadcast(self, tag: str, vecs: Sequence[SharedVector]) -> list[Positions]:
        self.charge(steps.env_open_meter(sum(len(vec) for vec in vecs), self.num_parties))
        return [Positions(len(vec)) for vec in vecs]

    def open_flags(self, flags: SharedVector) -> Positions:
        self.charge(steps.open_flags_meter(len(flags), self.num_parties))
        return Positions(len(flags))

    def mul(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        if not isinstance(right, SharedVector):
            return self.scale(left, int(right))
        self.charge(steps.beaver_multiply_meter(len(left), self.num_parties))
        return self._vector(len(left))

    # -- sharings of values every engine knows: no randomness, no slice ---------------------

    def fill(self, value: int, n: int) -> SharedVector:
        return self._vector(n)

    def share_from_env(self, values) -> SharedVector:
        return self._vector(len(values))

    def zero_sharing(self, n: int) -> list[np.ndarray]:
        return []

    def env_apply(self, fn, vecs: Sequence[SharedVector]) -> SharedVector:
        self.env_open_many(vecs)
        return self._vector(len(vecs[0]))

    # -- positions and scans ----------------------------------------------------------------

    def permutation(self, n: int) -> Positions:
        return Positions(n)

    def order_of(self, key: SharedVector) -> Positions:
        self.env_open(key)
        return Positions(len(key))

    def adjacent_groups(self, key: SharedVector, presorted: bool):
        self.env_open(key)
        n = len(key)
        return None if presorted else Positions(n), Positions(n - 1)

    def rows_where(self, opened_flags) -> Positions:
        return Positions(self.rows_out)

    def cross_pairs(self, n: int, m: int) -> tuple[Positions, Positions]:
        return Positions(n * m), Positions(n * m)

    def check_index(self, rows, n: int) -> None:
        pass

    def key_values(self, vec: SharedVector) -> np.ndarray:
        """The opening is charged; an estimate sees no key out of range."""
        self.env_open(vec)
        return np.empty(0, dtype=np.int64)

    def segmented_sum(self, values: SharedVector, same) -> SharedVector:
        self.charge(steps.segmented_sum_meter(len(values), self.num_parties))
        return self._vector(len(values))


class ShapeBackend(SharemindBackend):
    """The Sharemind facade over a fresh :class:`ShapeEngine` of
    ``num_parties`` computing parties, for one node of ``rows_out`` rows."""

    def __init__(self, num_parties: int, rows_out: int = 0):
        self.party_names = [f"party{i}" for i in range(num_parties)]
        self.engine = ShapeEngine(self.party_names, rows_out)

    def table(self, schema: Schema, rows: int) -> SharedTable:
        """A shared relation of ``rows`` rows already inside the MPC."""
        return SharedTable(self.engine, schema, [self.engine.fill(0, rows) for _ in schema])


class ShapeSTP:
    """The STP of a shape run: its key match returns the node's estimated
    output rows, its key sort the input's row count."""

    def __init__(self, name: str, rows_out: int):
        self.name = name
        self.rows_out = rows_out

    def match_keys(self, left_keys, right_keys) -> tuple[Positions, Positions]:
        return Positions(self.rows_out), Positions(self.rows_out)

    def sort_keys(self, keys) -> tuple[Positions, Positions]:
        return Positions(len(keys)), Positions(len(keys) - 1)
