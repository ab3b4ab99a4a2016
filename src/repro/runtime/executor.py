"""Node-by-node execution of a compiled plan, shared by every runtime.

The paper's deployment model (§4.1) runs one agent per data-owning party.
This module holds the execution logic both runtimes share:

* the in-process :class:`~repro.core.dispatch.QueryRunner` instantiates one
  :class:`PlanExecutor` that embodies *every* party (``local_parties`` = all
  parties, no mesh) — the original simulated behaviour;
* the distributed runtime runs one :class:`PlanExecutor` per party process
  (``local_parties`` = that party, plus the query's
  :class:`~repro.runtime.mesh.MeshChannel`).
  Cleartext operators execute only at the party that owns them; a relation
  that crosses between parties is a round over the mesh, like every MPC
  step (its row count, or its columns); and *every* agent
  participates in the MPC operators, executing the joint protocol in
  lockstep from the shared seed so that each agent's share traffic really
  flows through its sockets (see :meth:`repro.mpc.network.Network.round`).

The plan's delicate points are the edges where a relation crosses between a
party's cleartext engine and the MPC (§4.1, §5.2), and the security argument
(§3.2) is a statement about exactly those edges.  Every edge goes through
one function, :meth:`PlanExecutor._fetch`, which every executor runs for
every edge (SPMD, like ``Network.round``): it plays the sender's, the
receiver's or the bystander's part and records the crossing in the one
:class:`~repro.hybrid.stp.LeakageReport`.  Every field of every event is a
plan name or a public row count, so every agent writes the identical report,
in the identical order, as the in-process run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Filter,
    HybridAggregate,
    HybridJoin,
    Join,
    Limit,
    Map,
    Merge,
    OpNode,
    Project,
    PublicJoin,
    SortBy,
)
from repro.data.schema import PUBLIC, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid.hybrid_agg import hybrid_aggregate
from repro.hybrid.hybrid_join import hybrid_join
from repro.hybrid.public_join import public_join
from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.mpc.network import Network, TransportError
from repro.mpc.sharemind import SharemindBackend


class SecurityError(RuntimeError):
    """Raised when an execution step would reveal data to an unauthorised party."""


#: The locus of the joint computation; every other locus is a party name.
MPC = object()


@dataclass
class _Entry:
    """A relation handle plus where it currently lives.

    ``party`` is :data:`MPC` for a secret-shared relation; ``handle`` is
    ``None`` when the relation lives at a party this executor does not
    embody (distributed runtime only).
    """

    party: object
    handle: object


@dataclass
class ExecutionOutcome:
    """What one executor (process) produced while running a plan."""

    outputs: dict[str, Table]
    #: Each engine's counts after each node (:mod:`repro.model.counters`).
    tally: dict[str, np.ndarray]
    wall_seconds: float
    leakage: LeakageReport
    mpc_profile: dict[str, int]
    #: ``(tag, messages, bytes)`` of every round each network carried, in
    #: order: ``"mpc"`` (the MPC backend's) and ``"crossings"``.
    schedule: dict[str, list[tuple[str, int, int]]]


class PlanExecutor:
    """Executes compiled queries over in-memory party inputs.

    ``local_parties`` selects which parties this executor embodies; with the
    default (all of them, no mesh) it behaves exactly like the original
    in-process dispatcher.

    Cleartext operators run on one engine per party and MPC operators on
    the secret-sharing backend, all built afresh by every execution, which
    reports what each engine did and prices nothing
    (:func:`repro.model.prices.price` does).
    """

    #: The cleartext engine class — a seam, so the differential tests can
    #: run a plan on the row-at-a-time oracle (``tests/oracle_engine.py``)
    #: and the plan estimator on relations that carry only a row count.
    cleartext_engine = ColumnarBackend
    #: The selectively-trusted party of the hybrid operators, over its engine.
    trusted_party = SelectivelyTrustedParty

    def __init__(
        self,
        parties: list[str],
        inputs: dict[str, dict[str, Table]],
        seed: int = 0,
        *,
        local_parties: set[str] | None = None,
        mesh=None,
    ):
        self.parties = list(parties)
        self.inputs = inputs
        self.seed = seed
        self.mesh = mesh
        self.local_parties = set(local_parties) if local_parties is not None else set(self.parties)
        if mesh is None and self.local_parties != set(self.parties):
            raise ValueError("embodying a subset of parties requires a peer mesh")

    # -- backend construction -------------------------------------------------------------

    def _make_mpc_backend(self) -> SharemindBackend:
        compute = self.parties[: SharemindBackend.MAX_PARTIES]
        network = None
        local_parties = None
        if self.mesh is not None:
            network = Network(compute, channel=self.mesh)
            # A party agent materialises only its own share slices; an agent
            # outside the compute set gets an observer engine (no slices)
            # that raises if the plan ever asks it to run an MPC primitive.
            local_parties = [p for p in compute if p in self.local_parties]
        return SharemindBackend(
            compute, seed=self.seed, network=network, local_parties=local_parties
        )

    # -- execution -------------------------------------------------------------------------

    def execute(self, compiled) -> ExecutionOutcome:
        """Execute a :class:`~repro.core.compiler.CompiledQuery`."""
        # Every engine, meter, network and randomness stream is fresh per
        # execution, so a reused runner repeats its first run exactly.
        self.local_backends = {
            p: self.cleartext_engine() for p in self.parties if p in self.local_parties
        }
        # Relations cross between parties in rounds of their own; their
        # counters stay out of the MPC profile.
        self._crossings = Network(self.parties, channel=self.mesh)
        # A single-party query never crosses the MPC boundary; the MPC
        # substrate requires at least two computing parties.
        self.mpc_backend = self._make_mpc_backend() if len(self.parties) >= 2 else None
        self.leakage = LeakageReport()
        self._env: dict[str, _Entry] = {}
        self._mpc_started = False
        outputs: dict[str, Table] = {}
        counts: list[dict[str, tuple[int, ...]]] = []

        wall_start = time.perf_counter()
        try:
            for node in compiled.dag.topological():
                self._env[node.out_rel.name] = self._execute_node(node, outputs)
                counts.append(self._counts())
        except BaseException as exc:
            # Distributed lockstep: peers may be blocked waiting for this
            # executor's next frame.  Broadcast an abort for this query so
            # their reads fail immediately instead of running out the mesh
            # timeout — a failed query must surface loudly everywhere, fast.
            abort = getattr(self.mesh, "abort", None)
            if abort is not None:
                try:
                    abort(f"{type(exc).__name__}: {exc}")
                except Exception:  # noqa: BLE001 - the original error wins
                    pass
            raise
        wall_seconds = time.perf_counter() - wall_start

        return ExecutionOutcome(
            outputs=outputs,
            # Zeros before an engine existed (a replica made mid-run).
            tally={
                engine: np.array([row.get(engine, (0,) * len(last)) for row in counts], np.int64)
                for engine, last in counts[-1].items()
            },
            wall_seconds=wall_seconds,
            leakage=self.leakage,
            mpc_profile=self._mpc_profile(),
            schedule={
                "mpc": [] if self.mpc_backend is None else self.mpc_backend.engine.network.schedule,
                "crossings": self._crossings.schedule,
            },
        )

    # -- node execution ----------------------------------------------------------------------

    def _execute_node(self, node: OpNode, outputs: dict[str, Table]) -> _Entry:
        if isinstance(node, Create):
            return self._execute_create(node)
        if isinstance(node, Collect):
            # An output crosses to each recipient in turn.
            for party in node.recipients:
                if party not in self.parties:
                    raise ValueError(
                        f"output {node.out_rel.name!r} goes to {party!r}, which is not "
                        f"one of this run's parties {self.parties}"
                    )
                table = self._fetch(node.parents[0], node, party)
                if table is not None:
                    outputs[node.out_rel.name] = table
            return _Entry(node.recipients[0], None)
        locus = MPC if node.is_mpc else node.run_at or node.out_rel.owner
        if locus is None:
            raise ValueError(f"cleartext operator {node!r} has no executing party")
        if locus is MPC:
            # The first MPC node starts the job, which pays one start-up
            # (paper §7).
            self._mpc_started = True
        handles = [self._fetch(parent, node, locus) for parent in node.parents]
        if locus is MPC:
            engine = self.mpc_backend
        elif locus in self.local_parties:
            engine = self.local_backends[locus]
        else:
            return _Entry(locus, None)
        return _Entry(locus, apply_operator(engine, node, handles, self._stp_for, self.leakage))

    def _execute_create(self, node: Create) -> _Entry:
        owner = node.out_rel.owner
        if owner is None:
            raise ValueError(f"input relation {node.out_rel.name!r} has no owner")
        if owner not in self.local_parties:
            return _Entry(owner, None)
        try:
            table = self.inputs[owner][node.out_rel.name]
        except KeyError as exc:
            raise KeyError(
                f"party {owner!r} has no input relation {node.out_rel.name!r}; "
                f"available: {sorted(self.inputs.get(owner, {}))}"
            ) from exc
        # Every agent holds the plan's schema of each relation, so an input
        # must be exactly the relation it declares.
        declared = [(col.name, col.ctype.value) for col in node.out_rel.schema]
        given = [(col.name, col.ctype.value) for col in table.schema]
        if given != declared:
            raise ValueError(
                f"party {owner!r}'s input relation {node.out_rel.name!r} has columns "
                f"{given}, but the plan declares {declared}"
            )
        return _Entry(owner, self.local_backends[owner].ingest(table, contributor=owner))

    # -- crossing a boundary -------------------------------------------------------------------

    def _fetch(self, parent: OpNode, consumer: OpNode, locus):
        """Bring ``parent``'s relation to ``locus``, where ``consumer`` runs.

        The one mover: every executor calls it for every edge of the plan,
        and an edge whose ends live at different loci is one of three
        crossings, in each of which this executor plays the sender, the
        receiver or a bystander according to ``self.local_parties``:

        * party → MPC — the contributor sends every peer the relation's
          row count, one int64, and that is the only frame of the crossing:
          every other agent expands its share slices from the key it shares
          with the contributor; neither the cleartext nor a slice leaves the
          contributing process;
        * MPC → party — ``reveal_to``: the others send the target their
          slices, and only the target materialises the cleartext;
        * party → party — the holder sends the target the columns.

        The row count and the columns cross in a round of their own, tagged
        with the relation's name; the schema is the plan's at every agent,
        so none crosses.

        Authorisation is checked — and the leakage event recorded — by
        everyone, from plan names and public row counts alone.  Returns what
        the consumer computes on (a shared table, or a party's ``Table``),
        ``None`` where ``locus`` is a party this executor does not embody.
        """
        rel = parent.out_rel
        entry = self._env[rel.name]
        holder, mine = entry.party, self.local_parties
        is_output = isinstance(consumer, Collect)
        if holder == locus:  # no boundary on this edge
            return entry.handle
        if locus is MPC:
            mpc = self.mpc_backend
            if mpc is None:
                raise ValueError(
                    "plan contains MPC operators but the runner has a single party; "
                    "MPC needs at least two computing parties"
                )
            if holder not in mpc.party_names:
                raise ValueError(
                    f"relation {rel.name!r} enters the MPC from {holder!r}, which is not "
                    f"one of the compute parties {mpc.party_names}"
                )
            table = None
            if holder in mine:
                table = Table(rel.schema, entry.handle.columns())
            # Only the public row count reaches the peers, which expand
            # their share slices of the columns from their pairwise keys.
            count = None if table is None else np.array([table.num_rows], dtype=np.int64)
            sends = [(holder, p, count) for p in self.parties if p != holder]
            delivered = self._crossings.round(rel.name, sends, 8)
            if table is not None:
                return mpc.ingest(table, contributor=holder)
            me = self._crossings.reference_party
            num_rows = _row_count(delivered[(holder, me)], holder, rel.name)
            return mpc.ingest_remote(rel.schema, num_rows, contributor=holder)
        if not self._authorized(parent, consumer, locus):
            raise SecurityError(
                f"plan would reveal relation {rel.name!r}, held by "
                f"{'the MPC' if holder is MPC else holder}, to unauthorised party {locus}"
            )
        if holder is MPC:
            table = self.mpc_backend.reveal_to(entry.handle, locus)
            # The row count is public metadata: every agent knows it, whether
            # or not the cleartext materialised here.
            rows = entry.handle.num_rows
            if is_output:
                self.leakage.record(
                    "output", consumer.out_rel.name, consumer.out_rel.schema.names, [locus],
                    detail=f"{rows} rows revealed as query output",
                )
            else:
                self.leakage.record(
                    "column_reveal", rel.name, rel.schema.names, [locus],
                    detail=f"{rows} rows revealed for cleartext post-processing",
                    received=table is not None,
                )
        else:
            columns = None
            if holder in mine:
                columns = entry.handle.columns()
            # A transfer's size is no bystander's business: the round is
            # metered at zero bytes, the mesh link stats count the frame.
            delivered = self._crossings.round(rel.name, [(holder, locus, columns)], 0)
            table = None
            if locus in mine:
                table = _table_received(rel.schema, delivered[(holder, locus)], holder, rel.name)
            self.leakage.record(
                "cleartext_transfer", rel.name, rel.schema.names, [locus],
                detail=f"sent from {holder}",
            )
        if locus not in mine:
            return None
        # An output lands at the recipient's agent, not in its engine.
        return table if is_output else self.local_backends[locus].ingest(table)

    def _authorized(self, parent: OpNode, consumer: OpNode, party: str) -> bool:
        """Check that revealing ``parent``'s relation to ``party`` is allowed."""
        rel = parent.out_rel
        if rel.owner == party:
            return True
        if isinstance(consumer, Collect) and party in consumer.recipients:
            return True
        if consumer.run_at == party and consumer.lifted:
            # Push-up lifted a reversible operator to the output recipient:
            # its input is derivable from the output the recipient receives.
            return True
        return all(
            party in rel.column_trust(col) or PUBLIC in rel.column_trust(col)
            for col in rel.schema.names
        )

    # -- helpers ------------------------------------------------------------------------------------------

    def _stp_for(self, party: str) -> SelectivelyTrustedParty:
        if party not in self.local_backends:
            # A party this executor does not embody gets a replica engine.
            # It works only where every engine holds what the party's logic
            # reads: a public join's keys, or a reveal to an STP outside the
            # MPC, which opens to the environment.  A reveal to an STP that
            # is a peer reaches the STP's agent only, and here the replica
            # stays idle.
            self.local_backends[party] = self.cleartext_engine()
        return self.trusted_party(party, self.local_backends[party])

    def _counts(self) -> dict[str, tuple[int, ...]]:
        """Every engine's counts so far, in engine order.  A distributed
        agent's replica of a peer's engine (:meth:`_stp_for`) repeats work
        that peer's own agent reports; only an STP outside the run, whose
        work every agent replays, has no agent to report it."""
        counts = {
            f"local:{party}": tuple(vars(engine.work).values())
            for party, engine in self.local_backends.items()
            if party in self.local_parties or party not in self.parties
        }
        if self.mpc_backend is not None:
            counts["mpc"] = (int(self._mpc_started), *self.mpc_backend.meter.counts().values())
        return counts

    def isolation_audit(self) -> dict:
        """Debug hook: which parties' secret state this executor materialises.

        Used by the cryptographic-isolation tests to assert that a party
        agent holds only its own share slices and only its own cleartext
        inputs.  ``share_parties`` lists the parties whose additive share
        slices the MPC engine holds; ``cleartext_input_parties`` lists the
        parties whose raw input tables are present in this process;
        ``revealed_columns`` lists the ``(relation, columns)`` of each column
        reveal whose values this process received.
        """
        mpc = self.mpc_backend
        return {
            "local_parties": sorted(self.local_parties),
            "share_parties": list(mpc.engine.held_share_parties) if mpc is not None else [],
            "cleartext_input_parties": sorted(
                p for p, tables in self.inputs.items() if tables
            ),
            "revealed_columns": list(self.leakage.received),
        }

    def _mpc_profile(self) -> dict[str, int]:
        """JSON-friendly counters of the joint MPC work (for differential
        testing and the transport benchmark)."""
        backend = self.mpc_backend
        if backend is None:
            return {}
        return {"backend": backend.name, **backend.meter.counts()}


def _row_count(payload, sender: str, relation: str) -> int:
    """The row count ``sender`` sent for ``relation``: one non-negative int64."""
    if not (
        isinstance(payload, np.ndarray) and payload.dtype == np.int64
        and payload.shape == (1,) and payload[0] >= 0
    ):
        raise TransportError(
            f"{sender!r} sent {relation!r} as something other than its row count; "
            "the party processes have diverged"
        )
    return int(payload[0])


def _table_received(schema: Schema, payload, sender: str, relation: str) -> Table:
    """``relation`` rebuilt with the plan's ``schema`` from the columns
    ``sender`` sent: a tuple of one array per column, of its type and of
    one common length."""
    if not (
        type(payload) is tuple and len(payload) == len(schema)
        and all(
            isinstance(arr, np.ndarray) and arr.ndim == 1 and arr.dtype == Table._dtype(col)
            for col, arr in zip(schema, payload)
        )
        and len({arr.size for arr in payload}) <= 1
    ):
        raise TransportError(
            f"{sender!r} sent {relation!r} as something other than its columns "
            f"{[(col.name, col.ctype.value) for col in schema]}; "
            "the party processes have diverged"
        )
    return Table(schema, payload)


def apply_operator(engine, node: OpNode, handles: list, stp_for, leakage: LeakageReport):
    """Run ``node`` on ``engine`` over its parents' ``handles``.

    The one dispatch from plan operators to engine calls: the executor runs
    it on a party's cleartext engine or on the MPC backend.  ``stp_for(party)``
    is the selectively-trusted party of a hybrid operator; ``leakage``
    records what a hybrid operator discloses.
    """
    _validate_key_range(engine, node, handles[0] if handles else None)
    if isinstance(node, HybridJoin):
        return hybrid_join(
            engine, stp_for(node.stp), *handles, node.left_on, node.right_on, leakage
        )
    if isinstance(node, PublicJoin):
        return public_join(
            engine, stp_for(node.host), *handles, node.left_on, node.right_on, leakage
        )
    if isinstance(node, HybridAggregate):
        return hybrid_aggregate(
            engine, stp_for(node.stp), handles[0], node.group_col, node.outputs, leakage
        )
    if isinstance(node, Concat):
        return engine.concat(handles)
    if isinstance(node, Project):
        return engine.project(handles[0], node.columns)
    if isinstance(node, Filter):
        return engine.filter(handles[0], node.column, node.op, node.value)
    if isinstance(node, Aggregate):
        return engine.aggregate(
            handles[0], node.group_col, node.outputs, node.presorted, leakage
        )
    if isinstance(node, Map):
        return engine.arith(handles[0], node.out_name, node.left, node.op, node.right)
    if isinstance(node, Compare):
        return engine.compare(handles[0], node.out_name, node.left, node.op, node.right)
    if isinstance(node, BoolOp):
        return engine.bool_op(handles[0], node.out_name, node.op, node.operands)
    if isinstance(node, Join):
        return engine.join(handles[0], handles[1], node.left_on, node.right_on)
    if isinstance(node, Merge):
        return engine.merge_sorted(handles, node.column, ascending=node.ascending)
    if isinstance(node, SortBy):
        return engine.sort_by(handles[0], node.column, ascending=node.ascending)
    if isinstance(node, Distinct):
        return engine.distinct(handles[0], node.columns, leakage)
    if isinstance(node, Limit):
        return engine.limit(handles[0], node.n)
    raise TypeError(f"unsupported operator {type(node).__name__}")


def _validate_key_range(engine, node: OpNode, handle) -> None:
    """Reject out-of-range composite-key values at execution time.

    The composite-key encoding (``key * base + next_key``) is only
    collision-free for key values in ``[0, key_base)``; anything outside
    that range would silently match unequal keys.  The frontend marks
    the first operator of every encode chain with ``key_range_check``;
    here the executor inspects the actual key data of all its columns in
    one step — the MPC backend sends them to the last compute party, like
    the ideal comparison functionalities, which hands back only each one's
    first value out of range — and fails loudly, naming the first
    offending column in key order.
    """
    check = node.key_range_check
    if not check or handle is None:
        return
    columns, base = check
    bad = engine.key_outside(handle, list(columns), base)
    if bad is not None:
        name, value = bad
        raise ValueError(
            f"composite-key column {name!r} contains value {value} outside "
            f"[0, {base}); the composite-key encoding would silently mis-encode "
            f"it — pass key_base= sized to the key domain"
        )
