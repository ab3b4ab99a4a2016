"""Node-by-node execution of a compiled plan, shared by every runtime.

The paper's deployment model (§4.1) runs one agent per data-owning party.
This module holds the execution logic both runtimes share:

* the in-process :class:`~repro.core.dispatch.QueryRunner` instantiates one
  :class:`PlanExecutor` that embodies *every* party (``local_parties`` = all
  parties, no mesh) — the original simulated behaviour;
* the distributed runtime runs one :class:`PlanExecutor` per party process
  (``local_parties`` = that party, plus the query's
  :class:`~repro.runtime.mesh.MeshChannel`).
  Cleartext sub-plans execute only at the party that owns them; relations
  that cross party boundaries are shipped over the mesh; and *every* agent
  participates in the MPC sub-plans, executing the joint protocol in
  lockstep from the shared seed so that each agent's share traffic really
  flows through its sockets (see :mod:`repro.runtime.transport`).

Leakage accounting is split in two reports so the distributed runtime can
deduplicate events that every agent observes: ``leakage`` holds events only
one agent records (cleartext transfers it received, outputs it collected),
``joint_leakage`` holds events of the replicated joint computation (MPC
reveals, hybrid-protocol disclosures).  In-process both names refer to the
same report, preserving the original single-report behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import CompilationConfig
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Divide,
    Filter,
    HybridAggregate,
    HybridJoin,
    Join,
    Limit,
    Map,
    Merge,
    Multiply,
    OpNode,
    Project,
    PublicJoin,
    SortBy,
)
from repro.data.schema import PUBLIC
from repro.data.table import Table
from repro.model.prices import CLEARTEXT_COST_MODELS
from repro.exec.engine import ColumnarBackend
from repro.hybrid.hybrid_agg import hybrid_aggregate
from repro.hybrid.hybrid_join import hybrid_join
from repro.hybrid.public_join import public_join
from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.mpc.network import Network
from repro.mpc.sharemind import SharemindBackend
from repro.runtime.transport import SocketTransport


class SecurityError(RuntimeError):
    """Raised when an execution step would reveal data to an unauthorised party."""


@dataclass
class _Entry:
    """A relation handle plus where it currently lives.

    ``handle`` is ``None`` when the relation lives at a party this executor
    does not embody (distributed runtime only).
    """

    kind: str  # "local" or "mpc"
    party: str | None
    handle: object


@dataclass
class ExecutionOutcome:
    """What one executor (process) produced while running a plan."""

    outputs: dict[str, Table]
    node_durations: dict[int, float]
    wall_seconds: float
    leakage: LeakageReport
    joint_leakage: LeakageReport
    backend_seconds: dict[str, float]
    mpc_profile: dict[str, int]


class PlanExecutor:
    """Executes compiled queries over in-memory party inputs.

    ``local_parties`` selects which parties this executor embodies; with the
    default (all of them, no mesh) it behaves exactly like the original
    in-process dispatcher.

    Cleartext sub-plans run on one engine per party and MPC sub-plans on
    the secret-sharing backend; ``config.cleartext_backend`` only picks the
    price list the engines' work tallies are converted to seconds with.
    """

    #: The cleartext engine class — the one seam, so the differential tests
    #: can run a plan on the row-at-a-time oracle (``tests/oracle_engine.py``).
    cleartext_engine = ColumnarBackend

    def __init__(
        self,
        parties: list[str],
        inputs: dict[str, dict[str, Table]],
        config: CompilationConfig | None = None,
        seed: int = 0,
        *,
        local_parties: set[str] | None = None,
        mesh=None,
    ):
        self.parties = list(parties)
        self.inputs = inputs
        self.config = config or CompilationConfig()
        self.config.require_executable()
        self.cleartext_prices = CLEARTEXT_COST_MODELS[self.config.cleartext_backend]()
        self.seed = seed
        self.mesh = mesh
        self.local_parties = set(local_parties) if local_parties is not None else set(self.parties)
        if mesh is None and self.local_parties != set(self.parties):
            raise ValueError("embodying a subset of parties requires a peer mesh")
        self.local_backends = {
            p: self.cleartext_engine() for p in self.parties if p in self.local_parties
        }
        # A single-party query never crosses the MPC boundary; the MPC
        # substrate requires at least two computing parties.
        self.mpc_backend = self._make_mpc_backend() if len(self.parties) >= 2 else None
        self._reset_leakage()

    def _reset_leakage(self) -> None:
        """Fresh reports per execution, so a reused runner never accumulates
        or cross-contaminates leakage between runs."""
        self.leakage = LeakageReport()
        # In-process, joint events go straight into the same report (same
        # object, same interleaved ordering as before the runtime split).
        self.joint_leakage = self.leakage if self.mesh is None else LeakageReport()

    # -- backend construction -------------------------------------------------------------

    def _make_mpc_backend(self) -> SharemindBackend:
        compute = self.parties[: SharemindBackend.MAX_PARTIES]
        network = None
        local_parties = None
        if self.mesh is not None:
            network = Network(compute, transport=SocketTransport(compute, self.mesh))
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
        compiled.config.require_executable()
        self._reset_leakage()
        dag = compiled.dag
        env: dict[str, _Entry] = {}
        outputs: dict[str, Table] = {}
        durations: dict[int, float] = {}
        all_parties = set(self.parties) | dag.parties()

        wall_start = time.perf_counter()
        try:
            for node in dag.topological():
                before = self._engine_seconds()
                entry = self._execute_node(node, env, outputs, all_parties)
                env[node.out_rel.name] = entry
                durations[node.node_id] = self._engine_seconds() - before
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
            node_durations=durations,
            wall_seconds=wall_seconds,
            leakage=self.leakage,
            joint_leakage=self.joint_leakage,
            backend_seconds=self._backend_breakdown(),
            mpc_profile=self._mpc_profile(),
        )

    # -- node execution ----------------------------------------------------------------------

    def _execute_node(
        self,
        node: OpNode,
        env: dict[str, _Entry],
        outputs: dict[str, Table],
        all_parties: set[str],
    ) -> _Entry:
        if isinstance(node, Create):
            return self._execute_create(node)
        if isinstance(node, Collect):
            return self._execute_collect(node, env, outputs, all_parties)
        if node.is_mpc:
            return self._execute_mpc_node(node, env, all_parties)
        return self._execute_local_node(node, env, all_parties)

    def _execute_create(self, node: Create) -> _Entry:
        owner = node.out_rel.owner
        if owner is None:
            raise ValueError(f"input relation {node.out_rel.name!r} has no owner")
        if owner not in self.local_parties:
            return _Entry("local", owner, None)
        try:
            table = self.inputs[owner][node.out_rel.name]
        except KeyError as exc:
            raise KeyError(
                f"party {owner!r} has no input relation {node.out_rel.name!r}; "
                f"available: {sorted(self.inputs.get(owner, {}))}"
            ) from exc
        handle = self.local_backends[owner].ingest(table, contributor=owner)
        return _Entry("local", owner, handle)

    def _execute_collect(
        self,
        node: Collect,
        env: dict[str, _Entry],
        outputs: dict[str, Table],
        all_parties: set[str],
    ) -> _Entry:
        parent = node.parents[0]
        entry = env[parent.out_rel.name]
        if entry.kind == "mpc":
            table = self.mpc_backend.reveal(entry.handle)
            self.joint_leakage.record(
                "output", node.out_rel.name, node.out_rel.schema.names, node.recipients,
                detail=f"{table.num_rows} rows revealed as query output",
            )
            outputs[node.out_rel.name] = table
            return _Entry("local", node.recipients[0], table)
        if entry.party not in self.local_parties:
            return _Entry("local", node.recipients[0], None)
        table = self.local_backends[entry.party].collect(entry.handle)
        if entry.party not in node.recipients:
            self.leakage.record(
                "cleartext_transfer", node.out_rel.name, node.out_rel.schema.names,
                node.recipients, detail=f"sent from {entry.party}",
            )
        outputs[node.out_rel.name] = table
        return _Entry("local", node.recipients[0], table)

    def _execute_local_node(
        self,
        node: OpNode,
        env: dict[str, _Entry],
        all_parties: set[str],
    ) -> _Entry:
        party = node.run_at or node.out_rel.owner
        if party is None:
            raise ValueError(f"cleartext operator {node!r} has no executing party")
        if party not in self.local_parties:
            self._assist_remote_local(node, party, env, all_parties)
            return _Entry("local", party, None)
        engine = self.local_backends[party]
        handles = [
            self._as_local_handle(parent, node, party, env, all_parties)
            for parent in node.parents
        ]
        result = self._apply_operator(engine, node, handles)
        return _Entry("local", party, result)

    def _assist_remote_local(
        self,
        node: OpNode,
        party: str,
        env: dict[str, _Entry],
        all_parties: set[str],
    ) -> None:
        """Play this executor's part in a node another party executes.

        If one of my parties holds a parent relation, authorise and ship it;
        if a parent is MPC-resident, participate in the joint reveal round.
        """
        for parent in node.parents:
            entry = env[parent.out_rel.name]
            if entry.kind == "local":
                if entry.party == party or entry.party not in self.local_parties:
                    continue
                if not self._authorized(parent, node, party, all_parties):
                    raise SecurityError(
                        f"plan would transfer relation {parent.out_rel.name!r} from "
                        f"{entry.party} to unauthorised party {party}"
                    )
                table = self.local_backends[entry.party].collect(entry.handle)
                self.mesh.send_table(party, parent.out_rel.name, table)
            else:
                if not self._authorized(parent, node, party, all_parties):
                    raise SecurityError(
                        f"plan would reveal MPC relation {parent.out_rel.name!r} to "
                        f"unauthorised party {party}"
                    )
                table = self.mpc_backend.reveal_to(entry.handle, party)
                # A slice engine returns the cleartext only at the target
                # party; this agent just shipped its shares.  The row count
                # is public metadata either way.
                rows = table.num_rows if table is not None else entry.handle.num_rows
                self.joint_leakage.record(
                    "column_reveal", parent.out_rel.name, parent.out_rel.schema.names,
                    [party],
                    detail=f"{rows} rows revealed for cleartext post-processing",
                )

    def _execute_mpc_node(
        self,
        node: OpNode,
        env: dict[str, _Entry],
        all_parties: set[str],
    ) -> _Entry:
        handles = [self._as_mpc_handle(parent, env) for parent in node.parents]

        if isinstance(node, HybridJoin):
            stp = self._stp_for(node.stp)
            result = hybrid_join(
                self.mpc_backend, stp, handles[0], handles[1],
                node.left_on, node.right_on, self.joint_leakage,
            )
            return _Entry("mpc", None, result)
        if isinstance(node, PublicJoin):
            host = self._stp_for(node.host)
            result = public_join(
                self.mpc_backend, host, handles[0], handles[1],
                node.left_on, node.right_on, self.joint_leakage,
            )
            return _Entry("mpc", None, result)
        if isinstance(node, HybridAggregate):
            stp = self._stp_for(node.stp)
            result = hybrid_aggregate(
                self.mpc_backend, stp, handles[0],
                node.group_col, node.agg_col, node.func, node.out_name, self.joint_leakage,
            )
            return _Entry("mpc", None, result)

        result = self._apply_operator(self.mpc_backend, node, handles)
        return _Entry("mpc", None, result)

    # -- operator application ----------------------------------------------------------------------

    def _apply_operator(self, engine, node: OpNode, handles: list):
        self._validate_key_range(engine, node, handles[0] if handles else None)
        if isinstance(node, Concat):
            return engine.concat(handles)
        if isinstance(node, Project):
            return engine.project(handles[0], node.columns)
        if isinstance(node, Filter):
            return engine.filter(handles[0], node.column, node.op, node.value)
        if isinstance(node, Aggregate):
            return engine.aggregate(
                handles[0], node.group_col, node.agg_col, node.func, node.out_name,
                presorted=node.presorted,
            )
        if isinstance(node, Multiply):
            return engine.multiply(handles[0], node.out_name, node.left, node.right)
        if isinstance(node, Divide):
            return engine.divide(handles[0], node.out_name, node.left, node.right)
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
            return engine.distinct(handles[0], node.columns)
        if isinstance(node, Limit):
            return engine.limit(handles[0], node.n)
        raise TypeError(f"unsupported operator {type(node).__name__}")

    # -- composite-key range enforcement -----------------------------------------------------------

    @staticmethod
    def _validate_key_range(engine, node: OpNode, handle) -> None:
        """Reject out-of-range composite-key values at execution time.

        The composite-key encoding (``key * base + next_key``) is only
        collision-free for key values in ``[0, key_base)``; anything outside
        that range would silently match unequal keys.  The frontend marks
        the first operator of every encode chain with ``key_range_check``;
        here the executor inspects the actual key data — the MPC backend
        opens it to the environment, exactly like the ideal comparison
        functionalities do, in lockstep at every agent — and fails loudly
        instead.
        """
        check = getattr(node, "key_range_check", None)
        if not check or handle is None:
            return
        columns, base = check
        for name in columns:
            values = engine.key_values(handle, name)
            if values.size == 0:
                continue
            out_of_range = (values < 0) | (values >= base)
            if out_of_range.any():
                bad = values[out_of_range][0]
                raise ValueError(
                    f"composite-key column {name!r} contains value {int(bad)} outside "
                    f"[0, {base}); the composite-key encoding would silently mis-encode "
                    f"it — pass key_base= sized to the key domain"
                )

    # -- handle conversion across the MPC boundary ----------------------------------------------------

    def _as_mpc_handle(self, parent: OpNode, env: dict[str, _Entry]):
        if self.mpc_backend is None:
            raise ValueError(
                "plan contains MPC operators but the runner has a single party; "
                "MPC needs at least two computing parties"
            )
        entry = env[parent.out_rel.name]
        if entry.kind == "mpc":
            return entry.handle
        # Over a real mesh the MPC ingests by share distribution: the
        # contributor broadcasts only public metadata (schema, row count)
        # and every other agent receives its share slices off the wire
        # inside the input rounds — the cleartext never leaves the
        # contributing process.
        if entry.party not in self.local_parties:
            meta = self.mesh.receive_table(entry.party, parent.out_rel.name)
            return self.mpc_backend.ingest_remote(
                meta["schema"], meta["num_rows"], contributor=entry.party
            )
        table = self.local_backends[entry.party].collect(entry.handle)
        if self.mesh is not None:
            self.mesh.broadcast_table(
                parent.out_rel.name, {"schema": table.schema, "num_rows": table.num_rows}
            )
        return self.mpc_backend.ingest(table, contributor=entry.party)

    def _as_local_handle(
        self,
        parent: OpNode,
        consumer: OpNode,
        party: str,
        env: dict[str, _Entry],
        all_parties: set[str],
    ):
        entry = env[parent.out_rel.name]
        engine = self.local_backends[party]
        if entry.kind == "local":
            if entry.party == party:
                return entry.handle
            if not self._authorized(parent, consumer, party, all_parties):
                raise SecurityError(
                    f"plan would transfer relation {parent.out_rel.name!r} from "
                    f"{entry.party} to unauthorised party {party}"
                )
            if entry.party in self.local_parties:
                table = self.local_backends[entry.party].collect(entry.handle)
            else:
                table = self.mesh.receive_table(entry.party, parent.out_rel.name)
            self.leakage.record(
                "cleartext_transfer", parent.out_rel.name, parent.out_rel.schema.names,
                [party], detail=f"sent from {entry.party}",
            )
            return engine.ingest(table, contributor=entry.party)
        # MPC-resident relation revealed to a single party.
        if not self._authorized(parent, consumer, party, all_parties):
            raise SecurityError(
                f"plan would reveal MPC relation {parent.out_rel.name!r} to "
                f"unauthorised party {party}"
            )
        table = self.mpc_backend.reveal_to(entry.handle, party)
        self.joint_leakage.record(
            "column_reveal", parent.out_rel.name, parent.out_rel.schema.names, [party],
            detail=f"{table.num_rows} rows revealed for cleartext post-processing",
        )
        return engine.ingest(table, contributor=party)

    def _authorized(
        self, parent: OpNode, consumer: OpNode, party: str, all_parties: set[str]
    ) -> bool:
        """Check that revealing ``parent``'s relation to ``party`` is allowed."""
        rel = parent.out_rel
        if rel.owner == party:
            return True
        if isinstance(consumer, Collect) and party in consumer.recipients:
            return True
        if consumer.run_at == party and getattr(consumer, "lifted", False):
            # Push-up lifted a reversible operator to the output recipient:
            # its input is derivable from the output the recipient receives.
            return True
        trust_ok = all(
            party in rel.column_trust(col) or PUBLIC in rel.column_trust(col)
            for col in rel.schema.names
        )
        return trust_ok

    # -- helpers ------------------------------------------------------------------------------------------

    def _stp_for(self, party: str) -> SelectivelyTrustedParty:
        if party not in self.local_backends:
            # The STP's cleartext work is part of the joint computation: in
            # the distributed runtime every agent keeps a deterministic
            # replica of the STP engine so the hybrid protocols stay in
            # lockstep (and the simulated clock charges the same work).
            self.local_backends[party] = self.cleartext_engine()
        return SelectivelyTrustedParty(party, self.local_backends[party])

    def _engine_seconds(self) -> float:
        return sum(self._backend_breakdown().values())

    def _backend_breakdown(self) -> dict[str, float]:
        """Simulated seconds per engine: each party's work tally priced with
        the configured cleartext price list, plus the MPC backend's meter.

        A distributed agent keeps deterministic *replicas* of other parties'
        STP engines to stay in lockstep, but only the work of the parties it
        embodies counts towards its clock — the replicated work is reported
        by the party that really owns it, and the coordinator's per-node
        max-merge reconstructs the joint durations.
        """
        breakdown = {
            f"local:{party}": self.cleartext_prices.seconds(engine.work)
            for party, engine in self.local_backends.items()
            if self.mesh is None or party in self.local_parties
        }
        if self.mpc_backend is not None:
            breakdown[f"mpc:{self.mpc_backend.name}"] = self.mpc_backend.elapsed_seconds()
        return breakdown

    def isolation_audit(self) -> dict:
        """Debug hook: which parties' secret state this executor materialises.

        Used by the cryptographic-isolation tests to assert that a party
        agent holds only its own share slices and only its own cleartext
        inputs.  ``share_parties`` lists the parties whose additive share
        slices the MPC engine holds; ``cleartext_input_parties`` lists the
        parties whose raw input tables are present in this process.
        """
        mpc = self.mpc_backend
        return {
            "local_parties": sorted(self.local_parties),
            "share_parties": list(mpc.engine.held_share_parties) if mpc is not None else [],
            "cleartext_input_parties": sorted(
                p for p, tables in self.inputs.items() if tables
            ),
        }

    def _mpc_profile(self) -> dict[str, int]:
        """JSON-friendly counters of the joint MPC work (for differential
        testing and the transport benchmark)."""
        backend = self.mpc_backend
        if backend is None:
            return {}
        return {"backend": backend.name, **backend.meter.counts()}
