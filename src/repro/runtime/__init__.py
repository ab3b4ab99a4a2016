"""Distributed party-agent runtime (§4.1 deployment model).

The paper's prototype runs one Conclave *agent* per data-owning party; the
agents execute their local operators against the party's cleartext engine
and meet in joint MPC steps over real datacentre links.  This package grows
the reproduction from a purely in-process simulation to that deployment
shape:

* :mod:`repro.runtime.wire` / :mod:`repro.runtime.mesh` — length-prefixed
  framing (the codec on control links, the closed mesh layout between
  agents) and the full TCP mesh connecting the party agents; a
  per-query :class:`~repro.runtime.mesh.MeshChannel` is the channel an
  agent's :class:`~repro.mpc.network.Network` carries every round on — the
  MPC's, and each relation crossing between parties as its row count or
  its columns, whose schema every agent reads from the plan.  Every
  agent-to-agent frame is such a round's message, or an abort.  The
  :class:`~repro.model.counters.NetworkStats` accounting is identical with
  and without a channel.
* :mod:`repro.runtime.executor` — the node-by-node plan executor shared by
  the in-process :class:`~repro.core.dispatch.QueryRunner` and the
  per-party agents.
* :mod:`repro.runtime.queues` — executors joined by in-memory queues
  instead of sockets: one per party, each holding only its own inputs, in
  one process (tests and ``benchmarks/party_cpu.py``).
* :mod:`repro.runtime.agent` / :mod:`repro.runtime.pool` — the long-lived
  per-party agent process, and the :class:`AgentPool` that forks one per
  party, accepts their control links as an agent accepts a peer (the
  mesh's one handshake), tells each agent whom to dial and
  whom to accept as it joins the mesh, routes result frames into per-query
  futures and restarts a crashed agent through the same bring-up code.
* :mod:`repro.runtime.service` — the persistent query service and the one
  driver of the agents: a :class:`QuerySession` keeps a pool and its TCP
  mesh alive across a *stream* of queries (query-id multiplexing,
  per-session compiled-plan caching, concurrent submission, drain-on-close,
  idle timeout and crash detection), ships each party its plans and input
  tables, and merges the authorised reveals.  :func:`open_session` is the
  public entry point; :class:`SocketCoordinator` is the one-shot form (a
  session that lives for one query) behind ``runtime="sockets"``.

Every module is imported lazily, so importing the package does not drag
in the whole execution stack; :class:`TransportError` lives with the round
it fails, in :mod:`repro.mpc.network`, and is re-exported here.
"""

from __future__ import annotations

#: Lazily resolved export -> the module that defines it.
_LAZY = {
    "TransportError": "repro.mpc.network",
    "PlanExecutor": "repro.runtime.executor",
    "PartyAgent": "repro.runtime.agent",
    "AgentPool": "repro.runtime.pool",
    "AgentFailure": "repro.runtime.pool",
    "AgentCrashed": "repro.runtime.pool",
    "SessionClosed": "repro.runtime.pool",
    "QuerySession": "repro.runtime.service",
    "SocketCoordinator": "repro.runtime.service",
    "open_session": "repro.runtime.service",
    "active_sessions": "repro.runtime.service",
    "QueryGateway": "repro.runtime.gateway",
    "QueryRejected": "repro.runtime.gateway",
    "GatewayMetrics": "repro.runtime.metrics",
    "LatencyHistogram": "repro.runtime.metrics",
    "AgentSupervisor": "repro.runtime.supervisor",
    "FaultPlan": "repro.runtime.faults",
    "KillFault": "repro.runtime.faults",
    "LinkFault": "repro.runtime.faults",
    "FaultInjector": "repro.runtime.faults",
}

__all__ = [*_LAZY]


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
