"""Distributed party-agent runtime (§4.1 deployment model).

The paper's prototype runs one Conclave *agent* per data-owning party; the
agents execute their local sub-plans against the party's cleartext engine
and meet in joint MPC steps over real datacentre links.  This package grows
the reproduction from a purely in-process simulation to that deployment
shape:

* :mod:`repro.runtime.transport` — the :class:`Transport` abstraction the
  party-to-party :class:`~repro.mpc.network.Network` hands each
  communication round to (one operation, ``exchange``).
  :class:`SimulatedTransport` delivers a round inside the one process that
  models every party; :class:`SocketTransport` moves every cross-party
  message over a real TCP connection between per-party OS processes.  The
  :class:`~repro.model.counters.NetworkStats` accounting is identical on
  both.
* :mod:`repro.runtime.wire` / :mod:`repro.runtime.mesh` — length-prefixed
  codec framing and the full TCP mesh connecting the party agents; a
  per-query :class:`~repro.runtime.mesh.MeshChannel` is the one surface
  executors and transports send and receive through.
* :mod:`repro.runtime.executor` — the node-by-node plan executor shared by
  the in-process :class:`~repro.core.dispatch.QueryRunner` and the
  per-party agents.
* :mod:`repro.runtime.agent` / :mod:`repro.runtime.pool` — the long-lived
  per-party agent process, and the :class:`AgentPool` that spawns one per
  party, admits their control links, brokers the mesh handshake once,
  routes result frames into per-query futures and restarts a crashed agent
  through the same bring-up code.
* :mod:`repro.runtime.service` — the persistent query service and the one
  driver of the agents: a :class:`QuerySession` keeps a pool and its TCP
  mesh alive across a *stream* of queries (query-id multiplexing,
  per-session compiled-plan caching, concurrent submission, drain-on-close,
  idle timeout and crash detection), ships each party its plans and input
  tables, and merges the authorised reveals.  :func:`open_session` is the
  public entry point; :class:`SocketCoordinator` is the one-shot form (a
  session that lives for one query) behind ``runtime="sockets"``.

Heavy modules (service, pool, agent, executor) are imported lazily so that
importing :mod:`repro.mpc.network` (which needs only the transports) does
not drag in the whole execution stack.
"""

from __future__ import annotations

from repro.runtime.transport import (
    SimulatedTransport,
    SocketTransport,
    Transport,
    TransportError,
)

#: Lazily resolved export -> the module that defines it.
_LAZY = {
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
    "MetricsServer": "repro.runtime.metrics",
    "AgentSupervisor": "repro.runtime.supervisor",
    "FaultPlan": "repro.runtime.faults",
    "KillFault": "repro.runtime.faults",
    "LinkFault": "repro.runtime.faults",
    "FaultInjector": "repro.runtime.faults",
}

__all__ = [
    "SimulatedTransport",
    "SocketTransport",
    "Transport",
    "TransportError",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
