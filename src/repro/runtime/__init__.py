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
  :class:`NetworkStats` accounting is identical on both.
* :mod:`repro.runtime.wire` / :mod:`repro.runtime.mesh` — length-prefixed
  codec framing and the full TCP mesh connecting the party agents; a
  per-query :class:`~repro.runtime.mesh.MeshChannel` is the one surface
  executors and transports send and receive through.
* :mod:`repro.runtime.executor` — the node-by-node plan executor shared by
  the in-process :class:`~repro.core.dispatch.QueryRunner` and the
  per-party agents.
* :mod:`repro.runtime.agent` / :mod:`repro.runtime.coordinator` — the
  long-lived per-party agent process and the driver that partitions the
  plan, ships each party its sub-plans and input tables, and collects the
  authorised reveals.
* :mod:`repro.runtime.service` — the persistent query service:
  :class:`QuerySession`/:class:`AgentPool` keep the agent processes and the
  TCP mesh alive across a *stream* of queries (query-id multiplexing,
  per-session compiled-plan caching, concurrent submission, drain-on-close,
  idle timeout and crash detection).  :func:`open_session` is the public
  entry point; ``runtime="service"`` on :func:`repro.core.compiler.run_query`
  reuses a shared session per party set.

Heavy modules (coordinator, agent, executor) are imported lazily so that
importing :mod:`repro.mpc.network` (which needs only the transports) does
not drag in the whole execution stack.
"""

from __future__ import annotations

from repro.runtime.transport import (
    NetworkStats,
    SimulatedTransport,
    SocketTransport,
    Transport,
    TransportError,
)

__all__ = [
    "NetworkStats",
    "SimulatedTransport",
    "SocketTransport",
    "Transport",
    "TransportError",
    "PlanExecutor",
    "PartyAgent",
    "SocketCoordinator",
    "run_query_sockets",
    "AgentPool",
    "QuerySession",
    "SessionClosed",
    "open_session",
    "active_sessions",
    "close_shared_sessions",
    "QueryGateway",
    "QueryRejected",
    "GatewayMetrics",
    "LatencyHistogram",
    "MetricsServer",
    "AgentFailure",
    "AgentCrashed",
    "AgentSupervisor",
    "FaultPlan",
    "KillFault",
    "LinkFault",
    "FaultInjector",
]

_LAZY = {
    "PlanExecutor": ("repro.runtime.executor", "PlanExecutor"),
    "PartyAgent": ("repro.runtime.agent", "PartyAgent"),
    "SocketCoordinator": ("repro.runtime.coordinator", "SocketCoordinator"),
    "run_query_sockets": ("repro.runtime.coordinator", "run_query_sockets"),
    "AgentPool": ("repro.runtime.service", "AgentPool"),
    "QuerySession": ("repro.runtime.service", "QuerySession"),
    "SessionClosed": ("repro.runtime.service", "SessionClosed"),
    "open_session": ("repro.runtime.service", "open_session"),
    "active_sessions": ("repro.runtime.service", "active_sessions"),
    "close_shared_sessions": ("repro.runtime.service", "close_shared_sessions"),
    "QueryGateway": ("repro.runtime.gateway", "QueryGateway"),
    "QueryRejected": ("repro.runtime.gateway", "QueryRejected"),
    "GatewayMetrics": ("repro.runtime.metrics", "GatewayMetrics"),
    "LatencyHistogram": ("repro.runtime.metrics", "LatencyHistogram"),
    "MetricsServer": ("repro.runtime.metrics", "MetricsServer"),
    "AgentFailure": ("repro.runtime.service", "AgentFailure"),
    "AgentCrashed": ("repro.runtime.service", "AgentCrashed"),
    "AgentSupervisor": ("repro.runtime.supervisor", "AgentSupervisor"),
    "FaultPlan": ("repro.runtime.faults", "FaultPlan"),
    "KillFault": ("repro.runtime.faults", "KillFault"),
    "LinkFault": ("repro.runtime.faults", "LinkFault"),
    "FaultInjector": ("repro.runtime.faults", "FaultInjector"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
