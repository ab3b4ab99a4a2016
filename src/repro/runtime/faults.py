"""Deterministic fault injection for the distributed runtime.

Robustness claims that are only exercised by real crashes are hopes, not
properties.  This module makes every failure mode of the service runtime
*reproducible*: a :class:`FaultPlan` — a wire-encodable, seeded description of
exactly which agent dies when and which mesh frames are dropped, delayed,
duplicated or torn — is shipped to each agent inside its session frame and
consulted at two choke points:

* **query intake** (:meth:`FaultInjector.on_query_intake`, called from the
  agent's serve loop): a matching :class:`KillFault` hard-exits the process
  (``os._exit``) exactly as a crashed or OOM-killed agent would — no
  cleanup, sockets torn down by the kernel;
* **mesh sends** (:meth:`FaultInjector.on_mesh_send`, called from
  :meth:`~repro.runtime.mesh.PeerMesh._send` under the per-peer send lock):
  a matching :class:`LinkFault` drops, duplicates or delays that frame, or
  tears it — writes a partial frame and hard-exits, the way a process dying
  mid-``sendall`` looks from the receiving end.

Fault triggers are **count-based**, not time-based: the Nth query intake of
a process, the Nth frame sent on a link.  With a sequential query stream
(the chaos tests' mode) both counters are fully deterministic, so a seeded
plan replays the identical failure every run.  Counters are per *process
lifetime*, and a restart brings every agent up again: each new agent
receives its per-party plan afresh with fresh counters — the dead party's
and every other party's alike.  So a ``KillFault(at_query=1)`` kills the
restarted agent too, which is exactly how the restart-budget escalation
path is exercised, and any other party's pending fault counts again from
the restart.

The module is dependency-free (dataclasses + stdlib) so shipping a plan in
a session frame stays cheap and the plan itself can never fail to encode.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass

#: Actions a :class:`LinkFault` may take on a mesh frame.
LINK_ACTIONS = ("drop", "dup", "delay", "torn")

#: Exit code used by injected kills, distinct from real crashes in core
#: dumps and test logs.
KILL_EXIT_CODE = 23


@dataclass(frozen=True)
class KillFault:
    """Hard-exit ``party``'s process at its ``at_query``-th query intake.

    ``at_query`` counts query frames *dequeued from the control link* by one
    process (1-based) — with sequential submission this is the submission
    order, retries included.  With ``after_mesh_frames == 0`` the process
    dies before executing the query at all (a crash between queries); with
    ``k > 0`` it dies just before its ``(k+1)``-th mesh send for that query
    (a crash mid-protocol, with peers blocked on the dead exchange).
    """

    party: str
    at_query: int
    after_mesh_frames: int = 0

    def validate(self) -> "KillFault":
        if not isinstance(self.at_query, int) or self.at_query < 1:
            raise ValueError(f"KillFault.at_query must be an int >= 1, got {self.at_query!r}")
        if not isinstance(self.after_mesh_frames, int) or self.after_mesh_frames < 0:
            raise ValueError(
                f"KillFault.after_mesh_frames must be an int >= 0, got {self.after_mesh_frames!r}"
            )
        return self


@dataclass(frozen=True)
class LinkFault:
    """Inject one fault into ``party``'s outgoing mesh frames.

    ``nth_frame`` is the 1-based count of frames this process has sent to
    ``peer`` (any peer when ``peer`` is ``None``); ``nth_frame == 0`` means
    *every* frame, which is only meaningful for ``action="delay"`` (a slow
    link).  Actions:

    * ``drop``  — the frame is silently never sent; the peer's consumer
      starves and surfaces a :class:`~repro.runtime.mesh.MeshTimeout`;
    * ``dup``   — the frame is sent twice; the mesh's per-link sequence
      numbers discard the duplicate at the receiver, so a dup is *harmless*
      (asserted byte-identical in the chaos tests);
    * ``delay`` — the send is stalled by ``delay_seconds`` first;
    * ``torn``  — a partial frame is written and the process hard-exits:
      the receiver sees a stream dying mid-frame (``WireError``), the
      supervisor sees a dead agent.  On a TLS session the partial frame is
      written *through* the secured socket (the tear happens above TLS, in
      framing bytes), so the receiver still observes a record-aligned
      stream that dies inside a frame — the same mid-frame ``WireError``,
      not a TLS-level corruption; frames too small to tear (header plus
      fewer than two payload bytes) raise instead of silently sending a
      clean prefix, so the fault matrix always exercises the mid-frame
      path it promises.
    """

    party: str
    action: str
    nth_frame: int
    peer: str | None = None
    delay_seconds: float = 0.0

    def validate(self) -> "LinkFault":
        if self.action not in LINK_ACTIONS:
            raise ValueError(f"LinkFault.action must be one of {LINK_ACTIONS}, got {self.action!r}")
        if not isinstance(self.nth_frame, int) or self.nth_frame < 0:
            raise ValueError(f"LinkFault.nth_frame must be an int >= 0, got {self.nth_frame!r}")
        if self.nth_frame == 0 and self.action != "delay":
            raise ValueError(
                f"LinkFault.nth_frame == 0 (every frame) is only valid for action='delay', "
                f"got {self.action!r}"
            )
        if not isinstance(self.delay_seconds, (int, float)) or self.delay_seconds < 0:
            raise ValueError(
                f"LinkFault.delay_seconds must be a number >= 0, got {self.delay_seconds!r}"
            )
        if self.action == "delay" and self.delay_seconds == 0:
            raise ValueError("LinkFault(action='delay') needs delay_seconds > 0")
        return self


@dataclass(frozen=True)
class FaultPlan:
    """A complete, wire-encodable fault schedule for one session.

    Build one explicitly for targeted tests, or with :meth:`seeded` for the
    chaos matrix.  :meth:`for_party` extracts the subset one agent needs —
    the coordinator ships only that subset in each agent's session frame.
    """

    kills: tuple[KillFault, ...] = ()
    links: tuple[LinkFault, ...] = ()

    def validate(self) -> "FaultPlan":
        for fault in self.kills:
            fault.validate()
        for fault in self.links:
            fault.validate()
        return self

    def __bool__(self) -> bool:
        return bool(self.kills or self.links)

    def for_party(self, party: str) -> "FaultPlan | None":
        """The faults affecting ``party``'s process; ``None`` when none do."""
        kills = tuple(f for f in self.kills if f.party == party)
        links = tuple(f for f in self.links if f.party == party)
        if not kills and not links:
            return None
        return FaultPlan(kills=kills, links=links)

    @staticmethod
    def seeded(
        seed: int,
        parties: list[str],
        queries: int,
        *,
        kills: int = 1,
        link_faults: int = 2,
        actions: tuple[str, ...] = ("drop", "dup", "delay"),
        delay_seconds: float = 0.2,
    ) -> "FaultPlan":
        """A reproducible random plan over a sequential ``queries``-long stream.

        Kills land at distinct query indices (so two agents never die on the
        same query, keeping recovery attributable); link faults pick random
        senders and early frame counts so they hit real protocol traffic.
        ``torn`` is excluded by default because it implies a process death
        on top of the frame corruption — include it explicitly via
        ``actions`` when the restart path should absorb it.
        """
        rng = random.Random(seed)
        order = sorted(parties)
        kill_queries = rng.sample(range(2, max(3, queries + 1)), k=min(kills, max(1, queries - 1)))
        kill_faults = tuple(
            KillFault(
                party=rng.choice(order),
                at_query=q,
                after_mesh_frames=rng.choice([0, 0, 1, 3]),
            )
            for q in sorted(kill_queries)
        )
        link = []
        for _ in range(link_faults):
            action = rng.choice(list(actions))
            link.append(LinkFault(
                party=rng.choice(order),
                action=action,
                nth_frame=rng.randint(1, 40),
                peer=None,
                delay_seconds=delay_seconds if action == "delay" else 0.0,
            ))
        return FaultPlan(kills=kill_faults, links=tuple(link)).validate()


@dataclass
class _ArmedKill:
    """A kill waiting for its mesh-frame trigger inside one query."""

    query_id: int
    remaining_frames: int


class FaultInjector:
    """Agent-side interpreter of one party's :class:`FaultPlan` subset.

    Lives inside the agent process; all counters are per process lifetime.
    Thread-safe: query intake happens on the serve loop, mesh sends on
    worker threads.
    """

    def __init__(self, plan: FaultPlan, party: str):
        self.party = party
        self._kills = sorted(
            (f for f in plan.kills if f.party == party), key=lambda f: f.at_query
        )
        self._links = [f for f in plan.links if f.party == party]
        self._lock = threading.Lock()
        self._queries_started = 0
        self._frames_sent: dict[str, int] = {}
        self._armed: _ArmedKill | None = None

    # -- triggers ----------------------------------------------------------------------

    def on_query_intake(self, query_id: int) -> None:
        """Called by the serve loop for every query frame it dequeues."""
        with self._lock:
            self._queries_started += 1
            count = self._queries_started
            for fault in self._kills:
                if fault.at_query == count:
                    if fault.after_mesh_frames == 0:
                        self._die()
                    self._armed = _ArmedKill(query_id, fault.after_mesh_frames)
                    break

    def on_mesh_send(self, peer: str, query_id: int) -> LinkFault | None:
        """Called under the per-peer send lock before a frame is written.

        May never return (an armed kill fires here); otherwise returns the
        :class:`LinkFault` to apply to this frame, or ``None``.
        """
        with self._lock:
            armed = self._armed
            if armed is not None and armed.query_id == query_id:
                if armed.remaining_frames <= 0:
                    self._die()
                armed.remaining_frames -= 1
            count = self._frames_sent.get(peer, 0) + 1
            self._frames_sent[peer] = count
            for fault in self._links:
                if fault.peer is not None and fault.peer != peer:
                    continue
                if fault.nth_frame == 0 or fault.nth_frame == count:
                    return fault
        return None

    def apply_delay(self, fault: LinkFault) -> None:
        """Stall the calling sender (outside the injector lock)."""
        if fault.delay_seconds > 0:
            time.sleep(fault.delay_seconds)

    def die(self) -> None:
        """Exit exactly as a crashed process would: immediately, no cleanup.

        Public for the mesh's ``torn`` handling, which must write the
        partial frame first and only then kill the process.
        """
        self._die()

    def _die(self) -> None:
        os._exit(KILL_EXIT_CODE)
