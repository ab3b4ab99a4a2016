"""Additive secret sharing over the ring Z_2^64.

This module implements the arithmetic core of a Sharemind-style
secret-sharing MPC backend:

* :class:`AdditiveSharing` — split vectors of 64-bit integers into ``n``
  additive shares and reconstruct them.
* :class:`TripleDealer` — a trusted dealer producing Beaver multiplication
  triples (the standard preprocessing model; Sharemind's protocol set plays
  the same role with resharing-based multiplication).
* :class:`SecretSharingEngine` — the party-facing engine.  An engine
  instance holds the share slices of its *local* parties only: every party's
  slice in the single-process simulation (``local_parties=None``, one engine
  plays all parties at once), exactly one slice in a party agent.  Every
  opening (``open``, ``reveal_to``, Beaver ``d``/``e`` openings, the
  environment openings of the ideal-functionality steps) reconstructs from
  the share payloads as *delivered* by the network round.  On a socket
  transport the foreign slices genuinely arrive off the wire, so a corrupted
  frame corrupts the opened result — the shares are load-bearing, not
  replicated.
* :class:`SharedVector` — a handle to a secret-shared vector of 64-bit
  values, with operator overloads for the supported arithmetic.

Comparisons and equality tests on shares are executed as *ideal
functionalities*: the engine opens the operands to the protocol environment
(one real ``env-open`` broadcast round, so the opened values depend on wire
bytes) and charges the cost meter the realistic price of the corresponding
bit-decomposition protocol (:meth:`SecretSharingEngine.charge` with the
step's :mod:`repro.model.steps` meter).  Addition and multiplication are
executed for real — shares are genuinely random, travel over the network,
and reconstruct to the correct results.  This keeps every query end-to-end
*functional* while the cost accounting stays faithful to a real deployment.

Lockstep (SPMD) execution model
-------------------------------

Every engine, whichever slices it holds, hands the *full* global message
schedule of each round to :meth:`~repro.mpc.network.Network.round`: it
passes ``None`` placeholders for payloads it does not hold, and the
transport substitutes the peer's real frame wherever the local party is the
receiver.  Because the schedule and sizes are identical everywhere,
``NetworkStats`` and the cost meter agree across all engines and across
transports.

Randomness is partitioned into streams so sliced engines stay in lockstep:

* ``engine.rng`` — the shared environment stream (permutations, public
  input sharings).  Every engine draws from it at the same points, so it
  never desynchronises.
* per-party mask streams — the masks of zero sharings and of reshares of
  env-opened values.  Party ``i``'s mask comes off stream ``i`` and the last
  party's slice is the value minus every mask, so an engine draws a stream
  only for a slice it holds (the last party's engine draws them all) and
  never materialises a peer's mask.
* ``engine.dealer`` — the trusted triple dealer, likewise replicated.
  This is a modelling trust boundary: a deployed system would produce
  triples with OT-based preprocessing so no party knows a full triple.
* per-contributor input streams — used only for *private* inputs, and only
  drawn by engines that actually hold the contributor's cleartext (the
  contributor's own agent, or the all-local simulation).  Non-contributors
  never see the cleartext or the sharing randomness; their slice is the
  frame delivered over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model import steps
from repro.model.counters import SHARE_BYTES, CostMeter
from repro.mpc.network import Network

#: Number of bits in the secret-sharing ring.
RING_BITS = 64
_U64 = np.uint64


def _to_ring(values: np.ndarray) -> np.ndarray:
    """Map signed/unsigned integers onto the ring Z_2^64 (as uint64)."""
    return np.asarray(values, dtype=np.int64).astype(_U64)


def _from_ring(values: np.ndarray) -> np.ndarray:
    """Map ring elements back to signed 64-bit integers."""
    return np.asarray(values, dtype=_U64).astype(np.int64)


class AdditiveSharing:
    """Stateless helpers for creating and reconstructing additive shares."""

    @staticmethod
    def share(values: np.ndarray, num_parties: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Split ``values`` into ``num_parties`` additive shares.

        Each share is a uniformly random vector in Z_2^64; the element-wise
        sum of all shares equals the input.
        """
        if num_parties < 2:
            raise ValueError("secret sharing requires at least two parties")
        ring_vals = _to_ring(values)
        shares = [
            rng.integers(0, 2**RING_BITS, size=ring_vals.shape, dtype=_U64)
            for _ in range(num_parties - 1)
        ]
        last = ring_vals.copy()
        for share in shares:
            last = last - share  # uint64 arithmetic wraps mod 2^64
        shares.append(last)
        return shares

    @staticmethod
    def reconstruct(shares: Sequence[np.ndarray]) -> np.ndarray:
        """Recombine additive shares into the cleartext (signed) values."""
        if not shares:
            raise ValueError("cannot reconstruct from zero shares")
        total = np.array(shares[0], dtype=_U64)  # a private copy to sum into
        for share in shares[1:]:
            total += np.asarray(share, dtype=_U64)
        return total.view(np.int64)


@dataclass
class BeaverTriple:
    """Shares of a multiplication triple ``c = a * b`` (element-wise)."""

    a_shares: list[np.ndarray]
    b_shares: list[np.ndarray]
    c_shares: list[np.ndarray]


class TripleDealer:
    """Trusted dealer producing Beaver triples for the engine.

    In a deployed Sharemind, multiplication uses a resharing protocol rather
    than dealer-generated triples; the communication pattern (one round, a
    constant number of ring elements per party per multiplication) is the
    same, which is what the cost model measures.  The dealer stream is
    replicated into every engine so lockstep executions agree — see the
    module docstring for the trust boundary this implies.
    """

    def __init__(self, num_parties: int, seed=None):
        self.num_parties = num_parties
        self._rng = np.random.default_rng(seed)

    def triples(self, count: int) -> BeaverTriple:
        """Produce ``count`` element-wise multiplication triples."""
        a = self._rng.integers(0, 2**RING_BITS, size=count, dtype=_U64)
        b = self._rng.integers(0, 2**RING_BITS, size=count, dtype=_U64)
        c = a * b  # wraps mod 2^64
        rng = self._rng
        return BeaverTriple(
            AdditiveSharing.share(_from_ring(a), self.num_parties, rng),
            AdditiveSharing.share(_from_ring(b), self.num_parties, rng),
            AdditiveSharing.share(_from_ring(c), self.num_parties, rng),
        )


class SharedVector:
    """Handle to a secret-shared vector owned by a :class:`SecretSharingEngine`.

    ``shares`` holds only the slices the owning engine's local parties hold,
    in global party order restricted to the local parties.  For an all-local
    engine that is every party's slice; for a one-party agent engine it is a
    single slice, and no other party's share material exists in the process.
    """

    def __init__(self, engine: "SecretSharingEngine", shares: list[np.ndarray]):
        self._engine = engine
        self._shares = shares

    def __len__(self) -> int:
        if not self._shares:
            return 0
        return len(self._shares[0])

    @property
    def shares(self) -> list[np.ndarray]:
        return self._shares

    # Arithmetic -------------------------------------------------------------------

    def __add__(self, other: "SharedVector | int") -> "SharedVector":
        return self._engine.add(self, other)

    def __sub__(self, other: "SharedVector | int") -> "SharedVector":
        return self._engine.sub(self, other)

    def __mul__(self, other: "SharedVector | int") -> "SharedVector":
        return self._engine.mul(self, other)

    def reveal(self) -> np.ndarray:
        """Open the vector to all parties (returns signed int64 values)."""
        return self._engine.open(self)


class SecretSharingEngine:
    """n-party additive secret-sharing engine holding per-party share slices.

    ``local_parties`` selects which parties' slices this engine instance
    materialises; the default ``None`` is all of them (the single-process
    simulation, where ``SharedVector.shares`` exposes every slice and
    :meth:`AdditiveSharing.reconstruct` applies to them directly).  Every
    engine executes the same global communication schedule (SPMD lockstep);
    payloads the engine does not hold are sent as ``None`` placeholders, and
    openings reconstruct from the payloads the transport *delivered* —
    which, on a socket transport, are the frames read off the peer
    connections.
    """

    def __init__(
        self,
        party_names: Sequence[str],
        seed: int | None = None,
        network: Network | None = None,
        local_parties: Sequence[str] | None = None,
    ):
        if len(party_names) < 2:
            raise ValueError("an MPC engine needs at least two parties")
        self.party_names = list(party_names)
        self.num_parties = len(self.party_names)
        if local_parties is None:
            local = set(self.party_names)
        else:
            local = set(local_parties)
            unknown = local - set(self.party_names)
            if unknown:
                raise ValueError(
                    f"local parties {sorted(unknown)} are not compute parties "
                    f"of this engine ({self.party_names})"
                )
        self.local_parties = local
        #: Global indices of the parties whose slices this engine holds.
        self.local_indices = [
            i for i, name in enumerate(self.party_names) if name in local
        ]
        self._local_pos = {i: pos for pos, i in enumerate(self.local_indices)}
        self.num_local_shares = len(self.local_indices)
        # Shared environment stream: drawn identically by every engine.
        self.rng = np.random.default_rng(seed)
        self.network = network or Network(self.party_names)
        # One set of traffic counters: what the network accounts is what the
        # cost model prices.
        self.meter = CostMeter(network=self.network.stats)
        self.dealer = TripleDealer(self.num_parties, seed=None if seed is None else seed + 1)
        # Per-contributor private-input streams: stream i is drawn only by
        # engines that hold party i's cleartext input (party i's own agent,
        # or the all-local simulation engine).
        self._input_rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x51, i)))
            for i in range(self.num_parties)
        ]
        # Per-party mask streams of the environment resharings: stream i is
        # party i's mask, and the last party's slice is the value minus every
        # mask.  An engine draws stream i only if it holds party i or the
        # last party, so no engine materialises a mask it has no use for.
        self._mask_rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE0, i)))
            for i in range(self.num_parties - 1)
        ]

    @property
    def held_share_parties(self) -> tuple[str, ...]:
        """Names of the parties whose share slices this engine materialises."""
        return tuple(self.party_names[i] for i in self.local_indices)

    def charge(self, step: CostMeter) -> None:
        """Charge one analytic step — a :mod:`repro.model.steps` meter: work
        and rounds of an ideal functionality that no primitive here carries."""
        self.meter.merge(step)

    # -- communication rounds -----------------------------------------------------------

    def _exchange(self, tag: str, per_party: "list[np.ndarray | tuple | None]", size_bytes: int) -> list:
        """All-to-all broadcast of one payload per party (one round).

        Returns the payload list as seen by the network's reference party:
        its own entry is the local value, every other entry is the payload
        the reference party received — off the wire when the transport is a
        real one.
        """
        sends = [
            (sender, receiver, per_party[i])
            for i, sender in enumerate(self.party_names)
            for receiver in self.party_names
            if receiver != sender
        ]
        delivered = self.network.round(tag, sends, size_bytes)
        ref = self.network.reference_party
        return [
            per_party[i] if name == ref else delivered[(name, ref)]
            for i, name in enumerate(self.party_names)
        ]

    def _per_party(self, local_payload) -> list:
        """One payload per party in global order: ``local_payload(i, pos)`` for
        party ``i`` whose slice is held here at ``pos``, None for a foreign one."""
        return [
            local_payload(i, self._local_pos[i]) if i in self._local_pos else None
            for i in range(self.num_parties)
        ]

    def _reconstruct(
        self, delivered: Sequence, step: str, component: int | None = None
    ) -> np.ndarray:
        """Sum one delivered payload per party, in global party order.

        ``component`` picks one vector out of tuple payloads (a batched
        opening).  A ``None`` payload is a slice no peer delivered.
        """
        entries = []
        for name, payload in zip(self.party_names, delivered):
            if payload is None:
                raise RuntimeError(
                    f"{step}: no share slice delivered for party {name!r} "
                    f"(engine holds {sorted(self.local_parties)})"
                )
            entries.append(payload if component is None else payload[component])
        return AdditiveSharing.reconstruct(entries)

    def _require_local(self) -> None:
        if self.num_local_shares == 0:
            raise RuntimeError(
                "this engine holds no share slices (its agent's party is not "
                "one of the MPC compute parties) and cannot run MPC primitives"
            )

    # -- share lifecycle ---------------------------------------------------------------

    def input_vector(
        self,
        values: np.ndarray | None = None,
        contributor: str | None = None,
        num_rows: int | None = None,
        public: bool = False,
    ) -> SharedVector:
        """Secret-share a cleartext vector into the MPC.

        ``contributor`` names the party providing the data; it distributes
        one share to every other party (one network round).  Each receiving
        party's share is the payload that was actually delivered to it, so
        on a socket transport the share data genuinely crosses the process
        boundary.

        Engines that do not hold the contributor's cleartext pass
        ``values=None`` and ``num_rows`` (the row count is public metadata);
        their slice comes exclusively off the wire.  ``public=True`` marks a
        value already known to every party (hybrid-protocol intermediates):
        the sharing randomness then comes from the shared environment stream
        so all lockstep engines stay synchronised.
        """
        self._require_local()
        contributor = contributor or self.party_names[0]
        if contributor not in self.party_names:
            raise KeyError(f"unknown contributor {contributor!r}")
        c_idx = self.party_names.index(contributor)
        if values is not None:
            values = np.asarray(values, dtype=np.int64)
            n = int(values.size)
        else:
            if num_rows is None:
                raise ValueError("input_vector needs values or a public num_rows")
            n = int(num_rows)

        full: list[np.ndarray] | None = None
        if public:
            if values is None:
                raise ValueError("a public input requires values at every party")
            full = AdditiveSharing.share(values, self.num_parties, self.rng)
        elif values is not None:
            full = AdditiveSharing.share(values, self.num_parties, self._input_rngs[c_idx])
        elif c_idx in self._local_pos:
            raise ValueError(
                f"engine holds contributor {contributor!r} but got no values"
            )

        size = n * SHARE_BYTES
        sends = [
            (contributor, name, None if full is None else full[i])
            for i, name in enumerate(self.party_names)
            if name != contributor
        ]
        delivered = self.network.round("input-share", sends, size)
        local_shares = []
        for i in self.local_indices:
            name = self.party_names[i]
            if i == c_idx:
                local_shares.append(full[c_idx])
            else:
                got = delivered[(contributor, name)]
                if got is None:
                    # In-process delivery of a sharing this engine computed
                    # itself (all-local simulation without a wire).
                    got = full[i]
                local_shares.append(got)
        self.meter.input_records += n
        return SharedVector(self, local_shares)

    def constant(self, values: np.ndarray) -> SharedVector:
        """Share a public constant (no communication: party 0 holds it, rest hold 0)."""
        self._require_local()
        values = np.asarray(values, dtype=np.int64)
        shares = [
            _to_ring(values) if i == 0 else np.zeros(values.shape, dtype=_U64)
            for i in self.local_indices
        ]
        return SharedVector(self, shares)

    def empty_vector(self) -> SharedVector:
        """A zero-length shared vector (one empty slice per local party)."""
        self._require_local()
        return SharedVector(
            self, [np.empty(0, dtype=_U64) for _ in range(self.num_local_shares)]
        )

    def _env_sharing(self, values: np.ndarray) -> list[np.ndarray]:
        """Local slices of a fresh sharing of ring ``values`` every engine knows.

        ``values`` is consumed: it becomes the last party's slice.  Party
        ``i < n-1`` holds mask ``i`` off its own stream, the last party holds
        ``values - sum(masks)``; an engine draws exactly the streams its
        slices depend on, and every engine that draws a stream draws it at
        the same points, so the streams stay in lockstep.
        """
        last = self.num_parties - 1
        holds_last = last in self._local_pos
        slices = []
        for i, rng in enumerate(self._mask_rngs):
            if not holds_last and i not in self._local_pos:
                continue
            mask = rng.integers(0, 2**RING_BITS, size=values.shape, dtype=_U64)
            if holds_last:
                values -= mask  # uint64 arithmetic wraps mod 2^64
            if i in self._local_pos:
                slices.append(mask)
        if holds_last:
            slices.append(values)
        return slices

    def zero_sharing(self, n: int) -> list[np.ndarray]:
        """Local slices of a fresh sharing of the zero vector.

        The slices are freshly allocated, so a resharing may add the old
        share into them in place.
        """
        return self._env_sharing(np.zeros(int(n), dtype=_U64))

    def share_from_env(self, values: np.ndarray) -> SharedVector:
        """Share values known to the protocol environment (every party).

        Used by the ideal-functionality steps to re-share a result they
        computed on env-opened data; the randomness comes from the per-party
        mask streams, keeping lockstep engines synchronised.
        """
        self._require_local()
        return SharedVector(self, self._env_sharing(_to_ring(values)))

    # -- openings ----------------------------------------------------------------------

    def _open_to_all(self, tag: str, vec: SharedVector) -> np.ndarray:
        """Every party broadcasts its slice (one round); all learn the value."""
        size = len(vec) * SHARE_BYTES
        delivered = self._exchange(tag, self._per_party(lambda i, pos: vec.shares[pos]), size)
        self.meter.output_records += len(vec)
        return self._reconstruct(delivered, tag)

    def open(self, vec: SharedVector) -> np.ndarray:
        """Reveal a shared vector to all parties (one broadcast round).

        Every party broadcasts its slice; the reconstruction uses the shares
        as delivered, so on a socket transport the opened value depends on
        bytes received from the peer processes.
        """
        return self._open_to_all("open-share", vec)

    def env_open_many(self, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Open vectors to the protocol *environment* (one batched round).

        The ideal-functionality steps (comparisons, sort keys, oblivious
        index positions, aggregation boundaries, fixed-point truncation) run
        on cleartext the environment reconstructs.  That reconstruction is
        a real broadcast round — all vectors batched into one exchange — so
        the environment's view, too, is built from wire bytes.  The realistic
        protocol cost of each step is still charged separately by its caller
        (:meth:`charge`); this round's traffic is metered like any other
        exchange.  No ``output_records`` are counted: nothing is
        revealed to the *parties* beyond what the ideal functionality allows.
        """
        vecs = list(vecs)
        if not vecs:
            return []
        per_party = self._per_party(lambda i, pos: tuple(vec.shares[pos] for vec in vecs))
        size = sum(len(v) for v in vecs) * SHARE_BYTES
        delivered = self._exchange("env-open", per_party, size)
        return [self._reconstruct(delivered, "env-open", k) for k in range(len(vecs))]

    def env_open(self, vec: SharedVector) -> np.ndarray:
        """Open one vector to the protocol environment (see ``env_open_many``)."""
        return self.env_open_many([vec])[0]

    def reveal_to(self, vec: SharedVector, party: str) -> np.ndarray | None:
        """Reveal a shared vector to a single party only.

        Returns the values at engines that hold the target party's slice and
        ``None`` everywhere else — non-targets ship their slice and learn
        nothing.  Revealing to an *external* party (e.g. an STP that is not
        one of the compute parties) opens the vector to the environment (one
        real round) and charges the extra external leg.
        """
        if party not in self.party_names:
            values = self.env_open(vec)
            self.charge(steps.external_reveal_meter(len(vec), self.num_parties))
            return values
        size = len(vec) * SHARE_BYTES
        party_idx = self.party_names.index(party)
        slices = self._per_party(lambda i, pos: vec.shares[pos])
        sends = [
            (name, party, slices[i]) for i, name in enumerate(self.party_names) if name != party
        ]
        delivered = self.network.round("reveal-share", sends, size)
        self.meter.output_records += len(vec)
        if party_idx not in self._local_pos:
            return None
        shares = [
            slices[i] if i == party_idx else delivered[(name, party)]
            for i, name in enumerate(self.party_names)
        ]
        return self._reconstruct(shares, f"reveal to {party!r}")

    def reveal_replicated(self, vec: SharedVector) -> np.ndarray:
        """Reveal a vector to *every* engine (one broadcast round, metered).

        The hybrid protocols replicate a semi-trusted party's computation at
        every agent, so a value "revealed to the STP" must materialise
        everywhere the replicated STP logic runs.  This is an explicit,
        documented widening of the reveal — callers use it only where the
        protocol's trust model already discloses the values.
        """
        return self._open_to_all("reveal-replicated", vec)

    # -- linear operations (local) ------------------------------------------------------

    def add(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        return self._linear(np.add, left, right)

    def sub(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        return self._linear(np.subtract, left, right)

    def _linear(self, op, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """``left (+|-) right``; a public scalar goes onto party 0's slice."""
        if isinstance(right, SharedVector):
            self._check_same_engine(right)
            shares = [op(l, r) for l, r in zip(left.shares, right.shares)]
        else:
            shares = [s.copy() for s in left.shares]
            if 0 in self._local_pos:
                pos = self._local_pos[0]
                shares[pos] = op(shares[pos], _U64(np.int64(right).astype(np.uint64)))
        self.meter.local_ops += len(left)
        return SharedVector(self, shares)

    def scale(self, vec: SharedVector, scalar: int) -> SharedVector:
        """Multiply by a public scalar (local)."""
        factor = _U64(np.int64(scalar).astype(np.uint64))
        shares = [s * factor for s in vec.shares]
        self.meter.local_ops += len(vec)
        return SharedVector(self, shares)

    # -- multiplication (interactive, Beaver triples) ------------------------------------

    def mul(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """Element-wise multiplication.

        Scalar multiplications are local; share-by-share multiplications use
        one Beaver triple per element and one communication round (all
        elements are batched into the same round, as real frameworks do).
        """
        if not isinstance(right, SharedVector):
            return self.scale(left, int(right))
        self._check_same_engine(right)
        if len(left) != len(right):
            raise ValueError("element-wise multiplication requires equal lengths")
        n = len(left)
        if n == 0:
            return SharedVector(self, [s.copy() for s in left.shares])

        triple = self.dealer.triples(n)
        # d = x - a and e = y - b are opened; z = c + d*b + e*a + d*e.
        # Each engine computes d/e only for its local slices; the foreign
        # (d_i, e_i) pairs arrive as wire frames.
        per_party = self._per_party(
            lambda i, pos: (
                left.shares[pos] - triple.a_shares[i],
                right.shares[pos] - triple.b_shares[i],
            )
        )
        # Opening d and e costs one broadcast round of 2 * n elements; the
        # reconstruction sums the (d_i, e_i) pairs as delivered, so on a
        # socket transport the product depends on bytes received from the
        # peer processes.
        size = 2 * n * SHARE_BYTES
        delivered = self._exchange("beaver-open", per_party, size)
        d = self._reconstruct(delivered, "beaver-open", 0).view(_U64)
        e = self._reconstruct(delivered, "beaver-open", 1).view(_U64)

        out_shares = []
        for i in self.local_indices:
            share = triple.c_shares[i] + d * triple.b_shares[i] + e * triple.a_shares[i]
            if i == 0:
                share = share + d * e
            out_shares.append(share)
        self.meter.multiplications += n
        return SharedVector(self, out_shares)

    # -- comparisons (ideal functionality with metered cost) -----------------------------

    def less_than(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """Oblivious ``left < right``, returning shares of 0/1 flags."""
        return self._compare(left, right, "lt")

    def equals(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """Oblivious ``left == right``, returning shares of 0/1 flags."""
        return self._compare(left, right, "eq")

    def _compare(self, left: SharedVector, right: "SharedVector | int", kind: str) -> SharedVector:
        if not isinstance(right, SharedVector):
            lvals, rvals = self.env_open(left), np.int64(int(right))
        else:
            self._check_same_engine(right)
            if kind == "lt":
                lvals, rvals = self.env_open_many([left, right])
            else:
                # x == y exactly when x - y is 0 in the ring, so one opened
                # vector decides equality (an order needs both operands: the
                # ring difference wraps).
                diff = SharedVector(self, [l - r for l, r in zip(left.shares, right.shares)])
                lvals, rvals = self.env_open(diff), np.int64(0)
        flags = lvals < rvals if kind == "lt" else lvals == rvals
        self.charge(steps.comparison_meter(len(left), self.num_parties))
        return self.share_from_env(flags)

    # -- helpers -------------------------------------------------------------------------

    def _check_same_engine(self, vec: SharedVector) -> None:
        if vec._engine is not self:
            raise ValueError("cannot combine shares from different MPC engines")
