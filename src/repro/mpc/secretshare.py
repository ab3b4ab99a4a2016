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
  plays all parties at once), exactly one slice in a party agent.  The
  carried steps take *lists* of vectors — a relation's columns cross in one
  round: ``input_vectors`` (sharing), ``open_many`` / ``reveal_many`` (to
  all), ``reveal_to_many`` (to one party), ``env_open_many`` (to the
  protocol environment); ``open_flags`` opens a 0/1 vector in Z_2, one bit
  per row.  Every opening (those, and the Beaver ``d``/``e`` openings)
  reconstructs from the share payloads as *delivered* by the network round.
  On a socket transport the foreign slices genuinely arrive off the wire, so
  a corrupted frame corrupts the opened result — the shares are
  load-bearing, not replicated.
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
from repro.runtime.transport import TransportError

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

    def _reconstruct(self, delivered: Sequence, step: str, component: int) -> np.ndarray:
        """Sum vector ``component`` of one delivered tuple payload per party,
        in global party order.  A ``None`` payload is a slice no peer delivered."""
        entries = []
        for name, payload in zip(self.party_names, delivered):
            if payload is None:
                raise RuntimeError(
                    f"{step}: no share slice delivered for party {name!r} "
                    f"(engine holds {sorted(self.local_parties)})"
                )
            entries.append(payload[component])
        return AdditiveSharing.reconstruct(entries)

    def _require_local(self) -> None:
        if self.num_local_shares == 0:
            raise RuntimeError(
                "this engine holds no share slices (its agent's party is not "
                "one of the MPC compute parties) and cannot run MPC primitives"
            )

    # -- share lifecycle ---------------------------------------------------------------

    def input_vectors(
        self,
        values: "Sequence[np.ndarray] | None" = None,
        contributor: str | None = None,
        num_rows: "Sequence[int] | None" = None,
        public: bool = False,
    ) -> list[SharedVector]:
        """Secret-share cleartext vectors — a relation's columns — in one round.

        ``contributor`` names the party providing the data; it sends every
        other party one message holding that party's slice of every vector.
        Each receiving party's shares are the payload that was actually
        delivered to it, so on a socket transport the share data genuinely
        crosses the process boundary.

        Engines that do not hold the contributor's cleartext pass
        ``values=None`` and the ``num_rows`` of each vector (public
        metadata); their slices come exclusively off the wire.
        ``public=True`` marks values already known to every party
        (hybrid-protocol intermediates): the sharing randomness then comes
        from the shared environment stream so all lockstep engines stay
        synchronised.  Either stream is drawn vector by vector.
        """
        self._require_local()
        contributor = contributor or self.party_names[0]
        if contributor not in self.party_names:
            raise KeyError(f"unknown contributor {contributor!r}")
        c_idx = self.party_names.index(contributor)
        if values is not None:
            values = [np.asarray(v, dtype=np.int64) for v in values]
            num_rows = [int(v.size) for v in values]
        elif num_rows is None:
            raise ValueError("input_vectors needs values or the public num_rows of each vector")
        elif public:
            raise ValueError("a public input requires values at every party")
        elif c_idx in self._local_pos:
            raise ValueError(f"engine holds contributor {contributor!r} but got no values")

        #: ``full[k][i]`` is party ``i``'s slice of vector ``k``.
        full: list[list[np.ndarray]] | None = None
        if values is not None:
            rng = self.rng if public else self._input_rngs[c_idx]
            full = [AdditiveSharing.share(v, self.num_parties, rng) for v in values]
        total = sum(num_rows)
        sends = [
            (contributor, name, None if full is None else tuple(slices[i] for slices in full))
            for i, name in enumerate(self.party_names)
            if name != contributor
        ]
        delivered = self.network.round("input-share", sends, total * SHARE_BYTES)
        local = []
        for i in self.local_indices:
            got = None if i == c_idx else delivered[(contributor, self.party_names[i])]
            if got is None:
                # The contributor's own slices, or the in-process delivery of
                # a sharing this engine computed itself (no wire in between).
                got = [slices[i] for slices in full]
            local.append(got)
        self.meter.input_records += total
        return [SharedVector(self, [got[k] for got in local]) for k in range(len(num_rows))]

    def input_vector(
        self,
        values: np.ndarray | None = None,
        contributor: str | None = None,
        num_rows: int | None = None,
        public: bool = False,
    ) -> SharedVector:
        """Secret-share one vector (see :meth:`input_vectors`)."""
        return self.input_vectors(
            None if values is None else [values],
            contributor,
            None if num_rows is None else [num_rows],
            public,
        )[0]

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

    def _broadcast(self, tag: str, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Every party broadcasts its slice of every vector (one round); the
        values are reconstructed from the slices as delivered."""
        per_party = self._per_party(lambda i, pos: tuple(vec.shares[pos] for vec in vecs))
        size = sum(len(vec) for vec in vecs) * SHARE_BYTES
        delivered = self._exchange(tag, per_party, size)
        return [self._reconstruct(delivered, tag, k) for k in range(len(vecs))]

    def _open_to_all(self, tag: str, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        self.meter.output_records += sum(len(vec) for vec in vecs)
        return self._broadcast(tag, vecs)

    def open_many(self, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Reveal shared vectors to all parties (one broadcast round).

        Every party broadcasts its slices; the reconstruction uses the shares
        as delivered, so on a socket transport the opened values depend on
        bytes received from the peer processes.
        """
        return self._open_to_all("open-share", vecs)

    def open(self, vec: SharedVector) -> np.ndarray:
        """Reveal one shared vector to all parties (see :meth:`open_many`)."""
        return self.open_many([vec])[0]

    def open_flags(self, flags: SharedVector) -> np.ndarray:
        """Reveal a vector known to hold 0/1 flags, one *bit* per row.

        Z_2^64 -> Z_2 (the low bit) is a ring homomorphism, so the low bit of
        the sum of the slices is the XOR of their low bits: each party
        broadcasts ``packbits(slice & 1)`` — ``ceil(n/8)`` bytes instead of
        ``8n`` — and the flags are the XOR of the packed slices as delivered.
        The upper 63 bits of every slice stay home, so this reveals strictly
        less than :meth:`open`.  Returns a boolean vector.
        """
        n = len(flags)
        per_party = self._per_party(
            lambda i, pos: np.packbits(flags.shares[pos].astype(np.uint8) & np.uint8(1))
        )
        packed = np.zeros((n + 7) // 8, dtype=np.uint8)
        delivered = self._exchange("open-flags", per_party, packed.size)
        for name, bits in zip(self.party_names, delivered):
            if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.shape != packed.shape:
                raise TransportError(
                    f"open-flags: party {name!r} delivered no packed slice of {n} flag bits"
                )
            packed ^= bits
        self.meter.output_records += n
        return np.unpackbits(packed, count=n).view(np.bool_)

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
        return self._broadcast("env-open", vecs) if vecs else []

    def env_open(self, vec: SharedVector) -> np.ndarray:
        """Open one vector to the protocol environment (see ``env_open_many``)."""
        return self.env_open_many([vec])[0]

    def reveal_to_many(self, vecs: Sequence[SharedVector], party: str) -> list[np.ndarray] | None:
        """Reveal shared vectors — a relation's columns — to a single party
        only, in one round.

        Returns the values at engines that hold the target party's slice and
        ``None`` everywhere else — non-targets ship their slices and learn
        nothing.  Revealing to an *external* party (e.g. an STP that is not
        one of the compute parties) opens the vectors to the environment (one
        real round) and charges the extra external leg.
        """
        total = sum(len(vec) for vec in vecs)
        if party not in self.party_names:
            values = self.env_open_many(vecs)
            self.charge(steps.external_reveal_meter(total, self.num_parties))
            return values
        party_idx = self.party_names.index(party)
        slices = self._per_party(lambda i, pos: tuple(vec.shares[pos] for vec in vecs))
        sends = [
            (name, party, slices[i]) for i, name in enumerate(self.party_names) if name != party
        ]
        delivered = self.network.round("reveal-share", sends, total * SHARE_BYTES)
        self.meter.output_records += total
        if party_idx not in self._local_pos:
            return None
        shares = [
            slices[i] if i == party_idx else delivered[(name, party)]
            for i, name in enumerate(self.party_names)
        ]
        return [self._reconstruct(shares, f"reveal to {party!r}", k) for k in range(len(vecs))]

    def reveal_many(self, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Reveal vectors to *every* engine (one broadcast round, metered).

        The hybrid protocols replicate a semi-trusted party's computation at
        every agent, so values "revealed to the STP" must materialise
        everywhere the replicated STP logic runs.  This is an explicit,
        documented widening of the reveal — callers use it only where the
        protocol's trust model already discloses the values.
        """
        return self._open_to_all("reveal-replicated", vecs)

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
        # (d_i, e_i) pairs arrive as wire frames.  Opening both costs one
        # broadcast round of 2 * n elements, reconstructed from the pairs as
        # delivered, so on a socket transport the product depends on bytes
        # received from the peer processes.
        held = self.local_indices
        d_held = [x - triple.a_shares[i] for x, i in zip(left.shares, held)]
        e_held = [y - triple.b_shares[i] for y, i in zip(right.shares, held)]
        masked = [SharedVector(self, d_held), SharedVector(self, e_held)]
        d, e = (opened.view(_U64) for opened in self._broadcast("beaver-open", masked))

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
