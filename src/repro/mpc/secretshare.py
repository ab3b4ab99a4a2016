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
  step: ``input_vectors`` (sharing), ``open_many`` (to all),
  ``reveal_to_many`` (to one party), ``env_open_many`` (to the protocol
  environment); ``open_flags`` opens a 0/1 vector in Z_2, one bit per row,
  and ``hand_back`` carries what a party computed on a reveal to it back to
  the others.  Every opening (those, and the Beaver ``d``/``e`` openings)
  reconstructs from the share payloads as *delivered* by the network round.
  On a socket transport the foreign slices genuinely arrive off the wire, so
  a corrupted frame corrupts the opened result — the shares are
  load-bearing, not replicated.
* :class:`SharedVector` — a handle to a secret-shared vector of 64-bit
  values, with operator overloads for the supported arithmetic.

Comparisons and equality tests on shares are executed as *ideal
functionalities* (:meth:`SecretSharingEngine.env_apply`): every other
compute party sends its slices of the operands to the last one (one real
``env-apply`` round, so the operands depend on wire bytes), whose engine
alone evaluates the function — the last party's slice of the fresh sharing
of the result is the only one that depends on it — and the cost meter is
charged the realistic price of the corresponding bit-decomposition protocol
(:meth:`SecretSharingEngine.charge` with the step's :mod:`repro.model.steps`
meter).  What every engine uses as public positions — sort orders, group
boundaries, a key-range verdict — the last party computes from a key sent
to it the same way and hands back in a ``hand-back`` round, so no other
engine sees the key values; only oblivious-index rows open to every engine,
in an ``env-open`` broadcast round.  Addition and multiplication are
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

* ``engine.rng`` — the shared environment stream of permutations.  Every
  engine draws from it at the same points, so it never desynchronises.
* per-party mask streams — the masks of zero sharings and of sharings of
  values every engine knows (reshares of the group flags the last compute
  party hands back, and what the STP hands back in the clear).  Party
  ``i``'s mask comes off stream ``i`` and the last party's slice is the
  value minus every mask, so an engine draws a stream only for a slice it
  holds (the last party's engine draws them all) and never materialises a
  peer's mask.
* ``engine.dealer`` — the trusted triple dealer, likewise replicated.
  This is a modelling trust boundary: a deployed system would produce
  triples with OT-based preprocessing so no party knows a full triple.
* pairwise input streams — the slices of *private* inputs (pseudo-random
  secret sharing, Araki et al., CCS 2016).  Party ``j``'s slice of
  contributor ``c``'s input vector is the next draw of the one generator
  their link has per query, keyed by the key ``k_cj`` the two share; both
  ends draw a link's vectors in the same lockstep order, and ``c``'s slice
  is the value minus those draws, so no slice crosses the wire.  An agent's
  keys are its mesh links' (:func:`repro.runtime.mesh.link_key`, agreed in
  the join hellos) and its generators are keyed by the query id too, so no
  peer — every one of which knows the seed — can expand a slice it does not
  hold; the all-local simulation derives keys and streams from the seed.
  numpy's ``PCG64`` stands in for the PRF (a deployment would use AES-CTR).

The relational protocols never touch a slice or an opened value: a
:class:`SharedVector` reshapes itself locally (``take``, ``head``,
``reversed``, ``total``, ``concat``), and whatever is computed on opened
values is an engine method (``order_of``, ``adjacent_groups``,
``rows_where``, ``env_apply``, …), and so is whatever a round's delivered
slices are reconstructed into (``_opened``, ``_flags_opened``, ``_beaver``).
That is the seam the plan estimator's :class:`~repro.mpc.shape.ShapeEngine`
overrides to run them on row counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exec.kernels import first_outside, stable_order
from repro.model import steps
from repro.model.counters import SHARE_BYTES, CostMeter
from repro.mpc.network import Network, TransportError

_U64 = np.uint64


def _to_ring(values: np.ndarray) -> np.ndarray:
    """Map signed/unsigned integers onto the ring Z_2^64 (as uint64)."""
    return np.asarray(values, dtype=np.int64).astype(_U64)


def _from_ring(values: np.ndarray) -> np.ndarray:
    """Map ring elements back to signed 64-bit integers."""
    return np.asarray(values, dtype=_U64).astype(np.int64)


def _adjacent_groups(keys: np.ndarray, presorted: bool) -> tuple:
    """The stable order of ``keys`` (unless ``presorted``) and whether each
    sorted key equals the next."""
    if presorted:
        return (keys[:-1] == keys[1:],)
    order = stable_order(keys)
    keys = keys[order]
    return order, keys[:-1] == keys[1:]


#: The public shape of a hand-back: ``(dtype, length)`` of each array.
Layout = Sequence[tuple[type, int]]


def _handed_back(payload, layout: Layout, party: str) -> tuple:
    """A hand-back as read off the wire, checked against its ``layout`` and
    its packed flags unpacked."""
    arrays = payload if type(payload) is tuple and len(payload) == len(layout) else ()
    got = []
    for array, (dtype, n) in zip(arrays, layout):
        wire_dtype, wire_n = (np.uint8, (n + 7) // 8) if dtype is bool else (dtype, n)
        if not (
            isinstance(array, np.ndarray) and array.dtype == wire_dtype and array.shape == (wire_n,)
        ):
            break
        got.append(np.unpackbits(array, count=n).view(np.bool_) if dtype is bool else array)
    if len(got) != len(layout):
        raise TransportError(
            f"hand-back: {party!r} handed back something other than "
            f"{[(np.dtype(dtype).name, n) for dtype, n in layout]}"
        )
    return tuple(got)


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
        shares = [rng.bit_generator.random_raw(ring_vals.shape) for _ in range(num_parties - 1)]
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
        a = self._rng.bit_generator.random_raw(count)
        b = self._rng.bit_generator.random_raw(count)
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
    The vector stores its length, so an engine that holds no slice at all
    (:class:`~repro.mpc.shape.ShapeEngine`) still knows it.  The local
    reshapings below — gather, prefix, reversal, sum, concatenation — act on
    every held slice and need no communication.
    """

    def __init__(
        self, engine: "SecretSharingEngine", shares: list[np.ndarray], n: int | None = None
    ):
        self._engine = engine
        self._shares = shares
        self._n = n if n is not None else len(shares[0]) if shares else 0

    def __len__(self) -> int:
        return self._n

    @property
    def shares(self) -> list[np.ndarray]:
        return self._shares

    def take(self, rows) -> "SharedVector":
        """The elements at public positions ``rows``."""
        return SharedVector(self._engine, [share[rows] for share in self._shares], len(rows))

    def head(self, n: int) -> "SharedVector":
        """The first ``n`` elements."""
        return SharedVector(self._engine, [share[:n] for share in self._shares], min(n, self._n))

    def reversed(self) -> "SharedVector":
        """The elements in reverse order (a public permutation)."""
        return SharedVector(self._engine, [share[::-1].copy() for share in self._shares], self._n)

    def total(self) -> "SharedVector":
        """The one-element sum: additive shares sum locally."""
        sums = [np.array([share.sum(dtype=_U64)], dtype=_U64) for share in self._shares]
        return SharedVector(self._engine, sums, 1)

    @staticmethod
    def concat(vectors: Sequence["SharedVector"]) -> "SharedVector":
        """The vectors one after another."""
        engine = vectors[0]._engine
        shares = [
            np.concatenate([vec.shares[p] for vec in vectors])
            for p in range(engine.num_local_shares)
        ]
        return SharedVector(engine, shares, sum(len(vec) for vec in vectors))

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
        # Private inputs expand from pairwise keys: an agent's are its mesh
        # links' and its streams are keyed by the query id; without a
        # channel (the all-local simulation) both come from the seed.
        self._seed_entropy = np.random.SeedSequence(seed).entropy
        #: The slice generator of each link ``(i, j)``, ``i < j``, made on
        #: first use.
        self._links: dict[tuple[int, int], np.random.PCG64] = {}
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
    ) -> list[SharedVector]:
        """Secret-share a party's private cleartext vectors — a relation's
        columns — into the MPC.

        ``contributor`` names the party providing the data.  The sharing
        ships nothing: every other compute party ``j`` expands its slice of
        each vector from the key ``k_cj`` it shares with the contributor
        ``c``, and ``c``'s slice is the value minus those expansions (see the
        module docstring).  Only the engine holding the contributor passes
        ``values``; every other engine passes ``values=None`` and the
        ``num_rows`` of each vector (the public row count, which crossed
        before).  Sharemind's client-side input round that this replaces is
        charged analytically (:func:`~repro.model.steps.input_sharing_meter`),
        so only the wire counters see the difference.  The slices are drawn
        vector by vector, so they are those of one call per vector.
        """
        self._require_local()
        contributor = contributor or self.party_names[0]
        if contributor not in self.party_names:
            return self._environment_input(values, contributor)
        c_idx = self.party_names.index(contributor)
        if values is not None:
            if c_idx not in self._local_pos:
                raise ValueError(
                    f"engine does not hold contributor {contributor!r}: pass the "
                    "num_rows of its vectors, not values"
                )
            values = [np.asarray(v, dtype=np.int64) for v in values]
            num_rows = [int(v.size) for v in values]
        elif num_rows is None:
            raise ValueError("input_vectors needs values or the public num_rows of each vector")
        elif c_idx in self._local_pos:
            raise ValueError(f"engine holds contributor {contributor!r} but got no values")

        held = self._expanded_input(values, c_idx, num_rows)
        self.charge(steps.input_sharing_meter(sum(num_rows), self.num_parties))
        return [
            SharedVector(self, [got[k] for got in held], rows) for k, rows in enumerate(num_rows)
        ]

    def _environment_input(self, values, contributor: str) -> list[SharedVector]:
        """The input of a party outside the MPC: an STP whose reveals open to
        the environment computes in every engine, so each engine draws its
        slices of the values it holds off the mask streams."""
        if values is None:
            raise ValueError(
                f"{contributor!r} is not a compute party: every engine passes its values"
            )
        shared = [self.share_from_env(v) for v in values]
        self.charge(steps.input_sharing_meter(sum(len(v) for v in values), self.num_parties))
        return shared

    def _expanded_input(self, values, c_idx: int, num_rows: Sequence[int]) -> list:
        """The held slices of a private input, one list per held party: the
        expansions of the contributor's pairwise keys, and at the
        contributor the value minus every expansion."""
        holds_contributor = c_idx in self._local_pos
        held: list[list[np.ndarray]] = [[] for _ in self.local_indices]
        for k, rows in enumerate(num_rows):
            expanded = {
                j: self._expand(c_idx, j, rows)
                for j in range(self.num_parties)
                if j != c_idx and (holds_contributor or j in self._local_pos)
            }
            for pos, i in enumerate(self.local_indices):
                if i != c_idx:
                    held[pos].append(expanded[i])
                    continue
                own = _to_ring(values[k])
                for mask in expanded.values():
                    own -= mask  # uint64 arithmetic wraps mod 2^64
                held[pos].append(own)
        return held

    def _expand(self, c_idx: int, j: int, n: int) -> np.ndarray:
        """Party ``j``'s slice of contributor ``c_idx``'s next private input
        vector: ``n`` ring elements off their link's generator, keyed by the
        pairwise key and this query (or seed)."""
        link = (min(c_idx, j), max(c_idx, j))
        if link not in self._links:
            channel = self.network.channel
            stream = self._seed_entropy if channel is None else channel.query_id
            seq = np.random.SeedSequence(self._pair_key(*link), spawn_key=(stream,))
            self._links[link] = np.random.PCG64(seq)
        return self._links[link].random_raw(n)

    def _pair_key(self, i: int, j: int) -> int:
        """The key parties ``i`` and ``j`` share: their mesh link's, or
        without a channel one derived from the seed."""
        names = [self.party_names[p] for p in sorted((i, j))]
        channel = self.network.channel
        if channel is None:
            fields = ("conclave-seeded-key", str(self._seed_entropy), *names)
            raw = hashlib.sha256("\x00".join(fields).encode()).digest()
        else:
            (peer,) = [name for name in names if name != channel.party]
            raw = channel.link_key(peer)
        return int.from_bytes(raw, "little")

    def input_vector(
        self,
        values: np.ndarray | None = None,
        contributor: str | None = None,
        num_rows: int | None = None,
    ) -> SharedVector:
        """Secret-share one private vector (see :meth:`input_vectors`)."""
        return self.input_vectors(
            None if values is None else [values],
            contributor,
            None if num_rows is None else [num_rows],
        )[0]

    def constant(self, values: np.ndarray) -> SharedVector:
        """Share a public constant (no communication: party 0 holds it, rest hold 0)."""
        self._require_local()
        values = np.asarray(values, dtype=np.int64)
        shares = [
            _to_ring(values) if i == 0 else np.zeros(values.shape, dtype=_U64)
            for i in self.local_indices
        ]
        return SharedVector(self, shares, len(values))

    def fill(self, value: int, n: int) -> SharedVector:
        """``n`` copies of the public ``value``, shared as a constant."""
        return self.constant(np.full(n, value, dtype=np.int64))

    def empty_vector(self) -> SharedVector:
        """A zero-length shared vector (one empty slice per local party)."""
        self._require_local()
        return SharedVector(
            self, [np.empty(0, dtype=_U64) for _ in range(self.num_local_shares)]
        )

    def _env_sharing(self, n: int, values: "np.ndarray | None" = None) -> list[np.ndarray]:
        """Local slices of a fresh sharing of ``n`` ring ``values``.

        ``values`` is consumed: it becomes the last party's slice.  Party
        ``i < n-1`` holds mask ``i`` off its own stream, the last party holds
        ``values - sum(masks)``, so only an engine holding the last party's
        slice needs ``values``; every other engine passes the row count
        alone.  An engine draws exactly the streams its slices depend on,
        and every engine that draws a stream draws it at the same points, so
        the streams stay in lockstep.
        """
        last = self.num_parties - 1
        holds_last = last in self._local_pos
        slices = []
        for i, rng in enumerate(self._mask_rngs):
            if not holds_last and i not in self._local_pos:
                continue
            mask = rng.bit_generator.random_raw(n)
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
        return self._env_sharing(int(n), np.zeros(int(n), dtype=_U64))

    def share_from_env(self, values: np.ndarray) -> SharedVector:
        """Share values known to the protocol environment (every party).

        Used for the group flags the last compute party hands back, and by
        the hybrid protocols for what the STP hands back in the clear; the
        randomness comes from the per-party mask streams, keeping lockstep
        engines synchronised.  Nothing crosses the wire and nothing is
        charged: a caller standing for a protocol charges its price.
        """
        self._require_local()
        return SharedVector(self, self._env_sharing(len(values), _to_ring(values)), len(values))

    def env_apply(self, fn, vecs: Sequence[SharedVector]) -> SharedVector:
        """``fn`` of the vectors, computed by the protocol environment at the
        last compute party: one ``env-apply`` round in which every other
        party sends it its slices, then a fresh sharing of ``fn(*opened)``.

        Only the last party's slice of that sharing depends on the values
        (see :meth:`_env_sharing`), so only the engine holding it
        reconstructs the operands and runs ``fn``; every other engine draws
        its mask.  ``fn`` is row-wise: one output per input row.  The ideal
        functionalities — comparisons, fixed-point truncation and division,
        the grouped min/max scan — run this way; each caller charges the
        price of the protocol it stands for."""
        self._require_local()
        n = len(vecs[0])
        opened = self._gather("env-apply", vecs, self.party_names[-1])
        values = None
        if opened is not None:
            values = fn(*opened)
            if len(values) != n:
                raise ValueError(f"env_apply: fn gave {len(values)} rows for {n}")
            values = _to_ring(values)
        return SharedVector(self, self._env_sharing(n, values), n)

    # -- openings ----------------------------------------------------------------------

    def _broadcast(self, tag: str, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Every party broadcasts its slice of every vector (one round); the
        values are reconstructed from the slices as delivered."""
        per_party = self._per_party(lambda i, pos: tuple(vec.shares[pos] for vec in vecs))
        size = sum(len(vec) for vec in vecs) * SHARE_BYTES
        return self._opened(self._exchange(tag, per_party, size), tag, vecs)

    def _opened(self, delivered: Sequence, step: str, vecs: Sequence[SharedVector]) -> list:
        """``vecs`` reconstructed from one delivered tuple of slices per party."""
        return [self._reconstruct(delivered, step, k) for k in range(len(vecs))]

    def open_many(self, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Reveal shared vectors to all parties (one broadcast round).

        Every party broadcasts its slices; the reconstruction uses the shares
        as delivered, so on a socket transport the opened values depend on
        bytes received from the peer processes.
        """
        self.meter.output_records += sum(len(vec) for vec in vecs)
        return self._broadcast("open-share", vecs)

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
        delivered = self._exchange("open-flags", per_party, (n + 7) // 8)
        self.meter.output_records += n
        return self._flags_opened(delivered, n)

    def _flags_opened(self, delivered: Sequence, n: int) -> np.ndarray:
        """``n`` flags: the XOR of one delivered packed slice per party."""
        packed = np.zeros((n + 7) // 8, dtype=np.uint8)
        for name, bits in zip(self.party_names, delivered):
            if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.shape != packed.shape:
                raise TransportError(
                    f"open-flags: party {name!r} delivered no packed slice of {n} flag bits"
                )
            packed ^= bits
        return np.unpackbits(packed, count=n).view(np.bool_)

    def env_open_many(self, vecs: Sequence[SharedVector]) -> list[np.ndarray]:
        """Open vectors to the protocol *environment* (one batched round).

        Oblivious-index rows, and reveals to a party outside the MPC, run
        on cleartext the environment reconstructs at every engine; a step
        whose result is re-shared, or that hands back only positions (sort
        orders, group boundaries, key-range verdicts), runs at one party
        instead (:meth:`env_apply`, :meth:`_at_host`).  That reconstruction is
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
            self.charge(steps.external_leg_meter(total, self.num_parties))
            return values
        values = self._gather("reveal-share", vecs, party)
        self.meter.output_records += total
        return values

    def _gather(self, tag: str, vecs: Sequence[SharedVector], party: str) -> list | None:
        """Every compute party but ``party`` sends it its slices of ``vecs``
        (one round of ``n - 1`` messages).  Returns the values reconstructed
        from the slices as delivered at the engine holding ``party``'s
        slice, ``None`` everywhere else."""
        party_idx = self.party_names.index(party)
        slices = self._per_party(lambda i, pos: tuple(vec.shares[pos] for vec in vecs))
        sends = [
            (name, party, slices[i]) for i, name in enumerate(self.party_names) if name != party
        ]
        delivered = self.network.round(tag, sends, sum(len(vec) for vec in vecs) * SHARE_BYTES)
        if party_idx not in self._local_pos:
            return None
        shares = [
            slices[i] if i == party_idx else delivered[(name, party)]
            for i, name in enumerate(self.party_names)
        ]
        return self._opened(shares, tag, vecs)

    def hand_back(self, party: str, payload: "tuple | None", layout: Layout) -> tuple:
        """What ``party`` computed on a reveal to it — an STP's key match or
        sort, or the environment's sort positions at the last compute party
        (:meth:`_at_host`) — handed back to every other compute party in one
        round (tag ``hand-back``).

        ``payload`` is a tuple of arrays, passed where ``party``'s logic ran
        and ``None`` elsewhere; ``layout`` gives each array's dtype and
        length.  The layout is public, so every engine meters the round
        alike; a boolean array crosses as packed bits.  Every engine gets
        the payload back: ``party``'s as passed, the others' as read off the
        wire.  A party outside the compute parties is played by the
        environment — every engine holds the payload already — so nothing
        crosses.
        """
        if party not in self.party_names:
            return payload
        self._require_local()
        channel = self.network.channel
        wire = payload
        if channel is not None and channel.party == party:
            wire = tuple(
                np.packbits(array) if dtype is bool else array
                for array, (dtype, _) in zip(payload, layout)
            )
        sends = [(party, p, wire) for p in self.party_names if p != party]
        size = sum((n + 7) // 8 if dtype is bool else n * np.dtype(dtype).itemsize
                   for dtype, n in layout)
        delivered = self.network.round("hand-back", sends, size)
        if channel is None or channel.party == party:
            return payload
        return _handed_back(delivered[(party, channel.party)], layout, party)

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
        return SharedVector(self, shares, len(left))

    def scale(self, vec: SharedVector, scalar: int) -> SharedVector:
        """Multiply by a public scalar (local)."""
        factor = _U64(np.int64(scalar).astype(np.uint64))
        shares = [s * factor for s in vec.shares]
        self.meter.local_ops += len(vec)
        return SharedVector(self, shares, len(vec))

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
            return SharedVector(self, [s.copy() for s in left.shares], 0)
        out_shares = self._beaver(left, right)
        self.meter.multiplications += n
        return SharedVector(self, out_shares, n)

    def _beaver(self, left: SharedVector, right: SharedVector) -> list[np.ndarray]:
        """The local slices of ``left * right``: one triple per element."""
        triple = self.dealer.triples(len(left))
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
        return out_shares

    # -- comparisons (ideal functionality with metered cost) -----------------------------

    def less_than(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """Oblivious ``left < right``, returning shares of 0/1 flags."""
        return self._compare(left, right, "lt")

    def equals(self, left: SharedVector, right: "SharedVector | int") -> SharedVector:
        """Oblivious ``left == right``, returning shares of 0/1 flags."""
        return self._compare(left, right, "eq")

    def _compare(self, left: SharedVector, right: "SharedVector | int", kind: str) -> SharedVector:
        test = np.less if kind == "lt" else np.equal
        if not isinstance(right, SharedVector):
            scalar = np.int64(int(right))
            flags = self.env_apply(lambda values: test(values, scalar), [left])
        else:
            self._check_same_engine(right)
            if kind == "lt":
                flags = self.env_apply(test, [left, right])
            else:
                # x == y exactly when x - y is 0 in the ring, so one opened
                # vector decides equality (an order needs both operands: the
                # ring difference wraps).
                diff = SharedVector(
                    self, [l - r for l, r in zip(left.shares, right.shares)], len(left)
                )
                flags = self.env_apply(lambda values: values == 0, [diff])
        self.charge(steps.comparison_meter(len(left), self.num_parties))
        return flags

    # -- positions and scans over values the environment computed ------------------------
    # What the relational protocols need from opened values, so that they
    # never touch a slice or an opened vector themselves.

    def permutation(self, n: int) -> np.ndarray:
        """A joint random permutation of ``n`` rows (the environment stream)."""
        return self.rng.permutation(n)

    def _at_host(self, vecs: Sequence[SharedVector], layout: Layout, compute) -> tuple:
        """``compute`` of ``vecs``, run by the protocol environment at the
        last compute party and handed back: one ``env-apply`` round in which
        every other party sends it its slices, then one ``hand-back`` round
        of ``layout`` from it.  Only the engine holding the last party's
        slice reconstructs ``vecs``; every other engine learns what
        ``compute`` returns and nothing else."""
        host = self.party_names[-1]
        opened = self._gather("env-apply", vecs, host)
        return self.hand_back(host, None if opened is None else compute(*opened), layout)

    def order_of(self, key: SharedVector) -> np.ndarray:
        """The stable ascending order of ``key``, computed at the last
        compute party (:meth:`_at_host`): ``8n`` bytes come back to each
        other party."""
        (order,) = self._at_host([key], [(np.int64, len(key))], lambda keys: (stable_order(keys),))
        return order

    def adjacent_groups(
        self, key: SharedVector, presorted: bool
    ) -> "tuple[np.ndarray | None, np.ndarray]":
        """``key``'s stable ascending order (``None`` when ``presorted``) and
        whether each row of the sorted column has the key of the next one
        (``n - 1`` flags), both computed at the last compute party
        (:meth:`_at_host`): the order and the packed flags come back."""
        n = len(key)
        layout = [(bool, n - 1)] if presorted else [(np.int64, n), (bool, n - 1)]
        handed = self._at_host([key], layout, lambda keys: _adjacent_groups(keys, presorted))
        return (None, *handed) if presorted else handed

    def rows_where(self, opened_flags: np.ndarray) -> np.ndarray:
        """The positions of the set flags of an opened flag vector."""
        return np.flatnonzero(opened_flags)

    def cross_pairs(self, n: int, m: int) -> "tuple[np.ndarray, np.ndarray]":
        """Left and right row positions of every pair of an ``n`` x ``m`` product."""
        return np.repeat(np.arange(n, dtype=np.int64), m), np.tile(np.arange(m, dtype=np.int64), n)

    def check_index(self, rows: np.ndarray, n: int) -> None:
        """Refuse positions outside ``[0, n)``."""
        if len(rows) > 0 and (rows.min() < 0 or rows.max() >= n):
            raise IndexError("oblivious index out of range")

    def key_outside(self, vecs: Sequence[SharedVector], base: int) -> "list[int | None]":
        """The first value of each of ``vecs`` outside ``[0, base)``, or
        ``None``: the executor's composite-key range check.  The columns go
        to the last compute party (:meth:`_at_host`), which hands back only
        one int64 per column, that value or 0 when there is none (a key base
        is at least 2, so 0 is in range)."""
        (bad,) = self._at_host(
            vecs, [(np.int64, len(vecs))],
            lambda *columns: (np.array(
                [first_outside(values, base) or 0 for values in columns], dtype=np.int64
            ),),
        )
        return [None if 0 <= value < base else value for value in bad.tolist()]

    def reshared_take(self, vec: SharedVector, rows) -> SharedVector:
        """Rows ``rows`` of ``vec`` under a fresh sharing.

        The gathered slice is added *into* the zero sharing's fresh mask, so
        each slice costs one temporary, not three.
        """
        fresh = self.zero_sharing(len(rows))
        for mask, share in zip(fresh, vec.shares):
            mask += share[rows]
        return SharedVector(self, fresh, len(rows))

    def segmented_sum(
        self, columns: Sequence[SharedVector], same: np.ndarray
    ) -> list[SharedVector]:
        """The oblivious accumulation scans of a grouped aggregation's sums.

        ``same[i]`` tells whether rows ``i`` and ``i+1`` of the key-sorted
        relation share a key (known to the protocol environment, or to the
        STP that sorted the keys in the clear); the last row of every key
        group ends up holding the group's sum of each column.  The real
        protocol is a logarithmic-depth segmented prefix scan over whole
        share vectors, every column in the same rounds — one oblivious fold
        per row and column charged analytically, no per-row message
        exchange, so wire rounds stay independent of the relation size.  A
        segmented cumulative sum distributes over additive shares: the
        per-party segmented prefix sums (mod 2^64) reconstruct to the true
        segmented running totals.
        """
        if not columns:
            return []
        n = len(columns[0])
        accs = [SharedVector(self, self._segment_sums(values, same), n) for values in columns]
        self.charge(steps.segmented_sum_meter(n, self.num_parties, len(columns)))
        return accs

    def _segment_sums(self, values: SharedVector, same: np.ndarray) -> list[np.ndarray]:
        """The local slices of the segmented running totals, freshly masked."""
        n = len(values)
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.logical_not(same, out=starts[1:])
        start_idx = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
        nz = start_idx > 0
        base_idx = start_idx[nz] - 1
        acc_shares = self.zero_sharing(n)
        for fresh, share in zip(acc_shares, values.shares):
            running = np.cumsum(share, dtype=np.uint64)
            fresh += running
            fresh[nz] -= running[base_idx]
        return acc_shares

    # -- helpers -------------------------------------------------------------------------

    def _check_same_engine(self, vec: SharedVector) -> None:
        if vec._engine is not self:
            raise ValueError("cannot combine shares from different MPC engines")
