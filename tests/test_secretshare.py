"""Unit and property-based tests for additive secret sharing."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.secretshare import (
    AdditiveSharing,
    SecretSharingEngine,
    SharedVector,
    TripleDealer,
)

int64s = st.integers(min_value=-(2**62), max_value=2**62 - 1)


class TestAdditiveSharing:
    def test_shares_reconstruct(self, rng):
        values = np.array([0, 1, -5, 2**40, -(2**40)], dtype=np.int64)
        shares = AdditiveSharing.share(values, 3, rng)
        assert len(shares) == 3
        assert np.array_equal(AdditiveSharing.reconstruct(shares), values)

    def test_individual_shares_look_random(self, rng):
        values = np.zeros(1000, dtype=np.int64)
        shares = AdditiveSharing.share(values, 3, rng)
        # A share of all-zeros should not itself be all zeros.
        assert np.any(shares[0] != 0)
        assert np.any(shares[1] != 0)

    def test_two_party_minimum(self, rng):
        with pytest.raises(ValueError):
            AdditiveSharing.share(np.array([1]), 1, rng)

    def test_reconstruct_empty_share_list_rejected(self):
        with pytest.raises(ValueError):
            AdditiveSharing.reconstruct([])

    @given(values=st.lists(int64s, min_size=1, max_size=50), parties=st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_share_reconstruct_roundtrip_property(self, values, parties):
        rng = np.random.default_rng(0)
        arr = np.array(values, dtype=np.int64)
        shares = AdditiveSharing.share(arr, parties, rng)
        assert np.array_equal(AdditiveSharing.reconstruct(shares), arr)


class TestTripleDealer:
    def test_triples_are_valid(self):
        dealer = TripleDealer(3, seed=5)
        triple = dealer.triples(100)
        a = AdditiveSharing.reconstruct(triple.a_shares).astype(np.uint64)
        b = AdditiveSharing.reconstruct(triple.b_shares).astype(np.uint64)
        c = AdditiveSharing.reconstruct(triple.c_shares).astype(np.uint64)
        assert np.array_equal(a * b, c)


class TestRawDraws:
    """Input shares, triples and masks are drawn as raw 64-bit words, which
    on numpy's ``PCG64`` are the words of ``integers(0, 2**64,
    dtype=uint64)``, leaving the stream at the same position."""

    SIZES = [0, 1, 7, 1000, 90_000]

    @staticmethod
    def _words(rng, n):
        return rng.integers(0, 2**64, size=n, dtype=np.uint64)

    def test_raw_words_are_the_full_range_integers(self):
        raw, ints = np.random.default_rng(9), np.random.default_rng(9)
        for n in self.SIZES:
            assert np.array_equal(raw.bit_generator.random_raw(n), self._words(ints, n))
            # Interleaved with the permutations an environment stream draws.
            assert np.array_equal(raw.permutation(n % 50), ints.permutation(n % 50))
        assert raw.bit_generator.state == ints.bit_generator.state

    def test_shares_triples_and_masks_are_the_integers_words(self):
        shares = AdditiveSharing.share(np.arange(7), 3, np.random.default_rng(3))
        old = np.random.default_rng(3)
        for share in shares[:2]:
            assert np.array_equal(share, self._words(old, 7))

        triple = TripleDealer(3, seed=5).triples(7)
        old = np.random.default_rng(5)
        for shares in (triple.a_shares, triple.b_shares):
            opened = AdditiveSharing.reconstruct(shares).view(np.uint64)
            assert np.array_equal(opened, self._words(old, 7))

        engine = SecretSharingEngine(["a", "b", "c"], seed=21)
        streams = copy.deepcopy(engine._mask_rngs)
        # Parties 0 and 1 hold the masks; the last party holds zero minus both.
        for mask, stream in zip(engine.zero_sharing(7)[:2], streams):
            assert np.array_equal(mask, self._words(stream, 7))


class TestEngineArithmetic:
    def test_input_and_open(self, engine):
        values = np.array([3, -7, 11], dtype=np.int64)
        vec = engine.input_vector(values, contributor=engine.party_names[0])
        assert np.array_equal(vec.reveal(), values)
        assert engine.meter.input_records == 3
        assert engine.meter.output_records == 3

    def test_addition_and_subtraction(self, engine):
        x = engine.input_vector(np.array([1, 2, 3]))
        y = engine.input_vector(np.array([10, 20, 30]))
        assert np.array_equal((x + y).reveal(), [11, 22, 33])
        assert np.array_equal((y - x).reveal(), [9, 18, 27])

    def test_scalar_addition_and_scaling(self, engine):
        x = engine.input_vector(np.array([1, 2, 3]))
        assert np.array_equal((x + 5).reveal(), [6, 7, 8])
        assert np.array_equal((x - 1).reveal(), [0, 1, 2])
        assert np.array_equal(engine.scale(x, -2).reveal(), [-2, -4, -6])

    def test_multiplication_uses_beaver_triples(self, engine):
        x = engine.input_vector(np.array([2, -3, 5]))
        y = engine.input_vector(np.array([7, 7, -7]))
        product = x * y
        assert np.array_equal(product.reveal(), [14, -21, -35])
        assert engine.meter.multiplications == 3

    def test_multiplication_by_scalar_is_local(self, engine):
        x = engine.input_vector(np.array([2, 3]))
        before = engine.meter.multiplications
        assert np.array_equal((x * 4).reveal(), [8, 12])
        assert engine.meter.multiplications == before

    def test_empty_vector_multiplication(self, engine):
        x = engine.input_vector(np.array([], dtype=np.int64))
        y = engine.input_vector(np.array([], dtype=np.int64))
        assert len(x * y) == 0

    def test_length_mismatch_rejected(self, engine):
        x = engine.input_vector(np.array([1, 2]))
        y = engine.input_vector(np.array([1]))
        with pytest.raises(ValueError):
            engine.mul(x, y)

    def test_cross_engine_mixing_rejected(self, engine):
        other = SecretSharingEngine(["a", "b"], seed=0)
        x = engine.input_vector(np.array([1]))
        y = other.input_vector(np.array([1]))
        with pytest.raises(ValueError):
            engine.add(x, y)

    def test_constant_vectors_require_no_communication(self, engine):
        before = engine.network.stats.messages
        c = engine.constant(np.array([5, 6]))
        assert np.array_equal(AdditiveSharing.reconstruct(c.shares), [5, 6])
        assert engine.network.stats.messages == before

    @given(
        xs=st.lists(int64s, min_size=1, max_size=20),
        ys=st.lists(int64s, min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiplication_matches_cleartext_property(self, xs, ys):
        n = min(len(xs), len(ys))
        engine = SecretSharingEngine(["a", "b", "c"], seed=7)
        x = engine.input_vector(np.array(xs[:n], dtype=np.int64))
        y = engine.input_vector(np.array(ys[:n], dtype=np.int64))
        expected = (
            np.array(xs[:n], dtype=np.int64).astype(np.uint64)
            * np.array(ys[:n], dtype=np.int64).astype(np.uint64)
        ).astype(np.int64)
        assert np.array_equal((x * y).reveal(), expected)


class TestComparisonsAndSelect:
    def test_less_than_and_equals(self, engine):
        x = engine.input_vector(np.array([1, 5, 5, 9]))
        y = engine.input_vector(np.array([2, 5, 4, 3]))
        assert np.array_equal(engine.less_than(x, y).reveal(), [1, 0, 0, 0])
        assert np.array_equal(engine.equals(x, y).reveal(), [0, 1, 0, 0])

    def test_comparison_against_scalar(self, engine):
        x = engine.input_vector(np.array([1, 5, 9]))
        assert np.array_equal(engine.less_than(x, 5).reveal(), [1, 0, 0])
        assert np.array_equal(engine.equals(x, 5).reveal(), [0, 1, 0])

    def test_comparisons_are_metered(self, engine):
        x = engine.input_vector(np.array([1, 2, 3]))
        engine.less_than(x, 2)
        assert engine.meter.comparisons == 3

    def test_select_multiplexes(self, engine):
        flag = engine.input_vector(np.array([1, 0, 1]))
        a = engine.input_vector(np.array([10, 20, 30]))
        b = engine.input_vector(np.array([-1, -2, -3]))
        # flag*a + (1-flag)*b, one Beaver multiplication.
        chosen = engine.add(engine.mul(flag, engine.sub(a, b)), b)
        assert np.array_equal(chosen.reveal(), [10, -2, 30])

    def test_reveal_to_specific_party(self, engine):
        x = engine.input_vector(np.array([42]))
        (values,) = engine.reveal_to_many([x], engine.party_names[1])
        assert values.tolist() == [42]

    def test_reveal_to_external_party_is_metered(self, engine):
        x = engine.input_vector(np.array([42, 43]))
        before = engine.network.stats.rounds
        engine.reveal_to_many([x], "external.example")
        assert engine.network.stats.rounds > before

    def test_equality_opens_one_vector_an_order_opens_two(self):
        """``x == y`` is decided by the one opened difference; it is exact at
        the ring's edges, where ``x - y`` wraps."""
        edge = 2**63 - 1
        xs = np.array([edge, -edge - 1, -edge - 1, 0, 7], dtype=np.int64)
        ys = np.array([edge, edge, -edge - 1, -edge - 1, 7], dtype=np.int64)
        engine = SecretSharingEngine(["a", "b", "c"], seed=7)
        x, y = engine.input_vector(xs), engine.input_vector(ys)

        before = engine.network.stats.copy()
        flags = engine.equals(x, y)
        after_eq = engine.network.stats.copy()
        order = engine.less_than(x, y)
        after_lt = engine.network.stats.copy()

        assert np.array_equal(flags.reveal(), xs == ys)
        assert np.array_equal(order.reveal(), xs < ys)
        # 2 messages of one round each, to the last party; the analytic
        # comparison round adds n * 8 bytes to both.
        metered = len(xs) * 8
        assert after_eq.bytes_sent - before.bytes_sent == 2 * len(xs) * 8 + metered
        assert after_lt.bytes_sent - after_eq.bytes_sent == 2 * 2 * len(xs) * 8 + metered
        assert after_eq.wire_rounds - before.wire_rounds == 1
        assert after_lt.wire_rounds - after_eq.wire_rounds == 1


class TestFlagOpening:
    """``open_flags`` opens a 0/1 vector in Z_2: the low bit of a sum is the
    XOR of the low bits, so one packed bit per row and party is enough."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 1001])
    def test_round_trip_at_every_byte_boundary(self, engine, n):
        flags = np.random.default_rng(n).integers(0, 2, n)
        shared = engine.input_vector(flags)
        before = engine.network.stats.copy()
        opened = engine.open_flags(shared)
        assert opened.dtype == np.bool_ and opened.shape == (n,)
        assert np.array_equal(opened, flags.astype(bool))
        assert np.array_equal(opened, engine.open(shared).astype(bool))
        stats = engine.network.stats
        assert stats.wire_rounds - before.wire_rounds == 2  # one each
        # 3 x 2 messages of ceil(n/8) bytes, then of 8n.
        assert stats.bytes_sent - before.bytes_sent == 6 * ((n + 7) // 8) + 6 * 8 * n

    @given(flags=st.lists(st.booleans(), max_size=70), parties=st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_low_bit_of_the_sum_is_the_xor_of_the_low_bits(self, flags, parties):
        engine = SecretSharingEngine([f"p{i}" for i in range(parties)], seed=len(flags))
        values = np.array(flags, dtype=np.int64)
        shared = engine.mul(engine.input_vector(values), engine.input_vector(values))
        assert np.array_equal(engine.open_flags(shared), np.array(flags, dtype=bool))
        xor = np.bitwise_xor.reduce([share & np.uint64(1) for share in shared.shares])
        assert np.array_equal(xor.astype(bool), np.array(flags, dtype=bool))

    def test_only_the_low_bits_leave_a_party(self, engine, monkeypatch):
        shared = engine.input_vector(np.array([1, 0, 1, 1, 0, 0, 0, 1, 1]))
        sent = []
        round_ = type(engine.network).round

        def recording(self, tag, sends, size_bytes):
            sent.extend((tag, payload, int(size_bytes)) for _s, _r, payload in sends)
            return round_(self, tag, sends, size_bytes)

        monkeypatch.setattr(type(engine.network), "round", recording)
        engine.open_flags(shared)
        assert len(sent) == 6
        for (tag, payload, size), share in zip(sent, np.repeat(np.arange(3), 2)):
            low_bits = (shared.shares[share] & np.uint64(1)).astype(np.uint8)
            assert (tag, size, payload.dtype) == ("open-flags", 2, np.uint8)
            assert np.array_equal(payload, np.packbits(low_bits))


class TestRelationWideRounds:
    """The multi-vector primitives draw the streams vector by vector, so the
    slices are those of the one-vector-per-round calls they replace."""

    COLUMNS = [np.array([5, -3, 2**40]), np.array([0, 0, 1]), np.array([-(2**62), 17, 9])]

    def test_input_vectors_shares_what_input_vector_shared(self):
        one, many = (SecretSharingEngine(["a", "b", "c"], seed=8) for _ in range(2))
        per_column = [one.input_vector(c, "b") for c in self.COLUMNS]
        together = many.input_vectors(self.COLUMNS, "b")
        for single, batched in zip(per_column, together):
            for mine, theirs in zip(single.shares, batched.shares):
                assert np.array_equal(mine, theirs)
        assert one.rng.bit_generator.state == many.rng.bit_generator.state
        assert many.meter.input_records == one.meter.input_records == 9
        assert (many.network.stats.rounds, one.network.stats.rounds) == (1, 3)
        # A private input is priced as a round but carries none.
        assert (many.network.stats.wire_rounds, one.network.stats.wire_rounds) == (0, 0)
        assert many.network.stats.bytes_sent == one.network.stats.bytes_sent

    def test_values_every_engine_knows_are_shared_with_no_round(self):
        """What the STP hands back in the clear is known to every engine, so
        each draws its own slices: nothing crosses and nothing is charged
        (the hybrid protocols price the sharing themselves)."""
        engine = SecretSharingEngine(["a", "b", "c"], seed=8)
        before = engine.meter.counts()
        shared = [engine.share_from_env(column) for column in self.COLUMNS]
        assert engine.meter.counts() == before
        assert engine.network.schedule == []
        for vector, column in zip(shared, self.COLUMNS):
            assert np.array_equal(AdditiveSharing.reconstruct(vector.shares), column)

    def test_the_many_forms_open_what_the_single_forms_open(self, engine):
        vectors = engine.input_vectors(self.COLUMNS)
        for opened in (
            engine.open_many(vectors),
            engine.env_open_many(vectors),
            engine.reveal_to_many(vectors, engine.party_names[2]),
            engine.reveal_to_many(vectors, "external.example"),
        ):
            assert len(opened) == 3
            for values, column, vector in zip(opened, self.COLUMNS, vectors):
                assert np.array_equal(values, column)
                assert np.array_equal(values, engine.open(vector))

    def test_metadata_side_needs_the_row_counts(self):
        engine = SecretSharingEngine(["a", "b"], seed=1, local_parties=["b"])
        with pytest.raises(ValueError, match="num_rows"):
            engine.input_vectors(None, "a")
        with pytest.raises(ValueError, match="got no values"):
            engine.input_vectors(None, "b", [3])
        with pytest.raises(ValueError, match="does not hold contributor"):
            engine.input_vectors([np.arange(3)], "a")


class TestMaskStreams:
    """Zero sharings and env reshares draw per-party mask streams: a sliced
    engine produces exactly the all-local engine's slices while drawing only
    the streams its own slices depend on."""

    VALUES = np.array([5, -3, 2**40, 0, -(2**62), 17, 9], dtype=np.int64)
    ORDER = np.array([6, 0, 3, 1, 5, 2, 4])

    @staticmethod
    def _steps(engine, column, payload):
        """Slices of every resharing step, in protocol order."""
        values = TestMaskStreams.VALUES
        reshared = engine.share_from_env(values).shares
        zero = engine.zero_sharing(len(values))
        shuffled = oblivious_shuffle(engine, [column, payload])
        key, moved = (engine.reshared_take(col, TestMaskStreams.ORDER) for col in (column, payload))
        return [reshared, zero, shuffled[0].shares, shuffled[1].shares, key.shares, moved.shares]

    @pytest.mark.parametrize("num_parties", [2, 3, 4])
    def test_sliced_engines_produce_the_all_local_slices(self, num_parties):
        parties = [f"p{i}.example" for i in range(num_parties)]
        values, order = self.VALUES, self.ORDER
        base = AdditiveSharing.share(values, num_parties, np.random.default_rng(5))
        base_payload = AdditiveSharing.share(values * 3, num_parties, np.random.default_rng(6))

        everyone = SecretSharingEngine(parties, seed=21)
        full = self._steps(
            everyone, SharedVector(everyone, list(base)), SharedVector(everyone, list(base_payload))
        )
        assert np.array_equal(AdditiveSharing.reconstruct(full[0]), values)
        assert not AdditiveSharing.reconstruct(full[1]).any()
        permutation = np.random.default_rng(21).permutation(len(values))
        assert np.array_equal(AdditiveSharing.reconstruct(full[2]), values[permutation])
        assert np.array_equal(AdditiveSharing.reconstruct(full[3]), values[permutation] * 3)
        assert np.array_equal(AdditiveSharing.reconstruct(full[4]), values[order])
        assert np.array_equal(AdditiveSharing.reconstruct(full[5]), values[order] * 3)

        last = num_parties - 1
        for i, party in enumerate(parties):
            solo = SecretSharingEngine(parties, seed=21, local_parties=[party])
            untouched = [rng.bit_generator.state for rng in solo._mask_rngs]
            steps = self._steps(
                solo, SharedVector(solo, [base[i]]), SharedVector(solo, [base_payload[i]])
            )
            for mine, everyones in zip(steps, full):
                assert len(mine) == 1
                assert np.array_equal(mine[0], everyones[i])
            for j, rng in enumerate(solo._mask_rngs):
                drawn = rng.bit_generator.state != untouched[j]
                # Party i's own mask; the last party's slice needs them all.
                assert drawn == (i == last or j == i)

    def test_masks_are_not_the_shared_environment_stream(self):
        """Resharing draws nothing from ``engine.rng``, so permutations stay
        in lockstep whichever slices an engine holds."""
        engine = SecretSharingEngine(["a", "b", "c"], seed=4)
        state = engine.rng.bit_generator.state
        engine.zero_sharing(100)
        engine.share_from_env(np.arange(100))
        assert engine.rng.bit_generator.state == state
