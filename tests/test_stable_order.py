"""``repro.exec.kernels.stable_order``: the one stable ascending order of the
cleartext engine, the STP and the MPC environment.

Integer keys whose span fits in 16 bits take a radix path; every key must
get exactly the permutation ``np.argsort(kind="stable")`` returns, and the
share engine's environment orders must be the cleartext engine's.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exec.engine import ColumnarBackend
from repro.exec.kernels import RADIX_SPAN, stable_order
from repro.hybrid import SelectivelyTrustedParty
from repro.mpc.secretshare import SecretSharingEngine
from tests.conftest import PARTIES

DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint64]
#: Spans either side of the radix bound, and ``None`` for the dtype's whole range.
SPANS = [0, 1, 255, RADIX_SPAN - 1, RADIX_SPAN, 2**32, None]
I64 = np.iinfo(np.int64)


@st.composite
def integer_keys(draw):
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    full = int(info.max) - int(info.min)
    span = draw(st.sampled_from(SPANS))
    span = full if span is None else min(span, full)
    top = int(info.max) - span
    # The dtype's ends, zero, negatives, and the neighbourhood of ±2**62.
    anchors = [int(info.min), top, 0, -3, -(2**62), 2**62 - span, 2**62]
    lo = draw(
        st.sampled_from([a for a in anchors if info.min <= a <= top])
        | st.integers(int(info.min), top)
    )
    inner = draw(st.lists(st.integers(lo, lo + span), max_size=40))
    ends = [lo, lo + span] if draw(st.booleans()) else []
    return np.array(draw(st.permutations(inner + ends)), dtype=dtype)


def argsort(key):
    return np.argsort(key, kind="stable")


@given(key=integer_keys())
@example(key=np.array([], dtype=np.int64))
@example(key=np.array([7, 7, 7, 7], dtype=np.int64))
@example(key=np.array([RADIX_SPAN - 1, 0, 3, 0, RADIX_SPAN - 1], dtype=np.int64))
@example(key=np.array([RADIX_SPAN, 0, 3, 0, RADIX_SPAN], dtype=np.int64))
@example(key=np.array([-1, -(2**62), -5, -(2**62) + 1], dtype=np.int64))
@example(key=np.array([2**62, 2**62 - 9, 2**62], dtype=np.int64))
@example(key=np.array([I64.max, I64.min, 0, I64.max, I64.min], dtype=np.int64))
@example(key=np.array([I64.min + 2, I64.min, I64.min + 1, I64.min], dtype=np.int64))
@example(key=np.array([127, -128, 0, 5, -128, 127], dtype=np.int8))
@example(key=np.array([-(2**15), 2**15 - 1, 0, -1], dtype=np.int16))
@example(key=np.array([2**64 - 1, 2**64 - 3, 2**64 - 1], dtype=np.uint64))
@settings(max_examples=300, deadline=None)
def test_stable_order_is_the_stable_argsort(key):
    order = stable_order(key)
    assert order.dtype == np.intp
    assert order.tolist() == argsort(key).tolist()


#: Keys the ring carries as themselves: signed 64-bit values.
ring_keys = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(0, RADIX_SPAN), st.integers(I64.min, I64.max)),
    max_size=30,
)


@given(values=ring_keys)
@example(values=[])
@example(values=[4])
@settings(max_examples=40, deadline=None)
def test_the_environment_orders_as_the_cleartext_engine(values):
    keys = np.array(values, dtype=np.int64)
    order, same = SelectivelyTrustedParty("stp.example", ColumnarBackend()).sort_keys(keys)
    engine = SecretSharingEngine(PARTIES, seed=5)
    key = engine.input_vector(keys)
    assert engine.order_of(key).tolist() == order.tolist()
    env_order, env_same = engine.adjacent_groups(key, presorted=False)
    assert env_order.tolist() == order.tolist()
    assert env_same.tolist() == same.tolist()
    none, presorted_same = engine.adjacent_groups(key, presorted=True)
    assert none is None
    assert presorted_same.tolist() == (keys[:-1] == keys[1:]).tolist()
