"""Property: a flush depends only on the set of posted candidates.

IEEE min is associative and commutative, so min-combine delivery makes
the post-flush distance array a function of *what* was posted, not of
which shard posted it or in what order: re-splitting the same posts
across senders, shuffled, changes neither the array nor the returned
frontier, and re-delivering an already-flushed set into the warm array
applies nothing.  That is what lets shard steps post in any order on
any transport.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.exchange import FrontierExchange

N = 40
SHARDS = 4

posts_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SHARDS - 1),
        st.integers(min_value=0, max_value=N - 1),
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


def run_round(posts, dist=None):
    ex = FrontierExchange(SHARDS, N)
    for shard, target, d in posts:
        ex.post(shard, np.array([target], dtype=np.int64),
                np.array([d], dtype=np.float64))
    dist = np.full(N, np.inf) if dist is None else dist
    improved = ex.flush(dist)
    return dist, improved, ex.stats


def resplit(posts, seed):
    """The same candidates, shuffled and handed to random senders."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(posts))
    senders = rng.integers(0, SHARDS, size=len(posts))
    return [(int(s), posts[i][1], posts[i][2]) for i, s in zip(order, senders)]


@given(posts=posts_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_resplit_shuffled_posts_flush_the_same(posts, seed):
    dist, improved, stats = run_round(posts)
    other_dist, other_improved, other_stats = run_round(resplit(posts, seed))

    # bit-identical outcome: the authoritative array and the returned
    # frontier agree exactly, whoever posted what in whatever order
    np.testing.assert_array_equal(dist, other_dist)
    np.testing.assert_array_equal(improved, other_improved)

    # the carried volume depends on the per-sender dedup; what was
    # posted and what was applied do not
    assert other_stats.entries_posted == stats.entries_posted
    assert other_stats.entries_applied == stats.entries_applied


@given(posts=posts_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_redelivery_into_a_warm_array_is_idempotent(posts, seed):
    """Flushing the same candidate set twice (total re-delivery) applies
    zero entries the second time and leaves the array bit-identical."""
    dist, _, _ = run_round(posts)
    before = dist.copy()
    dist, improved, stats = run_round(resplit(posts, seed), dist=dist)
    np.testing.assert_array_equal(dist, before)
    assert len(improved) == 0
    assert stats.entries_applied == 0
