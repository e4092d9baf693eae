"""Property test: the weighted term index against the set-index oracle.

``reference.SetIndexClusterState`` is assignment as it was before each
posting carried its cluster's term sum: a set of ids per term, dot products
read from the clusters, a sorted scan of the candidates and a norm recomputed
on every read.  On streams with shared hub terms and integer counts, where
exact distance ties are common, with day changes that expire idle clusters and
one checkpoint round trip, the shipped clusterer must make the same decisions,
hold the same sums and norms, and keep its index, the only store of its sums,
equal to the one rebuilt from the oracle's live clusters.
"""

import math
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from outcry import ClusterParams, ClusterState

from conftest import BASE_TIME, make_vector
from reference import SetIndexClusterState

HUBS = ["hub0", "hub1", "hub2"]
OWN = ["a", "b", "c", "d", "e", "f", "g", "h"]
# Gaps between tweets: mostly the same hour, sometimes the next day or later.
GAPS = [timedelta(0)] * 4 + [timedelta(hours=1)] * 2 + [
    timedelta(hours=7), timedelta(days=1), timedelta(days=2)]

# Tweets of a hub and one term of their own, each count 1, make clusters at
# equal distance from a tweet of that hub alone, so exact ties are common.
hub_and_own = st.builds(lambda hub, own: {hub: 1, own: 1},
                        st.sampled_from(HUBS), st.sampled_from(OWN))
hubs_only = st.dictionaries(st.sampled_from(HUBS), st.just(1), min_size=1, max_size=2)
any_terms = st.dictionaries(st.sampled_from(HUBS + OWN), st.integers(1, 3),
                            min_size=1, max_size=4)
# Half the tweets are a hub and a term of their own.
term_counts = st.sampled_from(
    [hub_and_own, hub_and_own, hubs_only, any_terms]).flatmap(lambda s: s)
params = st.builds(
    ClusterParams,
    merge_threshold=st.sampled_from([0.2, 0.4, 0.45, 0.5, 0.6, 0.7, 1.0]),
    min_event_size=st.integers(1, 4),
    inactivity_expiry=st.sampled_from([timedelta(hours=6), timedelta(hours=24),
                                       timedelta(hours=48)]),
)


def rebuilt_index(state):
    index = {}
    for cid, cluster in state.clusters.items():
        for term, weight in cluster.term_sums.items():
            index.setdefault(term, {})[cid] = weight
    return index


def assert_same_state(state, oracle):
    assert list(state.clusters) == list(oracle.clusters)
    for cid, cluster in state.clusters.items():
        ref = oracle.clusters[cid]
        assert list(cluster.term_sums.items()) == list(ref.term_sums.items())
        assert cluster._norm_sq == ref._norm_sq
        assert cluster.norm == math.sqrt(cluster._norm_sq)
    # the oracle's sums as weights, no expired ids, no empty postings
    assert state._term_index == rebuilt_index(oracle)


def save_and_load(state):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        state.save(path)
        return ClusterState.load(path)


# No explain phase: on a failing stream it traced every branch of every
# replay and grew past a gigabyte; the shrunk example is report enough.
@settings(max_examples=300, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(params=params,
       stream=st.lists(st.tuples(st.sampled_from(GAPS), term_counts), min_size=10, max_size=40),
       save_at=st.integers(0, 39))
def test_weighted_index_matches_set_index_oracle(params, stream, save_at):
    state = ClusterState(params)
    oracle = SetIndexClusterState(params)
    ts = BASE_TIME
    current_day = None
    for i, (gap, terms) in enumerate(stream):
        if i == save_at % len(stream):
            state = save_and_load(state)
            assert_same_state(state, oracle)
        ts += gap
        vector = make_vector(f"t{i}", terms, ts=ts)
        if current_day is not None and vector.day != current_day:
            assert state.expire_inactive(ts) == oracle.expire_inactive(ts)
        current_day = vector.day
        assert state.assign(vector) == oracle.assign(vector)
        assert_same_state(state, oracle)
