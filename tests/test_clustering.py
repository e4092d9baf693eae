import copy
import json
import math
import random
import tracemalloc
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from outcry import (
    CREATED,
    MERGED,
    ClusterParams,
    ClusterState,
    DegenerateVector,
    EventCluster,
    event_sentiment,
)

from conftest import BASE_TIME, make_vector
from reference import ReferenceClusterer, batch_centroid


def random_vector(rng, i, vocab, max_terms=4, ts=BASE_TIME):
    k = rng.randrange(1, max_terms + 1)
    terms = {}
    for _ in range(k):
        term = rng.choice(vocab)
        terms[term] = terms.get(term, 0) + 1
    return make_vector(f"t{i}", terms, ts=ts + timedelta(seconds=i))


def decide(first_terms, probe_terms, merge_threshold):
    """What ``assign`` does with a probe after one singleton cluster."""
    state = ClusterState(ClusterParams(merge_threshold=merge_threshold))
    state.assign(make_vector("a", first_terms))
    return state.assign(make_vector("b", probe_terms))[1]


class TestDistance:
    """The cosine distance inside ``assign``, read off its decisions with
    thresholds on either side of the hand-computed value."""

    def test_identical_vector_and_singleton(self):
        # distance 0: merged under any positive threshold
        assert decide({"x": 2, "y": 1}, {"x": 2, "y": 1}, 1e-12) == MERGED

    def test_disjoint_supports(self):
        # distance 1.0: not merged even at the largest threshold, which is 1
        assert decide({"x": 1}, {"y": 1}, 1.0) == CREATED

    def test_partial_overlap_matches_hand_computed_cosine(self):
        # independent oracle: cos = (1*1) / (sqrt(2) * 1)
        expected = 1.0 - (1.0 * 1.0) / (math.sqrt(2.0) * 1.0)
        assert expected == pytest.approx(0.2929, abs=1e-4)
        assert decide({"a": 1}, {"a": 1, "b": 1}, expected + 1e-12) == MERGED
        assert decide({"a": 1}, {"a": 1, "b": 1}, expected - 1e-12) == CREATED

    def test_empty_vector_is_degenerate(self):
        state = ClusterState()
        state.assign(make_vector("a", {"x": 1}))
        with pytest.raises(DegenerateVector):
            state.assign(make_vector("b", {}))


class TestAssign:
    def test_first_vector_creates_singleton(self):
        state = ClusterState()
        cid, decision = state.assign(make_vector("a", {"x": 1}))
        assert decision == CREATED
        assert state.clusters[cid].member_count == 1

    def test_duplicate_merges_below_threshold(self):
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        state.assign(make_vector("a", {"x": 1, "y": 1}))
        cid, decision = state.assign(make_vector("b", {"x": 1, "y": 1}))
        assert decision == MERGED
        assert state.clusters[cid].member_count == 2

    def test_equidistant_tie_goes_to_lowest_cluster_id(self):
        # {a} and {b} are symmetric around {a, b}: both at 1 - 1/sqrt(2).
        state = ClusterState(ClusterParams(merge_threshold=0.9))
        state.assign(make_vector("a", {"a": 1}))
        state.assign(make_vector("b", {"b": 1}))
        cid, decision = state.assign(make_vector("c", {"a": 1, "b": 1}))
        assert decision == MERGED
        assert cid == 1

    def test_tie_goes_to_lowest_id_when_a_higher_id_is_scored_first(self):
        # the probe's first term reaches cluster 2 before cluster 1
        state = ClusterState(ClusterParams(merge_threshold=0.9))
        state.assign(make_vector("a", {"a": 1}))
        state.assign(make_vector("b", {"b": 1}))
        cid, decision = state.assign(make_vector("c", {"b": 1, "a": 1}))
        assert decision == MERGED
        assert cid == 1

    def test_distance_rounded_below_zero_ties_at_zero(self):
        # {x: 7, y: 7} rounds a hair away from {x: 1, y: 1}, so under a tiny
        # threshold it opens cluster 2.  {x: 3, y: 3} then scores 0.0 against
        # cluster 1 and -2.2e-16 against cluster 2; both count as 0, and the
        # tie goes to the lowest id.
        state = ClusterState(ClusterParams(merge_threshold=1e-300))
        state.assign(make_vector("a", {"x": 1, "y": 1}))
        assert state.assign(make_vector("b", {"x": 7, "y": 7})) == (2, CREATED)
        assert state.assign(make_vector("c", {"x": 3, "y": 3})) == (1, MERGED)

    @staticmethod
    def _hub_state(*more):
        """Cluster 1 {h}, cluster 2 {h, z, y, w}, then ``more``, under θ 0.4:
        h's postings list, two long, is longer than any other's."""
        state = ClusterState(ClusterParams(merge_threshold=0.4))
        assert state.assign(make_vector("a", {"h": 1})) == (1, CREATED)
        assert state.assign(make_vector("b", {"h": 1, "z": 1, "y": 1, "w": 1})) == (2, CREATED)
        for i, terms in enumerate(more):
            assert state.assign(make_vector(f"m{i}", terms)) == (3 + i, CREATED)
        return state

    def test_cluster_only_in_the_longest_list_wins_when_closest(self):
        # {h, a} is 0.29 from cluster 1 and 0.65 from cluster 3, which its
        # shorter list a finds; cluster 1 shares only h with it.
        state = self._hub_state({"a": 1, "q": 1, "r": 1, "s": 1})
        assert state.assign(make_vector("p", {"h": 1, "a": 1})) == (1, MERGED)

    def test_tie_at_the_bound_goes_to_the_lower_id_in_the_longest_list(self):
        # {h, a} is 1 - 1/sqrt(2) from both {a} (cluster 3) and {h}
        # (cluster 1), exactly the bound for a cluster only in h's list.
        state = self._hub_state({"a": 1})
        assert state.assign(make_vector("p", {"h": 1, "a": 1})) == (1, MERGED)

    def test_tie_between_the_shorter_lists_goes_to_the_lower_id(self):
        # {a, b, h} is 1 - 1/sqrt(3) from both {a} and {b}; h's list is longer.
        state = ClusterState(ClusterParams(merge_threshold=0.45))
        for i, terms in enumerate(({"a": 1}, {"b": 1}, {"h": 1, "p": 1, "q": 1, "r": 1},
                                   {"h": 1, "s": 1, "t": 1, "u": 1})):
            assert state.assign(make_vector(f"c{i}", terms)) == (i + 1, CREATED)
        assert state.assign(make_vector("p", {"b": 1, "a": 1, "h": 1})) == (1, MERGED)

    def test_longest_list_is_not_read_when_no_cluster_there_can_win(self):
        class Unread(dict):
            def items(self):
                raise AssertionError("the longest postings list was iterated")

        # {h, a, b, c} is 0.13 from {a, b, c}; a cluster only in h's list is
        # at least 1 - 1/2 away.
        state = self._hub_state({"a": 1, "b": 1, "c": 1})
        state._term_index["h"] = Unread(state._term_index["h"])
        assert state.assign(make_vector("p", {"h": 1, "a": 1, "b": 1, "c": 1})) == (3, MERGED)
        assert state.clusters[3].term_sums == {"a": 2, "b": 2, "c": 2, "h": 1}

    def test_far_vector_creates_new_cluster(self):
        state = ClusterState(ClusterParams(merge_threshold=0.3))
        state.assign(make_vector("a", {"x": 1}))
        cid, decision = state.assign(make_vector("b", {"y": 1}))
        assert decision == CREATED
        assert cid == 2

    def test_empty_vector_rejected(self):
        state = ClusterState()
        with pytest.raises(DegenerateVector):
            state.assign(make_vector("a", {}))

    @pytest.mark.parametrize("sentiment", [math.inf, -math.inf, math.nan])
    def test_non_finite_sentiment_rejected_before_any_change(self, sentiment):
        # A merge would otherwise turn the cluster's partials into [nan, inf].
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        state.assign(make_vector("a", {"x": 1}, sentiment=1.0))
        before = (state.admitted, state.next_id, state.payload(),
                  copy.deepcopy(state._term_index))
        for terms in ({"x": 1}, {"y": 1}):  # would merge; would create
            with pytest.raises(ValueError, match="sentiment must be a finite number"):
                state.assign(make_vector("b", terms, sentiment=sentiment))
            assert (state.admitted, state.next_id, state.payload(),
                    state._term_index) == before

    @pytest.mark.parametrize("terms", [{"h": 0}, {"x": 0}, {"h": -1, "g": 1}, {"g": 1, "x": 0.5}])
    def test_term_count_below_one_rejected_before_any_change(self, terms):
        # {h: 0} alone would open a cluster with norm 0, which the next {h: 1}
        # divides by; {h: -1, g: 1} would leave a term sum that load refuses.
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        state.assign(make_vector("a", {"x": 1}))
        before = (state.admitted, state.next_id, state.payload(),
                  copy.deepcopy(state._term_index))
        with pytest.raises(ValueError, match="term counts must be >= 1"):
            state.assign(make_vector("b", terms))
        assert (state.admitted, state.next_id, state.payload(), state._term_index) == before
        assert state.assign(make_vector("c", {"h": 1})) == (2, CREATED)


class TestCandidateEvents:
    def _filled(self, sizes, min_event_size=5):
        state = ClusterState(ClusterParams(merge_threshold=0.5,
                                           min_event_size=min_event_size))
        for c, size in enumerate(sizes):
            for m in range(size):
                state.assign(make_vector(f"c{c}m{m}", {f"term{c}": 1}))
        return state

    def test_default_minimum_size_is_five(self):
        assert ClusterParams().min_event_size == 5

    def test_all_below_threshold_yields_nothing(self):
        state = self._filled([4, 3, 1])
        assert state.candidate_events() == []

    def test_boundary_size_included(self):
        state = self._filled([5])
        events = state.candidate_events()
        assert len(events) == 1 and events[0].member_count == 5

    def test_filter_and_descending_sort(self):
        state = self._filled([7, 5, 3])
        events = state.candidate_events()
        assert [c.member_count for c in events] == [7, 5]

    def test_size_ties_ordered_by_cluster_id(self):
        state = self._filled([5, 5])
        events = state.candidate_events()
        assert [c.cluster_id for c in events] == [1, 2]


class TestExpireInactive:
    def test_fresh_state_expires_nothing(self):
        state = ClusterState()
        state.assign(make_vector("a", {"x": 1}, ts=BASE_TIME))
        assert state.expire_inactive(BASE_TIME + timedelta(hours=1)) == 0

    def test_stale_singleton_expires(self):
        state = ClusterState(ClusterParams(inactivity_expiry=timedelta(hours=72)))
        state.assign(make_vector("a", {"x": 1}, ts=BASE_TIME))
        assert state.expire_inactive(BASE_TIME + timedelta(hours=100)) == 1
        assert not state.clusters
        assert state.expired_members == 1

    def test_stale_candidate_event_is_retained(self):
        state = ClusterState(ClusterParams(merge_threshold=0.5, min_event_size=5))
        for m in range(5):
            state.assign(make_vector(f"m{m}", {"x": 1}, ts=BASE_TIME))
        assert state.expire_inactive(BASE_TIME + timedelta(days=30)) == 0
        assert len(state.clusters) == 1

    def test_expired_terms_leave_the_index(self):
        state = ClusterState()
        state.assign(make_vector("a", {"gone": 1}, ts=BASE_TIME))
        state.expire_inactive(BASE_TIME + timedelta(days=30))
        cid, decision = state.assign(
            make_vector("b", {"gone": 1}, ts=BASE_TIME + timedelta(days=30)))
        assert decision == CREATED


class TestTermSums:
    """A cluster's term sums are its postings in the weighted index."""

    def test_sums_are_the_index_weights_as_exact_ints(self):
        state = ClusterState(ClusterParams(merge_threshold=0.9))
        state.assign(make_vector("a", {"x": 2, "y": 1}))
        state.assign(make_vector("b", {"z": 1, "x": 1}))
        cluster = state.clusters[1]
        assert list(cluster.term_sums.items()) == [("x", 3), ("y", 1), ("z", 1)]
        assert all(type(w) is int for w in cluster.term_sums.values())
        assert state._term_index == {"x": {1: 3}, "y": {1: 1}, "z": {1: 1}}
        assert cluster.centroid == {"x": 1.5, "y": 0.5, "z": 0.5}

    def test_terms_the_cluster_has_cost_a_member_nothing(self):
        """Growth per member of one cluster whose 50 terms every member
        repeats: its id's text (16 bytes here) and the buffer's
        over-allocation.  Listing each term again would add 400."""
        terms = {f"w{k}": 1 for k in range(50)}
        n = 2_000
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        state.assign(make_vector("syn-000-00000", terms))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1, n + 1):
                state.assign(make_vector(f"syn-000-{i:05d}", terms))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(state.clusters) == 1
        assert state.clusters[1].top_terms(2) == [("w0", n + 1), ("w1", n + 1)]
        assert (after - before) / n < 40

    def test_a_cluster_on_its_own_keeps_a_private_index(self):
        one = EventCluster(1, make_vector("a", {"x": 1}))
        two = EventCluster(1, make_vector("b", {"x": 5}))
        one.add(make_vector("c", {"x": 1, "y": 2}))
        assert one.term_sums == {"x": 2, "y": 2} and two.term_sums == {"x": 5}

    def test_saved_sums_are_floats_and_load_back_as_ints(self, tmp_path):
        state = ClusterState(ClusterParams(merge_threshold=0.9))
        state.assign(make_vector("a", {"x": 3}))
        state.assign(make_vector("b", {"x": 1, "y": 1}))
        path = tmp_path / "state.json"
        state.save(path)
        assert '"x": 4.0' in path.read_text()
        assert state.payload()["clusters"][0]["term_sums"] == {"x": 4.0, "y": 1.0}
        assert all(type(w) is float
                   for w in state.payload()["clusters"][0]["term_sums"].values())
        restored = ClusterState.load(path)
        sums = restored.clusters[1].term_sums
        assert sums == {"x": 4, "y": 1} and all(type(w) is int for w in sums.values())
        assert restored._term_index == state._term_index

    @pytest.mark.parametrize("weight", [2.5, 2.0**53])
    def test_a_sum_that_is_no_exact_int_does_not_load(self, tmp_path, weight):
        # Such a sum would make the order assign sums a dot in matter.
        state = ClusterState()
        state.assign(make_vector("a", {"x": 2, "y": 1}))
        path = tmp_path / "state.json"
        state.save(path)
        document = json.loads(path.read_text())
        document["clusters"][0]["term_sums"]["y"] = weight
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="is not a whole number below 2\\*\\*53"):
            ClusterState.load(path)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_a_sum_below_one_does_not_load(self, tmp_path, weight):
        # Each sum adds counts of at least 1; a sum of 0 would give the cluster
        # a norm of 0, and the next assign on its terms would divide by it.
        state = ClusterState()
        state.assign(make_vector("a", {"h": 1}))
        path = tmp_path / "state.json"
        state.save(path)
        document = json.loads(path.read_text())
        document["clusters"][0]["term_sums"]["h"] = weight
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="is below 1"):
            ClusterState.load(path)

    def test_a_cluster_with_no_members_does_not_load(self, tmp_path):
        # A cluster is created with its first member; event_sentiment of an
        # empty one raises.
        state = ClusterState()
        state.assign(make_vector("a", {"h": 1}))
        path = tmp_path / "state.json"
        state.save(path)
        document = json.loads(path.read_text())
        document["clusters"][0].update(member_ids=[], per_day_counts={}, per_day_sentiment={})
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="cluster 1 has no members"):
            ClusterState.load(path)


class TestParams:
    def test_threshold_above_one_capped(self):
        assert ClusterParams(merge_threshold=1.5).merge_threshold == 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ClusterParams(merge_threshold=0.0)
        with pytest.raises(ValueError):
            ClusterParams(min_event_size=0)
        with pytest.raises(ValueError):
            ClusterParams(inactivity_expiry=timedelta(0))


class TestStreamInvariants:
    def test_partition_property(self):
        rng = random.Random(314)
        vocab = [f"v{i}" for i in range(12)]
        for trial in range(30):
            state = ClusterState(ClusterParams(merge_threshold=rng.uniform(0.3, 0.9)))
            n = rng.randrange(1, 50)
            for i in range(n):
                state.assign(random_vector(rng, i, vocab))
            member_total = sum(c.member_count for c in state.clusters.values())
            assert member_total + state.expired_members == state.admitted == n
            all_ids = [m for c in state.clusters.values() for m in c.member_ids]
            assert len(all_ids) == len(set(all_ids))

    def test_incremental_centroid_matches_batch_mean(self):
        rng = random.Random(2718)
        vocab = [f"v{i}" for i in range(10)]
        for trial in range(20):
            state = ClusterState(ClusterParams(merge_threshold=rng.uniform(0.3, 0.9)))
            vectors = {}
            for i in range(rng.randrange(5, 60)):
                vec = random_vector(rng, i, vocab)
                vectors[vec.tweet_id] = vec
                state.assign(vec)
            for cluster in state.clusters.values():
                expected = batch_centroid([vectors[m] for m in cluster.member_ids])
                got = cluster.centroid
                assert set(got) == set(expected)
                for term, weight in expected.items():
                    assert abs(got[term] - weight) <= 1e-9

    def test_per_cluster_bookkeeping_consistent(self):
        rng = random.Random(6)
        vocab = [f"v{i}" for i in range(8)]
        state = ClusterState(ClusterParams(merge_threshold=0.6))
        sentiments = {}
        for i in range(80):
            vec = random_vector(rng, i, vocab)._replace(sentiment=rng.uniform(-2, 2))
            sentiments[vec.tweet_id] = vec.sentiment
            state.assign(vec)
        for c in state.clusters.values():
            assert c.member_count == len(c.member_ids)
            assert (math.fsum(c.sentiment_partials)
                    == math.fsum(sentiments[m] for m in c.member_ids))
            assert sum(c.per_day_counts.values()) == c.member_count

    def test_tiny_threshold_makes_singletons(self):
        # distinct supports keep every distance strictly positive
        state = ClusterState(ClusterParams(merge_threshold=1e-9))
        for i in range(10):
            cid, decision = state.assign(make_vector(f"t{i}", {f"term{i}": 1, "shared": 1}))
            assert decision == CREATED
        assert len(state.clusters) == 10

    def test_threshold_one_merges_identical_supports(self):
        state = ClusterState(ClusterParams(merge_threshold=1.0))
        state.assign(make_vector("a", {"x": 3, "y": 1}))
        for i in range(5):
            cid, decision = state.assign(make_vector(f"b{i}", {"x": 3, "y": 1}))
            assert decision == MERGED

    def test_determinism(self):
        rng = random.Random(1001)
        vocab = [f"v{i}" for i in range(9)]
        stream = [random_vector(rng, i, vocab) for i in range(60)]

        def run():
            state = ClusterState(ClusterParams(merge_threshold=0.65))
            decisions = [state.assign(v) for v in stream]
            snapshot = {
                cid: (tuple(c.member_ids), c.term_sums)
                for cid, c in state.clusters.items()
            }
            return decisions, snapshot

        assert run() == run()

    def test_matches_reference_implementation(self):
        # Spot-check here; the acceptance suite runs the full 200-stream sweep.
        rng = random.Random(42424)
        vocab = [f"v{i}" for i in range(10)]
        for trial in range(40):
            threshold = rng.uniform(0.25, 0.95)
            stream = [random_vector(rng, i, vocab) for i in range(rng.randrange(1, 31))]
            state = ClusterState(ClusterParams(merge_threshold=threshold))
            oracle = ReferenceClusterer(threshold)
            for vec in stream:
                state.assign(vec)
                oracle.assign(vec)
            got = {frozenset(c.member_ids) for c in state.clusters.values()}
            assert got == oracle.partition()


class TestCheckpoint:
    def _stream_state(self, n=40, seed=5):
        rng = random.Random(seed)
        vocab = [f"v{i}" for i in range(8)]
        state = ClusterState(ClusterParams(merge_threshold=0.6))
        vectors = [random_vector(rng, i, vocab) for i in range(n)]
        for vec in vectors:
            state.assign(vec)
        return state, rng, vocab

    def test_save_load_roundtrip_continues_identically(self, tmp_path):
        state, rng, vocab = self._stream_state()
        path = tmp_path / "state.json"
        state.save(path)
        restored = ClusterState.load(path)

        probes = [random_vector(rng, 1000 + i, vocab) for i in range(20)]
        for probe in probes:
            assert state.assign(probe) == restored.assign(probe)

    def test_no_links_read_back_as_the_shared_empty_links(self, tmp_path):
        state = ClusterState(ClusterParams())
        state.assign(make_vector("a", {"x": 1}))
        state.assign(make_vector("b", {"y": 1}, links=["https://reuters.com/a"]))
        path = tmp_path / "state.json"
        state.save(path)
        assert json.loads(path.read_text())["clusters"][0]["links"] == []
        restored = ClusterState.load(path)
        assert restored.clusters[1].links is state.clusters[1].links
        assert restored.clusters[2].links == {"https://reuters.com/a"}
        again = tmp_path / "again.json"
        restored.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_int_id_and_sentiment_save_a_checkpoint_that_loads(self, tmp_path):
        state = ClusterState(ClusterParams())
        state.assign(make_vector(7, {"a": 1}, sentiment=-1))
        path = tmp_path / "state.json"
        state.save(path)
        restored = ClusterState.load(path)
        assert restored.clusters[1].member_ids == ["7"]
        assert restored.clusters[1].sentiment_partials == [-1.0]

    def test_checkpoint_bytes_stable(self, tmp_path):
        state, _, _ = self._stream_state()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        state.save(p1)
        state.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_is_versioned(self, tmp_path):
        state, _, _ = self._stream_state(n=5)
        path = tmp_path / "state.json"
        state.save(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 3

        for version in (1, 2, 99):
            payload["schema_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"unsupported checkpoint version: {version}"):
                ClusterState.load(path)

    @pytest.mark.parametrize("vectors, clusters", [(0, 0), (1, 1), (40, 5)])
    def test_save_writes_the_payload_as_dumps_does(self, tmp_path, vectors, clusters):
        """``save`` streams one cluster at a time; the bytes are still those
        of the whole document dumped at once."""
        state, _, _ = self._stream_state(n=vectors)
        assert len(state.clusters) == clusters
        path = tmp_path / "state.json"
        state.save(path)
        assert path.read_text(encoding="utf-8") == json.dumps(state.payload(), indent=1) + "\n"

    def test_loaded_days_share_one_date_per_day(self, tmp_path):
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        for i in range(12):  # three clusters, each on four days
            state.assign(make_vector(f"t{i}", {f"x{i % 3}": 1},
                                     ts=BASE_TIME + timedelta(days=i // 3)))
        path = tmp_path / "state.json"
        state.save(path)
        restored = ClusterState.load(path)
        keys = [d for c in restored.clusters.values()
                for per_day in (c.per_day_counts, c.per_day_sentiment) for d in per_day]
        assert len(keys) == 24
        assert len({id(d) for d in keys}) == len(set(keys)) == 4

    @staticmethod
    def _feed(state, vectors, day=None):
        """Assign ``vectors`` as a run does, expiring at each day change;
        ``day`` is the day of the vector before the first one."""
        decisions = []
        for vector in vectors:
            if day is not None and vector.day != day:
                state.expire_inactive(vector.timestamp)
            day = vector.day
            decisions.append(state.assign(vector))
        return decisions

    @staticmethod
    def _facts(state):
        return (state.payload(), state.admitted, state.expired_clusters,
                {cid: c.norm for cid, c in state.clusters.items()})

    def test_resumed_run_matches_an_uninterrupted_one(self, tmp_path):
        # Five hours apart on a small vocabulary, over 34 days: some clusters
        # grow to events and some sit idle past the expiry.
        rng = random.Random(11)
        vocab = [f"v{i}" for i in range(14)]
        vectors = [random_vector(rng, i, vocab, ts=BASE_TIME + timedelta(hours=5 * i))
                   for i in range(160)]
        params = ClusterParams(merge_threshold=0.6, min_event_size=4,
                               inactivity_expiry=timedelta(hours=36))
        whole = ClusterState(params)
        decisions = self._feed(whole, vectors)
        assert whole.expired_clusters > 0 and whole.candidate_events()
        n = len(vectors)
        for k in (0, 1, n // 2, n - 1):
            state = ClusterState(params)
            head = self._feed(state, vectors[:k])
            path = tmp_path / f"cut{k}.json"
            state.save(path)
            restored = ClusterState.load(path)
            assert self._facts(restored) == self._facts(state)
            tail = self._feed(restored, vectors[k:], vectors[k - 1].day if k else None)
            assert head + tail == decisions
            assert self._facts(restored) == self._facts(whole)

    def test_next_id_at_a_live_cluster_id_does_not_load(self, tmp_path):
        # Clusters 1 and 2 expire; 3 lives.  With next_id 3 the counters still
        # agree (one expired cluster, two expired members), but the next
        # created cluster would take id 3 from the live one.
        state = ClusterState(ClusterParams(inactivity_expiry=timedelta(hours=1)))
        for i, term in enumerate("xyz"):
            state.assign(make_vector(f"t{i}", {term: 1}, ts=BASE_TIME + timedelta(hours=2 * i)))
            state.expire_inactive(BASE_TIME + timedelta(hours=2 * i))
        assert (set(state.clusters), state.expired_clusters, state.expired_members) == ({3}, 2, 2)
        path = tmp_path / "state.json"
        state.save(path)
        document = json.loads(path.read_text())
        document["next_id"] = 3
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"cluster id 3 is not in \[1, next_id 3\)"):
            ClusterState.load(path)

    def test_counters_survive_roundtrip(self, tmp_path):
        state, _, _ = self._stream_state()
        path = tmp_path / "state.json"
        state.save(path)
        restored = ClusterState.load(path)
        assert restored.admitted == state.admitted
        assert restored.next_id == state.next_id
        assert set(restored.clusters) == set(state.clusters)


# Sentiments that cancel, underflow or dwarf each other, beside ordinary ones.
ADVERSARIAL = [1e16, -1e16, 1.0, -1.0, 1e100, -1e100, 2.0 ** -60, -(2.0 ** -60),
               1e-300, 5e-324, 0.1, -0.0]


class TestSentimentPartials:
    """A cluster keeps its members' sentiments as Shewchuk partials whose
    math.fsum is math.fsum of the sentiments, exactly."""

    @staticmethod
    def _cluster(values):
        cluster = EventCluster(1, make_vector("m0", {"x": 1}, sentiment=values[0]))
        for i, s in enumerate(values[1:], start=1):
            cluster.add(make_vector(f"m{i}", {"x": 1}, sentiment=s))
        return cluster

    @given(st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from(ADVERSARIAL),
                              st.floats(-1e-300, 1e-300)), min_size=1, max_size=60))
    @example([1e16, 1.0, -1e16])
    @example([1e-300] * 500 + [1.0, -1.0])
    @example([0.1] * 10 + [-1.0])
    @settings(max_examples=300, deadline=None)
    def test_fsum_of_partials_is_fsum_of_sentiments(self, values):
        cluster = self._cluster(values)
        assert math.fsum(cluster.sentiment_partials) == math.fsum(values)
        assert event_sentiment(cluster) == math.fsum(values) / len(values)


class TestLinks:
    def test_linkless_clusters_share_one_empty_links_object(self):
        state = ClusterState(ClusterParams())
        for tweet_id, term in (("a", "x"), ("b", "y")):
            state.assign(make_vector(tweet_id, {term: 1}))
        shared = state.clusters[1].links
        assert state.clusters[2].links is shared and not shared

        state.assign(make_vector("c", {"x": 1}, links=["https://reuters.com/a"]))
        state.assign(make_vector("d", {"z": 1}, links=["https://apnews.com/b"]))
        state.assign(make_vector("e", {"x": 1}, links=["https://apnews.com/c"]))
        assert state.clusters[1].links == {"https://reuters.com/a", "https://apnews.com/c"}
        assert state.clusters[3].links == {"https://apnews.com/b"}
        assert state.clusters[1].links is not state.clusters[3].links
        assert state.clusters[2].links is shared and not shared

    def test_a_linkless_singleton_on_one_day_costs_no_links_set(self):
        """Growth per linkless singleton cluster, every vector on one day:
        about 1,210 bytes on Python 3.11 for the cluster, its term list,
        per-day dicts, partials, member text and its term's postings.  An
        empty ``set()`` per cluster would add 216."""
        n = 5_000
        day = BASE_TIME.date()
        vectors = [make_vector(f"syn-000-{i:05d}", {f"t{i}": 1},
                               ts=BASE_TIME + timedelta(seconds=i), day=day)
                   for i in range(2 * n)]
        state = ClusterState(ClusterParams())
        tracemalloc.start()
        try:
            for vector in vectors[:n]:
                state.assign(vector)
            before = tracemalloc.get_traced_memory()[0]
            for vector in vectors[n:]:
                state.assign(vector)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(state.clusters) == 2 * n
        assert (after - before) / n < 1470


# Ids that JSON escapes (a quote, a backslash, a newline, a lone surrogate,
# an astral character) or that look like separators.
AWKWARD_IDS = ["", "\n", '"', "\\", "a,b", " ", "\ud800", "\U0001F600", "\u2028"]


class TestMemberIds:
    """A cluster keeps its member ids as JSON text in one buffer; they read
    back, save and load as the ids themselves."""

    @given(st.lists(st.one_of(st.text(), st.sampled_from(AWKWARD_IDS)), min_size=1, max_size=30))
    @example(AWKWARD_IDS)
    @example(["only"])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ids_round_trip(self, tmp_path, ids):
        # Every third id opens or joins a second cluster.
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        for i, tweet_id in enumerate(ids):
            state.assign(make_vector(tweet_id, {"y" if i % 3 == 2 else "x": 1}))
        assert set(state.clusters) == ({1, 2} if len(ids) > 2 else {1})
        for cid, cluster in state.clusters.items():
            joined = [t for i, t in enumerate(ids) if (i % 3 == 2) == (cid == 2)]
            assert cluster.member_ids == joined
            assert cluster.member_count == len(joined)

        path = tmp_path / "state.json"
        state.save(path)
        assert path.read_text(encoding="utf-8") == json.dumps(state.payload(), indent=1) + "\n"
        restored = ClusterState.load(path)
        assert ({cid: (c.member_ids, c.member_count) for cid, c in restored.clusters.items()}
                == {cid: (c.member_ids, c.member_count) for cid, c in state.clusters.items()})

    def test_a_member_leaves_a_few_bytes_behind(self):
        """Growth per member of one cluster between n and 2n members: the id's
        text and newline (16 bytes here) and the buffer's over-allocation.  A
        ``str`` per id in a list costs about 70."""
        n = 10_000
        state = ClusterState(ClusterParams(merge_threshold=0.5))
        tracemalloc.start()
        try:
            for i in range(n):
                state.assign(make_vector(f"syn-000-{i:05d}", {"x": 1}))
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n, 2 * n):
                state.assign(make_vector(f"syn-000-{i:05d}", {"x": 1}))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(state.clusters) == 1 and state.clusters[1].member_count == 2 * n
        assert (after - before) / n < 40
