import itertools
import math
import random
import statistics
from datetime import date, timedelta

import pytest

from outcry import (
    ControversyParams,
    EventCluster,
    classify_and_rank,
    event_sentiment,
)
from outcry import controversy

from conftest import make_vector

TODAY = date(2024, 3, 8)


def build_cluster(cluster_id, sentiments, links=(), member_day=TODAY, terms=None):
    terms = terms or {"topic": 1}
    first = make_vector(f"c{cluster_id}m0", terms, sentiment=sentiments[0],
                        links=links, day=member_day)
    cluster = EventCluster(cluster_id, first)
    for i, s in enumerate(sentiments[1:], start=1):
        cluster.add(make_vector(f"c{cluster_id}m{i}", terms, sentiment=s,
                                day=member_day))
    return cluster


def volume_from(counts_by_offset):
    """counts_by_offset: {days-before-TODAY: count}"""
    return {TODAY - timedelta(days=offset): count for offset, count in counts_by_offset.items()}


def flat_volume(level=100, days=8):
    return volume_from({k: level for k in range(days)})


def spiking_volume(base=10, spike=40):
    counts = {k: base for k in range(1, 8)}
    counts[0] = spike
    return volume_from(counts)


def judge(cluster, volume, allowlist):
    """The report classify_and_rank gives a lone cluster on TODAY."""
    return classify_and_rank([cluster], volume, allowlist, ControversyParams(), TODAY)[0]


class TestBurstiness:
    def test_flat_series_velocity_one(self, allowlist):
        report = judge(build_cluster(1, [-1.0]), flat_volume(), allowlist)
        assert report.burst_velocity == pytest.approx(1.0)
        assert report.burst_flag is False

    def test_four_x_spike_flags(self, allowlist):
        report = judge(build_cluster(1, [-1.0]), spiking_volume(), allowlist)
        assert report.burst_velocity == pytest.approx(4.0)
        assert report.burst_flag is True

    def test_cluster_without_members_today_not_flagged(self, allowlist):
        cluster = build_cluster(1, [-1.0], member_day=TODAY - timedelta(days=3))
        report = judge(cluster, spiking_volume(), allowlist)
        assert report.burst_velocity == pytest.approx(4.0)
        assert report.burst_flag is False

    def test_zero_baseline_uses_floor_of_one(self, allowlist):
        # No prior-day volume: trailing mean is 0, clamped to 1, so the
        # velocity equals today's raw count.
        report = judge(build_cluster(1, [-1.0]), volume_from({0: 30}), allowlist)
        assert report.burst_velocity == pytest.approx(30.0)
        assert report.burst_flag is True

    def test_scale_invariance_with_live_baseline(self, allowlist):
        # Holds whenever the trailing mean stays above the floor of 1.
        cluster = build_cluster(1, [-1.0])
        base = spiking_volume()
        v1 = judge(cluster, base, allowlist).burst_velocity
        for k in (2, 3.5, 10):
            scaled = {day: count * k for day, count in base.items()}
            vk = judge(cluster, scaled, allowlist).burst_velocity
            assert abs(vk - v1) <= 1e-12

    def test_velocity_at_threshold_flags(self, allowlist):
        # The gate is "at or above" the threshold: 20 over a mean of 10 is 2.0.
        report = judge(build_cluster(1, [-1.0]), spiking_volume(base=10, spike=20), allowlist)
        assert report.burst_velocity == 2.0
        assert report.burst_flag is True

    @pytest.mark.parametrize("offset", [0, 1, 6, 7])
    def test_baseline_before_year_one_counts_as_zero(self, offset):
        # Baseline days before date.min cannot be built; they count as zero,
        # so the baseline mean is the days that exist over 7.
        today = date.min + timedelta(days=offset)
        volume = {date.min + timedelta(days=k): 21 for k in range(offset + 1)}
        expected = 21 / max(1.0, 21 * offset / 7)
        assert controversy.entity_velocity(volume, today) == pytest.approx(expected)


class TestEventSentiment:
    def test_uniform_members(self):
        assert event_sentiment(build_cluster(1, [-2.0, -2.0, -2.0])) == -2.0

    def test_symmetry_cancels(self):
        assert event_sentiment(build_cluster(1, [-1.0, 1.0])) == 0.0

    def test_mean_arithmetic(self):
        # oracle: (-2 - 1 + 0 + 0 - 1) / 5
        cluster = build_cluster(1, [-2.0, -1.0, 0.0, 0.0, -1.0])
        assert event_sentiment(cluster) == pytest.approx(-0.8, abs=1e-12)

    def test_matches_independent_mean_within_1e12(self):
        rng = random.Random(55)
        for _ in range(100):
            values = [rng.uniform(-2, 2) for _ in range(rng.randrange(1, 40))]
            cluster = build_cluster(1, values)
            assert abs(event_sentiment(cluster) - statistics.fmean(values)) <= 1e-12

    def test_bounded(self):
        rng = random.Random(56)
        for _ in range(100):
            values = [rng.uniform(-2, 2) for _ in range(rng.randrange(1, 20))]
            assert -2.0 <= event_sentiment(build_cluster(1, values)) <= 2.0


class TestNewsworthiness:
    def test_zero_links(self, allowlist):
        report = judge(build_cluster(1, [0.0]), flat_volume(), allowlist)
        assert (report.news_count, report.news_score) == (0, 0.0)

    def test_single_link_ln2(self, allowlist):
        cluster = build_cluster(1, [0.0], links={"https://nytimes.com/a"})
        report = judge(cluster, flat_volume(), allowlist)
        assert report.news_count == 1
        assert report.news_score == pytest.approx(math.log(2), abs=1e-12)

    def test_six_links_ln7(self, allowlist):
        links = {f"https://nytimes.com/a{i}" for i in range(6)}
        report = judge(build_cluster(1, [0.0], links=links), flat_volume(), allowlist)
        assert report.news_count == 6
        assert report.news_score == pytest.approx(math.log(7), abs=1e-12)


class TestClassifyAndRank:
    def _case(self, negative, bursty, newsy):
        sentiments = [-1.0] * 5 if negative else [1.0] * 5
        links = {"https://nytimes.com/story"} if newsy else {"https://blog.example/x"}
        cluster = build_cluster(1, sentiments, links=links)
        volume = spiking_volume() if bursty else flat_volume()
        return cluster, volume

    def test_gate_truth_table(self, allowlist):
        # Only (negative AND bursty AND newsworthy) may flag.
        for negative, bursty, newsy in itertools.product([False, True], repeat=3):
            cluster, volume = self._case(negative, bursty, newsy)
            report = classify_and_rank([cluster], volume, allowlist,
                                       ControversyParams(), TODAY)[0]
            expected = negative and bursty and newsy
            assert report.controversial is expected, (negative, bursty, newsy)

    def test_positive_sentiment_never_controversial(self, allowlist):
        cluster, volume = self._case(negative=False, bursty=True, newsy=True)
        report = classify_and_rank([cluster], volume, allowlist,
                                   ControversyParams(), TODAY)[0]
        assert report.controversial is False

    def test_fully_gated_event_is_controversial(self, allowlist):
        cluster, volume = self._case(negative=True, bursty=True, newsy=True)
        report = classify_and_rank([cluster], volume, allowlist,
                                   ControversyParams(), TODAY)[0]
        assert report.controversial is True
        assert report.burst_velocity == pytest.approx(4.0)
        assert report.news_count == 1

    def test_zero_mean_sentiment_is_not_controversial(self, allowlist):
        # Bursting and newsworthy, but a mean of exactly 0 is not negative.
        cluster = build_cluster(1, [-1.0, 1.0, 0.0], links={"https://nytimes.com/story"})
        report = judge(cluster, spiking_volume(), allowlist)
        assert report.sentiment_mean == 0.0
        assert report.burst_flag is True and report.news_count == 1
        assert report.controversial is False

    def test_rank_burst_term_capped_at_twice_the_threshold(self, allowlist):
        cluster = build_cluster(1, [-1.0] * 5, links={"https://nytimes.com/story"})
        at_four = judge(cluster, spiking_volume(spike=40), allowlist)
        at_six = judge(cluster, spiking_volume(spike=60), allowlist)
        assert (at_four.burst_velocity, at_six.burst_velocity) == (4.0, 6.0)
        assert at_four.rank_score == at_six.rank_score

    def test_rank_ties_broken_by_cluster_id(self, allowlist):
        a, volume = self._case(negative=True, bursty=True, newsy=True)
        b = build_cluster(2, [-1.0] * 5, links={"https://nytimes.com/story"})
        reports = classify_and_rank([b, a], volume, allowlist,
                                    ControversyParams(), TODAY)
        assert reports[0].rank_score == reports[1].rank_score
        assert [r.cluster_id for r in reports] == [1, 2]

    def test_rank_score_in_unit_interval(self, allowlist):
        rng = random.Random(77)
        for _ in range(100):
            sentiments = [rng.uniform(-2, 2) for _ in range(5)]
            links = {f"https://nytimes.com/{i}" for i in range(rng.randrange(0, 9))}
            cluster = build_cluster(1, sentiments, links=links)
            volume = volume_from({k: rng.randrange(1, 500) for k in range(8)})
            report = classify_and_rank([cluster], volume, allowlist,
                                       ControversyParams(), TODAY)[0]
            assert 0.0 <= report.rank_score <= 1.0

    def test_controversial_sorted_before_rest(self, allowlist):
        hot, volume = self._case(negative=True, bursty=True, newsy=True)
        calm = build_cluster(2, [1.5] * 5, links={"https://nytimes.com/story"})
        reports = classify_and_rank([calm, hot], volume, allowlist,
                                    ControversyParams(), TODAY)
        assert [r.controversial for r in reports] == [True, False]

    def test_ordering_is_deterministic(self, allowlist):
        rng = random.Random(88)
        clusters = []
        for cid in range(1, 9):
            sentiments = [rng.uniform(-2, 2) for _ in range(5)]
            links = {f"https://nytimes.com/{cid}/{i}" for i in range(rng.randrange(0, 4))}
            clusters.append(build_cluster(cid, sentiments, links=links))
        volume = spiking_volume()
        first = classify_and_rank(clusters, volume, allowlist, ControversyParams(), TODAY)
        second = classify_and_rank(clusters, volume, allowlist, ControversyParams(), TODAY)
        assert [r.cluster_id for r in first] == [r.cluster_id for r in second]

    def test_velocity_computed_once_and_flag_per_cluster(self, allowlist, monkeypatch):
        # The velocity is stream-wide; only the "gained a member today" half
        # of the burst flag depends on the cluster.
        volume = spiking_volume()
        clusters = [build_cluster(1, [-1.0] * 3),
                    build_cluster(2, [-1.0] * 3, member_day=TODAY - timedelta(days=1)),
                    build_cluster(3, [0.5] * 3)]
        calls = []
        velocity = controversy.entity_velocity
        monkeypatch.setattr(controversy, "entity_velocity",
                            lambda *a: calls.append(a) or velocity(*a))
        reports = classify_and_rank(clusters, volume, allowlist, ControversyParams(), TODAY)
        assert len(calls) == 1
        by_id = {r.cluster_id: r for r in reports}
        for cluster in clusters:
            alone = judge(cluster, volume, allowlist)
            assert by_id[cluster.cluster_id].burst_flag is alone.burst_flag
            assert by_id[cluster.cluster_id].burst_velocity == velocity(volume, TODAY)
        assert [by_id[i].burst_flag for i in (1, 2, 3)] == [True, False, True]

    def test_top_terms_reported_by_frequency(self, allowlist):
        cluster = build_cluster(1, [-1.0] * 5, terms={"walkout": 2, "plant": 1})
        report = classify_and_rank([cluster], flat_volume(), allowlist,
                                   ControversyParams(), TODAY)[0]
        assert report.top_terms[0] == ("walkout", 10)


class TestParams:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ControversyParams(rank_weights=(0.5, 0.5, 0.5))

    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            ControversyParams(burst_velocity_threshold=0.0)

    def test_defaults(self):
        params = ControversyParams()
        assert params.burst_velocity_threshold == 2.0
        assert params.rank_weights == (0.4, 0.3, 0.3)
        assert params.news_count_gate == 1
