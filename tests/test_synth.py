import json
from collections import Counter
from datetime import date
from types import SimpleNamespace

import pytest

from outcry import (
    FeatureExtractor,
    GroundTruth,
    InjectedEvent,
    InvalidConfig,
    ScenarioConfig,
    evaluate,
    generate,
)
from outcry.cli import main
from outcry.synth import EventTruth

from conftest import parse_record


def scenario(**overrides):
    base = {
        "seed": 42,
        "days": 5,
        "ambient_rate": 20,
        "ambient_topics": [["giftcard", "rewards", "promo"],
                           ["barista", "latte", "espresso"]],
        "injected_events": [{
            "start_day": 3,
            "duration_days": 2,
            "peak_rate": 25,
            "term_pool": ["plant fire", "night shift", "union walkout"],
            "sentiment_range": [-2.0, -1.0],
            "credible_link_count": 2,
            "noncredible_link_count": 1,
        }],
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


class TestScenarioConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig.from_dict({"seed": 1, "days": 1, "bogus": True})

    def test_unknown_event_keys_rejected(self):
        with pytest.raises(InvalidConfig):
            scenario(injected_events=[{
                "start_day": 0, "duration_days": 1, "peak_rate": 1,
                "term_pool": ["a"], "sentiment_range": [-1, 0], "surprise": 1,
            }])

    def test_bad_sentiment_range_rejected(self):
        with pytest.raises(InvalidConfig):
            scenario(injected_events=[{
                "start_day": 0, "duration_days": 1, "peak_rate": 1,
                "term_pool": ["a"], "sentiment_range": [1.0, -1.0],
            }])

    def test_event_outside_days_rejected(self):
        with pytest.raises(InvalidConfig):
            scenario(days=2, injected_events=[{
                "start_day": 5, "duration_days": 1, "peak_rate": 1,
                "term_pool": ["a"], "sentiment_range": [-1, 0],
            }])

    def test_every_key_loads_with_its_declared_type(self):
        cfg = scenario(entity="Globex", start_date="2024-01-05", ambient_days=None,
                       ambient_entity_rate=1, vocabulary_noise=0, injected_events=[{
                           "start_day": 0, "duration_days": 1, "peak_rate": 1,
                           "term_pool": ["plant fire"], "sentiment_range": [-1, 0],
                           "credible_link_count": 0, "noncredible_link_count": 2,
                           "expected_controversial": False,
                       }])
        assert (cfg.entity, cfg.start_date, cfg.ambient_days) == ("Globex", date(2024, 1, 5), None)
        assert cfg.ambient_topics == (("giftcard", "rewards", "promo"),
                                      ("barista", "latte", "espresso"))
        assert type(cfg.ambient_entity_rate) is type(cfg.vocabulary_noise) is float
        assert cfg.injected_events == (InjectedEvent(
            start_day=0, duration_days=1, peak_rate=1, term_pool=("plant fire",),
            sentiment_range=(-1.0, 0.0), credible_link_count=0, noncredible_link_count=2,
            expected_controversial=False),)

    def test_ambient_needs_topics(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig.from_dict({"seed": 1, "days": 1, "ambient_rate": 5})


SCENARIO = {
    "seed": 1, "days": 3, "ambient_rate": 2, "ambient_topics": [["promo", "latte"]],
    "injected_events": [{"start_day": 1, "duration_days": 1, "peak_rate": 3,
                         "term_pool": ["plant fire"], "sentiment_range": [-2.0, -1.0]}],
}


@pytest.mark.parametrize("override", [
    {"seed": True},
    {"seed": "7"},
    {"days": 2.7},
    {"entity": 5},
    {"vocabulary_noise": True},
    {"ambient_topics": "ab"},
    {"event": {"expected_controversial": "false"}},
    {"event": {"term_pool": "cup"}},
    {"event": {"peak_rate": 2.9}},
    {"event": {"sentiment_range": [-2]}},
], ids=json.dumps)
def test_wrongly_typed_scenario_value_exits_1(tmp_path, capsys, override):
    scenario = dict(SCENARIO, **override)
    event = scenario.pop("event", {})
    scenario["injected_events"] = [dict(SCENARIO["injected_events"][0], **event)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "stream.jsonl"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestGenerate:
    def test_empty_scenario_is_empty(self):
        cfg = ScenarioConfig.from_dict({"seed": 1, "days": 1, "ambient_rate": 0})
        lines, truth = generate(cfg)
        assert lines == []
        assert truth.events == []

    def test_same_config_is_byte_identical(self):
        a, _ = generate(scenario())
        b, _ = generate(scenario())
        assert a == b

    def test_seed_changes_output(self):
        a, _ = generate(scenario())
        b, _ = generate(scenario(seed=43))
        assert a != b

    def test_ground_truth_lists_exactly_the_event_tweets(self):
        cfg = scenario(injected_events=[{
            "start_day": 0, "duration_days": 2, "peak_rate": 50,
            "term_pool": ["dock spill"], "sentiment_range": [-2.0, -1.0],
        }])
        lines, truth = generate(cfg)
        assert len(truth.events) == 1
        event_ids = set(truth.events[0].tweet_ids)
        assert len(event_ids) == 100
        assert len(event_ids) >= 5
        emitted_event_ids = set()
        for line in lines:
            tweet = parse_record(line)
            if "Dock Spill" in tweet.text:
                emitted_event_ids.add(tweet.posting_id)
        assert emitted_event_ids == event_ids

    def test_daily_emission_counts_match_config_exactly(self):
        cfg = scenario()
        lines, _ = generate(cfg)
        per_day = Counter()
        for line in lines:
            tweet = parse_record(line)
            per_day[tweet.creation_time.date()] += 1
        expected = {0: 20, 1: 20, 2: 20, 3: 45, 4: 45}
        got = {(day - cfg.start_date).days: n for day, n in per_day.items()}
        assert got == expected

    def test_timestamps_nondecreasing_ids_unique(self):
        lines, _ = generate(scenario())
        tweets = [parse_record(line) for line in lines]
        times = [t.creation_time for t in tweets]
        assert times == sorted(times)
        ids = [t.posting_id for t in tweets]
        assert len(ids) == len(set(ids))

    def test_event_sentiment_lands_in_configured_range(self):
        lines, truth = generate(scenario())
        extractor = FeatureExtractor()
        event_ids = set(truth.events[0].tweet_ids)
        seen = 0
        for line in lines:
            tweet = parse_record(line)
            if tweet.posting_id not in event_ids:
                continue
            vec = extractor.vector(tweet)
            assert vec is not None
            assert -2.0 <= vec.sentiment <= -1.0
            seen += 1
        assert seen == len(event_ids)

    def test_event_links_unique_credible_count(self, allowlist):
        from outcry import unique_credible_links

        lines, truth = generate(scenario())
        event_ids = set(truth.events[0].tweet_ids)
        extractor = FeatureExtractor()
        links = set()
        for line in lines:
            tweet = parse_record(line)
            if tweet.posting_id in event_ids:
                vec = extractor.vector(tweet)
                links.update(vec.links)
        assert unique_credible_links(links, allowlist) == 2
        assert len(links) == 3  # 2 credible + 1 noncredible

    def test_ambient_entity_rate_controls_mentions(self):
        no_entity, _ = generate(scenario(ambient_entity_rate=0.0, injected_events=[]))
        always, _ = generate(scenario(ambient_entity_rate=1.0, injected_events=[]))
        assert not any("AcmeCorp" in line for line in no_entity)
        assert all("AcmeCorp" in line for line in always)

    def test_truth_roundtrip(self, tmp_path):
        _, truth = generate(scenario())
        path = tmp_path / "truth.json"
        truth.save(path)
        loaded = GroundTruth.load(path)
        assert loaded.events[0].tweet_ids == truth.events[0].tweet_ids
        assert loaded.events[0].expected_controversial is True


def fake_state(members_by_cluster):
    clusters = {
        cid: SimpleNamespace(member_ids=list(ids))
        for cid, ids in members_by_cluster.items()
    }
    return SimpleNamespace(clusters=clusters)


def fake_report(cid, controversial=True):
    return SimpleNamespace(cluster_id=cid, controversial=controversial)


class TestEvaluate:
    def test_no_flags_means_zero_recall(self):
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c"])])
        result = evaluate([], fake_state({}), truth)
        assert result.recall == 0.0
        assert result.precision == 1.0
        assert result.f1 == 0.0

    def test_perfect_recovery(self):
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c"])])
        state = fake_state({1: ["a", "b", "c"]})
        result = evaluate([fake_report(1)], state, truth)
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_half_recovered(self):
        truth = GroundTruth(events=[
            EventTruth(0, True, ["a", "b", "c"]),
            EventTruth(1, True, ["x", "y", "z"]),
        ])
        state = fake_state({1: ["a", "b", "c"]})
        result = evaluate([fake_report(1)], state, truth)
        assert result.recall == 0.5
        assert result.precision == 1.0
        assert result.f1 == pytest.approx(2 * 0.5 / 1.5)

    def test_majority_containment_required(self):
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c", "d"])])
        # exactly half is not enough: containment must exceed 50%
        state = fake_state({1: ["a", "b", "noise1", "noise2"]})
        assert evaluate([fake_report(1)], state, truth).recall == 0.0
        state = fake_state({1: ["a", "b", "c"]})
        assert evaluate([fake_report(1)], state, truth).recall == 1.0

    def test_false_flag_lowers_precision(self):
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c"])])
        state = fake_state({1: ["a", "b", "c"], 2: ["q", "r", "s"]})
        result = evaluate([fake_report(1), fake_report(2)], state, truth)
        assert result.precision == 0.5
        assert result.recall == 1.0

    def test_unexpected_events_not_counted_in_recall(self):
        truth = GroundTruth(events=[
            EventTruth(0, True, ["a", "b"]),
            EventTruth(1, False, ["p", "q"]),
        ])
        state = fake_state({1: ["a", "b"]})
        result = evaluate([fake_report(1)], state, truth)
        assert result.recall == 1.0

    def test_cluster_reported_twice_rejected(self):
        # Counted once as a true positive but twice as a flag, it would give
        # precision 0.5; no report of a run lists a cluster twice.
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c"])])
        state = fake_state({1: ["a", "b", "c"]})
        with pytest.raises(ValueError, match="cluster_id 1 is reported twice"):
            evaluate([fake_report(1), fake_report(1)], state, truth)
        with pytest.raises(ValueError, match="cluster_id 1 is reported twice"):
            evaluate([fake_report(1), fake_report(1, controversial=False)], state, truth)

    def test_cluster_missing_from_state_rejected(self):
        # Every reported event is a candidate, and a candidate never expires,
        # so a reported cluster is in the state its run saved.
        truth = GroundTruth(events=[EventTruth(0, True, ["a", "b", "c"])])
        state = fake_state({1: ["a", "b", "c"]})
        for flagged in (True, False):
            with pytest.raises(ValueError, match="cluster_id 9 is not in the checkpoint"):
                evaluate([fake_report(1), fake_report(9, controversial=flagged)], state, truth)
