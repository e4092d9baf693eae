"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances and runtime budgets are pinned here, not configurable.
"""

import itertools
import json
import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
import pytest

from outcry import (
    ClusterParams,
    ClusterState,
    ControversyParams,
    FeatureExtractor,
    PhraseFilter,
    RunConfig,
    ScenarioConfig,
    classify_and_rank,
    evaluate,
    event_day_zscore,
    event_sentiment,
    generate,
    replay_stream,
    return_stats,
    run_detection,
)
from outcry.cli import main
from outcry.features import SentimentLexicon, _sentiment

from conftest import BASE_TIME, make_vector, scan
from reference import ReferenceClusterer, batch_centroid
from test_controversy import TODAY, build_cluster, flat_volume, spiking_volume
from test_market import calibrated_returns


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )


def random_stream(rng, n, vocab, max_terms=4):
    out = []
    for i in range(n):
        k = rng.randrange(1, max_terms + 1)
        terms = {}
        for _ in range(k):
            term = rng.choice(vocab)
            terms[term] = terms.get(term, 0) + 1
        out.append(make_vector(f"t{i}", terms, ts=BASE_TIME + timedelta(seconds=i)))
    return out


PINNED_SCENARIO = {
    "seed": 42,
    "days": 9,
    "ambient_rate": 100,
    "ambient_days": 7,
    "ambient_entity_rate": 0.0,
    "ambient_topics": [["giftcard", "rewards", "promo"],
                       ["barista", "latte", "espresso"],
                       ["store", "menu", "breakfast"]],
    "vocabulary_noise": 0.05,
    "injected_events": [{
        "start_day": 7,
        "duration_days": 2,
        "peak_rate": 30,
        "term_pool": ["riverside arrest", "store video", "staff callout"],
        "sentiment_range": [-2.0, -1.0],
        "credible_link_count": 2,
        "noncredible_link_count": 1,
    }],
}

PINNED_CONFIG = dict(phrases=["acmecorp"], merge_threshold=0.7,
                     burst_velocity_threshold=2.0, min_event_size=5)


def test_criterion_1_minimum_event_size_gate():
    with criterion(1, "minimum event size gate", budget_seconds=30):
        rng = random.Random(1001)
        vocab = [f"v{i}" for i in range(12)]
        for _ in range(1000):
            params = ClusterParams(merge_threshold=rng.uniform(0.2, 0.95))
            assert params.min_event_size == 5  # default N
            state = ClusterState(params)
            for vec in random_stream(rng, rng.randrange(1, 40), vocab):
                state.assign(vec)
            for event in state.candidate_events():
                assert event.member_count >= 5


def test_criterion_2_clustering_oracle_equivalence():
    with criterion(2, "incremental vs from-scratch partitions", budget_seconds=10):
        rng = random.Random(2002)
        vocab = [f"v{i}" for i in range(10)]
        matches = 0
        for _ in range(200):
            threshold = rng.uniform(0.2, 0.95)
            stream = random_stream(rng, rng.randrange(1, 31), vocab)
            state = ClusterState(ClusterParams(merge_threshold=threshold))
            oracle = ReferenceClusterer(threshold)
            for vec in stream:
                state.assign(vec)
                oracle.assign(vec)
            got = {frozenset(c.member_ids) for c in state.clusters.values()}
            assert got == oracle.partition(), f"partition mismatch at D={threshold}"
            matches += 1
        assert matches == 200  # 100% agreement


def test_criterion_3_centroid_correctness():
    with criterion(3, "incremental centroids equal batch means"):
        # randomized streams
        rng = random.Random(3003)
        vocab = [f"v{i}" for i in range(10)]
        for _ in range(25):
            state = ClusterState(ClusterParams(merge_threshold=rng.uniform(0.3, 0.9)))
            vectors = {}
            for vec in random_stream(rng, rng.randrange(5, 80), vocab):
                vectors[vec.tweet_id] = vec
                state.assign(vec)
            _assert_centroids_match(state, vectors)

        # the pinned synthetic scenario, replayed with vectors retained
        lines, _ = generate(ScenarioConfig.from_dict(PINNED_SCENARIO))
        extractor = FeatureExtractor()
        state = ClusterState(ClusterParams(merge_threshold=0.7))
        vectors = {}
        import io
        for tweet in replay_stream(io.StringIO("\n".join(lines)),
                                   PhraseFilter(["acmecorp"])):
            vec = extractor.vector(tweet)
            if vec is None:
                continue
            vectors[vec.tweet_id] = vec
            state.assign(vec)
        assert state.admitted > 0
        _assert_centroids_match(state, vectors)


def _assert_centroids_match(state, vectors):
    for cluster in state.clusters.values():
        expected = batch_centroid([vectors[m] for m in cluster.member_ids])
        got = cluster.centroid
        assert set(got) == set(expected)
        for term, weight in expected.items():
            assert abs(got[term] - weight) <= 1e-9, (cluster.cluster_id, term)


def test_criterion_4_sentiment_bounds_and_event_mean():
    with criterion(4, "sentiment bounds and event-level mean"):
        lexicon = SentimentLexicon.load()
        rng = random.Random(4004)
        vocabulary = (
            list(lexicon.entries) + list(lexicon.negators)
            + list(lexicon.intensifiers) + ["plain", "words", "#tag", "@who", "!!"]
        )
        for _ in range(2000):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 14)))
            score = _sentiment(scan(text)[2], lexicon)
            assert -2.0 <= score <= 2.0

        for _ in range(300):
            values = [rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(1, 60))]
            cluster = build_cluster(1, values)
            got = event_sentiment(cluster)
            assert abs(got - statistics.fmean(values)) <= 1e-12
            assert abs(got - float(np.mean(values))) <= 1e-12
            assert -2.0 <= got <= 2.0


def test_criterion_5_controversy_gate_truth_table(allowlist):
    with criterion(5, "controversy gate truth table"):
        for negative, bursty, newsy in itertools.product([False, True], repeat=3):
            sentiments = [-1.0] * 5 if negative else [1.0] * 5
            links = ({"https://nytimes.com/story"} if newsy
                     else {"https://blog.example/x"})
            cluster = build_cluster(1, sentiments, links=links)
            volume = spiking_volume() if bursty else flat_volume()
            report = classify_and_rank([cluster], volume, allowlist,
                                       ControversyParams(), TODAY)[0]
            expected = negative and bursty and newsy
            assert report.controversial is expected, (negative, bursty, newsy)


def test_criterion_6_market_zscore_reconstruction():
    with criterion(6, "event-day z-score from published moments", budget_seconds=1):
        values = calibrated_returns(4.9e-5, 0.0091, 252)
        stats = return_stats(values)
        assert stats.n == 252
        assert stats.mean == pytest.approx(4.9e-5, abs=1e-6)
        assert stats.std == pytest.approx(0.0091, abs=1e-6)
        z = event_day_zscore(-0.017, stats)
        independent = (-0.017 - stats.mean) / stats.std
        assert z == pytest.approx(independent, abs=1e-12)
        assert z == pytest.approx(-1.879, abs=0.02)


def test_criterion_7_end_to_end_synthetic_recovery(tmp_path):
    with criterion(7, "end-to-end synthetic recovery", budget_seconds=20):
        lines, truth = generate(ScenarioConfig.from_dict(PINNED_SCENARIO))
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(lines) + "\n")

        cfg = RunConfig(**PINNED_CONFIG)
        result = run_detection(str(stream), cfg)
        scores = evaluate(result.reports, result.state, truth)
        assert scores.precision == 1.0
        assert scores.recall == 1.0

        # injected event ranks first
        assert result.reports, "no events reported"
        top = result.reports[0]
        assert top.controversial is True
        top_members = set(result.state.clusters[top.cluster_id].member_ids)
        truth_ids = set(truth.events[0].tweet_ids)
        assert len(top_members & truth_ids) / len(truth_ids) > 0.5


def test_criterion_8_detect_determinism(tmp_path):
    with criterion(8, "byte-identical reports"):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(PINNED_SCENARIO))
        stream = tmp_path / "stream.jsonl"
        assert main(["synth", "--scenario", str(scenario), "--out", str(stream)]) == 0
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                         "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def _throughput_scenario(days, per_day, seed=11):
    pools = [[f"w{i}_{j}" for j in range(5)] for i in range(450)]
    return ScenarioConfig.from_dict({
        "seed": seed,
        "days": days,
        "ambient_rate": per_day,
        "ambient_entity_rate": 1.0,
        "ambient_topics": pools,
        "vocabulary_noise": 0.02,
        "injected_events": [{
            "start_day": days - 2,
            "duration_days": 2,
            "peak_rate": 50,
            "term_pool": ["plant fire", "night shift", "union walkout"],
            "sentiment_range": [-2.0, -1.0],
            "credible_link_count": 3,
            "noncredible_link_count": 2,
        }],
    })


def test_criterion_9_throughput_and_memory(tmp_path):
    with criterion(9, "desk-scale throughput and bounded memory"):
        # timed leg: 100k tweets through cmd_detect in under 60 s
        lines, _ = generate(_throughput_scenario(days=20, per_day=5000))
        assert len(lines) >= 100_000
        stream = tmp_path / "big.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"

        start = time.perf_counter()
        code = main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--out", str(report_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0, f"100k-tweet detect took {elapsed:.1f}s"

        payload = json.loads(report_path.read_text())
        assert payload["counters"]["admitted"] >= 100_000
        assert payload["counters"]["live_clusters"] <= 500

        # memory leg: peak allocation grows sublinearly across a 10x size jump
        def traced_peak(path):
            cfg = RunConfig(phrases=["acmecorp"])
            tracemalloc.start()
            run_detection(str(path), cfg)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small_lines, _ = generate(_throughput_scenario(days=20, per_day=500, seed=12))
        small_stream = tmp_path / "small.jsonl"
        small_stream.write_text("\n".join(small_lines) + "\n")

        peak_small = traced_peak(small_stream)
        peak_big = traced_peak(stream)
        ratio = peak_big / peak_small
        print(f"  peak memory: {peak_small/1e6:.1f} MB -> {peak_big/1e6:.1f} MB "
              f"(x{ratio:.2f} for a x10 stream)")
        assert ratio < 10.0, f"memory grew superlinearly: x{ratio:.2f}"
