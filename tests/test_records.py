"""Record contracts: constructor order and defaults, validation, equality,
and the bytes of the outputs built from the records.

The records are named tuples (immutable) or plain classes with
``__slots__`` (mutable settings and counters); building one generates no
code at import time.  The pinned digests are of outputs written by the
``synth``, ``evaluate`` and ``market`` commands, and of the demos' standard
output.
"""

import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from outcry import (
    AllowList,
    ClusterParams,
    ClusterState,
    ControversyParams,
    ControversyReport,
    EvalResult,
    EventTruth,
    GroundTruth,
    InjectedEvent,
    InvalidConfig,
    PhraseFilter,
    PriceSeries,
    RedirectMap,
    ReplayStats,
    ReturnStats,
    RunConfig,
    ScenarioConfig,
    SentimentLexicon,
)
import outcry
from outcry import config, synth
from outcry.cli import main
from outcry.clustering import stream_json

from test_cli import write_price_csv

EMPTY = inspect.Parameter.empty
ROOT = Path(__file__).resolve().parent.parent

SIGNATURES = {
    ClusterParams: [("merge_threshold", 0.7), ("min_event_size", 5),
                    ("inactivity_expiry", timedelta(hours=72))],
    ControversyParams: [("burst_velocity_threshold", 2.0), ("rank_weights", (0.4, 0.3, 0.3)),
                        ("news_count_gate", 1)],
    ControversyReport: [(name, EMPTY) for name in (
        "cluster_id", "member_count", "burst_flag", "burst_velocity", "news_count",
        "news_score", "sentiment_mean", "controversial", "rank_score", "top_terms")],
    AllowList: [("domains", EMPTY)],
    RedirectMap: [("mapping", None)],
    SentimentLexicon: [("entries", EMPTY), ("negators", EMPTY), ("intensifiers", EMPTY)],
    PhraseFilter: [("phrases", EMPTY)],
    ReplayStats: [(name, 0) for name in (
        "total", "parse_errors", "dropped_late", "filtered_out", "duplicates", "yielded")],
    PriceSeries: [("symbol", EMPTY), ("points", EMPTY)],
    ReturnStats: [("mean", EMPTY), ("std", EMPTY), ("n", EMPTY)],
    InjectedEvent: [("start_day", EMPTY), ("duration_days", EMPTY), ("peak_rate", EMPTY),
                    ("term_pool", EMPTY), ("sentiment_range", EMPTY),
                    ("credible_link_count", 1), ("noncredible_link_count", 0),
                    ("expected_controversial", True)],
    ScenarioConfig: [("seed", EMPTY), ("days", EMPTY), ("ambient_rate", 0),
                     ("ambient_topics", ()), ("injected_events", ()),
                     ("vocabulary_noise", 0.0), ("entity", "AcmeCorp"), ("ambient_days", None),
                     ("ambient_entity_rate", 1.0), ("start_date", date(2024, 3, 1))],
    EventTruth: [("event_index", EMPTY), ("expected_controversial", EMPTY), ("tweet_ids", ())],
    GroundTruth: [("events", None)],
    EvalResult: [("precision", EMPTY), ("recall", EMPTY), ("f1", EMPTY)],
    RunConfig: [
        ("phrases", ()), ("input", None), ("out", None), ("state_out", None),
        ("format", "json"), ("lateness_seconds", 3600.0), ("dedup", False),
        ("language_filter", "en"), ("merge_threshold", 0.7), ("min_event_size", 5),
        ("inactivity_expiry_hours", 72.0), ("burst_velocity_threshold", 2.0),
        ("rank_weights", (0.4, 0.3, 0.3)), ("news_count_gate", 1),
        ("resolver_mode", "offline"), ("network_timeout_ms", 3000), ("lexicon_path", None),
        ("stopwords_path", None), ("verbs_path", None), ("gazetteer_path", None),
        ("allowlist_path", None), ("redirect_map_path", None), ("daily_summary_clusters", 5),
    ],
}

# Mutable settings and counters; every other record is a named tuple.
PLAIN = (ClusterParams, ControversyParams, ReplayStats, GroundTruth, RunConfig)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_order_and_defaults(cls):
    if cls is RunConfig:  # keyword settings, declared in one table
        assert list(config._SETTINGS.values()) == SIGNATURES[cls]
        return
    params = inspect.signature(cls).parameters
    assert [(name, p.default) for name, p in params.items()] == SIGNATURES[cls]


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_named_tuple_or_slotted_class(cls):
    assert issubclass(cls, tuple) is (cls not in PLAIN)
    assert "__dict__" not in dir(cls)


def test_records_reject_assignment():
    report = ControversyReport(1, 5, True, 2.5, 1, 0.69, -1.0, True, 0.8, [("fire", 5)])
    with pytest.raises(AttributeError):
        report.controversial = False
    with pytest.raises(AttributeError):
        PhraseFilter(["acme"]).phrases = ("other",)
    with pytest.raises(AttributeError):  # a misspelt setting is an error, not a new field
        RunConfig().merge_treshold = 0.5
    with pytest.raises(TypeError, match="'merge_treshold'"):
        RunConfig(merge_treshold=0.5)
    with pytest.raises(TypeError, match="'merge_threshold_D'"):  # a config key, not an attribute
        RunConfig(merge_threshold_D=0.5)


def test_container_defaults_are_fresh():
    assert GroundTruth().events == [] and GroundTruth().events is not GroundTruth().events
    assert RedirectMap().mapping == {} and RedirectMap().get("https://sho.rt/x") is None


@pytest.mark.parametrize("build, error, message", [
    (lambda: ClusterParams(merge_threshold=0), ValueError, "merge_threshold must be positive"),
    (lambda: ClusterParams(merge_threshold=True), ValueError,
     "merge_threshold must be a finite number, got True"),
    (lambda: ClusterParams(min_event_size=0), ValueError, "min_event_size must be >= 1"),
    (lambda: ClusterParams(min_event_size=2.0), ValueError,
     "min_event_size must be an integer, got 2.0"),
    (lambda: ClusterParams(inactivity_expiry=timedelta(0)), ValueError,
     "inactivity_expiry must be positive"),
    (lambda: ControversyParams(burst_velocity_threshold=-1), ValueError,
     "burst_velocity_threshold must be positive"),
    (lambda: ControversyParams(rank_weights=(0.5, 0.5)), ValueError,
     "rank_weights must be three nonnegative numbers"),
    (lambda: ControversyParams(rank_weights=(0.5, 0.5, 0.5)), ValueError,
     "rank_weights must sum to 1"),
    (lambda: ControversyParams(news_count_gate=0), ValueError, "news_count_gate must be >= 1"),
    (lambda: AllowList(frozenset()), ValueError, "allowlist must contain at least one domain"),
    (lambda: AllowList(frozenset({"https://x.example"})), ValueError,
     "allowlist entries must be bare domains, got 'https://x.example'"),
    (lambda: RedirectMap({"https://sho.rt/x": "/relative"}), ValueError,
     "redirect targets must be absolute URLs, got '/relative'"),
    (lambda: SentimentLexicon({"doom": -3.5}, frozenset(), {}), ValueError,
     "valence out of range for 'doom': -3.5"),
    (lambda: SentimentLexicon({}, frozenset(), {"very": 0.0}), ValueError,
     "intensifier multiplier must be positive: 'very'"),
    (lambda: PhraseFilter([]), ValueError, "phrase filter needs at least one phrase"),
    (lambda: PhraseFilter(["acme", " "]), ValueError,
     "phrases must not be empty or all-whitespace"),
    (lambda: PriceSeries("X", ((date(2024, 1, 2), 1.0), (date(2024, 1, 1), 1.0))), ValueError,
     "dates must be strictly increasing at 2024-01-01"),
    (lambda: PriceSeries("X", ((date(2024, 1, 2), 0.0),)), ValueError,
     "price must be finite and positive on 2024-01-02: 0.0"),
    (lambda: RunConfig(phrases=None), InvalidConfig, "phrases must be a list of strings"),
    (lambda: RunConfig(phrases=["acme", " "]), InvalidConfig, "phrases must not be empty"),
    (lambda: RunConfig(network_timeout_ms=2**31), InvalidConfig,
     "network_timeout_ms must be at most 2147483647"),
    (lambda: RunConfig(lexicon_path=5), InvalidConfig,
     "lexicon_path must be a string or null, got 5"),
    (lambda: RunConfig(format="xml"), InvalidConfig, "format must be 'json' or 'table'"),
    (lambda: RunConfig(merge_threshold=0), InvalidConfig, "merge_threshold must be positive"),
    (lambda: RunConfig(rank_weights=(1, 1, 1)), InvalidConfig, "rank_weights must sum to 1"),
    (lambda: ScenarioConfig.from_dict({"seed": 1, "days": 0}), InvalidConfig,
     "days must be >= 1"),
    (lambda: ScenarioConfig.from_dict({"seed": 1}), InvalidConfig, "bad scenario: "),
    (lambda: ScenarioConfig.from_dict({"seed": 1, "days": 2, "start_date": "9999-12-31"}),
     InvalidConfig, "a scenario of 2 days from 9999-12-31 runs past 9999-12-31"),
    (lambda: ScenarioConfig.from_dict({"seed": 1, "days": 1, "injected_events": [{
        "start_day": 0, "duration_days": 1, "peak_rate": 1, "term_pool": ["a"],
        "sentiment_range": [-1, 0], "credible_link_count": -1}]}), InvalidConfig,
     "link counts must be >= 0"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_validation_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("load, error", [(ClusterState.load, ValueError),
                                         (GroundTruth.load, InvalidConfig)],
                         ids=["checkpoint", "truth"])
def test_loaders_reject_json_nested_too_deep(tmp_path, load, error):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(error, match="recursion"):
        load(path)


def test_replay_stats_equality():
    stats = ReplayStats(total=3, parse_errors=1, yielded=2)
    assert stats == ReplayStats(3, 1, 0, 0, 0, 2)
    assert stats != ReplayStats(total=3, parse_errors=1, yielded=1)
    assert stats != (3, 1, 0, 0, 0, 2)
    assert stats.as_dict() == {"total": 3, "parse_errors": 1, "dropped_late": 0,
                               "filtered_out": 0, "duplicates": 0, "yielded": 2}
    assert repr(stats) == ("ReplayStats(total=3, parse_errors=1, dropped_late=0, "
                           "filtered_out=0, duplicates=0, yielded=2)")
    stats.yielded += 1
    assert stats == ReplayStats(total=3, parse_errors=1, yielded=3)


def test_run_config_equality_is_by_config_key():
    assert RunConfig() == RunConfig.from_dict(RunConfig().as_dict())
    assert RunConfig(phrases="acme, corp") == RunConfig(phrases=["acme", "corp"])
    assert RunConfig(rank_weights=[0.5, 0.25, 0.25]) == RunConfig(rank_weights=(0.5, 0.25, 0.25))
    assert RunConfig(dedup=True) != RunConfig()


def test_key_tables_name_every_field():
    assert [attr for attr, _ in config._SETTINGS.values()] == list(RunConfig.__slots__)
    assert tuple(synth._EVENT_KEYS) == InjectedEvent._fields
    assert tuple(synth._SCENARIO_KEYS) == ScenarioConfig._fields
    for name in RunConfig.__slots__:
        optional = name in config._OPTIONAL_STRINGS
        try:
            RunConfig(**{name: None})
        except InvalidConfig:
            assert not optional, name
        else:
            assert optional, name


def test_run_config_defaults_are_the_clusterer_and_gate_defaults():
    cfg = RunConfig()
    for built, default in ((cfg.cluster_params(), ClusterParams()),
                           (cfg.controversy_params(), ControversyParams())):
        for name in type(default).__slots__:
            assert getattr(built, name) == getattr(default, name), name


def test_readme_config_table_names_every_setting():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    keys = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    named = {name for cell in keys for name in cell.split("`")[1::2]}
    for key in config._SETTINGS:
        assert key in named or (key.endswith("_path") and "*_path" in named), key


# The scenario of demos/03_synthetic_recovery.py, and the one CI's bare
# install runs.
SCENARIOS = {
    "demo": {
        "seed": 7, "days": 10, "ambient_rate": 80, "ambient_days": 8,
        "ambient_entity_rate": 0.0,
        "ambient_topics": [["giftcard", "rewards", "promo"], ["barista", "latte", "espresso"],
                           ["breakfast", "menu", "pastry"]],
        "vocabulary_noise": 0.05,
        "injected_events": [{
            "start_day": 8, "duration_days": 2, "peak_rate": 40,
            "term_pool": ["loading dock spill", "harbor plant", "night crew"],
            "sentiment_range": [-2.0, -1.2], "credible_link_count": 3,
            "noncredible_link_count": 2,
        }],
    },
    "ci": {
        "seed": 7, "days": 9, "ambient_rate": 40, "ambient_days": 7, "ambient_entity_rate": 0.0,
        "ambient_topics": [["latte", "menu"], ["store", "promo"]],
        "injected_events": [{
            "start_day": 7, "duration_days": 2, "peak_rate": 30,
            "term_pool": ["riverside arrest", "store video"],
            "sentiment_range": [-2.0, -1.0], "credible_link_count": 2,
        }],
    },
}

# sha256 of each output, as written before the records stopped being
# dataclasses.
DIGESTS = {
    "demo": {
        "stream": "b33361463ed39b436a99ba6e3c63d9c4ad89f0ed01c97d7e94ca867745e3b675",
        "truth": "2f8f4695616f4616d9f234f5aca67a701d73f353ab6caa54921e7d5c509aff5a",
        "evaluate": "107f4fd3adc20597d6dcb977585550a35c023df688409d7c5b251fcc6db01a8e",
    },
    "ci": {
        "stream": "35a3bd5ccca14d3c4c5b2f5e3fce7a5638c12895b433cf2556cdef2344860470",
        "truth": "70e621a02c92ae211d0ae1134a32f6e450388a0300279634ee16501de335ed4b",
        "evaluate": "107f4fd3adc20597d6dcb977585550a35c023df688409d7c5b251fcc6db01a8e",
    },
    "market": "8d441562ae4ea400a29fce82e5ede34af20f7fb7a5b8d346d77019a7180e32d6",
    "market --index": "4f73f4959e08fa3c24b1a3a8ce4686ea7ac5c4506e66c884d9dc2e0fc9cb46ad",
}

# sha256 of each demo's standard output; a refactor leaves them unchanged.
DEMO_DIGESTS = {
    "01_stream_to_events.py": "52a97e5be3e418ddfdc0b462e73765d558340d4a62c3d053439fee290e4c7004",
    "02_market_impact.py": "a970174d92ad2a25254700efa9af137d167092e35000d5deea66537c9426299a",
    "03_synthetic_recovery.py": "9057745f25ffeb601a9a4d89dd97691288abacdc8cab86ad7913bbc28a75e7a1",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", SCENARIOS)
def test_synth_and_evaluate_bytes(tmp_path, name):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIOS[name]))
    stream, truth = tmp_path / "stream.jsonl", tmp_path / "truth.json"
    report, state, scores = (tmp_path / f for f in ("report.json", "state.json", "eval.json"))
    assert main(["synth", "--scenario", str(scenario), "--out", str(stream),
                 "--truth", str(truth)]) == 0
    assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                 "--out", str(report), "--state-out", str(state)]) == 0
    assert main(["evaluate", "--report", str(report), "--state", str(state),
                 "--truth", str(truth), "--out", str(scores)]) == 0
    assert json.loads(scores.read_text())["f1"] == 1.0
    got = {"stream": sha256(stream), "truth": sha256(truth), "evaluate": sha256(scores)}
    assert got == DIGESTS[name]


def test_market_bytes(tmp_path, monkeypatch):
    # Relative paths: the symbol echoed in the output is the CSV's path.
    monkeypatch.chdir(tmp_path)
    for path, seed in (("prices.csv", 9), ("index.csv", 4)):
        rng = random.Random(seed)
        event_day = write_price_csv(tmp_path / path, [rng.gauss(5e-5, 0.009) for _ in range(120)],
                                    event_return=-0.017)
    common = ["--event-date", event_day.isoformat(), "--window-days", "60", "--bins", "8"]
    assert main(["market", "--prices", "prices.csv", *common, "--out", "market.json"]) == 0
    assert main(["market", "--prices", "prices.csv", "--index", "index.csv", *common,
                 "--out", "market_index.json"]) == 0
    assert sha256(tmp_path / "market.json") == DIGESTS["market"]
    assert sha256(tmp_path / "market_index.json") == DIGESTS["market --index"]


@pytest.mark.parametrize("document, indent, sort_keys", [
    ({}, 2, True),
    ({"a": {}, "b": [], "c": [[], {}], "d": {"x": [{}]}}, 1, False),
    ({"symbol": "caf\u00e9\nx", "event_return": None, "zscore": float("nan"),
      "returns": [["2024-01-02", -1e-07]], "stats": {"n": 3, "mean": 0.5}}, 2, True),
    (GroundTruth([EventTruth(0, True, ("a", "b")), EventTruth(1, False)]).payload(), 1, False),
], ids=["empty", "empty containers", "market", "truth"])
def test_stream_json_writes_what_json_dump_does(document, indent, sort_keys):
    """Every JSON file the program writes goes through ``stream_json``."""
    expected, streamed = io.StringIO(), io.StringIO()
    json.dump(document, expected, indent=indent, sort_keys=sort_keys)
    stream_json(document, streamed, indent, sort_keys)
    assert streamed.getvalue() == expected.getvalue() + "\n"


@pytest.mark.parametrize("demo", DEMO_DIGESTS)
def test_demo_stdout_bytes(tmp_path, demo):
    src = Path(outcry.__file__).resolve().parent.parent
    ran = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, timeout=60)
    assert ran.returncode == 0, ran.stderr.decode()
    assert hashlib.sha256(ran.stdout).hexdigest() == DEMO_DIGESTS[demo]
