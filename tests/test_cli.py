import io
import json
import os
import socket
import subprocess
import sys
import threading
import weakref
from datetime import date, timedelta
from pathlib import Path

import pytest

import outcry
from outcry import ClusterState, GroundTruth, InvalidConfig, RunConfig, ingest, run_detection
from outcry.cli import _detect_config, build_parser, main
from outcry.pipeline import Detector, _round_floats, report_payload

from conftest import make_tweet
from test_market import calibrated_returns

SCENARIO = {
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


CONFIG_KEYS = {
    "phrases", "input", "out", "state_out", "format", "lateness_seconds", "dedup",
    "language_filter", "merge_threshold_D", "min_event_size_N", "inactivity_expiry_hours",
    "burst_velocity_threshold", "rank_weights", "news_count_gate", "resolver_mode",
    "network_timeout_ms", "lexicon_path", "stopwords_path", "verbs_path", "gazetteer_path",
    "allowlist_path", "redirect_map_path", "daily_summary_clusters",
}

NAN = float("nan")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def write_price_csv(path, returns, event_return=None, start=date(2023, 1, 2)):
    """Prices realizing the given return sequence from a base of 100."""
    rows = ["date,close"]
    price = 100.0
    day = start
    rows.append(f"{day.isoformat()},{price!r}")
    for r in returns:
        day += timedelta(days=1)
        price *= 1.0 + r
        rows.append(f"{day.isoformat()},{price!r}")
    if event_return is not None:
        day += timedelta(days=1)
        price *= 1.0 + event_return
        rows.append(f"{day.isoformat()},{price!r}")
    path.write_text("\n".join(rows) + "\n")
    return day  # event (or last) date


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            RunConfig.from_dict({"merge_threshold_D": 0.7, "oops": 1})
        # a renamed setting is known only by its config key
        with pytest.raises(InvalidConfig):
            RunConfig.from_dict({"merge_threshold": 0.5})

    def test_external_key_names(self):
        cfg = RunConfig.from_dict({
            "merge_threshold_D": 0.5,
            "min_event_size_N": 7,
            "inactivity_expiry_hours": 24,
            "burst_velocity_threshold": 3.0,
            "rank_weights": [0.5, 0.25, 0.25],
            "news_count_gate": 2,
            "phrases": "acme, acmecorp",
        })
        assert cfg.merge_threshold == 0.5
        assert cfg.min_event_size == 7
        assert cfg.phrases == ["acme", "acmecorp"]

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidConfig):
            RunConfig.from_dict({"rank_weights": [0.9, 0.9, 0.9]})

    def test_roundtrip_through_as_dict(self):
        cfg = RunConfig(phrases=["acme"], merge_threshold=0.6)
        again = RunConfig.from_dict(cfg.as_dict())
        assert again.merge_threshold == 0.6
        assert again.phrases == ["acme"]

        # Every key the README documents, each set away from its default.
        custom = RunConfig.from_dict({
            "phrases": ["acme", "acmecorp"], "input": "in.jsonl", "out": "report.json",
            "state_out": "state.json", "format": "table", "lateness_seconds": 60.0,
            "dedup": True, "language_filter": None, "merge_threshold_D": 0.5,
            "min_event_size_N": 7, "inactivity_expiry_hours": 24.0,
            "burst_velocity_threshold": 3.0, "rank_weights": [0.5, 0.25, 0.25],
            "news_count_gate": 2, "resolver_mode": "network", "network_timeout_ms": 500,
            "lexicon_path": "lex.txt", "stopwords_path": "stop.txt", "verbs_path": "verbs.txt",
            "gazetteer_path": "gaz.txt", "allowlist_path": "allow.txt",
            "redirect_map_path": "redirects.tsv", "daily_summary_clusters": 3,
        })
        exported = custom.as_dict()
        defaults = RunConfig().as_dict()
        assert set(exported) == set(defaults) == CONFIG_KEYS
        assert all(exported[key] != defaults[key] for key in CONFIG_KEYS)
        assert RunConfig.from_dict(exported) == custom


class TestDetectCommand:
    def test_empty_input_gives_empty_report(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out, state = tmp_path / "report.json", tmp_path / "state.json"
        code = main(["detect", "--input", str(empty), "--phrases", "acme",
                     "--out", str(out), "--state-out", str(state)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["events"] == []
        assert payload["counters"]["total"] == 0
        # the zero-cluster edge of the checkpoint writer
        assert ClusterState.load(state).clusters == {}
        assert json.loads(state.read_text())["clusters"] == []

    def test_unknown_config_key_exits_1_without_output(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"phrases": ["acme"], "mystery_knob": 3}))
        out = tmp_path / "report.json"
        stream = tmp_path / "in.jsonl"
        stream.write_text("")
        code = main(["detect", "--config", str(config), "--input", str(stream),
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unknown_config_key_names_the_first_in_file_order(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"phrases": ["acme"], "zeta_knob": 1, "merge_threshold": 0.5}')
        code = main(["detect", "--config", str(config), "--input", "in.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config key: 'zeta_knob'\n"

    def test_flags_override_the_config_unless_empty(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"phrases": ["acme"], "input": "a.jsonl", "out": "r.json",
                                      "lateness_seconds": 60, "format": "table"}))

        def detect_config(*flags):
            return _detect_config(build_parser().parse_args(
                ["detect", "--config", str(config), *flags]))

        kept = detect_config("--phrases", "", "--input", "", "--out", "", "--state-out", "")
        assert kept == RunConfig.from_file(config)
        cfg = detect_config("--phrases", "corp", "--input", "b.jsonl", "--out", "s.json",
                            "--state-out", "state.json", "--lateness-seconds", "0",
                            "--format", "json")
        assert cfg.as_dict() == {**kept.as_dict(), "phrases": ["corp"], "input": "b.jsonl",
                                 "out": "s.json", "state_out": "state.json",
                                 "lateness_seconds": 0.0, "format": "json"}

    def test_missing_input_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "nope.jsonl")
        code = main(["detect", "--input", path, "--phrases", "acme"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    def test_silent_tcp_stream_exits_2_without_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "TCP_TIMEOUT_S", 0.5)
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        finished = threading.Event()

        def serve():
            conn, _ = server.accept()
            conn.sendall(json.dumps({"posting_id": "t1", "creation_time": "2024-03-01T10:00:00Z",
                                     "text": "acmecorp plant fire"}).encode() + b"\n")
            finished.wait(10)  # then stay silent until detect gives up
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        out = tmp_path / "report.json"
        try:
            code = main(["detect", "--input", f"tcp://127.0.0.1:{port}",
                         "--phrases", "acmecorp", "--out", str(out)])
        finally:
            finished.set()
            thread.join(timeout=5)
            server.close()
        assert not thread.is_alive()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key, content", [
        ("lexicon_path", None),
        ("lexicon_path", "bad\tnotnum\n"),
        ("stopwords_path", None),
        ("stopwords_path", b"caf\xe9\n"),
        ("verbs_path", None),
        ("gazetteer_path", None),
        ("allowlist_path", None),
        ("allowlist_path", "https://nytimes.com\n"),
        ("redirect_map_path", None),
        ("redirect_map_path", "https://sho.rt/x\n"),
    ])
    def test_missing_or_malformed_data_file_exits_2(self, tmp_path, capsys, key, content):
        data = tmp_path / "data.txt"
        if isinstance(content, str):
            data.write_text(content)
        elif content is not None:
            data.write_bytes(content)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: str(data)}))
        stream = tmp_path / "in.jsonl"
        stream.write_text("")
        out = tmp_path / "report.json"
        assert main(["detect", "--config", str(config), "--input", str(stream),
                     "--phrases", "acme", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad data file {data}: ")
        assert not out.exists()

    def test_missing_phrases_is_config_error(self, tmp_path):
        stream = tmp_path / "in.jsonl"
        stream.write_text("")
        assert main(["detect", "--input", str(stream)]) == 1

    def test_synthetic_scenario_end_to_end(self, tmp_path, scenario_file):
        stream = tmp_path / "stream.jsonl"
        report = tmp_path / "report.json"
        state = tmp_path / "state.json"
        truth = tmp_path / "truth.json"
        scores = tmp_path / "scores.json"

        assert main(["synth", "--scenario", str(scenario_file),
                     "--out", str(stream), "--truth", str(truth)]) == 0
        assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--out", str(report), "--state-out", str(state)]) == 0

        payload = json.loads(report.read_text())
        flagged = [e for e in payload["events"] if e["controversial"]]
        assert len(flagged) == 1
        assert payload["events"][0]["controversial"] is True  # ranked first

        assert main(["evaluate", "--report", str(report), "--state", str(state),
                     "--truth", str(truth), "--out", str(scores)]) == 0
        result = json.loads(scores.read_text())
        assert result["precision"] == 1.0
        assert result["recall"] == 1.0
        assert result["f1"] == 1.0

    def test_reports_are_byte_identical_across_runs(self, tmp_path, scenario_file):
        stream = tmp_path / "stream.jsonl"
        main(["synth", "--scenario", str(scenario_file), "--out", str(stream)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (r1, r2):
            assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                         "--out", str(out)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_table_format(self, tmp_path, scenario_file, capsys):
        stream = tmp_path / "stream.jsonl"
        main(["synth", "--scenario", str(scenario_file), "--out", str(stream)])
        code = main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster" in out and "YES" in out

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_stdout_and_out_file_bytes_match(self, tmp_path, scenario_file, capsys, fmt):
        stream, report = tmp_path / "stream.jsonl", tmp_path / "report.out"
        main(["synth", "--scenario", str(scenario_file), "--out", str(stream)])
        detect = ["detect", "--input", str(stream), "--phrases", "acmecorp", "--format", fmt]
        capsys.readouterr()
        assert main(detect) == 0
        printed = capsys.readouterr().out
        assert main(detect + ["--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text(encoding="utf-8") == printed
        if fmt == "json":
            assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"

    def test_daily_summaries_present(self, tmp_path, scenario_file):
        stream = tmp_path / "stream.jsonl"
        report = tmp_path / "report.json"
        main(["synth", "--scenario", str(scenario_file), "--out", str(stream)])
        main(["detect", "--input", str(stream), "--phrases", "acmecorp",
              "--out", str(report)])
        payload = json.loads(report.read_text())
        assert len(payload["daily_summaries"]) == 2  # the two event days
        entry = payload["daily_summaries"][-1]
        assert entry["clusters"][0]["top_terms"]
        assert entry["clusters"][0]["mean_sentiment"] < 0


def dumped(result, cfg):
    """The report text ``detect --format json`` must write."""
    return json.dumps(report_payload(result, cfg), indent=2, sort_keys=True) + "\n"


class TestStreamedReport:
    """``detect`` writes its JSON report one event at a time; the bytes are
    those of the whole payload dumped at once."""

    @pytest.fixture
    def stream(self, tmp_path, scenario_file):
        path = tmp_path / "stream.jsonl"
        assert main(["synth", "--scenario", str(scenario_file), "--out", str(path)]) == 0
        return path

    def test_no_events(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "report.json"
        assert main(["detect", "--input", str(empty), "--phrases", "acme",
                     "--out", str(out)]) == 0
        cfg = RunConfig(phrases=["acme"])
        result = run_detection(str(empty), cfg)
        assert result.reports == [] and result.daily_summaries == []
        assert out.read_text(encoding="utf-8") == dumped(result, cfg)

    def test_many_events_to_stdout(self, tmp_path, capsys):
        # 40 topics of three tweets each, over two days: 40 events.
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(json.dumps({
            "posting_id": f"t{k}-{i}",
            "creation_time": f"2024-03-0{1 + i // 2}T10:{k:02d}:00Z",
            "language": "en",
            "text": f"AcmeCorp #topic{k} is {'great' if i else 'awful'}",
        }) + "\n" for i in range(3) for k in range(40)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_event_size_N": 3}))
        capsys.readouterr()
        assert main(["detect", "--config", str(config), "--input", str(stream),
                     "--phrases", "acmecorp"]) == 0
        cfg = RunConfig(phrases=["acmecorp"], min_event_size=3)
        result = run_detection(str(stream), cfg)
        assert len(result.reports) == 40
        assert capsys.readouterr().out == dumped(result, cfg)

    def test_phrase_holding_a_newline_and_an_events_key(self, stream):
        # Written by the config file, the phrase's JSON text holds "[]" and,
        # decoded, a newline: neither may be taken for the report's own.
        phrases = ["acmecorp", 'x\n"events": []']
        config = stream.parent / "config.json"
        config.write_text(json.dumps({"phrases": phrases}))
        out = stream.parent / "report.json"
        assert main(["detect", "--config", str(config), "--input", str(stream),
                     "--out", str(out)]) == 0
        cfg = RunConfig(phrases=phrases)
        result = run_detection(str(stream), cfg)
        assert result.reports
        text = out.read_text(encoding="utf-8")
        assert text == dumped(result, cfg)
        assert json.loads(text)["params"]["phrases"] == phrases

    def test_verbose_logs_one_detect_done_line(self, stream, capsys):
        out = stream.parent / "report.json"
        capsys.readouterr()
        assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--out", str(out), "--verbose"]) == 0
        logged = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        done = [entry for entry in logged if entry["event"] == "detect_done"]
        assert len(done) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["events"]
        assert done[0]["counters"] == report["counters"]
        assert done[0]["events"] == len(report["events"])


class TestMarketCommand:
    def test_reconstructed_zscore_in_output(self, tmp_path):
        prices = tmp_path / "prices.csv"
        event_day = write_price_csv(prices, calibrated_returns(4.9e-5, 0.0091, 252),
                                    event_return=-0.017)
        out = tmp_path / "market.json"
        code = main(["market", "--prices", str(prices), "--event-date",
                     event_day.isoformat(), "--window-days", "252",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["zscore"] == pytest.approx(-1.879, abs=0.02)
        assert payload["stats"]["mean"] == pytest.approx(4.9e-5, abs=1e-6)
        assert payload["stats"]["std"] == pytest.approx(0.0091, abs=1e-6)
        assert payload["event_return"] == pytest.approx(-0.017, abs=1e-9)
        assert len(payload["histogram"]) == 20
        assert sum(b[2] for b in payload["histogram"]) == 252

    def test_two_row_csv_reports_return_but_exits_2(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        event_day = write_price_csv(prices, [-0.017])
        out = tmp_path / "market.json"
        code = main(["market", "--prices", str(prices), "--event-date",
                     event_day.isoformat(), "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert len(payload["returns"]) == 1
        assert "error" in payload

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["market", "--prices", str(tmp_path / "nope.csv"),
                     "--event-date", "2024-01-05"])
        assert code == 2

    @pytest.mark.parametrize("series", ["--prices", "--index"])
    def test_row_with_missing_field_exits_2(self, tmp_path, capsys, series):
        good, short = tmp_path / "good.csv", tmp_path / "short.csv"
        event_day = write_price_csv(good, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
        short.write_text("date,close\n2024-01-01\n2024-01-02,101\n")
        files = {"--prices": good, "--index": good, series: short}
        assert main(["market", "--prices", str(files["--prices"]),
                     "--index", str(files["--index"]), "--event-date", event_day.isoformat(),
                     "--out", str(tmp_path / "market.json")]) == 2
        assert f"{short}: line 2 needs a date and a close" in capsys.readouterr().err

    @pytest.mark.parametrize("series, message", [("--prices", "bad price CSV"),
                                                  ("--index", "cannot pair index series")])
    def test_field_over_the_csv_limit_exits_2(self, tmp_path, capsys, series, message):
        good, big = tmp_path / "good.csv", tmp_path / "big.csv"
        event_day = write_price_csv(good, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
        big.write_text("date,close\n2024-01-01,1" + "0" * 140_000 + "\n")
        files = {"--prices": good, "--index": good, series: big}
        assert main(["market", "--prices", str(files["--prices"]),
                     "--index", str(files["--index"]), "--event-date", event_day.isoformat(),
                     "--out", str(tmp_path / "market.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}: {big}: field larger than field limit")
        assert err.count("error:") == 1

    def test_bad_event_date_is_config_error(self, tmp_path):
        prices = tmp_path / "prices.csv"
        write_price_csv(prices, [0.01, -0.01])
        assert main(["market", "--prices", str(prices),
                     "--event-date", "someday"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--window-days", "0"), ("--window-days", "-1"), ("--bins", "0"), ("--bins", "-3"),
        ("--bins", "10001"),
    ])
    def test_window_or_bins_below_one_is_config_error(self, tmp_path, capsys, flag, value):
        # ... or --bins above 10,000, which would only make a huge empty histogram
        prices = tmp_path / "prices.csv"
        event_day = write_price_csv(prices, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
        out = tmp_path / "market.json"
        assert main(["market", "--prices", str(prices), "--event-date", event_day.isoformat(),
                     flag, value, "--out", str(out)]) == 1
        bound = ">= 1" if int(value) < 1 else "<= 10000"
        assert capsys.readouterr().err.startswith(f"error: {flag} must be {bound}, got {value}")
        assert not out.exists()

    def test_index_overlay(self, tmp_path):
        prices = tmp_path / "prices.csv"
        index = tmp_path / "index.csv"
        event_day = write_price_csv(prices, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
        write_price_csv(index, [0.005, -0.002, 0.001, 0.003], event_return=0.001)
        out = tmp_path / "market.json"
        code = main(["market", "--prices", str(prices), "--index", str(index),
                     "--event-date", event_day.isoformat(), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["index"]["paired_returns"]) == 5


class TestSynthCommand:
    def test_missing_out_is_config_error(self, scenario_file):
        assert main(["synth", "--scenario", str(scenario_file)]) == 1

    def test_seed_change_alters_stream_bytes(self, tmp_path):
        a_cfg = dict(SCENARIO)
        b_cfg = dict(SCENARIO, seed=99)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a_cfg))
        pb.write_text(json.dumps(b_cfg))
        sa, sb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", "--scenario", str(pa), "--out", str(sa)]) == 0
        assert main(["synth", "--scenario", str(pb), "--out", str(sb)]) == 0
        assert sa.read_bytes() != sb.read_bytes()

    def test_invalid_scenario_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "days": 1, "whatever": 2}))
        assert main(["synth", "--scenario", str(bad), "--out",
                     str(tmp_path / "s.jsonl")]) == 1


    @pytest.mark.parametrize("days, start_date", [(2, "9999-12-31"), (10**12, "2024-03-01")])
    def test_scenario_past_the_last_date_exits_1(self, tmp_path, capsys, days, start_date):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "days": days, "ambient_rate": 1,
                                    "ambient_topics": [["a"]], "start_date": start_date}))
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: a scenario of {days} days from {start_date} runs past 9999-12-31\n"
        assert not out.exists()

    def test_scenario_of_the_last_date_generates(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "days": 1, "ambient_rate": 1,
                                    "ambient_topics": [["a"]], "start_date": "9999-12-31"}))
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["creation_time"] == "9999-12-31T00:00:00+00:00"

    def test_sentiment_range_without_lexicon_words_exits_1(self, tmp_path, capsys):
        scenario = dict(SCENARIO, injected_events=[
            dict(SCENARIO["injected_events"][0], sentiment_range=[1.99, 1.995])])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no lexicon words with valence")
        assert not out.exists()


class TestEvaluateCommand:
    def test_missing_detection_output_exits_2(self, tmp_path):
        assert main(["evaluate", "--report", str(tmp_path / "r.json"),
                     "--state", str(tmp_path / "s.json"),
                     "--truth", str(tmp_path / "t.json")]) == 2

    @pytest.mark.parametrize("wrong", ["report", "state", "truth", "event entry",
                                       "report too deep", "state too deep", "truth too deep",
                                       "controversial no", "cluster_id string", "events object",
                                       "events missing", "cluster_id twice",
                                       "cluster_id not in state"])
    def test_wrong_json_shape_exits_2(self, tmp_path, capsys, wrong):
        stream = tmp_path / "in.jsonl"
        stream.write_text(json.dumps({"posting_id": "t1", "creation_time": "2024-03-01T10:00:00Z",
                                      "text": "acmecorp plant fire"}) + "\n")
        paths = {name: tmp_path / f"{name}.json" for name in ("report", "state", "truth")}
        assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--out", str(paths["report"]), "--state-out", str(paths["state"])]) == 0
        GroundTruth().save(paths["truth"])
        reports = {
            "event entry": {"events": [3]},
            "controversial no": {"events": [{"cluster_id": 1, "controversial": "no"}]},
            "cluster_id string": {"events": [{"cluster_id": "1", "controversial": True}]},
            "events object": {"events": {}},
            "events missing": {"schema_version": 1},
            "cluster_id twice": {"events": [{"cluster_id": 1, "controversial": True},
                                            {"cluster_id": 1, "controversial": False}]},
            "cluster_id not in state": {"events": [{"cluster_id": 1, "controversial": True},
                                                   {"cluster_id": 9, "controversial": False}]},
        }
        if wrong in reports:
            paths["report"].write_text(json.dumps(reports[wrong]))
        elif wrong.endswith(" too deep"):
            paths[wrong.split()[0]].write_text("[" * 100_000 + "]" * 100_000)
        else:
            paths[wrong].write_text("[1, 2]")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--report", str(paths["report"]), "--state", str(paths["state"]),
                     "--truth", str(paths["truth"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed evaluation input: ")
        assert not out.exists()

    @pytest.fixture
    def detected(self, tmp_path, scenario_file):
        """The report, state and truth paths of a synth + detect run of
        SCENARIO, and ``evaluate`` of them into ``eval.json``."""
        stream = tmp_path / "s.jsonl"
        paths = {name: tmp_path / f"{name}.json" for name in ("report", "state")}
        paths["truth"] = tmp_path / "s.jsonl.truth.json"  # synth's default truth path
        assert main(["synth", "--scenario", str(scenario_file), "--out", str(stream)]) == 0
        assert main(["detect", "--input", str(stream), "--phrases", "acmecorp",
                     "--out", str(paths["report"]), "--state-out", str(paths["state"])]) == 0
        return paths, lambda: main([
            "evaluate", "--report", str(paths["report"]), "--state", str(paths["state"]),
            "--truth", str(paths["truth"]), "--out", str(tmp_path / "eval.json")])

    @staticmethod
    def _edit(path, edit):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))  # writes a NaN as NaN, which json.load reads

    @pytest.mark.parametrize("key, value", [
        ("tweet_ids", "first-id"),
        ("expected_controversial", "no"),
        ("event_index", None),
        ("tweet_ids", None),
        ("extra", 1),
    ])
    def test_mistyped_truth_event_exits_2(self, tmp_path, capsys, detected, key, value):
        paths, run_evaluate = detected
        self._edit(paths["truth"], lambda payload: payload["events"][0].update({key: value}))
        capsys.readouterr()
        assert run_evaluate() == 2
        assert capsys.readouterr().err.startswith("error: malformed evaluation input: ")
        assert not (tmp_path / "eval.json").exists()

    # Edits of the flagged cluster's checkpoint entry (or of the whole
    # checkpoint); each one gives a file that ``detect --state-out`` does not write.
    CHECKPOINT_EDITS = {
        "member_ids string": lambda doc, c: c.update(member_ids=c["member_ids"][0]),
        "member_ids ints": lambda doc, c: c.update(member_ids=list(range(len(c["member_ids"])))),
        "member_ids one short": lambda doc, c: c.update(member_ids=c["member_ids"][1:]),
        "true sentiment": lambda doc, c: c.update(
            sentiment_partials=[True] + c["sentiment_partials"][1:]),
        "cluster_id true": lambda doc, c: c.update(cluster_id=True),
        "links string": lambda doc, c: c.update(links=" ".join(c["links"])),
        "float per_day_counts": lambda doc, c: c.update(
            per_day_counts={d: float(n) for d, n in c["per_day_counts"].items()}),
        "expired_members true": lambda doc, c: doc.update(expired_members=True),
        "norm_sq kept": lambda doc, c: c.update(norm_sq=0.25),
        "next_id at a cluster id": lambda doc, c: doc.update(next_id=c["cluster_id"]),
        "cluster_id at next_id": lambda doc, c: c.update(cluster_id=doc["next_id"]),
        "cluster_id 0": lambda doc, c: c.update(cluster_id=0),
        "expired_members below expired_clusters": lambda doc, c: doc.update(expired_members=-1),
        "NaN sentiment": lambda doc, c: c.update(
            sentiment_partials=[NAN] + c["sentiment_partials"][1:]),
        "extra cluster key": lambda doc, c: c.update(extra=1),
        "expiry 1e300 hours": lambda doc, c: doc["params"].update(inactivity_expiry_hours=1e300),
        "non-whole term sum": lambda doc, c: c["term_sums"].update(
            {next(iter(c["term_sums"])): 2.5}),
        "zero term sum": lambda doc, c: c["term_sums"].update({next(iter(c["term_sums"])): 0.0}),
        "day count 0": lambda doc, c: (c["per_day_counts"].update({"2000-01-01": 0}),
                                       c["per_day_sentiment"].update({"2000-01-01": 0.0})),
        "sentiment day without members": lambda doc, c: c["per_day_sentiment"].update(
            {"2000-01-01": 0.0}),
        "no members": lambda doc, c: c.update(member_ids=[], per_day_counts={},
                                              per_day_sentiment={}),
        "version 1": lambda doc, c: doc.update(schema_version=1, clusters=[
            {("sentiments" if k == "sentiment_partials" else k): v for k, v in e.items()}
            for e in doc["clusters"]]),
    }

    @pytest.mark.parametrize("edit", CHECKPOINT_EDITS)
    def test_checkpoint_not_as_written_exits_2(self, tmp_path, capsys, detected, edit):
        paths, run_evaluate = detected
        flagged = json.loads(paths["report"].read_text())["events"][0]["cluster_id"]

        def apply(doc):
            cluster = next(c for c in doc["clusters"] if c["cluster_id"] == flagged)
            self.CHECKPOINT_EDITS[edit](doc, cluster)

        self._edit(paths["state"], apply)
        capsys.readouterr()
        assert run_evaluate() == 2
        assert capsys.readouterr().err.startswith("error: malformed evaluation input: ")
        assert not (tmp_path / "eval.json").exists()

    def test_truth_of_another_schema_version_exits_2(self, tmp_path, capsys, detected):
        paths, run_evaluate = detected
        self._edit(paths["truth"], lambda payload: payload.update(schema_version=7))
        capsys.readouterr()
        assert run_evaluate() == 2
        assert capsys.readouterr().err.startswith("error: malformed evaluation input: ")

    @pytest.mark.parametrize("name", ["state", "truth"])
    def test_reordered_keys_still_load(self, tmp_path, detected, name):
        paths, run_evaluate = detected

        def reverse(value):
            if isinstance(value, dict):
                return {key: reverse(value[key]) for key in reversed(list(value))}
            return [reverse(item) for item in value] if isinstance(value, list) else value

        document = json.loads(paths[name].read_text())
        paths[name].write_text(json.dumps(reverse(document)))
        assert paths[name].read_text() != json.dumps(document)
        assert run_evaluate() == 0
        assert json.loads((tmp_path / "eval.json").read_text())["f1"] == 1.0

    @pytest.mark.parametrize("key", ["event_index", "expected_controversial", "tweet_ids"])
    def test_truth_event_keys_are_required(self, tmp_path, key):
        path = tmp_path / "truth.json"
        GroundTruth(events=[outcry.EventTruth(0, True, ("a", "b"))]).save(path)
        payload = json.loads(path.read_text())
        del payload["events"][0][key]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfig, match=key):
            GroundTruth.load(path)


class TestPipelineCounters:
    def test_language_filter_and_discards_counted(self, tmp_path):
        lines = [
            json.dumps({"posting_id": "a", "creation_time": "2024-03-01T00:00:00Z",
                        "text": "AcmeCorp: Riverside outage", "language": "en"}),
            json.dumps({"posting_id": "b", "creation_time": "2024-03-01T00:01:00Z",
                        "text": "acmecorp c'est fini", "language": "fr"}),
            json.dumps({"posting_id": "c", "creation_time": "2024-03-01T00:02:00Z",
                        "text": "acmecorp of the and", "language": "en"}),
        ]
        stream = tmp_path / "in.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        cfg = RunConfig(phrases=["acmecorp"])
        result = run_detection(str(stream), cfg)
        assert result.replay_stats.yielded == 3
        assert result.counters["skipped_language"] == 1
        assert result.counters["discarded_empty"] == 1
        assert result.state.admitted == 1

    @pytest.mark.parametrize("between", [
        {"text": "acmecorp #omega #sigma", "language": "fr"},
        {"text": "acmecorp", "language": "en"},
    ], ids=["language-skipped", "empty"])
    def test_day_closes_at_first_admitted_vector_of_a_later_day(self, tmp_path, between):
        # x is 71 h idle at the skipped tweet and 73 h idle at y.  The day
        # closes at y, the first admitted vector of 03-04, and idleness is
        # measured from y's time, so x (expiry 72 h) is expired.
        lines = [
            {"posting_id": "x", "creation_time": "2024-03-01T12:00:00Z",
             "text": "acmecorp #alpha #beta", "language": "en"},
            {"posting_id": "m", "creation_time": "2024-03-04T11:00:00Z", **between},
            {"posting_id": "y", "creation_time": "2024-03-04T13:00:00Z",
             "text": "acmecorp #gamma #delta", "language": "en"},
        ]
        stream = tmp_path / "in.jsonl"
        stream.write_text("".join(json.dumps(line) + "\n" for line in lines))
        result = run_detection(str(stream), RunConfig(phrases=["acmecorp"]))
        assert result.state.admitted == 2
        assert result.state.expired_clusters == 1
        assert len(result.state.clusters) == 1


class TestDetector:
    def test_finish_lets_go_of_the_tagger(self):
        detector = Detector(RunConfig(phrases=["acmecorp"]))
        detector.feed(make_tweet("a", text="AcmeCorp: Riverside outage"))
        tagger = weakref.ref(detector.extractor.tagger)
        assert tagger() is not None
        detector.finish()
        assert detector.extractor is None and tagger() is None

    @pytest.mark.parametrize("language", ["en", "fr"])
    def test_a_finished_detector_takes_no_more_tweets(self, language):
        detector = Detector(RunConfig(phrases=["acmecorp"], language_filter="en"))
        detector.finish()
        tweet = make_tweet("b", text="AcmeCorp: Riverside fire", language=language)
        with pytest.raises(RuntimeError, match="the detector is finished"):
            detector.feed(tweet)
        assert detector.state.admitted == 0 and detector.counters["skipped_language"] == 0

    def test_report_is_rounded_in_every_part(self):
        lines, _ = outcry.generate(outcry.ScenarioConfig.from_dict(SCENARIO))
        cfg = RunConfig(phrases=["acmecorp"])
        result = run_detection(io.StringIO("\n".join(lines)), cfg)
        # Both parts hold floats that rounding changes, so each must be rounded.
        assert any(r.sentiment_mean != round(r.sentiment_mean, 6) for r in result.reports)
        assert any(e["mean_sentiment"] != round(e["mean_sentiment"], 6)
                   for day in result.daily_summaries for e in day["clusters"])
        payload = report_payload(result, cfg)
        assert payload == _round_floats(payload)


@pytest.mark.parametrize("setting", [
    {"lateness_seconds": NAN},
    {"inactivity_expiry_hours": NAN},
    {"inactivity_expiry_hours": float("inf")},
    {"burst_velocity_threshold": NAN},
    {"daily_summary_clusters": NAN},
    {"daily_summary_clusters": 2.5},
    {"rank_weights": [NAN, 0.5, 0.5]},
    {"min_event_size_N": NAN},
    {"min_event_size_N": True},
    {"merge_threshold_D": True},
    {"news_count_gate": NAN},
    {"network_timeout_ms": 1.5},
    {"network_timeout_ms": 2**31},
    {"resolver_mode": "network", "network_timeout_ms": 10**30},
    {"phrases": ["  "]},
    {"phrases": [""]},
    {"phrases": 5},
    {"phrases": ["acmecorp", 5]},
    {"language_filter": 5},
    {"lexicon_path": 5},
    {"state_out": ["s.json"]},
    {"dedup": "no"},
], ids=lambda setting: json.dumps(setting))
def test_non_finite_or_wrong_type_setting_is_config_error(tmp_path, setting):
    # json.dumps writes NaN/Infinity, which json.load reads back.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phrases": ["acmecorp"], **setting}))
    stream = tmp_path / "in.jsonl"
    stream.write_text("".join(
        json.dumps({"posting_id": f"t{i}", "creation_time": f"2024-03-0{1 + i % 3}T10:00:00Z",
                    "text": "acmecorp plant fire", "language": "en"}) + "\n"
        for i in range(9)
    ))
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
    ran = subprocess.run(
        [sys.executable, "-m", "outcry.cli", "detect", "--config", str(config),
         "--input", str(stream), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert ran.returncode == 1, ran.stderr
    assert "Traceback" not in ran.stderr
    assert ran.stderr.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, kind, expected", [
    ("detect", "missing", 2),
    ("detect", "directory", 2),
    ("detect", "not UTF-8", 1),
    ("synth", "not UTF-8", 1),
    ("detect", "too deep", 1),
    ("synth", "too deep", 1),
])
def test_unreadable_config_file_is_an_error_not_a_traceback(tmp_path, capsys,
                                                            command, kind, expected):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    elif kind == "not UTF-8":
        config.write_bytes(b'{"entity": "Caf\xe9"}')
    elif kind == "too deep":
        config.write_text('{"entity": ' + "[" * 100_000 + "]" * 100_000 + "}")
    stream = tmp_path / "in.jsonl"
    stream.write_text("")
    out = tmp_path / "out.json"
    if command == "detect":
        argv = ["detect", "--config", str(config), "--input", str(stream), "--phrases", "acme"]
    else:
        argv = ["synth", "--scenario", str(config)]
    assert main(argv + ["--out", str(out)]) == expected
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["market", "--prices", "p.csv", "--event-date", "2024-01-05"],
    ["synth", "--scenario", "s.json", "--out", "s.jsonl"],
    ["evaluate", "--report", "r.json", "--state", "s.json", "--truth", "t.json"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", [["--format", "table"], ["--config", "c.json"]],
                         ids=lambda flag: flag[0])
def test_config_and_format_are_detect_only(capsys, argv, flag):
    with pytest.raises(SystemExit) as usage_error:
        main(argv + flag)
    assert usage_error.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["detect --out", "detect --state-out",
                                    "market --out", "evaluate --out", "synth --out"])
def test_unwritable_output_is_input_error(tmp_path, target):
    missing = tmp_path / "missing" / "dir" / "out.json"
    stream = tmp_path / "in.jsonl"
    stream.write_text(json.dumps({"posting_id": "t1", "creation_time": "2024-03-01T10:00:00Z",
                                  "text": "acmecorp plant fire"}) + "\n")
    report, state, truth = tmp_path / "report.json", tmp_path / "state.json", tmp_path / "t.json"
    detect = ["detect", "--input", str(stream), "--phrases", "acmecorp"]
    if target == "evaluate --out":
        assert main(detect + ["--out", str(report), "--state-out", str(state)]) == 0
        GroundTruth().save(truth)
    prices = tmp_path / "prices.csv"
    event_day = write_price_csv(prices, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    argv = {
        "detect --out": detect + ["--out", str(missing)],
        "detect --state-out": detect + ["--out", str(report), "--state-out", str(missing)],
        "market --out": ["market", "--prices", str(prices),
                         "--event-date", event_day.isoformat(), "--out", str(missing)],
        "evaluate --out": ["evaluate", "--report", str(report), "--state", str(state),
                           "--truth", str(truth), "--out", str(missing)],
        "synth --out": ["synth", "--scenario", str(scenario), "--out", str(missing)],
    }[target]
    env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
    ran = subprocess.run([sys.executable, "-m", "outcry.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert ran.returncode == 2, ran.stderr
    assert "Traceback" not in ran.stderr
    assert ran.stderr.startswith("error: cannot write")


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["detect", "detect --format table", "market", "evaluate"])
def test_stdout_that_cannot_be_written_is_output_error(tmp_path, capsys, monkeypatch, command):
    stream = tmp_path / "in.jsonl"
    stream.write_text(json.dumps({"posting_id": "t1", "creation_time": "2024-03-01T10:00:00Z",
                                  "text": "acmecorp plant fire"}) + "\n")
    report, state, truth = tmp_path / "report.json", tmp_path / "state.json", tmp_path / "t.json"
    detect = ["detect", "--input", str(stream), "--phrases", "acmecorp"]
    assert main(detect + ["--out", str(report), "--state-out", str(state)]) == 0
    GroundTruth().save(truth)
    prices = tmp_path / "prices.csv"
    event_day = write_price_csv(prices, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
    argv = {
        "detect": detect,
        "detect --format table": detect + ["--format", "table"],
        "market": ["market", "--prices", str(prices), "--event-date", event_day.isoformat()],
        "evaluate": ["evaluate", "--report", str(report), "--state", str(state),
                     "--truth", str(truth)],
    }[command]
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_stdout_pipe_closed_before_the_write_exits_2(tmp_path, fmt, buffered):
    stream = tmp_path / "in.jsonl"
    stream.write_text(json.dumps({"posting_id": "t1", "creation_time": "2024-03-01T10:00:00Z",
                                  "text": "acmecorp plant fire"}) + "\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
    # Buffered, the output fits the buffer and fails only when flushed.
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        ran = subprocess.run([sys.executable, "-m", "outcry.cli", "detect", "--input", str(stream),
                              "--phrases", "acmecorp", "--format", fmt],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert ran.returncode == 2, ran.stderr
    assert ran.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


class TestImports:
    def test_market_runs_with_numpy_blocked(self, tmp_path):
        # numpy is only a test oracle: the package must import and run without it.
        prices = tmp_path / "prices.csv"
        event_day = write_price_csv(prices, [0.01, -0.01, 0.02, 0.0], event_return=-0.017)
        argv = ["market", "--prices", str(prices), "--event-date", event_day.isoformat(),
                "--out", str(tmp_path / "market.json")]
        code = ("import sys; sys.modules['numpy'] = None\n"
                "import outcry, outcry.cli\n"
                f"raise SystemExit(outcry.cli.main({argv!r}))")
        env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
        ran = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
        assert json.loads((tmp_path / "market.json").read_text())["stats"]["n"] == 4

    def test_offline_detect_loads_no_http_stack(self, tmp_path):
        # Only network mode needs HTTP, and only a tcp:// source needs a
        # socket.  No command needs dataclasses or inspect, which cost about
        # a fifth of an empty detect's start-up.  -S keeps site hooks from
        # importing any of these first.
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("https://sho.rt/a\thttps://www.reuters.com/a\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"redirect_map_path": str(redirects)}))
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(
            json.dumps({"posting_id": f"t{i}", "creation_time": f"2024-03-01T1{i}:00:00Z",
                        "text": "AcmeCorp plant fire https://sho.rt/a", "language": "en",
                        "urls": ["https://sho.rt/a"]}) + "\n" for i in range(6)))
        report = tmp_path / "report.json"
        argv = ["detect", "--config", str(config), "--input", str(stream),
                "--phrases", "acmecorp", "--out", str(report)]
        unused = ["ssl", "http.client", "email", "urllib.request", "socket",
                  "importlib.resources", "dataclasses", "inspect"]
        code = ("import sys\n"
                "import outcry.cli\n"
                f"if outcry.cli.main({argv!r}) != 0: sys.exit('detect failed')\n"
                f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
                "if loaded: sys.exit(f'offline detect loaded {loaded}')\n"
                "from outcry.credibility import NetworkRedirectResolver\n"
                "if NetworkRedirectResolver()._opener is None: sys.exit('no opener')\n"
                "if 'urllib.request' not in sys.modules: sys.exit('opener without urllib')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
        ran = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
        # The offline map resolved the short link to a credible story.
        assert json.loads(report.read_text())["events"][0]["news_count"] == 1

    def test_bare_import_loads_no_dataclasses_or_inspect(self):
        code = ("import sys, outcry\n"
                "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
                "if loaded: sys.exit(f'import outcry loaded {loaded}')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(outcry.__file__).resolve().parent.parent))
        ran = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
