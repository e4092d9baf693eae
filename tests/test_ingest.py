import inspect
import io
import json
import random
import re
import socket
import threading
from datetime import datetime, timedelta, timezone

import pytest

from outcry import (
    PhraseFilter,
    ReplayStats,
    SourceUnavailable,
    Tweet,
    replay_stream,
)
from outcry.ingest import BadTimestamp, MalformedRecord, MissingField

from conftest import BASE_TIME, make_tweet, matches, parse_record, stream_of


def record(posting_id="t1", ts="2024-03-01T12:00:00+00:00", text="hello world", **extra):
    data = {"posting_id": posting_id, "creation_time": ts, "text": text}
    data.update(extra)
    return json.dumps(data)


class TestParseTweetRecord:
    def test_full_record_maps_identically(self):
        line = record(
            posting_id="abc",
            text="Starbucks news",
            language="en",
            source="web",
            urls=["https://nytimes.com/a"],
            hashtags=["News"],
        )
        tweet = parse_record(line)
        assert tweet.posting_id == "abc"
        assert tweet.creation_time == datetime(2024, 3, 1, 12, tzinfo=timezone.utc)
        assert tweet.text == "Starbucks news"
        assert tweet.language == "en"
        assert tweet.source == "web"
        assert tweet.urls == ("https://nytimes.com/a",)
        assert tweet.hashtags == ("news",)

    def test_missing_urls_defaults_to_empty(self):
        tweet = parse_record(record())
        assert tweet.urls == ()
        assert tweet.hashtags == ()

    def test_missing_posting_id_is_error(self):
        line = json.dumps({"creation_time": "2024-03-01T00:00:00Z", "text": "x"})
        with pytest.raises(MissingField):
            parse_record(line)

    def test_missing_text_is_error(self):
        line = json.dumps({"posting_id": "a", "creation_time": "2024-03-01T00:00:00Z"})
        with pytest.raises(MissingField):
            parse_record(line)

    def test_missing_creation_time_is_error(self):
        line = json.dumps({"posting_id": "a", "text": "x"})
        with pytest.raises(MissingField):
            parse_record(line)

    def test_unparseable_json_is_malformed(self):
        with pytest.raises(MalformedRecord):
            parse_record("{not json")

    def test_non_object_is_malformed(self):
        with pytest.raises(MalformedRecord):
            parse_record("[1, 2]")

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32-le"])
    def test_bytes_line_is_decoded_like_json_loads(self, encoding):
        line = record(text="café")
        assert parse_record(line.encode(encoding)) == parse_record(line)

    def test_bad_timestamp(self):
        with pytest.raises(BadTimestamp):
            parse_record(record(ts="the other day"))

    @pytest.mark.parametrize("ts", [
        1e20,                          # past the platform's time_t: OverflowError
        10**30,                        # an int past it too
        -1e15,                         # year out of range: ValueError
        "0001-01-01T00:00:00+01:00",   # shifts to UTC before year 1
        "9999-12-31T23:59:59-01:00",   # shifts to UTC after year 9999
        True,                          # bools are not epoch seconds
        False,
    ])
    def test_out_of_range_or_bool_timestamp(self, ts):
        with pytest.raises(BadTimestamp):
            parse_record(record(ts=ts))

    def test_z_suffix_and_epoch_timestamps(self):
        a = parse_record(record(ts="2024-03-01T12:00:00Z"))
        b = parse_record(record(ts=1709294400))
        assert a.creation_time == b.creation_time

    def test_invalid_urls_are_discarded(self):
        tweet = parse_record(record(urls=["notaurl", "https://ok.example/x"]))
        assert tweet.urls == ("https://ok.example/x",)

    def test_hashtags_are_lowercased_and_unprefixed(self):
        tweet = parse_record(record(hashtags=["#BoycottAcme", "News"]))
        assert tweet.hashtags == ("boycottacme", "news")


class TestTweetRecord:
    def test_fields_and_defaults(self):
        params = inspect.signature(Tweet).parameters
        assert [(name, p.default) for name, p in params.items()] == [
            ("posting_id", inspect.Parameter.empty),
            ("creation_time", inspect.Parameter.empty),
            ("text", inspect.Parameter.empty),
            ("language", "und"),
            ("source", ""),
            ("urls", ()),
            ("hashtags", ()),
        ]

    def test_immutable_and_hashable(self):
        tweet = make_tweet(urls=["https://x.example/a"], hashtags=["acme"])
        for name in inspect.signature(Tweet).parameters:
            with pytest.raises(AttributeError):
                setattr(tweet, name, None)
        assert hash(tweet) == hash(make_tweet(urls=["https://x.example/a"], hashtags=["acme"]))
        assert len({tweet, make_tweet(), tweet}) == 2

    def test_parse_equals_keyword_built(self):
        line = record(posting_id="abc", text="Acme news", language="en", source="web",
                      urls=["https://nytimes.com/a", "notaurl"], hashtags=["#News"])
        assert parse_record(line) == Tweet(
            posting_id="abc",
            creation_time=datetime(2024, 3, 1, 12, tzinfo=timezone.utc),
            text="Acme news",
            language="en",
            source="web",
            urls=("https://nytimes.com/a",),
            hashtags=("news",),
        )
        assert parse_record(record()) == Tweet(
            posting_id="t1", creation_time=datetime(2024, 3, 1, 12, tzinfo=timezone.utc),
            text="hello world")


class TestPhraseFilter:
    def test_requires_at_least_one_phrase(self):
        with pytest.raises(ValueError):
            PhraseFilter([])

    def test_rejects_whitespace_phrase(self):
        with pytest.raises(ValueError):
            PhraseFilter(["ok", "   "])

    def test_text_substring_match(self):
        f = PhraseFilter(["starbucks"])
        assert matches(make_tweet(text="I love Starbucks coffee"), f)
        assert not matches(make_tweet(text="I love coffee"), f)

    def test_hashtag_only_match(self):
        # The text carries no mention; every retained field must be scanned.
        f = PhraseFilter(["starbucks"])
        tweet = make_tweet(text="great coffee downtown", hashtags=["starbucks"])
        assert matches(tweet, f)
        for field_only in [
            make_tweet(text="great coffee downtown"),
            make_tweet(text="great coffee downtown", hashtags=["coffee"]),
        ]:
            assert not matches(field_only, f)

    def test_url_host_match(self):
        f = PhraseFilter(["starbucks"])
        tweet = make_tweet(text="look", urls=["https://news.starbucks.com/x"])
        assert matches(tweet, f)


class TestReplayStream:
    def test_empty_source(self):
        stats = ReplayStats()
        out = list(replay_stream(stream_of([]), PhraseFilter(["x"]), stats=stats))
        assert out == []
        assert stats.dropped_late == 0 and stats.total == 0

    def test_in_order_passthrough(self):
        lines = [
            record(posting_id=f"t{i}", ts=f"2024-03-01T12:0{i}:00Z", text="acme rocks")
            for i in range(3)
        ]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"])))
        assert [t.posting_id for t in out] == ["t0", "t1", "t2"]

    def test_record_beyond_lateness_window_is_dropped(self):
        stats = ReplayStats()
        lines = [
            record(posting_id="fresh", ts="2024-03-03T12:00:00Z", text="acme"),
            record(posting_id="stale", ts="2024-03-01T12:00:00Z", text="acme"),
        ]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]),
                                 lateness_seconds=3600, stats=stats))
        assert [t.posting_id for t in out] == ["fresh"]
        assert stats.dropped_late == 1

    def test_slightly_late_record_is_reordered(self):
        lines = [
            record(posting_id="b", ts="2024-03-01T12:10:00Z", text="acme"),
            record(posting_id="a", ts="2024-03-01T12:05:00Z", text="acme"),
        ]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]),
                                 lateness_seconds=3600))
        assert [t.posting_id for t in out] == ["a", "b"]

    def test_parse_errors_are_counted_not_fatal(self):
        stats = ReplayStats()
        lines = ["{broken", record(text="acme")]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]), stats=stats))
        assert len(out) == 1
        assert stats.parse_errors == 1

    def test_out_of_range_epoch_is_a_parse_error(self):
        stats = ReplayStats()
        lines = [record(posting_id="a", text="acme"),
                 record(posting_id="huge", ts=1e20, text="acme"),
                 record(posting_id="b", ts="2024-03-01T12:00:01Z", text="acme")]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]), stats=stats))
        assert [t.posting_id for t in out] == ["a", "b"]
        assert stats.parse_errors == 1
        assert stats.total == 3

    def test_bad_line_is_a_parse_error_whether_or_not_it_matches(self):
        stats = ReplayStats()
        lines = [record(posting_id="a", text="nothing here", urls="https://x.example"),
                 record(posting_id="b", ts=True, text="nothing here"),
                 record(posting_id="c", text="nothing here"),
                 record(posting_id="d", text="acme", hashtags={"a": 1})]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]), stats=stats))
        assert out == []
        assert (stats.parse_errors, stats.filtered_out) == (3, 1)

    def test_overlong_integer_and_deep_nesting_are_parse_errors(self):
        stats = ReplayStats()
        overlong = record(posting_id="a", ts=0, text="acme").replace(
            '"creation_time": 0', '"creation_time": ' + "9" * 5000)
        too_deep = record(posting_id="b", text="acme", junk=None).replace(
            "null", "[" * 100_000 + "]" * 100_000)
        lines = [overlong, too_deep, record(posting_id="c", text="acme")]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]), stats=stats))
        assert [t.posting_id for t in out] == ["c"]
        assert (stats.parse_errors, stats.yielded) == (2, 1)

    def test_bytes_lines_replay_like_str_lines(self):
        lines = [record(posting_id="a", text="acme café"), "{broken",
                 record(posting_id="b", text="acme") + "x",
                 record(posting_id="c", text="nothing"), "  " + record(posting_id="d", text="acme")]
        text = stream_of(lines).getvalue()
        runs = []
        for source in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            stats = ReplayStats()
            runs.append((list(replay_stream(source, PhraseFilter(["acme"]), stats=stats)), stats))
        assert runs[0] == runs[1]
        assert [t.posting_id for t in runs[0][0]] == ["a", "d"]
        assert runs[0][1].parse_errors == 2

    def test_blank_means_json_whitespace_only_for_str_and_bytes(self):
        # "\xa0" and "\x1c" are str whitespace but not JSON whitespace, so
        # each such line is a parse error from either source, and a line of
        # JSON whitespace alone is not counted at all.
        text = "\xa0\n \t\r\n\x1c\n\n"
        for source in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            stats = ReplayStats()
            assert list(replay_stream(source, PhraseFilter(["acme"]), stats=stats)) == []
            assert (stats.total, stats.parse_errors) == (2, 2)

    def test_json_escaped_phrase_matches(self):
        line = record(text="all about AcmeCorp").replace("AcmeCorp", "\\u0041cmeCorp")
        assert "AcmeCorp" not in line
        out = list(replay_stream(stream_of([line]), PhraseFilter(["acmecorp"])))
        assert [t.text for t in out] == ["all about AcmeCorp"]

    def test_dedup_switch(self):
        stats = ReplayStats()
        lines = [record(posting_id="same", text="acme"),
                 record(posting_id="same", text="acme")]
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]),
                                 dedup=True, stats=stats))
        assert len(out) == 1
        assert stats.duplicates == 1

    def test_missing_file_raises_source_unavailable(self, tmp_path):
        gen = replay_stream(tmp_path / "nope.jsonl", PhraseFilter(["x"]))
        with pytest.raises(SourceUnavailable):
            next(gen)

    def test_randomized_streams_keep_invariants(self):
        # Output nondecreasing, every yield matches the filter, and the
        # counters partition the record total.
        rng = random.Random(20240301)
        for _ in range(50):
            n = rng.randrange(0, 60)
            lines = []
            for i in range(n):
                kind = rng.random()
                ts = BASE_TIME + timedelta(seconds=rng.randrange(0, 7200))
                if kind < 0.1:
                    lines.append("not json at all")
                elif kind < 0.3:
                    lines.append(record(posting_id=f"m{i}", ts=ts.isoformat(),
                                        text="nothing relevant"))
                else:
                    lines.append(record(posting_id=f"t{i}", ts=ts.isoformat(),
                                        text="all about acme today"))
            stats = ReplayStats()
            out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]),
                                     lateness_seconds=600, stats=stats))
            times = [t.creation_time for t in out]
            assert times == sorted(times)
            assert all(matches(t, PhraseFilter(["acme"])) for t in out)
            assert (stats.parse_errors + stats.dropped_late + stats.filtered_out
                    + stats.duplicates + stats.yielded) == stats.total == n

    @pytest.mark.parametrize("lateness, ids, dropped_late", [
        # Too wide for a timedelta: no watermark, nothing is late.
        (1e308, ["t6", "t0", "t7", "t2", "t1", "t13", "t12", "t5", "t8", "t15", "t11"], 0),
        # A timedelta, but it reaches back past year 1: no watermark either.
        (1e13, ["t6", "t0", "t7", "t2", "t1", "t13", "t12", "t5", "t8", "t15", "t11"], 0),
        (0, ["t0", "t1", "t5", "t8", "t11"], 6),
        (3600, ["t0", "t2", "t1", "t5", "t8", "t15", "t11"], 4),
    ])
    def test_extreme_lateness_windows(self, lateness, ids, dropped_late):
        rng = random.Random(11)
        lines = []
        for i in range(16):
            ts = (BASE_TIME + timedelta(minutes=10 * i + rng.randrange(-90, 91))).isoformat()
            if i % 7 == 3:
                lines.append("{not json")
            elif i % 5 == 4:
                lines.append(record(posting_id=f"m{i}", ts=ts, text="nothing relevant"))
            else:
                lines.append(record(posting_id=f"t{i}", ts=ts, text="acme today"))
        stats = ReplayStats()
        out = list(replay_stream(stream_of(lines), PhraseFilter(["acme"]),
                                 lateness_seconds=lateness, stats=stats))
        assert [t.posting_id for t in out] == ids
        assert stats == ReplayStats(total=16, parse_errors=2, dropped_late=dropped_late,
                                    filtered_out=3, duplicates=0, yielded=len(ids))

    def test_tcp_source(self):
        lines = [record(posting_id=f"t{i}", text="acme") for i in range(3)]
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            conn.sendall(("\n".join(lines) + "\n").encode())
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            out = list(replay_stream(f"tcp://127.0.0.1:{port}", PhraseFilter(["acme"])))
        finally:
            thread.join(timeout=5)
            server.close()
        assert len(out) == 3

    @pytest.mark.parametrize("data, ids", [
        # CR is JSON whitespace between fields, not a line break.
        (b'{"posting_id": "a",\r"creation_time": 0, "text": "acme"}\n', ["a"]),
        # A leading byte-order mark is dropped.
        (b"\xef\xbb\xbf" + record(posting_id="a", text="acme").encode() + b"\n"
         + record(posting_id="b", text="acme").encode() + b"\n", ["a", "b"]),
    ], ids=["lone CR", "BOM"])
    def test_file_and_tcp_sources_read_bytes_like_bytesio(self, tmp_path, data, ids):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            conn.sendall(data)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sources = [io.BytesIO(data), path, f"tcp://127.0.0.1:{server.getsockname()[1]}"]
        try:
            for source in sources:
                stats = ReplayStats()
                out = list(replay_stream(source, PhraseFilter(["acme"]), stats=stats))
                assert [t.posting_id for t in out] == ids, source
                assert stats == ReplayStats(total=len(ids), yielded=len(ids)), source
        finally:
            thread.join(timeout=5)
            server.close()
        assert not thread.is_alive()

    def test_unreachable_tcp_source(self):
        gen = replay_stream("tcp://127.0.0.1:1", PhraseFilter(["x"]))
        with pytest.raises(SourceUnavailable):
            next(gen)

    def test_tcp_source_bracketed_ipv6(self):
        try:
            server = socket.create_server(("::1", 0), family=socket.AF_INET6)
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            conn.sendall((record(text="acme") + "\n").encode())
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            out = list(replay_stream(f"tcp://[::1]:{port}", PhraseFilter(["acme"])))
        finally:
            thread.join(timeout=5)
            server.close()
        assert not thread.is_alive()
        assert [t.posting_id for t in out] == ["t1"]

    @pytest.mark.parametrize("address", [
        "tcp://127.0.0.1:99999",  # getaddrinfo would wrap it to port 34463
        "tcp://127.0.0.1:0",
        "tcp://127.0.0.1:-1",
        "tcp://127.0.0.1:http",
        "tcp://:8080",
        "tcp://127.0.0.1",
        "tcp://127.0.0.1:",
        "tcp://[::1]",
        "tcp://[::1:8080",
        "tcp://127.0.0.1:8080/stream",
        "tcp://127.0.0.1:8080?x=1",
        "tcp://user@127.0.0.1:8080",
    ])
    def test_bad_tcp_address_rejected_before_connecting(self, address, monkeypatch):
        def connect(*args, **kwargs):
            pytest.fail(f"connected for {address}")

        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(SourceUnavailable, match=re.escape(address)):
            next(replay_stream(address, PhraseFilter(["x"])))
