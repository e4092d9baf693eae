"""Property tests: replay against the parse-then-filter oracle.

``reference.reference_replay`` parses every line into a full Tweet and only
then applies the phrase filter.  The shipped replay decides the match from
the decoded record and builds a Tweet only for records that match; on any
stream it must yield the same tweets in the same order with the same
counters.
"""

import json
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from outcry import PhraseFilter, ReplayStats, matches_filter, parse_tweet_record, replay_stream

from reference import reference_matches, reference_parse, reference_replay

BASE = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)

PHRASES = ["acmecorp", "AcmeCorp", "ACME", "news.example", "#acme", "corp"]
TEXTS = [
    "all about AcmeCorp today", "ACMECORP!", "Ünïcode façade acmecorp", "read news.example",
    "#acme", "nothing relevant", "", "acme corp", "plain words", "Ünïcode only",
]
HASHTAGS = ["#AcmeCorp", "acmecorp", "##ACME", "#", "", "other", "#News", "a#acme", 5, None]
URLS = [
    "https://acmecorp.example/x", "http://ACMECORP.com", "https://news.example/acmecorp",
    "https://other.example/acme", "ftp://host.acme.org/f", "not a url acmecorp",
    "http://[::1", "//acmecorp.com/x", "https://user@AcmeCorp.net:8080/p", 7, None,
]
GOOD_TIMES = st.one_of(
    st.integers(-7200, 7200).map(lambda s: (BASE + timedelta(seconds=s)).isoformat()),
    st.integers(-7200, 7200).map(lambda s: BASE.timestamp() + s),
    st.integers(-7200, 7200).map(
        lambda s: (BASE + timedelta(seconds=s)).strftime("%Y-%m-%dT%H:%M:%SZ")),
)
BAD_TIMES = ["not a time", True, False, 1e20, None, [], "2024-13-01T00:00:00"]
EMPTY = [None, 0, False, "", {}]  # read as an empty array
NOT_ARRAYS = ["https://acmecorp.com", "#acme", {"a": 1}, 1, True]
# json.loads skips " ", "\t", "\r" around a record, but not "\x0b", "\x0c",
# "\xa0" or a BOM, nor anything after the record.
PADS = [" ", "\t", "\r", "  \t", "\x0b", "\x0c", "\xa0", "\ufeff"]
TRAILERS = ["{}", "x", " x", '{"posting_id": "p9"}', "[]"]
# Lines that json.loads rejects with other than JSONDecodeError.
OVERLONG_INT = ('{"posting_id": "p1", "creation_time": ' + "9" * 5000
                + ', "text": "AcmeCorp"}')
TOO_DEEP = ('{"posting_id": "p1", "creation_time": 0, "text": "AcmeCorp", "junk": '
            + "[" * 100_000 + "]" * 100_000 + "}")
DEFECTS = ["none"] * 8 + ["missing", "bad id", "bad time", "bad text",
                          "hashtags not array", "urls not array"]


@st.composite
def records(draw):
    rec = {
        "posting_id": draw(st.sampled_from(["p1", "p2", "p3", "p4"])),
        "creation_time": draw(GOOD_TIMES),
        "text": draw(st.sampled_from(TEXTS)),
    }
    for key, pool in (("hashtags", HASHTAGS), ("urls", URLS)):
        if draw(st.booleans()):
            rec[key] = draw(st.one_of(st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                                      st.sampled_from(EMPTY)))
    if draw(st.booleans()):
        rec["language"] = draw(st.sampled_from(["en", "", None, 3]))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "missing":
        del rec[draw(st.sampled_from(["posting_id", "creation_time", "text"]))]
    elif defect == "bad id":
        rec["posting_id"] = draw(st.sampled_from(["", 5, None]))
    elif defect == "bad time":
        rec["creation_time"] = draw(st.sampled_from(BAD_TIMES))
    elif defect == "bad text":
        rec["text"] = draw(st.sampled_from([None, 3, ["AcmeCorp"]]))
    elif defect != "none":
        rec[defect.split()[0]] = draw(st.sampled_from(NOT_ARRAYS))
    line = json.dumps(rec, ensure_ascii=draw(st.booleans()))
    how = draw(st.sampled_from(["plain"] * 4 + ["escape", "truncate", "pad", "extra"]))
    if how == "escape":  # the same record, with its A's as JSON escapes
        line = line.replace("A", "\\u0041")
    elif how == "truncate":
        line = line[:draw(st.integers(0, max(0, len(line) - 1)))]
    elif how == "pad":
        pad = draw(st.sampled_from(PADS))
        line = pad + line if draw(st.booleans()) else line + pad
    elif how == "extra":
        line += draw(st.sampled_from(TRAILERS))
    return line


lines = st.one_of(
    records(), records(), records(), records(),
    st.sampled_from(["", "   ", "\n", " \t\r", "\xa0", "\x1c", "[1, 2]", '["AcmeCorp", 3]',
                     "not json at all", "null", "42", '"AcmeCorp"', "{}", '{"text": "AcmeCorp"',
                     OVERLONG_INT, TOO_DEEP]),
)


def _replay(replay, stream, phrases, lateness, dedup):
    stats = ReplayStats()
    out = list(replay(stream, phrases, lateness_seconds=lateness, dedup=dedup, stats=stats))
    return out, stats


@settings(max_examples=400, deadline=None)
@given(stream=st.lists(lines, max_size=40),
       phrases=st.lists(st.sampled_from(PHRASES), min_size=1, max_size=3),
       lateness=st.sampled_from([0.0, 60.0, 600.0, 3600.0]),
       dedup=st.booleans())
def test_replay_equals_parse_then_filter(stream, phrases, lateness, dedup):
    phrase_filter = PhraseFilter(phrases)
    got, got_stats = _replay(replay_stream, stream, phrase_filter, lateness, dedup)
    want, want_stats = _replay(reference_replay, stream, phrase_filter, lateness, dedup)
    assert got == want
    assert got_stats == want_stats
    assert got_stats.total == (got_stats.parse_errors + got_stats.dropped_late
                               + got_stats.filtered_out + got_stats.duplicates
                               + got_stats.yielded)
    times = [t.creation_time for t in got]
    assert times == sorted(times)


@settings(max_examples=400, deadline=None)
@given(line=lines, phrases=st.lists(st.sampled_from(PHRASES), min_size=1, max_size=3))
def test_parse_and_match_equal_the_oracle(line, phrases):
    phrase_filter = PhraseFilter(phrases)
    try:
        want = reference_parse(line)
    except ValueError as exc:
        want = type(exc)
    try:
        got = parse_tweet_record(line)
    except ValueError as exc:
        got = type(exc)
    assert got == want
    if not isinstance(want, type):
        assert matches_filter(got, phrase_filter) == reference_matches(want, phrase_filter)
