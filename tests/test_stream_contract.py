"""Contract: ``outcry detect`` on any input stream exits 0 or 2, never raises.

The README promises that parse failures are counted and never fatal.  The
streams here are fuzzed JSONL: lines that are not JSON, not UTF-8 or not
objects; records with missing and wrong-typed fields; boolean, NaN, huge and
year-1/9999 timestamps; text with Unicode whitespace; and ``urls`` and
``hashtags`` that are not arrays.  Every non-blank line is counted once, so the
report's ``total`` is the sum of the replay counters.  The resolver is the
default offline one, so no link is resolved over the network.
"""

import json

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from outcry.cli import main

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)

# Year 1 and 9999 repeat so that whole streams fall within a week of either end.
TIMES = [
    "2024-03-01T10:00:00Z", "2024-03-02T23:30:00-05:00", 1709287200, 1709287200.5,
    "0001-01-01T00:10:00+00:00", "0001-01-03T12:00:00Z", "0001-01-01T00:30:00+01:00",
    "9999-12-31T23:59:59Z", "9999-12-30T00:00:00+00:00", "9999-12-31T23:00:00-05:00",
    -62135596800, 253402300799, 1e20, 10**30, -1e20, True, False, None, "", "yesterday",
    float("nan"), float("inf"),
]
TEXTS = [
    "AcmeCorp closed the plant, not good #walkout",
    "AcmeCorp\u2028Riverside\xa0Plant\u3000closed\x1cnot\x85good #walkout",
    "acmecorp arrested\t\tnothing\n#Strike @user https://nytimes.com/a",
    "ACMECORP!!! terrible #!! @?!",
    "nothing about the company",
    "acmecorp",
    "",
]
URLS = ["https://nytimes.com/a", "http://sho.rt/x", "https://acmecorp.example/p", "notaurl",
        "", 7, None]
HASHTAGS = ["#walkout", "acmecorp", "#AcmeCorp", "", "#", 3, None]

good_records = st.fixed_dictionaries(
    {
        "posting_id": st.sampled_from(["t1", "t2", "t3", "t4"]),
        "creation_time": st.sampled_from(TIMES),
        "text": st.one_of(st.sampled_from(TEXTS), st.text(max_size=12).map("AcmeCorp ".__add__)),
        "language": st.sampled_from(["en", "en", "en-GB", "fr"]),
    },
    optional={
        "source": st.sampled_from(["web", ""]),
        "urls": st.lists(st.sampled_from(URLS), max_size=3),
        "hashtags": st.lists(st.sampled_from(HASHTAGS), max_size=3),
    },
)
FIELDS = ["posting_id", "creation_time", "text", "language", "source", "urls", "hashtags"]
records = st.one_of(
    good_records,
    good_records,
    st.builds(lambda record, key, value: {**record, key: value},
              good_records, st.sampled_from(FIELDS), json_values),
    st.builds(lambda record, key: {k: v for k, v in record.items() if k != key},
              good_records, st.sampled_from(FIELDS)),
)
# Records that json.loads rejects with other than JSONDecodeError: an integer
# past the int-digit limit, and nesting past the recursion limit.
OVERLONG_INT = b'{"posting_id": "t1", "creation_time": ' + b"9" * 5000 + b', "text": "AcmeCorp"}'
TOO_DEEP = (b'{"posting_id": "t2", "creation_time": 1709287200, "text": "AcmeCorp", "junk": '
            + b"[" * 100_000 + b"]" * 100_000 + b"}")
# Lines are bytes, so a stream can hold invalid UTF-8 (read with replacement).
lines = st.one_of(
    records.map(lambda r: json.dumps(r, ensure_ascii=False).encode("utf-8")),
    records.map(lambda r: json.dumps(r).encode("utf-8")),
    json_values.map(lambda v: json.dumps(v).encode("utf-8")),
    st.sampled_from([b"{", b"not json", b'{"posting_id": "t1",', b"[]", b"null", b"NaN",
                     b"\x00", b"   ", b"", b"\xff\xfe{}", b'{"text": "caf\xe9"}',
                     OVERLONG_INT, TOO_DEEP]),
    st.text(max_size=10).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=10),
)
streams = st.lists(lines, max_size=8)

YEAR_ONE = json.dumps({"posting_id": "t1", "creation_time": "0001-01-01T00:10:00+00:00",
                       "text": "AcmeCorp closed the plant #walkout", "language": "en"}).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("stream_contract")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=streams, lateness=st.sampled_from([None, 0.0, 3600.0, 1e12]))
@example(stream=[YEAR_ONE], lateness=None)
def test_detect_on_fuzzed_stream_exits_0_or_2(stream, lateness, workdir, capsys):
    stream_path = workdir / "in.jsonl"
    stream_path.write_bytes(b"".join(line + b"\n" for line in stream))
    out, state = workdir / "report.json", workdir / "state.json"
    out.unlink(missing_ok=True)
    state.unlink(missing_ok=True)
    argv = ["detect", "--input", str(stream_path), "--phrases", "acmecorp",
            "--out", str(out), "--state-out", str(state)]
    if lateness is not None:
        argv += ["--lateness-seconds", str(lateness)]
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")
        return
    counters = json.loads(out.read_text())["counters"]
    event(f"admitted {min(counters['admitted'], 1)}")
    assert counters["total"] == (counters["parse_errors"] + counters["dropped_late"]
                                 + counters["filtered_out"] + counters["duplicates"]
                                 + counters["yielded"])
    assert state.exists()
