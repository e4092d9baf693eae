"""Contract: ``outcry detect`` on any config file exits 0, 1 or 2, never raises.

The README promises that config errors exit 1 and input errors exit 2.  The
config files here are fuzzed: every key, values of every JSON type, and data
files that are missing, empty, a directory, not UTF-8 or malformed.  The
stream and output paths come from the command line, so a run never writes
outside its temporary directory; so do the phrases, unless the config holds
them.  The stream has no URLs, so no
setting makes a run resolve links over the network.
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from outcry import RunConfig
from outcry.cli import main

KEYS = sorted(RunConfig().as_dict())
PATH_KEYS = [key for key in KEYS if key.endswith("_path")]

# Data files by name; a path key can point at any of them.  "missing" is
# never written and "directory" is made a directory.
DATA_FILES = {
    "missing": None,
    "directory": None,
    "empty": b"",
    "not_utf8": b"caf\xe9\n",
    "words": b"acmecorp\nriverside plant\n",
    "lexicon": b"grim\t-1.5\n[negators]\nnot\n[intensifiers]\nvery\t1.5\n",
    "lexicon_not_a_number": b"bad\tnotnum\n",
    "lexicon_out_of_range": b"doom\t-3.5\n",
    "lexicon_unknown_section": b"[moods]\nfine\n",
    "allowlist_with_scheme": b"https://nytimes.com\n",
    "redirects": b"https://sho.rt/x\thttps://nytimes.com/a\n",
    "redirects_without_tab": b"https://sho.rt/x\n",
}

# Values a working config might hold, per key.
GOOD = {
    "phrases": [["acmecorp"], "acmecorp, riverside"],
    "format": ["json", "table"],
    "lateness_seconds": [0, 3600.0, 1e12, 1e308],
    "dedup": [True, False],
    "language_filter": ["en", None, ""],
    "merge_threshold_D": [0.3, 0.7, 2.0],
    "min_event_size_N": [1, 2, 5],
    "inactivity_expiry_hours": [0.5, 72.0, 1e8, 1e300],
    "burst_velocity_threshold": [0.5, 2.0],
    "rank_weights": [[0.4, 0.3, 0.3], [1, 0, 0]],
    "news_count_gate": [1, 3],
    "resolver_mode": ["offline"],
    "network_timeout_ms": [1, 3000, 2**31 - 1],
    "daily_summary_clusters": [1, 5],
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.sampled_from([10**30, -(10**30)]),
    st.floats(),
    st.text(alphabet="aen,.#/ \x00", max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)
# ("data file", name) stands for the path of that data file; JSON has no tuples.
data_files = st.sampled_from(sorted(DATA_FILES)).map(lambda name: ("data file", name))


def good_value(key):
    if key in PATH_KEYS:
        return st.one_of(st.none(), data_files)
    return st.sampled_from(GOOD[key])


# Mostly settings a working config might hold; then the same with one key
# set to arbitrary JSON, or with phrases that may be empty or blank; then
# files that are not a config object at all.
good_configs = st.fixed_dictionaries(
    {}, optional={key: good_value(key) for key in KEYS if key in GOOD or key in PATH_KEYS})
configs = st.one_of(
    good_configs,
    st.builds(lambda config, key, value: {**config, key: value},
              good_configs, st.sampled_from(KEYS + ["bogus_key"]), json_values),
    st.builds(lambda config, phrases: {**config, "phrases": phrases},
              good_configs, st.lists(st.text(alphabet="a \t", max_size=2), max_size=3)),
    json_values,
    st.binary(max_size=12),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "directory").mkdir()
    for name, content in DATA_FILES.items():
        if content is not None:
            (root / name).write_bytes(content)
    # Three days of matching tweets, so day changes expire clusters.
    (root / "in.jsonl").write_text("".join(
        json.dumps({"posting_id": f"t{i}",
                    "creation_time": f"2024-03-0{1 + i // 4}T1{i % 4}:00:00Z",
                    "text": "AcmeCorp Riverside Plant closed, not good #walkout",
                    "language": "en"}) + "\n"
        for i in range(12)
    ))
    return root


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs)
def test_detect_on_fuzzed_config_exits_0_1_or_2(config, workdir, capsys):
    config_path = workdir / "config.json"
    if isinstance(config, bytes):
        config_path.write_bytes(config)
    else:
        if isinstance(config, dict):
            config = {key: str(workdir / value[1]) if isinstance(value, tuple) else value
                      for key, value in config.items()}
        config_path.write_text(json.dumps(config))
    out, state = workdir / "report.json", workdir / "state.json"
    out.unlink(missing_ok=True)
    state.unlink(missing_ok=True)
    # --phrases would override the config's phrases, so it is left out when
    # the config holds them.
    phrases = [] if isinstance(config, dict) and "phrases" in config else ["--phrases", "acmecorp"]
    code = main(["detect", "--config", str(config_path), "--input", str(workdir / "in.jsonl"),
                 *phrases, "--out", str(out), "--state-out", str(state)])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:  # a JSON report or a table
        text = out.read_text()
        assert '"total": 12' in text or "tweets: 12 total" in text
    else:
        assert err.startswith("error: ")
        assert not out.exists()
