"""Network redirect mode end to end: ``detect`` against a loopback HTTP
server gives the same events as an offline redirect map of the same graph,
and asks the server about each URL once."""

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from outcry import ScenarioConfig, generate
from outcry.cli import main

PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")

SCENARIO = {
    "seed": 3,
    "days": 4,
    "ambient_rate": 40,
    "ambient_topics": [["latte", "menu"], ["store", "promo"]],
    "injected_events": [{
        "start_day": 3, "duration_days": 1, "peak_rate": 120,
        "term_pool": ["plant fire", "night shift", "union walkout"],
        "sentiment_range": [-2.0, -1.0],
        "credible_link_count": 5, "noncredible_link_count": 0,
    }],
}


class _Handler(BaseHTTPRequestHandler):
    """HEAD ``/s/<n>`` answers 302 to the relative ``/story/<n>``; every
    other path answers 200.  Each request path is logged."""

    def do_HEAD(self):
        self.server.seen.append(self.path)
        if self.path.startswith("/s/"):
            self.send_response(302)
            self.send_header("Location", "/story/" + self.path[len("/s/"):])
        else:
            self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass


@pytest.fixture
def loopback():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _write_inputs(root, base):
    """The stream (every event link a short link, some with tracking params,
    and a few direct story links), the allowlist, and the redirect map."""
    lines, _ = generate(ScenarioConfig.from_dict(SCENARIO))
    out, shorts = [], set()
    for n, line in enumerate(lines):
        record = json.loads(line)
        if record["urls"]:
            k = record["urls"][0].rsplit("/", 1)[-1]
            link = [f"{base}/s/{k}", f"{base}/s/{k}?utm_source=tw", f"{base}/story/{k}#c"][n % 3]
            shorts.add(f"{base}/s/{k}")
            record["text"] = record["text"].replace(record["urls"][0], link)
            record["urls"] = [link]
        out.append(json.dumps(record))
    (root / "stream.jsonl").write_text("\n".join(out) + "\n")
    (root / "allow.txt").write_text("127.0.0.1\n")
    (root / "redirects.tsv").write_text(
        "".join(f"{s}\t{s.replace('/s/', '/story/')}\n" for s in sorted(shorts)))
    return shorts


def _detect(root, name, config):
    (root / f"{name}.config.json").write_text(json.dumps(config))
    out = root / f"{name}.json"
    code = main(["detect", "--config", str(root / f"{name}.config.json"),
                 "--input", str(root / "stream.jsonl"), "--phrases", "acmecorp",
                 "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_network_mode_matches_offline_map(tmp_path, loopback, monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    base = f"http://127.0.0.1:{loopback.server_port}"
    shorts = _write_inputs(tmp_path, base)
    allow = str(tmp_path / "allow.txt")

    network = _detect(tmp_path, "network", {"resolver_mode": "network", "allowlist_path": allow})
    offline = _detect(tmp_path, "offline", {"redirect_map_path": str(tmp_path / "redirects.tsv"),
                                            "allowlist_path": allow})

    assert network["events"] == offline["events"]
    assert network["daily_summaries"] == offline["daily_summaries"]
    flagged = [e for e in network["events"] if e["controversial"]]
    assert flagged and flagged[0]["news_count"] == len(shorts) == 5
    # each short link and each story page is asked about once
    seen = Counter(loopback.seen)
    assert set(seen.values()) == {1}
    assert set(seen) == ({s[len(base):] for s in shorts}
                         | {s[len(base):].replace("/s/", "/story/") for s in shorts})
