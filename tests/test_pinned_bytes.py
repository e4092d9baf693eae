"""Pinned bytes: one seeded detect run whose report and checkpoint are
committed under ``tests/pinned/``.

The stream is a few thousand synthetic tweets with credible and
non-credible links, short links resolved through a redirect-map file (one
hop, two hops, a cycle and a chain past the hop limit), tracking params,
malformed lines, and late lines both inside and past the lateness window.
Any change to the report or checkpoint bytes fails this test.  A change
that alters them on purpose regenerates the files with

    PYTHONPATH=src python tests/test_pinned_bytes.py

and says so in CHANGES.md.
"""

import hashlib
import json
import os
import random
import sys
from datetime import datetime, timedelta
from pathlib import Path

from outcry import ScenarioConfig, generate
from outcry.cli import main

PINNED = Path(__file__).parent / "pinned"
REPORT = PINNED / "detect_report.json"
STATE_SHA256 = PINNED / "detect_state.sha256"

SCENARIO = {
    "seed": 29,
    "days": 8,
    "ambient_rate": 300,
    "ambient_entity_rate": 0.9,
    "vocabulary_noise": 0.05,
    "ambient_topics": [
        ["latte", "menu", "barista", "oatmilk"],
        ["store", "promo", "coupon"],
        ["app", "update", "login", "crash"],
        ["hiring", "jobs", "intern"],
    ],
    "injected_events": [
        {
            "start_day": 7, "duration_days": 1, "peak_rate": 700,
            "term_pool": ["plant fire", "night shift", "union walkout", "fire marshal"],
            "sentiment_range": [-2.0, -1.0],
            "credible_link_count": 4, "noncredible_link_count": 2,
        },
        {
            "start_day": 3, "duration_days": 2, "peak_rate": 150,
            "term_pool": ["charity gala", "river park", "food bank"],
            "sentiment_range": [1.0, 2.0],
            "credible_link_count": 2, "noncredible_link_count": 1,
            "expected_controversial": False,
        },
    ],
}

MALFORMED = [
    "{not json",
    '{"posting_id": 5, "creation_time": "2024-03-02T10:00:00+00:00", "text": "AcmeCorp: x"}',
    '{"posting_id": "bad-ts", "creation_time": "yesterday", "text": "AcmeCorp: plant fire"}',
    '["AcmeCorp", "a list"]',
    '{"posting_id": "no-text", "creation_time": "2024-03-03T10:00:00+00:00"}',
]


def _hops(start: str, count: int, final: str) -> list[tuple[str, str]]:
    """A redirect chain of ``count`` hops from ``start`` ending at ``final``."""
    chain = [start] + [f"https://hop.example/{start.rsplit('/', 1)[-1]}/{i}"
                       for i in range(1, count)]
    return list(zip(chain, chain[1:] + [final]))


def build_inputs(root: Path) -> None:
    """Write ``stream.jsonl``, ``redirects.tsv`` and ``config.json`` in ``root``."""
    lines, _ = generate(ScenarioConfig.from_dict(SCENARIO))
    rng = random.Random(SCENARIO["seed"])
    redirects: list[tuple[str, str]] = [
        ("https://loop.example/a", "https://loop.example/b"),
        ("https://loop.example/b", "https://loop.example/a"),
    ]
    records = [json.loads(line) for line in lines]
    for n, record in enumerate(records):
        if not record["urls"]:
            continue
        final = record["urls"][0]
        kind = rng.randrange(6)
        if kind == 0:  # one-hop short link
            short = f"https://sho.rt/{n}"
            redirects.append((short, final))
        elif kind == 1:  # two hops, the second with tracking params
            short = f"https://t.example/{n}"
            redirects += [(short, f"https://bit.example/{n}"),
                          (f"https://bit.example/{n}", final + "?utm_source=tw#top")]
        elif kind == 2:  # link with tracking params and an upper-case host
            short = final.replace("https://", "https://WWW.").replace("/story", "/Story")
            short += f"?utm_medium=social&id={n}"
        elif kind == 3 and n % 7 == 0:  # a cycle: the link is dropped
            short = "https://loop.example/a"
        elif kind == 3 and n % 7 == 1:  # a chain past the hop limit: dropped
            short = f"https://long.example/{n}"
            redirects += _hops(short, 11, final)
        else:
            continue
        record["urls"] = [short]
        record["text"] = record["text"].replace(final, short)
    out = [json.dumps(r, ensure_ascii=False) for r in records]
    # late records: copies moved back inside the lateness window are kept
    # and reordered; copies moved back past it are dropped
    for k, back in enumerate([300, 1200, 2400, 7200, 86400, 3 * 86400]):
        at = 400 + 450 * k
        record = dict(records[at], posting_id=f"late-{k}")
        stamp = datetime.fromisoformat(record["creation_time"]) - timedelta(seconds=back)
        record["creation_time"] = stamp.isoformat()
        out.insert(at + 1, json.dumps(record, ensure_ascii=False))
    for k, bad in enumerate(MALFORMED):
        out.insert(300 + 500 * k, bad)
    (root / "stream.jsonl").write_text("\n".join(out) + "\n", encoding="utf-8")
    (root / "redirects.tsv").write_text(
        "".join(f"{short}\t{final}\n" for short, final in redirects), encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps({"redirect_map_path": "redirects.tsv"}), encoding="utf-8")


def run_pinned(root: Path) -> tuple[bytes, str]:
    """Detect on the pinned inputs in ``root``: (report bytes, checkpoint sha256).
    Paths are relative, so the params echo does not depend on ``root``."""
    build_inputs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = main(["detect", "--config", "config.json", "--input", "stream.jsonl",
                     "--phrases", "acmecorp", "--out", "report.json",
                     "--state-out", "state.json"])
    finally:
        os.chdir(cwd)
    assert code == 0
    state = hashlib.sha256((root / "state.json").read_bytes()).hexdigest()
    return (root / "report.json").read_bytes(), state


def test_pinned_report_and_checkpoint_bytes(tmp_path):
    report, state = run_pinned(tmp_path)
    assert report == REPORT.read_bytes()
    assert state == STATE_SHA256.read_text().strip()


def test_pinned_stream_exercises_every_path():
    """The pinned report covers what it is meant to pin."""
    payload = json.loads(REPORT.read_text())
    counters = payload["counters"]
    assert counters["total"] > 3000
    assert counters["parse_errors"] == len(MALFORMED)
    assert counters["dropped_late"] >= 2
    assert any(e["controversial"] for e in payload["events"])
    assert any(e["news_count"] and not e["controversial"] for e in payload["events"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        report_bytes, state_hash = run_pinned(Path(scratch))
    PINNED.mkdir(exist_ok=True)
    REPORT.write_bytes(report_bytes)
    STATE_SHA256.write_text(state_hash + "\n")
    print(f"wrote {REPORT} and {STATE_SHA256}", file=sys.stderr)
