"""Seeded input streams for the detect benchmark and the facts their checks need.

Every stream starts from ``outcry.synth.generate``; the benchmark then adds
what the generator cannot make (arrival jitter, malformed lines, late and
boundary-late records, links).  The facts are taken from the configuration
and from these additions, never from a ``detect`` run, and are written beside
the stream as ``<stream>.facts.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from outcry.synth import GroundTruth, ScenarioConfig, generate

ENTITY = "AcmeCorp"
PHRASES = "acmecorp"
LATENESS_S = 3600  # detect's default lateness window
EVENT_TERMS = ["plant fire", "night shift", "union walkout"]

_HASHTAG = re.compile(r"#(\w+)")


@dataclass
class Workload:
    name: str
    stream: Path
    lines: int  # input lines offered to detect
    facts: dict
    truth: GroundTruth | None = None
    clean_lines: list[str] = field(default_factory=list)  # firehose only
    probe: bool = False  # also run the out-of-range epoch probe each round


def hashtag_terms(text: str) -> dict[str, int]:
    """Term counts of a generated ambient tweet.  Its only descriptor terms
    are its hashtags: the entity is sentence-initial and the filler words
    are neither verbs nor gazetteer entries."""
    terms: dict[str, int] = {}
    for tag in _HASHTAG.findall(text):
        tag = tag.lower()
        terms[tag] = terms.get(tag, 0) + 1
    return terms


def _write(path: Path, lines: list[str], facts: dict) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    path.with_name(path.name + ".facts.json").write_text(
        json.dumps(facts, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _day_counts(cfg: ScenarioConfig, ambient_rate: int) -> dict[str, int]:
    counts = {}
    for day in range(cfg.days):
        n = ambient_rate
        for ev in cfg.injected_events:
            if ev.start_day <= day < ev.start_day + ev.duration_days:
                n += ev.peak_rate
        counts[(cfg.start_date + timedelta(days=day)).isoformat()] = n
    return counts


def _event(start_day: int, duration: int, rate: int) -> dict:
    return {
        "start_day": start_day, "duration_days": duration, "peak_rate": rate,
        "term_pool": EVENT_TERMS, "sentiment_range": [-2.0, -1.0],
        "credible_link_count": 3, "noncredible_link_count": 2,
    }


def ambient_100k(seed: int, work: Path) -> Workload:
    """The acceptance suite's throughput scenario: 100,100 tweets that all
    name the entity, 450 disjoint topic pools, one negative event with
    credible links over the last two days."""
    days, per_day = 20, 5000
    cfg = ScenarioConfig.from_dict({
        "seed": seed, "days": days, "ambient_rate": per_day,
        "ambient_entity_rate": 1.0, "vocabulary_noise": 0.02,
        "ambient_topics": [[f"w{i}_{j}" for j in range(5)] for i in range(450)],
        "injected_events": [_event(days - 2, 2, 50)],
    })
    lines, truth = generate(cfg)
    event = cfg.injected_events[0]
    event_ids = set(truth.events[0].tweet_ids)
    pool_of = {}
    for line in lines:
        rec = json.loads(line)
        if rec["posting_id"] in event_ids:
            pool_of[rec["posting_id"]] = "event"
        else:  # a pool term is w<pool>_<k>; noise tags are zz<digits>
            pools = {t.split("_")[0] for t in hashtag_terms(rec["text"]) if t.startswith("w")}
            (pool_of[rec["posting_id"]],) = pools
    facts = {
        "records": len(lines),
        "matched": len(lines),
        "volume": _day_counts(cfg, per_day),
        "pool_of": pool_of,
        "event_ids": sorted(event_ids),
        "credible_link_count": event.credible_link_count,
        "sentiment_range": list(event.sentiment_range),
    }
    stream = work / "ambient_100k.jsonl"
    _write(stream, lines, facts)
    return Workload("ambient_100k", stream, len(lines), facts, truth)


_MALFORMED = (
    '{{"posting_id": "bad-{k}", "creation_time": "2024-03-0',
    '["AcmeCorp", {k}]',
    '{{"posting_id": "bad-{k}", "creation_time": "2024-03-02T10:00:00Z"}}',
    '{{"posting_id": "bad-{k}", "creation_time": "not a time", "text": "AcmeCorp: clock"}}',
    '{{"posting_id": "bad-{k}", "creation_time": "2024-03-02T10:00:00Z",'
    ' "text": "AcmeCorp: link", "urls": "https://example.com/x"}}',
)


def firehose(seed: int, work: Path) -> Workload:
    """About 200k records, ~7% naming the entity, arrival jittered inside the
    lateness window, ~1% malformed lines, a few late and boundary-late
    records, and a bursting negative event with credible links on the last
    day."""
    rng = random.Random(seed)
    days, matched_rate, other_rate = 20, 700, 9250
    ent_cfg = ScenarioConfig.from_dict({
        "seed": rng.randrange(2**31), "days": days, "ambient_rate": matched_rate,
        "ambient_entity_rate": 1.0, "vocabulary_noise": 0.02,
        "ambient_topics": [[f"a{i}_{j}" for j in range(5)] for i in range(150)],
        "injected_events": [_event(days - 1, 1, 1000)],
    })
    other_cfg = ScenarioConfig.from_dict({
        "seed": rng.randrange(2**31), "days": days, "ambient_rate": other_rate,
        "ambient_entity_rate": 0.0,
        "ambient_topics": [[f"b{i}_{j}" for j in range(5)] for i in range(300)],
    })
    ent_lines, truth = generate(ent_cfg)
    other_lines, _ = generate(other_cfg)

    # Arrival order: creation time plus a jitter shorter than the lateness
    # window, so no generated record is late.
    arrivals = []
    tagged = [(line, True) for line in ent_lines] + [(line, False) for line in other_lines]
    for line, matched in tagged:
        rec = json.loads(line)
        if not matched:
            rec["posting_id"] = "bg-" + rec["posting_id"]
            line = json.dumps(rec)
        t = datetime.fromisoformat(rec["creation_time"])
        arrivals.append((t.timestamp() + rng.uniform(0, LATENESS_S - 600), line, matched, t))
    arrivals.sort(key=lambda a: a[0])

    n_malformed = len(arrivals) // 100
    n_late, n_boundary = 40, 20
    extras_at = {}
    for k in range(n_malformed):
        extras_at.setdefault(rng.randrange(len(arrivals)), []).append(("bad", k))
    warm = len(arrivals) // 20  # after the first matched records have arrived
    for k in range(n_late):
        extras_at.setdefault(rng.randrange(warm, len(arrivals)), []).append(("late", k))
    for k in range(n_boundary):
        extras_at.setdefault(rng.randrange(warm, len(arrivals)), []).append(("edge", k))

    out, accepted = [], []  # accepted: matched records replay keeps, in arrival order
    newest = None  # newest creation time among matched records so far
    for pos, (_, line, matched, t) in enumerate(arrivals):
        for kind, k in extras_at.get(pos, ()):
            if kind == "bad":
                out.append(_MALFORMED[k % len(_MALFORMED)].format(k=k))
                continue
            # "late" is older than the watermark and dropped; "edge" sits
            # exactly on the watermark and is kept.
            shift = LATENESS_S + (rng.randrange(60, 7200) if kind == "late" else 0)
            when = newest - timedelta(seconds=shift)
            pool = rng.randrange(150)
            rec = {"posting_id": f"{kind}-{k}", "creation_time": when.isoformat(),
                   "text": f"{ENTITY}: more of the usual #a{pool}_0 #a{pool}_1 #a{pool}_2",
                   "language": "en", "source": "web", "urls": [], "hashtags": []}
            out.append(json.dumps(rec))
            if kind == "edge":
                accepted.append((when, out[-1]))
        out.append(line)
        if matched:
            accepted.append((t, line))
            if newest is None or t > newest:
                newest = t
    accepted.sort(key=lambda a: a[0])  # stable: equal times keep arrival order

    facts = {
        "records": len(out),
        "counters": {
            "total": len(out), "parse_errors": n_malformed, "dropped_late": n_late,
            "filtered_out": len(other_lines), "duplicates": 0,
            "yielded": len(ent_lines) + n_boundary,
        },
        "event_ids": truth.events[0].tweet_ids,
    }
    stream = work / "firehose.jsonl"
    _write(stream, out, facts)
    return Workload("firehose", stream, len(out), facts, truth,
                    clean_lines=[line for _, line in accepted], probe=True)


def shared_vocab(seed: int, work: Path) -> Workload:
    """About 40k tweets over 2,500 topic pools.  Every pool holds two hub
    terms from a set of 72 (each hub pair used once) plus three terms of its
    own, so a tweet shares a hub with dozens of live clusters.  1,400 pools
    are ten times as likely as the 1,100 rare ones, whose small clusters go
    idle and expire.  One tweet in 50 carries a news link."""
    rng = random.Random(seed)
    n_hubs, n_common, n_rare, copies = 72, 1400, 1100, 10
    pairs = [(a, b) for a in range(n_hubs) for b in range(a + 1, n_hubs)]
    rng.shuffle(pairs)
    pools = [[f"hub{a:02d}", f"hub{b:02d}"] + [f"p{i}_{j}" for j in range(3)]
             for i, (a, b) in enumerate(pairs[:n_common + n_rare])]
    cfg = ScenarioConfig.from_dict({
        "seed": rng.randrange(2**31), "days": 14, "ambient_rate": 2860,
        "ambient_entity_rate": 1.0, "vocabulary_noise": 0.02,
        "ambient_topics": pools[:n_common] * copies + pools[n_common:],
    })
    generated, _ = generate(cfg)
    lines = []
    for k, line in enumerate(generated):
        if k % 50 == 0:
            rec = json.loads(line)
            rec["urls"] = [f"https://www.reuters.com/business/acme-{k}?utm_source=x"]
            line = json.dumps(rec)
        lines.append(line)
    facts = {"records": len(lines), "matched": len(lines)}
    stream = work / "shared_vocab.jsonl"
    _write(stream, lines, facts)
    return Workload("shared_vocab", stream, len(lines), facts)


STREAMS = {"ambient_100k": ambient_100k, "firehose": firehose, "shared_vocab": shared_vocab}

# A fixed stream, independent of the seed: three good records and one whose
# epoch timestamp is out of datetime's range.  Replay should count it as a
# parse error.
PROBE_LINES = [
    json.dumps({"posting_id": f"ok-{k}", "creation_time": f"2024-03-0{k + 1}T12:00:00Z",
                "text": f"{ENTITY}: Plant Fire at Night Shift", "language": "en"})
    for k in range(3)
] + [json.dumps({"posting_id": "huge-epoch", "creation_time": 1e20,
                 "text": f"{ENTITY}: Plant Fire", "language": "en"})]
PROBE_COUNTERS = {"parse_errors": 1, "yielded": 3}
