"""Output checks for the detect benchmark.

Each check compares what ``detect`` wrote with a computation made apart from
it: counts and ids taken from the stream's construction, a burst velocity
from the configured per-day counts, and a reference clusterer written here.
A check returns a list of error strings; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
from datetime import date, datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

from outcry.clustering import ClusterState
from outcry.config import RunConfig
from outcry.pipeline import report_payload, run_detection
from outcry.synth import evaluate

from streams import PHRASES, PROBE_COUNTERS, Workload, hashtag_terms

# detect's defaults, which every benchmark run uses
MERGE_THRESHOLD = 0.7
MIN_EVENT_SIZE = 5
EXPIRY = timedelta(hours=72)
BURST_THRESHOLD = 2.0
BASELINE_DAYS = 7


def _counters(report: dict, expected: dict) -> list[str]:
    got = report["counters"]
    return [f"counter {k} is {got.get(k)}, expected {v}"
            for k, v in expected.items() if got.get(k) != v]


def _partition(clusters) -> dict[int, frozenset[str]]:
    return {c.cluster_id: frozenset(c.member_ids) for c in clusters}


def check_empty(report: dict, state_path: Path) -> list[str]:
    errors = _counters(report, {"total": 0, "yielded": 0, "live_clusters": 0})
    if report["events"]:
        errors.append("empty stream produced events")
    return errors


def check_probe(report: dict, state_path: Path) -> list[str]:
    return _counters(report, PROBE_COUNTERS)


def _velocity(volume: dict[str, int]) -> float:
    """Entity velocity on the last day against the trailing 7-day mean, with
    missing days as zero and a floor of one."""
    today = max(volume)
    day = date.fromisoformat(today)
    baseline = sum(volume.get((day - timedelta(days=k)).isoformat(), 0)
                   for k in range(1, BASELINE_DAYS + 1)) / BASELINE_DAYS
    return volume[today] / max(1.0, baseline)


class AmbientCheck:
    """Pool purity of every cluster and the injected event's cluster,
    links, sentiment and burst velocity."""

    def __init__(self, wl: Workload):
        self.facts = wl.facts
        n = wl.facts["records"]
        self.counters = {"total": n, "yielded": n, "parse_errors": 0,
                         "dropped_late": 0, "filtered_out": 0, "duplicates": 0}
        self.event_ids = frozenset(wl.facts["event_ids"])

    def __call__(self, report: dict, state_path: Path) -> list[str]:
        facts = self.facts
        errors = _counters(report, self.counters)
        if report["volume"] != facts["volume"]:
            errors.append("per-day volume differs from the configured counts")
        state = json.loads(state_path.read_text(encoding="utf-8"))
        pool_of = facts["pool_of"]
        owners = []
        for cluster in state["clusters"]:
            members = cluster["member_ids"]
            pools = {pool_of[m] for m in members}
            if len(pools) > 1:
                errors.append(f"cluster {cluster['cluster_id']} mixes pools {sorted(pools)[:4]}")
            if self.event_ids.intersection(members):
                owners.append(cluster)
        if len(owners) != 1 or set(owners[0]["member_ids"]) != self.event_ids:
            errors.append(f"event tweets spread over {len(owners)} clusters or share one")
            return errors
        entry = next((e for e in report["events"]
                      if e["cluster_id"] == owners[0]["cluster_id"]), None)
        if entry is None:
            return errors + ["event cluster missing from the report"]
        if entry["news_count"] != facts["credible_link_count"]:
            errors.append(f"event news_count {entry['news_count']}, "
                          f"expected {facts['credible_link_count']}")
        lo, hi = facts["sentiment_range"]
        if not lo <= entry["sentiment_mean"] <= hi:
            errors.append(f"event sentiment_mean {entry['sentiment_mean']} outside [{lo}, {hi}]")
        velocity = _velocity(facts["volume"])
        if entry["burst_velocity"] != round(velocity, 6):
            errors.append(f"event burst_velocity {entry['burst_velocity']}, "
                          f"expected {round(velocity, 6)}")
        flagged = entry["sentiment_mean"] < 0 and velocity >= BURST_THRESHOLD
        if entry["controversial"] != flagged:
            errors.append(f"event controversial is {entry['controversial']}, expected {flagged}")
        return errors


class FirehoseCheck:
    """Exact replay counters, precision and recall against the generator's
    ground truth, and events and volume equal to a run over the clean
    matched records in order."""

    def __init__(self, wl: Workload):
        self.counters = wl.facts["counters"]
        self.truth = wl.truth
        cfg = RunConfig(phrases=[PHRASES])
        clean = json.loads(json.dumps(report_payload(run_detection(wl.clean_lines, cfg), cfg)))
        self.events, self.volume = clean["events"], clean["volume"]

    def __call__(self, report: dict, state_path: Path) -> list[str]:
        errors = _counters(report, self.counters)
        flags = [SimpleNamespace(cluster_id=e["cluster_id"], controversial=e["controversial"])
                 for e in report["events"]]
        score = evaluate(flags, ClusterState.load(state_path), self.truth)
        if (score.precision, score.recall) != (1.0, 1.0):
            errors.append(f"precision {score.precision}, recall {score.recall}, expected 1.0")
        if report["volume"] != self.volume:
            errors.append("volume differs from the clean in-order run")
        if report["events"] != self.events:
            errors.append("events differ from the clean in-order run")
        return errors


def reference_clusters(lines: list[str]) -> SimpleNamespace:
    """Online clustering of the stream's hashtag terms, coded apart from
    ClusterState: cosine distance to the cluster term sums, merge below the
    threshold, ties to the lowest cluster id, and at each day change the
    eviction of sub-event clusters idle longer than the expiry window."""
    sums: dict[int, dict[str, float]] = {}
    sq: dict[int, float] = {}
    members: dict[int, list[str]] = {}
    last: dict[int, datetime] = {}
    holders: dict[str, set[int]] = {}  # term -> live clusters using it
    next_id, expired, expired_members, day = 1, 0, 0, None
    for line in lines:
        rec = json.loads(line)
        when = datetime.fromisoformat(rec["creation_time"])
        terms = hashtag_terms(rec["text"])
        if day is not None and when.date() != day:
            cutoff = when - EXPIRY
            for cid in [c for c in members if last[c] < cutoff and len(members[c]) < MIN_EVENT_SIZE]:
                expired += 1
                expired_members += len(members[cid])
                for term in sums[cid]:
                    holders[term].discard(cid)
                del sums[cid], sq[cid], members[cid], last[cid]
        day = when.date()
        shared = set().union(*(holders.get(t, ()) for t in terms))
        norm = math.sqrt(sum(n * n for n in terms.values()))
        best, best_d = None, 2.0
        for cid in sorted(shared):
            dot = sum(n * sums[cid].get(t, 0.0) for t, n in terms.items())
            d = max(0.0, 1.0 - dot / (norm * math.sqrt(sq[cid])))
            if d < best_d:
                best, best_d = cid, d
        if best is None or best_d >= MERGE_THRESHOLD:
            best, next_id = next_id, next_id + 1
            sums[best], sq[best], members[best], last[best] = {}, 0.0, [], when
        for t, n in terms.items():
            old = sums[best].get(t, 0.0)
            sums[best][t] = old + n
            sq[best] += (old + n) ** 2 - old ** 2
            holders.setdefault(t, set()).add(best)
        members[best].append(rec["posting_id"])
        last[best] = max(last[best], when)
    return SimpleNamespace(
        partition={cid: frozenset(m) for cid, m in members.items()},
        expired=expired, expired_members=expired_members, admitted=len(lines))


class SharedVocabCheck:
    """The partition (live clusters and their ids), expiry counters and event
    list equal the reference clusterer's, both as written by detect and as
    read back by ClusterState.load."""

    def __init__(self, wl: Workload):
        n = wl.facts["records"]
        ref = reference_clusters(wl.stream.read_text(encoding="utf-8").splitlines())
        self.partition = ref.partition
        self.counters = {
            "total": n, "yielded": n, "parse_errors": 0, "admitted": ref.admitted,
            "live_clusters": len(ref.partition), "expired_clusters": ref.expired,
            "expired_members": ref.expired_members,
        }
        self.events = {(cid, len(m)) for cid, m in ref.partition.items() if len(m) >= MIN_EVENT_SIZE}

    def __call__(self, report: dict, state_path: Path) -> list[str]:
        errors = _counters(report, self.counters)
        if {(e["cluster_id"], e["member_count"]) for e in report["events"]} != self.events:
            errors.append("reported events differ from the reference clusterer's")
        loaded = _partition(ClusterState.load(state_path).clusters.values())
        if loaded != self.partition:
            diff = len(set(loaded.items()) ^ set(self.partition.items()))
            errors.append(f"partition differs from the reference in {diff} clusters")
        return errors


CHECKS = {"ambient_100k": AmbientCheck, "firehose": FirehoseCheck, "shared_vocab": SharedVocabCheck}
