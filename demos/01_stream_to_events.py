#!/usr/bin/env python3
"""Walk a handful of tweets through the whole detection pipeline by hand.

Shows each stage separately: parsing and phrase filtering, feature
extraction (terms / sentiment / links), online clustering, and the final
controversy scoring.  Run it directly:

    python demos/01_stream_to_events.py
"""

import io
import json
from datetime import date

from outcry import (
    AllowList,
    ClusterParams,
    ClusterState,
    ControversyParams,
    FeatureExtractor,
    PhraseFilter,
    classify_and_rank,
    replay_stream,
)

RAW_TWEETS = [
    # a quiet day of ordinary chatter
    {"posting_id": "q1", "creation_time": "2024-03-01T09:00:00Z",
     "text": "trying the new AcmeCorp breakfast menu #acmecorp"},
    {"posting_id": "q2", "creation_time": "2024-03-01T11:30:00Z",
     "text": "AcmeCorp gift cards are back #acmecorp"},
    {"posting_id": "q3", "creation_time": "2024-03-01T15:00:00Z",
     "text": "the AcmeCorp rewards app got an update #acmecorp"},
    # the incident: several tweets sharing the same descriptors plus
    # verified news links and negative language
    {"posting_id": "e1", "creation_time": "2024-03-02T10:00:00Z",
     "text": "AcmeCorp: staff called police at the Riverside Plaza store, outrageous",
     "urls": ["https://www.nytimes.com/2024/03/02/riverside.html"]},
    {"posting_id": "e2", "creation_time": "2024-03-02T10:05:00Z",
     "text": "AcmeCorp video from Riverside Plaza is awful, boycott #BoycottAcmeCorp"},
    {"posting_id": "e3", "creation_time": "2024-03-02T10:20:00Z",
     "text": "AcmeCorp: the Riverside Plaza arrest got caught on camera, disgusting",
     "urls": ["https://NYTimes.com/2024/03/02/riverside.html#comments"]},
    {"posting_id": "e4", "creation_time": "2024-03-02T10:40:00Z",
     "text": "AcmeCorp cannot ignore what happened at Riverside Plaza, shame"},
    {"posting_id": "e5", "creation_time": "2024-03-02T11:00:00Z",
     "text": "AcmeCorp must answer for Riverside Plaza. unacceptable",
     "urls": ["https://apnews.com/riverside-plaza-incident"]},
    # an unrelated record that the phrase filter should drop
    {"posting_id": "x1", "creation_time": "2024-03-02T11:05:00Z",
     "text": "completely unrelated lunch tweet"},
]


def main():
    stream = io.StringIO("\n".join(json.dumps(t) for t in RAW_TWEETS))
    phrases = PhraseFilter(["acmecorp"])

    print("=== stage 1: ingest (phrase filter + ordering) ===")
    tweets = list(replay_stream(stream, phrases))
    for t in tweets:
        print(f"  kept {t.posting_id}: {t.text[:60]}")
    print(f"  {len(RAW_TWEETS) - len(tweets)} record(s) filtered out")

    print("\n=== stage 2: feature extraction ===")
    extractor = FeatureExtractor()
    vectors = []
    for t in tweets:
        vec = extractor.vector(t)
        if vec is None:
            print(f"  {t.posting_id}: discarded (no usable terms)")
            continue
        vectors.append(vec)
        print(f"  {t.posting_id}: terms={sorted(vec.terms)} "
              f"sentiment={vec.sentiment:+.2f} links={len(vec.links)}")

    print("\n=== stage 3: online clustering ===")
    state = ClusterState(ClusterParams(merge_threshold=0.7, min_event_size=3))
    volume = {}  # admitted tweets per day
    for vec in vectors:
        volume[vec.day] = volume.get(vec.day, 0) + 1
        cid, decision = state.assign(vec)
        print(f"  {vec.tweet_id} -> cluster {cid} ({decision})")

    print("\n=== stage 4: controversy scoring ===")
    params = ControversyParams(burst_velocity_threshold=2.0)
    today = date(2024, 3, 2)
    reports = classify_and_rank(state.candidate_events(), volume,
                                AllowList.load(), params, today)
    for r in reports:
        verdict = "CONTROVERSIAL" if r.controversial else "not controversial"
        print(f"  cluster {r.cluster_id}: {verdict}")
        print(f"    members={r.member_count} velocity={r.burst_velocity:.2f} "
              f"news={r.news_count} sentiment={r.sentiment_mean:+.2f} "
              f"rank={r.rank_score:.3f}")
        print(f"    top terms: {', '.join(t for t, _ in r.top_terms)}")


if __name__ == "__main__":
    main()
