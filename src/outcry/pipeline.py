"""End-to-end detection run: ingest -> features -> clustering -> controversy.

Also builds the per-day cluster summaries (top terms and daily mean
sentiment per cluster) that make the evolving discussion inspectable.
"""

from __future__ import annotations

from datetime import date
from typing import NamedTuple

from .clustering import ClusterState
from .config import RunConfig
from .controversy import ControversyReport, DailyVolume, classify_and_rank
from .credibility import AllowList, NetworkRedirectResolver, RedirectMap
from .features import (
    FeatureExtractor,
    RuleTagger,
    SentimentLexicon,
    load_gazetteer,
    load_stopwords,
    load_verb_list,
)
from .ingest import PhraseFilter, ReplayStats, replay_stream

SCHEMA_VERSION = 1


class DetectionResult(NamedTuple):
    reports: list[ControversyReport]
    state: ClusterState
    volume: DailyVolume
    replay_stats: ReplayStats
    counters: dict
    daily_summaries: list[dict]
    today: date | None


class DataFileError(Exception):
    """A data file named in the config cannot be read or parsed."""


def _load(loader, path):
    """``loader(path)``; a file that cannot be read or parsed is raised as a
    ``DataFileError`` naming it.  A ``path`` of None loads the bundled file."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        raise DataFileError(f"bad data file {path}: {exc}") from exc


def build_extractor(cfg: RunConfig) -> FeatureExtractor:
    lexicon = _load(SentimentLexicon.load, cfg.lexicon_path)
    tagger = RuleTagger(
        verbs=_load(load_verb_list, cfg.verbs_path),
        gazetteer=_load(load_gazetteer, cfg.gazetteer_path),
    )
    stopwords = _load(load_stopwords, cfg.stopwords_path)
    if cfg.resolver_mode == "network":
        redirects = NetworkRedirectResolver(timeout_ms=cfg.network_timeout_ms)
    elif cfg.redirect_map_path:
        redirects = _load(RedirectMap.load, cfg.redirect_map_path)
    else:
        redirects = None
    return FeatureExtractor(lexicon=lexicon, tagger=tagger,
                            stopwords=stopwords, redirects=redirects)


def run_detection(source, cfg: RunConfig) -> DetectionResult:
    """Consume the stream in order and score candidate events at the end.

    Feature extraction is pure per tweet; cluster assignment is the single
    serialized step, matching the single-writer contract of ClusterState.
    """
    state = ClusterState(cfg.cluster_params())
    params = cfg.controversy_params()
    extractor = build_extractor(cfg)
    allowlist = _load(AllowList.load, cfg.allowlist_path)
    volume = DailyVolume()
    replay_stats = ReplayStats()
    counters = {"skipped_language": 0, "discarded_empty": 0}
    current_day: date | None = None

    phrases = PhraseFilter(cfg.phrases)
    stream = replay_stream(
        source, phrases,
        lateness_seconds=cfg.lateness_seconds,
        dedup=cfg.dedup,
        stats=replay_stats,
    )
    language_filter = (cfg.language_filter or "").lower()
    for tweet in stream:
        if language_filter and not tweet.language.lower().startswith(language_filter):
            counters["skipped_language"] += 1
            continue
        vector = extractor.vector(tweet)
        if vector is None:
            counters["discarded_empty"] += 1
            continue
        if current_day is not None and vector.day != current_day:
            state.expire_inactive(tweet.creation_time)
        current_day = vector.day
        volume.add(vector.day)
        state.assign(vector)

    today = volume.last_day()
    reports: list[ControversyReport] = []
    if today is not None:
        reports = classify_and_rank(state.candidate_events(), volume,
                                    allowlist, params, today)

    summaries = daily_summaries(state, limit=cfg.daily_summary_clusters)
    return DetectionResult(
        reports=reports,
        state=state,
        volume=volume,
        replay_stats=replay_stats,
        counters=counters,
        daily_summaries=summaries,
        today=today,
    )


def daily_summaries(state: ClusterState, limit: int = 5) -> list[dict]:
    """Per day: the most active clusters with their top terms and that day's
    mean sentiment."""
    days: set[date] = set()
    for cluster in state.clusters.values():
        days.update(cluster.per_day_counts)
    out = []
    for day in sorted(days):
        active = [
            (c.per_day_counts[day], c)
            for c in state.clusters.values() if day in c.per_day_counts
        ]
        active.sort(key=lambda pair: (-pair[0], pair[1].cluster_id))
        entries = []
        for count, cluster in active[:limit]:
            entries.append({
                "cluster_id": cluster.cluster_id,
                "tweet_count": count,
                "mean_sentiment": cluster.per_day_sentiment[day] / count,
                "top_terms": [[term, n] for term, n in cluster.top_terms()],
            })
        out.append({"date": day.isoformat(), "clusters": entries})
    return out


def _round_floats(value, places: int = 6):
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: _round_floats(v, places) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, places) for v in value]
    return value


_VOLATILE_PARAMS = {"input", "out", "state_out"}


def report_payload(result: DetectionResult, cfg: RunConfig) -> dict:
    """Deterministic report document: stable key order, floats at six
    decimal places, no wall-clock fields.  I/O paths are left out of the
    params echo so equal runs stay byte-identical wherever they are written.
    """
    params = {k: v for k, v in cfg.as_dict().items() if k not in _VOLATILE_PARAMS}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": params,
        "counters": {
            **result.replay_stats.as_dict(),
            **result.counters,
            "admitted": result.state.admitted,
            "live_clusters": len(result.state.clusters),
            "expired_clusters": result.state.expired_clusters,
            "expired_members": result.state.expired_members,
        },
        "today": result.today.isoformat() if result.today else None,
        "volume": {d.isoformat(): n for d, n in sorted(result.volume.counts.items())},
        "events": [r._asdict() for r in result.reports],
        "daily_summaries": result.daily_summaries,
    }
    return _round_floats(payload)
