"""End-to-end detection run: ingest -> features -> clustering -> controversy.

Also builds the per-day cluster summaries (top terms and daily mean
sentiment per cluster) that make the evolving discussion inspectable.
"""

from __future__ import annotations

from datetime import date

from .clustering import ClusterState, stream_json
from .config import RunConfig
from .controversy import ControversyReport, classify_and_rank
from .credibility import AllowList, NetworkRedirectResolver, RedirectMap
from .features import (
    FeatureExtractor,
    RuleTagger,
    SentimentLexicon,
    load_gazetteer,
    load_stopwords,
    load_verb_list,
)
from .ingest import PhraseFilter, ReplayStats, Tweet, replay_stream

SCHEMA_VERSION = 1


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


class Detector:
    """One detection run.  ``feed`` it the replayed tweets in time order, then
    call ``finish``; the finished detector is the run's result.  ``finish``
    lets go of the feature extractor (and with it the tagger's chunk memo),
    so a finished detector takes no more tweets.

    Feature extraction is pure per tweet; cluster assignment is the single
    serialized step, matching the single-writer contract of ClusterState.
    A day closes at the first admitted vector of a later day: clusters idle
    past the expiry, measured from that vector's time, are expired.  A tweet
    skipped for its language or with no terms closes no day.
    """

    __slots__ = ("cfg", "state", "params", "extractor", "allowlist", "replay_stats",
                 "counters", "volume", "today", "reports", "daily_summaries", "_language")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.state = ClusterState(cfg.cluster_params())
        self.params = cfg.controversy_params()
        self.extractor = build_extractor(cfg)
        self.allowlist = _load(AllowList.load, cfg.allowlist_path)
        self.replay_stats = ReplayStats()
        self.counters = {"skipped_language": 0, "discarded_empty": 0}
        self.volume: dict[date, int] = {}  # admitted tweets per day, stream-wide
        self.today: date | None = None  # the day of the last admitted vector
        self.reports: list[ControversyReport] = []
        self.daily_summaries: list[dict] = []
        self._language = (cfg.language_filter or "").lower()

    def feed(self, tweet: Tweet) -> None:
        """Take the next tweet; tweets come in nondecreasing time order."""
        extractor = self.extractor
        if extractor is None:
            raise RuntimeError("the detector is finished")
        if self._language and not tweet.language.lower().startswith(self._language):
            self.counters["skipped_language"] += 1
            return
        vector = extractor.vector(tweet)
        if vector is None:
            self.counters["discarded_empty"] += 1
            return
        day = vector.day
        if day != self.today:
            if self.today is not None:
                self.state.expire_inactive(tweet.creation_time)
            self.today = day
        self.volume[day] = self.volume.get(day, 0) + 1
        self.state.assign(vector)

    def finish(self) -> Detector:
        """Score the candidate events on the last day and build the per-day
        summaries.  The extractor is dropped first: the report needs none of
        it."""
        self.extractor = None
        if self.today is not None:
            self.reports = classify_and_rank(self.state.candidate_events(), self.volume,
                                             self.allowlist, self.params, self.today)
        self.daily_summaries = daily_summaries(self.state, limit=self.cfg.daily_summary_clusters)
        return self


def run_detection(source, cfg: RunConfig) -> Detector:
    """The finished ``Detector`` of every tweet replayed from ``source``."""
    detector = Detector(cfg)
    for tweet in replay_stream(source, PhraseFilter(cfg.phrases),
                               lateness_seconds=cfg.lateness_seconds,
                               dedup=cfg.dedup, stats=detector.replay_stats):
        detector.feed(tweet)
    return detector.finish()


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


def report_counters(result: Detector) -> dict:
    """The report's ``counters``: replay, feature and clustering counts."""
    return {
        **result.replay_stats.as_dict(),
        **result.counters,
        "admitted": result.state.admitted,
        "live_clusters": len(result.state.clusters),
        "expired_clusters": result.state.expired_clusters,
        "expired_members": result.state.expired_members,
    }


def _report(result: Detector, cfg: RunConfig) -> dict:
    """The report document with its events and daily summaries as
    generators, each item rounded as it is read."""
    params = {k: v for k, v in cfg.as_dict().items() if k not in _VOLATILE_PARAMS}
    return {
        "schema_version": SCHEMA_VERSION,
        "params": _round_floats(params),
        "counters": report_counters(result),
        "today": result.today.isoformat() if result.today else None,
        "volume": {d.isoformat(): n for d, n in sorted(result.volume.items())},
        "events": (_round_floats(r._asdict()) for r in result.reports),
        "daily_summaries": (_round_floats(s) for s in result.daily_summaries),
    }


def report_payload(result: Detector, cfg: RunConfig) -> dict:
    """Deterministic report document: stable key order, floats at six
    decimal places, no wall-clock fields.  I/O paths are left out of the
    params echo so equal runs stay byte-identical wherever they are written.
    Each part that holds floats is rounded as it is built, so no unrounded
    copy of the whole document is held beside the rounded one.
    """
    payload = _report(result, cfg)
    payload["events"] = list(payload["events"])
    payload["daily_summaries"] = list(payload["daily_summaries"])
    return payload


def write_report(result: Detector, cfg: RunConfig, handle) -> None:
    """Write ``json.dumps(report_payload(result, cfg), indent=2,
    sort_keys=True) + "\n"`` to ``handle``, one event and one daily summary
    at a time, so neither list is built."""
    stream_json(_report(result, cfg), handle, indent=2, sort_keys=True)
