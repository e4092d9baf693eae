"""Controversy scoring: entity velocity, event sentiment, gate + rank.

An event is flagged controversial only when all three hold: mean sentiment is
negative, the entity's daily volume is bursting (and the cluster is active
today), and the cluster carries at least one verified news link.  A separate
continuous rank score orders events for display.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from typing import NamedTuple

from .clustering import EventCluster, require_finite, require_int
from .credibility import AllowList, unique_credible_links

BURST_BASELINE_DAYS = 7


class ControversyParams:
    """Knobs for the controversy gate and rank; ``rank_weights`` weigh the
    burst, news and sentiment parts of the rank score."""

    __slots__ = ("burst_velocity_threshold", "rank_weights", "news_count_gate")

    def __init__(self, burst_velocity_threshold: float = 2.0,
                 rank_weights: tuple[float, float, float] = (0.4, 0.3, 0.3),
                 news_count_gate: int = 1):
        if require_finite("burst_velocity_threshold", burst_velocity_threshold) <= 0:
            raise ValueError("burst_velocity_threshold must be positive")
        weights = tuple(float(require_finite("rank_weights", w)) for w in rank_weights)
        if len(weights) != 3 or any(w < 0 for w in weights):
            raise ValueError("rank_weights must be three nonnegative numbers")
        if abs(sum(weights) - 1.0) > 1e-6:
            raise ValueError("rank_weights must sum to 1")
        if require_int("news_count_gate", news_count_gate) < 1:
            raise ValueError("news_count_gate must be >= 1")
        self.burst_velocity_threshold = burst_velocity_threshold
        self.rank_weights = weights
        self.news_count_gate = news_count_gate


def entity_velocity(volume: dict[date, int], today: date) -> float:
    """Today's entity volume over the trailing 7-day mean of ``volume``, the
    admitted tweets per day (missing days, and days before ``date.min``,
    count as zero; floor of 1)."""
    days = min(BURST_BASELINE_DAYS, (today - date.min).days)
    baseline = sum(
        volume.get(today - timedelta(days=k), 0) for k in range(1, days + 1)
    ) / float(BURST_BASELINE_DAYS)
    return volume.get(today, 0) / max(1.0, baseline)


def event_sentiment(cluster: EventCluster) -> float:
    """Arithmetic mean of member sentiment scores: the exact sum, held as the
    cluster's sentiment partials, correctly rounded, over the member count."""
    if cluster.member_count < 1:
        raise ValueError("cluster has no members")
    return math.fsum(cluster.sentiment_partials) / cluster.member_count


class ControversyReport(NamedTuple):
    cluster_id: int
    member_count: int
    burst_flag: bool
    burst_velocity: float
    news_count: int
    news_score: float
    sentiment_mean: float
    controversial: bool
    rank_score: float
    top_terms: list[tuple[str, int]]


def classify_and_rank(
    events: list[EventCluster],
    volume: dict[date, int],
    allowlist: AllowList,
    params: ControversyParams,
    today: date,
) -> list[ControversyReport]:
    """Score candidate events and order them: controversial first, then by
    rank score, then by cluster id (a total order, stable across runs).

    The gate has three conditions: mean sentiment below zero; a burst, which
    is the entity velocity at or above the threshold while the cluster gained
    a member today; and at least ``news_count_gate`` unique credible links.
    The news score is ln(1 + that count).
    """
    w_burst, w_news, w_sent = params.rank_weights
    threshold = params.burst_velocity_threshold
    velocity = entity_velocity(volume, today)  # stream-wide: the same for every cluster
    reports = []
    for cluster in events:
        sentiment = event_sentiment(cluster)
        flag = velocity >= threshold and cluster.per_day_counts.get(today, 0) >= 1
        count = unique_credible_links(cluster.links, allowlist)
        news_score = math.log1p(count)
        controversial = sentiment < 0 and flag and count >= params.news_count_gate
        rank = (
            w_burst * min(velocity / threshold, 2.0) / 2.0
            + w_news * (news_score / (1.0 + news_score))
            + w_sent * (max(0.0, -sentiment) / 2.0)
        )
        reports.append(ControversyReport(
            cluster_id=cluster.cluster_id,
            member_count=cluster.member_count,
            burst_flag=flag,
            burst_velocity=velocity,
            news_count=count,
            news_score=news_score,
            sentiment_mean=sentiment,
            controversial=controversial,
            rank_score=rank,
            top_terms=cluster.top_terms(),
        ))
    reports.sort(key=lambda r: (not r.controversial, -r.rank_score, r.cluster_id))
    return reports
