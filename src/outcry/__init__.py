"""Streaming controversy detection for company tweet streams.

Clusters tweet feature vectors into events with online incremental cosine
clustering, flags controversies by burstiness + verified news links +
negative sentiment, and quantifies market impact with daily-return
statistics.
"""

from .clustering import (
    CREATED,
    MERGED,
    ClusterParams,
    ClusterState,
    DegenerateVector,
    EventCluster,
)
from .config import InvalidConfig, RunConfig
from .controversy import (
    ControversyParams,
    ControversyReport,
    classify_and_rank,
    event_sentiment,
)
from .credibility import (
    AllowList,
    BadUrl,
    NetworkRedirectResolver,
    RedirectCycle,
    RedirectMap,
    is_credible,
    normalize_url,
    unique_credible_links,
)
from .features import (
    FeatureExtractor,
    RuleTagger,
    SentimentLexicon,
    TweetVector,
    load_gazetteer,
    load_stopwords,
    load_verb_list,
)
from .ingest import (
    PhraseFilter,
    ReplayStats,
    SourceUnavailable,
    Tweet,
    replay_stream,
)
from .market import (
    InsufficientData,
    PriceSeries,
    ReturnStats,
    ZeroVariance,
    daily_returns,
    event_day_zscore,
    load_price_csv,
    paired_returns,
    return_histogram,
    return_stats,
)
from .pipeline import Detector, report_payload, run_detection
from .synth import (
    EvalResult,
    EventTruth,
    GroundTruth,
    InjectedEvent,
    ScenarioConfig,
    evaluate,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AllowList", "BadUrl", "ClusterParams", "ClusterState",
    "ControversyParams", "ControversyReport", "CREATED", "DegenerateVector",
    "Detector", "EvalResult", "EventCluster", "EventTruth", "FeatureExtractor",
    "GroundTruth", "InjectedEvent", "InsufficientData", "InvalidConfig", "MERGED",
    "NetworkRedirectResolver", "PhraseFilter", "PriceSeries",
    "RedirectCycle", "RedirectMap", "ReplayStats", "ReturnStats", "RuleTagger",
    "RunConfig", "ScenarioConfig", "SentimentLexicon", "SourceUnavailable",
    "Tweet", "TweetVector", "ZeroVariance", "classify_and_rank",
    "daily_returns", "evaluate", "event_day_zscore", "event_sentiment",
    "generate", "is_credible", "load_gazetteer", "load_price_csv",
    "load_stopwords", "load_verb_list", "normalize_url",
    "paired_returns", "replay_stream", "report_payload",
    "return_histogram", "return_stats", "run_detection",
    "unique_credible_links",
]
