"""Run configuration: validated key/value config shared by the CLI commands.

Config files are flat JSON objects; unknown keys are rejected so typos fail
fast instead of silently falling back to defaults.
"""

from __future__ import annotations

from datetime import timedelta

from .clustering import ClusterParams, check_type, read_json, require_finite, require_int
from .controversy import ControversyParams
from .ingest import PhraseFilter

# The longest network timeout, in ms (about 24.8 days); the socket layer
# rejects a timeout much past 9.2e9 s with an OverflowError.
MAX_TIMEOUT_MS = 2**31 - 1


class InvalidConfig(ValueError):
    """Config file or scenario config failed validation."""


def read_config_file(path):
    """The JSON value in ``path``. A file that is not UTF-8 JSON, or nests
    deeper than the recursion limit, is an ``InvalidConfig``; a file that
    cannot be read raises ``OSError``."""
    try:
        return read_json(path)
    except ValueError as exc:
        raise InvalidConfig(f"{path}: invalid JSON: {exc}") from exc


# RunConfig attributes whose config key differs from the attribute name
_RENAMED = {"merge_threshold": "merge_threshold_D", "min_event_size": "min_event_size_N"}


class RunConfig:
    """Settings of one run.  Each attribute is a config key (see
    ``_RENAMED``); construction validates them, and so does ``validate``
    after the CLI overrides some."""

    __slots__ = (
        "phrases", "input", "out", "state_out", "format", "lateness_seconds", "dedup",
        "language_filter", "merge_threshold", "min_event_size", "inactivity_expiry_hours",
        "burst_velocity_threshold", "rank_weights", "news_count_gate", "resolver_mode",
        "network_timeout_ms", "lexicon_path", "stopwords_path", "verbs_path",
        "gazetteer_path", "allowlist_path", "redirect_map_path", "daily_summary_clusters",
    )

    def __init__(
        self,
        phrases: list[str] | tuple[str, ...] | str = (),
        input: str | None = None,
        out: str | None = None,
        state_out: str | None = None,
        format: str = "json",
        lateness_seconds: float = 3600.0,
        dedup: bool = False,
        language_filter: str | None = "en",
        merge_threshold: float = 0.7,
        min_event_size: int = 5,
        inactivity_expiry_hours: float = 72.0,
        burst_velocity_threshold: float = 2.0,
        rank_weights: tuple[float, float, float] = (0.4, 0.3, 0.3),
        news_count_gate: int = 1,
        resolver_mode: str = "offline",
        network_timeout_ms: int = 3000,
        lexicon_path: str | None = None,
        stopwords_path: str | None = None,
        verbs_path: str | None = None,
        gazetteer_path: str | None = None,
        allowlist_path: str | None = None,
        redirect_map_path: str | None = None,
        daily_summary_clusters: int = 5,
    ):
        self.phrases = phrases
        self.input = input
        self.out = out
        self.state_out = state_out
        self.format = format
        self.lateness_seconds = lateness_seconds
        self.dedup = dedup
        self.language_filter = language_filter
        self.merge_threshold = merge_threshold
        self.min_event_size = min_event_size
        self.inactivity_expiry_hours = inactivity_expiry_hours
        self.burst_velocity_threshold = burst_velocity_threshold
        self.rank_weights = rank_weights
        self.news_count_gate = news_count_gate
        self.resolver_mode = resolver_mode
        self.network_timeout_ms = network_timeout_ms
        self.lexicon_path = lexicon_path
        self.stopwords_path = stopwords_path
        self.verbs_path = verbs_path
        self.gazetteer_path = gazetteer_path
        self.allowlist_path = allowlist_path
        self.redirect_map_path = redirect_map_path
        self.daily_summary_clusters = daily_summary_clusters
        self.validate()

    def __eq__(self, other):
        """Equal when every config key has an equal value."""
        if not isinstance(other, RunConfig):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def validate(self) -> None:
        if isinstance(self.phrases, str):
            self.phrases = [p.strip() for p in self.phrases.split(",") if p.strip()]
        try:
            if not (isinstance(self.phrases, (list, tuple))
                    and all(isinstance(p, str) for p in self.phrases)):
                raise ValueError(f"phrases must be a list of strings or a comma-separated string, "
                                 f"got {self.phrases!r}")
            if self.phrases:
                PhraseFilter(self.phrases)
            for name in _OPTIONAL_STRINGS:
                _string_or_null(name, getattr(self, name))
            _bool("dedup", self.dedup)
            if self.format not in ("json", "table"):
                raise ValueError(f"format must be 'json' or 'table', got {self.format!r}")
            if require_finite("lateness_seconds", self.lateness_seconds) < 0:
                raise ValueError("lateness_seconds must be >= 0")
            if self.resolver_mode not in ("offline", "network"):
                raise ValueError("resolver_mode must be 'offline' or 'network'")
            if require_int("network_timeout_ms", self.network_timeout_ms) <= 0:
                raise ValueError("network_timeout_ms must be positive")
            if self.network_timeout_ms > MAX_TIMEOUT_MS:
                raise ValueError(f"network_timeout_ms must be at most {MAX_TIMEOUT_MS}")
            if require_int("daily_summary_clusters", self.daily_summary_clusters) < 1:
                raise ValueError("daily_summary_clusters must be >= 1")
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc
        self.cluster_params()
        self.rank_weights = self.controversy_params().rank_weights

    def cluster_params(self) -> ClusterParams:
        try:
            hours = require_finite("inactivity_expiry_hours", self.inactivity_expiry_hours)
            return ClusterParams(
                merge_threshold=self.merge_threshold,
                min_event_size=self.min_event_size,
                inactivity_expiry=timedelta(hours=hours),
            )
        except (ValueError, OverflowError) as exc:
            raise InvalidConfig(str(exc)) from exc

    def controversy_params(self) -> ControversyParams:
        try:
            return ControversyParams(
                burst_velocity_threshold=self.burst_velocity_threshold,
                rank_weights=self.rank_weights,
                news_count_gate=self.news_count_gate,
            )
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise InvalidConfig("config must be a JSON object")
        kwargs = {}
        for key, value in data.items():
            attr = _KEY_MAP.get(key)
            if attr is None:
                raise InvalidConfig(f"unknown config key: {key!r}")
            kwargs[attr] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_config_file(path))

    def as_dict(self) -> dict:
        out = {}
        for key, attr in _KEY_MAP.items():
            value = getattr(self, attr)
            if isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out


# config key -> RunConfig attribute
_KEY_MAP = {_RENAMED.get(name, name): name for name in RunConfig.__slots__}
# settings that are a string or null: paths and the language prefix
_OPTIONAL_STRINGS = (
    "input", "out", "state_out", "language_filter", "lexicon_path", "stopwords_path",
    "verbs_path", "gazetteer_path", "allowlist_path", "redirect_map_path",
)
_string_or_null = check_type((str, type(None)), "a string or null")
_bool = check_type(bool, "true or false")
