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


# RunConfig's settings, in order: config key -> (RunConfig attribute,
# default).  The clusterer and gate defaults are ClusterParams' and
# ControversyParams', so each is written once.
_CLUSTER, _GATE = ClusterParams(), ControversyParams()
_SETTINGS = {
    "phrases": ("phrases", ()),
    "input": ("input", None),
    "out": ("out", None),
    "state_out": ("state_out", None),
    "format": ("format", "json"),
    "lateness_seconds": ("lateness_seconds", 3600.0),
    "dedup": ("dedup", False),
    "language_filter": ("language_filter", "en"),
    "merge_threshold_D": ("merge_threshold", _CLUSTER.merge_threshold),
    "min_event_size_N": ("min_event_size", _CLUSTER.min_event_size),
    "inactivity_expiry_hours": ("inactivity_expiry_hours",
                                _CLUSTER.inactivity_expiry / timedelta(hours=1)),
    "burst_velocity_threshold": ("burst_velocity_threshold", _GATE.burst_velocity_threshold),
    "rank_weights": ("rank_weights", _GATE.rank_weights),
    "news_count_gate": ("news_count_gate", _GATE.news_count_gate),
    "resolver_mode": ("resolver_mode", "offline"),
    "network_timeout_ms": ("network_timeout_ms", 3000),
    "lexicon_path": ("lexicon_path", None),
    "stopwords_path": ("stopwords_path", None),
    "verbs_path": ("verbs_path", None),
    "gazetteer_path": ("gazetteer_path", None),
    "allowlist_path": ("allowlist_path", None),
    "redirect_map_path": ("redirect_map_path", None),
    "daily_summary_clusters": ("daily_summary_clusters", 5),
}
# settings that are a string or null: those null by default (the paths),
# and the language prefix
_OPTIONAL_STRINGS = tuple(attr for attr, default in _SETTINGS.values()
                          if default is None or attr == "language_filter")


class RunConfig:
    """Settings of one run, given as keyword arguments named by attribute
    (``_SETTINGS`` maps each config key to its attribute).  Construction
    validates them, and so does ``validate`` after the CLI overrides some."""

    __slots__ = tuple(attr for attr, _ in _SETTINGS.values())

    def __init__(self, **settings):
        for attr, default in _SETTINGS.values():
            setattr(self, attr, settings.pop(attr, default))
        if settings:
            raise TypeError("RunConfig() got an unexpected keyword argument "
                            f"{next(iter(settings))!r}")
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
        for key in data:
            if key not in _SETTINGS:
                raise InvalidConfig(f"unknown config key: {key!r}")
        return cls(**{_SETTINGS[key][0]: value for key, value in data.items()})

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_config_file(path))

    def as_dict(self) -> dict:
        out = {}
        for key, (attr, _) in _SETTINGS.items():
            value = getattr(self, attr)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


_string_or_null = check_type((str, type(None)), "a string or null")
_bool = check_type(bool, "true or false")
