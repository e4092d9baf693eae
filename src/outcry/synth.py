"""Deterministic synthetic tweet streams with injected ground-truth events.

The generator shares no hidden state with the detector: injected sentiment
comes from words that are actually in the shipped lexicon, credible links
point at domains from the shipped allowlist, and event tweets carry a fixed
core of proper-noun-shaped terms so expected cosine distances are easy to
reason about in tests.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Iterator
from datetime import date, datetime, time, timedelta, timezone
from itertools import cycle, islice
from typing import NamedTuple

from .clustering import check_type, read_back, require_finite, require_int, stream_json
from .config import InvalidConfig, read_config_file
from .credibility import AllowList
from .features import SentimentLexicon

_TOKEN_OK = re.compile(r"^\w+$")
_POOL_TERM_OK = re.compile(r"^[a-z][a-z ]*$")

_FILLERS = ("over the", "during the", "near the")  # between an event's terms
_SOURCES = ("web", "android", "iphone")
_NEUTRAL_WORDS = ("fine", "okay", "meh")

DEFAULT_START_DATE = date(2024, 3, 1)


class InjectedEvent(NamedTuple):
    start_day: int
    duration_days: int
    peak_rate: int
    term_pool: tuple[str, ...]
    sentiment_range: tuple[float, float]
    credible_link_count: int = 1
    noncredible_link_count: int = 0
    expected_controversial: bool = True

    def validate(self, days: int) -> None:
        if not (0 <= self.start_day < days):
            raise InvalidConfig(f"event start_day {self.start_day} outside scenario days")
        if self.duration_days < 1 or self.peak_rate < 1:
            raise InvalidConfig("event duration_days and peak_rate must be >= 1")
        if not self.term_pool:
            raise InvalidConfig("event term_pool must not be empty")
        for term in self.term_pool:
            if not _POOL_TERM_OK.match(term):
                raise InvalidConfig(f"event pool terms must be lowercase words: {term!r}")
        lo, hi = self.sentiment_range
        if not (-2.0 <= lo <= hi <= 2.0):
            raise InvalidConfig(f"sentiment_range must be ordered within [-2, 2]: {self.sentiment_range}")
        if self.credible_link_count < 0 or self.noncredible_link_count < 0:
            raise InvalidConfig("link counts must be >= 0")


class ScenarioConfig(NamedTuple):
    seed: int
    days: int
    ambient_rate: int = 0
    ambient_topics: tuple[tuple[str, ...], ...] = ()
    injected_events: tuple[InjectedEvent, ...] = ()
    vocabulary_noise: float = 0.0
    entity: str = "AcmeCorp"
    ambient_days: int | None = None  # None -> ambient runs the whole scenario
    ambient_entity_rate: float = 1.0
    start_date: date = DEFAULT_START_DATE

    def validate(self) -> None:
        if self.days < 1:
            raise InvalidConfig("days must be >= 1")
        if self.start_date.toordinal() + self.days - 1 > date.max.toordinal():
            raise InvalidConfig(f"a scenario of {self.days} days from {self.start_date} "
                                f"runs past {date.max}")
        if self.ambient_rate < 0:
            raise InvalidConfig("ambient_rate must be >= 0")
        if self.ambient_rate > 0 and not self.ambient_topics:
            raise InvalidConfig("ambient_rate > 0 needs at least one ambient topic pool")
        for pool in self.ambient_topics:
            if not pool:
                raise InvalidConfig("ambient topic pools must not be empty")
            for term in pool:
                if not _TOKEN_OK.match(term):
                    raise InvalidConfig(f"ambient pool terms must be single tokens: {term!r}")
        if not (0.0 <= self.vocabulary_noise <= 1.0):
            raise InvalidConfig("vocabulary_noise must be in [0, 1]")
        if not (0.0 <= self.ambient_entity_rate <= 1.0):
            raise InvalidConfig("ambient_entity_rate must be in [0, 1]")
        if self.ambient_days is not None and self.ambient_days < 0:
            raise InvalidConfig("ambient_days must be >= 0")
        if not self.entity.strip():
            raise InvalidConfig("entity must be non-empty")
        for event in self.injected_events:
            event.validate(self.days)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        cfg = _from_json(cls, _SCENARIO_KEYS, data, "scenario")
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_dict(read_config_file(path))


_list, _string = check_type(list, "a list"), check_type(str, "a string")


def _strings(name: str, value) -> tuple[str, ...]:
    return tuple(_string(name, item) for item in _list(name, value))


def _number_pair(name: str, value) -> tuple[float, float]:
    if len(_list(name, value)) != 2:
        raise ValueError(f"{name} must be two numbers, got {value!r}")
    return tuple(float(require_finite(name, x)) for x in value)


def _float(name: str, value) -> float:
    return float(require_finite(name, value))


# JSON key -> the check that turns its value into the field value, one entry
# per field of InjectedEvent and ScenarioConfig
_EVENT_KEYS = {
    "start_day": require_int,
    "duration_days": require_int,
    "peak_rate": require_int,
    "term_pool": _strings,
    "sentiment_range": _number_pair,
    "credible_link_count": require_int,
    "noncredible_link_count": require_int,
    "expected_controversial": check_type(bool, "true or false"),
}
_SCENARIO_KEYS = {
    "seed": require_int,
    "days": require_int,
    "ambient_rate": require_int,
    "ambient_topics":
        lambda name, value: tuple(_strings(name, pool) for pool in _list(name, value)),
    "injected_events":
        lambda name, value: tuple(_from_json(InjectedEvent, _EVENT_KEYS, entry, "injected_event")
                                  for entry in _list(name, value)),
    "vocabulary_noise": _float,
    "entity": _string,
    "ambient_days": lambda name, value: None if value is None else require_int(name, value),
    "ambient_entity_rate": _float,
    "start_date": lambda name, value: date.fromisoformat(_string(name, value)),
}


def _from_json(cls, checks: dict, data, what: str):
    """A ``cls`` built from a JSON object keyed by its field names.  Each value
    must pass its key's check in ``checks``; a missing key takes the default."""
    try:
        unknown = set(check_type(dict, "a JSON object")(what, data)) - set(checks)
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return cls(**{key: checks[key](key, value) for key, value in data.items()})
    except (TypeError, ValueError) as exc:  # TypeError: a required key is missing
        raise InvalidConfig(f"bad {what}: {exc}") from exc


class EventTruth(NamedTuple):
    event_index: int
    expected_controversial: bool
    tweet_ids: tuple[str, ...] = ()


class GroundTruth:
    """The tweet ids of each injected event, as ``generate`` emitted them."""

    __slots__ = ("events",)

    def __init__(self, events: list[EventTruth] | None = None):
        self.events = [] if events is None else events

    def payload(self) -> dict:
        """The truth document ``save`` writes."""
        return {"schema_version": 1, "events": [e._asdict() for e in self.events]}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            stream_json(self.payload(), handle, indent=1)

    @classmethod
    def load(cls, path) -> "GroundTruth":
        """The truth ``save`` wrote to ``path``; ``InvalidConfig`` (a
        ``ValueError``) for any other document (see ``read_back``)."""
        try:
            return read_back(path, lambda payload: cls([
                EventTruth(int(e["event_index"]), bool(e["expected_controversial"]),
                           tuple(str(i) for i in e["tweet_ids"]))
                for e in payload["events"]
            ]), "truth file")
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc


def _render_phrase(term: str) -> str:
    return " ".join(word.capitalize() for word in term.split())


def _sentiment_pool(lexicon: SentimentLexicon, lo: float, hi: float) -> list[str]:
    pool = sorted(w for w, v in lexicon.entries.items() if lo <= v <= hi)
    if not pool:
        raise InvalidConfig(f"no lexicon words with valence in [{lo}, {hi}]")
    return pool


def generate(cfg: ScenarioConfig) -> tuple[list[str], GroundTruth]:
    """Emit (JSONL lines in timestamp order, ground truth).

    Fully determined by cfg: same config -> byte-identical output.  Daily
    emission counts match the configured rates exactly.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    lexicon = SentimentLexicon.load()
    credible_domains = sorted(AllowList.load().domains)

    # Per event: its sentiment words and a cycle over its links, which the
    # event's tweets take in turn.
    event_inputs = []
    for idx, ev in enumerate(cfg.injected_events):
        links = [f"https://{credible_domains[k % len(credible_domains)]}/story/{idx}/{k}"
                 for k in range(ev.credible_link_count)]
        links += [f"https://blog{k}.example/post/{idx}/{k}"
                  for k in range(ev.noncredible_link_count)]
        event_inputs.append((ev, _sentiment_pool(lexicon, *ev.sentiment_range), cycle(links)))
    event_ids: list[list[str]] = [[] for _ in cfg.injected_events]

    ambient_days = cfg.days if cfg.ambient_days is None else min(cfg.ambient_days, cfg.days)
    lines: list[str] = []

    for day in range(cfg.days):
        jobs: list[int] = []  # -1 = ambient, otherwise event index
        if day < ambient_days:
            jobs.extend([-1] * cfg.ambient_rate)
        for idx, ev in enumerate(cfg.injected_events):
            if ev.start_day <= day < ev.start_day + ev.duration_days:
                jobs.extend([idx] * ev.peak_rate)
        if not jobs:
            continue
        rng.shuffle(jobs)
        day_start = datetime.combine(cfg.start_date + timedelta(days=day),
                                     time(0, 0), tzinfo=timezone.utc)
        for i, job in enumerate(jobs):
            stamp = day_start + timedelta(seconds=(i * 86400) // len(jobs))
            posting_id = f"syn-{day:03d}-{i:05d}"
            if job < 0:
                text, urls = _ambient_text(cfg, rng), []
            else:
                text, urls = _event_text(cfg, rng, *event_inputs[job])
                event_ids[job].append(posting_id)
            lines.append(json.dumps({
                "posting_id": posting_id,
                "creation_time": stamp.isoformat(),
                "text": text,
                "language": "en",
                "source": rng.choice(_SOURCES),  # each record's last draw
                "urls": urls,
                "hashtags": [],
            }, ensure_ascii=False))

    return lines, GroundTruth([EventTruth(i, ev.expected_controversial, tuple(ids))
                               for i, (ev, ids) in enumerate(zip(cfg.injected_events, event_ids))])


def _noise_tag(rng: random.Random) -> str:
    return f"#zz{rng.randrange(10**8):08d}"


def _ambient_text(cfg: ScenarioConfig, rng: random.Random) -> str:
    pool = cfg.ambient_topics[rng.randrange(len(cfg.ambient_topics))]
    tags = rng.sample(pool, k=min(3, len(pool)))
    parts = [f"{cfg.entity}:"] if rng.random() < cfg.ambient_entity_rate else []
    parts.append("more of the usual")
    parts.extend(f"#{t}" for t in tags)
    if rng.random() < 0.5:
        parts.append(rng.choice(_NEUTRAL_WORDS))
    if rng.random() < cfg.vocabulary_noise:
        parts.append(_noise_tag(rng))
    return " ".join(parts)


def _event_text(cfg: ScenarioConfig, rng: random.Random, event: InjectedEvent,
                sentiment_words: list[str], links: Iterator[str]) -> tuple[str, list[str]]:
    """An event tweet's text and urls: the entity, the event's first three
    terms (and at times one more) joined by fillers, a sentiment word, and
    the event's next link, if it has any."""
    chosen = list(event.term_pool[:3])
    extras = event.term_pool[3:]
    if extras and rng.random() < 0.5:
        chosen.append(rng.choice(extras))
    pieces = [f"{cfg.entity}:", _render_phrase(chosen[0])]
    for filler, term in zip(_FILLERS, chosen[1:]):
        pieces += (filler, _render_phrase(term))
    pieces.append(rng.choice(sentiment_words))
    if rng.random() < cfg.vocabulary_noise:
        pieces.append(_noise_tag(rng))
    urls = list(islice(links, 1))
    return " ".join(pieces + urls), urls


class EvalResult(NamedTuple):
    precision: float
    recall: float
    f1: float


def evaluate(reports, state, truth: GroundTruth) -> EvalResult:
    """Precision/recall/F1 of the controversial flag against injected events.

    An injected event counts as detected when some flagged cluster contains
    more than half of its ground-truth tweet ids.  With no flagged clusters
    precision is 1.0 (no false alarms).  A report that names a cluster
    twice, or one that ``state`` does not hold, is a ``ValueError``: a run
    reports each candidate event once, and never expires a candidate.
    """
    expected = [e.tweet_ids for e in truth.events if e.expected_controversial]
    reported = set()
    rows = []  # one per flagged cluster: whether it covers each expected event
    for r in reports:
        if r.cluster_id in reported:
            raise ValueError(f"cluster_id {r.cluster_id} is reported twice")
        if r.cluster_id not in state.clusters:
            raise ValueError(f"reported cluster_id {r.cluster_id} is not in the checkpoint")
        reported.add(r.cluster_id)
        if r.controversial:
            members = set(state.clusters[r.cluster_id].member_ids)
            rows.append([bool(ids) and sum(tid in members for tid in ids) / len(ids) > 0.5
                         for ids in expected])
    recall = sum(map(any, zip(*rows))) / len(expected) if expected else 1.0
    precision = sum(map(any, rows)) / len(rows) if rows else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return EvalResult(precision=precision, recall=recall, f1=f1)
