"""Tweet record parsing and ordered stream replay.

Input is JSON-lines, one tweet object per line.  Replay applies a company
phrase filter the way a filtered streaming API would, re-orders records that
arrive slightly late inside a bounded lateness window, and drops (and counts)
anything later than that.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import urlparse, urlsplit

from .credibility import is_absolute_url

# Seconds a tcp:// source may take to connect or stay silent before the run
# fails with SourceUnavailable.
TCP_TIMEOUT_S = 30.0


class IngestError(ValueError):
    """Base class for per-record ingest failures."""


class MalformedRecord(IngestError):
    """The line is not a single JSON object."""


class MissingField(IngestError):
    """A required attribute (posting_id, creation_time, text) is absent."""


class BadTimestamp(IngestError):
    """creation_time cannot be parsed into a finite UTC timestamp."""


class SourceUnavailable(OSError):
    """The stream source cannot be opened, or stops delivering lines."""


class Tweet(NamedTuple):
    """One ingested posting, an immutable (and hashable) named tuple.
    Timestamps are timezone-aware UTC."""

    posting_id: str
    creation_time: datetime
    text: str
    language: str = "und"
    source: str = ""
    urls: tuple[str, ...] = ()
    hashtags: tuple[str, ...] = ()


class PhraseFilter(NamedTuple("PhraseFilter", [("phrases", tuple[str, ...])])):
    """Ordered list of lowercase phrases used to retain stream records."""

    __slots__ = ()

    def __new__(cls, phrases: Iterable[str]):
        cleaned = tuple(p.lower() for p in phrases)
        if not cleaned:
            raise ValueError("phrase filter needs at least one phrase")
        if any(not p.strip() for p in cleaned):
            raise ValueError("phrases must not be empty or all-whitespace")
        return super().__new__(cls, cleaned)


class ReplayStats:
    """Counters accumulated by :func:`replay_stream`.

    ``total == parse_errors + dropped_late + filtered_out + duplicates + yielded``
    holds after the stream is exhausted.  Two stats are equal when every
    counter is.
    """

    __slots__ = ("total", "parse_errors", "dropped_late", "filtered_out", "duplicates", "yielded")

    def __init__(self, total: int = 0, parse_errors: int = 0, dropped_late: int = 0,
                 filtered_out: int = 0, duplicates: int = 0, yielded: int = 0):
        self.total = total
        self.parse_errors = parse_errors
        self.dropped_late = dropped_late
        self.filtered_out = filtered_out
        self.duplicates = duplicates
        self.yielded = yielded

    def as_dict(self) -> dict[str, int]:
        """The counters by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if not isinstance(other, ReplayStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"ReplayStats({fields})"


# What datetime raises for a value it cannot represent: an epoch past the
# platform's time_t or outside years 1..9999, or an ISO time whose shift to
# UTC leaves that range.
_OUT_OF_RANGE = (OverflowError, OSError, ValueError)
_UTC = timezone.utc
# JSON's own whitespace: what json.loads skips around a document.
_JSON_WS = " \t\n\r"
_JSON_WS_BYTES = _JSON_WS.encode()
_raw_decode = json.JSONDecoder().raw_decode


def _parse_timestamp(value) -> datetime:
    if isinstance(value, str):
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            parsed = datetime.fromisoformat(text)
            if parsed.tzinfo is _UTC:  # a zero offset parses to the utc singleton
                return parsed
            if parsed.tzinfo is None:
                return parsed.replace(tzinfo=_UTC)
            return parsed.astimezone(_UTC)
        except _OUT_OF_RANGE as exc:
            raise BadTimestamp(f"unparseable or out-of-range creation_time: {value!r}") from exc
    # bool is an int subclass, but JSON true/false is not a timestamp.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise BadTimestamp(f"non-finite epoch timestamp: {value!r}")
        try:
            return datetime.fromtimestamp(value, tz=_UTC)
        except _OUT_OF_RANGE as exc:
            raise BadTimestamp(f"epoch timestamp out of range: {value!r}") from exc
    raise BadTimestamp(f"creation_time has unsupported type: {value!r}")


def _decode_record(line) -> tuple[dict, datetime]:
    """Decode and validate one JSONL record: the JSON object and its parsed
    creation time.  Raises every IngestError a full parse would, so replay
    can count each bad line without building a Tweet.

    A ``str`` line comes with its JSON whitespace already stripped; a
    ``bytes`` line is first decoded the way ``json.loads`` decodes it, then
    stripped.  The text is decoded by one ``raw_decode`` call that must
    consume all of it: the same lines are accepted, and the same objects
    returned, as by ``json.loads``.  An integer too long to convert or
    nesting deeper than the recursion limit is malformed too.
    """
    try:
        if not isinstance(line, str):
            line = line.decode(json.detect_encoding(line), "surrogatepass").strip(_JSON_WS)
        obj, end = _raw_decode(line)
    # ValueError: bad JSON, bad bytes, an over-long integer; AttributeError:
    # neither str nor bytes; RecursionError: nesting too deep for the scanner.
    except (ValueError, AttributeError, RecursionError) as exc:
        raise MalformedRecord(f"not valid JSON: {line[:80]!r}") from exc
    if end != len(line):
        raise MalformedRecord(f"extra data after the record: {line[:80]!r}")
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object")

    posting_id = obj.get("posting_id")
    if not isinstance(posting_id, str) or not posting_id:
        raise MissingField("posting_id")
    if "creation_time" not in obj:
        raise MissingField("creation_time")
    if not isinstance(obj.get("text"), str):
        raise MissingField("text")

    creation_time = _parse_timestamp(obj["creation_time"])

    if not isinstance(obj.get("urls") or [], list):
        raise MalformedRecord("urls must be an array")
    if not isinstance(obj.get("hashtags") or [], list):
        raise MalformedRecord("hashtags must be an array")
    return obj, creation_time


def _absolute_urls(urls) -> tuple[str, ...]:
    if not urls:  # a record's missing, null or empty array
        return ()
    return tuple(u for u in urls if isinstance(u, str) and is_absolute_url(u))


def _normal_hashtags(hashtags) -> tuple[str, ...]:
    if not hashtags:
        return ()
    return tuple(
        t.lstrip("#").lower() for t in hashtags if isinstance(t, str) and t.lstrip("#")
    )


def _build_tweet(obj: dict, creation_time: datetime) -> Tweet:
    """The Tweet of a decoded record: absolute URLs only, hashtags without
    their ``#`` and lowercased."""
    return Tweet(
        obj["posting_id"],
        creation_time,
        obj["text"],
        str(obj.get("language") or "und"),
        str(obj.get("source") or ""),
        _absolute_urls(obj.get("urls")),
        _normal_hashtags(obj.get("hashtags")),
    )


def parse_tweet_record(line: str) -> Tweet:
    """Parse one JSONL record into a :class:`Tweet`.

    posting_id, creation_time and text are required; urls and hashtags
    default to empty lists.  Syntactically invalid URLs are discarded so a
    parsed Tweet only ever carries absolute scheme+host URLs.
    """
    return _build_tweet(*_decode_record(line.strip(_JSON_WS) if isinstance(line, str) else line))


def _matches(phrases: tuple[str, ...], text: str, hashtags, urls) -> bool:
    """True iff a phrase occurs in the lowercased text, in a hashtag or in
    the host of an absolute URL.  ``hashtags`` and ``urls`` may be a raw
    record's arrays: they are cleaned as :func:`_build_tweet` cleans them,
    and a Tweet's own fields are already clean."""
    text = text.lower()
    for phrase in phrases:
        if phrase in text:
            return True
    if hashtags:
        tags = _normal_hashtags(hashtags)
        if any(phrase in tag for tag in tags for phrase in phrases):
            return True
    if urls:
        hosts = [urlparse(u).netloc.lower() for u in _absolute_urls(urls)]
        if any(phrase in host for host in hosts for phrase in phrases):
            return True
    return False


def matches_filter(tweet: Tweet, phrases: PhraseFilter) -> bool:
    """True iff any phrase occurs (case-insensitively) in the tweet text,
    in a hashtag, or in a URL host."""
    return _matches(phrases.phrases, tweet.text, tweet.hashtags, tweet.urls)


@contextmanager
def _open_source(source):
    """Yield an iterable of lines from a path, ``tcp://host:port`` address,
    open file object, or any iterable of strings.

    A ``tcp://`` address names a host (an IPv6 literal in brackets, as in
    ``tcp://[::1]:9000``) and a port in 1-65535, and nothing else.  A
    missing host, a missing, non-integer or out-of-range port, or a user,
    path or query raises ``SourceUnavailable`` before anything connects.  Only
    a ``tcp://`` source imports ``socket``.

    A path or ``tcp://`` source is read as UTF-8 (bytes that are not become
    U+FFFD) with a leading byte-order mark dropped, and only LF ends a line,
    as in an ``io.StringIO`` or ``io.BytesIO``: a lone CR is JSON whitespace
    inside a record, not a line break.
    """
    if isinstance(source, (str, Path)):
        spec = str(source)
        if spec.startswith("tcp://"):
            import socket

            try:
                parts = urlsplit(spec)
                host, port = parts.hostname, parts.port
            except ValueError as exc:  # bad brackets, or a port not in 0-65535
                raise SourceUnavailable(f"bad address {spec}: {exc}") from exc
            if not host or not port or spec != f"tcp://{parts.netloc}" or "@" in parts.netloc:
                raise SourceUnavailable(f"bad address {spec}: needs tcp://host:port, port 1-65535")
            try:
                conn = socket.create_connection((host, port), timeout=TCP_TIMEOUT_S)
            except (OSError, ValueError) as exc:  # ValueError: a host idna rejects
                raise SourceUnavailable(f"cannot connect to {spec}: {exc}") from exc
            reader = conn.makefile("r", encoding="utf-8-sig", errors="replace", newline="\n")
            try:
                yield reader
            except OSError as exc:  # a silent stream times out; a peer may reset
                raise SourceUnavailable(f"lost {spec}: {exc}") from exc
            finally:
                reader.close()
                conn.close()
            return
        try:
            handle = open(spec, "r", encoding="utf-8-sig", errors="replace", newline="\n")
        except OSError as exc:
            raise SourceUnavailable(f"cannot open {spec}: {exc}") from exc
        try:
            yield handle
        finally:
            handle.close()
        return
    # Already a file-like object or iterable of lines.
    yield source


def replay_stream(
    source,
    phrases: PhraseFilter,
    *,
    lateness_seconds: float = 3600.0,
    dedup: bool = False,
    stats: ReplayStats | None = None,
) -> Iterator[Tweet]:
    """Replay matching tweets from ``source`` in nondecreasing time order.

    Every line is decoded and validated, so a bad line is a parse error
    whether or not it matches; a Tweet is built only for a matching record.
    Records inside the lateness window are buffered and re-ordered; records
    older than ``newest_seen - lateness_seconds`` are dropped and counted.
    Per-record parse errors are counted and skipped, never fatal.  Pass a
    ``stats`` object to observe the counters after exhaustion.
    """
    stats = stats if stats is not None else ReplayStats()
    heap: list = []
    tiebreak = itertools.count()
    watermark: datetime | None = None
    newest: datetime | None = None
    seen_ids: set[str] | None = set() if dedup else None
    try:
        lateness: timedelta | None = timedelta(seconds=lateness_seconds)
    except OverflowError:  # too wide for a timedelta: no record is ever late
        lateness = None

    with _open_source(source) as lines:
        for line in lines:
            # A line is blank when nothing is left once its JSON whitespace
            # is stripped, whether it is str or bytes.
            if isinstance(line, str):
                line = line.strip(_JSON_WS)
                if not line:
                    continue
            elif not line.strip(_JSON_WS_BYTES):
                continue
            stats.total += 1
            try:
                obj, t = _decode_record(line)
            except IngestError:
                stats.parse_errors += 1
                continue
            if not _matches(phrases.phrases, obj["text"], obj.get("hashtags"), obj.get("urls")):
                stats.filtered_out += 1
                continue
            if seen_ids is not None:
                if obj["posting_id"] in seen_ids:
                    stats.duplicates += 1
                    continue
                seen_ids.add(obj["posting_id"])

            if watermark is not None and t < watermark:
                stats.dropped_late += 1
                continue
            heapq.heappush(heap, (t, next(tiebreak), _build_tweet(obj, t)))
            if lateness is not None and (newest is None or t > newest):
                newest = t
                try:
                    watermark = newest - lateness
                except OverflowError:  # the window reaches back past year 1: none is late
                    watermark = None
            while heap and watermark is not None and heap[0][0] <= watermark:
                _, _, ready = heapq.heappop(heap)
                stats.yielded += 1
                yield ready

    while heap:
        _, _, ready = heapq.heappop(heap)
        stats.yielded += 1
        yield ready
