"""Online incremental clustering of tweet vectors.

Each incoming vector merges into the closest existing cluster when the cosine
distance to the cluster average vector is below the merge threshold,
otherwise it opens a new singleton cluster.  Centroids are maintained as
running term sums (the mean is derived, so incremental and batch centroids
agree exactly), and an inverted term index limits distance computations to
clusters that actually share vocabulary -- disjoint clusters sit at distance
1.0 and can never win a merge.

The index is weighted: it maps each term to ``{cluster id: that cluster's
running sum for the term}``, so a dot product is summed straight from the
postings.  The index is the only store of the sums: each weight is the
cluster's term sum, and a cluster keeps just its terms and a reference to the
index.  A sum is the exact ``int`` its counts add up to (an integer below
2**53, so every product, norm and distance is bit-identical to one computed
in floats, whatever order a dot is summed in; a checkpoint with any other sum
does not load).  The closest cluster is picked without sorting, ties to the
lowest id, in two passes.  The first scores the clusters in every postings
list of the vector but the longest.  A cluster found only in the longest
list shares one term with the vector, so its cosine is at most that term's
count over the vector's norm (Cauchy-Schwarz); the second pass reads the
longest list only when that bound can still tie the best distance so far or
merge.  This is the top-1 case of MaxScore (Turtle & Flood, IP&M 1995).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from datetime import date, datetime, timedelta
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import mul

from .features import TweetVector

MERGED = "merged"
CREATED = "created"

CHECKPOINT_VERSION = 3

# The links of every cluster that has none: most clusters never get a link,
# so each starts with this one object and gets its own set at its first link.
_NO_LINKS: frozenset[str] = frozenset()

# Room for rounding in assign's bound test, which only makes the longest
# postings list get read more often: the distances it guards are rounded in
# their last bits, far below this.
_BOUND_SLACK = 1e-9


class DegenerateVector(ValueError):
    """A vector (or centroid) with zero norm cannot be compared."""


def require_finite(name: str, value) -> float:
    """``value`` if it is a finite int or float; JSON true/false is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def require_int(name: str, value) -> int:
    """``value`` if it is an int; JSON true/false is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_type(kind, description: str):
    """A check that passes a value of type ``kind`` and rejects any other."""
    def check(name: str, value):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {description}, got {value!r}")
        return value
    return check


class ClusterParams:
    """Knobs for the online clusterer.

    merge_threshold: cosine distance below which a vector joins a cluster;
        values above 1 are capped at 1 (cosine distance never exceeds 1).
    min_event_size: members needed before a cluster counts as an event.
    inactivity_expiry: idle time after which sub-event clusters are evicted.
    """

    __slots__ = ("merge_threshold", "min_event_size", "inactivity_expiry")

    def __init__(self, merge_threshold: float = 0.7, min_event_size: int = 5,
                 inactivity_expiry: timedelta = timedelta(hours=72)):
        if require_finite("merge_threshold", merge_threshold) <= 0:
            raise ValueError("merge_threshold must be positive")
        if require_int("min_event_size", min_event_size) < 1:
            raise ValueError("min_event_size must be >= 1")
        if inactivity_expiry <= timedelta(0):
            raise ValueError("inactivity_expiry must be positive")
        self.merge_threshold = min(merge_threshold, 1.0)
        self.min_event_size = min_event_size
        self.inactivity_expiry = inactivity_expiry


class EventCluster:
    """A group of tweet vectors summarized by running term sums.

    The sums live in the weighted term index, ``{term: {cluster id: sum}}``:
    the cluster keeps its terms in first-seen order and a reference to the
    index, which is its ``ClusterState``'s, or a private one for a cluster
    built on its own.  ``term_sums`` and ``centroid`` (mean term weights) are
    views built from the index on demand (an expired cluster has left the
    index, and its sums with it).  ``norm`` is the L2 norm of the sums, set
    once per member from the squared norm: an exact ``int``, kept up to date
    as members join and summed from the sums when a cluster is loaded, so a
    loaded norm is the live one.

    Member ids are kept in one buffer, each as its JSON text (ASCII, with no
    raw newline) followed by a newline: about 17 bytes a member where a
    ``str`` in a list costs about 70.  ``member_ids`` decodes them; an id
    holding a high surrogate then a low one reads back as the one character
    the pair encodes, as it does from a checkpoint.
    """

    __slots__ = (
        "cluster_id", "_terms", "_index", "member_count", "_member_text", "sentiment_partials",
        "links", "per_day_counts", "per_day_sentiment", "created_at", "last_updated",
        "_norm_sq", "norm",
    )

    def __init__(self, cluster_id: int, vector: TweetVector,
                 index: dict[str, dict[int, int]] | None = None):
        self.cluster_id = cluster_id
        self._terms: list[str] = []
        self._index = {} if index is None else index
        self.member_count = 0
        self._member_text = bytearray()
        self.sentiment_partials: list[float] = []
        self.links: set[str] | frozenset[str] = _NO_LINKS
        self.per_day_counts: dict[date, int] = {}
        self.per_day_sentiment: dict[date, float] = {}
        self.created_at = vector.timestamp
        self.last_updated = vector.timestamp
        self._norm_sq = 0
        self.add(vector)

    @property
    def member_ids(self) -> list[str]:
        """The members' tweet ids, in the order they joined."""
        return _ids(self._member_text)

    @property
    def term_sums(self) -> dict[str, int]:
        """Each term's running sum, in first-seen order, read from the index."""
        index, cid = self._index, self.cluster_id
        return {term: index[term][cid] for term in self._terms}

    def _load_sums(self, sums: dict[str, int]) -> None:
        # For a cluster being loaded, which has no postings yet.
        self._terms = list(sums)
        index, cid = self._index, self.cluster_id
        for term, weight in sums.items():
            index.setdefault(term, {})[cid] = weight

    # The checkpoint's "term_sums": read as ``term_sums``, set only by ``load``.
    _sums = property(term_sums.fget, _load_sums)

    @property
    def centroid(self) -> dict[str, float]:
        n = self.member_count
        return {term: weight / n for term, weight in self.term_sums.items()}

    def add(self, vector: TweetVector) -> None:
        """Add a member: its counts go into the cluster's postings."""
        index = self._index
        cid = self.cluster_id
        norm_sq = self._norm_sq
        for term, count in vector.terms.items():
            postings = index.get(term)
            if postings is None:
                index[term] = {cid: count}
                old = 0
                self._terms.append(term)
            else:
                old = postings.get(cid)
                if old is None:
                    old = 0
                    self._terms.append(term)
                postings[cid] = old + count
            norm_sq += count * (2 * old + count)
        self._norm_sq = norm_sq
        self.norm = math.sqrt(norm_sq)
        # As ``load`` reads them back, so a vector built with an int id or
        # sentiment still saves a checkpoint that loads.  The id's JSON text is
        # what json.dumps writes for the str.
        id_text = encode_basestring_ascii(str(vector.tweet_id))
        self._member_text += (id_text + "\n").encode("ascii")
        self.member_count += 1
        x = float(vector.sentiment)
        # Shewchuk's grow step (the algorithm behind math.fsum): the partials
        # stay non-overlapping and sum exactly to the members' sentiments, so
        # math.fsum of them is math.fsum of the sentiments.
        partials = self.sentiment_partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        if vector.links:
            if self.links is _NO_LINKS:
                self.links = set(vector.links)
            else:
                self.links.update(vector.links)
        day = vector.day
        self.per_day_counts[day] = self.per_day_counts.get(day, 0) + 1
        self.per_day_sentiment[day] = self.per_day_sentiment.get(day, 0.0) + vector.sentiment
        if vector.timestamp > self.last_updated:
            self.last_updated = vector.timestamp

    def top_terms(self, limit: int = 5) -> list[tuple[str, int]]:
        ranked = sorted(self.term_sums.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(term, int(weight)) for term, weight in ranked[:limit]]


class ClusterState:
    """All live clusters plus the bookkeeping for streaming assignment.

    Single-writer: ``assign`` mutates shared state and must be called in
    stream order.
    """

    def __init__(self, params: ClusterParams | None = None):
        self.params = params or ClusterParams()
        self.clusters: dict[int, EventCluster] = {}
        self.next_id = 1
        self.expired_members = 0
        # term -> {cluster id: that cluster's running sum for the term}
        self._term_index: dict[str, dict[int, int]] = {}

    def assign(self, vector: TweetVector) -> tuple[int, str]:
        """Merge the vector into the closest cluster when its distance is
        below the threshold (ties go to the lowest cluster id), else create
        a singleton.  Returns (cluster_id, "merged" | "created")."""
        terms = vector.terms
        if not terms:
            raise DegenerateVector("cannot assign an empty-term vector")
        require_finite("sentiment", vector.sentiment)

        index = self._term_index
        clusters = self.clusters
        threshold = self.params.merge_threshold
        # Dots over every postings list but the longest, which is set aside.
        dots: dict[int, float] = {}
        longest: dict[int, int] = {}
        long_len = long_count = 0
        for term, count in terms.items():
            # A count below 1 would leave a norm of 0, or a term sum below 1
            # that a checkpoint refuses; nothing has changed yet.
            if count < 1:
                raise ValueError("term counts must be >= 1")
            postings = index.get(term)
            if postings:
                size = len(postings)
                if size > long_len:
                    postings, longest, long_len = longest, postings, size
                    count, long_count = long_count, count
                for cid, weight in postings.items():
                    dots[cid] = dots.get(cid, 0.0) + count * weight

        best_id = -1
        best_dist = math.inf
        if longest:
            counts = terms.values()
            v_norm = math.sqrt(sum(map(mul, counts, counts)))
            long_weight = longest.get
            for cid, dot in dots.items():
                weight = long_weight(cid)
                if weight is not None:
                    dot += long_count * weight
                d = 1.0 - dot / (v_norm * clusters[cid].norm)
                if d < 0.0:
                    d = 0.0
                if d < best_dist or (d == best_dist and cid < best_id):
                    best_dist = d
                    best_id = cid
            # A cluster in no other list shares one term with the vector, so
            # its cosine is at most long_count / v_norm: read the longest list
            # only when that bound can still tie the best or merge.
            if long_count / v_norm >= 1.0 - min(best_dist, threshold) - _BOUND_SLACK:
                for cid, weight in longest.items():
                    if cid in dots:
                        continue
                    d = 1.0 - long_count * weight / (v_norm * clusters[cid].norm)
                    if d < 0.0:
                        d = 0.0
                    if d < best_dist or (d == best_dist and cid < best_id):
                        best_dist = d
                        best_id = cid

        if best_id >= 0 and best_dist < threshold:
            clusters[best_id].add(vector)
            return best_id, MERGED

        cid = self.next_id
        self.next_id += 1
        clusters[cid] = EventCluster(cid, vector, index)
        return cid, CREATED

    @property
    def admitted(self) -> int:
        """Vectors assigned so far: each is a member of a live cluster or of
        an expired one."""
        return sum(c.member_count for c in self.clusters.values()) + self.expired_members

    @property
    def expired_clusters(self) -> int:
        """Clusters expired so far: every id below ``next_id`` is live or
        expired."""
        return self.next_id - 1 - len(self.clusters)

    def candidate_events(self) -> list[EventCluster]:
        """Clusters large enough to count as events, biggest first."""
        events = [c for c in self.clusters.values()
                  if c.member_count >= self.params.min_event_size]
        events.sort(key=lambda c: (-c.member_count, c.cluster_id))
        return events

    def expire_inactive(self, now: datetime) -> int:
        """Drop sub-event clusters idle longer than the expiry window.
        Candidate events are never expired."""
        try:
            cutoff = now - self.params.inactivity_expiry
        except OverflowError:  # the window reaches back past year 1: none is idle
            return 0
        doomed = [
            cid for cid, c in self.clusters.items()
            if c.last_updated < cutoff and c.member_count < self.params.min_event_size
        ]
        for cid in doomed:
            cluster = self.clusters.pop(cid)
            self.expired_members += cluster.member_count
            for term in cluster._terms:
                postings = self._term_index.get(term)
                if postings is not None:
                    postings.pop(cid, None)
                    if not postings:
                        del self._term_index[term]
        return len(doomed)

    # -- checkpointing -----------------------------------------------------

    def payload(self) -> dict:
        """The checkpoint document ``save`` writes."""
        return self._document([_entry(c) for _, c in sorted(self.clusters.items())])

    def _document(self, clusters) -> dict:
        """The checkpoint document with ``clusters`` as its cluster entries."""
        params = self.params
        return {
            "schema_version": CHECKPOINT_VERSION,
            "params": {
                "merge_threshold": params.merge_threshold,
                "min_event_size": params.min_event_size,
                "inactivity_expiry_hours": params.inactivity_expiry.total_seconds() / 3600.0,
            },
            **{key: getattr(self, key) for key in _COUNTERS},
            "clusters": clusters,
        }

    def save(self, path) -> None:
        """Write a versioned JSON checkpoint; loading restores bit-identical
        state (norms recomputed from the exact sums, so resumed runs match
        uninterrupted ones).

        The bytes are ``json.dumps(self.payload(), indent=1) + "\n"``, written
        one cluster entry at a time so the whole document is never built."""
        entries = (_entry(c) for _, c in sorted(self.clusters.items()))
        with open(path, "w", encoding="utf-8") as handle:
            stream_json(self._document(entries), handle, indent=1)

    @classmethod
    def load(cls, path) -> "ClusterState":
        """The state ``save`` wrote to ``path``; ``ValueError`` for any other
        document (see ``read_back``)."""
        return read_back(path, cls._from_payload, "checkpoint")

    @classmethod
    def _from_payload(cls, payload: dict) -> "ClusterState":
        version = payload["schema_version"]
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {version!r}")
        params = payload["params"]
        state = cls(ClusterParams(
            merge_threshold=params["merge_threshold"],
            min_event_size=params["min_event_size"],
            inactivity_expiry=timedelta(hours=params["inactivity_expiry_hours"]),
        ))
        for key in _COUNTERS:
            setattr(state, key, int(payload[key]))
        for entry in payload["clusters"]:
            cluster = EventCluster.__new__(EventCluster)
            cluster._index = state._term_index
            for key, (slot, _, read) in _CLUSTER_FIELDS.items():
                setattr(cluster, slot, read(entry[key]))
            if not 1 <= cluster.cluster_id < state.next_id:
                raise ValueError(f"cluster id {cluster.cluster_id} is not in "
                                 f"[1, next_id {state.next_id})")
            cluster._norm_sq = sum(w * w for w in cluster.term_sums.values())
            cluster.norm = math.sqrt(cluster._norm_sq)
            cluster.member_count = cluster._member_text.count(b"\n")
            if not cluster.member_count:
                raise ValueError(f"cluster {cluster.cluster_id} has no members")
            days = sum(cluster.per_day_counts.values())
            if cluster.member_count != days:
                raise ValueError(f"cluster {cluster.cluster_id} has {cluster.member_count} "
                                 f"member_ids, but its per_day_counts sum to {days}")
            # A day is in the per-day maps only once a member was added on it.
            if min(cluster.per_day_counts.values(), default=1) < 1:
                raise ValueError(f"cluster {cluster.cluster_id} has a per_day_counts entry below 1")
            if cluster.per_day_sentiment.keys() != cluster.per_day_counts.keys():
                raise ValueError(f"cluster {cluster.cluster_id}'s per_day_sentiment days "
                                 "differ from its per_day_counts days")
            state.clusters[cluster.cluster_id] = cluster
        # Every id is in [1, next_id), so no fewer than 0 clusters expired;
        # each expired cluster took at least one member with it.
        if state.expired_clusters > state.expired_members:
            raise ValueError(f"{state.expired_clusters} expired clusters cannot hold "
                             f"{state.expired_members} expired members")
        return state


def _same(value):
    return value


def _entry(cluster: EventCluster) -> dict:
    """A cluster's checkpoint entry, as ``payload`` and ``save`` write it."""
    return {key: write(getattr(cluster, slot))
            for key, (slot, write, _) in _CLUSTER_FIELDS.items()}


def _ids(text: bytearray) -> list:
    """The ids in a cluster's member text, in order."""
    return json.loads(b"[" + text[:-1].replace(b"\n", b",") + b"]")


def _ids_text(ids: list) -> bytearray:
    """``ids`` as ``EventCluster.add`` keeps them: each one's JSON text and a
    newline (one encoder call, with a newline as the item separator)."""
    if not ids:
        return bytearray()
    return bytearray(json.dumps(ids, separators=("\n", ":"))[1:-1] + "\n", "ascii")


def _by_day(per_day: dict) -> dict:
    """A per-day dict as ``save`` writes it: ISO day keys in day order."""
    return {d.isoformat(): v for d, v in sorted(per_day.items())}


# The day of an ISO date: the per-day keys of every loaded cluster share one
# ``date`` object per day, as in a live run.  The memo keeps the last 4,096
# days read (over 11 years), so it stays small in a long-lived process.
_day = lru_cache(maxsize=4096)(date.fromisoformat)


def _exact(weight) -> int:
    """A term sum as ``add`` keeps it: the ``int`` a whole number is.  Any
    other sum is a ``ValueError``: ``assign`` relies on each being an integer
    below 2**53, so that the order it sums them in cannot change a dot, and
    at least 1, the least count ``add`` adds, so that no norm is 0."""
    weight = float(weight)
    if weight.is_integer() and abs(weight) < 2**53:
        if weight < 1:
            raise ValueError(f"term sum {weight!r} is below 1")
        return int(weight)
    raise ValueError(f"term sum {weight!r} is not a whole number below 2**53")


# The checkpoint's state counters, saved and loaded as integers (``admitted``
# and ``expired_clusters`` follow from them and the clusters).
_COUNTERS = ("next_id", "expired_members")

# Checkpoint cluster key -> (EventCluster slot, how ``save`` writes the slot
# value, how ``load`` turns the JSON value back into it).  Each reader coerces
# to the slot's type, so a value of another type saves back differently and
# ``read_back`` rejects it.
_CLUSTER_FIELDS = {
    "cluster_id": ("cluster_id", _same, int),
    "term_sums": ("_sums", lambda v: {t: float(w) for t, w in v.items()},
                  lambda v: {str(t): _exact(w) for t, w in v.items()}),
    "member_ids": ("_member_text", _ids, lambda v: _ids_text([str(i) for i in v])),
    "sentiment_partials": ("sentiment_partials", _same, lambda v: [float(s) for s in v]),
    "links": ("links", sorted, lambda v: {str(u) for u in v} or _NO_LINKS),
    "per_day_counts": ("per_day_counts", _by_day,
                       lambda v: {_day(d): int(n) for d, n in v.items()}),
    "per_day_sentiment": ("per_day_sentiment", _by_day,
                          lambda v: {_day(d): float(s) for d, s in v.items()}),
    "created_at": ("created_at", datetime.isoformat, datetime.fromisoformat),
    "last_updated": ("last_updated", datetime.isoformat, datetime.fromisoformat),
}


def stream_json(document: dict, handle, indent: int, sort_keys: bool = False) -> None:
    """Write ``json.dumps(document, indent=indent, sort_keys=sort_keys)`` and
    a newline to ``handle`` without building the text.  Each top-level value
    is written piece by piece as the encoder hands it out; a value that is an
    iterator (a generator, say) is written as a list, one item at a time, so
    the list is never held."""
    encoder = json.JSONEncoder(indent=indent, sort_keys=sort_keys)
    # JSON strings hold no raw newline, so each newline starts an indent: a
    # value one level down takes one more indent after each of its newlines.
    step = "\n" + " " * indent
    item_step = step + " " * indent
    opener = "{"
    for key in sorted(document) if sort_keys else document:
        handle.write(opener + step + encode_basestring_ascii(key) + ": ")
        opener = ","
        value = document[key]
        if isinstance(value, Iterator):
            separator = "["
            for item in value:
                handle.write(separator + item_step + encoder.encode(item).replace("\n", item_step))
                separator = ","
            handle.write("[]" if separator == "[" else step + "]")
        else:
            for chunk in encoder.iterencode(value):
                handle.write(chunk.replace("\n", step))
    handle.write("{}\n" if opener == "{" else "\n}\n")


def read_json(path):
    """The JSON value in the UTF-8 file at ``path``: ``ValueError`` for a
    file that is not UTF-8 JSON, nesting too deep to decode included, and
    ``OSError`` for one that cannot be read."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError(str(exc)) from exc


def read_back(path, build, what: str):
    """``build(document)`` for the JSON document at ``path``, which this
    program wrote: the built object's ``payload()`` must be that document
    again (keys in any order, every number finite), else ``ValueError``."""
    document = read_json(path)
    try:
        built = build(document)
        same = (json.dumps(built.payload(), sort_keys=True, allow_nan=False)
                == json.dumps(document, sort_keys=True, allow_nan=False))
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValueError(f"bad {what}: {type(exc).__name__}: {exc}") from exc
    if not same:
        raise ValueError(f"bad {what}: it does not save back to the same document")
    return built
