"""From-scratch reference clusterer: the independent oracle for assignment.

Keeps every member vector, recomputes the mean centroid and all distances
from scratch at every step, and breaks ties toward the lowest cluster id --
the same tie-break rule as the streaming engine, with none of its
incremental bookkeeping.
"""

import math


class ReferenceClusterer:
    def __init__(self, merge_threshold):
        self.threshold = min(merge_threshold, 1.0)
        self.members = {}  # cluster_id -> list of vectors
        self.next_id = 1

    @staticmethod
    def _distance(terms, vectors):
        # Cosine distance to the cluster mean.  Cosine is scale-invariant, so
        # the mean's 1/n factor cancels and the raw member sum gives the same
        # distance; staying in sums-space keeps everything integer-exact, so
        # ties resolve identically here and in the streaming engine.
        sums = {}
        for vec in vectors:
            for term, count in vec.terms.items():
                sums[term] = sums.get(term, 0.0) + count
        dot = sum(count * sums.get(term, 0.0) for term, count in terms.items())
        v_norm = math.sqrt(sum(c * c for c in terms.values()))
        c_norm = math.sqrt(sum(w * w for w in sums.values()))
        return max(0.0, 1.0 - dot / (v_norm * c_norm))

    def assign(self, vector):
        best_id = None
        best_dist = None
        for cid in sorted(self.members):
            d = self._distance(vector.terms, self.members[cid])
            if best_dist is None or d < best_dist:
                best_dist = d
                best_id = cid
        if best_id is not None and best_dist < self.threshold:
            self.members[best_id].append(vector)
            return best_id, "merged"
        cid = self.next_id
        self.next_id += 1
        self.members[cid] = [vector]
        return cid, "created"

    def partition(self):
        return {
            frozenset(v.tweet_id for v in vectors)
            for vectors in self.members.values()
        }


def batch_centroid(vectors):
    """Mean term-frequency vector computed the obvious way."""
    sums = {}
    for vec in vectors:
        for term, count in vec.terms.items():
            sums[term] = sums.get(term, 0.0) + count
    n = len(vectors)
    return {term: total / n for term, total in sums.items()}


# --- Feature extraction oracle ---------------------------------------------
#
# Feature extraction written the slow, obvious way: tokenize -> tag -> terms
# -> sentiment, one token object per regex match, kinds from a startswith
# chain, an uncached suffix-stripping verb lookup, and separate passes for
# terms and sentiment.  The one-pass extractor in outcry.features must agree
# with it exactly (tests/test_feature_oracle.py).

import re
from collections import Counter, namedtuple

RefToken = namedtuple("RefToken", "surface position kind")

_REF_TOKEN_RE = re.compile(
    r"https?://\S+"
    r"|#\w+"
    r"|@\w+"
    r"|\w+(?:'\w+)?"
    r"|[^\w\s]+"
)
_REF_SENTENCE_END = re.compile(r"[.!?]")


def reference_tokenize(text):
    tokens = []
    for i, match in enumerate(_REF_TOKEN_RE.finditer(text)):
        surface = match.group()
        first = surface[0]
        if surface.startswith(("http://", "https://")):
            kind = "url"
        elif first == "#" and len(surface) > 1:
            kind = "hashtag"
        elif first == "@" and len(surface) > 1:
            kind = "mention"
        elif first.isalnum() or first == "_":
            kind = "word"
        else:
            kind = "punctuation"
        tokens.append(RefToken(surface, i, kind))
    return tokens


class ReferenceExtractor:
    """Terms and sentiment of a tweet the slow, obvious way."""

    def __init__(self, verbs, gazetteer, stopwords, lexicon):
        self.verbs = verbs
        self.gazetteer = {}
        for phrase in gazetteer:
            self.gazetteer.setdefault(phrase[0], []).append(phrase)
        for candidates in self.gazetteer.values():
            candidates.sort(key=len, reverse=True)
        self.stopwords = stopwords
        self.lexicon = lexicon

    def verb_lemma(self, word):
        w = word.lower()
        if w in self.verbs:
            return w
        candidates = []
        if w.endswith("ies") and len(w) > 4:
            candidates.append(w[:-3] + "y")
        if w.endswith("es") and len(w) > 3:
            candidates.append(w[:-2])
        if w.endswith("s") and len(w) > 2:
            candidates.append(w[:-1])
        if w.endswith("ed") and len(w) > 3:
            candidates.extend((w[:-1], w[:-2], w[:-3]))
        if w.endswith("ing") and len(w) > 4:
            candidates.extend((w[:-3], w[:-3] + "e", w[:-4]))
        for candidate in candidates:
            if candidate in self.verbs:
                return candidate
        return None

    def tag(self, tokens):
        n = len(tokens)
        tags = ["other"] * n
        lowered = [t.surface.lower() if t.kind == "word" else None for t in tokens]
        for i in range(n):
            word = lowered[i]
            if word is None:
                continue
            for phrase in self.gazetteer.get(word, ()):
                end = i + len(phrase)
                if end <= n and all(lowered[i + k] == phrase[k] for k in range(len(phrase))):
                    for j in range(i, end):
                        tags[j] = "proper_noun"
                    break
        sentence_start = True
        for i, token in enumerate(tokens):
            if token.kind == "punctuation":
                if _REF_SENTENCE_END.search(token.surface):
                    sentence_start = True
                continue
            if token.kind != "word":
                continue
            capitalized = token.surface[0].isupper() and not token.surface.isupper()
            if tags[i] != "proper_noun" and not sentence_start and capitalized:
                tags[i] = "proper_noun"
            sentence_start = False
        for i, token in enumerate(tokens):
            if token.kind == "word" and tags[i] == "other":
                if self.verb_lemma(token.surface) is not None:
                    tags[i] = "verb"
        return list(zip(tokens, tags))

    def terms(self, text, extra_hashtags=()):
        tokens = reference_tokenize(text)
        tagged = self.tag(tokens)
        terms = Counter()
        run = []
        phrases = []
        for token, tag in tagged:
            if tag == "proper_noun":
                run.append(token.surface.lower())
            elif run:
                phrases.append(" ".join(run))
                run = []
        if run:
            phrases.append(" ".join(run))
        for phrase in phrases:
            if phrase not in self.stopwords:
                terms[phrase] += 1
        for token, tag in tagged:
            if tag == "verb":
                lemma = self.verb_lemma(token.surface)
                if lemma and lemma not in self.stopwords:
                    terms[lemma] += 1
        for token in tokens:
            if token.kind == "hashtag":
                terms[token.surface[1:].lower()] += 1
        for tag_text in extra_hashtags:
            terms[tag_text.lower()] += 1
        return terms

    def sentiment(self, text):
        tokens = reference_tokenize(text)
        lexicon = self.lexicon
        total = 0.0
        matched = 0
        for i, token in enumerate(tokens):
            if token.kind != "word":
                continue
            word = token.surface.lower()
            valence = lexicon.entries.get(word)
            if valence is None:
                continue
            negated = False
            multiplier = 1.0
            for prev in tokens[max(0, i - 3):i]:
                if prev.kind != "word":
                    continue
                prev_word = prev.surface.lower()
                if prev_word in lexicon.negators:
                    negated = True
                multiplier *= lexicon.intensifiers.get(prev_word, 1.0)
            adjusted = valence * multiplier
            if negated:
                adjusted = -adjusted
            total += adjusted
            matched += 1
        score = total / max(1, matched)
        return min(2.0, max(-2.0, score))


# --- Replay oracle ----------------------------------------------------------
#
# Replay written the obvious way: every line is parsed into a full Tweet and
# only then matched against the phrases.  The shipped replay decides the
# match before it builds a Tweet; it must yield the same tweets in the same
# order with the same counters (tests/test_replay_oracle.py).

import heapq
import itertools
import json
from datetime import timedelta
from urllib.parse import urlparse

from outcry.credibility import is_absolute_url
from outcry.ingest import (
    IngestError,
    MalformedRecord,
    MissingField,
    ReplayStats,
    Tweet,
    _parse_timestamp,
)


def reference_parse(line):
    try:
        obj = json.loads(line)
    # ValueError: also an over-long integer; RecursionError: too deep nesting
    except (ValueError, TypeError, RecursionError) as exc:
        raise MalformedRecord(f"not valid JSON: {line[:80]!r}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object")

    posting_id = obj.get("posting_id")
    if not isinstance(posting_id, str) or not posting_id:
        raise MissingField("posting_id")
    if "creation_time" not in obj:
        raise MissingField("creation_time")
    text = obj.get("text")
    if not isinstance(text, str):
        raise MissingField("text")

    creation_time = _parse_timestamp(obj["creation_time"])

    urls_raw = obj.get("urls") or []
    if not isinstance(urls_raw, list):
        raise MalformedRecord("urls must be an array")
    urls = tuple(u for u in urls_raw if isinstance(u, str) and is_absolute_url(u))

    tags_raw = obj.get("hashtags") or []
    if not isinstance(tags_raw, list):
        raise MalformedRecord("hashtags must be an array")
    hashtags = tuple(
        t.lstrip("#").lower() for t in tags_raw if isinstance(t, str) and t.lstrip("#")
    )

    return Tweet(
        posting_id=posting_id,
        creation_time=creation_time,
        text=text,
        language=str(obj.get("language") or "und"),
        source=str(obj.get("source") or ""),
        urls=urls,
        hashtags=hashtags,
    )


def reference_matches(tweet, phrases):
    text = tweet.text.lower()
    hosts = None
    for phrase in phrases.phrases:
        if phrase in text:
            return True
        if any(phrase in tag for tag in tweet.hashtags):
            return True
        if hosts is None:
            hosts = [(urlparse(u).netloc or "").lower() for u in tweet.urls]
        if any(phrase in host for host in hosts):
            return True
    return False


def reference_replay(lines, phrases, *, lateness_seconds=3600.0, dedup=False, stats=None):
    """Parse every line in full, then filter, dedup and reorder."""
    stats = stats if stats is not None else ReplayStats()
    heap = []
    tiebreak = itertools.count()
    watermark = None
    newest = None
    seen_ids = set() if dedup else None

    for line in lines:
        # Blank: nothing left once JSON's whitespace is stripped.
        if not line.strip(" \t\r\n" if isinstance(line, str) else b" \t\r\n"):
            continue
        stats.total += 1
        try:
            tweet = reference_parse(line)
        except IngestError:
            stats.parse_errors += 1
            continue
        if not reference_matches(tweet, phrases):
            stats.filtered_out += 1
            continue
        if seen_ids is not None:
            if tweet.posting_id in seen_ids:
                stats.duplicates += 1
                continue
            seen_ids.add(tweet.posting_id)

        t = tweet.creation_time
        if watermark is not None and t < watermark:
            stats.dropped_late += 1
            continue
        heapq.heappush(heap, (t, next(tiebreak), tweet))
        if newest is None or t > newest:
            newest = t
            watermark = newest - timedelta(seconds=lateness_seconds)
        while heap and watermark is not None and heap[0][0] <= watermark:
            _, _, ready = heapq.heappop(heap)
            stats.yielded += 1
            yield ready

    while heap:
        _, _, ready = heapq.heappop(heap)
        stats.yielded += 1
        yield ready


# --- Set-index assignment oracle ---------------------------------------------
#
# The streaming clusterer as it was before its term index carried weights:
# the index maps a term to the set of cluster ids holding it, each dot product
# reads the cluster's term sum, candidates are scanned in sorted id order, and
# the norm is a property that takes a square root on every read.  The weighted
# index in outcry.clustering must make the same decisions and hold the same
# sums (tests/test_weighted_index_oracle.py).

class SetIndexCluster:
    def __init__(self, cluster_id, vector):
        self.cluster_id = cluster_id
        self.term_sums = {}
        self.member_count = 0
        self.last_updated = vector.timestamp
        self._norm_sq = 0.0
        self.add(vector)

    @property
    def norm(self):
        return math.sqrt(self._norm_sq)

    def add(self, vector):
        sums = self.term_sums
        norm_sq = self._norm_sq
        for term, count in vector.terms.items():
            old = sums.get(term, 0.0)
            norm_sq += count * (2.0 * old + count)
            sums[term] = old + count
        self._norm_sq = norm_sq
        self.member_count += 1
        if vector.timestamp > self.last_updated:
            self.last_updated = vector.timestamp


class SetIndexClusterState:
    def __init__(self, params):
        self.params = params
        self.clusters = {}
        self.next_id = 1
        self._term_index = {}

    def assign(self, vector):
        terms = vector.terms
        index = self._term_index
        clusters = self.clusters
        dots = {}
        for term, count in terms.items():
            for cid in index.get(term, ()):
                dots[cid] = dots.get(cid, 0.0) + count * clusters[cid].term_sums[term]

        best_id = -1
        best_dist = math.inf
        if dots:
            v_norm = math.sqrt(sum(c * c for c in terms.values()))
            for cid in sorted(dots):
                d = 1.0 - dots[cid] / (v_norm * clusters[cid].norm)
                if d < 0.0:
                    d = 0.0
                if d < best_dist:
                    best_dist = d
                    best_id = cid

        if best_id >= 0 and best_dist < self.params.merge_threshold:
            cluster = clusters[best_id]
            known = cluster.term_sums
            new_terms = [t for t in terms if t not in known]
            cluster.add(vector)
            for term in new_terms:
                index.setdefault(term, set()).add(best_id)
            return best_id, "merged"

        cid = self.next_id
        self.next_id += 1
        clusters[cid] = SetIndexCluster(cid, vector)
        for term in terms:
            index.setdefault(term, set()).add(cid)
        return cid, "created"

    def expire_inactive(self, now):
        cutoff = now - self.params.inactivity_expiry
        doomed = [
            cid for cid, c in self.clusters.items()
            if c.last_updated < cutoff and c.member_count < self.params.min_event_size
        ]
        for cid in doomed:
            cluster = self.clusters.pop(cid)
            for term in cluster.term_sums:
                bucket = self._term_index.get(term)
                if bucket is not None:
                    bucket.discard(cid)
                    if not bucket:
                        del self._term_index[term]
        return len(doomed)
