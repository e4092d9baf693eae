"""Tweet feature extraction: tokens, heuristic tagging, 5W terms, sentiment.

``FeatureExtractor.vector`` is the one way to turn a tweet into features.
The text is split on whitespace and scanned into parallel lists of token
surfaces, kinds and lowercased words (``_scan``); each distinct chunk is
tokenized once and its tokens are kept in a cache of at most
``CHUNK_CACHE_TOKENS`` tokens, which ``_scan`` sets aside for a while when too
few chunks repeat.  One loop over those lists tags each word and emits the 5W
terms (``_terms``); the sentiment score (``_sentiment``) is read off the same
lowercased words.

Each pass that would find nothing is skipped, with the same result: the
gazetteer lookups when no word starts a gazetteer phrase, and the sentiment
loop (score 0.0) when no word is in the lexicon.

The tagger is a deliberately simple capitalization/word-list heuristic; its
data (verb list, gazetteer, lemma rules) lives in ``RuleTagger``.  All
functions here give results that depend on their arguments only; the caches
change how fast, never what.
"""

from __future__ import annotations

import math
import re
from datetime import date, datetime
from typing import Iterable, NamedTuple, Sequence

from . import credibility
from .credibility import bundled_data, read_data_lines
from .ingest import Tweet

# Token kinds
WORD = "word"
HASHTAG = "hashtag"
MENTION = "mention"
URL = "url"
PUNCT = "punctuation"

NEGATION_WINDOW = 3
SENTIMENT_MIN, SENTIMENT_MAX = -2.0, 2.0

# Group names are the token kinds, so ``match.lastgroup`` is a token's kind.
# A punctuation run that opens with '#' or '@' and is longer than one
# character ("#!!") is a hashtag or mention, and "#!!" yields the term "!!".
_TOKEN_RE = re.compile(
    rf"(?P<{URL}>https?://\S+)"            # URLs first so hosts/paths stay intact
    rf"|(?P<{HASHTAG}>#(?:\w+|[^\w\s]+))"
    rf"|(?P<{MENTION}>@(?:\w+|[^\w\s]+))"
    rf"|(?P<{WORD}>\w+(?:'\w+)?)"          # words, allowing an internal apostrophe
    rf"|(?P<{PUNCT}>[^\w\s]+)"             # runs of punctuation
)

_SENTENCE_END = re.compile(r"[.!?]")

# Distinct words whose verb lemma a tagger remembers before starting over.
LEMMA_CACHE_SIZE = 1 << 16
_UNSEEN = object()


# ``_scan`` remembers the tokens of the whitespace-separated chunks it has
# seen, and starts over once the chunks it tokenized since the last start
# hold CHUNK_CACHE_TOKENS tokens.  Chunks longer than CHUNK_MAX_LEN characters
# (links, text without spaces) are tokenized but not kept, so the cache holds
# at most CHUNK_CACHE_TOKENS tokens, none longer than CHUNK_MAX_LEN.
CHUNK_CACHE_TOKENS = 1 << 14
CHUNK_MAX_LEN = 32
# A chunk found in the cache costs a lookup; a missed one costs its own regex
# pass and a new entry, about three times its share of the one regex pass
# over the whole text (``_scan_text``).  Below about four found chunks in
# five the cache costs more than it saves, so when fewer than that were found
# between two starts, ``_scan`` uses ``_scan_text`` for the next
# CHUNK_BYPASS_TEXTS texts, then tries the cache again.
CHUNK_BYPASS_TEXTS = 1 << 16

_Tokens = tuple[tuple[str, str, str | None, str | None], ...]


class _ChunkCache:
    """chunk -> its tokens as (surface, kind, lowercased word or None, hashtag
    term or None).  A pure memo: a chunk's tokens do not depend on its
    context, so whether a text is scanned through it never changes the
    result."""

    def __init__(self):
        self.tokens: dict[str, _Tokens] = {}
        self.scanned = 0  # chunks scanned since the last start
        self.missed = 0  # of those, the ones not found in ``tokens``
        self.load = 0  # the missed chunks' tokens, at least the tokens held
        self.bypass = 0  # texts still to scan without the cache

    def restart(self) -> None:
        """Start over, first setting the cache aside for a while when it
        found too few chunks."""
        if self.missed * 5 > self.scanned:
            self.bypass = CHUNK_BYPASS_TEXTS
        self.tokens.clear()
        self.scanned = self.missed = self.load = 0


_chunk_cache = _ChunkCache()


def _tokenize_chunk(chunk: str) -> _Tokens:
    entries = []
    for match in _TOKEN_RE.finditer(chunk):
        surface = match.group()
        kind = match.lastgroup
        entries.append((surface, kind, surface.lower() if kind == WORD else None,
                        surface[1:].lower() if kind == HASHTAG else None))
    return tuple(entries)


def _scan_text(text: str) -> tuple[list[str], list[str], list[str | None], list[str]]:
    """``_scan`` without the cache: one regex pass over the whole text."""
    surfaces: list[str] = []
    kinds: list[str] = []
    words: list[str | None] = []
    hashtags: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        surface = match.group()
        kind = match.lastgroup
        surfaces.append(surface)
        kinds.append(kind)
        if kind == WORD:
            words.append(surface.lower())
        else:
            words.append(None)
            if kind == HASHTAG:
                hashtags.append(surface[1:].lower())
    return surfaces, kinds, words, hashtags


def _scan(text: str) -> tuple[list[str], list[str], list[str | None], list[str]]:
    """Token surfaces, kinds, and lowercased words (None for non-word
    tokens) as parallel lists, plus the hashtag terms in order.

    No token contains whitespace and every other character starts one, so a
    text's tokens are its whitespace-separated chunks' tokens in order
    (``str.split`` and the regex ``\\s`` agree on every code point).  Each
    distinct chunk is matched against ``_TOKEN_RE`` once, then looked up,
    except while the cache is set aside (see CHUNK_BYPASS_TEXTS)."""
    cache = _chunk_cache
    if cache.bypass:
        cache.bypass -= 1
        return _scan_text(text)
    chunks = text.split()
    cache.scanned += len(chunks)
    tokens = cache.tokens
    surfaces: list[str] = []
    kinds: list[str] = []
    words: list[str | None] = []
    hashtags: list[str] = []
    for chunk in chunks:
        entries = tokens.get(chunk)
        if entries is None:
            entries = _tokenize_chunk(chunk)
            if cache.load + len(entries) > CHUNK_CACHE_TOKENS:
                cache.restart()
            cache.missed += 1
            cache.load += len(entries)
            if len(chunk) <= CHUNK_MAX_LEN and cache.load <= CHUNK_CACHE_TOKENS:
                tokens[chunk] = entries
        for surface, kind, word, hashtag in entries:
            surfaces.append(surface)
            kinds.append(kind)
            words.append(word)
            if hashtag is not None:
                hashtags.append(hashtag)
    return surfaces, kinds, words, hashtags


def load_stopwords(path=None) -> frozenset[str]:
    return frozenset(w.lower() for w in read_data_lines(path or bundled_data("stopwords.txt")))


def load_verb_list(path=None) -> frozenset[str]:
    return frozenset(w.lower() for w in read_data_lines(path or bundled_data("verbs.txt")))


def load_gazetteer(path=None) -> tuple[tuple[str, ...], ...]:
    """Entity phrases as tuples of lowercase words, e.g. ("new", "york")."""
    phrases = []
    for line in read_data_lines(path or bundled_data("gazetteer.txt")):
        words = tuple(line.lower().split())
        if words:
            phrases.append(words)
    return tuple(phrases)


class SentimentLexicon(NamedTuple("SentimentLexicon", [
        ("entries", dict[str, float]),
        ("negators", frozenset[str]),
        ("intensifiers", dict[str, float]),
])):
    """Token valences in [-2, +2] plus negator and intensifier word lists."""

    __slots__ = ()

    def __new__(cls, entries: dict[str, float], negators: frozenset[str],
                intensifiers: dict[str, float]):
        for token, valence in entries.items():
            if not (SENTIMENT_MIN <= valence <= SENTIMENT_MAX):
                raise ValueError(f"valence out of range for {token!r}: {valence}")
        for token, mult in intensifiers.items():
            if not (math.isfinite(mult) and mult > 0):
                raise ValueError(f"intensifier multiplier must be positive: {token!r}")
        return super().__new__(cls, entries, negators, intensifiers)

    @classmethod
    def load(cls, path=None) -> "SentimentLexicon":
        entries: dict[str, float] = {}
        negators: set[str] = set()
        intensifiers: dict[str, float] = {}
        section = "entries"
        for line in read_data_lines(path or bundled_data("sentiment_lexicon.txt")):
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].lower()
                continue
            if section == "entries":
                token, _, value = line.partition("\t")
                entries[token.strip().lower()] = float(value)
            elif section == "negators":
                negators.add(line.lower())
            elif section == "intensifiers":
                token, _, value = line.partition("\t")
                intensifiers[token.strip().lower()] = float(value)
            else:
                raise ValueError(f"unknown lexicon section [{section}]")
        return cls(entries=entries, negators=frozenset(negators), intensifiers=intensifiers)


class RuleTagger:
    """The tagging data behind the 5W terms: the verb list, the gazetteer
    indexed by first word, and the suffix rules that map a word to its verb
    lemma.  ``_terms`` applies them in one pass over a text's tokens.

    Lemmas are cached per tagger, so ``verbs`` must not change after use.
    """

    def __init__(self, verbs: frozenset[str] | None = None,
                 gazetteer: Sequence[tuple[str, ...]] | None = None):
        self.verbs = verbs if verbs is not None else load_verb_list()
        gazetteer = gazetteer if gazetteer is not None else load_gazetteer()
        # Index phrases (as word lists) by first word, longest candidates first.
        self._gaz_index: dict[str, list[list[str]]] = {}
        for phrase in gazetteer:
            self._gaz_index.setdefault(phrase[0], []).append(list(phrase))
        for candidates in self._gaz_index.values():
            candidates.sort(key=len, reverse=True)
        self._lemmas: dict[str, str | None] = {}
        # _strip_to_verb never tries a candidate more than 4 characters
        # shorter than the word, so a longer word than this is never a verb.
        self._longest_verb_word = max(map(len, self.verbs)) + 4 if self.verbs else 0

    def _strip_to_verb(self, w: str) -> str | None:
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
            candidates.extend((w[:-1], w[:-2], w[:-3]))  # close(d) / arrest(ed) / stopp(ed)
        if w.endswith("ing") and len(w) > 4:
            candidates.extend((w[:-3], w[:-3] + "e", w[:-4]))
        for candidate in candidates:
            if candidate in self.verbs:
                return candidate
        return None

    def verb_lemma(self, w: str) -> str | None:
        """The verb-list entry a lowercase word maps to, trying -s/-ed/-ing
        stripping; None when nothing matches.  Cached, except for words too
        long to be a verb."""
        lemma = self._lemmas.get(w, _UNSEEN)
        if lemma is _UNSEEN:
            if len(w) > self._longest_verb_word:
                return None
            if len(self._lemmas) >= LEMMA_CACHE_SIZE:
                self._lemmas.clear()
            lemma = self._lemmas[w] = self._strip_to_verb(w)
        return lemma


def _terms(
    text: str,
    extra_hashtags: Iterable[str],
    tagger: RuleTagger,
    stopwords: frozenset[str],
) -> tuple[dict[str, int], list[str | None]]:
    """The text's 5W term counts, and its lowercased words for sentiment
    scoring.

    One loop over the tokens tags each word.  A word is a proper noun when it
    lies in a gazetteer phrase, or when it is capitalized (not all caps) and
    does not open a sentence; otherwise it is a verb when it has a verb
    lemma.  Each maximal run of adjacent proper nouns is one lowercase phrase
    term, and each verb adds its lemma.  Gazetteer phrases may overlap: a
    phrase that starts inside a matched one extends the match to its own end.

    Terms are counted in a fixed order: phrases, verb lemmas, hashtags in the
    text, then the record's hashtag field; the dict keeps each term where it
    first came up.  Hashtags are kept verbatim (sans '#') and never
    stopword-filtered.
    """
    surfaces, kinds, words, hashtags = _scan(text)
    gaz_index = tagger._gaz_index
    # Most texts hold no phrase's first word, and then no word is looked up.
    gaz_lookup = not gaz_index.keys().isdisjoint(words)
    verb_lemma = tagger.verb_lemma
    phrases: list[str] = []
    lemmas: list[str] = []
    run: list[str] = []
    gaz_end = 0  # the tokens before this index lie in a matched gazetteer phrase
    sentence_start = True
    for i, word in enumerate(words):
        if word is None:
            if run:
                phrases.append(" ".join(run))
                run = []
            if kinds[i] == PUNCT and _SENTENCE_END.search(surfaces[i]):
                sentence_start = True
            continue
        if gaz_lookup:
            for phrase in gaz_index.get(word, ()):
                end = i + len(phrase)
                if words[i:end] == phrase:
                    if end > gaz_end:
                        gaz_end = end
                    break
        if i < gaz_end or (not sentence_start and surfaces[i][0].isupper()
                           and not surfaces[i].isupper()):
            run.append(word)
        else:
            if run:
                phrases.append(" ".join(run))
                run = []
            lemma = verb_lemma(word)
            if lemma and lemma not in stopwords:
                lemmas.append(lemma)
        sentence_start = False
    if run:
        phrases.append(" ".join(run))
    items = [p for p in phrases if p not in stopwords]
    items += lemmas
    items += hashtags
    items += [tag_text.lower() for tag_text in extra_hashtags]
    counts: dict[str, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts, words


def _sentiment(words: Sequence[str | None], lexicon: SentimentLexicon) -> float:
    """Average lexicon valence over matched words with negation flipping
    (3-token lookback) and intensifier scaling, clamped to [-2, +2].
    Zero lexicon matches score exactly 0."""
    entries, negators, intensifiers = lexicon.entries, lexicon.negators, lexicon.intensifiers
    if entries.keys().isdisjoint(words):
        return 0.0
    total = 0.0
    matched = 0
    for i, word in enumerate(words):
        valence = entries.get(word)
        if valence is None:
            continue
        negated = False
        multiplier = 1.0
        for prev in words[max(0, i - NEGATION_WINDOW):i]:
            if prev is None:
                continue
            if prev in negators:
                negated = True
            multiplier *= intensifiers.get(prev, 1.0)
        adjusted = valence * multiplier
        if negated:
            adjusted = -adjusted
        total += adjusted
        matched += 1
    score = total / max(1, matched)
    return min(SENTIMENT_MAX, max(SENTIMENT_MIN, score))


class TweetVector(NamedTuple):
    """Feature bundle a tweet contributes to clustering, an immutable named
    tuple.  ``terms`` maps each 5W term to its count, in the order the terms
    first came up."""

    tweet_id: str
    timestamp: datetime
    terms: dict[str, int]
    sentiment: float
    links: frozenset[str]
    day: date


class FeatureExtractor:
    """Bundles tagger, lexicon, stopword, and redirect resources so the
    pipeline can turn tweets into vectors without re-loading data files.
    Resources left out are loaded from the bundled data files."""

    def __init__(
        self,
        lexicon: SentimentLexicon | None = None,
        tagger: RuleTagger | None = None,
        stopwords: frozenset[str] | None = None,
        redirects: credibility.RedirectMap | credibility.NetworkRedirectResolver | None = None,
    ):
        self.lexicon = lexicon or SentimentLexicon.load()
        self.tagger = tagger or RuleTagger()
        self.stopwords = stopwords if stopwords is not None else load_stopwords()
        self.redirects = redirects

    def vector(self, tweet: Tweet) -> TweetVector | None:
        """Assemble a TweetVector; returns None (discard) when no terms survive.

        URLs that fail normalization are silently skipped; the vector's links
        only ever hold canonical URLs.
        """
        terms, words = _terms(tweet.text, tweet.hashtags, self.tagger, self.stopwords)
        if not terms:
            return None
        sentiment = _sentiment(words, self.lexicon)
        links = set()
        for raw in tweet.urls:
            try:
                links.add(credibility.normalize_url(raw, self.redirects))
            except (credibility.BadUrl, credibility.RedirectCycle):
                continue
        creation_time = tweet.creation_time
        return TweetVector(tweet.posting_id, creation_time, terms, sentiment,
                           frozenset(links), creation_time.date())
