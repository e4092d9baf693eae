"""Tweet feature extraction: tokens, heuristic tagging, 5W terms, sentiment.

``FeatureExtractor.vector`` is the one way to turn a tweet into features.
The tagger splits the text on whitespace and scans it into parallel lists of
token surfaces, kinds, lowercased words and verb lemmas (``RuleTagger._scan``);
each distinct chunk is tokenized, and its words' lemmas found, once, and kept
in the tagger's memo of at most ``CHUNK_CACHE_TOKENS`` tokens.  One loop over
those lists tags each word and emits the 5W terms (``_terms``); the sentiment
score (``_sentiment``) is read off the same lowercased words.

Each pass that would find nothing is skipped, with the same result: the
gazetteer lookups when no word starts a gazetteer phrase, and the sentiment
loop (score 0.0) when no word is in the lexicon.

The tagger is a deliberately simple capitalization/word-list heuristic; its
data (verb list, gazetteer, lemma rules) lives in ``RuleTagger``.  All
functions here give results that depend on their arguments only; the memo
changes how fast, never what.
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

# A tagger remembers the tokens of the whitespace-separated chunks it has
# seen, and starts over once the chunks it tokenized since the last start
# hold CHUNK_CACHE_TOKENS tokens.  Chunks longer than CHUNK_MAX_LEN characters
# (links, text without spaces) are tokenized but not kept, so the memo holds
# at most CHUNK_CACHE_TOKENS tokens, none longer than CHUNK_MAX_LEN.
CHUNK_CACHE_TOKENS = 1 << 14
CHUNK_MAX_LEN = 32

# A chunk's tokens, each as (surface, kind, lowercased word or None, hashtag
# term or None, verb lemma or None).
_Tokens = tuple[tuple[str, str, str | None, str | None, str | None], ...]


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
    lemma.  ``_scan`` tokenizes a text and gives each word its lemma;
    ``_terms`` applies the rest in one pass over the result.

    Each tagger keeps a memo of the chunks it has tokenized, lemmas included,
    so ``verbs`` must not change after use.
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
        self._chunks: dict[str, _Tokens] = {}
        self._load = 0  # tokens of the chunks tokenized since the memo started over

    def verb_lemma(self, w: str) -> str | None:
        """The verb-list entry a lowercase word maps to, trying -s/-ed/-ing
        stripping; None when nothing matches."""
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

    def _tokenize(self, chunk: str) -> _Tokens:
        entries = []
        for match in _TOKEN_RE.finditer(chunk):
            surface = match.group()
            kind = match.lastgroup
            if kind == WORD:
                word = surface.lower()
                entries.append((surface, kind, word, None, self.verb_lemma(word)))
            else:
                entries.append((surface, kind, None,
                                surface[1:].lower() if kind == HASHTAG else None, None))
        return tuple(entries)

    def _scan(self, text: str) -> tuple[list[str], list[str], list[str | None], list[str],
                                         list[str | None]]:
        """Token surfaces, kinds, and lowercased words (None for non-word
        tokens) as parallel lists, the hashtag terms in order, and each
        token's verb lemma (None for a non-word or a word with no lemma).

        No token contains whitespace and every other character starts one, so a
        text's tokens are its whitespace-separated chunks' tokens in order
        (``str.split`` and the regex ``\\s`` agree on every code point).  Each
        distinct chunk is matched against ``_TOKEN_RE`` and its words'
        lemmas found once, then looked up in the memo (see
        CHUNK_CACHE_TOKENS)."""
        memo = self._chunks
        surfaces: list[str] = []
        kinds: list[str] = []
        words: list[str | None] = []
        hashtags: list[str] = []
        lemmas: list[str | None] = []
        for chunk in text.split():
            entries = memo.get(chunk)
            if entries is None:
                entries = self._tokenize(chunk)
                self._load += len(entries)
                if self._load > CHUNK_CACHE_TOKENS:
                    memo.clear()
                    self._load = len(entries)
                if len(chunk) <= CHUNK_MAX_LEN and self._load <= CHUNK_CACHE_TOKENS:
                    memo[chunk] = entries
            for surface, kind, word, hashtag, lemma in entries:
                surfaces.append(surface)
                kinds.append(kind)
                words.append(word)
                lemmas.append(lemma)
                if hashtag is not None:
                    hashtags.append(hashtag)
        return surfaces, kinds, words, hashtags, lemmas


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
    surfaces, kinds, words, hashtags, word_lemmas = tagger._scan(text)
    gaz_index = tagger._gaz_index
    # Most texts hold no phrase's first word, and then no word is looked up.
    gaz_lookup = not gaz_index.keys().isdisjoint(words)
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
            lemma = word_lemmas[i]
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
    Resources left out are loaded from the bundled data files.

    Vectors of one day share one ``date`` object: the extractor keeps the
    last day it built and hands it out again while the tweets' days equal it,
    so the clusters' per-day keys hold one object per day, not one each."""

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
        self._day: date | None = None

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
        day = creation_time.date()
        if day != self._day:
            self._day = day
        return TweetVector(tweet.posting_id, creation_time, terms, sentiment,
                           frozenset(links), self._day)
