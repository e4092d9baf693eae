"""Property tests: the one-pass extractor against the token-object oracle.

``reference.ReferenceExtractor`` is feature extraction written the slow,
obvious way (one Token per match, uncached verb lookup, separate passes for
terms and sentiment).  The shipped extractor must give the same terms, in the
same insertion order, and the same sentiment float on arbitrary text.
"""

import re
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from outcry import FeatureExtractor, RuleTagger, features, load_gazetteer, load_verb_list
from outcry.features import CHUNK_MAX_LEN, HASHTAG, WORD, _sentiment

from conftest import make_tweet
from reference import ReferenceExtractor, reference_tokenize

# Pieces that reach every branch of the tokenizer, tagger and scorer.
WORDS = [
    "Starbucks", "starbucks", "New", "York", "new york city", "NEW YORK", "San Francisco",
    "Philadelphia", "Rittenhouse", "Square", "AcmeCorp", "URGENT", "McDonald", "Ripley",
    "new york city hall", "madison square garden party", "york city", "hall", "City", "Hall",
    "madison square", "garden party", "Garden",
    "arrested", "arrest", "closes", "closed", "closing", "stopped", "studies", "says",
    "protesting", "Arrested", "ARRESTED",
    "not", "never", "nothing", "cannot", "don't", "very", "extremely", "really", "slightly",
    "good", "terrible", "great", "awful", "love", "hate", "Good", "NOT",
    "the", "of", "and", "a", "it's", "'tis", "1999", "2nd", "_", "Éclair", "ßtraße", "Ωmega",
]
SYMBOLS = [
    "#", "@", "'", "#!!", "@?!", "##", "#'s", "#Tag", "@user", "http://", "https://",
    "http://x.example/a?b=1", "https://NYTimes.com/story#frag", "HTTP://caps.example",
    ".", "!", "?", "...", "?!", ",", ":", "-", "日本", "é",
]
# Stopwords that overlap verbs and names, so the stopword filter on every
# term channel is exercised (no shipped verb is a stopword).
EXTRA_STOPWORDS = {"arrest", "close", "starbucks", "ripley"}

_piece = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(WORDS),
    st.sampled_from(WORDS),
    st.sampled_from(SYMBOLS),
    st.text(alphabet="aAzZ#@'._!? \t\n:/é1", max_size=6),
)
_separator = st.sampled_from([" ", " ", " ", " ", "", "\n", ", ", ". ", "? ", "#", "@"])
texts = st.one_of(
    st.lists(st.tuples(_piece, _separator), max_size=24).map(
        lambda parts: "".join(p + s for p, s in parts)),
    st.text(max_size=40),
)
# Whitespace beyond space, tab and newline that str.split and the regex \s
# both split on.
UNICODE_SPACES = ["\x1c", "\xa0", "\u2028", "\u3000"]
# A few chunks repeated with ASCII and Unicode separators, so the tagger's
# chunk memo is hit within a text and across texts.
repeated_chunk_texts = st.lists(_piece, min_size=1, max_size=4).flatmap(
    lambda chunks: st.lists(
        st.tuples(st.sampled_from(chunks), st.sampled_from(UNICODE_SPACES + [" ", "\t"])),
        max_size=16,
    )).map(lambda parts: "".join(p + s for p, s in parts))
# Dense in negators, intensifiers and scored words, so every order of them
# inside the three-token lookback window comes up.
sentiment_texts = st.lists(st.sampled_from([
    "not", "NOT", "never", "don't", "very", "extremely", "slightly", "so",
    "good", "Terrible", "love", "hate", "awful", "meh", "filler", ",", "#tag", "!",
]), max_size=12).map(" ".join)
extra_hashtags = st.lists(st.sampled_from(["BoycottNow", "acme", "", "Ünï", "the"]), max_size=3)

_DATA = (load_verb_list(), load_gazetteer())
# No shipped phrase holds another one's first word after its own start, so
# the second gazetteer adds phrases that start inside a longer match and end
# past it ("new york city" + "york city hall", "madison square garden" +
# "square garden party").
GAZETTEERS = {
    "shipped": _DATA[1],
    "overlapping": _DATA[1] + (("york", "city", "hall"), ("madison", "square", "garden"),
                               ("square", "garden", "party")),
}
_TAGGERS = {name: RuleTagger(_DATA[0], gazetteer) for name, gazetteer in GAZETTEERS.items()}
_scan = _TAGGERS["shipped"]._scan
_ORACLE_LEMMAS = ReferenceExtractor(*_DATA, frozenset(), None)


def assert_scans_like_oracle(text, scanned):
    surfaces, kinds, words, hashtags, lemmas = scanned
    assert [(s, i, k) for i, (s, k) in enumerate(zip(surfaces, kinds))] == [
        tuple(t) for t in reference_tokenize(text)]
    assert words == [s.lower() if k == WORD else None for s, k in zip(surfaces, kinds)]
    assert hashtags == [s[1:].lower() for s, k in zip(surfaces, kinds) if k == HASHTAG]
    assert lemmas == [w and _ORACLE_LEMMAS.verb_lemma(w) for w in words]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(texts, repeated_chunk_texts))
def test_tokenize_matches_oracle(text):
    assert_scans_like_oracle(text, _scan(text))
    assert_scans_like_oracle(text, RuleTagger(*_DATA)._scan(text))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.lists(st.one_of(texts, repeated_chunk_texts), max_size=12),
       tokens=st.integers(1, 12))
def test_scan_through_a_small_cache_matches_oracle(stream, tokens):
    # Restarts and chunks too long to keep both come up; neither changes a
    # result, and the memo never holds more than its tokens.
    tagger = RuleTagger(*_DATA)
    with mock.patch.object(features, "CHUNK_CACHE_TOKENS", tokens):
        for text in stream:
            assert_scans_like_oracle(text, tagger._scan(text))
            held = tagger._chunks
            assert sum(map(len, held.values())) <= tokens
            assert all(len(chunk) <= CHUNK_MAX_LEN for chunk in held)


def test_split_whitespace_is_regex_whitespace():
    # _scan splits on str.split() whitespace before matching the token regex,
    # which is correct only while the two agree on every code point.
    space = re.compile(r"\s")
    assert [cp for cp in range(sys.maxunicode + 1)
            if (not chr(cp).split()) != bool(space.match(chr(cp)))] == []


def test_long_chunks_are_not_kept():
    long_word = "w" * (CHUNK_MAX_LEN + 1)
    dotted = ".".join("a" * 140)  # 279 characters, 279 tokens
    text = f"short {long_word} {dotted} {'x' * CHUNK_MAX_LEN}"
    tagger = RuleTagger(*_DATA)
    first = tagger._scan(text)
    assert tagger._scan(text) == first
    assert_scans_like_oracle(text, first)
    assert set(tagger._chunks) == {"short", "x" * CHUNK_MAX_LEN}


def test_scan_returns_fresh_lists():
    text = "#Tag word #tag word"
    expected = _scan(text)
    for scanned in _scan(text):
        scanned[0] = "changed"
        scanned.append("extra")
    assert _scan(text) == expected == (
        ["#Tag", "word", "#tag", "word"], [HASHTAG, WORD, HASHTAG, WORD],
        [None, "word", None, "word"], ["tag", "tag"], [None, None, None, None])


@settings(max_examples=800, deadline=None, derandomize=True)
@given(text=texts, hashtags=extra_hashtags)
def test_vector_matches_oracle(text, hashtags, lexicon, stopwords):
    stopwords = stopwords | EXTRA_STOPWORDS
    tweet = make_tweet(text=text, hashtags=hashtags)
    for name, gazetteer in GAZETTEERS.items():
        oracle = ReferenceExtractor(_DATA[0], gazetteer, stopwords, lexicon)
        expected_terms = oracle.terms(text, hashtags)
        vec = FeatureExtractor(lexicon=lexicon, tagger=_TAGGERS[name],
                               stopwords=stopwords).vector(tweet)
        if not expected_terms:
            assert vec is None
            continue
        assert list(vec.terms.items()) == list(expected_terms.items())
        assert vec.sentiment == oracle.sentiment(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(sentiment_texts, texts))
def test_sentiment_matches_oracle(text, lexicon, stopwords):
    oracle = ReferenceExtractor(*_DATA, stopwords, lexicon)
    assert _sentiment(_scan(text)[2], lexicon) == oracle.sentiment(text)


def test_punctuation_run_after_hash_is_a_hashtag(lexicon, tagger, stopwords):
    # "#!!" has been a hashtag since the first tokenizer; its term is "!!".
    fx = FeatureExtractor(lexicon=lexicon, tagger=tagger, stopwords=stopwords)
    vec = fx.vector(make_tweet(text="wow #!! @?!"))
    assert vec.terms == {"!!": 1}
    assert _scan("#!! @?! # @")[1] == [
        "hashtag", "mention", "punctuation", "punctuation"]
