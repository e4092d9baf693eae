"""Property tests: the one-pass extractor against the token-object oracle.

``reference.ReferenceExtractor`` is feature extraction written the slow,
obvious way (one Token per match, uncached verb lookup, separate passes for
terms and sentiment).  The shipped extractor must give the same terms, in the
same insertion order, and the same sentiment float on arbitrary text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from outcry import FeatureExtractor, load_gazetteer, load_verb_list
from outcry.features import HASHTAG, WORD, _scan, _sentiment

from conftest import make_tweet
from reference import ReferenceExtractor, reference_tokenize

# Pieces that reach every branch of the tokenizer, tagger and scorer.
WORDS = [
    "Starbucks", "starbucks", "New", "York", "new york city", "NEW YORK", "San Francisco",
    "Philadelphia", "Rittenhouse", "Square", "AcmeCorp", "URGENT", "McDonald", "Ripley",
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
# Dense in negators, intensifiers and scored words, so every order of them
# inside the three-token lookback window comes up.
sentiment_texts = st.lists(st.sampled_from([
    "not", "NOT", "never", "don't", "very", "extremely", "slightly", "so",
    "good", "Terrible", "love", "hate", "awful", "meh", "filler", ",", "#tag", "!",
]), max_size=12).map(" ".join)
extra_hashtags = st.lists(st.sampled_from(["BoycottNow", "acme", "", "Ünï", "the"]), max_size=3)

_DATA = (load_verb_list(), load_gazetteer())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=texts)
def test_tokenize_matches_oracle(text):
    surfaces, kinds, words, hashtags = _scan(text)
    assert [(s, i, k) for i, (s, k) in enumerate(zip(surfaces, kinds))] == [
        tuple(t) for t in reference_tokenize(text)]
    assert words == [s.lower() if k == WORD else None for s, k in zip(surfaces, kinds)]
    assert hashtags == [s[1:].lower() for s, k in zip(surfaces, kinds) if k == HASHTAG]


@settings(max_examples=800, deadline=None, derandomize=True)
@given(text=texts, hashtags=extra_hashtags)
def test_vector_matches_oracle(text, hashtags, lexicon, tagger, stopwords):
    stopwords = stopwords | EXTRA_STOPWORDS
    oracle = ReferenceExtractor(*_DATA, stopwords, lexicon)
    tweet = make_tweet(text=text, hashtags=hashtags)
    expected_terms = oracle.terms(text, hashtags)
    vec = FeatureExtractor(lexicon=lexicon, tagger=tagger, stopwords=stopwords).vector(tweet)
    if not expected_terms:
        assert vec is None
        return
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
