import io
from collections import Counter
from datetime import datetime, timezone

import pytest

from outcry import (
    AllowList,
    FeatureExtractor,
    RuleTagger,
    SentimentLexicon,
    Tweet,
    TweetVector,
    load_stopwords,
)

BASE_TIME = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
_SCAN_TAGGER = RuleTagger()


@pytest.fixture(scope="session")
def lexicon():
    return SentimentLexicon.load()


@pytest.fixture(scope="session")
def tagger():
    return RuleTagger()


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


@pytest.fixture(scope="session")
def extractor(lexicon, tagger, stopwords):
    return FeatureExtractor(lexicon=lexicon, tagger=tagger, stopwords=stopwords)


@pytest.fixture(scope="session")
def allowlist():
    return AllowList.load()


def scan(text):
    """``RuleTagger._scan`` of ``text`` by one tagger with the bundled data."""
    return _SCAN_TAGGER._scan(text)


def make_tweet(posting_id="t1", text="hello", ts=BASE_TIME, language="en",
               source="web", urls=(), hashtags=()):
    return Tweet(
        posting_id=posting_id,
        creation_time=ts,
        text=text,
        language=language,
        source=source,
        urls=tuple(urls),
        hashtags=tuple(hashtags),
    )


def make_vector(tweet_id, terms, sentiment=0.0, ts=BASE_TIME, links=(), day=None):
    return TweetVector(
        tweet_id=tweet_id,
        timestamp=ts,
        terms=Counter(terms),
        sentiment=sentiment,
        links=frozenset(links),
        day=day or ts.date(),
    )


def stream_of(lines):
    return io.StringIO("\n".join(lines) + ("\n" if lines else ""))
