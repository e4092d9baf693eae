import inspect
import random
from collections import Counter

import pytest

from outcry import FeatureExtractor, RuleTagger, SentimentLexicon, TweetVector
from outcry.features import (
    HASHTAG,
    OTHER,
    PROPER_NOUN,
    PUNCT,
    URL,
    VERB,
    WORD,
    _proper_noun_phrases,
    _scan,
    _sentiment,
)

from conftest import make_tweet


def tokens(text):
    surfaces, kinds, _, _ = _scan(text)
    return list(zip(surfaces, kinds))


def tagged(tagger, text):
    surfaces, kinds, words, _ = _scan(text)
    return list(zip(surfaces, tagger.tag_lists(surfaces, kinds, words)))


def score(text, lexicon):
    return _sentiment(_scan(text)[2], lexicon)


class TestTokenize:
    def test_empty_text(self):
        assert _scan("") == ([], [], [], [])

    def test_hashtag_and_punctuation(self):
        assert tokens("Boycott #Starbucks now!") == [
            ("Boycott", WORD),
            ("#Starbucks", HASHTAG),
            ("now", WORD),
            ("!", PUNCT),
        ]
        assert _scan("Boycott #Starbucks now!")[3] == ["starbucks"]

    def test_url_stays_single_token(self):
        assert tokens("see https://nyti.ms/x") == [
            ("see", WORD),
            ("https://nyti.ms/x", URL),
        ]

    def test_mentions_and_apostrophes(self):
        scanned = tokens("@acme don't do that")
        assert scanned[0][1] == "mention"
        assert scanned[1][0] == "don't"

    def test_positions_strictly_increasing(self):
        text = "a b, c https://x.example #d @e!"
        offsets = []
        at = 0
        for surface, _ in tokens(text):
            at = text.index(surface, at)
            offsets.append(at)
            at += len(surface)
        assert offsets == sorted(set(offsets))

    def test_deterministic(self):
        text = "Acme Closed 12 stores!! #acme https://a.example/x"
        assert _scan(text) == _scan(text)


class TestTagPos:
    def test_verb_from_shipped_lexicon(self, tagger):
        assert [tag for _, tag in tagged(tagger, "the men arrested")] == [OTHER, OTHER, VERB]

    def test_gazetteer_overrides_sentence_initial_rule(self, tagger):
        assert tagged(tagger, "Starbucks")[0][1] == PROPER_NOUN

    def test_empty_tokens(self, tagger):
        assert tagger.tag_lists([], [], []) == []

    def test_capitalized_mid_sentence_is_proper_noun(self, tagger):
        tags = dict(tagged(tagger, "we visited Ripley yesterday"))
        assert tags["Ripley"] == PROPER_NOUN

    def test_sentence_initial_capital_is_not_proper_noun(self):
        tags = dict(tagged(RuleTagger(gazetteer=()), "Ripley was there. Kestrel too"))
        # both words open a sentence, so the capitalization rule must not fire
        assert tags["Ripley"] == OTHER
        assert tags["Kestrel"] == OTHER

    def test_all_caps_is_not_proper_noun(self, tagger):
        tags = dict(tagged(tagger, "this is URGENT news"))
        assert tags["URGENT"] == OTHER

    def test_multiword_gazetteer_phrase(self, tagger):
        tags = dict(tagged(tagger, "protest in new york today"))
        assert tags["new"] == PROPER_NOUN and tags["york"] == PROPER_NOUN


class TestMergeProperNouns:
    @staticmethod
    def _phrases(spec):
        return _proper_noun_phrases([surface for surface, _ in spec], [tag for _, tag in spec])

    def test_adjacent_run_merges(self):
        spec = [("Rittenhouse", PROPER_NOUN), ("Square", PROPER_NOUN), ("Starbucks", PROPER_NOUN)]
        assert self._phrases(spec) == ["rittenhouse square starbucks"]

    def test_runs_broken_by_other_tags(self):
        spec = [("Starbucks", PROPER_NOUN), ("closed", VERB), ("Philly", PROPER_NOUN)]
        assert self._phrases(spec) == ["starbucks", "philly"]

    def test_empty(self):
        assert self._phrases([]) == []

    def test_phrase_words_are_consecutive_in_input(self):
        # Randomized check of the structural property: every output phrase is
        # a run of consecutive proper-noun inputs, and phrase count never
        # exceeds the proper-noun count.
        rng = random.Random(99)
        for _ in range(200):
            spec = []
            for i in range(rng.randrange(0, 12)):
                tag = rng.choice([PROPER_NOUN, VERB, OTHER])
                spec.append((f"w{i}", tag))
            phrases = self._phrases(spec)
            pn_count = sum(1 for _, tag in spec if tag == PROPER_NOUN)
            assert len(phrases) <= pn_count or pn_count == 0
            flattened = [w for p in phrases for w in p.split()]
            expected = [s.lower() for s, tag in spec if tag == PROPER_NOUN]
            assert flattened == expected


class TestExtract5wTerms:
    def test_arrest_fixture(self, extractor):
        tweet = make_tweet(text="Two black men arrested at Starbucks Philadelphia")
        terms = extractor.vector(tweet).terms
        assert terms["arrested"] >= 1
        assert terms["starbucks philadelphia"] >= 1

    def test_stopword_only_text_gives_nothing(self, extractor):
        assert extractor.vector(make_tweet(text="the of and but")) is None

    def test_hashtag_field_included(self, extractor):
        tweet = make_tweet(text="nothing to see", hashtags=["boycottstarbucks"])
        assert extractor.vector(tweet).terms["boycottstarbucks"] == 1

    def test_hashtags_never_stopword_filtered(self, extractor):
        assert extractor.vector(make_tweet(text="ignore #the tag")).terms["the"] == 1

    def test_case_insensitive_for_gazetteer_and_hashtags(self, extractor):
        # Entities covered by the gazetteer (and hashtag/verb channels) are
        # case-folded, so shouting the same text changes nothing.
        text = "i love Starbucks in philadelphia #BoycottNow"
        lower = extractor.vector(make_tweet(text=text)).terms
        upper = extractor.vector(make_tweet(text=text.upper())).terms
        assert lower == upper
        assert lower["starbucks"] == 1 and lower["philadelphia"] == 1

    def test_purity(self, extractor):
        tweet = make_tweet(text="Acme Closed the Riverside store #acme")
        assert extractor.vector(tweet) == extractor.vector(tweet)


class TestScoreSentiment:
    def test_no_matches_scores_zero(self, lexicon):
        assert score("completely unrelated words", lexicon) == 0.0

    def test_single_strong_negative(self, lexicon):
        assert score("terrible", lexicon) == -2.0

    def test_negation_flips_shipped_valence(self, lexicon):
        # "good" ships at +1.0 and "not" is a shipped negator.
        assert lexicon.entries["good"] == 1.0
        assert score("not good", lexicon) == -1.0

    def test_negator_window_is_three_tokens(self, lexicon):
        assert score("not really that good", lexicon) < 0
        assert score("not a b c d good", lexicon) > 0

    def test_intensifier_scales(self, lexicon):
        assert score("very good", lexicon) == pytest.approx(1.5)

    def test_clamped_to_range(self, lexicon):
        # extremely (x2.0) * terrible (-2.0) would be -4 before the clamp
        assert score("extremely terrible", lexicon) == -2.0

    def test_bounds_over_random_token_streams(self, lexicon):
        rng = random.Random(7)
        vocabulary = (
            list(lexicon.entries)
            + list(lexicon.negators)
            + list(lexicon.intensifiers)
            + ["filler", "words", "zzz", "#tag", "@user"]
        )
        for _ in range(500):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 12)))
            assert -2.0 <= score(text, lexicon) <= 2.0


class TestLexiconLoading:
    def test_shipped_lexicon_within_bounds(self, lexicon):
        assert lexicon.entries
        assert all(-2.0 <= v <= 2.0 for v in lexicon.entries.values())
        assert all(m > 0 for m in lexicon.intensifiers.values())

    def test_out_of_range_valence_rejected(self, tmp_path):
        bad = tmp_path / "lex.txt"
        bad.write_text("doom\t-3.5\n")
        with pytest.raises(ValueError):
            SentimentLexicon.load(bad)

    def test_custom_file_sections(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("fab\t1.5\n[negators]\nnope\n[intensifiers]\nmega\t2.0\n")
        lex = SentimentLexicon.load(path)
        assert lex.entries == {"fab": 1.5}
        assert "nope" in lex.negators
        assert lex.intensifiers["mega"] == 2.0


class TestBuildTweetVector:
    def test_assembles_terms_sentiment_links(self, extractor):
        tweet = make_tweet(
            text="Acme Riverside arrested staff, terrible",
            urls=["https://NYTimes.com/story#frag"],
        )
        vec = extractor.vector(tweet)
        assert vec is not None
        assert vec.links == frozenset({"https://nytimes.com/story"})
        assert vec.sentiment == -2.0
        assert vec.day == tweet.creation_time.date()
        assert vec.terms["arrested"] == 1

    def test_stopword_only_tweet_is_discarded(self, extractor):
        assert extractor.vector(make_tweet(text="the of and")) is None

    def test_duplicate_text_gives_identical_vector_except_id(self, extractor):
        a = make_tweet(posting_id="a", text="Acme Riverside outrage #acme")
        b = make_tweet(posting_id="b", text="Acme Riverside outrage #acme")
        va = extractor.vector(a)
        vb = extractor.vector(b)
        assert va.terms == vb.terms
        assert va.sentiment == vb.sentiment
        assert va.links == vb.links
        assert va.tweet_id != vb.tweet_id

    def test_unnormalizable_urls_skipped(self, extractor):
        tweet = make_tweet(text="Acme Riverside news", urls=["ftp://files.example/x"])
        assert extractor.vector(tweet).links == frozenset()

    def test_record_contract(self, extractor):
        assert list(inspect.signature(TweetVector).parameters) == [
            "tweet_id", "timestamp", "terms", "sentiment", "links", "day"]
        vec = extractor.vector(make_tweet(text="#zed so Acme arrested #acme #zed", hashtags=["b"]))
        # Terms count in the order they first came up: names, verbs, hashtags.
        assert list(vec.terms.items()) == [("acme", 2), ("arrested", 1), ("zed", 2), ("b", 1)]
        for name in inspect.signature(TweetVector).parameters:
            with pytest.raises(AttributeError):
                setattr(vec, name, None)


class TestCustomTagger:
    def test_minimal_tagger_runs_through_extractor(self, lexicon, stopwords):
        class SuffixTagger:
            """The whole tagger contract: capitalized words are names, -ed
            words are verbs whose lemma drops the suffix."""

            def tag_lists(self, surfaces, kinds, words):
                return [
                    OTHER if w is None else PROPER_NOUN if s[0].isupper()
                    else VERB if w.endswith("ed") else OTHER
                    for s, w in zip(surfaces, words)
                ]

            def verb_lemma(self, surface):
                return surface.lower()[:-2]

        fx = FeatureExtractor(lexicon=lexicon, tagger=SuffixTagger(), stopwords=stopwords)
        vec = fx.vector(make_tweet(text="Acme closed the Riverside Plant, terrible #acme"))
        assert vec.terms == Counter({"acme": 2, "clos": 1, "riverside plant": 1})
        assert vec.sentiment == -2.0


class TestLemmaCache:
    def test_bounded_cache_gives_same_lemmas(self, tagger, monkeypatch):
        from outcry import features
        words = ["arrested", "Closing", "zzz", "studies", "arrested", "ZZZ", "closes"]
        expected = [tagger.verb_lemma(w) for w in words]
        assert expected[0] is not None and expected[2] is None
        monkeypatch.setattr(features, "LEMMA_CACHE_SIZE", 2)
        small = RuleTagger()
        assert [small.verb_lemma(w) for w in words] == expected
        assert len(small._lemmas) <= 2

    def test_word_too_long_to_be_a_verb_is_not_cached(self):
        fx = FeatureExtractor()
        longest_verb = max(map(len, fx.tagger.verbs))
        fx.vector(make_tweet(text="Acme " + "a" * 1_000_000 + " arrested"))
        assert max(map(len, fx.tagger._lemmas)) <= longest_verb + 4
        assert "arrested" in fx.tagger._lemmas

    def test_longest_word_that_can_be_a_verb_is_still_stripped(self):
        # stopp(ing) drops four characters, the most any suffix rule drops
        tagger = RuleTagger(verbs=frozenset({"stop"}), gazetteer=())
        assert tagger.verb_lemma("stopping") == "stop"
        assert tagger.verb_lemma("stoppingx") is None
        assert list(tagger._lemmas) == ["stopping"]

    def test_empty_verb_list_caches_nothing(self):
        tagger = RuleTagger(verbs=frozenset(), gazetteer=())
        assert tagger.verb_lemma("arrested") is None
        assert tagger._lemmas == {}
