import random
from collections import Counter

import pytest

from outcry import (
    FeatureExtractor,
    RuleTagger,
    SentimentLexicon,
    build_tweet_vector,
    extract_5w_terms,
    merge_proper_nouns,
    score_sentiment,
    tag_pos,
    tokenize,
)
from outcry.features import HASHTAG, OTHER, PROPER_NOUN, PUNCT, Token, URL, VERB, WORD

from conftest import make_tweet


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_hashtag_and_punctuation(self):
        tokens = tokenize("Boycott #Starbucks now!")
        assert [(t.surface, t.kind) for t in tokens] == [
            ("Boycott", WORD),
            ("#Starbucks", HASHTAG),
            ("now", WORD),
            ("!", PUNCT),
        ]

    def test_url_stays_single_token(self):
        tokens = tokenize("see https://nyti.ms/x")
        assert [(t.surface, t.kind) for t in tokens] == [
            ("see", WORD),
            ("https://nyti.ms/x", URL),
        ]

    def test_mentions_and_apostrophes(self):
        tokens = tokenize("@acme don't do that")
        assert tokens[0].kind == "mention"
        assert tokens[1].surface == "don't"

    def test_positions_strictly_increasing(self):
        tokens = tokenize("a b, c https://x.example #d @e!")
        positions = [t.position for t in tokens]
        assert positions == sorted(set(positions))

    def test_deterministic(self):
        text = "Acme Closed 12 stores!! #acme https://a.example/x"
        assert tokenize(text) == tokenize(text)


class TestTagPos:
    def test_verb_from_shipped_lexicon(self, tagger):
        tagged = tag_pos(tokenize("the men arrested"), tagger)
        assert [tag for _, tag in tagged] == [OTHER, OTHER, VERB]

    def test_gazetteer_overrides_sentence_initial_rule(self, tagger):
        tagged = tag_pos(tokenize("Starbucks"), tagger)
        assert tagged[0][1] == PROPER_NOUN

    def test_empty_tokens(self, tagger):
        assert tag_pos([], tagger) == []

    def test_capitalized_mid_sentence_is_proper_noun(self, tagger):
        tagged = tag_pos(tokenize("we visited Ripley yesterday"), tagger)
        tags = {t.surface: tag for t, tag in tagged}
        assert tags["Ripley"] == PROPER_NOUN

    def test_sentence_initial_capital_is_not_proper_noun(self, tagger):
        tagged = tag_pos(tokenize("Ripley was there. Kestrel too"), tagged_gazless(tagger))
        tags = {t.surface: tag for t, tag in tagged}
        # both words open a sentence, so the capitalization rule must not fire
        assert tags["Ripley"] == OTHER
        assert tags["Kestrel"] == OTHER

    def test_all_caps_is_not_proper_noun(self, tagger):
        tagged = tag_pos(tokenize("this is URGENT news"), tagger)
        tags = {t.surface: tag for t, tag in tagged}
        assert tags["URGENT"] == OTHER

    def test_multiword_gazetteer_phrase(self, tagger):
        tagged = tag_pos(tokenize("protest in new york today"), tagger)
        tags = {t.surface: tag for t, tag in tagged}
        assert tags["new"] == PROPER_NOUN and tags["york"] == PROPER_NOUN


def tagged_gazless(_tagger):
    return RuleTagger(gazetteer=())


class TestMergeProperNouns:
    def _tagged(self, spec):
        return [(Token(surface, i, WORD), tag) for i, (surface, tag) in enumerate(spec)]

    def test_adjacent_run_merges(self):
        tagged = self._tagged([
            ("Rittenhouse", PROPER_NOUN), ("Square", PROPER_NOUN), ("Starbucks", PROPER_NOUN),
        ])
        assert merge_proper_nouns(tagged) == ["rittenhouse square starbucks"]

    def test_runs_broken_by_other_tags(self):
        tagged = self._tagged([
            ("Starbucks", PROPER_NOUN), ("closed", VERB), ("Philly", PROPER_NOUN),
        ])
        assert merge_proper_nouns(tagged) == ["starbucks", "philly"]

    def test_empty(self):
        assert merge_proper_nouns([]) == []

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
            tagged = self._tagged(spec)
            phrases = merge_proper_nouns(tagged)
            pn_count = sum(1 for _, tag in spec if tag == PROPER_NOUN)
            assert len(phrases) <= pn_count or pn_count == 0
            flattened = [w for p in phrases for w in p.split()]
            expected = [s.lower() for s, tag in spec if tag == PROPER_NOUN]
            assert flattened == expected


class TestExtract5wTerms:
    def test_arrest_fixture(self, tagger, stopwords):
        tweet = make_tweet(text="Two black men arrested at Starbucks Philadelphia")
        terms = extract_5w_terms(tweet, tagger, stopwords)
        assert terms["arrested"] >= 1
        assert terms["starbucks philadelphia"] >= 1

    def test_stopword_only_text_gives_nothing(self, tagger, stopwords):
        tweet = make_tweet(text="the of and but")
        assert extract_5w_terms(tweet, tagger, stopwords) == Counter()

    def test_hashtag_field_included(self, tagger, stopwords):
        tweet = make_tweet(text="nothing to see", hashtags=["boycottstarbucks"])
        terms = extract_5w_terms(tweet, tagger, stopwords)
        assert terms["boycottstarbucks"] == 1

    def test_hashtags_never_stopword_filtered(self, tagger, stopwords):
        tweet = make_tweet(text="ignore #the tag")
        terms = extract_5w_terms(tweet, tagger, stopwords)
        assert terms["the"] == 1

    def test_case_insensitive_for_gazetteer_and_hashtags(self, tagger, stopwords):
        # Entities covered by the gazetteer (and hashtag/verb channels) are
        # case-folded, so shouting the same text changes nothing.
        text = "i love Starbucks in philadelphia #BoycottNow"
        lower = extract_5w_terms(make_tweet(text=text), tagger, stopwords)
        upper = extract_5w_terms(make_tweet(text=text.upper()), tagger, stopwords)
        assert lower == upper
        assert lower["starbucks"] == 1 and lower["philadelphia"] == 1

    def test_purity(self, tagger, stopwords):
        tweet = make_tweet(text="Acme Closed the Riverside store #acme")
        assert extract_5w_terms(tweet, tagger, stopwords) == extract_5w_terms(
            tweet, tagger, stopwords)


class TestScoreSentiment:
    def test_no_matches_scores_zero(self, lexicon):
        assert score_sentiment(tokenize("completely unrelated words"), lexicon) == 0.0

    def test_single_strong_negative(self, lexicon):
        assert score_sentiment(tokenize("terrible"), lexicon) == -2.0

    def test_negation_flips_shipped_valence(self, lexicon):
        # "good" ships at +1.0 and "not" is a shipped negator.
        assert lexicon.entries["good"] == 1.0
        assert score_sentiment(tokenize("not good"), lexicon) == -1.0

    def test_negator_window_is_three_tokens(self, lexicon):
        assert score_sentiment(tokenize("not really that good"), lexicon) < 0
        assert score_sentiment(tokenize("not a b c d good"), lexicon) > 0

    def test_intensifier_scales(self, lexicon):
        assert score_sentiment(tokenize("very good"), lexicon) == pytest.approx(1.5)

    def test_clamped_to_range(self, lexicon):
        # extremely (x2.0) * terrible (-2.0) would be -4 before the clamp
        assert score_sentiment(tokenize("extremely terrible"), lexicon) == -2.0

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
            score = score_sentiment(tokenize(text), lexicon)
            assert -2.0 <= score <= 2.0


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
    def test_assembles_terms_sentiment_links(self, lexicon, tagger, stopwords):
        tweet = make_tweet(
            text="Acme Riverside arrested staff, terrible",
            urls=["https://NYTimes.com/story#frag"],
        )
        vec = build_tweet_vector(tweet, lexicon, tagger=tagger, stopwords=stopwords)
        assert vec is not None
        assert vec.links == frozenset({"https://nytimes.com/story"})
        assert vec.sentiment == -2.0
        assert vec.day == tweet.creation_time.date()
        assert vec.terms["arrested"] == 1

    def test_stopword_only_tweet_is_discarded(self, lexicon, tagger, stopwords):
        tweet = make_tweet(text="the of and")
        assert build_tweet_vector(tweet, lexicon, tagger=tagger, stopwords=stopwords) is None

    def test_duplicate_text_gives_identical_vector_except_id(self, lexicon, tagger, stopwords):
        a = make_tweet(posting_id="a", text="Acme Riverside outrage #acme")
        b = make_tweet(posting_id="b", text="Acme Riverside outrage #acme")
        va = build_tweet_vector(a, lexicon, tagger=tagger, stopwords=stopwords)
        vb = build_tweet_vector(b, lexicon, tagger=tagger, stopwords=stopwords)
        assert va.terms == vb.terms
        assert va.sentiment == vb.sentiment
        assert va.links == vb.links
        assert va.tweet_id != vb.tweet_id

    def test_unnormalizable_urls_skipped(self, lexicon, tagger, stopwords):
        tweet = make_tweet(text="Acme Riverside news", urls=["ftp://files.example/x"])
        vec = build_tweet_vector(tweet, lexicon, tagger=tagger, stopwords=stopwords)
        assert vec.links == frozenset()


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
