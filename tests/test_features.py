import inspect
import random
from datetime import timedelta

import pytest

from outcry import FeatureExtractor, RuleTagger, SentimentLexicon, TweetVector
from outcry.features import HASHTAG, PUNCT, URL, WORD, _sentiment

from conftest import BASE_TIME, make_tweet, scan


def tokens(text):
    surfaces, kinds = scan(text)[:2]
    return list(zip(surfaces, kinds))


def terms(extractor, text):
    """The text's 5W terms and counts, in the order they first came up."""
    vec = extractor.vector(make_tweet(text=text))
    return {} if vec is None else dict(vec.terms)


def score(text, lexicon):
    return _sentiment(scan(text)[2], lexicon)


class TestTokenize:
    def test_empty_text(self):
        assert scan("") == ([], [], [], [], [])

    def test_hashtag_and_punctuation(self):
        assert tokens("Boycott #Starbucks now!") == [
            ("Boycott", WORD),
            ("#Starbucks", HASHTAG),
            ("now", WORD),
            ("!", PUNCT),
        ]
        assert scan("Boycott #Starbucks now!")[3] == ["starbucks"]

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
        assert scan(text) == scan(text)


class TestTagPos:
    def test_verb_from_shipped_lexicon(self, extractor):
        assert terms(extractor, "the men arrested") == {"arrested": 1}

    def test_gazetteer_overrides_sentence_initial_rule(self, extractor):
        assert terms(extractor, "Starbucks") == {"starbucks": 1}

    def test_empty_tokens(self, extractor):
        assert terms(extractor, "") == {}

    def test_capitalized_mid_sentence_is_proper_noun(self, extractor):
        assert terms(extractor, "we visited Ripley yesterday") == {"ripley": 1}

    def test_sentence_initial_capital_is_not_proper_noun(self, lexicon, stopwords):
        fx = FeatureExtractor(lexicon=lexicon, tagger=RuleTagger(gazetteer=()),
                              stopwords=stopwords)
        # both words open a sentence, so the capitalization rule must not fire
        assert terms(fx, "Ripley was there. Kestrel too") == {}
        assert terms(fx, "so Ripley was there. Kestrel too") == {"ripley": 1}

    def test_all_caps_is_not_proper_noun(self, extractor):
        assert terms(extractor, "this is URGENT news") == {}

    def test_multiword_gazetteer_phrase(self, extractor):
        assert terms(extractor, "protest in new york today") == {"new york": 1, "protest": 1}

    def test_gazetteer_word_is_never_a_verb(self, lexicon, stopwords):
        fx = FeatureExtractor(lexicon=lexicon, stopwords=stopwords,
                              tagger=RuleTagger(gazetteer=[("protest", "march")]))
        assert terms(fx, "a protest march and a protest") == {"protest march": 1, "protest": 1}


class TestOverlappingGazetteer:
    @pytest.fixture(scope="class")
    def fx(self, lexicon, stopwords):
        gazetteer = [("new", "york", "city"), ("york", "city", "hall"), ("york",),
                     ("square", "garden", "party"), ("madison", "square")]
        return FeatureExtractor(lexicon=lexicon, stopwords=stopwords,
                                tagger=RuleTagger(gazetteer=gazetteer))

    def test_phrase_starting_inside_a_match_extends_it(self, fx):
        # "york city hall" starts inside "new york city" and ends past it
        assert terms(fx, "at new york city hall today") == {"new york city hall": 1}

    def test_chain_of_overlaps(self, fx):
        assert terms(fx, "at madison square garden party") == {"madison square garden party": 1}

    def test_phrase_inside_a_match_does_not_end_it(self, fx):
        # "york" alone ends before "new york city" does
        assert terms(fx, "so new york city at night") == {"new york city": 1}

    def test_unmatched_tail_stays_out(self, fx):
        assert terms(fx, "at york city today") == {"york": 1}


class TestMergeProperNouns:
    def test_adjacent_run_merges(self, extractor):
        assert terms(extractor, "at Rittenhouse Square Starbucks") == {
            "rittenhouse square starbucks": 1}

    def test_runs_broken_by_other_tags(self, extractor):
        # a verb, punctuation, a hashtag or a mention ends a run; phrases
        # come first, then verb lemmas, then hashtags
        assert terms(extractor, "at Starbucks arrested Philly, Boston #x Ripley @y Kestrel") == {
            "starbucks": 1, "philly": 1, "boston": 1, "ripley": 1, "kestrel": 1,
            "arrested": 1, "x": 1}

    def test_empty(self, extractor):
        assert terms(extractor, "at the of") == {}

    def test_phrase_words_are_consecutive_in_input(self, lexicon):
        # Randomized check: with no gazetteer and one verb, the phrase terms
        # are the maximal runs of capitalized words, in order, and the verb
        # adds its lemma after them.
        fx = FeatureExtractor(lexicon=lexicon, stopwords=frozenset(),
                              tagger=RuleTagger(verbs=frozenset({"zap"}), gazetteer=()))
        rng = random.Random(99)
        for _ in range(200):
            words = [rng.choice(["Alpha", "Bravo", "Cedar", "x", "zapped", ","])
                     for _ in range(rng.randrange(0, 12))]
            expected: dict[str, int] = {}
            run = []
            for word in words + ["."]:
                if word[0].isupper():
                    run.append(word.lower())
                elif run:
                    phrase = " ".join(run)
                    expected[phrase] = expected.get(phrase, 0) + 1
                    run = []
            if "zapped" in words:
                expected["zap"] = words.count("zapped")
            assert terms(fx, "so " + " ".join(words)) == expected


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

    def test_intensifiers_in_the_window_multiply(self, lexicon):
        # so (x1.3) and very (x1.5) both scale "good" (+1.0)
        assert score("so very good", lexicon) == pytest.approx(1.95)

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

    def test_vectors_of_one_day_share_its_date_object(self, lexicon, tagger, stopwords):
        fx = FeatureExtractor(lexicon=lexicon, tagger=tagger, stopwords=stopwords)
        days = [fx.vector(make_tweet(text="Acme arrested", ts=BASE_TIME + timedelta(hours=h))).day
                for h in (0, 6, 24, 30)]
        assert days[0] is days[1] and days[2] is days[3]
        assert days[2] == days[0] + timedelta(days=1)

    def test_record_contract(self, extractor):
        assert list(inspect.signature(TweetVector).parameters) == [
            "tweet_id", "timestamp", "terms", "sentiment", "links", "day"]
        vec = extractor.vector(make_tweet(text="#zed so Acme arrested #acme #zed", hashtags=["b"]))
        # Terms count in the order they first came up: names, verbs, hashtags.
        assert list(vec.terms.items()) == [("acme", 2), ("arrested", 1), ("zed", 2), ("b", 1)]
        for name in inspect.signature(TweetVector).parameters:
            with pytest.raises(AttributeError):
                setattr(vec, name, None)


class TestLemmaCache:
    def test_bounded_cache_gives_same_lemmas(self, monkeypatch):
        from outcry import features
        text = "arrested closing zzz studies arrested zzz closes"
        expected = scan(text)[4]
        assert expected[0] is not None and expected[2] is None
        monkeypatch.setattr(features, "CHUNK_CACHE_TOKENS", 2)
        small = RuleTagger()
        assert small._scan(text)[4] == expected
        assert sum(map(len, small._chunks.values())) <= 2

    def test_word_too_long_to_be_a_verb_is_not_cached(self):
        from outcry.features import CHUNK_MAX_LEN
        fx = FeatureExtractor()
        fx.vector(make_tweet(text="Acme " + "a" * 1_000_000 + " arrested"))
        assert max(map(len, fx.tagger._chunks)) <= CHUNK_MAX_LEN
        assert "arrested" in fx.tagger._chunks

    def test_longest_word_that_can_be_a_verb_is_still_stripped(self):
        # stopp(ing) drops four characters, the most any suffix rule drops
        tagger = RuleTagger(verbs=frozenset({"stop"}), gazetteer=())
        assert tagger.verb_lemma("stopping") == "stop"
        assert tagger.verb_lemma("stoppingx") is None
        assert tagger._scan("stopping stoppingx")[4] == ["stop", None]

    def test_empty_verb_list_caches_nothing(self):
        tagger = RuleTagger(verbs=frozenset(), gazetteer=())
        assert tagger.verb_lemma("arrested") is None
        assert tagger._scan("arrested")[4] == [None]

    def test_taggers_keep_their_own_lemmas(self, lexicon, stopwords):
        # Two verb lists fed the same text in turn: each tagger's memo holds
        # its own lemmas, so neither sees the other's.
        arrest, none = (FeatureExtractor(lexicon=lexicon, stopwords=stopwords,
                                         tagger=RuleTagger(verbs=verbs, gazetteer=()))
                        for verbs in (frozenset({"arrest"}), frozenset()))
        tweet = make_tweet(text="police arrested the man #acme")
        for _ in range(2):
            assert dict(arrest.vector(tweet).terms) == {"arrest": 1, "acme": 1}
            assert dict(none.vector(tweet).terms) == {"acme": 1}
