import http.client
import urllib.error
import urllib.request
from email.message import Message
from urllib.parse import urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outcry import (
    AllowList,
    BadUrl,
    EventCluster,
    NetworkRedirectResolver,
    RedirectCycle,
    RedirectMap,
    RunConfig,
    is_credible,
    normalize_url,
    unique_credible_links,
)

from outcry.pipeline import build_extractor

from conftest import make_tweet, make_vector


class TestNormalizeUrl:
    def test_case_fold_and_fragment_strip(self):
        assert normalize_url("https://NYTimes.com/a#x") == "https://nytimes.com/a"

    def test_single_hop_redirect(self):
        redirects = RedirectMap({"https://sho.rt/x": "https://nytimes.com/article"})
        assert normalize_url("https://sho.rt/x", redirects) == "https://nytimes.com/article"

    def test_transitive_redirects(self):
        redirects = RedirectMap({
            "https://a.example/1": "https://b.example/2",
            "https://b.example/2": "https://c.example/3",
        })
        assert normalize_url("https://a.example/1", redirects) == "https://c.example/3"

    def test_cycle_detected(self):
        redirects = RedirectMap({
            "https://a.example/": "https://b.example/",
            "https://b.example/": "https://a.example/",
        })
        with pytest.raises(RedirectCycle):
            normalize_url("https://a.example/", redirects)

    def test_hop_limit(self):
        mapping = {
            f"https://hop.example/{i}": f"https://hop.example/{i + 1}"
            for i in range(30)
        }
        with pytest.raises(RedirectCycle):
            normalize_url("https://hop.example/0", RedirectMap(mapping))

    def test_tracking_params_stripped_other_params_kept(self):
        url = "https://news.example/a?utm_source=tw&id=2&utm_campaign=x"
        assert normalize_url(url) == "https://news.example/a?id=2"

    def test_rejects_non_http(self):
        with pytest.raises(BadUrl):
            normalize_url("ftp://files.example/x")
        with pytest.raises(BadUrl):
            normalize_url("not a url")

    def test_idempotent(self):
        redirects = RedirectMap({"https://sho.rt/x": "https://News.example/A?utm_ref=1#frag"})
        cases = [
            "https://sho.rt/x",
            "https://NYTimes.com/a#x",
            "https://news.example/a?utm_source=tw&id=2",
            "https://plain.example/path",
        ]
        for raw in cases:
            once = normalize_url(raw, redirects)
            assert normalize_url(once, redirects) == once


class TestIsCredible:
    def test_listed_domain(self, allowlist):
        assert is_credible("https://nytimes.com/article", allowlist)

    def test_unlisted_domain(self, allowlist):
        assert not is_credible("https://randomblog.example/post", allowlist)

    def test_subdomain_of_entry(self, allowlist):
        assert is_credible("https://www.npr.org/x", allowlist)

    def test_lookalike_suffix_rejected(self, allowlist):
        assert not is_credible("https://nytimes.com.evil.example/x", allowlist)

    @pytest.mark.parametrize("url, expected", [
        ("https://npr.org/x", True),
        ("https://a.b.npr.org/x", True),
        ("https://notnpr.org/x", False),
        ("https://npr.org.evil.example/x", False),
        ("https://NPR.ORG:8080/x", True),
        ("https://user@www.npr.org/x", True),
        ("https://org/x", False),
        ("https://a..npr.org/x", True),
        ("https://npr.org./x", False),
        ("not a url", False),
    ])
    def test_label_suffix_lookup_equals_linear_rule(self, url, expected):
        allowlist = AllowList(frozenset({"npr.org", "nytimes.com"}))
        host = (urlparse(url).hostname or "").lower()
        linear = bool(host) and any(host == entry or host.endswith("." + entry)
                                    for entry in allowlist.domains)
        assert is_credible(url, allowlist) is expected is linear

    def test_monotone_in_allowlist(self):
        small = AllowList(frozenset({"npr.org"}))
        grown = AllowList(frozenset({"npr.org", "extra.example"}))
        urls = [
            "https://npr.org/a",
            "https://www.npr.org/b",
            "https://other.example/c",
            "https://extra.example/d",
        ]
        for url in urls:
            if is_credible(url, small):
                assert is_credible(url, grown)

    def test_allowlist_rejects_non_bare_entries(self):
        with pytest.raises(ValueError):
            AllowList(frozenset({"https://nytimes.com"}))
        with pytest.raises(ValueError):
            AllowList(frozenset())


class TestUniqueCredibleLinks:
    def test_no_links(self, allowlist):
        assert unique_credible_links(frozenset(), allowlist) == 0

    def test_same_article_many_times_counts_once(self, allowlist):
        links = {"https://nytimes.com/story"}  # cluster links are already a set
        assert unique_credible_links(links, allowlist) == 1

    def test_mixed_links(self, allowlist):
        links = {
            "https://nytimes.com/a",
            "https://npr.org/b",
            "https://blog1.example/x",
            "https://blog2.example/y",
            "https://blog3.example/z",
        }
        assert unique_credible_links(links, allowlist) == 2

    def test_order_and_duplicate_insensitive(self, allowlist):
        links = ["https://nytimes.com/a", "https://npr.org/b", "https://nytimes.com/a"]
        assert unique_credible_links(links, allowlist) == 2
        assert unique_credible_links(reversed(links), allowlist) == 2

    def test_accepts_cluster_like_objects(self, allowlist):
        # a cluster's links are counted the same way as any other links
        cluster = EventCluster(1, make_vector(
            "a", {"x": 1}, links={"https://nytimes.com/a", "https://junk.example/b"}))
        assert unique_credible_links(cluster.links, allowlist) == 1


class _FakeResponse:
    def close(self):
        pass


class _FakeOpener:
    """Redirect graph lookup standing in for HTTP; records each HEAD."""

    def __init__(self, hops, code=302):
        self.hops = hops
        self.code = code
        self.asked = []

    def open(self, request, timeout=None):
        assert request.get_method() == "HEAD"
        self.asked.append(request.full_url)
        target = self.hops.get(request.full_url)
        if target is None:
            return _FakeResponse()
        headers = Message()
        headers["Location"] = target
        raise urllib.error.HTTPError(request.full_url, self.code, "Moved", headers, None)


class _Exploding:
    def __init__(self, error=OSError("network down")):
        self.error = error

    def open(self, request, timeout=None):
        raise self.error


def _resolve(hops, *urls):
    """(normalized urls, HEAD requests sent) for ``urls`` asked in turn of
    one resolver over the redirect graph ``hops``."""
    opener = _FakeOpener(hops)
    resolver = NetworkRedirectResolver(opener=opener)
    return [normalize_url(url, resolver) for url in urls], opener.asked


class TestNetworkResolver:
    def test_follows_redirect_chain(self):
        resolver = NetworkRedirectResolver(opener=_FakeOpener({
            "https://sho.rt/a": "https://mid.example/b",
            "https://mid.example/b": "https://news.example/story",
        }))
        assert normalize_url("https://sho.rt/a", resolver) == "https://news.example/story"

    def test_cycle_raises(self):
        resolver = NetworkRedirectResolver(opener=_FakeOpener({
            "https://a.example/": "https://b.example/",
            "https://b.example/": "https://a.example/",
        }))
        with pytest.raises(RedirectCycle):
            normalize_url("https://a.example/", resolver)

    def test_live_redirects_plug_into_normalize_url(self):
        opener = _FakeOpener({"https://sho.rt/a": "https://News.example/Story#frag"})
        resolver = NetworkRedirectResolver(opener=opener)
        assert normalize_url("https://sho.rt/a", resolver) == "https://news.example/Story"
        sent = len(opener.asked)
        # asking again is answered from the cache, not another round-trip
        assert normalize_url("https://sho.rt/a", resolver) == "https://news.example/Story"
        assert len(opener.asked) == sent

    def test_live_redirects_degrade_on_failure(self):
        resolver = NetworkRedirectResolver(opener=_Exploding())
        assert normalize_url("https://plain.example/x", resolver) == "https://plain.example/x"

    @pytest.mark.parametrize("error", [
        urllib.error.URLError("refused"), TimeoutError("timed out"),
        http.client.BadStatusLine("garbage"), http.client.IncompleteRead(b""),
        ValueError("bad header"),
    ], ids=lambda error: type(error).__name__)
    def test_any_failure_is_no_redirect(self, error):
        resolver = NetworkRedirectResolver(opener=_Exploding(error))
        assert normalize_url("https://sho.rt/a#x", resolver) == "https://sho.rt/a"

    @pytest.mark.parametrize("hops, url, asked", [
        ({"https://sho.rt/a": "https://news.example/story"}, "https://sho.rt/a",
         ["https://sho.rt/a", "https://news.example/story"]),
        ({"https://sho.rt/a": "https://mid.example/b",
          "https://mid.example/b": "https://news.example/story"}, "https://sho.rt/a",
         ["https://sho.rt/a", "https://mid.example/b", "https://news.example/story"]),
        ({"https://sho.rt/a": "https://News.example/Story#frag"}, "https://sho.rt/a",
         ["https://sho.rt/a", "https://news.example/Story"]),
        ({}, "https://News.example/a?utm_source=tw&id=2#top", ["https://news.example/a?id=2"]),
    ], ids=["one-hop", "two-hop", "one-hop-to-non-canonical", "plain-with-utm"])
    def test_one_head_per_distinct_canonical_url(self, hops, url, asked):
        (final,), sent = _resolve(hops, url)
        assert sent == asked
        finals, sent = _resolve(hops, url, url)
        assert finals == [final, final]
        assert sent == asked  # a URL asked a second time sends nothing

    def test_url_and_its_canonical_form_share_one_request(self):
        urls = ["https://Sho.rt/a?utm_medium=x#f", "https://sho.rt/a", "https://news.example/story"]
        finals, sent = _resolve({"https://sho.rt/a": "https://news.example/story"}, *urls)
        assert finals == ["https://news.example/story"] * 3
        assert sent == ["https://sho.rt/a", "https://news.example/story"]

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_relative_location_is_joined_to_the_url_asked(self, code):
        opener = _FakeOpener({"https://www.reuters.com/a": "/business/a-story"}, code=code)
        resolver = NetworkRedirectResolver(opener=opener)
        assert (normalize_url("https://www.reuters.com/a", resolver)
                == "https://www.reuters.com/business/a-story")

    @pytest.mark.parametrize("code", [300, 304, 404, 500])
    def test_other_answers_are_no_redirect(self, code):
        opener = _FakeOpener({"https://sho.rt/a": "https://news.example/story"}, code=code)
        resolver = NetworkRedirectResolver(opener=opener)
        assert normalize_url("https://sho.rt/a", resolver) == "https://sho.rt/a"

    def test_relative_location_followed_through_the_pipeline(self, monkeypatch):
        opener = _FakeOpener({
            "https://sho.rt/a": "https://www.reuters.com/a",
            "https://www.reuters.com/a": "/business/a-story",
        }, code=301)
        monkeypatch.setattr(urllib.request, "build_opener", lambda *handlers: opener)
        extractor = build_extractor(RunConfig(resolver_mode="network"))
        vector = extractor.vector(make_tweet(text="AcmeCorp: Plant Fire", urls=["https://sho.rt/a"]))
        assert vector.links == {"https://www.reuters.com/business/a-story"}


def _chain(n, host="hop.example"):
    """A redirect chain of ``n`` hops ending at a page that answers."""
    return {f"https://{host}/{i}": f"https://{host}/{i + 1}" for i in range(n)}


def _outcome(raw, redirects):
    try:
        return normalize_url(raw, redirects)
    except (BadUrl, RedirectCycle) as exc:
        return type(exc)


class TestSameResultBothModes:
    """For one redirect graph the offline map and the network resolver give
    the same link, or raise the same exception."""

    @pytest.mark.parametrize("graph, raw", [
        ({"https://sho.rt/x": "https://News.example/A?utm_ref=1#frag"}, "https://sho.rt/x"),
        (_chain(3), "https://hop.example/0"),
        (_chain(10), "https://hop.example/0"),
        (_chain(11), "https://hop.example/0"),
        (_chain(30), "https://hop.example/0"),
        ({"https://a.example/": "https://b.example/", "https://b.example/": "https://a.example/"},
         "https://a.example/"),
        ({"https://a.example/": "https://a.example/"}, "https://a.example/"),
        ({"https://a.example/": "https://a.example/?utm_source=x#y"}, "https://a.example/"),
        ({"https://sho.rt/x": "ftp://files.example/x"}, "https://sho.rt/x"),
        ({}, "https://Plain.example/p?utm_source=tw&id=2"),
    ], ids=["one-hop", "chain-3", "chain-10", "chain-11", "chain-30", "cycle",
            "self-loop", "loop-through-utm", "bad-target", "plain"])
    def test_listed_graphs(self, graph, raw):
        network = NetworkRedirectResolver(opener=_FakeOpener(graph))
        assert _outcome(raw, network) == _outcome(raw, RedirectMap(graph))

    def test_chain_limit_is_ten_hops(self):
        ten = RedirectMap(_chain(10))
        assert normalize_url("https://hop.example/0", ten) == "https://hop.example/10"
        with pytest.raises(RedirectCycle):
            normalize_url("https://hop.example/0", RedirectMap(_chain(11)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13),
                              st.sampled_from(["", "?utm_source=t", "#f"])),
                    max_size=14, unique_by=lambda edge: edge[0]))
    def test_random_graphs(self, edges):
        graph = {f"https://n{a}.example/p": f"https://N{b}.example/p{tail}" for a, b, tail in edges}
        for start in range(14):
            raw = f"https://n{start}.example/p"
            network = NetworkRedirectResolver(opener=_FakeOpener(graph))
            assert _outcome(raw, network) == _outcome(raw, RedirectMap(graph))
