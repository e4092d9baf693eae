from urllib.parse import urlparse

import pytest

from outcry import (
    AllowList,
    BadUrl,
    EventCluster,
    NetworkRedirectResolver,
    RedirectCycle,
    RedirectMap,
    is_credible,
    normalize_url,
    unique_credible_links,
)

from conftest import make_vector


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
    def __init__(self, url):
        self.url = url

    def close(self):
        pass


class _FakeOpener:
    """Redirect graph lookup standing in for HTTP."""

    def __init__(self, hops):
        self.hops = hops

    def open(self, request, timeout=None):
        import urllib.error
        from email.message import Message

        target = self.hops.get(request.full_url)
        if target is None:
            return _FakeResponse(request.full_url)
        headers = Message()
        headers["Location"] = target
        raise urllib.error.HTTPError(request.full_url, 302, "Found", headers, None)


class TestNetworkResolver:
    def test_follows_redirect_chain(self):
        resolver = NetworkRedirectResolver(opener=_FakeOpener({
            "https://sho.rt/a": "https://mid.example/b",
            "https://mid.example/b": "https://news.example/story",
        }))
        assert resolver.resolve("https://sho.rt/a") == "https://news.example/story"

    def test_cycle_raises(self):
        resolver = NetworkRedirectResolver(opener=_FakeOpener({
            "https://a.example/": "https://b.example/",
            "https://b.example/": "https://a.example/",
        }))
        with pytest.raises(RedirectCycle):
            resolver.resolve("https://a.example/")

    def test_live_redirects_plug_into_normalize_url(self):
        resolver = NetworkRedirectResolver(opener=_FakeOpener({
            "https://sho.rt/a": "https://News.example/Story#frag",
        }))
        live = resolver.as_redirects()
        assert normalize_url("https://sho.rt/a", live) == "https://news.example/Story"
        # second call comes from the cache, not another network round-trip
        resolver._opener = None
        assert normalize_url("https://sho.rt/a", live) == "https://news.example/Story"

    def test_live_redirects_degrade_on_failure(self):
        class Exploding:
            def open(self, request, timeout=None):
                raise OSError("network down")

        live = NetworkRedirectResolver(opener=Exploding()).as_redirects()
        assert normalize_url("https://plain.example/x", live) == "https://plain.example/x"
