"""URL normalization and credible-source verification.

Short links are resolved through an offline redirect map by default so runs
are deterministic; a network resolver with the same one-hop contract is
available when explicitly enabled, and only it loads the HTTP stack.  A URL
is credible when its host, or a parent domain of it, is on the allowlist.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple
from urllib.parse import parse_qsl, urlencode, urljoin, urlparse, urlunparse

MAX_REDIRECT_HOPS = 10


class BadUrl(ValueError):
    """URL is not an absolute http(s) URL with a host."""


class RedirectCycle(ValueError):
    """Redirect resolution looped or exceeded the hop limit."""


def read_data_lines(path) -> list[str]:
    """Non-blank lines of a data file, stripped, without ``#`` comment lines."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    return out


def bundled_data(name: str) -> Path:
    """Path of a data file shipped in ``outcry/data``.  The package is read
    from real files on disk (``read_data_lines`` opens the path), so this is
    a plain path beside this module, and ``importlib.resources`` is not
    loaded."""
    return Path(__file__).parent / "data" / name


def is_absolute_url(url: str) -> bool:
    try:
        parts = urlparse(url)
    except ValueError:
        return False
    return bool(parts.scheme) and bool(parts.netloc)


class AllowList(NamedTuple("AllowList", [("domains", frozenset[str])])):
    """Set of credible domains, loaded from a one-per-line file."""

    __slots__ = ()

    def __new__(cls, domains: frozenset[str]):
        if not domains:
            raise ValueError("allowlist must contain at least one domain")
        for entry in domains:
            if "://" in entry or "/" in entry or not entry:
                raise ValueError(f"allowlist entries must be bare domains, got {entry!r}")
        return super().__new__(cls, domains)

    @classmethod
    def load(cls, path=None) -> "AllowList":
        src = path or bundled_data("credible_domains.txt")
        domains = frozenset(d.lower() for d in read_data_lines(src))
        return cls(domains=domains)


class RedirectMap(NamedTuple("RedirectMap", [("mapping", dict[str, str])])):
    """Offline short-URL resolution table: short URL -> final absolute URL."""

    __slots__ = ()

    def __new__(cls, mapping: dict[str, str] | None = None):
        mapping = {} if mapping is None else mapping
        for target in mapping.values():
            if not is_absolute_url(target):
                raise ValueError(f"redirect targets must be absolute URLs, got {target!r}")
        return super().__new__(cls, mapping)

    @classmethod
    def load(cls, path) -> "RedirectMap":
        mapping = {}
        for line in read_data_lines(path):
            short, _, final = line.partition("\t")
            if not final:
                raise ValueError(f"redirect map line needs 'short<TAB>final': {line!r}")
            mapping[short.strip()] = final.strip()
        return cls(mapping=mapping)

    def get(self, url: str) -> str | None:
        """The URL ``url`` redirects to, or None."""
        return self.mapping.get(url)


def _canonicalize(url: str) -> str:
    try:
        parts = urlparse(url)
    except ValueError as exc:
        raise BadUrl(f"unparseable URL: {url!r}") from exc
    if parts.scheme.lower() not in ("http", "https") or not parts.netloc:
        raise BadUrl(f"not an absolute http(s) URL: {url!r}")
    query = urlencode(
        [(k, v) for k, v in parse_qsl(parts.query, keep_blank_values=True)
         if not k.lower().startswith("utm_")]
    )
    return urlunparse((
        parts.scheme.lower(),
        parts.netloc.lower(),
        parts.path,
        parts.params,
        query,
        "",  # fragment dropped
    ))


def normalize_url(raw: str, redirects: RedirectMap | NetworkRedirectResolver | None = None) -> str:
    """Canonicalize a URL: follow redirects, lowercase scheme/host, strip
    fragment and utm_* params.

    ``redirects.get(url)`` answers one hop: the next URL, or None.  Each hop
    is looked up by the URL as given, then by its canonical form.  This is
    the only code that follows chains, so a cycle, or a chain longer than
    ``MAX_REDIRECT_HOPS``, raises ``RedirectCycle`` whether the hops come
    from a ``RedirectMap`` or the network.

    Normalization is idempotent: the result maps to itself.
    """
    if redirects is None:
        return _canonicalize(raw)
    url = raw
    seen: set[str] = set()
    for _ in range(MAX_REDIRECT_HOPS + 1):
        canon = _canonicalize(url)
        if canon in seen:
            raise RedirectCycle(f"redirect cycle at {canon!r} (from {raw!r})")
        seen.add(canon)
        nxt = redirects.get(url)
        if nxt is None and canon != url:
            nxt = redirects.get(canon)
        if nxt is None:
            return canon
        url = nxt
    raise RedirectCycle(f"more than {MAX_REDIRECT_HOPS} redirect hops from {raw!r}")


def is_credible(url: str, allowlist: AllowList) -> bool:
    """True iff the URL's domain is an allowlist entry or a subdomain of one:
    some label suffix of the host (``a.npr.org``, ``npr.org``, ``org``) is
    on the list."""
    host = (urlparse(url).hostname or "").lower()
    while host:
        if host in allowlist.domains:
            return True
        host = host.partition(".")[2]
    return False


def unique_credible_links(links, allowlist: AllowList) -> int:
    """Count distinct credible URLs among normalized URLs."""
    return len({u for u in links if is_credible(u, allowlist)})


def _no_redirect_opener():
    """A urllib opener that follows no redirect: every 3xx answer is raised
    as an ``HTTPError``, so the resolver reads one hop from it."""
    import urllib.request

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(_NoRedirect)


class NetworkRedirectResolver:
    """One redirect hop over HTTP, with the contract of ``RedirectMap.get``.
    Off by default; enable via config.

    ``get(url)`` sends at most one HEAD per distinct canonical URL, to that
    canonical form, and caches the answer.  A 301/302/303/307/308 answer
    gives its ``Location``, joined to the URL asked so a relative location
    works.  Any other answer, or a failure (no connection, a timeout, a
    malformed response), means no redirect.

    ``urllib.request``, ``urllib.error`` and ``http.client`` (and with them
    ``ssl``, ``email`` and ``socket``) are imported on first use: building
    the default opener, or the first HEAD.  An offline run never loads them.
    """

    def __init__(self, timeout_ms: int = 3000, opener=None):
        self.timeout = timeout_ms / 1000.0
        self._opener = opener or _no_redirect_opener()
        self._next: dict[str, str | None] = {}

    def get(self, url: str) -> str | None:
        canon = _canonicalize(url)
        if canon not in self._next:
            self._next[canon] = self._head(canon)
        return self._next[canon]

    def _head(self, url: str) -> str | None:
        import http.client
        import urllib.error
        import urllib.request

        try:
            self._opener.open(urllib.request.Request(url, method="HEAD"),
                              timeout=self.timeout).close()
        except urllib.error.HTTPError as err:  # raised for every 3xx here
            err.close()
            location = err.headers.get("Location")
            if err.code in (301, 302, 303, 307, 308) and location:
                return urljoin(url, location)
        except (OSError, ValueError, http.client.HTTPException):
            pass
        return None
