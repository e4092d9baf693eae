"""URL normalization and credible-source verification.

Short links are resolved through an offline redirect map by default so runs
are deterministic; a network resolver with the same contract is available
when explicitly enabled.  A URL is credible when its host, or a parent domain
of it, is on the allowlist.
"""

from __future__ import annotations

import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from urllib.parse import parse_qsl, urlencode, urlparse, urlunparse

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


def bundled_data(name: str):
    """Path of a data file shipped in ``outcry/data``."""
    return resources.files("outcry").joinpath("data", name)


def is_absolute_url(url: str) -> bool:
    try:
        parts = urlparse(url)
    except ValueError:
        return False
    return bool(parts.scheme) and bool(parts.netloc)


@dataclass(frozen=True)
class AllowList:
    """Set of credible domains, loaded from a one-per-line file."""

    domains: frozenset[str]
    loaded_from: str | None = None

    def __post_init__(self):
        if not self.domains:
            raise ValueError("allowlist must contain at least one domain")
        for entry in self.domains:
            if "://" in entry or "/" in entry or not entry:
                raise ValueError(f"allowlist entries must be bare domains, got {entry!r}")

    @classmethod
    def load(cls, path=None) -> "AllowList":
        src = path or bundled_data("credible_domains.txt")
        domains = frozenset(d.lower() for d in read_data_lines(src))
        return cls(domains=domains, loaded_from=str(src))


@dataclass(frozen=True)
class RedirectMap:
    """Offline short-URL resolution table: short URL -> final absolute URL."""

    mapping: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for target in self.mapping.values():
            if not is_absolute_url(target):
                raise ValueError(f"redirect targets must be absolute URLs, got {target!r}")

    @classmethod
    def load(cls, path) -> "RedirectMap":
        mapping = {}
        for line in read_data_lines(path):
            short, _, final = line.partition("\t")
            if not final:
                raise ValueError(f"redirect map line needs 'short<TAB>final': {line!r}")
            mapping[short.strip()] = final.strip()
        return cls(mapping=mapping)


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


def normalize_url(raw: str, redirects: RedirectMap | None = None) -> str:
    """Canonicalize a URL: resolve the redirect map transitively (cycle-safe,
    max 10 hops), lowercase scheme/host, strip fragment and utm_* params.

    Normalization is idempotent: the result maps to itself.
    """
    mapping = redirects.mapping if redirects is not None else {}
    url = raw
    seen: set[str] = set()
    for _ in range(MAX_REDIRECT_HOPS + 1):
        canon = _canonicalize(url)
        if canon in seen:
            raise RedirectCycle(f"redirect cycle at {canon!r} (from {raw!r})")
        seen.add(canon)
        nxt = mapping.get(url)
        if nxt is None:
            nxt = mapping.get(canon)
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


class _ResolvingCache(dict):
    """Mapping view that resolves unseen URLs on demand and caches the
    answer; resolution failures make the URL map to itself (no redirect)."""

    def __init__(self, resolver):
        super().__init__()
        self._resolver = resolver

    def get(self, key, default=None):
        if key in self:
            value = dict.get(self, key)
            return value if value is not None else default
        try:
            final = self._resolver.resolve(key)
        except (OSError, ValueError, urllib.error.URLError):
            final = key
        value = final if final != key else None
        self[key] = value
        return value if value is not None else default


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class NetworkRedirectResolver:
    """Follows HTTP redirects to build the same short->final mapping the
    offline RedirectMap provides.  Off by default; enable via config."""

    def __init__(self, timeout_ms: int = 3000, max_hops: int = MAX_REDIRECT_HOPS, opener=None):
        self.timeout = timeout_ms / 1000.0
        self.max_hops = max_hops
        self._opener = opener or urllib.request.build_opener(_NoRedirect)

    def resolve(self, url: str) -> str:
        current = url
        seen = {current}
        for _ in range(self.max_hops):
            request = urllib.request.Request(current, method="HEAD")
            try:
                response = self._opener.open(request, timeout=self.timeout)
            except urllib.error.HTTPError as err:
                if err.code in (301, 302, 303, 307, 308):
                    location = err.headers.get("Location")
                    err.close()
                    if not location:
                        return current
                    if location in seen:
                        raise RedirectCycle(f"redirect cycle from {url!r}")
                    seen.add(location)
                    current = location
                    continue
                err.close()
                return current
            response.close()
            return current
        raise RedirectCycle(f"more than {self.max_hops} redirect hops from {url!r}")

    def as_redirects(self) -> RedirectMap:
        """Adapter so the pipeline can use this resolver wherever an offline
        RedirectMap is accepted: links resolve one at a time, on first use."""
        return RedirectMap(mapping=_ResolvingCache(self))
