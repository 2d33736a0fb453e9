"""Calibration profiles drawn from the paper's measurements.

Every constant here is traceable to a table in the paper; the dataset
generator samples from these so that a characterization of the
synthetic crawl reproduces the published marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.web.content import ContentType


@dataclass(frozen=True)
class PopularHostname:
    """A widely used third-party subresource hostname (Tables 7/9)."""

    hostname: str
    provider: str
    #: Probability that a page uses this hostname.
    usage_rate: float
    #: Content types this host serves, with weights.
    content: Tuple[Tuple[ContentType, float], ...]
    #: Mean number of requests a using page makes to this hostname.
    requests_per_page: float = 1.6


@dataclass(frozen=True)
class ProviderProfile:
    """One hosting/CDN provider (= one AS in the dataset).

    ``request_share`` mirrors Table 2; ``site_share`` mirrors the
    hosting shares in Table 9 (Cloudflare 24.74%, Amazon 7.75%, Google
    5.09%); ``issuer`` is the CA the provider provisions for its
    customers (Table 4).
    """

    name: str
    asn: int
    request_share: float
    site_share: float
    issuer: str
    #: Number of distinct edge IPs the provider fronts content with.
    ip_pool_size: int = 8
    #: Addresses returned per DNS answer (multi-A for load balancing).
    dns_answer_size: int = 2
    #: Probability a server on this provider negotiates only HTTP/1.1.
    h1_only_rate: float = 0.0
    #: Whether the provider's edge also terminates HTTP/3 (QUIC).
    #: Static per-provider (the big CDNs rolled h3 out fleet-wide), so
    #: flipping it never perturbs the generator's RNG draw order.
    supports_h3: bool = False
    #: Per-provider content-type mix (Table 6); None = global mix.
    content_mix: Optional[Tuple[Tuple[ContentType, float], ...]] = None


#: Table 6: top content types for the top-3 ASes, renormalized over the
#: full type set by scaling the global mix for the unlisted remainder.
_GOOGLE_MIX = (
    (ContentType.TEXT_JAVASCRIPT, 0.2169),
    (ContentType.TEXT_HTML, 0.1439),
    (ContentType.IMAGE_GIF, 0.1096),
    (ContentType.FONT_WOFF2, 0.0999),
    (ContentType.APPLICATION_JAVASCRIPT, 0.09),
    (ContentType.IMAGE_PNG, 0.08),
    (ContentType.APPLICATION_JSON, 0.08),
    (ContentType.IMAGE_JPEG, 0.07),
    (ContentType.TEXT_CSS, 0.06),
    (ContentType.TEXT_PLAIN, 0.05),
)

_CLOUDFLARE_MIX = (
    (ContentType.APPLICATION_JAVASCRIPT, 0.2232),
    (ContentType.IMAGE_JPEG, 0.1943),
    (ContentType.IMAGE_PNG, 0.1196),
    (ContentType.TEXT_CSS, 0.1072),
    (ContentType.TEXT_HTML, 0.09),
    (ContentType.IMAGE_GIF, 0.06),
    (ContentType.TEXT_JAVASCRIPT, 0.06),
    (ContentType.FONT_WOFF2, 0.05),
    (ContentType.APPLICATION_JSON, 0.05),
    (ContentType.IMAGE_WEBP, 0.05),
)

_AMAZON_MIX = (
    (ContentType.APPLICATION_JAVASCRIPT, 0.2136),
    (ContentType.IMAGE_JPEG, 0.1467),
    (ContentType.IMAGE_PNG, 0.1344),
    (ContentType.TEXT_CSS, 0.0681),
    (ContentType.TEXT_HTML, 0.09),
    (ContentType.APPLICATION_JSON, 0.09),
    (ContentType.TEXT_JAVASCRIPT, 0.08),
    (ContentType.IMAGE_GIF, 0.06),
    (ContentType.FONT_WOFF2, 0.06),
    (ContentType.IMAGE_WEBP, 0.06),
)

#: Table 2 (request shares) + Table 9 (site-hosting shares) + Table 4
#: (issuers).  ``request_share`` values are the Table 2 percentages;
#: residual request volume lands on the tail ASes.
PROVIDERS: Tuple[ProviderProfile, ...] = (
    ProviderProfile(
        name="Google", asn=15169, request_share=0.2210, site_share=0.0509,
        issuer="Google Trust Services CA 101", ip_pool_size=12,
        dns_answer_size=2, content_mix=_GOOGLE_MIX, supports_h3=True,
    ),
    ProviderProfile(
        name="Cloudflare", asn=13335, request_share=0.1375,
        site_share=0.2474, issuer="Cloudflare Inc ECC CA-3",
        ip_pool_size=12, dns_answer_size=2, content_mix=_CLOUDFLARE_MIX,
        supports_h3=True,
    ),
    ProviderProfile(
        name="Amazon 02", asn=16509, request_share=0.0840,
        site_share=0.0775, issuer="Amazon", ip_pool_size=10,
        dns_answer_size=2, content_mix=_AMAZON_MIX,
    ),
    ProviderProfile(
        name="Amazon AES", asn=14618, request_share=0.0562,
        site_share=0.015, issuer="Amazon", ip_pool_size=8,
    ),
    ProviderProfile(
        name="Fastly", asn=54113, request_share=0.0357, site_share=0.02,
        issuer="DigiCert SHA2 High Assurance Server CA", ip_pool_size=8,
        supports_h3=True,
    ),
    ProviderProfile(
        name="Akamai AS", asn=16625, request_share=0.0302,
        site_share=0.015,
        issuer="DigiCert SHA2 Secure Server CA", ip_pool_size=8,
    ),
    ProviderProfile(
        name="Facebook", asn=32934, request_share=0.0278,
        site_share=0.001, issuer="DigiCert SHA2 High Assurance Server CA",
        ip_pool_size=6, supports_h3=True,
    ),
    ProviderProfile(
        name="Akamai Intl. B.V.", asn=20940, request_share=0.0162,
        site_share=0.01, issuer="DigiCert SHA2 Secure Server CA",
        ip_pool_size=6,
    ),
    ProviderProfile(
        name="OVH SAS", asn=16276, request_share=0.0152, site_share=0.04,
        issuer="Let's Encrypt (R3)", ip_pool_size=6, dns_answer_size=1,
        h1_only_rate=0.30,
    ),
    ProviderProfile(
        name="Hetzner Online GmbH", asn=24940, request_share=0.0130,
        site_share=0.04, issuer="Let's Encrypt (R3)", ip_pool_size=6,
        dns_answer_size=1, h1_only_rate=0.30,
    ),
)

#: Issuers for tail (self-hosted) sites with rough Table 4 residual
#: weights after the provider-tied issuers above.
TAIL_ISSUERS: Tuple[Tuple[str, float], ...] = (
    ("Let's Encrypt (R3)", 0.38),
    ("Sectigo RSA DV Secure Server CA", 0.22),
    ("GoDaddy Secure Certificate Authority - G2", 0.12),
    ("DigiCert TLS RSA SHA256 2020 CA1", 0.11),
    ("GeoTrust RSA CA 2018", 0.07),
    ("cPanel Inc CA", 0.05),
    ("DFN-Verein Global Issuing CA", 0.03),
    ("GlobalSign CloudSSL CA - SHA256 - G3", 0.02),
)

#: Table 5 content-type weights (normalized over the modeled types).
CONTENT_TYPE_WEIGHTS: Tuple[Tuple[ContentType, float], ...] = (
    (ContentType.APPLICATION_JAVASCRIPT, 0.1426),
    (ContentType.IMAGE_JPEG, 0.1302),
    (ContentType.IMAGE_PNG, 0.1067),
    (ContentType.TEXT_HTML, 0.1032),
    (ContentType.IMAGE_GIF, 0.0897),
    (ContentType.TEXT_CSS, 0.0779),
    (ContentType.TEXT_JAVASCRIPT, 0.0676),
    (ContentType.APPLICATION_JSON, 0.0353),
    (ContentType.APPLICATION_X_JAVASCRIPT, 0.0336),
    (ContentType.FONT_WOFF2, 0.0268),
    (ContentType.IMAGE_WEBP, 0.0267),
    (ContentType.TEXT_PLAIN, 0.0252),
)

#: Tables 7 and 9: the most-requested third-party hostnames, with
#: per-page usage rates chosen so the request shares land near the
#: published percentages (Table 7 column "%").
POPULAR_THIRD_PARTIES: Tuple[PopularHostname, ...] = (
    PopularHostname(
        "fonts.gstatic.com", "Google", usage_rate=0.60,
        content=((ContentType.FONT_WOFF2, 1.0),),
        requests_per_page=3.0,
    ),
    PopularHostname(
        "www.google-analytics.com", "Google", usage_rate=0.62,
        content=((ContentType.TEXT_JAVASCRIPT, 0.7),
                 (ContentType.IMAGE_GIF, 0.3)),
        requests_per_page=2.0,
    ),
    PopularHostname(
        "www.facebook.com", "Facebook", usage_rate=0.35,
        content=((ContentType.TEXT_JAVASCRIPT, 0.6),
                 (ContentType.IMAGE_GIF, 0.4)),
        requests_per_page=2.5,
    ),
    PopularHostname(
        "www.google.com", "Google", usage_rate=0.45,
        content=((ContentType.TEXT_HTML, 0.5),
                 (ContentType.TEXT_JAVASCRIPT, 0.5)),
        requests_per_page=2.0,
    ),
    PopularHostname(
        "tpc.googlesyndication.com", "Google", usage_rate=0.25,
        content=((ContentType.TEXT_HTML, 0.5),
                 (ContentType.TEXT_JAVASCRIPT, 0.5)),
        requests_per_page=3.0,
    ),
    PopularHostname(
        "cm.g.doubleclick.net", "Google", usage_rate=0.27,
        content=((ContentType.IMAGE_GIF, 0.6),
                 (ContentType.TEXT_HTML, 0.4)),
        requests_per_page=2.5,
    ),
    PopularHostname(
        "googleads.g.doubleclick.net", "Google", usage_rate=0.26,
        content=((ContentType.TEXT_HTML, 0.5),
                 (ContentType.TEXT_JAVASCRIPT, 0.5)),
        requests_per_page=2.5,
    ),
    PopularHostname(
        "pagead2.googlesyndication.com", "Google", usage_rate=0.26,
        content=((ContentType.TEXT_JAVASCRIPT, 1.0),),
        requests_per_page=2.5,
    ),
    PopularHostname(
        "fonts.googleapis.com", "Google", usage_rate=0.55,
        content=((ContentType.TEXT_CSS, 1.0),),
        requests_per_page=1.4,
    ),
    PopularHostname(
        "cdn.shopify.com", "Cloudflare", usage_rate=0.06,
        content=((ContentType.IMAGE_JPEG, 0.4),
                 (ContentType.IMAGE_PNG, 0.2),
                 (ContentType.APPLICATION_JAVASCRIPT, 0.4)),
        requests_per_page=12.0,
    ),
    # Table 9 provider-specific hosts.
    PopularHostname(
        "cdnjs.cloudflare.com", "Cloudflare", usage_rate=0.08,
        content=((ContentType.APPLICATION_JAVASCRIPT, 0.7),
                 (ContentType.TEXT_CSS, 0.3)),
        requests_per_page=4.0,
    ),
    PopularHostname(
        "ajax.cloudflare.com", "Cloudflare", usage_rate=0.05,
        content=((ContentType.APPLICATION_JAVASCRIPT, 1.0),),
        requests_per_page=1.5,
    ),
    PopularHostname(
        "cdn.jsdelivr.net", "Cloudflare", usage_rate=0.05,
        content=((ContentType.APPLICATION_JAVASCRIPT, 0.7),
                 (ContentType.TEXT_CSS, 0.3)),
        requests_per_page=2.5,
    ),
    PopularHostname(
        "dxxxxxxxxxxxx.cloudfront.net", "Amazon 02", usage_rate=0.07,
        content=((ContentType.IMAGE_JPEG, 0.3),
                 (ContentType.IMAGE_PNG, 0.2),
                 (ContentType.APPLICATION_JAVASCRIPT, 0.5)),
        requests_per_page=4.0,
    ),
    PopularHostname(
        "script.hotjar.com", "Amazon 02", usage_rate=0.05,
        content=((ContentType.APPLICATION_JAVASCRIPT, 1.0),),
        requests_per_page=2.0,
    ),
    PopularHostname(
        "assets.s3.amazonaws.com", "Amazon 02", usage_rate=0.05,
        content=((ContentType.IMAGE_JPEG, 0.4),
                 (ContentType.IMAGE_PNG, 0.3),
                 (ContentType.APPLICATION_JSON, 0.3)),
        requests_per_page=3.0,
    ),
    PopularHostname(
        "www.googletagmanager.com", "Google", usage_rate=0.50,
        content=((ContentType.TEXT_JAVASCRIPT, 1.0),),
        requests_per_page=1.3,
    ),
    PopularHostname(
        "cdn.fastly-insights.com", "Fastly", usage_rate=0.06,
        content=((ContentType.APPLICATION_JAVASCRIPT, 0.8),
                 (ContentType.APPLICATION_JSON, 0.2)),
        requests_per_page=2.0,
    ),
    PopularHostname(
        "static.akamaized.net", "Akamai AS", usage_rate=0.05,
        content=((ContentType.IMAGE_JPEG, 0.5),
                 (ContentType.APPLICATION_JAVASCRIPT, 0.5)),
        requests_per_page=3.0,
    ),
)

#: Each popular hostname's hosting provider, in table order.
POPULAR_PROVIDER_BY_HOSTNAME: Dict[str, str] = {
    popular.hostname: popular.provider for popular in POPULAR_THIRD_PARTIES
}

#: Table 1: per-rank-bucket crawl success rates (success / 100K).
SUCCESS_RATE_BY_BUCKET: Tuple[float, ...] = (
    0.68244, 0.64163, 0.63334, 0.59827, 0.60228,
)

#: Table 1: per-bucket median subresource request counts.
MEDIAN_REQUESTS_BY_BUCKET: Tuple[float, ...] = (89, 83, 80, 79, 78)

#: Table 3: protocol mix targets (fraction of requests).
PROTOCOL_TARGETS: Dict[str, float] = {
    "h2": 0.7364,
    "http/1.1": 0.1909,
    "insecure": 0.0147,
}

#: §5.3: share of third-party script/json requests made through
#: fetch()/XHR or crossorigin=anonymous (these never coalesce).
ANONYMOUS_FETCH_RATE = 0.30


def provider_by_name(name: str) -> ProviderProfile:
    for profile in PROVIDERS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown provider {name!r}")
