#!/usr/bin/env python
"""Figure 2, live: a page-load waterfall before and after coalescing.

Loads a sharded page with the Chromium model, renders its waterfall,
then runs the §4.1 reconstruction (ideal ORIGIN coalescing by origin
AS) and renders the compacted timeline next to it.

Run:  python examples/waterfall_reconstruction.py
"""

import numpy as np

from repro.analysis import render_waterfall
from repro.browser import BrowserContext, BrowserEngine, ChromiumPolicy
from repro.core.grouping import by_asn
from repro.core.timeline import reconstruct
from repro.dnssim import AuthoritativeServer, CachingResolver, Zone
from repro.h2 import H2Server, ServerConfig
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore
from repro.web import ContentType, Subresource, WebPage

PAGE = WebPage(
    hostname="www.example.com",
    resources=[
        Subresource("static.example.com", "/js/jquery.js",
                    ContentType.APPLICATION_JAVASCRIPT, 20_000,
                    discovery_delay_ms=8.0),
        Subresource("static.example.com", "/css/style.css",
                    ContentType.TEXT_CSS, 14_000,
                    discovery_delay_ms=10.0),
        Subresource("fonts.cdnhost.com", "/fonts/arial.woff",
                    ContentType.FONT_WOFF2, 28_000,
                    parent="/css/style.css", discovery_delay_ms=6.0),
        Subresource("assets.cdnhost.com", "/js/bootstrap.js",
                    ContentType.APPLICATION_JAVASCRIPT, 30_000,
                    discovery_delay_ms=12.0),
        Subresource("analytics.tracker.com", "/script.js",
                    ContentType.TEXT_JAVASCRIPT, 3_000,
                    discovery_delay_ms=20.0),
    ],
)


def build_world():
    network = Network(
        loop=EventLoop(),
        latency=LatencyModel(default=LinkSpec(rtt_ms=30.0,
                                              bandwidth_bpms=1000.0)),
    )
    ca = CertificateAuthority("WF CA", rng=np.random.default_rng(2))
    trust = TrustStore([ca])
    cdn = network.add_host(
        Host("cdn", "edge", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    )
    tracker = network.add_host(Host("tracker", "far", ["10.5.0.1"]))
    client = network.add_host(Host("client", "home", ["10.9.0.1"]))

    cdn_cert = ca.issue("www.example.com", (
        "www.example.com", "static.example.com",
        "fonts.cdnhost.com", "assets.cdnhost.com",
    ))
    cdn_server = H2Server(network, cdn, ServerConfig(
        chains=[ca.chain_for(cdn_cert)],
        serves=["www.example.com", "static.example.com",
                "fonts.cdnhost.com", "assets.cdnhost.com"],
        think_time_ms=25.0,
    ))
    cdn_server.listen_all()

    tracker_cert = ca.issue("analytics.tracker.com", ())
    tracker_server = H2Server(network, tracker, ServerConfig(
        chains=[ca.chain_for(tracker_cert)],
        serves=["analytics.tracker.com"],
        think_time_ms=60.0,
    ))
    tracker_server.listen_all()

    authority = AuthoritativeServer()
    example = Zone("example.com")
    example.add_a("www.example.com", ["10.0.0.1"])
    example.add_a("static.example.com", ["10.0.0.2"])
    authority.add_zone(example)
    cdnhost = Zone("cdnhost.com")
    cdnhost.add_a("fonts.cdnhost.com", ["10.0.0.3"])
    cdnhost.add_a("assets.cdnhost.com", ["10.0.0.3"])
    authority.add_zone(cdnhost)
    trackerzone = Zone("tracker.com")
    trackerzone.add_a("analytics.tracker.com", ["10.5.0.1"])
    authority.add_zone(trackerzone)

    from repro.web import AsDatabase
    asdb = AsDatabase()
    asdb.register("10.0.0.0/24", 13335, "cdnhost")
    asdb.register("10.5.0.0/24", 64500, "tracker-net")

    context = BrowserContext(
        network=network,
        client_host=client,
        resolver=CachingResolver(network.loop, authority,
                                 median_latency_ms=22.0),
        trust_store=trust,
        authorities=[ca],
        policy=ChromiumPolicy(),
        asdb=asdb,
    )
    return BrowserEngine(context)


def main():
    engine = build_world()
    archive = engine.load_blocking(PAGE)
    print("MEASURED (Chromium, IP-based coalescing only)\n")
    print(render_waterfall(archive))
    print(f"\npage load time: {archive.page.on_load:.0f}ms; "
          f"{archive.dns_query_count()} DNS queries, "
          f"{archive.tls_connection_count()} TLS handshakes\n")

    result = reconstruct(archive, by_asn)
    rebuilt = result.reconstructed
    print("RECONSTRUCTED (ideal ORIGIN coalescing, §4.1)\n")
    print(render_waterfall(rebuilt))
    print(f"\npage load time: {rebuilt.page.on_load:.0f}ms "
          f"({result.plt_improvement * 100:.0f}% faster); "
          f"{len(result.coalesced_urls)} requests coalesced; "
          "the tracker on another AS keeps its own connection")


if __name__ == "__main__":
    main()
