"""repro: a reproduction of "Respect the ORIGIN! A Best-case Evaluation
of Connection Coalescing in The Wild" (IMC 2022).

The package layers, bottom-up:

* :mod:`repro.netsim` -- deterministic discrete-event network;
* :mod:`repro.dnssim` -- zones, answer rotation, caching resolver;
* :mod:`repro.tlspki` -- certificates/SANs, CAs, validation, CT logs,
  handshake costs;
* :mod:`repro.h2` -- wire-format HTTP/2 with the ORIGIN frame (RFC
  8336), HPACK, client/server over simulated TLS, plus HTTP/1.1
  fallback;
* :mod:`repro.web` -- pages, HAR timelines, IP-to-ASN mapping;
* :mod:`repro.browser` -- Chromium/Firefox coalescing policies and the
  page-load engine;
* :mod:`repro.dataset` -- the synthetic Tranco-like web, crawler, and
  Tables 1-7 characterization;
* :mod:`repro.core` -- the paper's best-case coalescing model (section 4);
* :mod:`repro.deployment` -- the section 5 CDN deployment with passive
  and active measurement, and the section 6.7 middlebox;
* :mod:`repro.analysis` -- statistics and text rendering.

Quickstart::

    from repro.dataset import CrawlParams, Crawler, DatasetConfig, build_world
    from repro.core.predictions import figure3

    world = build_world(DatasetConfig(site_count=200))
    result = Crawler(world, CrawlParams(policy="chromium")).crawl()
    print(figure3(result.archives).medians())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
