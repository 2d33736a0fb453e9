"""The paper's primary contribution: best-case coalescing modelling.

Implements §4 of the paper over HAR archives produced by the crawler:

* :mod:`repro.core.grouping` -- the "service" equivalence that decides
  what could share a connection (by ASN for ORIGIN-frame coalescing,
  by IP for IP-based coalescing, by one CDN's ASN for the
  deployment-only prediction);
* :mod:`repro.core.timeline` -- §4.1's conservative waterfall
  reconstruction (Figure 2);
* :mod:`repro.core.coalescing` -- §4.2's predicted DNS / TLS /
  certificate-validation counts (Figure 3);
* :mod:`repro.core.certplan` -- §4.3's least-effort certificate
  modification plan, read from the generated site records
  (Figures 4-5, Tables 8-9);
* :mod:`repro.core.predictions` -- page-load-time predictions
  (Figure 9 top) and the paper's headline reductions (§7).

The package re-exports nothing: import each name from the module that
defines it, so a crawl that needs only the coalescing counts does not
load the rest of the model.
"""
