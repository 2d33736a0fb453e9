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
"""

from repro.core.grouping import (
    ServiceGrouper,
    by_asn,
    by_ip,
    by_single_asn,
)
from repro.core.timeline import (
    ReconstructionOptions,
    ReconstructionResult,
    reconstruct,
)
from repro.core.coalescing import (
    CoalescingCounts,
    ideal_ip_counts,
    ideal_origin_counts,
    origin_set_for_page,
)
from repro.core.certplan import (
    SitePlan,
    CertificatePlan,
    plan_certificates,
    san_distribution_table,
    provider_addition_table,
)
from repro.core.predictions import (
    Figure3Data,
    figure3,
    PltPrediction,
    predict_plt,
    headline_reductions,
)
from repro.core.privacy import (
    PrivacyExposure,
    PrivacyComparison,
    exposure_from_archive,
    compare_privacy,
)

__all__ = [
    "ServiceGrouper",
    "by_asn",
    "by_ip",
    "by_single_asn",
    "ReconstructionOptions",
    "ReconstructionResult",
    "reconstruct",
    "CoalescingCounts",
    "ideal_ip_counts",
    "ideal_origin_counts",
    "origin_set_for_page",
    "SitePlan",
    "CertificatePlan",
    "plan_certificates",
    "san_distribution_table",
    "provider_addition_table",
    "Figure3Data",
    "figure3",
    "PltPrediction",
    "predict_plt",
    "headline_reductions",
    "PrivacyExposure",
    "PrivacyComparison",
    "exposure_from_archive",
    "compare_privacy",
]
