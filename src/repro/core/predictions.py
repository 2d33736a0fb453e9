"""Model predictions: Figure 3, Figure 9 (top), and headline numbers.

Everything here runs the §4 model over a set of crawled HAR archives
and returns distribution data for benches and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.coalescing import (
    ideal_ip_counts,
    ideal_origin_counts,
    measured_counts,
)
from repro.core.grouping import by_single_asn
from repro.core.timeline import (
    ReconstructionOptions,
    reconstruct,
)
from repro.core import grouping
from repro.web.har import HarArchive


def _successes(archives: Sequence[HarArchive]) -> List[HarArchive]:
    return [a for a in archives if a.page.success]


@dataclass
class Figure3Data:
    """Per-page count distributions for Figure 3's four CDFs."""

    measured_dns: List[int]
    measured_tls: List[int]
    ideal_ip: List[int]
    ideal_origin: List[int]

    def medians(self) -> Dict[str, float]:
        return {
            "measured_dns": float(np.median(self.measured_dns)),
            "measured_tls": float(np.median(self.measured_tls)),
            "ideal_ip": float(np.median(self.ideal_ip)),
            "ideal_origin": float(np.median(self.ideal_origin)),
        }

    def reduction_vs_measured(self) -> Dict[str, float]:
        """Median reductions the paper headlines (§4.2): ~64% DNS and
        ~67% TLS under ideal ORIGIN coalescing."""
        m = self.medians()
        out = {}
        if m["measured_dns"]:
            out["origin_dns_reduction"] = (
                1.0 - m["ideal_origin"] / m["measured_dns"]
            )
            out["ip_dns_reduction"] = 1.0 - m["ideal_ip"] / m["measured_dns"]
        if m["measured_tls"]:
            out["origin_tls_reduction"] = (
                1.0 - m["ideal_origin"] / m["measured_tls"]
            )
            out["ip_tls_reduction"] = 1.0 - m["ideal_ip"] / m["measured_tls"]
        return out

    def validation_percentiles(self) -> Dict[str, float]:
        """Certificate-validation stats quoted for Figure 3: measured
        p75 vs ideal p75, and interquartile ranges."""
        measured = np.array(self.measured_tls, dtype=float)
        ideal = np.array(self.ideal_origin, dtype=float)
        return {
            "measured_p75": float(np.percentile(measured, 75)),
            "ideal_p75": float(np.percentile(ideal, 75)),
            "measured_iqr": float(
                np.percentile(measured, 75) - np.percentile(measured, 25)
            ),
            "ideal_iqr": float(
                np.percentile(ideal, 75) - np.percentile(ideal, 25)
            ),
        }


def figure3(archives: Sequence[HarArchive]) -> Figure3Data:
    """Measured vs ideal-IP vs ideal-ORIGIN count distributions."""
    ok = _successes(archives)
    return Figure3Data(
        measured_dns=[measured_counts(a).dns_queries for a in ok],
        measured_tls=[measured_counts(a).tls_connections for a in ok],
        ideal_ip=[ideal_ip_counts(a).tls_connections for a in ok],
        ideal_origin=[ideal_origin_counts(a).tls_connections for a in ok],
    )


@dataclass
class PltPrediction:
    """PLT distributions under the model (Figure 9 top)."""

    measured: List[float]
    ideal_ip: List[float]
    ideal_origin: List[float]
    cdn_origin: List[float] = field(default_factory=list)

    def median_improvements(self) -> Dict[str, float]:
        """Fractional median PLT improvements vs measured.

        Paper: ~10% (IP), ~27% (ORIGIN), ~1.5% (single-CDN ORIGIN).
        """
        base = float(np.median(self.measured))
        out = {}
        if base > 0:
            out["ip"] = 1.0 - float(np.median(self.ideal_ip)) / base
            out["origin"] = 1.0 - float(np.median(self.ideal_origin)) / base
            if self.cdn_origin:
                out["cdn_origin"] = (
                    1.0 - float(np.median(self.cdn_origin)) / base
                )
        return out


def predict_plt(
    archives: Sequence[HarArchive],
    cdn_asn: Optional[int] = None,
    options: Optional[ReconstructionOptions] = None,
) -> PltPrediction:
    """Reconstruct every page under each model and collect PLTs."""
    ok = _successes(archives)
    options = options or ReconstructionOptions()
    measured = [a.page.on_load for a in ok]
    ideal_ip = [
        reconstruct(a, grouping.by_ip, options).reconstructed.page.on_load
        for a in ok
    ]
    ideal_origin = [
        reconstruct(a, grouping.by_asn, options).reconstructed.page.on_load
        for a in ok
    ]
    cdn = []
    if cdn_asn is not None:
        cdn_grouper = by_single_asn(cdn_asn)
        cdn = [
            reconstruct(a, cdn_grouper, options).reconstructed.page.on_load
            for a in ok
        ]
    return PltPrediction(
        measured=measured,
        ideal_ip=ideal_ip,
        ideal_origin=ideal_origin,
        cdn_origin=cdn,
    )


def headline_reductions(
    archives: Sequence[HarArchive],
) -> Dict[str, float]:
    """The paper's §7 headline: median reductions in render-blocking
    DNS queries (-64.28%) and certificate validations (-68.75%)."""
    ok = _successes(archives)
    return origin_reductions(
        [measured_counts(a).dns_queries for a in ok],
        [measured_counts(a).tls_connections for a in ok],
        [ideal_origin_counts(a).tls_connections for a in ok],
    )


def origin_reductions(
    measured_dns: Sequence[int],
    measured_tls: Sequence[int],
    ideal_origin: Sequence[int],
) -> Dict[str, float]:
    """:func:`headline_reductions` from the per-page counts of the
    successful pages (:class:`Figure3Data`'s lists of the same names):
    the ORIGIN half of :meth:`Figure3Data.reduction_vs_measured`, 0.0
    where the measured median is 0."""
    dns, tls, origin = (
        float(np.median(counts))
        for counts in (measured_dns, measured_tls, ideal_origin)
    )
    return {
        "dns_reduction": 1.0 - origin / dns if dns else 0.0,
        "validation_reduction": 1.0 - origin / tls if tls else 0.0,
    }
