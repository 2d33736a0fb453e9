"""Model predictions: Figure 3, Figure 9 (top), and headline numbers.

Everything here runs the §4 model over a set of crawled HAR archives
and returns distribution data for benches and tests.  Figure 3 and the
headline reductions are per-page counts, so they are views over a
crawl's fold (:meth:`repro.dataset.characterize.CrawlFold.figure3`);
:func:`figure3` and :func:`headline_reductions` fold the archives they
are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.grouping import by_single_asn
from repro.core.timeline import (
    ReconstructionOptions,
    reconstruct,
)
from repro.core import grouping
from repro.web.har import HarArchive


@dataclass
class Figure3Data:
    """Per-page count distributions for Figure 3's four CDFs."""

    measured_dns: List[int]
    measured_tls: List[int]
    ideal_ip: List[int]
    ideal_origin: List[int]

    def medians(self) -> Dict[str, float]:
        """Each series' median; 0.0 for a crawl with no successful
        page, which has no count to take a median of."""
        return {
            name: float(np.median(counts)) if counts else 0.0
            for name, counts in (
                ("measured_dns", self.measured_dns),
                ("measured_tls", self.measured_tls),
                ("ideal_ip", self.ideal_ip),
                ("ideal_origin", self.ideal_origin),
            )
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

    def headline_reductions(self) -> Dict[str, float]:
        """The paper's §7 headline: the ORIGIN half of
        :meth:`reduction_vs_measured`, 0.0 where the measured median is
        0."""
        reductions = self.reduction_vs_measured()
        return {
            "dns_reduction": reductions.get("origin_dns_reduction", 0.0),
            "validation_reduction": reductions.get(
                "origin_tls_reduction", 0.0),
        }

    def validation_percentiles(self) -> Dict[str, float]:
        """Certificate-validation stats quoted for Figure 3: measured
        p75 vs ideal p75, and interquartile ranges; 0.0 for a crawl
        with no successful page, as in :meth:`medians`."""
        measured = np.array(self.measured_tls or [0.0], dtype=float)
        ideal = np.array(self.ideal_origin or [0.0], dtype=float)
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
    from repro.dataset.characterize import CrawlFold

    return CrawlFold.of(archives).figure3()


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
        A crawl with no successful page has a 0.0 measured median, as
        in :meth:`Figure3Data.medians`, and so no improvement.
        """
        base = float(np.median(self.measured)) if self.measured else 0.0
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
    ok = [a for a in archives if a.page.success]
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
    return figure3(archives).headline_reductions()
