"""How big do ORIGIN sets need to be?

§4.1: "the set of names that should appear in an ORIGIN Frame for a
website are those that could have been coalesced."  This bench derives
those sets from the crawl and reports their size distribution --
the operational cost of the paper's recommendation to providers.
"""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import render_cdf
from repro.core.coalescing import origin_set_for_page


def test_origin_set_sizes(benchmark, successes):
    def derive():
        sizes = []
        frame_bytes = []
        for archive in successes:
            for hostnames in origin_set_for_page(archive).values():
                sizes.append(len(hostnames))
                frame_bytes.append(sum(
                    2 + len(f"https://{name}") for name in hostnames
                ))
        return sizes, frame_bytes

    sizes, frame_bytes = benchmark(derive)
    print_block(render_cdf(
        "ORIGIN sets the model recommends (per service, per page)",
        [("hostnames per origin set", sizes),
         ("ORIGIN frame payload bytes", frame_bytes)],
    ))
    print(f"median origin set: {np.median(sizes):.0f} hostnames, "
          f"{np.median(frame_bytes):.0f} frame bytes; largest: "
          f"{max(sizes)} hostnames")

    assert sizes, "no multi-hostname services found"
    # Origin sets are small: a handful of names, well under a packet.
    assert np.median(sizes) <= 10
    assert np.median(frame_bytes) < 1400
    # Every set has at least two names (singletons advertise nothing).
    assert min(sizes) >= 2
