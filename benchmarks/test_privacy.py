"""§6.2: the privacy benefit of coalescing -- plaintext signals removed."""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import format_pct, render_table
from repro.core.privacy import compare_privacy
from repro.core.privacy import exposure_from_archive


def test_privacy_signal_reduction(benchmark, successes):
    comparison = benchmark.pedantic(
        compare_privacy, args=(successes,), rounds=1, iterations=1,
    )
    medians = comparison.median_signals()
    hidden = comparison.median_hostnames_hidden()
    print_block(render_table(
        "Privacy (paper §6.2) -- on-path plaintext signals per page",
        ["Client", "median signals (DNS + SNI)"],
        [
            ("measured (today)", f"{medians['measured']:.0f}"),
            ("ideal ORIGIN client", f"{medians['ideal_origin']:.0f}"),
        ],
    ))
    print(f"signal reduction: "
          f"{format_pct(comparison.signal_reduction())}; "
          f"median hostnames hidden entirely per page: {hidden:.0f}")

    assert comparison.signal_reduction() > 0.2
    assert hidden >= 1


def test_privacy_defense_stacking(benchmark, successes):
    """ECH + encrypted DNS + coalescing compose; coalescing removes
    signals the other two cannot (the request itself)."""

    def stack():
        rows = {}
        for name, kwargs in (
            ("plaintext everything", {}),
            ("+ encrypted DNS", {"encrypted_dns": True}),
            ("+ ECH too", {"encrypted_dns": True, "ech": True}),
        ):
            signals = [
                exposure_from_archive(a, **kwargs).total_signals
                for a in successes
            ]
            rows[name] = float(np.median(signals))
        return rows

    rows = benchmark(stack)
    print_block(render_table(
        "Privacy -- defense stacking (median plaintext signals/page)",
        ["Defenses", "Signals"],
        [(name, f"{value:.0f}") for name, value in rows.items()],
    ))
    assert rows["+ encrypted DNS"] <= rows["plaintext everything"]
    assert rows["+ ECH too"] <= rows["+ encrypted DNS"]
    assert rows["+ ECH too"] == 0.0
