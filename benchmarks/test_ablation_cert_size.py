"""Ablation: SAN growth vs handshake bytes and CT-log load.

§6.5: oversized certificates spill past the 16KB TLS record and the
initial congestion window, adding round trips.  §6.4: the one-time
reissuance burst is small against global issuance (257,034 certs/hour).
"""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.tlspki import (
    CertificateAuthority,
    CtLog,
    HandshakeConfig,
    IssuancePolicy,
    TLS_RECORD_SIZE,
    simulate_handshake,
)

SAN_SIZES = (2, 10, 100, 1000, 5000)

#: Paper §6.4: global issuance rate per hour.
GLOBAL_HOURLY_ISSUANCE = 257_034


def test_certificate_size_spill(benchmark):
    ca = CertificateAuthority(
        "Big CA", policy=IssuancePolicy(max_san_names=10_000)
    )
    rows = []
    results = {}
    for count in SAN_SIZES:
        names = tuple(
            f"host-{i:05d}.example.com" for i in range(count - 1)
        )
        leaf = ca.issue(f"site-{count}.example.com", names)
        chain = ca.chain_for(leaf)
        result = simulate_handshake(
            chain, HandshakeConfig(rtt_ms=30.0)
        )
        results[count] = result
        rows.append((
            count, f"{result.chain_bytes:,}", result.records_needed,
            result.extra_flights, f"{result.duration_ms:.1f}",
        ))
    benchmark(
        simulate_handshake,
        ca.chain_for(ca.issue("bench.example.com", ())),
        HandshakeConfig(rtt_ms=30.0),
    )
    print_block(render_table(
        "Ablation -- SAN count vs handshake (paper §6.5: certs beyond "
        f"the {TLS_RECORD_SIZE // 1024}KB record cost extra RTTs)",
        ["#SAN", "Chain bytes", "TLS records", "Extra flights",
         "Handshake (ms)"],
        rows,
    ))

    assert results[2].extra_flights == 0
    assert results[5000].records_needed > 1
    assert results[5000].extra_flights > results[100].extra_flights
    assert results[5000].duration_ms > results[2].duration_ms + 30.0


def test_ct_log_burst(benchmark, deployment):
    """§6.4: reissuing the whole sample is a blip vs global issuance."""
    _, experiment = deployment

    def burst_log():
        log = CtLog()
        for site in experiment.sample:
            log.append(site.reissued_certificate, now=0.0)
        return log

    log = benchmark(burst_log)
    burst = log.appends_in_window(0.0, 3600_000.0)
    share = burst / GLOBAL_HOURLY_ISSUANCE
    print_block(
        f"CT-log burst: {burst} reissued certificates logged in one "
        f"hour = {format_pct(share, 4)} of the global hourly issuance "
        f"rate ({GLOBAL_HOURLY_ISSUANCE:,}/h)"
    )
    # Every logged certificate is provable.
    proof = log.inclusion_proof(0)
    assert log.verify_inclusion(
        experiment.sample[0].reissued_certificate, proof
    )
    assert share < 0.05
