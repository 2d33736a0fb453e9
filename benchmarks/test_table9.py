"""Table 9: per-provider most-valuable certificate additions."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.core.certplan import provider_addition_table


def test_table9(benchmark, plan):
    rows = benchmark(provider_addition_table, plan)
    flat = []
    for provider, site_count, share, host_rows in rows:
        for hostname, count, host_share in host_rows:
            flat.append((
                f"{provider} ({site_count} sites, {format_pct(share)})",
                hostname, count, format_pct(host_share),
            ))
    print_block(render_table(
        "Table 9 -- top same-provider hostnames to add per provider "
        "(paper: Cloudflare 24.74% of sites; cdnjs used by 16.21% of "
        "them)",
        ["Provider", "Hostname", "#Sites", "% of provider sites"],
        flat,
    ))

    providers = [provider for provider, _, _, _ in rows]
    assert "Cloudflare" in providers
    cloudflare = next(r for r in rows if r[0] == "Cloudflare")
    hostnames = [hostname for hostname, _, _ in cloudflare[3]]
    assert any("cdnjs" in hostname for hostname in hostnames)
