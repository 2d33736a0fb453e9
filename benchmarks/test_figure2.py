"""Figure 2: the waterfall reconstruction example."""

from conftest import print_block

from repro.analysis import render_table
from repro.core.grouping import by_asn
from repro.core.timeline import reconstruct
from repro.web.har import HarArchive, HarEntry, HarPage, HarTimings


def figure2_archive():
    """The paper's worked example: 6 requests, 4 coalescable."""

    def entry(hostname, path, start, asn, ip, dns, connect, ssl,
              initiator="/"):
        return HarEntry(
            url=f"https://{hostname}{path}", hostname=hostname, path=path,
            started_at=start,
            timings=HarTimings(dns=dns, connect=connect, ssl=ssl,
                               wait=40.0, receive=30.0),
            server_ip=ip, asn=asn, as_org=f"AS{asn}",
            initiator_path=initiator,
        )

    entries = [
        entry("www.example.com", "/", 0.0, 10, "10.0.0.1",
              25.0, 30.0, 30.0, initiator=""),
        entry("static.example.com", "/js/jquery.js", 160.0, 10,
              "10.0.0.2", 22.0, 30.0, 30.0),
        entry("static.example.com", "/css/style.css", 162.0, 10,
              "10.0.0.2", 20.0, 30.0, 30.0),
        entry("fonts.cdnhost.com", "/fonts/arial.woff", 330.0, 10,
              "10.0.0.3", 24.0, 30.0, 30.0,
              initiator="/css/style.css"),
        entry("assets.cdnhost.com", "/js/bootstrap.js", 165.0, 10,
              "10.0.0.4", 26.0, 30.0, 30.0),
        entry("analytics.tracker.com", "/script.js", 170.0, 99,
              "10.9.9.9", 45.0, 40.0, 40.0),
    ]
    on_load = max(e.started_at + e.timings.total() for e in entries)
    return HarArchive(
        page=HarPage(url=entries[0].url, hostname=entries[0].hostname,
                     on_load=on_load, on_content_load=on_load),
        entries=entries,
    )


def test_figure2(benchmark):
    archive = figure2_archive()
    result = benchmark(reconstruct, archive, by_asn)
    rows = []
    rebuilt = {e.url: e for e in result.reconstructed.entries}
    for original in archive.entries_by_start():
        new = rebuilt[original.url]
        rows.append((
            original.hostname,
            f"{original.started_at:.0f}->{new.started_at:.0f}",
            f"{original.finished_at:.0f}->{new.finished_at:.0f}",
            "yes" if new.coalesced else "no",
        ))
    print_block(render_table(
        "Figure 2 -- waterfall reconstruction (paper: requests 2-5 "
        "coalesce; the tracker on another CDN cannot)",
        ["Request", "Start (ms)", "Finish (ms)", "Coalesced"],
        rows,
    ))
    print(f"time saved: {result.time_saved_ms:.0f}ms "
          f"({result.plt_improvement * 100:.1f}% of PLT)")

    assert len(result.coalesced_urls) == 4
    assert not any("tracker" in url for url in result.coalesced_urls)
    assert result.time_saved_ms > 0
