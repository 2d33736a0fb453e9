"""What the body path puts on the wire, counted, for two pinned runs.

Speeding the h2 body path up must not move a frame: chaos faults are
scheduled on the simulated clock and every golden artifact depends on
when bytes leave.  A tap on every TCP connection counts the TLS records
each side sends and the DATA and WINDOW_UPDATE frames inside them for
the 16-site smoke crawl and the 8-user smoke traffic run (the
``benchmarks/perf`` smoke sizes).  The expected numbers were counted
at the commit before the body path changed; a change that coalesces,
splits or drops a frame moves them, and has to say so.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.h2 import frames as fr
from repro.netsim.network import Network
from repro.transport.framing import REC_APPDATA, REC_SHELLO, parse_records

CRAWL = ["crawl", "--sites", "16", "--seed", "2022", "--shards", "4",
         "--jobs", "1", "--refresh", "--tables", "all"]
TRAFFIC = ["traffic", "--users", "8", "--sites", "16", "--seed", "2022",
           "--duration", "30", "--scenario", "origin",
           "--edge-capacity", "24", "--shards", "2", "--jobs", "1"]


class _Flow:
    """One tapped TCP connection; both directions count into the
    shared totals."""

    def __init__(self, counts: Counter) -> None:
        self.counts = counts
        self.alpn = None  # read off the ServerHello

    def sent(self, data: bytes) -> bool:
        counts = self.counts
        records, rest = parse_records(data)
        assert rest == b"", "a send is whole TLS records"
        counts["tls_records"] += len(records)
        for record_type, payload in records:
            if record_type == REC_SHELLO:
                self.alpn = json.loads(payload)["alpn"]
            elif record_type == REC_APPDATA and self.alpn == "h2":
                self.frames(payload)
        return True

    def frames(self, payload: bytes) -> None:
        counts = self.counts
        if payload.startswith(fr.CONNECTION_PREFACE):
            payload = payload[len(fr.CONNECTION_PREFACE):]
        offset = 0
        while offset < len(payload):
            word = fr.HEADER_STRUCT.unpack_from(payload, offset)[0]
            offset += fr.FRAME_HEADER_LEN + (word >> 8)
            if word & 0xFF == fr.TYPE_DATA:
                counts["data_frames"] += 1
                counts["data_bytes"] += word >> 8
            elif word & 0xFF == fr.TYPE_WINDOW_UPDATE:
                counts["window_updates"] += 1
        assert offset == len(payload), "a record is whole h2 frames"


@pytest.fixture
def wire(monkeypatch):
    """Counts of everything sent over port 443 by any network built
    while the fixture is live."""
    counts = Counter()

    def tap(client, server_ip, port, client_end, server_end) -> None:
        if port == 443:
            counts["connections"] += 1
            flow = _Flow(counts)
            client_end.outbound_inspector = flow.sent
            server_end.outbound_inspector = flow.sent

    build = Network.__init__

    def tapped(self, *args, **kwargs) -> None:
        build(self, *args, **kwargs)
        self.add_tap(tap)

    monkeypatch.setattr(Network, "__init__", tapped)
    return counts


def test_smoke_crawl_wire_counts(wire, tmp_path, capsys):
    assert not main(CRAWL + ["--cache-dir", str(tmp_path / "cache")])
    assert capsys.readouterr().out.startswith("crawled 16 sites ")
    assert dict(wire) == {
        "connections": 146, "tls_records": 6_764,
        "data_frames": 29_727, "data_bytes": 28_818_092,
        "window_updates": 58_230,
    }


def test_smoke_traffic_wire_counts(wire, tmp_path, capsys):
    assert not main(TRAFFIC + ["--out", str(tmp_path / "agg.jsonl")])
    assert capsys.readouterr().out.startswith("simulated 8 users, ")
    assert dict(wire) == {
        "connections": 109, "tls_records": 4_668,
        "data_frames": 45_674, "data_bytes": 25_993_497,
        "window_updates": 90_252,
    }
