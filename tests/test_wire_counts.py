"""What the body path puts on the wire, counted, for two pinned runs.

Chaos faults are scheduled on the simulated clock and every golden
artifact depends on when bytes leave, so the cadence of the h2 body
path is pinned here twice over.  A tap on every TCP connection counts
the TLS records each side sends and the DATA and WINDOW_UPDATE frames
inside them for the 16-site smoke crawl and the 8-user smoke traffic
run (the ``benchmarks/perf`` smoke sizes); a change that coalesces,
splits or drops a frame moves the totals, and has to say so.  And the
tap checks the shape the browsers' flow control gives the wire
(DESIGN.md §7): with a 15 MiB session window and 6 MiB stream windows
open, a server cuts every body into ``MAX_FRAME_SIZE`` frames and a
last one, and a client that acks at half a window sends the
session-window raise of its first flight and next to nothing after.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.h2 import frames as fr
from repro.h2.settings import DEFAULT_SETTINGS, SettingId
from repro.netsim.network import Network
from repro.transport.framing import REC_APPDATA, REC_SHELLO, parse_records

MAX_FRAME_SIZE = DEFAULT_SETTINGS[SettingId.MAX_FRAME_SIZE]

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
        self.window_updates = 0

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
            word, flags, _ = fr.HEADER_STRUCT.unpack_from(payload, offset)
            offset += fr.FRAME_HEADER_LEN + (word >> 8)
            if word & 0xFF == fr.TYPE_DATA:
                counts["data_frames"] += 1
                counts["data_bytes"] += word >> 8
                assert word >> 8 == MAX_FRAME_SIZE \
                    or flags & fr.FLAG_END_STREAM, \
                    "a DATA frame is full or the last of its body"
            elif word & 0xFF == fr.TYPE_WINDOW_UPDATE:
                counts["window_updates"] += 1
                self.window_updates += 1
                assert self.window_updates <= 2, \
                    "the session-window raise and at most one ack"
        assert offset == len(payload), "a record is whole h2 frames"


def tap_every_network(monkeypatch, tap) -> None:
    """Install ``tap`` on every network built from here on."""
    build = Network.__init__

    def tapped(self, *args, **kwargs) -> None:
        build(self, *args, **kwargs)
        self.add_tap(tap)

    monkeypatch.setattr(Network, "__init__", tapped)


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

    tap_every_network(monkeypatch, tap)
    return counts


def test_smoke_crawl_wire_counts(wire, tmp_path, capsys):
    """Before the browsers' windows this crawl moved the same
    ``data_bytes`` as 29 727 DATA frames answered by 58 230
    WINDOW_UPDATEs, in 6 764 TLS records."""
    assert not main(CRAWL + ["--cache-dir", str(tmp_path / "cache")])
    assert capsys.readouterr().out.startswith("crawled 16 sites ")
    assert dict(wire) == {
        "connections": 148, "tls_records": 3_957,
        "data_frames": 2_433, "data_bytes": 28_818_092,
        "window_updates": 133,  # one raise per established h2 session
    }


def test_smoke_traffic_wire_counts(wire, tmp_path, capsys):
    """A run bounded by simulated time, so faster transfers change how
    much is fetched (was 45 674 DATA frames, 90 252 WINDOW_UPDATEs)."""
    assert not main(TRAFFIC + ["--out", str(tmp_path / "agg.jsonl")])
    assert capsys.readouterr().out.startswith("simulated 8 users, ")
    assert dict(wire) == {
        "connections": 104, "tls_records": 3_022,
        "data_frames": 2_008, "data_bytes": 23_722_137,
        "window_updates": 87,
    }
