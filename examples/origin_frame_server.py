#!/usr/bin/env python
"""Wire-level demo of the ORIGIN frame (RFC 8336).

Shows the actual protocol mechanics the paper implemented server-side:

1. the server advertises its origin set in an ORIGIN frame on stream 0,
   right after SETTINGS;
2. the client coalesces a request for an advertised hostname onto the
   existing connection (SNI != Host -- the paper's passive flag bit);
3. a request for an authority the server is *not* configured for draws
   a ``421 Misdirected Request``;
4. an ORIGIN-unaware client ignores the frame and keeps working
   (fail-open).

Run:  python examples/origin_frame_server.py
"""

import numpy as np

from repro.h2 import H2ClientSession, H2Server, ServerConfig, TlsClientConfig
from repro.h2 import frames
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


def main():
    network = Network(
        loop=EventLoop(),
        latency=LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                              bandwidth_bpms=1e5)),
    )
    ca = CertificateAuthority("Demo CA", rng=np.random.default_rng(3))
    trust = TrustStore([ca])

    edge = network.add_host(Host("edge", "cdn", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "home", ["10.9.0.1"]))

    cert = ca.issue(
        "www.example.com",
        ("www.example.com", "thirdparty.cdn.com"),
    )
    origin_set = ("https://thirdparty.cdn.com",)
    server = H2Server(network, edge, ServerConfig(
        chains=[ca.chain_for(cert)],
        serves=["www.example.com", "thirdparty.cdn.com"],
        origin_sets={"*": origin_set},
    ))
    server.listen_all()

    # --- The frame itself, on the wire -------------------------------
    wire = bytearray()
    frames.pack_frame(wire, frames.TYPE_ORIGIN, 0, 0,
                      frames.encode_origin(origin_set))
    print("ORIGIN frame bytes:", wire.hex(" "))
    word, _, stream_id = frames.HEADER_STRUCT.unpack_from(wire)
    origins = frames.decode_origin(0, bytes(wire[frames.FRAME_HEADER_LEN:]))
    print(f"  type=0x{word & 0xFF:X} stream={stream_id} "
          f"origins={list(origins)}\n")

    # --- An ORIGIN-aware client --------------------------------------
    tls = TlsClientConfig(
        sni="www.example.com", trust_store=trust, authorities=[ca],
        now=network.loop.now,
    )
    session = H2ClientSession(network, client_host, "10.0.0.1", tls)
    session.on_origin_received = lambda origins: print(
        f"client received ORIGIN: {list(origins)}"
    )

    responses = []

    def go():
        session.request("www.example.com", "/", responses.append)
        # Coalesced: same connection, different authority.
        session.request("thirdparty.cdn.com", "/lib.js",
                        responses.append)
        # Misconfigured: in nobody's serves list -> 421.
        session.request("unknown.example.net", "/", responses.append)

    session.connect(on_ready=go)
    network.loop.run_until_idle()

    for response in responses:
        print(f"  {response.authority:22s} -> {response.status}")
    print(f"server accepted {server.stats.connections} connection(s), "
          f"answered {server.stats.requests} requests, "
          f"{server.stats.misdirected} misdirected\n")

    # --- An ORIGIN-unaware client fails open --------------------------
    legacy = H2ClientSession(network, client_host, "10.0.0.1", tls,
                             origin_aware=False)
    legacy_responses = []
    legacy.connect(
        on_ready=lambda: legacy.request("www.example.com", "/",
                                        legacy_responses.append)
    )
    network.loop.run_until_idle()
    print("legacy (ORIGIN-unaware) client: origin set "
          f"{set(legacy.origin_set) or '{}'} -- request status "
          f"{legacy_responses[0].status} (fail-open, RFC 7540 §4.1)")


if __name__ == "__main__":
    main()
