#!/usr/bin/env python
"""Quickstart: the paper's figure 4 — over the wire.

``examples/quickstart.py`` runs figure 4 against the in-process scheduling
core; this example runs the same scenario against the **online** admission
service (``repro.serve``, docs/SERVE.md).  A server is booted on a unix
socket, clients connect and wrap their DGEMM in ``pp_begin`` / ``pp_end``
frames, and a denied period parks the *connection* until capacity frees
up — the networked analogue of the kernel parking a process.

The clients here are ``ResilientServeClient``: lease-bound, auto-
reconnecting, idempotent.  Three acts:

1. one client, admitted immediately (figure 4 verbatim),
2. three concurrent 6.3 MB clients against a 14 MB LLC under RDA:Strict —
   two fit, the third parks, then is admitted the moment a peer calls
   ``pp_end``; the live ``stats`` verb shows the park-time histogram, and
3. the server is killed mid-period and rebooted from its admission
   journal — the client reconnects on its next call and the recovered
   ledger still charges its demand, and
4. a client that declares 4 MB but really touches 1 MB reports the truth
   at each ``pp_end`` — after three sessions the server's online demand
   estimator (``--predict``, docs/PREDICTION.md) stops believing the
   declaration and admits the fourth period at the *learned* size.

Run:  python examples/serve_quickstart.py
"""

import asyncio
import tempfile

from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.serve import AdmissionServer, ResilientServeClient, ServeConfig
from repro.cli import _machine_with_capacity


async def figure4_over_the_wire(sock: str) -> None:
    print("=" * 64)
    print("1. pp_begin(RESOURCE_LLC, MB(6.3), REUSE_HIGH) — as a frame")
    print("=" * 64)
    client = ResilientServeClient(unix_path=sock, client_id="quickstart")

    # pp_id = pp_begin(RESOURCE_LLC, MB(6.3), REUSE_HIGH);
    reply = await client.pp_begin(MB(6.3), reuse="high", label="DGEMM")
    print(f"pp_begin -> pp_id {reply['pp_id']}, admitted={reply['admitted']}, "
          f"waited {reply['waited_s']:.3f} s")

    snapshot = await client.query()
    llc = snapshot["resources"]["llc"]
    print(f"LLC load: {llc['usage_bytes'] / 2**20:.1f} / "
          f"{llc['capacity_bytes'] / 2**20:.1f} MiB "
          f"({llc['utilization']:.0%})")

    # ... DGEMM(n, A, B, C) runs here ...

    # pp_end(pp_id);
    await client.pp_end(reply["pp_id"])
    print("pp_end   -> demand released")
    await client.close()


async def contention_parks_the_third_client(sock: str) -> None:
    print()
    print("=" * 64)
    print("2. three 6.3 MB clients, 14 MB LLC, RDA:Strict — one must wait")
    print("=" * 64)
    clients = [
        ResilientServeClient(unix_path=sock, client_id=f"p{i}")
        for i in range(3)
    ]
    begins = [
        asyncio.ensure_future(c.pp_begin(MB(6.3), reuse="high", label=f"p{i}"))
        for i, c in enumerate(clients)
    ]
    await asyncio.sleep(0.2)
    running = [t for t in begins if t.done()]
    parked = [t for t in begins if not t.done()]
    print(f"admitted immediately: {len(running)}; parked: {len(parked)}")

    # the first pp_end frees 6.3 MB and admits the parked begin
    first = running[0].result()
    await clients[begins.index(running[0])].pp_end(first["pp_id"])
    woken = await asyncio.wait_for(parked[0], 5.0)
    print(f"after one pp_end, the parked client was admitted "
          f"(waited {woken['waited_s']:.3f} s)")

    for task in begins:
        if task is not running[0]:
            reply = task.result()
            await clients[begins.index(task)].pp_end(reply["pp_id"])

    stats = await clients[0].stats()
    park = stats["histograms"]["park_time_s"]
    print(f"server park-time histogram: count={park['count']}, "
          f"p99={park['p99']:.3f} s")
    for client in clients:
        await client.close()


async def crash_and_recover(server: AdmissionServer, sock: str,
                            make_config) -> AdmissionServer:
    print()
    print("=" * 64)
    print("3. kill -9 the server mid-period; reboot it from the journal")
    print("=" * 64)
    client = ResilientServeClient(
        unix_path=sock, client_id="survivor", backoff_base_s=0.05
    )
    reply = await client.pp_begin(MB(6.3), reuse="high", label="survivor")
    print(f"pp_begin -> pp_id {reply['pp_id']} admitted, then... crash")

    await server.abort()  # hard stop: no goodbye frames, journal unsynced
    reborn = AdmissionServer(make_config())
    await reborn.start(unix_path=sock)
    print(f"rebooted: {reborn.service.replayed_periods} period(s) replayed "
          f"from the journal")

    # the same client object just keeps working: its next call
    # reconnects, re-hellos as "survivor", and finds its period charged
    snapshot = await client.query()
    llc = snapshot["resources"]["llc"]
    print(f"after recovery the LLC still charges "
          f"{llc['usage_bytes'] / 2**20:.1f} MiB "
          f"(reconnects: {client.reconnects})")

    await client.pp_end(reply["pp_id"])
    print("pp_end   -> recovered demand released")
    await client.close()
    return reborn


async def prediction_corrects_a_liar(sock: str) -> None:
    print()
    print("=" * 64)
    print("4. declare 4 MB, touch 1 MB — the estimator learns the truth")
    print("=" * 64)
    client = ResilientServeClient(unix_path=sock, client_id="liar")

    # three honest-on-close sessions teach the server this client's
    # declarations run 4x hot for the "dgemm-small" working set
    for _ in range(3):
        reply = await client.pp_begin(MB(4), reuse="high", label="dgemm-small")
        await client.pp_end(reply["pp_id"], observed_bytes=MB(1))

    reply = await client.pp_begin(MB(4), reuse="high", label="dgemm-small")
    snapshot = await client.query()
    charged = snapshot["resources"]["llc"]["usage_bytes"]
    stats = await client.stats()
    predicted = stats["counters"]["predicted_admits_total"]
    print(f"4th pp_begin declared {MB(4) / 2**20:.0f} MiB but charged only "
          f"{charged / 2**20:.0f} MiB "
          f"(predicted_admits_total={predicted})")

    await client.pp_end(reply["pp_id"], observed_bytes=MB(1))
    await client.close()


async def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        sock = f"{tmp}/rda.sock"

        def make_config() -> ServeConfig:
            return ServeConfig(
                policy=StrictPolicy(),
                machine=_machine_with_capacity(14.0),
                journal_path=f"{tmp}/admission.ndjson",
                predict=True,
            )

        server = AdmissionServer(make_config())
        await server.start(unix_path=sock)
        try:
            await figure4_over_the_wire(sock)
            await contention_parks_the_third_client(sock)
            server = await crash_and_recover(server, sock, make_config)
            await prediction_corrects_a_liar(sock)
        finally:
            server.request_drain()
            await server.run_until_drained()


if __name__ == "__main__":
    asyncio.run(main())
