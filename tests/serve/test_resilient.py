"""ResilientServeClient: reconnects, idempotent re-issue, bounded calls."""

import asyncio
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.resilient import ResilientServeClient
from repro.serve.server import AdmissionServer, ServeConfig

CAPACITY_MB = 4.0


def tiny_machine(capacity_mb: float = CAPACITY_MB):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def server_cfg(tmp_path, **kwargs) -> ServeConfig:
    defaults = dict(
        policy=StrictPolicy(),
        machine=tiny_machine(),
        sanitize=True,
        journal_path=str(tmp_path / "admission.ndjson"),
        lease_ttl_s=10.0,
    )
    defaults.update(kwargs)
    return ServeConfig(**defaults)


class TestResilience:
    def test_survives_a_server_crash_and_restart(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = AdmissionServer(server_cfg(tmp_path))
            await server.start(unix_path=sock)

            client = ResilientServeClient(
                unix_path=sock, client_id="phoenix",
                backoff_base_s=0.01, max_attempts=20,
            )
            begun = await client.pp_begin(MB(2))
            assert begun["admitted"] is True

            await server.abort()
            reborn = AdmissionServer(server_cfg(tmp_path))
            await reborn.start(unix_path=sock)

            # the next call reconnects, re-hellos and just works; the
            # replayed period is still charged on the reborn server
            q = await client.query()
            assert client.reconnects >= 1
            assert q["open_periods"] == 1
            assert reborn.service.replayed_periods == 1

            done = await client.pp_end(begun["pp_id"])
            assert done.get("lost") is None
            await client.close()
            await reborn.abort()
            assert reborn.service.sanitizer.ok

        asyncio.run(scenario())

    def test_token_reissue_dedupes(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = AdmissionServer(server_cfg(tmp_path))
            await server.start(unix_path=sock)
            client = ResilientServeClient(unix_path=sock, client_id="dup")
            first = await client.pp_begin(MB(1), token="same-token")
            again = await client.pp_begin(MB(1), token="same-token")
            assert again["pp_id"] == first["pp_id"]
            assert again["deduped"] is True
            assert client.deduped == 1
            # charged once, not twice
            usage = sum(
                s["usage_bytes"]
                for s in server.service.snapshot()["resources"].values()
            )
            assert usage == MB(1)
            await client.pp_end(first["pp_id"])
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_lost_period_yields_marker_not_exception(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = AdmissionServer(server_cfg(tmp_path))
            await server.start(unix_path=sock)
            client = ResilientServeClient(unix_path=sock, client_id="loser")
            await client.connect()
            gone = await client.pp_end(424242)
            assert gone["lost"] is True
            assert client.lost_periods == 1
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_close_is_idempotent_even_with_server_gone(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = AdmissionServer(server_cfg(tmp_path))
            await server.start(unix_path=sock)
            client = ResilientServeClient(unix_path=sock, client_id="bye")
            await client.connect()
            await server.abort()
            await client.close()
            await client.close()
            with pytest.raises(ServeError):
                await client.query()

        asyncio.run(scenario())

    def test_unreachable_server_fails_fast_with_serve_error(self, tmp_path):
        async def scenario():
            client = ResilientServeClient(
                unix_path=str(tmp_path / "nothing.sock"),
                connect_timeout_s=0.2, max_attempts=2, backoff_base_s=0.01,
            )
            with pytest.raises(ServeError):
                await client.connect()

        asyncio.run(scenario())

    def test_heartbeats_flow_while_parked(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = AdmissionServer(
                server_cfg(tmp_path, lease_ttl_s=0.4, lease_check_s=0.05)
            )
            await server.start(unix_path=sock)
            holder = ResilientServeClient(unix_path=sock, client_id="holder")
            held = await holder.pp_begin(MB(3))

            parked = ResilientServeClient(unix_path=sock, client_id="parked")
            begin = asyncio.ensure_future(parked.pp_begin(MB(3)))
            # parked well past the lease TTL: the auto-heartbeat (ttl/3)
            # keeps both leases alive, so nothing is reclaimed
            await asyncio.sleep(0.9)
            assert not begin.done()
            assert server.service.c_leases_reclaimed.value == 0
            assert server.service.c_heartbeats.value > 0

            await holder.pp_end(held["pp_id"])
            reply = await asyncio.wait_for(begin, 3.0)
            assert reply["admitted"] is True
            await parked.pp_end(reply["pp_id"])
            await holder.close()
            await parked.close()
            await server.abort()
            assert server.service.sanitizer.ok

        asyncio.run(scenario())


class TestClusterFallback:
    """Redirect-following clients riding out shard deaths (satellite of
    the self-healing cluster work)."""

    async def _cluster(self, tmp_path, n=2):
        import dataclasses

        from repro.serve.cluster import start_local_cluster

        sock = str(tmp_path / "placer.sock")
        cluster = await start_local_cluster(
            ServeConfig(
                policy=StrictPolicy(), machine=tiny_machine(), sanitize=True
            ),
            n, sock, supervise=False,
        )
        cluster.frontend.cfg = dataclasses.replace(
            cluster.frontend.cfg, health_interval_s=0.05
        )
        return cluster, sock

    async def _drain(self, cluster):
        cluster.request_drain()
        return await asyncio.wait_for(cluster.run_until_drained(), 20.0)

    def test_shard_death_resets_the_redirect_budget(self, tmp_path):
        """max_redirects=1 must still survive a shard death: falling
        back to the front-end is a re-placement, not a redirect hop, so
        the budget resets with it."""
        async def scenario():
            cluster, sock = await self._cluster(tmp_path)
            client = ResilientServeClient(
                unix_path=sock, client_id="hopper",
                backoff_base_s=0.01, max_attempts=40, max_redirects=1,
            )
            begun = await client.pp_begin(MB(1))
            assert begun["admitted"] is True
            assert client.redirects == 1
            home = cluster.frontend.placer.assignments["hopper"]
            victim = next(
                s for s in cluster.servers if s.cfg.shard_name == home
            )
            await victim.abort()
            reply = await asyncio.wait_for(client.pp_begin(MB(1)), 15.0)
            assert reply["admitted"] is True
            # more hops than the per-sequence budget allows: every
            # fallback to the front-end reset it
            assert client.redirects >= 2
            assert cluster.frontend.placer.assignments["hopper"] != home
            await client.pp_end(reply["pp_id"])
            await client.close()
            cluster.servers.remove(victim)
            assert await self._drain(cluster) == 0

        asyncio.run(scenario())

    def test_mid_handshake_shard_death_falls_back_to_the_frontend(
        self, tmp_path
    ):
        """The redirected-to address connects but drops the hello (a
        shard dying mid-handshake): the client must go back to the
        front-end instead of hammering the dead shard."""
        async def scenario():
            cluster, sock = await self._cluster(tmp_path)
            client = ResilientServeClient(
                unix_path=sock, client_id="hopper",
                backoff_base_s=0.01, max_attempts=40, max_redirects=1,
            )
            begun = await client.pp_begin(MB(1))
            assert begun["admitted"] is True
            home = cluster.frontend.placer.assignments["hopper"]
            victim = next(
                s for s in cluster.servers if s.cfg.shard_name == home
            )
            await victim.abort()

            # squat on the dead shard's socket with a listener that
            # accepts and immediately hangs up: connects succeed, hellos
            # die — the mid-handshake death path
            async def hangup(reader, writer):
                writer.close()

            squatter = await asyncio.start_unix_server(
                hangup, path=f"{sock}.{home}"
            )
            reply = await asyncio.wait_for(client.pp_begin(MB(1)), 15.0)
            assert reply["admitted"] is True
            assert cluster.frontend.placer.assignments["hopper"] != home
            await client.pp_end(reply["pp_id"])
            await client.close()
            squatter.close()
            await squatter.wait_closed()
            cluster.servers.remove(victim)
            assert await self._drain(cluster) == 0

        asyncio.run(scenario())

    def test_redirect_latency_is_sampled(self, tmp_path):
        async def scenario():
            cluster, sock = await self._cluster(tmp_path)
            client = ResilientServeClient(
                unix_path=sock, client_id="timed",
                backoff_base_s=0.01, max_attempts=10,
            )
            begun = await client.pp_begin(MB(1))
            assert begun["admitted"] is True
            assert len(client.redirect_latency_s) == 1
            assert client.redirect_latency_s[0] > 0.0
            await client.pp_end(begun["pp_id"])
            await client.close()
            assert await self._drain(cluster) == 0

        asyncio.run(scenario())


class TestBackoffFloor:
    def test_retry_after_hint_floors_above_the_cap(self):
        import random

        from repro.serve.resilient import backoff_sleep_s

        rng = random.Random(7)
        # hint far above the client's own cap: the hint must win
        for attempt in range(8):
            s = backoff_sleep_s(
                attempt, base_s=0.01, cap_s=0.5, rng=rng, floor_s=2.0
            )
            assert 2.0 <= s <= 2.0 * 1.25

    def test_cap_applies_without_a_hint(self):
        import random

        from repro.serve.resilient import backoff_sleep_s

        rng = random.Random(7)
        s = backoff_sleep_s(20, base_s=0.01, cap_s=0.5, rng=rng)
        assert s <= 0.5 * 1.25


class TestThinClientBounds:
    def test_call_timeout_raises_and_connection_is_disposable(self, tmp_path):
        async def scenario():
            # a server that accepts and then says nothing
            async def mute(reader, writer):
                await reader.read()

            sock = str(tmp_path / "mute.sock")
            server = await asyncio.start_unix_server(mute, path=sock)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            with pytest.raises(asyncio.TimeoutError):
                await client.call("query", timeout=0.1)
            await client.close()
            await client.close()  # idempotent
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
