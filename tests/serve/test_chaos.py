"""Chaos acceptance: kill -9 real journaled servers under hostile load.

The campaign boots ``python -m repro serve`` subprocesses, drives them
with resilient clients (through the fault-injecting proxy, a placer
front-end, or an open-loop storm), SIGKILLs or rolls them mid-load, and
then asserts the recovery contract: a clean online sanitizer and not one
byte of leaked capacity.  Every schedule row runs here at a small size;
the verdict table and the abort path are pinned separately.
"""

import asyncio
import dataclasses

import pytest

from repro.cli import build_parser
from repro.experiments.metrics import summarize_samples
from repro.serve import chaos
from repro.serve.chaos import (
    SCHEDULES,
    ChaosConfig,
    ChaosProxy,
    ChaosReport,
    ServerProcess,
    run_chaos,
)
from repro.serve.loadgen import LoadgenReport

#: seeded and deliberately vicious: roughly one frame in five is mangled
CAMPAIGN = ChaosConfig(
    seed=1701,
    duration_s=6.5,
    clients=6,
    kills=2,
    kill_interval_s=1.2,
    drop_rate=0.02,
    delay_rate=0.18,
    delay_max_s=0.005,
    duplicate_rate=0.02,
    truncate_rate=0.004,
    sever_rate=0.003,
    lease_ttl_s=1.0,
    lease_check_s=0.1,
    park_timeout_s=2.0,
)

#: the other schedules at the smallest size that passes reliably
SMALL = dict(shards=2, clients=2, duration_s=1.0, kills=1,
             kill_interval_s=0.5, lease_ttl_s=1.0, rolling_grace_s=1.0)


class TestChaosCampaign:
    def test_kill_restart_campaign_recovers_with_zero_leakage(self, tmp_path):
        report = asyncio.run(run_chaos(CAMPAIGN, str(tmp_path)))
        detail = "\n".join(
            [report.describe(), *report.server_output[-10:]]
        )

        # the campaign actually hurt: kills happened, faults landed in
        # volume (the exact count tracks traffic throughput, which varies
        # with machine speed — assert the order of magnitude, not a margin)
        assert report.kills == CAMPAIGN.kills, detail
        assert report.faults_total >= 100, detail
        assert report.load.reconnects > 0, detail
        assert report.replayed_periods_last_boot >= 0, detail

        # ... and the service recovered completely
        assert report.settled, detail
        assert report.final_open_periods == 0, detail
        assert report.final_usage_bytes == 0, detail
        assert report.final_waiting == 0, detail
        assert report.sanitizer_ok is True, detail
        assert report.server_exit_code == 0, detail
        assert report.ok, detail

        # progress was made despite the abuse
        assert report.load.admitted > 0, detail

        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["faults_total"] == report.faults_total

    @pytest.mark.parametrize(
        "campaign", ["shard-kill", "supervised", "rolling", "overload"]
    )
    def test_every_schedule_recovers(self, tmp_path, campaign):
        cfg = ChaosConfig(campaign=campaign, **SMALL)
        report = asyncio.run(run_chaos(cfg, str(tmp_path)))
        detail = "\n".join([report.describe(), *report.server_output[-10:]])

        assert report.ok, detail
        if campaign == "shard-kill":
            assert report.kills == cfg.kills, detail
        elif campaign == "supervised":
            assert report.shard_restarts > 0, detail
        elif campaign == "rolling":
            assert report.rolled_shards == report.shards == cfg.shards, detail
        else:
            assert report.load.admission_latency.count > 0, detail
            assert report.p99_observed_s <= report.p99_bound_s, detail

    @pytest.mark.parametrize("campaign", sorted(SCHEDULES))
    def test_cancelled_campaign_leaves_no_server_running(
        self, tmp_path, monkeypatch, campaign
    ):
        servers = []
        load_started = asyncio.Event()
        real_start = ServerProcess.start
        real_loadgen = chaos.run_loadgen

        async def tracking_start(self):
            servers.append(self)
            await real_start(self)

        async def signalling_loadgen(*args, **kwargs):
            load_started.set()
            return await real_loadgen(*args, **kwargs)

        monkeypatch.setattr(ServerProcess, "start", tracking_start)
        monkeypatch.setattr(chaos, "run_loadgen", signalling_loadgen)

        async def scenario():
            cfg = ChaosConfig(
                campaign=campaign, **{**SMALL, "duration_s": 5.0}
            )
            task = asyncio.ensure_future(run_chaos(cfg, str(tmp_path)))
            await asyncio.wait_for(load_started.wait(), timeout=30.0)
            await asyncio.sleep(0.3)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            alive = [
                s.socket_path for s in servers if s.proc.returncode is None
            ]
            for server in servers:
                if server.proc.returncode is None:
                    server.kill()
                    await server.wait(timeout_s=5.0)
            return alive

        assert asyncio.run(scenario()) == []
        assert servers


def _report(campaign, **changes):
    """A healthy 3-shard report under ``campaign``, then ``changes``."""
    load_changes = {
        k: changes.pop(k) for k in ("lost_periods", "sheds_without_hint")
        if k in changes
    }
    counts = {
        f.name: 0 for f in dataclasses.fields(LoadgenReport)
        if f.type in ("int", int)
    }
    load = LoadgenReport(
        **{**counts, **load_changes},
        mode="closed", wall_s=1.0, throughput_pps=10.0,
        admission_latency=summarize_samples([0.01] * 10),
        park_time=summarize_samples([]),
        utilization_mean=0.5, utilization_peak=1.0,
    )
    report = ChaosReport(
        seed=0, wall_s=1.0, kills=2,
        faults=dict.fromkeys(chaos.FAULT_KINDS, 0),
        faults_total=0, proxy_connections=0, load=load,
        replayed_periods_last_boot=0, settled=True, settle_s=0.0,
        final_open_periods=0, final_usage_bytes=0, final_waiting=0,
        sanitizer_ok=True, server_exit_code=0, campaign=campaign,
        shards=3, shard_restarts=2, shards_alive_final=3,
        shards_quarantined=0, rolled_shards=3, p99_bound_s=5.0,
        p99_observed_s=0.5,
    )
    return dataclasses.replace(report, **changes)


class TestChaosVerdicts:
    @pytest.mark.parametrize("campaign, breach", [
        ("supervised", {"shard_restarts": 0}),
        ("supervised", {"shards_quarantined": 1}),
        ("rolling", {"lost_periods": 1}),
        ("rolling", {"rolled_shards": 2}),
        ("overload", {"sheds_without_hint": 1}),
        ("overload", {"p99_observed_s": 6.0}),
    ])
    def test_each_extra_verdict_can_fail_a_report(self, campaign, breach):
        assert _report(campaign).ok
        assert not _report(campaign, **breach).ok
        # the base contract alone does not look at these numbers
        assert _report("kill", **breach).ok

    @pytest.mark.parametrize("campaign, header", [
        ("kill", "chaos campaign ("),
        ("shard-kill", "cluster chaos campaign ("),
        ("supervised", "supervised cluster campaign ("),
        ("rolling", "rolling restart campaign ("),
        ("overload", "overload campaign ("),
    ])
    def test_describe_header_names_the_schedule(self, campaign, header):
        first = _report(campaign).describe().splitlines()[0]
        assert first.startswith(header)
        payload = _report(campaign).to_dict()
        assert payload["campaign"] == campaign
        for flag in ("supervised", "rolling", "overload"):
            assert payload[flag] is (campaign == flag)


class TestChaosProxyFaults:
    def test_seeded_fault_schedule_is_deterministic(self, tmp_path):
        # the proxy's RNG is seeded: same seed → same fault decisions,
        # which is what makes a failing campaign replayable
        import random

        cfg = ChaosConfig(seed=5, drop_rate=0.1, delay_rate=0.0,
                          duplicate_rate=0.1, truncate_rate=0.0,
                          sever_rate=0.0)

        def schedule(seed, n=1000):
            rng = random.Random(seed)
            out = []
            for _ in range(n):
                r = rng.random()
                if r < cfg.drop_rate:
                    out.append("drop")
                elif r < cfg.drop_rate + cfg.duplicate_rate:
                    out.append("dup")
                else:
                    out.append("fwd")
            return out

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_proxy_forwards_clean_traffic_verbatim(self, tmp_path):
        async def scenario():
            backend_path = str(tmp_path / "backend.sock")
            front_path = str(tmp_path / "front.sock")

            async def echo(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    writer.write(line)
                    await writer.drain()
                writer.close()

            backend = await asyncio.start_unix_server(echo, path=backend_path)
            cfg = ChaosConfig(drop_rate=0.0, delay_rate=0.0,
                              duplicate_rate=0.0, truncate_rate=0.0,
                              sever_rate=0.0)
            proxy = ChaosProxy(front_path, backend_path, cfg)
            await proxy.start()

            reader, writer = await asyncio.open_unix_connection(front_path)
            for i in range(20):
                writer.write(f"ping {i}\n".encode())
                await writer.drain()
                assert await reader.readline() == f"ping {i}\n".encode()
            assert proxy.faults_total == 0
            assert proxy.connections == 1

            writer.close()
            await proxy.close()
            backend.close()
            await backend.wait_closed()

        asyncio.run(scenario())


class TestChaosCli:
    def test_chaos_flags_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--seed", "9", "--kills", "3", "--duration", "4",
             "--kill-interval", "0.7", "--clients", "5", "--json"]
        )
        assert args.command == "chaos"
        assert (args.seed, args.kills, args.clients) == (9, 3, 5)
        assert args.duration == 4.0 and args.kill_interval == 0.7
        assert args.json is True

    def test_serve_journal_and_lease_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "/tmp/j.ndjson", "--journal-fsync",
             "0.05", "--lease-ttl", "2.5", "--lease-check", "0.1"]
        )
        assert args.journal == "/tmp/j.ndjson"
        assert args.journal_fsync == 0.05
        assert args.lease_ttl == 2.5 and args.lease_check == 0.1

    def test_loadgen_resilient_flag_parses(self):
        args = build_parser().parse_args(
            ["loadgen", "--socket", "x.sock", "--resilient"]
        )
        assert args.resilient is True

    def test_supervise_and_rolling_flags_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--cluster", "--supervise", "--shards", "2"]
        )
        assert args.cluster is True and args.supervise is True
        assert args.shards == 2
        args = build_parser().parse_args(
            ["chaos", "--rolling", "--rolling-grace", "1.5"]
        )
        assert args.rolling is True and args.rolling_grace == 1.5

    def test_serve_lifecycle_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "3", "--socket", "s.sock",
             "--rebalance-fragmentation", "0.4", "--no-supervise"]
        )
        assert args.rebalance_fragmentation == 0.4
        assert args.no_supervise is True
