"""Chaos harness for the admission service: prove the fault layer works.

The fault-tolerance claims of :mod:`repro.serve` — crash-safe journal,
client leases, idempotent re-issue, shard supervision, overload shedding —
are only as good as their worst recovery path, so this module attacks
them with one campaign runner driven by a schedule table:

* **Fault-injecting proxy.**  :class:`ChaosProxy` sits between clients and
  the server and mangles the NDJSON stream line by line with a seeded RNG:
  frames are dropped, delayed, duplicated, truncated mid-line (with the
  connection severed, the classic torn write) or the connection is severed
  outright.
* **Campaign runner.**  :func:`run_chaos` looks up ``cfg.campaign`` in
  :data:`SCHEDULES`.  Each row names a topology (one server behind the
  proxy, one bare server, or N shards behind a placer front-end), a load
  (closed resilient clients or an open-loop storm with slow consumers), a
  fault (timed SIGKILLs or one rolling restart) and an extra verdict.
  Every row boots real ``python -m repro serve --journal --sanitize``
  subprocesses and runs the same settle, verdict and teardown.
* **Verdict.**  After the load completes, the campaign waits for the
  system to settle (the lease reaper reclaims what dead clients left
  behind), then asserts the recovery contract: zero open periods, zero
  admitted demand, a clean online sanitizer, and a zero exit code from
  every drained server.  Any leaked byte of capacity fails the campaign.

Entry point: ``python -m repro chaos``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError, ServeError
from .client import ServeClient
from .cluster import ClusterConfig, ClusterFrontend
from .loadgen import LoadgenConfig, LoadgenReport, fig4_scripts, run_loadgen
from .placer import ShardAddress

__all__ = [
    "FAULT_KINDS",
    "SCHEDULES",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosReport",
    "Schedule",
    "ServerProcess",
    "run_chaos",
    "run_chaos_sync",
]

#: fault kinds the proxy can inject, in threshold order
FAULT_KINDS = ("drop", "delay", "duplicate", "truncate", "sever")

#: synthetic session shape: figure-4 single-period sessions of this demand
DEMAND_MB = 2.0
#: server journal fsync interval (0 = fsync every append)
JOURNAL_FSYNC_S = 0.0
#: how long recovery may take to reach quiescence after the load
SETTLE_TIMEOUT_S = 15.0
#: how long one server (re)start may take
SERVER_START_TIMEOUT_S = 15.0
#: the overload row's park deadline (also bounds its clients' begin wait)
OVERLOAD_PARK_DEADLINE_S = 1.0


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign."""

    #: row of :data:`SCHEDULES` to run
    campaign: str = "kill"
    #: RNG seed for the proxy's fault schedule and the load
    seed: int = 0
    #: wall-clock budget for the load phase
    duration_s: float = 6.0
    #: concurrent resilient clients (closed-loop rows)
    clients: int = 4
    #: SIGKILL cycles to inflict during the load
    kills: int = 2
    #: gap between kills (first kill fires this long after start)
    kill_interval_s: float = 1.5
    #: per-line fault probabilities (applied in both directions)
    drop_rate: float = 0.01
    delay_rate: float = 0.05
    delay_max_s: float = 0.01
    duplicate_rate: float = 0.01
    truncate_rate: float = 0.003
    sever_rate: float = 0.002
    #: server shape
    policy: str = "strict"
    capacity_mb: float = 8.0
    lease_ttl_s: float = 1.5
    lease_check_s: float = 0.1
    park_timeout_s: float = 2.0
    #: cluster rows: admission shards behind a placer front-end
    shards: int = 3
    #: rolling row: per-shard grace for running periods
    rolling_grace_s: float = 3.0
    #: overload row: open-loop storm arrivals per second
    storm_rate: float = 150.0
    #: overload row: concurrent slow consumers that never read replies
    slowloris: int = 2
    #: overload row: admitted calls must keep p99 latency under this
    p99_bound_s: float = 5.0
    #: resilient clients: transport backoff ceiling (None keeps the
    #: client's own default) and circuit-breaker threshold/reset
    backoff_cap_s: Optional[float] = None
    breaker_threshold: Optional[int] = None
    breaker_reset_s: float = 0.2


@dataclass(frozen=True)
class Schedule:
    """One campaign: what runs, what breaks, and what else is judged."""

    #: first words of :meth:`ChaosReport.describe`
    header: str
    #: "proxy" (one server behind :class:`ChaosProxy`), "bare" (one
    #: server) or "cluster" (N shards behind a placer front-end)
    topology: str
    #: "closed" (resilient clients; redirect-following on a cluster) or
    #: "storm" (open-loop arrivals plus slow consumers)
    load: str
    #: "kill" (timed SIGKILLs, round robin over the servers) or "roll"
    #: (one rolling restart of every shard)
    fault: str
    #: the front-end's supervisor restarts shards (else the harness does)
    supervised: bool = False
    #: extra verdict in :data:`_EXTRA_VERDICTS` ("" = none)
    verdict: str = ""
    #: hold time of every scripted period
    hold_s: float = 0.01
    #: extra ``serve`` flags for every server of the campaign
    serve_flags: Tuple[str, ...] = ()


SCHEDULES: Dict[str, Schedule] = {
    "kill": Schedule("chaos campaign", "proxy", "closed", "kill"),
    "shard-kill": Schedule(
        "cluster chaos campaign", "cluster", "closed", "kill"
    ),
    "supervised": Schedule(
        "supervised cluster campaign", "cluster", "closed", "kill",
        supervised=True, verdict="supervised",
    ),
    "rolling": Schedule(
        "rolling restart campaign", "cluster", "closed", "roll",
        supervised=True, verdict="rolling",
    ),
    # Every overload defense armed tight so the storm trips each one
    # within a short campaign.  150 ms holds put 150 arrivals/s of 2 MB at
    # ~5-6x an 8 MB machine's capacity; at 10 ms nothing would shed.
    "overload": Schedule(
        "overload campaign", "bare", "storm", "kill", verdict="overload",
        hold_s=0.15,
        serve_flags=(
            "--max-pending", "16",
            "--retry-hint-floor", "0.05",
            "--retry-hint-cap", "2.0",
            "--park-deadline", str(OVERLOAD_PARK_DEADLINE_S),
            "--max-pending-per-client", "2",
            "--write-timeout", "1.0",
        ),
    ),
}


class ChaosProxy:
    """Line-oriented fault-injecting proxy over unix sockets.

    Forwards newline-delimited frames between each client connection and a
    fresh backend connection, injecting faults per line from a seeded RNG,
    so a campaign's entire fault schedule replays from its seed.
    """

    def __init__(
        self,
        listen_path: str,
        backend_path: str,
        cfg: ChaosConfig,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.listen_path = listen_path
        self.backend_path = backend_path
        self.cfg = cfg
        self.rng = rng if rng is not None else random.Random(cfg.seed)
        self.faults: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pairs: set = set()

    @property
    def faults_total(self) -> int:
        return sum(self.faults.values())

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.listen_path, limit=256 * 1024
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        self.sever_all()
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)

    def sever_all(self) -> None:
        """Hard-drop every proxied connection (used at server kill time)."""
        for pair in list(self._pairs):
            self._abort_pair(pair)

    def _abort_pair(self, pair: Tuple[asyncio.StreamWriter, ...]) -> None:
        for writer in pair:
            with contextlib.suppress(Exception):
                writer.transport.abort()

    # ------------------------------------------------------------------
    async def _handle(
        self, creader: asyncio.StreamReader, cwriter: asyncio.StreamWriter
    ) -> None:
        try:
            breader, bwriter = await asyncio.open_unix_connection(
                self.backend_path, limit=256 * 1024
            )
        except OSError:
            # Backend down (mid-restart): the client sees a hard reset and
            # its resilient layer backs off and retries.
            with contextlib.suppress(Exception):
                cwriter.transport.abort()
            return
        self.connections += 1
        pair = (cwriter, bwriter)
        self._pairs.add(pair)
        try:
            await asyncio.gather(
                self._pump(creader, bwriter, pair),
                self._pump(breader, cwriter, pair),
                return_exceptions=True,
            )
        finally:
            self._pairs.discard(pair)
            for writer in pair:
                with contextlib.suppress(Exception):
                    writer.close()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pair: Tuple[asyncio.StreamWriter, ...],
    ) -> None:
        cfg = self.cfg
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                r = self.rng.random()
                threshold = cfg.drop_rate
                if r < threshold:
                    self.faults["drop"] += 1
                    continue
                threshold += cfg.delay_rate
                if r < threshold:
                    self.faults["delay"] += 1
                    await asyncio.sleep(self.rng.random() * cfg.delay_max_s)
                    writer.write(line)
                    await writer.drain()
                    continue
                threshold += cfg.duplicate_rate
                if r < threshold:
                    # Requests dedupe by idempotency token; replies dedupe
                    # by request id — a doubled frame must be harmless.
                    self.faults["duplicate"] += 1
                    writer.write(line + line)
                    await writer.drain()
                    continue
                threshold += cfg.truncate_rate
                if r < threshold:
                    # The torn write: half a frame, then a dead socket.
                    self.faults["truncate"] += 1
                    writer.write(line[: max(1, len(line) // 2)])
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    self._abort_pair(pair)
                    return
                threshold += cfg.sever_rate
                if r < threshold:
                    self.faults["sever"] += 1
                    self._abort_pair(pair)
                    return
                writer.write(line)
                await writer.drain()
        except (ConnectionError, OSError, ValueError, asyncio.CancelledError):
            pass
        finally:
            # Propagate EOF so the peer's read loop terminates cleanly.
            with contextlib.suppress(Exception):
                writer.close()


class ServerProcess:
    """One ``python -m repro serve`` subprocess bound to a journal.

    Restartable: after :meth:`kill`, :meth:`start` boots a fresh process
    that replays the same journal — the unit the chaos campaign cycles.
    """

    def __init__(
        self, socket_path: str, journal_path: str, cfg: ChaosConfig
    ) -> None:
        self.socket_path = socket_path
        self.journal_path = journal_path
        self.cfg = cfg
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.output: List[str] = []
        self._drain_task: Optional[asyncio.Task] = None

    def _argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--policy", self.cfg.policy,
            "--capacity-mb", str(self.cfg.capacity_mb),
            "--journal", self.journal_path,
            "--journal-fsync", str(JOURNAL_FSYNC_S),
            "--lease-ttl", str(self.cfg.lease_ttl_s),
            "--lease-check", str(self.cfg.lease_check_s),
            "--park-timeout", str(self.cfg.park_timeout_s),
            "--drain-grace", "3.0",
            "--sanitize",
            *SCHEDULES[self.cfg.campaign].serve_flags,
        ]

    async def start(self) -> None:
        env = dict(os.environ)
        # Make ``-m repro`` resolve to *this* tree no matter how the
        # parent was launched (pytest from a checkout, an installed CLI…).
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = await asyncio.create_subprocess_exec(
            *self._argv(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        self._drain_task = asyncio.ensure_future(self._drain_output())
        await self._wait_ready()

    async def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        try:
            while True:
                line = await self.proc.stdout.readline()
                if not line:
                    break
                self.output.append(line.decode(errors="replace").rstrip())
        except (ConnectionError, ValueError, asyncio.CancelledError):
            pass

    async def _wait_ready(self) -> None:
        assert self.proc is not None
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.returncode is not None:
                raise ServeError(
                    f"server exited {self.proc.returncode} during startup:\n"
                    + "\n".join(self.output[-10:])
                )
            if os.path.exists(self.socket_path):
                try:
                    probe = await ServeClient.connect(
                        unix_path=self.socket_path, timeout=1.0
                    )
                    try:
                        await probe.query(timeout=1.0)
                    finally:
                        await probe.close()
                    return
                except (ReproError, OSError, asyncio.TimeoutError):
                    pass
            await asyncio.sleep(0.05)
        raise ServeError(
            f"server not ready within {SERVER_START_TIMEOUT_S} s"
        )

    def kill(self) -> None:
        """SIGKILL — no drain, no journal flush, no goodbye."""
        assert self.proc is not None
        with contextlib.suppress(ProcessLookupError):
            self.proc.send_signal(signal.SIGKILL)

    async def wait(self, timeout_s: Optional[float] = None) -> int:
        assert self.proc is not None
        if timeout_s is None:
            code = await self.proc.wait()
        else:
            code = await asyncio.wait_for(self.proc.wait(), timeout=timeout_s)
        if self._drain_task is not None:
            with contextlib.suppress(Exception):
                await self._drain_task
            self._drain_task = None
        return code



def _supervised_ok(r: "ChaosReport") -> bool:
    # Self-healing contract: every kill was healed by the supervisor
    # (capacity recovered to N shards alive) and nothing got stuck in
    # quarantine.
    return (
        r.shard_restarts > 0
        and r.shards_alive_final == r.shards
        and r.shards_quarantined == 0
    )


def _rolling_ok(r: "ChaosReport") -> bool:
    # Rolling-restart contract: every shard completed its drain+restart
    # cycle and no admitted period was lost.
    return (
        r.rolled_shards == r.shards
        and r.shards_alive_final == r.shards
        and r.load.lost_periods == 0
    )


def _overload_ok(r: "ChaosReport") -> bool:
    # Degradation contract: admitted calls stay fast, every shed reply
    # carries a retry hint, and dead slow consumers' leases are reclaimed
    # (no leaked clients).
    return (
        r.load.sheds_without_hint == 0
        and r.final_clients == 0
        and r.load.admission_latency.count > 0
        and r.p99_observed_s is not None
        and r.p99_observed_s <= r.p99_bound_s
    )


#: verdict extensions a schedule row can name, on top of the base contract
_EXTRA_VERDICTS = {
    "": lambda r: True,
    "supervised": _supervised_ok,
    "rolling": _rolling_ok,
    "overload": _overload_ok,
}


@dataclass
class ChaosReport:
    """What one chaos campaign inflicted and observed."""

    seed: int
    wall_s: float
    kills: int
    faults: Dict[str, int]
    faults_total: int
    proxy_connections: int
    load: LoadgenReport
    replayed_periods_last_boot: int
    settled: bool
    settle_s: float
    final_open_periods: int
    final_usage_bytes: int
    final_waiting: int
    sanitizer_ok: Optional[bool]
    server_exit_code: Optional[int]
    server_output: List[str] = field(default_factory=list)
    #: row of :data:`SCHEDULES` that ran
    campaign: str = "kill"
    #: cluster rows: shard count and front-end counters (else 0/empty)
    shards: int = 0
    cluster_counters: Dict[str, int] = field(default_factory=dict)
    #: restarts performed by the front-end (supervised and rolling rows)
    shard_restarts: int = 0
    shards_alive_final: int = 0
    shards_quarantined: int = 0
    #: rolling row: shards that completed a drain+restart cycle
    rolled_shards: int = 0
    p99_bound_s: float = 5.0
    p99_observed_s: Optional[float] = None
    #: storm rows: slow consumers and how often the server cut them off
    slowloris_clients: int = 0
    slowloris_disconnects: int = 0
    #: client leases still held when the settle ended
    final_clients: int = 0

    @property
    def schedule(self) -> Schedule:
        return SCHEDULES[self.campaign]

    @property
    def ok(self) -> bool:
        """The recovery contract: quiescent, conserved, clean exit."""
        return (
            self.settled
            and self.final_open_periods == 0
            and self.final_usage_bytes == 0
            and self.final_waiting == 0
            and self.sanitizer_ok is not False
            and self.server_exit_code == 0
            and _EXTRA_VERDICTS[self.schedule.verdict](self)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "wall_s": self.wall_s,
            "kills": self.kills,
            "faults": dict(self.faults),
            "faults_total": self.faults_total,
            "proxy_connections": self.proxy_connections,
            "load": self.load.to_dict(),
            "replayed_periods_last_boot": self.replayed_periods_last_boot,
            "settled": self.settled,
            "settle_s": self.settle_s,
            "final_open_periods": self.final_open_periods,
            "final_usage_bytes": self.final_usage_bytes,
            "final_waiting": self.final_waiting,
            "sanitizer_ok": self.sanitizer_ok,
            "server_exit_code": self.server_exit_code,
            "campaign": self.campaign,
            "shards": self.shards,
            "cluster_counters": dict(self.cluster_counters),
            "supervised": self.campaign == "supervised",
            "shard_restarts": self.shard_restarts,
            "shards_alive_final": self.shards_alive_final,
            "shards_quarantined": self.shards_quarantined,
            "rolling": self.campaign == "rolling",
            "rolled_shards": self.rolled_shards,
            "overload": self.campaign == "overload",
            "p99_bound_s": self.p99_bound_s,
            "p99_observed_s": self.p99_observed_s,
            "slowloris_clients": self.slowloris_clients,
            "slowloris_disconnects": self.slowloris_disconnects,
            "final_clients": self.final_clients,
            "ok": self.ok,
        }

    def describe(self) -> str:
        fault_bits = ", ".join(
            f"{self.faults[k]} {k}" for k in FAULT_KINDS if self.faults[k]
        )
        verdict = self.schedule.verdict
        lines = [
            f"{self.schedule.header} ("
            + (f"{self.shards} shard(s), " if self.shards else "")
            + f"seed {self.seed}): {self.wall_s:.2f} s wall, "
            f"{self.kills} kill(s), {self.faults_total} fault(s) injected"
            + (f" ({fault_bits})" if fault_bits else ""),
            f"  load: {self.load.admitted}/{self.load.calls} admitted, "
            f"{self.load.reconnects} reconnect(s), "
            f"{self.load.deduped} deduped begin(s), "
            f"{self.load.lost_periods} lost period(s)",
            f"  recovery: {self.replayed_periods_last_boot} period(s) "
            f"replayed at last boot, settled in {self.settle_s:.2f} s "
            f"({'yes' if self.settled else 'NO'})",
            f"  final: {self.final_open_periods} open period(s), "
            f"{self.final_usage_bytes} B charged, "
            f"{self.final_waiting} waiting, sanitizer "
            + (
                "ok" if self.sanitizer_ok
                else "VIOLATED" if self.sanitizer_ok is False
                else "n/a"
            )
            + f", server exit {self.server_exit_code}",
        ]
        if self.cluster_counters:
            lines.append(
                "  placer: "
                + ", ".join(
                    f"{v} {k}" for k, v in sorted(self.cluster_counters.items())
                )
            )
        if verdict in ("supervised", "rolling"):
            lines.append(
                f"  lifecycle: {self.shard_restarts} supervised restart(s), "
                f"{self.shards_alive_final}/{self.shards} shard(s) alive, "
                f"{self.shards_quarantined} quarantined"
                + (
                    f", {self.rolled_shards}/{self.shards} rolled"
                    if verdict == "rolling" else ""
                )
            )
        if verdict == "overload":
            p99 = (
                f"{self.p99_observed_s * 1e3:.1f} ms"
                if self.p99_observed_s is not None
                and self.p99_observed_s == self.p99_observed_s
                else "n/a"
            )
            lines.append(
                f"  overload: admitted p99 {p99} "
                f"(bound {self.p99_bound_s * 1e3:.0f} ms), "
                f"{self.load.shed_calls} call(s) shed "
                f"({self.load.sheds_without_hint} missing a retry hint), "
                f"{self.slowloris_disconnects}/{self.slowloris_clients} "
                f"slow consumer(s) disconnected, "
                f"{self.final_clients} client lease(s) left"
            )
        lines.append(f"  verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# actors: the supervisor's restart hook and the slow consumer
# ----------------------------------------------------------------------
def _subprocess_restarter(shard: ServerProcess):
    """Restart hook handed to the front-end's shard supervisor: reap the
    killed subprocess, then boot a fresh one on the same journal."""

    async def restart() -> None:
        try:
            await shard.wait(timeout_s=15.0)
        except asyncio.TimeoutError:
            # The process never exited: the "death" was a probe flap
            # under load.  Booting a second incarnation next to a live
            # one would fight it for the socket and the journal lock, so
            # leave it alone — the supervisor's ready-probe re-registers
            # the survivor.
            return
        await shard.start()

    return restart


async def _slowloris(
    socket_path: str, index: int, stop: asyncio.Event
) -> int:
    """One slow consumer: hello, then flood requests while never reading.

    The server's replies pile up in the socket it can't flush, its
    bounded ``drain()`` trips the write budget, and it aborts the
    connection — at which point this task reconnects and floods again.
    Returns how many times the connection was severed under it.

    Shutdown is via ``stop`` (checked every iteration), not cancellation
    alone: on 3.11 a ``wait_for`` whose inner future completed just as
    the cancel landed swallows the CancelledError, and this loop runs
    hot enough to hit that race almost surely.
    """
    disconnects = 0
    seq = 0
    while not stop.is_set():
        try:
            reader, writer = await asyncio.open_unix_connection(
                socket_path, limit=256 * 1024
            )
        except OSError:
            # Server mid-restart: try again shortly.
            try:
                await asyncio.sleep(0.1)
                continue
            except asyncio.CancelledError:
                return disconnects
        try:
            hello = {
                "id": seq, "op": "hello", "client": f"slowloris-{index}",
            }
            seq += 1
            writer.write((json.dumps(hello) + "\n").encode("utf-8"))
            await writer.drain()
            while not stop.is_set():
                frame = {"id": seq, "op": "stats"}
                seq += 1
                writer.write((json.dumps(frame) + "\n").encode("utf-8"))
                # Bound our own drain: once the server aborts us the
                # write surfaces as a ConnectionError and we reconnect.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(writer.drain(), timeout=0.2)
                # Pace the flood: the attack is the unread reply backlog,
                # not request volume — unpaced, this loop monopolizes the
                # driver's event loop and drowns the storm it rides with.
                await asyncio.sleep(0.002)
        except (ConnectionError, OSError):
            disconnects += 1
        except asyncio.CancelledError:
            return disconnects
        finally:
            with contextlib.suppress(Exception):
                writer.transport.abort()
    return disconnects


# ----------------------------------------------------------------------
# the campaign runner
# ----------------------------------------------------------------------
def _load_config(cfg: ChaosConfig, row: Schedule) -> LoadgenConfig:
    storm = row.load == "storm"
    return LoadgenConfig(
        mode="open" if storm else "closed",
        clients=cfg.clients,
        rate=cfg.storm_rate,
        duration_s=cfg.duration_s,
        time_scale=1.0,
        # A storm client that keeps being shed gives up quickly — the
        # point is terminal shed accounting, not eventual admission.
        max_retries=6 if storm else 100_000,
        resilient=row.topology != "cluster",
        cluster=row.topology == "cluster",
        call_timeout_s=2.0,
        # past the server's park timeout (or deadline), silence on
        # pp_begin means a dropped frame, not a parked period — reconnect
        # and re-issue
        begin_timeout_s=(
            min(OVERLOAD_PARK_DEADLINE_S, cfg.park_timeout_s) if storm
            else cfg.park_timeout_s
        ) + 2.0,
        client_backoff_cap_s=cfg.backoff_cap_s,
        breaker_threshold=cfg.breaker_threshold,
        breaker_reset_s=cfg.breaker_reset_s,
        seed=cfg.seed,
    )


async def _query(server: ServerProcess) -> Dict[str, Any]:
    probe = await ServeClient.connect(
        unix_path=server.socket_path, timeout=5.0
    )
    try:
        return await probe.query(timeout=10.0)
    finally:
        await probe.close()


async def _settle(
    servers: List[ServerProcess],
    row: Schedule,
    frontend: Optional[ClusterFrontend],
) -> Tuple[bool, Dict[str, int]]:
    """Poll every server until all are quiescent or the timeout passes.

    A cluster has not settled while its front-end still counts a shard
    dead: a supervised restart may be in flight after the load ends.

    Returns whether they settled and the last complete sweep's totals
    (-1 each if no sweep reached every server).
    """
    totals = dict.fromkeys(
        ("open", "usage", "waiting", "clients", "replayed"), -1
    )
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while True:
        try:
            queries = [await _query(server) for server in servers]
        except (ReproError, OSError, asyncio.TimeoutError):
            queries = None
        if queries is not None:
            totals = {
                "open": sum(int(q.get("open_periods", 0)) for q in queries),
                "usage": sum(
                    int(state.get("usage_bytes", 0))
                    for q in queries
                    for state in q.get("resources", {}).values()
                ),
                "waiting": sum(int(q.get("waiting", 0)) for q in queries),
                "clients": sum(int(q.get("clients", 0)) for q in queries),
                "replayed": sum(
                    int((q.get("journal") or {}).get("replayed_periods", 0))
                    for q in queries
                ),
            }
            # Only the overload row waits out client leases: its slow
            # consumers' leases must be reaped before the verdict.
            keys = ["open", "usage", "waiting"]
            if row.verdict == "overload":
                keys.append("clients")
            healed = frontend is None or (
                len(frontend.placer.alive_shards()) == len(servers)
            )
            if healed and all(totals[key] == 0 for key in keys):
                return True, totals
        if time.monotonic() >= deadline:
            return False, totals
        await asyncio.sleep(0.1)


async def _drain(
    servers: List[ServerProcess],
) -> Tuple[Optional[bool], int]:
    """Collect every sanitizer, drain every server, reap the exits.

    Returns the combined sanitizer verdict (None if no server runs one)
    and the worst exit code (1 for a server that could not be drained).
    """
    sanitizer_ok: Optional[bool] = None
    exit_worst = 0
    for server in servers:
        try:
            probe = await ServeClient.connect(
                unix_path=server.socket_path, timeout=5.0
            )
            try:
                sanitizer = (await probe.stats(timeout=10.0)).get("sanitizer")
                if sanitizer is not None:
                    sanitizer_ok = (
                        bool(sanitizer.get("ok")) and sanitizer_ok is not False
                    )
                await probe.drain(timeout=10.0)
            finally:
                await probe.close()
        except (ReproError, OSError, asyncio.TimeoutError):
            exit_worst = 1
    for server in servers:
        code: Optional[int] = None
        with contextlib.suppress(asyncio.TimeoutError):
            code = await server.wait(timeout_s=10.0)
        if code != 0 and exit_worst == 0:
            exit_worst = 1 if code is None else code
    return sanitizer_ok, exit_worst


async def run_chaos(cfg: ChaosConfig, workdir: str) -> ChaosReport:
    """One full campaign: serve, load, break, settle, judge, tear down.

    Whatever happens — success, a failed restart, cancellation — the
    teardown cancels the load and the slow consumers, closes the proxy,
    stops the front-end and SIGKILLs and reaps every server process.
    """
    if cfg.campaign not in SCHEDULES:
        raise ServeError(f"unknown chaos campaign {cfg.campaign!r}")
    row = SCHEDULES[cfg.campaign]
    os.makedirs(workdir, exist_ok=True)
    n = max(1, cfg.shards) if row.topology == "cluster" else 1
    names = [f"shard{i}" for i in range(n)]
    servers = [
        ServerProcess(
            os.path.join(workdir, f"{name}.sock"),
            os.path.join(workdir, f"{name}-journal.ndjson"),
            cfg,
        )
        for name in names
    ]
    proxy: Optional[ChaosProxy] = None
    frontend: Optional[ClusterFrontend] = None
    frontend_task: Optional[asyncio.Future] = None
    tasks: List[asyncio.Future] = []
    slow_stop = asyncio.Event()

    t_start = time.monotonic()
    try:
        for server in servers:
            await server.start()
        target = servers[0].socket_path
        if row.topology == "proxy":
            target = os.path.join(workdir, "proxy.sock")
            proxy = ChaosProxy(
                target, servers[0].socket_path, cfg,
                rng=random.Random(cfg.seed ^ 0x5EED),
            )
            await proxy.start()
        elif row.topology == "cluster":
            target = os.path.join(workdir, "placer.sock")
            frontend = ClusterFrontend(ClusterConfig(
                shards=tuple(
                    ShardAddress(name=name, unix_path=server.socket_path)
                    for name, server in zip(names, servers)
                ),
                seed=cfg.seed,
                health_interval_s=0.1,
                probe_timeout_s=2.0,
                # deliberate SIGKILLs are not crash loops: never
                # quarantine a shard for dying on schedule
                crash_loop_window_s=0.0,
                restart_backoff_s=0.1,
                restart_ready_timeout_s=SERVER_START_TIMEOUT_S,
                shard_drain_grace_s=cfg.rolling_grace_s,
            ))
            await frontend.start(unix_path=target)
            frontend_task = asyncio.ensure_future(frontend.run_until_drained())
            if row.supervised:
                for name, server in zip(names, servers):
                    frontend.register_restarter(
                        name, _subprocess_restarter(server)
                    )

        slow_tasks = [
            asyncio.ensure_future(_slowloris(target, i, slow_stop))
            for i in range(cfg.slowloris if row.load == "storm" else 0)
        ]
        tasks.extend(slow_tasks)
        scripts = fig4_scripts(
            n=max(8, cfg.clients * 2), demand_mb=DEMAND_MB, hold_s=row.hold_s
        )
        load_task = asyncio.ensure_future(
            run_loadgen(scripts, _load_config(cfg, row), unix_path=target)
        )
        tasks.append(load_task)

        kills = rolled = 0
        if row.fault == "roll":
            # warm up: let the load establish leases and admitted periods
            await asyncio.sleep(min(cfg.kill_interval_s, cfg.duration_s / 4))
            results = await frontend.rolling_restart(
                grace_s=cfg.rolling_grace_s
            )
            rolled = sum(1 for ok in results.values() if ok)
        for cycle in range(cfg.kills if row.fault == "kill" else 0):
            await asyncio.sleep(cfg.kill_interval_s)
            if load_task.done():
                break
            victims = [(cycle + k) % n for k in range(n)]
            if row.supervised:
                # Pick a victim the supervisor has already healed — a
                # still-dead shard yields no new kill to supervise.
                victims = [
                    i for i in victims
                    if frontend.placer.shards[names[i]].alive
                ]
            if not victims:
                continue
            victim = servers[victims[0]]
            victim.kill()
            await victim.wait()
            kills += 1
            if proxy is not None:
                # Connections through the proxy are stranded on a dead
                # backend; hard-drop them so clients reconnect promptly.
                proxy.sever_all()
            if not row.supervised:
                await victim.start()
        load = await load_task

        # The load is over: call off the slow consumers, then let the
        # lease reaper reclaim everything the clients left behind.
        slow_stop.set()
        slow_results = await asyncio.gather(
            *slow_tasks, return_exceptions=True
        )
        settle_t0 = time.monotonic()
        settled, totals = await _settle(servers, row, frontend)
        settle_s = time.monotonic() - settle_t0

        alive = quarantined = 0
        counters: Dict[str, int] = {}
        if frontend is not None:
            # capacity-recovery verdict inputs, read *before* the drain
            # below tears the shards down
            await frontend._health_sweep()
            alive = len(frontend.placer.alive_shards())
            quarantined = len(frontend.quarantined)
            # from here on every shard death is deliberate: stop the
            # supervisor before it resurrects what the drain takes down
            await frontend.disarm_supervision()
            counters = {
                name: counter.value
                for name, counter in (
                    ("placements", frontend.c_placements),
                    ("redirects", frontend.c_redirects),
                    ("forwards", frontend.c_forwards),
                    ("migrations", frontend.c_migrations),
                    ("migration_failures", frontend.c_migration_failures),
                    ("shard_restarts", frontend.c_shard_restarts),
                    ("rebalance_migrations", frontend.c_rebalances),
                    ("shard_drains", frontend.c_shard_drains),
                )
            }
        sanitizer_ok, exit_code = await _drain(servers)
        return ChaosReport(
            seed=cfg.seed,
            wall_s=time.monotonic() - t_start,
            kills=kills,
            faults=(
                dict(proxy.faults) if proxy is not None
                else dict.fromkeys(FAULT_KINDS, 0)
            ),
            faults_total=proxy.faults_total if proxy is not None else 0,
            proxy_connections=proxy.connections if proxy is not None else 0,
            load=load,
            replayed_periods_last_boot=totals["replayed"],
            settled=settled,
            settle_s=settle_s,
            final_open_periods=totals["open"],
            final_usage_bytes=totals["usage"],
            final_waiting=totals["waiting"],
            sanitizer_ok=sanitizer_ok,
            server_exit_code=exit_code,
            server_output=[
                f"[{name}] {line}" if frontend is not None else line
                for name, server in zip(names, servers)
                for line in server.output
            ],
            campaign=cfg.campaign,
            shards=n if frontend is not None else 0,
            cluster_counters=counters,
            shard_restarts=counters.get("shard_restarts", 0),
            shards_alive_final=alive,
            shards_quarantined=quarantined,
            rolled_shards=rolled,
            p99_bound_s=cfg.p99_bound_s,
            p99_observed_s=load.admission_latency.p99,
            slowloris_clients=len(slow_tasks),
            slowloris_disconnects=sum(
                r for r in slow_results if isinstance(r, int)
            ),
            final_clients=totals["clients"],
        )
    finally:
        slow_stop.set()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if frontend is not None:
            await frontend.disarm_supervision()
            frontend.request_drain()
            if frontend_task is not None:
                with contextlib.suppress(BaseException):
                    await frontend_task
        if proxy is not None:
            await proxy.close()
        for server in servers:
            if server.proc is not None and server.proc.returncode is None:
                server.kill()
                with contextlib.suppress(Exception):
                    await server.wait(timeout_s=5.0)


def run_chaos_sync(cfg: ChaosConfig, workdir: str) -> ChaosReport:
    """Blocking wrapper around :func:`run_chaos` (CLI entry point)."""
    return asyncio.run(run_chaos(cfg, workdir))
