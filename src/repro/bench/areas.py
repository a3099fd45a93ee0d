"""The benchmark areas: simulator kernel, admission service, cluster, fleet.

Each area runs a pinned, seeded workload and reduces it to a handful of
:class:`~repro.bench.schema.BenchRecord` rows.  Workloads are sized so a
``--quick`` pass finishes in a few seconds on a laptop while still hitting
the hot paths the records are meant to guard: the event-loop inner loop
and rate memoization (sim), frame codec + parking + the metrics registry
(serve), the placer front-end's redirect/forward paths (cluster), and the
content-addressed result cache (fleet).

Repetitions time the *same* deterministic workload several times and keep
the best result (classic min-of-N to shed scheduler noise) — best wall
clock for the single-payload areas, best value *per metric* for the serve
and cluster areas, whose latency percentiles spike independently of wall
time.  Rep counts are deliberately excluded from the config digest so
quick and full runs of one configuration remain comparable.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from ..config import CacheConfig, CpuConfig, MachineConfig, default_machine_config
from ..core.policy import CompromisePolicy, StrictPolicy
from ..core.rda import RdaScheduler
# _canonical is the fleet's spec-canonicalizer; the bench digests reuse it
# so one hashing convention covers both subsystems.
from ..experiments.parallel import (
    ResultCache, RunRequest, RunSuccess, _canonical, run_grid, run_key,
)
from ..sim.engine import Engine
from ..sim.kernel import Kernel
from ..units import kib
from ..workloads.base import Phase, PpSpec, ProcessSpec, Workload
from ..workloads.suite import workload_by_name
from .schema import BenchRecord, config_digest

__all__ = [
    "bench_sim",
    "bench_serve",
    "bench_serve_overload",
    "bench_serve_predict",
    "bench_cluster",
    "bench_fleet",
]


def _best_of(reps: int, fn: Callable[[], Tuple[float, object]]) -> Tuple[float, object]:
    """Run ``fn`` ``reps`` times; return (best wall_s, that rep's payload)."""
    best_wall: Optional[float] = None
    best_payload: object = None
    for _ in range(max(1, reps)):
        wall, payload = fn()
        if best_wall is None or wall < best_wall:
            best_wall, best_payload = wall, payload
    return best_wall, best_payload


def _merge_best(rep_records: List[List[BenchRecord]]) -> List[BenchRecord]:
    """Element-wise best across repetitions of the same record list.

    Picking the whole record set from the min-*wall* rep does not shed
    latency noise: one 2 ms scheduler stall inflates a p99 forty-fold
    while moving a 100 ms wall by 2%.  Classic min-of-N must apply per
    metric — max for throughputs, min for latencies; informational counts
    are deterministic across reps, so the first rep's value stands.
    """
    merged = list(rep_records[0])
    for records in rep_records[1:]:
        for i, (best, cur) in enumerate(zip(merged, records)):
            take = (
                (cur.higher_is_better and cur.value > best.value)
                or (cur.lower_is_better and cur.value < best.value)
            )
            if take:
                merged[i] = cur
    return merged


# ----------------------------------------------------------------------
# sim: raw engine throughput + full kernel events/sec
# ----------------------------------------------------------------------
_ENGINE_EVENTS = 60_000


def _bench_phase(
    name: str, instructions: int, wss_mb: float, declare_pp: bool = True
) -> Phase:
    wss = int(wss_mb * 1_000_000)
    return Phase(
        name=name, instructions=instructions, flops_per_instr=1.0,
        mem_refs_per_instr=0.4, llc_refs_per_memref=0.1,
        wss_bytes=wss, reuse=0.9,
        pp=PpSpec(demand_bytes=wss) if declare_pp else None,
    )


def _sim_machine() -> MachineConfig:
    return MachineConfig(
        cpu=CpuConfig(n_cores=2),
        llc=CacheConfig("L3-Shared", kib(2048), associativity=16, shared=True),
    )


def _sim_workload() -> Workload:
    """Oversubscribed pp + background mix: 12 processes on 2 cores.

    The background (non-pp) processes deepen the run queue so CFS slice
    preemption fires constantly — that is what exercises the engine heap
    and the kernel's rate-recompute path rather than idling on I/O.
    """
    return Workload(
        name="bench-mix",
        processes=[
            ProcessSpec(
                name="pp",
                program=[
                    _bench_phase("a", 30_000_000, 0.9),
                    _bench_phase("b", 20_000_000, 0.5),
                    _bench_phase("c", 15_000_000, 1.2),
                ] * 4,
            )
        ] * 4
        + [
            ProcessSpec(
                name="bg",
                program=[
                    _bench_phase("x", 60_000_000, 0.3, declare_pp=False),
                    _bench_phase("y", 40_000_000, 0.2, declare_pp=False),
                ] * 4,
            )
        ] * 8,
    )


def bench_sim(seed: int, reps: int) -> List[BenchRecord]:
    machine = _sim_machine()
    workload = _sim_workload()
    digest = config_digest({
        "area": "sim",
        "engine_events": _ENGINE_EVENTS,
        "machine": _canonical(machine),
        "workload": _canonical(workload),
        "seed": seed,
    })

    # raw Engine micro-bench: seeded delays, every 4th event cancelled to
    # exercise the tombstone/compaction path
    rng = random.Random(seed)
    delays = [rng.random() * 1e-3 for _ in range(_ENGINE_EVENTS)]

    def engine_rep() -> Tuple[float, object]:
        eng = Engine()

        def noop(_arg: float) -> None:
            pass

        t0 = time.perf_counter()
        cancels = []
        for i, delay in enumerate(delays):
            handle = eng.schedule(delay, noop, 0.0)
            if i % 4 == 0:
                cancels.append(handle)
        for handle in cancels:
            eng.cancel(handle)
        eng.run()
        return time.perf_counter() - t0, eng.events_processed

    def kernel_rep() -> Tuple[float, object]:
        sched = RdaScheduler(policy=StrictPolicy(), config=machine)
        kernel = Kernel(config=machine, extension=sched)
        kernel.launch(workload)
        t0 = time.perf_counter()
        kernel.run(max_events=5_000_000)
        return time.perf_counter() - t0, kernel.engine.events_processed

    engine_wall, engine_events = _best_of(reps, engine_rep)
    kernel_wall, kernel_events = _best_of(reps, kernel_rep)

    def rec(metric: str, value: float, unit: str, wall: float) -> BenchRecord:
        return BenchRecord(
            area="sim", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("engine_events_per_s", round(engine_events / engine_wall, 1),
            "events/s", engine_wall),
        rec("events_per_s", round(kernel_events / kernel_wall, 1),
            "events/s", kernel_wall),
        rec("events_total", float(kernel_events), "events", kernel_wall),
    ]


# ----------------------------------------------------------------------
# serve: admissions/sec + admission latency via the metrics registry
# ----------------------------------------------------------------------
# 400 sessions keep the p99 a real percentile (several samples above it)
# instead of a max-of-80 extreme value that jitters 4x on a noisy host
_SERVE_SESSIONS = 400
_SERVE_CLIENTS = 4
_SERVE_CAPACITY_MB = 8.0
_SERVE_DEMAND_MB = 6.3


def _serve_machine() -> MachineConfig:
    """Default machine with the managed LLC resized to the bench capacity."""
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = int(_SERVE_CAPACITY_MB * 1024 * 1024) // quantum * quantum
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def bench_serve(seed: int, reps: int) -> List[BenchRecord]:
    # imported lazily so `repro bench --areas sim` works even if the serve
    # stack is unavailable (it has no extra deps today, but keep it isolated)
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_SERVE_CLIENTS, demand_mb=_SERVE_DEMAND_MB, hold_s=0.0
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_SERVE_CLIENTS, sessions=_SERVE_SESSIONS,
        time_scale=1.0, seed=seed,
    )
    digest = config_digest({
        "area": "serve",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        server = AdmissionServer(ServeConfig(policy=policy, machine=machine))
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 30.0)
        # read the service's own registry, not the client-side tally: the
        # serve bench guards the server hot path end to end
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def serve_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, snapshot = asyncio.run(one_run(f"{tmp}/bench.sock"))
        hist = snapshot["histograms"]["admission_latency_s"]

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="serve", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        return [
            rec("admissions_per_s", round(report.admitted / wall, 1),
                "admissions/s"),
            rec("admission_latency_p50_s", round(float(hist["p50"]), 9), "s"),
            rec("admission_latency_p99_s", round(float(hist["p99"]), 9), "s"),
            rec("admitted_total", float(report.admitted), "admissions"),
        ]

    return _merge_best([serve_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# serve_overload: shed throughput + bounded sojourn under saturation
# ----------------------------------------------------------------------
# 8 clients racing for a capacity that fits one 6.3 MB period at a time,
# each holding 10 ms, keeps the pending queue past max_pending for the
# whole run: the shedding paths (adaptive RETRY_AFTER, park deadlines)
# are the hot path being timed, not a corner case
_OVERLOAD_SESSIONS = 160
_OVERLOAD_CLIENTS = 8
_OVERLOAD_DEMAND_MB = 6.3
_OVERLOAD_HOLD_S = 0.01
_OVERLOAD_MAX_PENDING = 4
_OVERLOAD_PARK_DEADLINE_S = 0.03
_OVERLOAD_HINT_FLOOR_S = 0.005
_OVERLOAD_HINT_CAP_S = 0.03


def bench_serve_overload(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_OVERLOAD_CLIENTS, demand_mb=_OVERLOAD_DEMAND_MB,
        hold_s=_OVERLOAD_HOLD_S,
    )
    serve_cfg = dict(
        max_pending=_OVERLOAD_MAX_PENDING,
        park_deadline_s=_OVERLOAD_PARK_DEADLINE_S,
        retry_hint_floor_s=_OVERLOAD_HINT_FLOOR_S,
        retry_hint_cap_s=_OVERLOAD_HINT_CAP_S,
        max_pending_per_client=1,
        write_timeout_s=1.0,
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_OVERLOAD_CLIENTS, sessions=_OVERLOAD_SESSIONS,
        time_scale=1.0, max_retries=16, seed=seed,
    )
    digest = config_digest({
        "area": "serve_overload",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "serve": serve_cfg,
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        server = AdmissionServer(
            ServeConfig(policy=policy, machine=machine, **serve_cfg)
        )
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 60.0)
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def overload_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, snapshot = asyncio.run(one_run(f"{tmp}/bench.sock"))
        sojourn = snapshot["histograms"]["queue_sojourn_s"]

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="serve_overload", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        # Shed counts are timing-dependent, so only the rates and the
        # deadline-pinned sojourn tail are gated; the counts ride along
        # as informational context (non-rate, non-seconds units).
        return [
            rec("calls_per_s", round(report.calls / wall, 1), "calls/s"),
            rec("queue_sojourn_p99_s", round(float(sojourn["p99"]), 9), "s"),
            rec("admitted_total", float(report.admitted), "admissions"),
            rec("shed_total", float(report.shed_calls), "sheds"),
        ]

    return _merge_best([overload_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# serve_predict: admission throughput recovered from annotation error
# ----------------------------------------------------------------------
# Every client declares 2x its true working set, so only one declared
# period fits the 8 MB LLC at a time even though two true ones would.
# The declared pass times that loss; the predict pass times the same
# workload with the online estimator correcting the annotations, which
# is the paper's demand-awareness argument turned on the annotations
# themselves.  ``hold_s`` keeps periods open long enough that admission
# concurrency (not protocol round-trips) dominates the wall clock.
_PREDICT_SESSIONS = 120
_PREDICT_CLIENTS = 4
_PREDICT_DEMAND_MB = 3.2
_PREDICT_OVERDECLARE = 2.0
_PREDICT_HOLD_S = 0.005
_PREDICT_MIN_SAMPLES = 3


def bench_serve_predict(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_PREDICT_CLIENTS, demand_mb=_PREDICT_DEMAND_MB,
        hold_s=_PREDICT_HOLD_S,
    )
    predict_cfg = dict(
        predict=True,
        predict_min_samples=_PREDICT_MIN_SAMPLES,
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_PREDICT_CLIENTS, sessions=_PREDICT_SESSIONS,
        time_scale=1.0, overdeclare=_PREDICT_OVERDECLARE,
        report_observed=True, seed=seed,
    )
    digest = config_digest({
        "area": "serve_predict",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "predict": predict_cfg,
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str, predict: bool):
        cfg = ServeConfig(policy=policy, machine=machine)
        if predict:
            cfg = replace(cfg, **predict_cfg)
        server = AdmissionServer(cfg)
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 60.0)
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def predict_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall_decl, rep_decl, _ = asyncio.run(
                one_run(f"{tmp}/declared.sock", predict=False)
            )
            wall_pred, rep_pred, snap = asyncio.run(
                one_run(f"{tmp}/predict.sock", predict=True)
            )
        counters = snap["counters"]

        def rec(metric: str, value: float, unit: str,
                wall: float) -> BenchRecord:
            return BenchRecord(
                area="serve_predict", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        # Both throughputs are gated (rate units); the estimator/elastic
        # counters ride along as informational context.
        return [
            rec("admissions_per_s_declared",
                round(rep_decl.admitted / wall_decl, 1),
                "admissions/s", wall_decl),
            rec("admissions_per_s_predicted",
                round(rep_pred.admitted / wall_pred, 1),
                "admissions/s", wall_pred),
            rec("predicted_admits_total",
                float(counters["predicted_admits_total"]),
                "admissions", wall_pred),
            rec("elastic_shrinks_total",
                float(counters["elastic_shrinks_total"]),
                "shrinks", wall_pred),
        ]

    return _merge_best([predict_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# cluster: admissions/sec through the sharded front-end placer
# ----------------------------------------------------------------------
_CLUSTER_SHARDS = 3
_CLUSTER_SESSIONS = 240
_CLUSTER_CLIENTS = 6
_CLUSTER_DEMAND_MB = 5.1


def bench_cluster(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.cluster import start_local_cluster
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_CLUSTER_CLIENTS, demand_mb=_CLUSTER_DEMAND_MB, hold_s=0.0
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_CLUSTER_CLIENTS, sessions=_CLUSTER_SESSIONS,
        time_scale=1.0, seed=seed, cluster=True,
    )
    digest = config_digest({
        "area": "cluster",
        "shards": _CLUSTER_SHARDS,
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        cluster = await start_local_cluster(
            ServeConfig(policy=policy, machine=machine),
            _CLUSTER_SHARDS, tmp_sock, seed=seed,
        )
        run_task = asyncio.ensure_future(cluster.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        cluster.request_drain()
        await asyncio.wait_for(run_task, 30.0)
        frontend = cluster.frontend
        counters = {
            "placements": frontend.c_placements.value,
            "redirects": frontend.c_redirects.value,
            "forwards": frontend.c_forwards.value,
            "migrations": frontend.c_migrations.value,
            "fragmentation_peak": frontend._frag_peak,
        }
        return wall, report, counters

    def cluster_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, counters = asyncio.run(one_run(f"{tmp}/placer.sock"))

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="cluster", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        redirect_p99 = (
            report.redirect_latency.p99 * 1e3
            if report.redirect_latency.count else 0.0
        )
        # Placement-quality records use informational units so the compare
        # gate leaves them out of the pass/fail decision.
        return [
            rec("admissions_per_s", round(report.admitted / wall, 1),
                "admissions/s"),
            rec("placements_per_s", round(counters["placements"] / wall, 1),
                "placements/s"),
            rec("admitted_total", float(report.admitted), "admissions"),
            rec("redirects_total", float(counters["redirects"]), "redirects"),
            rec("migrations_total", float(counters["migrations"]),
                "migrations"),
            rec("fragmentation_peak",
                round(counters["fragmentation_peak"], 4), "ratio"),
            rec("redirect_latency_p99", round(redirect_p99, 3), "ms"),
        ]

    return _merge_best([cluster_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# fleet: sims/sec through run_grid with the content-addressed cache
# ----------------------------------------------------------------------
_FLEET_WORKLOADS = ("BLAS-1", "BLAS-2")
_FLEET_MAX_EVENTS = 2_000_000


def _fleet_requests(seed: int) -> List[RunRequest]:
    requests: List[RunRequest] = []
    for name in _FLEET_WORKLOADS:
        for policy in (StrictPolicy(), CompromisePolicy(oversubscription=1.5)):
            requests.append(RunRequest(
                workload=workload_by_name(name), policy=policy,
                max_events=_FLEET_MAX_EVENTS, seed=seed, tag="bench",
            ))
    return requests


def bench_fleet(
    seed: int, cache_dir: Optional[str] = None, jobs: Optional[int] = None
) -> List[BenchRecord]:
    requests = _fleet_requests(seed)
    digest = config_digest({
        "area": "fleet",
        "run_keys": [run_key(r) for r in requests],
        "seed": seed,
    })
    cache = ResultCache(cache_dir) if cache_dir else ResultCache()

    t0 = time.perf_counter()
    outcomes = run_grid(requests, jobs=jobs, cache=cache)
    wall = time.perf_counter() - t0

    successes = [o for o in outcomes if isinstance(o, RunSuccess)]
    failures = len(outcomes) - len(successes)
    gflops = sum(o.report.gflops for o in successes)

    def rec(metric: str, value: float, unit: str) -> BenchRecord:
        return BenchRecord(
            area="fleet", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("sims_per_s", round(len(successes) / wall, 3), "sims/s"),
        rec("runs_total", float(len(outcomes)), "runs"),
        rec("failures", float(failures), "runs"),
        rec("gflops_total", round(gflops, 6), "GFLOPS"),
    ]
