"""The repository benchmark: one command, four workloads, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fastpath_open --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``fastpath_open``     open-loop Poisson admissions, nothing ever parks
``contended_closed``  two closed-loop clients that hand an 8 MB cache back and forth
``cluster_redirect``  the same clients against ``serve --shards 3``, via REDIRECT
``sim_table2``        the paper's Table-2 grid in the simulator

The serve workloads start the server as its own process
(``python -m repro serve ...``) and drive it from a generator process
(``gen.py``).  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it measures the workload once untraced and once with
the layer wrappers of ``tracer.py`` installed in the server (or simulator)
process, and reports the per-layer metrics.  Each run checks the
program's outputs and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402  (the generator's helpers: Conn, median, percentile)

RUNS_DIR = ".perfbench_runs"
#: servers (or simulator imports) started per run to time set-up
SETUP_SPAWNS = 5
#: the reference start-up that set-up times are scaled by (see
#: scaled_setup_s): a fresh interpreter importing a fixed set of modules,
#: numpy among them, as the program's own start does before it does any
#: work.  Fixed here, it does not follow the program's imports.
STARTUP_REFERENCE = [
    sys.executable, "-c",
    "import argparse, asyncio, json, logging, multiprocessing, numpy, random, "
    "socket, statistics, typing; print('ready', flush=True)",
]
#: seconds the reference start-up takes on the 2-vCPU Intel Xeon VM the
#: benchmark was written on, rounded
STARTUP_REFERENCE_S = 0.17
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: the generator's main phase plus ladder must end within this
GEN_TIMEOUT_S = 120.0
MB = 1024 * 1024

#: the limit on pp_begin p90 latency (the rate ladder's, and the closed
#: loops'), and the ladder of offered rates in pairs/s.  The tail reported
#: and limited is the p90: on a 2-vCPU VM about 1% of the time is lost to
#: host stalls, which makes a p99 swing several-fold between runs.
SLO_P90_S = 0.010
MAIN_RATE = 1000.0
LADDER = [4000.0, 8000.0, 10000.0, 11000.0, 12000.0, 13000.0, 14000.0,
          15000.0, 16000.0, 18000.0, 20000.0]
STEP_S = 0.5
#: unmeasured load before the main phase, so first-use costs are not timed
WARMUP_S = 2.0
#: a phase whose generator sends its p99 request later than this is invalid
#: (on a 2-vCPU VM, host stalls alone make the p99 0.2-1 ms late)
LATE_BOUND_S = 0.010

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fastpath_open": {
        "serve": ["--policy", "strict"],
        # latencies relative to the reference server echo.py (see
        # reference_latencies)
        "echo": True,
        # Requests pipeline behind each other on a connection, and a parked
        # pp_begin stalls the frames behind it; with at most 16 KiB per
        # period the backlog would need ~1,000 open periods to park one.
        "gen": {"mode": "open", "demand_bytes": [1024, 16 * 1024],
                "hold_s": [0.0005, 0.0015]},
    },
    "contended_closed": {
        # fsync batched over 50 ms: the appends stay on the blocking path,
        # and the host's disk latency (which other tenants share) does not
        # decide the throughput
        "serve": ["--policy", "strict", "--capacity-mb", "8",
                  "--journal-fsync", "0.05"],
        "journal": True,
        "gen": {"mode": "closed", "demand_bytes": [int(6.3 * MB)] * 2,
                "hold_s": [0.002, 0.004]},
    },
    "cluster_redirect": {
        "serve": ["--policy", "strict", "--capacity-mb", "8",
                  "--journal-fsync", "0.05", "--shards", "3"],
        "journal": True,
        "shards": 3,
        "gen": {"mode": "cluster", "demand_bytes": [int(6.3 * MB)] * 2,
                "hold_s": [0.002, 0.004], "session_periods": 10},
    },
    "sim_table2": {},
}

END_TO_END = [
    ("setup_s", "s"), ("admissions_per_s", "1/s"),
    ("begin_p50_s", "s"), ("begin_p90_s", "s"),
    ("llc_utilization", "share"), ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("core.begin_s", "s"), ("core.end_s", "s"),
    ("core.waitlist.drain_s", "s"), ("core.waitlist.parks", "count"),
    ("serve.protocol.decode_s", "s"), ("serve.protocol.encode_s", "s"),
    ("serve.protocol.parse_s", "s"), ("serve.server.residual_s", "s"),
    ("serve.server.rate_at_slo_per_s", "1/s"),
    ("serve.server.handoff_s", "s"), ("serve.server.cpu_share", "share"),
    ("serve.server.park_share", "share"),
    ("serve.journal.append_s", "s"), ("serve.journal.sync_s", "s"),
    ("serve.journal.syncs", "count"),
    ("serve.placer.place_s", "s"), ("serve.placer.places", "count"),
    ("serve.cluster.redirect_s", "s"), ("serve.cluster.redirects", "count"),
    ("serve.cluster.colocated_share", "share"),
    ("sim.engine.events", "count"), ("sim.engine.events_per_s", "1/s"),
    ("sim.engine.schedule_s", "s"), ("sim.kernel.self_s", "s"),
    ("sim.kernel.sims_per_s", "1/s"), ("sim.cpu.bandwidth_s", "s"),
    ("mem.contention.resolve_s", "s"), ("mem.contention.resolves", "count"),
    ("perf.counters.adds", "count"), ("core.rda.hook_s", "s"),
    ("bench.gen.late_p99_s", "s"), ("bench.gen.cpu_share", "share"),
    ("residual_share", "share"), ("trace_overhead", "share"),
]


class RunFailure(Exception):
    """The benchmark could not run; no result is printed."""


def log(message: str) -> None:
    print(f"# {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def cpu_sets() -> Tuple[Optional[set], Optional[set]]:
    """CPUs for (the program, the generator): one each when there are two.

    Pinning keeps the server and the generator from trading places between
    runs, which otherwise moves latency medians by tens of percent.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


PROGRAM_CPUS, GENERATOR_CPUS = cpu_sets()


def pinned(cpus: Optional[set]):
    """A ``preexec_fn`` that pins the child to ``cpus`` (None: no pinning)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


#: a process that runs only when its CPU has nothing else to run
SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextlib.contextmanager
def idle_spinners():
    """Keep the program's and the generator's CPUs from ever going idle.

    On a VM, an idle vCPU halts and takes 0.1-1 ms to wake, depending on
    the host's load; that wake-up then dominates sub-millisecond latencies
    and makes them swing between runs.  A ``SCHED_IDLE`` spinner on each
    CPU runs only when nothing else is runnable, so the vCPU never halts
    and the program's own cost is what gets measured.
    """
    procs = [
        subprocess.Popen([sys.executable, "-c", SPINNER], preexec_fn=pinned(cpus))
        for cpus in (PROGRAM_CPUS, GENERATOR_CPUS)
        if cpus is not None
    ]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


@contextlib.contextmanager
def echo_server(rundir: str):
    """The reference server ``echo.py`` on the program's CPU; yields its socket."""
    path = os.path.join(rundir, "echo.sock")
    with open(os.path.join(rundir, "echo.stderr"), "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "echo.py"), path],
            stdout=subprocess.DEVNULL, stderr=err, preexec_fn=pinned(PROGRAM_CPUS),
        )
        try:
            deadline = time.perf_counter() + READY_TIMEOUT_S
            while True:
                try:
                    gen.Conn(path).close()
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if proc.poll() is not None or time.perf_counter() > deadline:
                        raise RunFailure(f"echo server not listening; see {rundir}/echo.stderr")
                    time.sleep(0.002)
            yield path
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def proc_status(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RunFailure(f"no {key} for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` process, its stderr kept in the run directory."""

    def __init__(self, argv: List[str], stderr_path: str) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=self._stderr, env=child_env(),
            preexec_fn=pinned(PROGRAM_CPUS),
        )

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL past the timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._stderr.close()
        return code


def connect(path: str, deadline: float, server: Server) -> gen.Conn:
    while True:
        try:
            return gen.Conn(path)
        except (FileNotFoundError, ConnectionRefusedError):
            if server.proc.poll() is not None:
                raise RunFailure(
                    f"server exited with {server.proc.returncode} before "
                    f"listening; see {server.stderr_path}"
                )
            if time.perf_counter() > deadline:
                raise RunFailure(f"server not listening on {path}")
            time.sleep(0.002)


def await_hello(sock: str, server: Server, cluster: bool) -> Tuple[float, int]:
    """Seconds from spawning ``server`` to its first hello acknowledgement,
    and the LLC capacity one server (or shard) manages.

    For a cluster the acknowledgement is the one from the shard the
    front-end redirects to.
    """
    deadline = time.perf_counter() + READY_TIMEOUT_S
    conn = connect(sock, deadline, server)
    try:
        reply = gen.hello(conn, "bench-ready", redirect=cluster)
        if cluster:
            error = reply.get("error") or {}
            if error.get("code") != "REDIRECT":
                raise RunFailure(f"front-end hello: {reply}")
            conn.close()
            conn = connect(error["shard"]["unix_path"], deadline, server)
            reply = gen.hello(conn, "bench-ready")
        acked = time.perf_counter()
        if not reply.get("ok"):
            raise RunFailure(f"hello refused: {reply}")
        query = conn.call("query")
    finally:
        conn.close()
    capacity = query["resources"]["llc"]["capacity_bytes"]
    return acked - server.started, capacity


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
class ServePhase:
    """One server process measured under one generator run."""

    def __init__(self, spec: Dict[str, Any], rundir: str, tag: str,
                 trace_out: Optional[str] = None) -> None:
        self.sock = os.path.join(rundir, f"{tag}.sock")
        args = ["--socket", self.sock] + spec["serve"]
        self.journal = None
        if spec.get("journal"):
            self.journal = os.path.join(rundir, f"{tag}.journal")
            args += ["--journal", self.journal]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                    trace_out] + args
        self.server = Server(argv, os.path.join(rundir, f"{tag}.stderr"))
        try:
            self.setup_s, self.capacity = await_hello(
                self.sock, self.server, "shards" in spec
            )
        except BaseException:
            self.server.stop()
            raise

    def drive(self, gen_cfg: Dict[str, Any], rundir: str, tag: str) -> Dict[str, Any]:
        """Run the generator against this server; sample the server's CPU
        and peak memory over the main phase."""
        cfg = dict(gen_cfg, socket=self.sock, capacity_bytes=self.capacity)
        pid = self.server.proc.pid
        cpu0, wall0 = proc_cpu_s(pid), time.perf_counter()
        sampled: Dict[str, float] = {}
        with open(os.path.join(rundir, f"{tag}.gen.stderr"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "gen.py"), json.dumps(cfg)],
                stdout=subprocess.PIPE, stderr=err, text=True,
                preexec_fn=pinned(GENERATOR_CPUS),
            )
            # a generator that hangs is killed, so the run still ends in time
            watchdog = threading.Timer(GEN_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                lines = []
                for line in proc.stdout:
                    if line.strip() == gen.MAIN_DONE:
                        wall = time.perf_counter() - wall0
                        sampled["server_cpu_share"] = (proc_cpu_s(pid) - cpu0) / wall
                        sampled["peak_rss_mb"] = proc_status(pid, "VmHWM") / 1024.0
                    else:
                        lines.append(line)
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not lines or len(sampled) != 2:
            raise RunFailure(f"generator failed; see {rundir}/{tag}.gen.stderr")
        result = json.loads(lines[-1])
        result.update(sampled)
        return result

    def stop(self) -> Dict[str, Any]:
        code = self.server.stop()
        for path in glob.glob(self.journal + "*") if self.journal else ():
            os.unlink(path)
        with open(self.server.stderr_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        return {"exit_code": code, "tracebacks": stderr.count("Traceback")}


def gen_config(spec: Dict[str, Any], seed: int, seconds: float,
               ladder: bool, echo_sock: Optional[str]) -> Dict[str, Any]:
    cfg = dict(spec["gen"], seed=seed, client_prefix=f"bench{seed}",
               shards=spec.get("shards", 1), slo_s=SLO_P90_S,
               late_bound_s=LATE_BOUND_S, warmup_s=WARMUP_S,
               echo_socket=echo_sock)
    if cfg["mode"] == "open":
        cfg.update(rate=MAIN_RATE, step_s=STEP_S,
                   ladder=LADDER if ladder else [])
        # the ladder gets the second half of the phase
        cfg["main_s"] = seconds * 0.5 if ladder else seconds
        room = seconds - cfg["main_s"]
        cfg["ladder"] = cfg["ladder"][: max(1, int(room // (STEP_S + 0.25)))]
    else:
        cfg["main_s"] = seconds
    return cfg


def spawn_until_ready(argv: List[str], stderr_path: str, cpus: Optional[set]) -> float:
    """Seconds from spawning ``argv`` to its ``ready`` line; waits for its exit."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(),
            preexec_fn=pinned(cpus),
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=READY_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise RunFailure(f"a start-up failed; see {stderr_path}")
    return elapsed


def scaled_setup_s(start_one, rundir: str, cpus: Optional[set]) -> Dict[str, float]:
    """Median set-up time over ``SETUP_SPAWNS`` starts, raw and scaled.

    ``start_one(i)`` starts the program for the i-th time and returns its
    set-up seconds.  Process creation, interpreter start and imports swing
    with the shared host's speed like every other CPU-bound time (see
    perfbench/README.md, "Host speed"), so each start is followed by a
    reference start-up on the same CPU, and the median set-up time is
    scaled by ``STARTUP_REFERENCE_S`` over the references' median.
    """
    raw, reference = [], []
    for i in range(SETUP_SPAWNS):
        raw.append(start_one(i))
        path = os.path.join(rundir, f"reference{i}.stderr")
        reference.append(spawn_until_ready(STARTUP_REFERENCE, path, cpus))
    median = gen.median(raw)
    return {
        "setup_s": median * STARTUP_REFERENCE_S / gen.median(reference),
        "raw_setup_s": median,
        "reference_s": gen.median(reference),
    }


def serve_setup(spec: Dict[str, Any], rundir: str
                ) -> Tuple[Dict[str, float], "ServePhase"]:
    """Start the server ``SETUP_SPAWNS`` times; keep the last one running."""
    phases: List[ServePhase] = []

    def start_one(i: int) -> float:
        if phases:
            stopped = phases[-1].stop()
            if stopped["exit_code"] != 0:
                raise RunFailure(f"server setup{i - 1} exited with {stopped}")
        phases.append(ServePhase(spec, rundir, f"setup{i}"))
        return phases[-1].setup_s

    try:
        setup = scaled_setup_s(start_one, rundir, PROGRAM_CPUS)
    except BaseException:
        if phases:
            phases[-1].stop()
        raise
    return setup, phases[-1]


def serve_measure(spec: Dict[str, Any], rundir: str, seed: int,
                  seconds: float, ladder: bool, echo_sock: Optional[str]
                  ) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    setup, phase = serve_setup(spec, rundir)
    try:
        cfg = gen_config(spec, seed, seconds, ladder, echo_sock)
        result = phase.drive(cfg, rundir, "main")
    finally:
        result_stop = phase.stop()
    return setup, result, result_stop


def serve_failures(result: Dict[str, Any], stopped: Dict[str, Any],
                   cluster: bool) -> Tuple[int, int, List[str]]:
    tally = result["tally"]
    attempted = tally["sent"]
    failed = tally["failed"]
    notes = list(tally["errors"])
    phases = [result["main"]] + result.get("steps", [])
    breaches = sum(p["breaches"] for p in phases)
    if breaches:
        failed += breaches
        notes.append(f"{breaches} admission(s) beyond the strict capacity")
    if result["late_p99_s"] > LATE_BOUND_S:
        notes.append(
            f"invalid: generator p99 lateness {result['late_p99_s']:.6f} s "
            f"over the {LATE_BOUND_S} s bound"
        )
        failed += 1
    if stopped["exit_code"] != 0:
        failed += 1
        notes.append(f"server exit code {stopped['exit_code']}")
    if stopped["tracebacks"] and not cluster:
        # the cluster front-end's drain traceback is known and recorded only
        failed += 1
        notes.append(f"{stopped['tracebacks']} traceback(s) in server stderr")
    return attempted, failed, notes


#: the reference server's pp_begin p50 and p90 the program's are scaled
#: to, in seconds: round numbers of the order echo.py gives (0.07-0.09 ms
#: and 0.12-0.18 ms) on the 2-vCPU Intel Xeon VM the benchmark was
#: written on
ECHO_REFERENCE_S = {50: 1.0e-4, 90: 2.0e-4}


def reference_latencies(main: Dict[str, Any]) -> Tuple[float, float]:
    """Open-loop pp_begin p50 and p90 relative to the reference server.

    In every 1-s window of the main phase, the program's percentile is
    divided by the reference server's from the same window, on the same
    CPU, and multiplied by ``ECHO_REFERENCE_S``: the program's latency at
    a fixed speed of the host's kernel, wake-ups and event loop, which on
    a shared host swing by more than a third from one run to the next.
    The result is the median over the windows.
    """
    program, echo = main["begin_by_window"], main["echo_begin_by_window"]
    windows = sorted(set(program) & set(echo))
    if not windows:
        raise RunFailure("no window with enough program and reference replies")
    return tuple(
        gen.median([program[w][i] / echo[w][i] for w in windows]) * ECHO_REFERENCE_S[q]
        for i, q in enumerate((50, 90))
    )


def serve_end_to_end(setup_s: float, result: Dict[str, Any],
                     attempted: int, failed: int) -> Dict[str, float]:
    main = result["main"]
    if "echo_begin_by_window" in main:
        p50, p90 = reference_latencies(main)
    else:
        p50, p90 = main["begin_p50_s"], main["begin_p90_s"]
    return {
        "setup_s": setup_s,
        "admissions_per_s": main["admissions_per_s"],
        "begin_p50_s": p50,
        "begin_p90_s": p90,
        "llc_utilization": main["llc_utilization"],
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def primary_cost(name: str, e2e: Dict[str, float]) -> float:
    """The cost tracing may inflate: latency in the open loop, else 1/rate."""
    if name == "fastpath_open":
        return e2e["begin_p50_s"]
    return 1.0 / e2e["admissions_per_s"]


def layer(summary: Dict[str, Any], name: str) -> Tuple[int, float]:
    entry = summary["layers"].get(name) or {"calls": 0, "total_s": 0.0}
    return entry["calls"], entry["total_s"]


def mean_s(summary: Dict[str, Any], name: str) -> float:
    calls, total = layer(summary, name)
    return total / calls if calls else 0.0


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              rundir: str) -> Tuple[Dict[str, float], int, int, List[str], Dict[str, Any]]:
    spec = WORKLOADS[name]
    cluster = "shards" in spec
    main_s = seconds / 2 if trace else seconds
    with contextlib.ExitStack() as stack:
        echo_sock = stack.enter_context(echo_server(rundir)) if spec.get("echo") else None
        # the rate ladder is a per-layer measurement: it runs in the
        # untraced half of a traced run
        setup, result, stopped = serve_measure(
            spec, rundir, seed, main_s, ladder=trace, echo_sock=echo_sock
        )
        attempted, failed, notes = serve_failures(result, stopped, cluster)
        e2e = serve_end_to_end(setup["setup_s"], result, attempted, failed)
        detail: Dict[str, Any] = {"setup": setup, "untraced": result, "server": stopped}
        if not trace:
            return e2e, attempted, failed, notes, detail

        trace_out = os.path.join(rundir, "trace.json")
        phase = ServePhase(spec, rundir, "traced", trace_out=trace_out)
        try:
            cfg = gen_config(spec, seed, main_s, ladder=False, echo_sock=echo_sock)
            traced = phase.drive(cfg, rundir, "traced")
        finally:
            traced_stop = phase.stop()
    t_attempted, t_failed, t_notes = serve_failures(traced, traced_stop, cluster)
    attempted += t_attempted
    failed += t_failed
    notes += [f"traced: {n}" for n in t_notes]
    with open(trace_out) as fh:
        summary = json.load(fh)
    traced_e2e = serve_end_to_end(phase.setup_s, traced, t_attempted, t_failed)
    detail["traced"] = traced
    detail["trace"] = summary

    requests = layer(summary, "serve.protocol.decode")[0]
    wrapped_per_request = summary["top_s"] / requests if requests else 0.0
    residual = traced["rtt_mean_s"] - wrapped_per_request
    begins = layer(summary, "core.begin")[0]
    parks = layer(summary, "core.waitlist.park")[0]
    metrics = {
        "core.begin_s": mean_s(summary, "core.begin"),
        "core.end_s": mean_s(summary, "core.end"),
        "core.waitlist.drain_s": mean_s(summary, "core.waitlist.drain"),
        "core.waitlist.parks": parks,
        "serve.protocol.decode_s": mean_s(summary, "serve.protocol.decode"),
        "serve.protocol.encode_s": mean_s(summary, "serve.protocol.encode"),
        "serve.protocol.parse_s": mean_s(summary, "serve.protocol.parse"),
        "serve.server.residual_s": residual,
        "serve.server.rate_at_slo_per_s": result.get("rate_at_slo_per_s", 0.0),
        "serve.server.handoff_s": result.get("handoff_mean_s", 0.0),
        "serve.server.cpu_share": result["server_cpu_share"],
        "serve.server.park_share": parks / begins if begins else 0.0,
        "serve.journal.append_s": mean_s(summary, "serve.journal.append"),
        "serve.journal.sync_s": mean_s(summary, "serve.journal.sync"),
        "serve.journal.syncs": layer(summary, "serve.journal.sync")[0],
        "serve.placer.place_s": mean_s(summary, "serve.placer.place"),
        "serve.placer.places": layer(summary, "serve.placer.place")[0],
        "serve.cluster.redirect_s": result.get("redirect_mean_s", 0.0),
        "serve.cluster.redirects": result.get("redirects", 0),
        "serve.cluster.colocated_share": result.get("colocated_share", 0.0),
        "bench.gen.late_p99_s": result["late_p99_s"],
        "bench.gen.cpu_share": result["cpu_share"],
        "residual_share": residual / traced["rtt_mean_s"] if traced["rtt_mean_s"] else 0.0,
        "trace_overhead": primary_cost(name, traced_e2e) / primary_cost(name, e2e) - 1.0,
    }
    return metrics, attempted, failed, notes, detail


# ----------------------------------------------------------------------
# sim_table2
# ----------------------------------------------------------------------
def sim_setup(rundir: str) -> Dict[str, float]:
    """Seconds from spawning the simulator process to ``ready``.

    The starts and their reference start-ups share one CPU, as a vCPU's
    speed can differ from its neighbour's.
    """
    argv = [sys.executable, os.path.join(HERE, "simgrid.py"), "setup"]
    return scaled_setup_s(
        lambda i: spawn_until_ready(
            argv, os.path.join(rundir, f"setup{i}.stderr"), PROGRAM_CPUS
        ),
        rundir, PROGRAM_CPUS,
    )


def run_sim(seed: int, seconds: float, trace: bool, rundir: str
            ) -> Tuple[Dict[str, float], int, int, List[str], Dict[str, Any]]:
    setup = sim_setup(rundir)
    cfg = {"seed": seed, "seconds": seconds / 2 if trace else seconds,
           "trace": trace, "trace_out": os.path.join(rundir, "trace.json")}
    with open(os.path.join(rundir, "sim.stderr"), "wb") as err:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "simgrid.py"), "run", json.dumps(cfg)],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), timeout=170,
        )
    if done.returncode != 0:
        raise RunFailure(f"simulator run failed; see {rundir}/sim.stderr")
    out = json.loads(done.stdout.decode().strip().splitlines()[-1])
    passes = out["passes"]
    attempted = sum(p["sims"] for p in passes)
    notes = [m for p in passes for m in p["mismatches"]][:5]
    failed = sum(len(p["mismatches"]) for p in passes)
    begin, end = out["begin_s"], out["end_s"]
    e2e = {
        "setup_s": setup["setup_s"],
        # at the reference speed of calib.py, like the two latencies
        "admissions_per_s": (sum(p["admissions"] for p in passes)
                             / sum(p["reference_s"] for p in passes)),
        "begin_p50_s": gen.median(begin),
        "begin_p90_s": gen.percentile(begin, 90.0),
        "llc_utilization": passes[0]["llc_utilization"],
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {"setup": setup, "passes": passes, "end_p50_s": gen.median(end),
              "end_p90_s": gen.percentile(end, 90.0)}
    if not trace:
        return e2e, attempted, failed, notes, detail

    traced = out["traced_pass"]
    attempted += traced["sims"]
    failed += len(traced["mismatches"])
    notes += traced["mismatches"][:5]
    with open(cfg["trace_out"]) as fh:
        summary = json.load(fh)
    detail["trace"] = summary
    calls = layer(summary, "sim.kernel.run")[0]
    kernel = summary["layers"].get("sim.kernel.run", {"self_s": 0.0})
    # rates and the overhead at the reference speed of calib.py
    untraced_reference_s = sum(p["reference_s"] for p in passes) / len(passes)
    residual = traced["program_s"] - summary["top_s"] + kernel["self_s"]
    metrics = {
        "core.begin_s": mean_s(summary, "core.begin"),
        "core.end_s": mean_s(summary, "core.end"),
        "core.waitlist.drain_s": mean_s(summary, "core.waitlist.drain"),
        "core.waitlist.parks": layer(summary, "core.waitlist.park")[0],
        "sim.engine.events": traced["events"],
        "sim.engine.events_per_s": passes[0]["events"] / untraced_reference_s,
        "sim.engine.schedule_s": mean_s(summary, "sim.engine.schedule"),
        "sim.kernel.self_s": kernel["self_s"] / calls if calls else 0.0,
        "sim.kernel.sims_per_s": passes[0]["sims"] / untraced_reference_s,
        "sim.cpu.bandwidth_s": mean_s(summary, "sim.cpu.bandwidth"),
        "mem.contention.resolve_s": mean_s(summary, "mem.contention.resolve"),
        "mem.contention.resolves": layer(summary, "mem.contention.resolve")[0],
        "perf.counters.adds": summary["counts"].get("perf.counters.add", 0),
        "core.rda.hook_s": mean_s(summary, "core.rda.hook"),
        "residual_share": residual / traced["program_s"],
        "trace_overhead": traced["reference_s"] / untraced_reference_s - 1.0,
    }
    return metrics, attempted, failed, notes, detail


# ----------------------------------------------------------------------
def check_checkout() -> None:
    """The benchmark runs the program from source: it must be there."""
    for path in ("src/repro/__init__.py", "src/repro/serve/server.py",
                 "src/repro/sim/kernel.py"):
        if not os.path.isfile(path):
            raise RunFailure(
                f"{path} not found: run from the root of a checkout of the repository"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if GENERATOR_CPUS is not None and args.workload != "sim_table2":
        os.sched_setaffinity(0, GENERATOR_CPUS)  # keep off the program's CPU
    try:
        check_checkout()
        rundir = os.path.join(
            RUNS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        )
        os.makedirs(rundir, exist_ok=True)
        if args.workload == "sim_table2":
            values, attempted, failed, notes, detail = run_sim(
                args.seed, args.seconds, bool(args.trace), rundir
            )
        else:
            with idle_spinners():
                values, attempted, failed, notes, detail = run_serve(
                    args.workload, args.seed, args.seconds, bool(args.trace), rundir
                )
    except (RunFailure, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(rundir, "detail.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for note in notes:
        log(note)
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for metric, unit in catalogue:
        value = values.get(metric, 0)
        metrics[metric] = {"value": value, "unit": unit}
        log(f"{args.workload} {metric} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
