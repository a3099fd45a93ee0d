"""The ``sim_table2`` process: the Table-2 grid through ``run_workload_full``.

Usage (from the root of a checkout, with ``src`` importable)::

    python3 perfbench/simgrid.py setup
    python3 perfbench/simgrid.py run '<json config>'
    python3 perfbench/simgrid.py reference > perfbench/sim_reference.json

``setup`` imports the simulator and builds the eight workloads, then
prints ``ready``: the parent times it as the workload's set-up.

``run`` executes whole passes over the grid (8 workloads x {Linux
Default, RDA: Strict, RDA: Compromise}) in an order drawn from the seed,
for at least one pass and until ``seconds`` have gone by.  Every result is
compared with ``sim_reference.json``.  With ``trace`` set, one more pass
runs with the layer wrappers of :mod:`tracer` installed.  (Calibration
samples go on during that pass too, so its time can be set against the
untraced passes' at the reference speed; the 1-2% of its time they take
is counted in whichever layer they interrupt.)

``reference`` prints the simulated results of one pass in the
reference-file format.

The kernel's calls into the RDA extension (``on_pp_begin`` /
``on_pp_end``) are timed in every pass: they are this workload's
``pp_begin``/``pp_end`` latencies, the per-call overhead the paper's
Fig. 11 measures.  While the passes run, a :class:`calib.Speedometer`
times the calibration unit every 0.1 s, and pass times and hook
latencies are also given at the reference speed (see ``calib.py``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import Speedometer  # noqa: E402

REFERENCE = os.path.join(HERE, "sim_reference.json")
POLICIES = ("default", "strict", "compromise")


def load_grid():
    """Import the simulator and build the grid's workloads."""
    from repro.core.policy import CompromisePolicy, StrictPolicy
    from repro.workloads import WORKLOAD_NAMES, workload_by_name

    makers = {"default": lambda: None, "strict": StrictPolicy,
              "compromise": CompromisePolicy}
    workloads = {name: workload_by_name(name) for name in WORKLOAD_NAMES}
    grid = [(name, policy) for name in WORKLOAD_NAMES for policy in POLICIES]
    return workloads, makers, grid


def result_record(result) -> Dict[str, Any]:
    report = result.report
    return {
        "wall_s": report.wall_s,
        "gflops": report.gflops,
        "package_j": report.package_j,
        "dram_j": report.dram_j,
        "events": result.kernel.engine.events_processed,
    }


class HookProbe:
    """Times the kernel's calls into the RDA extension.

    Also integrates the extension's charged LLC bytes over simulated time
    (the charge only changes inside these hooks), which gives the
    simulated LLC utilization of the RDA runs.  A call during which
    ``meter`` took a calibration sample is not timed.
    """

    def __init__(self, meter: Speedometer) -> None:
        from repro.core.progress_period import ResourceKind
        from repro.core.rda import RdaScheduler

        #: (start, seconds) of every timed call
        self.begin: List[Tuple[float, float]] = []
        self.end: List[Tuple[float, float]] = []
        self.byte_seconds = 0.0
        #: (simulated time, charged bytes) at the running simulation's last
        #: hook; simulations run one at a time
        self._last: Tuple[float, int] = (0.0, 0)
        clock = time.perf_counter
        probe = self
        begin_fn = RdaScheduler.on_pp_begin
        end_fn = RdaScheduler.on_pp_end
        exit_fn = RdaScheduler.on_thread_exit

        def integrate(sched) -> None:
            then, charged = probe._last
            probe.byte_seconds += charged * (sched.kernel.engine.now - then)

        def settle(sched) -> None:
            usage = sched.resources.state(ResourceKind.LLC).usage_bytes
            probe._last = (sched.kernel.engine.now, usage)

        def on_pp_begin(sched, thread, request):
            integrate(sched)
            taken = meter.taken
            start = clock()
            result = begin_fn(sched, thread, request)
            elapsed = clock() - start
            if meter.taken == taken:
                probe.begin.append((start, elapsed))
            settle(sched)
            return result

        def on_pp_end(sched, thread, pp_id):
            integrate(sched)
            taken = meter.taken
            start = clock()
            result = end_fn(sched, thread, pp_id)
            elapsed = clock() - start
            if meter.taken == taken:
                probe.end.append((start, elapsed))
            settle(sched)
            return result

        def on_thread_exit(sched, thread):
            integrate(sched)
            result = exit_fn(sched, thread)
            settle(sched)
            return result

        RdaScheduler.on_pp_begin = on_pp_begin
        RdaScheduler.on_pp_end = on_pp_end
        RdaScheduler.on_thread_exit = on_thread_exit

    def forget(self) -> None:
        """Reset the integration once a simulation has finished."""
        self._last = (0.0, 0)


def run_pass(order, workloads, makers, reference, probe) -> Dict[str, Any]:
    from repro.config import default_machine_config
    from repro.experiments.runner import run_workload_full

    capacity = default_machine_config().llc_capacity
    mismatches: List[str] = []
    events = 0
    rda_sim_s = 0.0
    begins_before = len(probe.begin)
    ends_before = len(probe.end)
    bytes_before = probe.byte_seconds
    start = time.perf_counter()
    per_sim: Dict[str, float] = {}
    for name, policy in order:
        sim_start = time.perf_counter()
        result = run_workload_full(workloads[name], makers[policy]())
        per_sim[f"{name}/{policy}"] = time.perf_counter() - sim_start
        probe.forget()
        record = result_record(result)
        events += record["events"]
        if policy != "default":
            rda_sim_s += record["wall_s"]
        expected = reference.get(f"{name}/{policy}")
        if expected != record:
            mismatches.append(f"{name}/{policy}: got {record}, expected {expected}")
    finish = time.perf_counter()
    return {
        "start": start,
        "finish": finish,
        "host_s": finish - start,
        "per_sim_host_s": per_sim,
        "sims": len(order),
        "events": events,
        "admissions": len(probe.end) - ends_before,
        "begins": len(probe.begin) - begins_before,
        "llc_utilization": (probe.byte_seconds - bytes_before) / (capacity * rda_sim_s),
        "mismatches": mismatches,
    }


def vm_hwm_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def at_reference(meter: Speedometer, calls: List[Tuple[float, float]]) -> List[float]:
    factors = meter.factors_at([start for start, _ in calls])
    return [seconds * factor for (_, seconds), factor in zip(calls, factors)]


def cmd_run(cfg: Dict[str, Any]) -> Dict[str, Any]:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workloads, makers, grid = load_grid()
    rng = random.Random(cfg["seed"])
    meter = Speedometer()
    probe = HookProbe(meter)
    passes = []
    deadline = time.perf_counter() + cfg["seconds"]
    traced = None
    meter.start()
    try:
        while True:
            order = list(grid)
            rng.shuffle(order)
            passes.append(run_pass(order, workloads, makers, reference, probe))
            mean_pass = sum(p["host_s"] for p in passes) / len(passes)
            if time.perf_counter() + mean_pass > deadline:
                break
        untraced_calls = len(probe.begin), len(probe.end)
        peak_rss_mb = vm_hwm_mb()
        if cfg.get("trace"):
            from tracer import Tracer, install_sim

            tracer = Tracer()
            install_sim(tracer)
            order = list(grid)
            rng.shuffle(order)
            traced = run_pass(order, workloads, makers, reference, probe)
            tracer.dump(cfg["trace_out"])
    finally:
        meter.stop()
    for p in passes + ([traced] if traced else []):
        # the pass without the calibration samples, as measured and at
        # the reference speed
        p["program_s"] = meter.between(p["start"], p["finish"])
        p["reference_s"] = meter.between(p["start"], p["finish"], at_reference=True)
    out: Dict[str, Any] = {
        "passes": passes,
        "begin_s": at_reference(meter, probe.begin[:untraced_calls[0]]),
        "end_s": at_reference(meter, probe.end[:untraced_calls[1]]),
        "calibrations": meter.taken,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        out["traced_pass"] = traced
    return out


def cmd_reference() -> Dict[str, Any]:
    from repro.experiments.runner import run_workload_full

    workloads, makers, grid = load_grid()
    return {
        f"{name}/{policy}": result_record(
            run_workload_full(workloads[name], makers[policy]())
        )
        for name, policy in grid
    }


def main(argv: List[str]) -> int:
    command = argv[1] if len(argv) > 1 else ""
    if command == "setup":
        load_grid()
        print("ready", flush=True)
        return 0
    if command == "run":
        print(json.dumps(cmd_run(json.loads(argv[2]))))
        return 0
    if command == "reference":
        print(json.dumps(cmd_reference(), indent=1, sort_keys=True))
        return 0
    print(f"usage: {argv[0]} setup | run '<json>' | reference", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
