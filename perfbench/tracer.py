"""Layer wrappers for the traced run.

A :class:`Tracer` replaces public functions of the program with timing
wrappers that live in this file, so the program itself carries no
tracing.  Every wrapped call records one span (name, start, end, parent
span) and adds to per-name aggregates:

* ``calls`` and ``total_s`` -- how often the layer ran and for how long;
* ``self_s`` -- ``total_s`` minus the time of wrapped calls nested inside
  it, so nested layers are never counted twice;
* ``top_s`` -- time of spans with no wrapped parent, i.e. the part of the
  process's time that some wrapped layer accounts for.

The wrapped functions are all synchronous, so a plain stack gives the
nesting even inside the asyncio server: no wrapped call can be suspended
half way.  Spans are kept in memory up to a cap and written out, with the
aggregates, by :meth:`Tracer.dump` when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List

#: spans kept in memory per traced process; aggregates keep counting past it
SPAN_CAP = 20000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: count-only wrappers: name -> calls
        self.counts: Dict[str, int] = {}
        #: (name, start, end, parent span index or -1)
        self.spans: List[Any] = []
        self.top_s = 0.0
        # one entry per open wrapped call: [child time, span index]
        self._stack: List[List[Any]] = []

    # ------------------------------------------------------------------
    def _timed(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            if index < cap:
                spans.append(None)  # filled in when the call returns
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                if index >= 0:
                    spans[index] = (name, start, end, parent)

        return wrapper

    def _counted(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, count_only: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) in place,
        for the rest of the process's life."""
        original = owner.__dict__[attr]
        wrapped = (self._counted if count_only else self._timed)(original, name)
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "layers": {
                name: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "spans_kept": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write the aggregates to ``path`` and the spans to ``path.spans``."""
        with open(path + ".spans", "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


# ----------------------------------------------------------------------
# wrapper sets, one per traced process kind
# ----------------------------------------------------------------------
def install_serve(tracer: Tracer) -> None:
    """Wrap the admission server's layers (core, protocol, journal, placer)."""
    from repro.core.api import ProgressPeriodApi
    from repro.core.waitlist import Waitlist
    from repro.serve import protocol
    from repro.serve.journal import AdmissionJournal
    from repro.serve.placer import DemandAwarePlacer

    tracer.wrap(ProgressPeriodApi, "pp_begin", "core.begin")
    tracer.wrap(ProgressPeriodApi, "pp_end", "core.end")
    tracer.wrap(Waitlist, "drain_admissible", "core.waitlist.drain")
    tracer.wrap(Waitlist, "park", "core.waitlist.park")
    tracer.wrap(protocol, "decode_any_frame", "serve.protocol.decode")
    tracer.wrap(protocol, "encode_frame", "serve.protocol.encode")
    tracer.wrap(protocol, "parse_request", "serve.protocol.parse")
    tracer.wrap(AdmissionJournal, "record_admit", "serve.journal.append")
    tracer.wrap(AdmissionJournal, "record_close", "serve.journal.append")
    tracer.wrap(AdmissionJournal, "sync", "serve.journal.sync")
    tracer.wrap(DemandAwarePlacer, "place", "serve.placer.place")


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulator's layers (engine, kernel, cpu, contention, ...)."""
    from repro.core.api import ProgressPeriodApi
    from repro.core.rda import RdaScheduler
    from repro.core.waitlist import Waitlist
    from repro.mem.contention import SharedLlcModel
    from repro.perf.counters import CounterSet
    from repro.sim.cpu import ExecutionModel
    from repro.sim.engine import Engine
    from repro.sim.kernel import Kernel

    tracer.wrap(Kernel, "run", "sim.kernel.run")
    tracer.wrap(Engine, "schedule_at", "sim.engine.schedule")
    tracer.wrap(ExecutionModel, "apply_bandwidth_cap", "sim.cpu.bandwidth")
    tracer.wrap(SharedLlcModel, "resolve", "mem.contention.resolve")
    tracer.wrap(RdaScheduler, "on_pp_begin", "core.rda.hook")
    tracer.wrap(RdaScheduler, "on_pp_end", "core.rda.hook")
    tracer.wrap(ProgressPeriodApi, "pp_begin", "core.begin")
    tracer.wrap(ProgressPeriodApi, "pp_end", "core.end")
    tracer.wrap(Waitlist, "drain_admissible", "core.waitlist.drain")
    tracer.wrap(Waitlist, "park", "core.waitlist.park")
    tracer.wrap(CounterSet, "add", "perf.counters.add", count_only=True)
