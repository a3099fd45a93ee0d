"""Load generator for the serve workloads, run as its own process.

Usage: ``python3 perfbench/gen.py '<json config>'``; prints one JSON
result object as its last line.

The generator speaks the NDJSON wire protocol over plain unix sockets
and never imports the program, so its cost is not counted as server cost
and it keeps working whatever the server's client library becomes.  At
most two connections are open at once.

Modes (``config["mode"]``):

``open``
    Poisson arrivals at a fixed rate, alternating over two persistent
    connections.  Each ``pp_begin`` is sent at its due time whatever the
    state of earlier requests, and its ``pp_end`` goes out a short hold
    after the admission reply arrives.  ``pp_begin`` latency is timed from
    the due time, so a stall is charged to every request it delays.  With
    ``echo_socket``, the main phase and the warm-up also offer pairs at
    half the rate to the reference server ``echo.py`` over a third
    connection, timed the same way.  When the config carries a ladder,
    the rate then steps up it until a step misses the latency limit or
    leaves a backlog.
``closed``
    Two clients, each looping begin -> hold -> end -> begin.
``cluster``
    As ``closed``, but every session dials the cluster front-end, follows
    its REDIRECT to the named shard, says hello there and runs a few
    periods before hanging up.

Times are ``time.perf_counter()`` seconds in this process.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import json
import random
import select
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

CALL_TIMEOUT_S = 10.0
#: the open loop polls instead of sleeping when its next send is due
#: within this many seconds, so sends go out on time and replies are read
#: as they arrive, not a wake-up later
SPIN_S = 0.002
#: latency percentiles are taken per window of this many seconds, over
#: windows that hold enough samples to leave 20 beyond their p90
WINDOW_S = 1.0
MIN_WINDOW_SAMPLES = 200
#: printed on stdout when the main phase ends, so the parent can sample
#: the server's memory and CPU before the rate ladder loads it further
MAIN_DONE = "main-done"

REUSES = ("low", "med", "high")
#: the open loop's request frames, formatted without a JSON encoder
BEGIN_FRAME = (
    '{"v":1,"id":%d,"op":"pp_begin","demand_bytes":%d,"reuse":"%s",'
    '"label":"bench"}\n'
)
END_FRAME = '{"v":1,"id":%d,"op":"pp_end","pp_id":%d}\n'


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def latency_stats(prefix: str, samples: List[Tuple[float, float]],
                  start: Optional[float] = None) -> Dict[str, Any]:
    """Latency percentiles of ``(timestamp, latency)`` samples.

    ``<prefix>_p50_s`` and ``<prefix>_p90_s`` are the lowest values over
    ``WINDOW_S`` windows that hold at least ``MIN_WINDOW_SAMPLES`` samples
    (the whole phase when none does).  Contention from other tenants of
    the host only ever adds time, and it comes and goes within seconds,
    so the least disturbed window is the steadiest estimate of the
    program's own cost.  ``<prefix>_p99_s`` is over the whole phase, for
    reference.  ``<prefix>_by_window`` maps each full window's index to
    its p50 and p90; windows count from ``start`` (default: the first
    sample), so two sets of samples given the same ``start`` line up.
    """
    values = [v for _, v in samples]
    stats: Dict[str, Any] = {
        f"{prefix}_samples": len(values),
        f"{prefix}_p99_s": percentile(values, 99.0) if values else None,
    }
    windows: Dict[int, List[float]] = {}
    if start is None:
        start = min((t for t, _ in samples), default=0.0)
    for t, value in samples:
        windows.setdefault(int((t - start) / WINDOW_S), []).append(value)
    # window index -> [p50, p90], to set against another server's windows
    stats[f"{prefix}_by_window"] = {
        k: [percentile(w, 50.0), percentile(w, 90.0)]
        for k, w in windows.items() if len(w) >= MIN_WINDOW_SAMPLES
    }
    full = [w for w in windows.values() if len(w) >= MIN_WINDOW_SAMPLES] or (
        [values] if values else []
    )
    stats[f"{prefix}_windows"] = len(full)
    for q in (50, 90):
        stats[f"{prefix}_p{q}_s"] = (
            min(percentile(w, q) for w in full) if full else None
        )
    return stats


class ReplyError(Exception):
    pass


class Conn:
    """One NDJSON connection over a blocking unix socket."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(CALL_TIMEOUT_S)
        self.sock.connect(path)
        self.buf = b""
        self.out = bytearray()
        self.next_id = 1

    def send(self, op: str, **fields: Any) -> int:
        rid = self.next_id
        self.next_id += 1
        frame = {"v": 1, "id": rid, "op": op}
        frame.update(fields)
        self.sock.sendall(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        return rid

    def read_reply(self) -> Dict[str, Any]:
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        rid = self.send(op, **fields)
        reply = self.read_reply()
        if reply.get("id") != rid:
            raise ReplyError(f"reply id {reply.get('id')} for request {rid}")
        return reply

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def hello(conn: Conn, client: str, redirect: bool = False) -> Dict[str, Any]:
    fields: Dict[str, Any] = {"client": client}
    if redirect:
        fields["redirect"] = True
    return conn.call("hello", **fields)


class Tally:
    """Calls sent, succeeded and failed, plus the first few errors."""

    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.errors: List[str] = []
        self.lock = threading.Lock()

    def success(self) -> None:
        with self.lock:
            self.sent += 1
            self.ok += 1

    def failure(self, what: str) -> None:
        with self.lock:
            self.sent += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def to_dict(self) -> Dict[str, Any]:
        return {"sent": self.sent, "succeeded": self.ok, "failed": self.failed,
                "errors": self.errors}


def capacity_violations(
    periods: List[Tuple[float, float, int, str]], capacity: int
) -> int:
    """Instants where the admitted demand seen by the clients exceeds capacity.

    ``periods`` are ``(admitted_at, released_at, demand, shard)``: the
    admission reply's arrival and the ``pp_end`` send time, which lie
    inside the server's own admit/release interval.  So two periods that
    overlap here overlapped on the server too, and a sum above capacity
    is a real breach of the strict policy.
    """
    events: List[Tuple[float, int, int, str]] = []
    for admitted, released, demand, shard in periods:
        events.append((admitted, 1, demand, shard))
        events.append((released, 0, demand, shard))
    events.sort()
    usage: Dict[str, int] = {}
    breaches = 0
    for _, opening, demand, shard in events:
        usage[shard] = usage.get(shard, 0) + (demand if opening else -demand)
        if opening and usage[shard] > capacity:
            breaches += 1
    return breaches


def utilization(
    periods: List[Tuple[float, float, int, str]],
    capacity: int,
    window: Tuple[float, float],
) -> float:
    """Time-averaged admitted demand over ``capacity`` within ``window``."""
    lo, hi = window
    held = 0.0
    for admitted, released, demand, _ in periods:
        span = min(released, hi) - max(admitted, lo)
        if span > 0:
            held += span * demand
    return held / (capacity * (hi - lo))


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
#: the open loop's connection to the reference server, when it has one
ECHO = 2


class OpenLoop:
    """Two pipelined connections driven by one thread.

    A single thread both sends at the due times and reads replies, waiting
    in ``select`` (microsecond timeouts, unlike ``epoll``'s milliseconds).
    With two cores shared with the server, a second generator thread would
    queue for a core and make the generator late.

    With ``config["echo_socket"]`` a third connection goes to the
    reference server ``echo.py``; phases run with ``echo`` offer it pairs
    at half the program's rate, from a Poisson stream of their own, and
    time them the same way.  Its replies are not counted in the tally.
    """

    def __init__(self, cfg: Dict[str, Any], tally: Tally) -> None:
        self.cfg = cfg
        self.tally = tally
        self.conns = [Conn(cfg["socket"]) for _ in range(2)]
        if cfg.get("echo_socket"):
            self.conns.append(Conn(cfg["echo_socket"]))
        for i, conn in enumerate(self.conns):
            reply = hello(conn, f"{cfg['client_prefix']}-{i}")
            if not reply.get("ok"):
                raise ReplyError(f"hello refused: {reply}")
            conn.sock.setblocking(False)
        #: per connection: request id -> (kind, record)
        self.pending: List[Dict[int, Tuple[str, List[Any]]]] = [{} for _ in self.conns]
        #: the reference server's calls, kept out of the program's tally
        self.echo_tally = Tally()
        #: admitted periods waiting out their hold: (end due, key, conn, record, pp_id)
        self.ends: List[Tuple[float, int, int, List[Any], int]] = []
        self.outstanding = 0

    def _queue(self, index: int, kind: str, rec: List[Any], template: str,
               *values: Any) -> None:
        """Queue one request frame; :meth:`_flush` sends it."""
        conn = self.conns[index]
        rid = conn.next_id
        conn.next_id += 1
        self.pending[index][rid] = (kind, rec)
        conn.out += (template % ((rid,) + values)).encode()

    def _flush(self) -> None:
        # Never block on a send: a generator stuck in sendall stops reading,
        # and a server whose replies back up stops reading in turn.
        for conn in self.conns:
            if not conn.out:
                continue
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                continue
            del conn.out[:sent]

    def _on_reply(self, index: int, reply: Dict[str, Any], now: float) -> None:
        kind, rec = self.pending[index].pop(reply.get("id"), (None, None))
        if rec is None:
            self.tally.failure(f"unmatched reply {reply}")
            return
        tally = self.tally if index != ECHO else self.echo_tally
        if kind == "b":
            rec[2] = now
            if reply.get("ok") and reply.get("admitted"):
                tally.success()
                rec[6] = reply.get("waited_s", 0.0) > 0
                rec[9] = now + rec[8]
                heapq.heappush(self.ends, (rec[9], id(rec), index, rec, reply["pp_id"]))
                return
            tally.failure(f"pp_begin: {reply}")
        else:
            rec[4] = now
            if reply.get("ok") and reply.get("released"):
                tally.success()
                rec[5] = True
            else:
                tally.failure(f"pp_end: {reply}")
        self.outstanding -= 1

    def _read(self, ready: List[socket.socket], now: float) -> None:
        for index, conn in enumerate(self.conns):
            if conn.sock not in ready:
                continue
            try:
                chunk = conn.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                raise ConnectionError("server closed the connection")
            lines = (conn.buf + chunk).split(b"\n")
            conn.buf = lines.pop()
            for line in lines:
                self._on_reply(index, json.loads(line), now)

    def phase(self, rate: float, seconds: float, rng: random.Random,
              echo: bool = False) -> Dict[str, Any]:
        """Offer ``rate`` pairs/s for ``seconds``; wait for every reply."""
        cfg = self.cfg
        lo, hi = cfg["demand_bytes"]
        hold_lo, hold_hi = cfg["hold_s"]
        clock = time.perf_counter
        socks = [conn.sock for conn in self.conns]
        ends = self.ends
        start = clock() + 0.05
        # (due, connection): the program's arrivals alternate over its two
        # connections; the reference server's come from their own stream
        dues: List[Tuple[float, int]] = []
        t = start
        while True:
            t += rng.expovariate(rate)
            if t >= start + seconds:
                break
            dues.append((t, len(dues) % 2))
        if echo:
            echo_rng = random.Random(rng.random())
            t = start
            while True:
                t += echo_rng.expovariate(rate / 2.0)
                if t >= start + seconds:
                    break
                dues.append((t, ECHO))
            dues.sort()
        # rec: [due, sent, begin_reply, end_sent, end_reply, end_ok, parked,
        #       demand, hold, end_due, connection]
        records: List[List[Any]] = []
        i = 0
        schedule_end = None
        deadline = start + seconds + CALL_TIMEOUT_S
        while True:
            now = clock()
            while i < len(dues) and dues[i][0] <= now:
                due, index = dues[i]
                rec = [due, 0.0, None, None, None, False, False,
                       rng.randint(lo, hi), rng.uniform(hold_lo, hold_hi), None, index]
                self.outstanding += 1
                self._queue(index, "b", rec, BEGIN_FRAME, rec[7], REUSES[i % 3])
                self._flush()
                rec[1] = clock()
                records.append(rec)
                i += 1
            while ends and ends[0][0] <= now:
                _, _, index, rec, pp_id = heapq.heappop(ends)
                rec[3] = clock()
                self._queue(index, "e", rec, END_FRAME, pp_id)
            self._flush()
            if i == len(dues) and schedule_end is None:
                schedule_end = clock()
            if i == len(dues) and not ends:
                if self.outstanding == 0 or now > deadline:
                    break
                timeout = deadline - now
            else:
                due = min(dues[i][0] if i < len(dues) else deadline,
                          ends[0][0] if ends else deadline)
                timeout = max(0.0, due - clock())
                if timeout < SPIN_S:
                    timeout = 0.0
            backed_up = [conn.sock for conn in self.conns if conn.out]
            ready, _, _ = select.select(socks, backed_up, [], timeout)
            if ready:
                self._read(ready, clock())
            self._flush()
        drain_s = clock() - schedule_end
        if self.outstanding:
            self.tally.failure(f"{self.outstanding} replies missing after the phase")
            self.outstanding = 0
        finished = [r for r in records if r[2] is not None and r[4] is not None]
        late = [r[1] - r[0] for r in records] + [r[3] - r[9] for r in finished]
        echoed = [r for r in finished if r[10] == ECHO]
        records = [r for r in records if r[10] != ECHO]
        done = [r for r in finished if r[10] != ECHO]
        begin = [(r[0], r[2] - r[0]) for r in done]
        end = [(r[3], r[4] - r[3]) for r in done]
        periods = [(r[2], r[3], r[7], "") for r in done]
        window = (start, start + seconds)
        echo_stats = latency_stats(
            "echo_begin", [(r[0], r[2] - r[0]) for r in echoed], start
        ) if echo else {}
        return {
            "rate": rate,
            "seconds": seconds,
            "pairs": len(records),
            "completed": len(done),
            "admissions_per_s": len(done) / seconds,
            **latency_stats("begin", begin, start),
            **latency_stats("end", end),
            **echo_stats,
            "late_p99_s": percentile(late, 99.0) if late else 0.0,
            "drain_s": drain_s,
            "parked": sum(1 for r in done if r[6]),
            "llc_utilization": utilization(periods, cfg["capacity_bytes"], window),
            "breaches": capacity_violations(periods, cfg["capacity_bytes"]),
            "rtt_s": [r[2] - r[1] for r in done if not r[6]] + [r[4] - r[3] for r in done],
        }

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def run_open(cfg: Dict[str, Any], tally: Tally) -> Dict[str, Any]:
    rng = random.Random(cfg["seed"])
    loop = OpenLoop(cfg, tally)
    try:
        # warm-up: first-use code paths and allocator growth in the server
        echo = bool(cfg.get("echo_socket"))
        loop.phase(cfg["rate"], cfg["warmup_s"], rng, echo)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        main = loop.phase(cfg["rate"], cfg["main_s"], rng, echo)
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        print(MAIN_DONE, flush=True)
        rtt = main.pop("rtt_s")
        steps = []
        rate_at_slo = None
        stop = "ladder exhausted"
        if main["begin_p90_s"] <= cfg["slo_s"]:
            rate_at_slo = cfg["rate"]
        for rate in cfg.get("ladder", []):
            if rate_at_slo is None:
                stop = "main rate missed the limit"
                break
            # A step is met if either of two attempts meets the limit on
            # time: one host stall of a few ms must not end the ladder.
            for _attempt in range(2):
                time.sleep(0.2)
                step = loop.phase(rate, cfg["step_s"], rng)
                step.pop("rtt_s")
                steps.append(step)
                late = step["late_p99_s"] > cfg["late_bound_s"]
                met = not late and (
                    step["begin_p90_s"] <= cfg["slo_s"]
                    and step["drain_s"] <= cfg["slo_s"]
                    and step["completed"] == step["pairs"]
                )
                if met:
                    break
            if late:
                stop = f"generator late at {rate}/s"
                break
            if not met:
                stop = f"limit missed at {rate}/s"
                break
            rate_at_slo = rate
    finally:
        loop.close()
    return {
        "main": main,
        "steps": steps,
        "rate_at_slo_per_s": rate_at_slo or 0.0,
        "ladder_stop": stop,
        "late_p99_s": main["late_p99_s"],
        "cpu_share": cpu_share,
        "rtt_mean_s": sum(rtt) / len(rtt) if rtt else 0.0,
        "rtt_count": len(rtt),
    }


# ----------------------------------------------------------------------
# closed loops (single server and cluster)
# ----------------------------------------------------------------------
class Shared:
    """State the two closed-loop clients share (under the GIL)."""

    def __init__(self) -> None:
        self.last_end_sent = [0.0, 0.0]
        #: per client: (time, shard) each time its shard changes
        self.shard_log: List[List[Tuple[float, str]]] = [[], []]
        self.periods: List[Tuple[float, float, int, str]] = []
        self.begin: List[Tuple[float, float]] = []
        self.end: List[Tuple[float, float]] = []
        self.handoff: List[float] = []
        self.redirect: List[float] = []
        self.rtt: List[float] = []
        #: how much later than planned each pp_end went out
        self.late: List[float] = []
        self.parked = 0
        self.begins = 0


def one_period(
    conn: Conn, idx: int, shard: str, cfg: Dict[str, Any], rng: random.Random,
    shared: Shared, tally: Tally,
) -> bool:
    clock = time.perf_counter
    lo, hi = cfg["demand_bytes"]
    demand = rng.randint(lo, hi)
    sent = clock()
    reply = conn.call("pp_begin", demand_bytes=demand, reuse="high", label="bench")
    admitted = clock()
    if not (reply.get("ok") and reply.get("admitted")):
        tally.failure(f"pp_begin: {reply}")
        return False
    tally.success()
    shared.begins += 1
    shared.begin.append((sent, admitted - sent))
    if reply.get("waited_s", 0.0) > 0:
        shared.parked += 1
        other = shared.last_end_sent[1 - idx]
        if other > sent:
            shared.handoff.append(admitted - other)
    else:
        shared.rtt.append(admitted - sent)
    hold_lo, hold_hi = cfg["hold_s"]
    hold = rng.uniform(hold_lo, hold_hi)
    time.sleep(hold)
    end_sent = clock()
    shared.late.append(end_sent - admitted - hold)
    shared.last_end_sent[idx] = end_sent
    reply = conn.call("pp_end", pp_id=reply["pp_id"])
    end_reply = clock()
    shared.periods.append((admitted, end_sent, demand, shard))
    if not (reply.get("ok") and reply.get("released")):
        tally.failure(f"pp_end: {reply}")
        return False
    tally.success()
    shared.end.append((end_sent, end_reply - end_sent))
    shared.rtt.append(end_reply - end_sent)
    return True


def closed_client(
    idx: int, cfg: Dict[str, Any], stop_at: float, shared: Shared, tally: Tally
) -> None:
    rng = random.Random(f"{cfg['seed']}-{idx}")
    client = f"{cfg['client_prefix']}-{idx}"
    try:
        if cfg["mode"] == "closed":
            conn = Conn(cfg["socket"])
            reply = hello(conn, client)
            if not reply.get("ok"):
                tally.failure(f"hello: {reply}")
                return
            try:
                while time.perf_counter() < stop_at:
                    if not one_period(conn, idx, "server", cfg, rng, shared, tally):
                        return
            finally:
                conn.close()
            return
        while time.perf_counter() < stop_at:
            front = Conn(cfg["socket"])
            try:
                reply = hello(front, client, redirect=True)
            finally:
                front.close()
            redirected = time.perf_counter()
            error = reply.get("error") or {}
            if error.get("code") != "REDIRECT" or not error.get("shard"):
                tally.failure(f"hello at the front-end: {reply}")
                return
            shard = error["shard"]
            name = shard.get("name") or shard.get("unix_path")
            conn = Conn(shard["unix_path"])
            try:
                reply = hello(conn, client)
                if not reply.get("ok"):
                    tally.failure(f"hello at shard {name}: {reply}")
                    return
                shared.redirect.append(time.perf_counter() - redirected)
                log = shared.shard_log[idx]
                if not log or log[-1][1] != name:
                    log.append((redirected, name))
                for _ in range(cfg["session_periods"]):
                    if time.perf_counter() >= stop_at:
                        break
                    if not one_period(conn, idx, name, cfg, rng, shared, tally):
                        return
            finally:
                conn.close()
    except (OSError, ValueError, ReplyError) as exc:
        tally.failure(f"client {idx}: {type(exc).__name__}: {exc}")


def colocated_share(
    logs: List[List[Tuple[float, str]]], window: Tuple[float, float]
) -> float:
    """Share of ``window`` during which both clients were on one shard."""
    lo, hi = window
    changes = sorted(
        (t, idx, shard) for idx, log in enumerate(logs) for t, shard in log
    )
    current: List[Optional[str]] = [None, None]
    together = 0.0
    last = lo
    for t, idx, shard in changes + [(hi, -1, "")]:
        t = min(max(t, lo), hi)
        if current[0] is not None and current[0] == current[1]:
            together += t - last
        last = t
        if idx >= 0:
            current[idx] = shard
    return together / (hi - lo)


def closed_phase(cfg: Dict[str, Any], seconds: float, shared: Shared,
                 tally: Tally) -> None:
    """Run the two closed-loop clients for ``seconds``."""
    stop_at = time.perf_counter() + seconds
    threads = [
        threading.Thread(target=closed_client, args=(i, cfg, stop_at, shared, tally))
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * CALL_TIMEOUT_S)
        if thread.is_alive():
            tally.failure("client thread did not finish")


def run_closed(cfg: Dict[str, Any], tally: Tally) -> Dict[str, Any]:
    closed_phase(dict(cfg, seed=f"{cfg['seed']}-warmup"), cfg["warmup_s"], Shared(), tally)
    shared = Shared()
    clock = time.perf_counter
    start = clock()
    cpu0 = time.process_time()
    closed_phase(cfg, cfg["main_s"], shared, tally)
    wall = clock() - start
    print(MAIN_DONE, flush=True)
    window = (start, start + cfg["main_s"])
    capacity = cfg["capacity_bytes"]
    shards = cfg.get("shards", 1)
    begin = shared.begin
    end = shared.end
    return {
        "main": {
            "seconds": wall,
            "admissions_per_s": len(begin) / wall,
            **latency_stats("begin", begin),
            **latency_stats("end", end),
            "llc_utilization": utilization(shared.periods, capacity * shards, window),
            "breaches": capacity_violations(shared.periods, capacity),
            "parked": shared.parked,
            "begins": shared.begins,
        },
        "late_p99_s": percentile(shared.late, 99.0) if shared.late else 0.0,
        "cpu_share": (time.process_time() - cpu0) / wall,
        "handoff_mean_s": (
            sum(shared.handoff) / len(shared.handoff) if shared.handoff else 0.0
        ),
        "handoffs": len(shared.handoff),
        "redirect_mean_s": (
            sum(shared.redirect) / len(shared.redirect) if shared.redirect else 0.0
        ),
        "redirects": len(shared.redirect),
        "colocated_share": (
            colocated_share(shared.shard_log, window)
            if cfg["mode"] == "cluster" else 0.0
        ),
        "rtt_mean_s": sum(shared.rtt) / len(shared.rtt) if shared.rtt else 0.0,
        "rtt_count": len(shared.rtt),
    }


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[1])
    tally = Tally()
    # The generator is not under test: keep collector pauses out of its
    # timing, and hand the GIL over quickly between the closed-loop clients.
    gc.disable()
    # sleep to the microsecond, not within the default 50 us timer slack
    PR_SET_TIMERSLACK = 29
    ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    sys.setswitchinterval(0.0005)
    if cfg["mode"] == "open":
        result = run_open(cfg, tally)
    else:
        result = run_closed(cfg, tally)
    result["tally"] = tally.to_dict()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
