"""A fault-tolerant client for the admission-control service.

:class:`~repro.serve.client.ServeClient` is deliberately thin: one
connection, strict request/reply order, no recovery.  This module layers
the client half of the service's fault-tolerance contract on top of it:

* **Reconnect + hello.**  Every (re)connection re-binds the same durable
  ``client_id`` with ``hello``, reattaching to periods that survived a
  disconnect or a server restart under the lease.
* **Redirect following.**  A cluster front-end (``repro.serve.cluster``)
  may answer ``hello`` with a typed ``REDIRECT`` carrying the address of
  the admission shard this client was placed on.  The client transparently
  re-connects there (bounded hops, counted in :attr:`redirects`); when a
  redirected-to shard later becomes unreachable the client falls back to
  the original front-end address so the placer can re-place it.
* **Idempotent pp_begin.**  Each admission carries a client-generated
  idempotency token.  A reply lost to a dropped connection or a server
  crash is re-issued with the *same* token; the server (and its journal)
  dedupe it, so the demand is charged at most once.
* **Exponential backoff with jitter.**  Transport failures and
  ``RETRY_AFTER`` pushback both back off exponentially (with jitter, so a
  thousand retrying clients do not stampede), floored at the server's
  ``retry_after_s`` hint when one is given.
* **Pipelined transport.**  Replies are matched to requests by ``id`` by a
  background reader task instead of by arrival order, so heartbeats keep
  flowing — and the lease keeps renewing — while a ``pp_begin`` is parked
  on the server.
* **Tolerant pp_end.**  A period the lease reaper already reclaimed (the
  client was silent past the TTL) yields a ``lost`` marker instead of an
  exception, and is counted in :attr:`lost_periods`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import random
import time
import uuid
from typing import Any, Dict, List, Optional

from ..errors import ProtocolError, ServeError
from . import protocol
from .client import ServeClient, ServeReplyError
from .protocol import ErrorCode

__all__ = ["ResilientServeClient", "backoff_sleep_s"]


def backoff_sleep_s(
    attempt: int,
    base_s: float,
    cap_s: float,
    rng: random.Random,
    floor_s: float = 0.0,
    max_exp: int = 10,
) -> float:
    """Exponential backoff with 25% jitter, floored at ``floor_s``.

    ``floor_s`` carries the server's ``retry_after_s`` hint and is applied
    *after* the ``cap_s`` clamp: the hint is the server's stated minimum
    and must hold as a hard floor even when it exceeds the client's own
    backoff cap (regression-tested in ``tests/serve/test_resilient.py``).
    """
    base = min(base_s * (2 ** min(attempt, max_exp)), cap_s)
    base = max(base, floor_s)
    return base * (1.0 + 0.25 * rng.random())


class ResilientServeClient:
    """Reconnecting, retrying, lease-renewing admission client."""

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        client_id: Optional[str] = None,
        connect_timeout_s: float = 5.0,
        call_timeout_s: Optional[float] = None,
        begin_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        max_attempts: int = 8,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 1.0,
        retry_admission: bool = True,
        follow_redirects: bool = True,
        max_redirects: int = 8,
        breaker_threshold: Optional[int] = None,
        breaker_reset_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if unix_path is None and (host is None or port is None):
            raise ServeError("need a unix socket path or a TCP host+port")
        self.unix_path = unix_path
        self.host = host
        self.port = port
        #: the address the caller gave us (a shard, or a cluster front-end)
        self._home: Dict[str, Any] = {
            "unix_path": unix_path, "host": host, "port": port,
        }
        #: where we currently connect — diverges from home after a REDIRECT
        self._target: Dict[str, Any] = dict(self._home)
        self.follow_redirects = follow_redirects
        self.max_redirects = max_redirects
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:12]}"
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self.begin_timeout_s = begin_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_admission = retry_admission
        self.lease_ttl_s: Optional[float] = None
        #: circuit breaker: after ``breaker_threshold`` consecutive
        #: connect/hello failures, further connection attempts fail fast
        #: for a jittered ``breaker_reset_s``; then one half-open probe
        #: either closes the breaker or re-opens it.  None = disabled.
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self._breaker_failures = 0
        self._breaker_open_until: Optional[float] = None
        #: fault counters, exposed for reports and tests
        self.reconnects = 0
        self.retries = 0
        self.lost_periods = 0
        self.deduped = 0
        self.redirects = 0
        self.breaker_opens = 0
        self.breaker_fast_fails = 0
        #: client-observed redirect latency: seconds from receiving a
        #: REDIRECT to completing the hello on the shard it named — the
        #: placement-quality number the loadgen report summarizes
        self.redirect_latency_s: List[float] = []
        #: learned peak-demand estimate from the last hello reply; echoed
        #: back as the `hello demand_bytes` cluster placement hint
        self.predicted_demand_bytes: Optional[int] = None
        self._rng = rng if rng is not None else random.Random()
        self._ids = itertools.count(1)
        self._conn: Optional[ServeClient] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._hb_interval_s: Optional[float] = heartbeat_interval_s
        self._send_lock: Optional[asyncio.Lock] = None
        self._conn_lock: Optional[asyncio.Lock] = None
        self._connected_once = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _locks(self) -> None:
        # Locks are created lazily so the constructor needs no event loop.
        if self._send_lock is None:
            self._send_lock = asyncio.Lock()
            self._conn_lock = asyncio.Lock()

    async def connect(self) -> "ResilientServeClient":
        """Establish the first connection (and lease).  Optional — every
        call connects on demand — but useful to fail fast."""
        await self._ensure_connected()
        return self

    async def close(self) -> None:
        """Idempotent shutdown: stops the heartbeat, closes the transport."""
        self._closed = True
        for task in (self._heartbeat_task, self._reader_task):
            if task is not None:
                task.cancel()
        for task in (self._heartbeat_task, self._reader_task):
            if task is not None:
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
        self._heartbeat_task = None
        self._reader_task = None
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()
        self._fail_pending(ServeError("client closed"))

    @property
    def counters(self) -> Dict[str, int]:
        return {
            "reconnects": self.reconnects,
            "retries": self.retries,
            "lost_periods": self.lost_periods,
            "deduped": self.deduped,
            "redirects": self.redirects,
            "breaker_opens": self.breaker_opens,
            "breaker_fast_fails": self.breaker_fast_fails,
        }

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _breaker_check(self) -> None:
        """Fail fast while the breaker is open; past the reset deadline the
        caller proceeds as the single half-open probe (serialized by the
        connection lock, so exactly one probe is in flight)."""
        if self._breaker_open_until is None:
            return
        if time.monotonic() < self._breaker_open_until:
            self.breaker_fast_fails += 1
            raise ServeError(
                f"circuit breaker open after {self._breaker_failures} "
                f"consecutive connection failures; retry later"
            )
        # Half-open: allow this one attempt through.  Success closes the
        # breaker (_breaker_success); failure re-opens it immediately.
        self._breaker_open_until = None

    def _breaker_failure(self) -> None:
        if self.breaker_threshold is None:
            return
        self._breaker_failures += 1
        if self._breaker_failures >= self.breaker_threshold:
            self.breaker_opens += 1
            # Jittered so a fleet sharing a seed doesn't re-probe in sync.
            self._breaker_open_until = time.monotonic() + (
                self.breaker_reset_s * (1.0 + 0.25 * self._rng.random())
            )

    def _breaker_success(self) -> None:
        self._breaker_failures = 0
        self._breaker_open_until = None

    # ------------------------------------------------------------------
    # connection machinery
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> ServeClient:
        self._locks()
        async with self._conn_lock:  # type: ignore[union-attr]
            if self._closed:
                raise ServeError("client is closed")
            if self._conn is not None and not self._conn.closed:
                return self._conn
            last_exc: Optional[BaseException] = None
            redirects_left = self.max_redirects
            redirect_t0: Optional[float] = None
            attempt = 0
            while attempt < self.max_attempts:
                self._breaker_check()
                try:
                    conn = await ServeClient.connect(
                        timeout=self.connect_timeout_s, **self._target
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    self._breaker_failure()
                    last_exc = exc
                    attempt += 1
                    if self._target != self._home:
                        # The shard we were redirected to is unreachable:
                        # fall back to the front-end so the placer can
                        # re-place us on a live shard.
                        self._target = dict(self._home)
                        redirects_left = self.max_redirects
                        redirect_t0 = None
                    await asyncio.sleep(self._backoff(attempt))
                    continue
                if self._connected_once:
                    self.reconnects += 1
                self._connected_once = True
                self._conn = conn
                self._reader_task = asyncio.ensure_future(
                    self._reader_loop(conn)
                )
                # Re-bind the durable identity on every (re)connection, so
                # the lease transfers to this socket and replayed periods
                # reattach.
                hello_fields: Dict[str, Any] = {"client": self.client_id}
                if self.follow_redirects:
                    hello_fields["redirect"] = True
                if self.predicted_demand_bytes is not None:
                    # placement hint: a demand-aware frontend scores shards
                    # against the learned footprint, not the declared one
                    hello_fields["demand_bytes"] = self.predicted_demand_bytes
                try:
                    hello = await self._roundtrip(
                        conn, "hello", timeout=self.connect_timeout_s,
                        **hello_fields,
                    )
                except (ConnectionError, asyncio.TimeoutError) as exc:
                    await conn.close()
                    self._conn = None
                    self._breaker_failure()
                    last_exc = exc
                    attempt += 1
                    if self._target != self._home:
                        # The redirected-to shard died mid-handshake: fall
                        # back to the front-end for a re-placement, and
                        # give that legitimate re-placement a fresh
                        # redirect budget — without the reset, a client
                        # riding out several shard deaths would exhaust
                        # max_redirects and give up on a healthy cluster.
                        self._target = dict(self._home)
                        redirects_left = self.max_redirects
                        redirect_t0 = None
                    await asyncio.sleep(self._backoff(attempt))
                    continue
                if hello.get("ok"):
                    if redirect_t0 is not None:
                        self.redirect_latency_s.append(
                            time.monotonic() - redirect_t0
                        )
                        redirect_t0 = None
                    self._breaker_success()
                    self.lease_ttl_s = hello.get("lease_ttl_s")
                    hint = hello.get("predicted_demand_bytes")
                    if isinstance(hint, int) and hint > 0:
                        self.predicted_demand_bytes = hint
                    # Keep the lease warm by default: a third of the TTL
                    # unless the caller picked a cadence.
                    interval = self.heartbeat_interval_s
                    if interval is None and self.lease_ttl_s:
                        interval = self.lease_ttl_s / 3.0
                    if interval and self._heartbeat_task is None:
                        self._hb_interval_s = interval
                        self._heartbeat_task = asyncio.ensure_future(
                            self._heartbeat_loop()
                        )
                    return conn
                error = hello.get("error") or {}
                await conn.close()
                self._conn = None
                if (
                    error.get("code") == ErrorCode.REDIRECT
                    and self.follow_redirects
                    and redirects_left > 0
                ):
                    shard = error.get("shard") or {}
                    target = {
                        "unix_path": shard.get("unix_path"),
                        "host": shard.get("host"),
                        "port": shard.get("port"),
                    }
                    if target["unix_path"] is None and (
                        target["host"] is None or target["port"] is None
                    ):
                        raise ServeReplyError(hello)  # unusable redirect
                    redirects_left -= 1
                    self.redirects += 1
                    self._target = target
                    if redirect_t0 is None:
                        redirect_t0 = time.monotonic()
                    continue  # a redirect is progress, not a failed attempt
                raise ServeReplyError(hello)
            raise ServeError(
                f"could not reach the admission server after "
                f"{self.max_attempts} attempts: {last_exc}"
            ) from last_exc

    async def _reader_loop(self, conn: ServeClient) -> None:
        """Dispatch reply frames to their callers by request id."""
        try:
            while True:
                try:
                    buf = await protocol.read_raw_frame(conn.reader)
                except ProtocolError:
                    break  # oversized reply: the stream is desynchronized
                if not buf:
                    break
                try:
                    reply = protocol.decode_frame(buf)
                except ProtocolError:
                    continue  # undecodable reply: skip, id-matching resyncs
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if self._conn is conn:
                self._conn = None
            with contextlib.suppress(Exception):
                await conn.close()
            self._fail_pending(
                ConnectionResetError("connection to the admission server lost")
            )

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = dict(self._pending), {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _roundtrip(
        self,
        conn: ServeClient,
        op: str,
        timeout: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        request_id = next(self._ids)
        frame: Dict[str, Any] = {
            "v": protocol.PROTOCOL_VERSION, "id": request_id, "op": op,
        }
        frame.update(fields)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:  # type: ignore[union-attr]
                conn.writer.write(protocol.encode_frame(frame))
                await conn.writer.drain()
            if timeout is not None:
                return await asyncio.wait_for(future, timeout=timeout)
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _heartbeat_loop(self) -> None:
        """Keep the lease warm, even across reconnects and parked begins.

        Failures are swallowed: a heartbeat that cannot be delivered now
        will be superseded by the next one, and a server push-back frame
        received while parked renews the lease server-side regardless of
        whether this reply ever arrives.
        """
        while not self._closed:
            await asyncio.sleep(self._hb_interval_s)
            with contextlib.suppress(Exception):
                await self.call("heartbeat", timeout=self._hb_interval_s)

    def _backoff(self, attempt: int, floor_s: float = 0.0) -> float:
        """Exponential backoff with 25% jitter, floored at ``floor_s``."""
        return backoff_sleep_s(
            attempt, self.backoff_base_s, self.backoff_cap_s, self._rng,
            floor_s=floor_s,
        )

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    async def call(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One verb with transparent reconnect-and-retry on transport loss.

        Connection failures *and per-attempt timeouts* are retried — the
        frame (token included) is re-sent verbatim, which is safe for every
        verb this client issues.  Silence past the timeout on a live socket
        means the request or its reply was lost (a dropped frame, a
        half-open peer): the connection is desynchronized either way, so it
        is dropped and the call re-issued on a fresh one.  Typed error
        replies raise :class:`~repro.serve.client.ServeReplyError`
        unchanged.
        """
        if timeout is None:
            # pp_begin legitimately parks for long stretches (the park
            # timeout is the server's to enforce), so it gets its own —
            # normally much larger — per-attempt bound.
            timeout = (
                self.begin_timeout_s if op == "pp_begin"
                else self.call_timeout_s
            )
        attempt = 0
        while True:
            conn: Optional[ServeClient] = None
            try:
                conn = await self._ensure_connected()
                reply = await self._roundtrip(conn, op, timeout=timeout, **fields)
            except (
                ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                if isinstance(exc, asyncio.TimeoutError) and conn is not None:
                    if self._conn is conn:
                        self._conn = None
                    with contextlib.suppress(Exception):
                        await conn.close()
                attempt += 1
                self.retries += 1
                if attempt >= self.max_attempts:
                    raise ServeError(
                        f"{op} failed after {attempt} transport retries"
                    ) from exc
                await asyncio.sleep(self._backoff(attempt))
                continue
            if not reply.get("ok"):
                raise ServeReplyError(reply)
            return reply

    async def heartbeat(self) -> Dict[str, Any]:
        return await self.call("heartbeat")

    async def pp_begin(
        self,
        demand_bytes: int,
        reuse: str = "low",
        resource: str = "llc",
        label: str = "",
        sharing_key: Optional[str] = None,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Idempotent admission: at most one charge per call, ever.

        The generated token makes crash-time re-issue safe; with
        ``retry_admission`` (the default) ``RETRY_AFTER`` pushback is also
        absorbed with exponential backoff floored at the server's hint.
        """
        token = token or uuid.uuid4().hex
        fields: Dict[str, Any] = {
            "resource": resource,
            "demand_bytes": demand_bytes,
            "reuse": reuse,
            "label": label,
            "token": token,
        }
        if sharing_key is not None:
            fields["sharing_key"] = sharing_key
        attempt = 0
        while True:
            try:
                reply = await self.call("pp_begin", timeout=timeout, **fields)
            except ServeReplyError as exc:
                if exc.code == ErrorCode.RETRY_AFTER and self.retry_admission:
                    attempt += 1
                    self.retries += 1
                    await asyncio.sleep(
                        self._backoff(attempt, floor_s=exc.retry_after_s or 0.0)
                    )
                    continue
                raise
            if reply.get("deduped"):
                self.deduped += 1
            return reply

    async def pp_end(
        self,
        pp_id: int,
        timeout: Optional[float] = None,
        observed_bytes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """End a period; tolerate one the lease reaper already reclaimed."""
        fields: Dict[str, Any] = {"pp_id": pp_id}
        if observed_bytes is not None:
            fields["observed_bytes"] = observed_bytes
        try:
            return await self.call("pp_end", timeout=timeout, **fields)
        except ServeReplyError as exc:
            if exc.code == ErrorCode.UNKNOWN_PERIOD:
                # The reaper (or a crash) released it first.  The demand is
                # not charged any more, which is what pp_end is for — note
                # it and move on.
                self.lost_periods += 1
                return {
                    "ok": False,
                    "pp_id": pp_id,
                    "lost": True,
                    "error": exc.reply.get("error"),
                }
            raise

    async def query(self, pp_id: Optional[int] = None) -> Dict[str, Any]:
        if pp_id is None:
            return await self.call("query")
        return await self.call("query", pp_id=pp_id)

    async def stats(self) -> Dict[str, Any]:
        return (await self.call("stats"))["stats"]

    async def drain(self) -> Dict[str, Any]:
        return await self.call("drain")
