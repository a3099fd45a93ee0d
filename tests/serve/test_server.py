"""Failure-path tests for the admission server.

No pytest-asyncio in the image: each test drives its own event loop with
``asyncio.run``.  Servers bind ephemeral unix sockets under ``tmp_path``;
every scenario runs with the online sanitizer attached, so any ledger leak
a failure path causes (demand not released on disconnect, double free on
cancel, ...) fails the test even if the protocol-level assertions pass.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeReplyError
from repro.serve.cluster import start_local_cluster
from repro.serve.protocol import ErrorCode
from repro.serve.server import AdmissionServer, ServeConfig


def tiny_machine(capacity_mb: float = 4.0):
    """The Table-1 machine with a small managed LLC (forces parking)."""
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


async def start_server(tmp_path, **overrides):
    defaults = dict(
        policy=StrictPolicy(),
        machine=tiny_machine(4.0),
        sanitize=True,
        park_timeout_s=10.0,
        drain_grace_s=1.0,
        starvation_check_s=0.05,
    )
    defaults.update(overrides)
    cfg = ServeConfig(**defaults)
    server = AdmissionServer(cfg)
    sock = str(tmp_path / "serve.sock")
    await server.start(unix_path=sock)
    run_task = asyncio.ensure_future(server.run_until_drained())
    return server, sock, run_task


async def wait_until(predicate, timeout=2.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


async def finish(server, run_task):
    """Drain the server and assert the sanitizer saw a clean run."""
    server.request_drain()
    await asyncio.wait_for(run_task, 5.0)
    sanitizer = server.service.sanitizer
    assert sanitizer is not None and sanitizer.ok, sanitizer.summary()


class TestDisconnectWhileParked:
    def test_parked_period_cancelled_and_demand_released(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            assert reply_a["admitted"] is True
            # B cannot fit: its pp_begin parks (no reply yet)
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(service.waitlist) == 1)
            # B vanishes mid-park
            await b.close()
            park_task.cancel()
            await wait_until(lambda: len(service.waitlist) == 0)
            assert service.c_disconnect_cancel.value == 1
            # A is unaffected and the books balance after its pp_end
            await a.pp_end(reply_a["pp_id"])
            assert len(service.monitor.registry) == 0
            await a.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_disconnect_of_running_period_admits_waiter(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            # A dies holding an admitted period: its demand must be
            # released and B's parked pp_begin must complete
            await a.close()
            reply_b = await asyncio.wait_for(park_task, 5.0)
            assert reply_b["admitted"] is True
            assert reply_b["waited_s"] > 0.0
            await b.pp_end(reply_b["pp_id"])
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


async def read_replies(reader, n, timeout):
    """The next ``n`` reply frames on a raw connection, keyed by id."""
    replies = {}
    for _ in range(n):
        reply = protocol.decode_frame(
            await asyncio.wait_for(reader.readline(), timeout)
        )
        replies[reply["id"]] = reply
    return replies


def frame(request_id, op, **fields):
    return protocol.encode_frame(
        {"v": protocol.PROTOCOL_VERSION, "id": request_id, "op": op, **fields}
    )


class TestParkedBeginKeepsConnectionServed:
    """A parked pp_begin holds its period, not its connection."""

    def test_pp_end_pipelined_behind_a_parked_begin_frees_it(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, machine=tiny_machine(8.0), park_timeout_s=2.0
            )
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(frame(1, "pp_begin", demand_bytes=MB(6)))
            reply_a = (await read_replies(reader, 1, 2.0))[1]
            assert reply_a["admitted"] is True
            # B cannot fit beside A and parks; the pp_end of A rides
            # behind it on the same connection, no reply read in between
            writer.write(
                frame(2, "pp_begin", demand_bytes=MB(6))
                + frame(3, "pp_end", pp_id=reply_a["pp_id"])
            )
            sent = asyncio.get_running_loop().time()
            replies = await read_replies(reader, 2, 1.0)
            assert asyncio.get_running_loop().time() - sent < 1.0
            assert replies[3]["released"] is True
            assert replies[3]["admitted_waiters"] == 1
            assert replies[2]["admitted"] is True
            assert server.service.c_after_park.value == 1
            assert server.service.c_park_timeout.value == 0
            writer.write(frame(4, "pp_end", pp_id=replies[2]["pp_id"]))
            assert (await read_replies(reader, 1, 2.0))[4]["released"] is True
            writer.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_takeover_keeps_the_begin_the_new_connection_parked(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, park_timeout_s=2.0
            )
            service = server.service
            holder = await ServeClient.connect(unix_path=sock)
            held = await holder.pp_begin(MB(3))
            old = await ServeClient.connect(unix_path=sock)
            await old.hello("t")
            # the new connection takes the identity over and parks a begin
            # before the old one has seen its hang-up
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                frame(1, "hello", client="t")
                + frame(2, "pp_begin", demand_bytes=MB(3))
            )
            assert (await read_replies(reader, 1, 2.0))[1]["ok"] is True
            await wait_until(lambda: len(service.waitlist) == 1)
            await asyncio.sleep(0.1)  # the old connection's cleanup runs
            assert len(service.waitlist) == 1
            assert service.c_disconnect_cancel.value == 0
            await holder.pp_end(held["pp_id"])
            reply = (await read_replies(reader, 1, 1.0))[2]
            assert reply["admitted"] is True
            writer.write(frame(3, "pp_end", pp_id=reply["pp_id"]))
            assert (await read_replies(reader, 1, 2.0))[3]["released"] is True
            writer.close()
            await holder.close()
            await old.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_same_token_pipelined_behind_its_parked_begin_supersedes_it(
        self, tmp_path
    ):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            service = server.service
            holder = await ServeClient.connect(unix_path=sock)
            held = await holder.pp_begin(MB(3))
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                frame(1, "pp_begin", demand_bytes=MB(3), token="t")
                + frame(2, "pp_begin", demand_bytes=MB(3), token="t")
                + frame(3, "query")
            )
            # the re-issue replaced the first begin in the queue
            assert (await read_replies(reader, 1, 2.0))[3]["waiting"] == 1
            await holder.pp_end(held["pp_id"])
            # only the newer request is answered
            reply = await read_replies(reader, 1, 2.0)
            assert list(reply) == [2] and reply[2]["admitted"] is True
            writer.write(frame(4, "pp_end", pp_id=reply[2]["pp_id"]))
            assert (await read_replies(reader, 1, 2.0))[4]["released"] is True
            assert service.c_after_park.value == 1
            writer.close()
            await holder.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestIdleTimeout:
    def test_idle_connection_is_hung_up(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, idle_timeout_s=0.2
            )
            reader, writer = await asyncio.open_unix_connection(sock)
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            writer.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_connection_waiting_on_a_parked_begin_is_not_idle(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, idle_timeout_s=0.3
            )
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            # B is parked and silent for three idle timeouts; A keeps
            # talking, so only B's connection could look idle
            for _ in range(18):
                await a.query()
                await asyncio.sleep(0.05)
            assert not park_task.done()
            assert len(service.waitlist) == 1
            assert service.c_disconnect_cancel.value == 0
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 2.0)
            assert reply_b["admitted"] is True
            await b.pp_end(reply_b["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestMalformedFrames:
    def test_bad_json_gets_typed_error_and_connection_survives(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.BAD_FRAME
            # same connection still serves valid requests
            writer.write(protocol.encode_frame(
                {"v": protocol.PROTOCOL_VERSION, "id": 1, "op": "query"}
            ))
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["ok"] is True
            writer.close()
            assert server.service.c_protocol_errors.value == 1
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_wrong_version_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(protocol.encode_frame({"v": 99, "id": 1, "op": "query"}))
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["error"]["code"] == ErrorCode.BAD_VERSION
            writer.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    @pytest.mark.parametrize("target", ["server", "forward"])
    def test_oversized_frame_replies_then_disconnects(self, tmp_path, target):
        """A bare server and a forwarding cluster front-end answer alike."""
        async def scenario():
            if target == "server":
                server, sock, run_task = await start_server(
                    tmp_path, max_frame_bytes=1024
                )
            else:
                sock = str(tmp_path / "placer.sock")
                cluster = await start_local_cluster(
                    ServeConfig(
                        policy=StrictPolicy(), machine=tiny_machine(4.0),
                        sanitize=True, max_frame_bytes=1024,
                    ),
                    2, sock, supervise=False,
                    cluster_overrides={"max_frame_bytes": 1024},
                )
            reader, writer = await asyncio.open_unix_connection(sock)
            # hello first: on the front-end it hands the socket to a pump
            writer.write(protocol.encode_frame(
                {"v": 1, "id": 1, "op": "hello", "client": "big"}
            ))
            await writer.drain()
            assert protocol.decode_frame(await reader.readline())["ok"]
            writer.write(b'{"v": 1, "op": "query", "pad": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["error"]["code"] == ErrorCode.FRAME_TOO_LARGE
            # the byte stream cannot be re-synchronized: server hangs up
            assert await reader.read() == b""
            writer.close()
            if target == "server":
                await finish(server, run_task)
            else:
                cluster.request_drain()
                assert await asyncio.wait_for(
                    cluster.run_until_drained(), 20.0
                ) == 0

        asyncio.run(scenario())


class TestPpEndMisuse:
    def test_double_pp_end_is_unknown_period(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.pp_begin(MB(1))
            await client.pp_end(reply["pp_id"])
            with pytest.raises(ServeReplyError) as err:
                await client.pp_end(reply["pp_id"])
            assert err.value.code == ErrorCode.UNKNOWN_PERIOD
            # the error is per-request: the connection still works
            assert (await client.query())["open_periods"] == 0
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_pp_end_of_another_connections_period_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply = await a.pp_begin(MB(1))
            with pytest.raises(ServeReplyError) as err:
                await b.pp_end(reply["pp_id"])
            assert err.value.code == ErrorCode.UNKNOWN_PERIOD
            await a.pp_end(reply["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestOverloadAndTimeout:
    def test_pending_queue_bound_yields_retry_after(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path, max_pending=1)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            c = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            # the queue is full: C is bounced instead of queued
            with pytest.raises(ServeReplyError) as err:
                await c.pp_begin(MB(3))
            assert err.value.code == ErrorCode.RETRY_AFTER
            assert err.value.retry_after_s > 0
            assert server.service.c_retry_after.value == 1
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 5.0)
            await b.pp_end(reply_b["pp_id"])
            for client in (a, b, c):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_park_timeout_cancels_the_period(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, park_timeout_s=0.15
            )
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            with pytest.raises(ServeReplyError) as err:
                await b.pp_begin(MB(3))
            assert err.value.code == ErrorCode.TIMEOUT
            assert len(server.service.waitlist) == 0
            assert server.service.c_park_timeout.value == 1
            await a.pp_end(reply_a["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestDrain:
    def test_drain_wakes_parked_waiters_with_draining(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            c = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            drain_reply = await c.drain()
            assert drain_reply["draining"] is True
            assert drain_reply["waiting"] == 1
            # the parked client hears DRAINING, not silence
            with pytest.raises(ServeReplyError) as err:
                await asyncio.wait_for(park_task, 5.0)
            assert err.value.code == ErrorCode.DRAINING
            # the running period may still finish inside the grace window
            await a.pp_end(reply_a["pp_id"])
            await asyncio.wait_for(run_task, 5.0)
            sanitizer = server.service.sanitizer
            assert sanitizer.ok, sanitizer.summary()
            for client in (a, b, c):
                await client.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("stop", ["drain", "abort"])
    def test_stopping_leaves_no_parked_waiter_behind(self, tmp_path, stop):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, drain_grace_s=0.2
            )
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            if stop == "drain":
                server.request_drain()
                with pytest.raises(ServeReplyError) as err:
                    await asyncio.wait_for(park_task, 5.0)
                assert err.value.code == ErrorCode.DRAINING
            else:
                await server.abort()
                run_task.cancel()
                with pytest.raises((ProtocolError, ConnectionError)):
                    await asyncio.wait_for(park_task, 5.0)
            assert not server._parked
            await asyncio.gather(run_task, return_exceptions=True)
            await a.close()
            await b.close()
            # every server task, session handlers included, has ended
            await wait_until(
                lambda: asyncio.all_tasks() == {asyncio.current_task()}
            )

        asyncio.run(scenario())

    def test_pp_begin_after_drain_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            server.request_drain()
            await wait_until(lambda: server.draining)
            with pytest.raises((ServeReplyError, ConnectionError, Exception)):
                await client.pp_begin(MB(1))
            await client.close()
            await asyncio.wait_for(run_task, 5.0)

        asyncio.run(scenario())


class TestSharingAndStarvation:
    def test_shared_working_set_charged_once(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            # two siblings declaring one 3 MB shared working set both fit
            # in 4 MB because the key is charged once (paper §3.2)
            ra = await a.pp_begin(MB(3), sharing_key="p0/grid")
            rb = await b.pp_begin(MB(3), sharing_key="p0/grid")
            assert ra["admitted"] and rb["admitted"]
            usage = service.resources.state(
                next(iter(service.managed_kinds))
            ).usage_bytes
            assert usage == MB(3)
            await a.pp_end(ra["pp_id"])
            await b.pp_end(rb["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_oversized_period_force_admitted_when_idle(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            # 8 MB demand on a 4 MB LLC: inadmissible by the predicate,
            # but the resource is idle so the starvation guard forces it
            reply = await client.pp_begin(MB(8))
            assert reply["admitted"] is True
            assert reply["forced"] is True
            await client.pp_end(reply["pp_id"])
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())
