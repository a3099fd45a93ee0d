"""Wire-protocol framing and validation tests."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.policy import StrictPolicy
from repro.core.progress_period import ResourceKind, ReuseLevel
from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.cluster import start_local_cluster
from repro.serve.protocol import ErrorCode
from repro.serve.server import AdmissionServer, ServeConfig


def frame(**fields):
    base = {"v": protocol.PROTOCOL_VERSION, "id": 1}
    base.update(fields)
    return base


#: one representative frame per protocol verb ("binary" is a legacy
#: hello field that is now ignored like any other unknown field)
VERB_FRAMES = [
    frame(op="hello", client="c0"),
    frame(op="hello", client="c0", binary=True),
    frame(op="heartbeat"),
    frame(op="pp_begin", resource="llc", demand_bytes=4096, reuse="high",
          label="dgemm", sharing_key="p0/k", token="t-1"),
    frame(op="pp_end", pp_id=12),
    frame(op="query"),
    frame(op="query", pp_id=2),
    frame(op="stats"),
    frame(op="drain"),
]


class TestFraming:
    @pytest.mark.parametrize(
        "doc", VERB_FRAMES, ids=lambda d: f"{d['op']}-{len(d)}"
    )
    def test_every_verb_round_trips(self, doc):
        raw = protocol.encode_frame(doc)
        assert protocol.decode_frame(raw) == doc
        assert protocol.parse_request(protocol.decode_frame(raw)).op == doc["op"]

    def test_encode_round_trips_through_decode(self):
        doc = frame(op="query", pp_id=3)
        assert protocol.decode_frame(protocol.encode_frame(doc)) == doc

    def test_encode_is_one_line(self):
        raw = protocol.encode_frame(frame(op="stats"))
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"pp_begin llc 1024\n")
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_decode_rejects_non_object_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"[1, 2, 3]\n")
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_read_raw_frame_reads_lines_then_eof(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(protocol.encode_frame(frame(op="stats")))
            reader.feed_eof()
            assert await protocol.read_raw_frame(reader, 64) == (
                protocol.encode_frame(frame(op="stats"))
            )
            assert await protocol.read_raw_frame(reader, 64) == b""

        asyncio.run(scenario())

    @pytest.mark.parametrize("limit", [64, 1024], ids=["stream", "max_bytes"])
    def test_read_raw_frame_rejects_oversized_lines(self, limit):
        # over the StreamReader's own limit, or only over max_bytes
        async def scenario():
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(protocol.encode_frame(frame(pad="x" * 100)))
            reader.feed_eof()
            with pytest.raises(ProtocolError) as err:
                await protocol.read_raw_frame(reader, 64)
            assert err.value.code == ErrorCode.FRAME_TOO_LARGE

        asyncio.run(scenario())

    def test_decode_rejects_oversized_frames(self):
        raw = protocol.encode_frame(frame(op="query", pad="x" * 100))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(raw, max_bytes=64)
        assert err.value.code == ErrorCode.FRAME_TOO_LARGE


class TestParseRequest:
    def test_pp_begin_parses_all_fields(self):
        request = protocol.parse_request(frame(
            op="pp_begin", resource="llc", demand_bytes=4096,
            reuse="high", label="dgemm", sharing_key="p0/k",
        ))
        assert request.op == "pp_begin"
        assert request.resource is ResourceKind.LLC
        assert request.demand_bytes == 4096
        assert request.reuse is ReuseLevel.HIGH
        assert request.label == "dgemm"
        assert request.sharing_key == "p0/k"

    def test_wrong_version_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(
                {"v": protocol.PROTOCOL_VERSION + 1, "id": 1, "op": "query"}
            )
        assert err.value.code == ErrorCode.BAD_VERSION

    def test_missing_version_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request({"id": 1, "op": "query"})
        assert err.value.code == ErrorCode.BAD_VERSION

    def test_unknown_op_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame(op="pp_suspend"))
        assert err.value.code == ErrorCode.UNKNOWN_OP

    @pytest.mark.parametrize("field,value", [
        ("demand_bytes", -1),
        ("demand_bytes", "4096"),
        ("demand_bytes", True),
        ("reuse", "extreme"),
        ("resource", "gpu"),
        ("sharing_key", 7),
    ])
    def test_pp_begin_field_validation(self, field, value):
        doc = frame(op="pp_begin", resource="llc", demand_bytes=4096, reuse="low")
        doc[field] = value
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(doc)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_pp_end_requires_positive_pp_id(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request(frame(op="pp_end"))
        with pytest.raises(ProtocolError):
            protocol.parse_request(frame(op="pp_end", pp_id=0))
        request = protocol.parse_request(frame(op="pp_end", pp_id=12))
        assert request.pp_id == 12

    def test_query_pp_id_is_optional(self):
        assert protocol.parse_request(frame(op="query")).pp_id is None
        assert protocol.parse_request(frame(op="query", pp_id=2)).pp_id == 2

    def test_request_id_may_be_absent(self):
        request = protocol.parse_request(
            {"v": protocol.PROTOCOL_VERSION, "op": "stats"}
        )
        assert request.id is None


class TestReplies:
    def test_ok_reply_shape(self):
        reply = protocol.ok_reply(7, pp_id=3, admitted=True)
        assert reply == {
            "v": protocol.PROTOCOL_VERSION, "id": 7, "ok": True,
            "pp_id": 3, "admitted": True,
        }

    def test_error_reply_shape(self):
        reply = protocol.error_reply(
            9, ErrorCode.RETRY_AFTER, "queue full", retry_after_s=0.05
        )
        assert reply["ok"] is False
        assert reply["id"] == 9
        assert reply["error"]["code"] == ErrorCode.RETRY_AFTER
        assert reply["error"]["retry_after_s"] == 0.05

    def test_replies_are_json_encodable(self):
        for reply in (
            protocol.ok_reply(None, stats={}),
            protocol.error_reply(None, ErrorCode.INTERNAL, "boom"),
        ):
            json.dumps(reply)


# ----------------------------------------------------------------------
# hello compatibility — live server and cluster forwarding pump
# ----------------------------------------------------------------------
def _serve_machine(capacity_mb: float = 4.0):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def _serve_cfg():
    return ServeConfig(
        policy=StrictPolicy(), machine=_serve_machine(), sanitize=True,
        drain_grace_s=1.0,
    )


class TestHelloCompat:
    @pytest.mark.parametrize("legacy", [{}, {"binary": True}],
                             ids=["plain", "legacy_binary"])
    @pytest.mark.parametrize("target", ["server", "forward"])
    def test_hello_without_binary_keeps_ndjson(self, tmp_path, target, legacy):
        """An old client's ``"binary": true`` is an ignored unknown field:
        the ack carries no ``binary`` key, so the client stays on NDJSON."""
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            if target == "server":
                server = AdmissionServer(_serve_cfg())
                await server.start(unix_path=sock)
                run_task = asyncio.ensure_future(server.run_until_drained())
            else:
                cluster = await start_local_cluster(
                    _serve_cfg(), 2, sock, supervise=False
                )
            client = await ServeClient.connect(unix_path=sock)
            try:
                reply = await client.call("hello", client="plain", **legacy)
                assert "binary" not in reply
                assert (await client.heartbeat())["ok"]
                begin = await client.pp_begin(demand_bytes=1 << 20, timeout=5.0)
                assert begin["admitted"] is True
                assert (await client.pp_end(begin["pp_id"], timeout=5.0))["ok"]
            finally:
                await client.close()
            if target == "server":
                server.request_drain()
                await asyncio.wait_for(run_task, 5.0)
                assert server.service.sanitizer.ok
            else:
                cluster.request_drain()
                assert await asyncio.wait_for(
                    cluster.run_until_drained(), 20.0
                ) == 0

        asyncio.run(scenario())
