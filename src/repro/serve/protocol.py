"""The ``repro.serve`` wire protocol: newline-delimited JSON frames.

One request per line, one reply per line (a parked ``pp_begin`` defers its
reply until the period is admitted, times out, or the server drains — the
connection is parked exactly as the kernel parks a process).  Every frame
is a JSON object terminated by ``\\n``; the protocol is versioned through
the mandatory ``v`` field so incompatible servers reject old clients with
a typed error instead of undefined behaviour.

Request frames::

    {"v": 1, "id": 6, "op": "hello", "client": "app-7f3e"}
    {"v": 1, "id": 7, "op": "pp_begin", "resource": "llc",
     "demand_bytes": 6606028, "reuse": "high", "label": "DGEMM",
     "token": "b7c1..."}                        # optional idempotency token
    {"v": 1, "id": 8, "op": "pp_end", "pp_id": 42}
    {"v": 1, "id": 9, "op": "query"}            # optional "pp_id"
    {"v": 1, "id": 10, "op": "stats"}
    {"v": 1, "id": 11, "op": "drain"}
    {"v": 1, "id": 12, "op": "heartbeat"}       # renews the client lease

Replies carry the request's ``id`` back and either ``"ok": true`` plus
verb-specific fields, or ``"ok": false`` with a typed error::

    {"v": 1, "id": 7, "ok": true, "pp_id": 42, "admitted": true, ...}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "RETRY_AFTER", "message": "...",
               "retry_after_s": 0.05}}

See ``docs/SERVE.md`` for the full specification.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.progress_period import ResourceKind, ReuseLevel
from ..errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_IDENT_CHARS",
    "VERBS",
    "ErrorCode",
    "Request",
    "parse_request",
    "encode_frame",
    "decode_frame",
    "decode_any_frame",
    "read_raw_frame",
    "ok_reply",
    "error_reply",
]

#: current wire-protocol version; bump on incompatible frame changes
PROTOCOL_VERSION = 1

#: default upper bound on one frame (request or reply), newline included
MAX_FRAME_BYTES = 64 * 1024

#: the verbs a client may send
VERBS = ("hello", "heartbeat", "pp_begin", "pp_end", "query", "stats", "drain")

#: upper bound on client-supplied identity strings (client ids, tokens)
MAX_IDENT_CHARS = 128


class ErrorCode:
    """Typed error codes carried in ``error.code`` of a failure reply."""

    BAD_FRAME = "BAD_FRAME"  # not valid JSON / not an object
    FRAME_TOO_LARGE = "FRAME_TOO_LARGE"  # exceeded MAX_FRAME_BYTES
    BAD_VERSION = "BAD_VERSION"  # missing/unsupported "v"
    UNKNOWN_OP = "UNKNOWN_OP"  # "op" not in VERBS
    BAD_REQUEST = "BAD_REQUEST"  # verb fields missing or ill-typed
    UNKNOWN_PERIOD = "UNKNOWN_PERIOD"  # pp_id not open on this connection
    RETRY_AFTER = "RETRY_AFTER"  # pending-admission queue full
    TIMEOUT = "TIMEOUT"  # parked longer than the park timeout
    PARK_TIMEOUT = "PARK_TIMEOUT"  # parked past the sojourn deadline
    OVERLOAD = "OVERLOAD"  # cluster brownout: shedding new clients
    DRAINING = "DRAINING"  # server no longer admits new periods
    NOT_BOUND = "NOT_BOUND"  # heartbeat before hello (no client identity)
    REDIRECT = "REDIRECT"  # speak to the shard named in error.shard instead
    INTERNAL = "INTERNAL"  # unexpected server-side failure


_REUSE_BY_NAME = {level.value: level for level in ReuseLevel}
_RESOURCE_BY_NAME = {kind.value: kind for kind in ResourceKind}


@dataclass(frozen=True)
class Request:
    """A validated request frame."""

    op: str
    id: Optional[int] = None
    #: pp_begin fields
    resource: ResourceKind = ResourceKind.LLC
    demand_bytes: int = 0
    reuse: ReuseLevel = ReuseLevel.LOW
    sharing_key: Optional[str] = None
    label: str = ""
    #: pp_begin idempotency token (dedupes re-issued begins, §journal)
    token: Optional[str] = None
    #: hello field: durable client identity the lease is bound to
    client: Optional[str] = None
    #: pp_end / query field
    pp_id: Optional[int] = None
    #: pp_end field: working-set bytes the client actually observed over
    #: the period — feeds the online demand estimator when present
    observed_bytes: Optional[int] = None
    #: raw frame, for logging
    raw: Dict[str, Any] = field(default_factory=dict, repr=False)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialize one frame: compact JSON + newline terminator."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Parse one raw line into a frame dict, enforcing the size bound."""
    if len(line) > max_bytes:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte limit",
        )
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(ErrorCode.BAD_FRAME, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            ErrorCode.BAD_FRAME, f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


#: The server's per-request decode goes through this name: the layer
#: tracer in ``perfbench/tracer.py`` wraps ``protocol.decode_any_frame``
#: by attribute, so renaming or dropping it would hide the decode layer.
decode_any_frame = decode_frame


async def read_raw_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Read one raw frame (the terminated line) off ``reader``.

    The one place a frame is read off a peer stream: the server, the
    cluster front-end and its forwarding pump, and both clients share it
    so they agree on framing and on the oversize error.  Returns ``b""``
    on a clean EOF.  A line over ``max_bytes`` — or over the stream's own
    limit, which asyncio reports as ``ValueError``/``LimitOverrunError``
    — raises :class:`~repro.errors.ProtocolError` with
    ``FRAME_TOO_LARGE``; the byte stream cannot be re-synchronized after
    that, so callers reply with the typed error and hang up.
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"frame exceeds the {max_bytes}-byte limit",
        ) from None
    if len(line) > max_bytes:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte limit",
        )
    return line


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def _require_int(frame: Dict[str, Any], key: str, minimum: int = 0) -> int:
    value = frame.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"{key!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"{key!r} must be >= {minimum}, got {value}"
        )
    return value


def _optional_ident(frame: Dict[str, Any], key: str) -> Optional[str]:
    """A short non-empty string field (client ids, idempotency tokens)."""
    value = frame.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"{key!r} must be a non-empty string"
        )
    if len(value) > MAX_IDENT_CHARS:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"{key!r} exceeds {MAX_IDENT_CHARS} characters",
        )
    return value


def parse_request(frame: Dict[str, Any]) -> Request:
    """Validate a decoded frame into a typed :class:`Request`.

    Raises :class:`~repro.errors.ProtocolError` with the matching
    :class:`ErrorCode` on any violation.
    """
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.BAD_VERSION,
            f"unsupported protocol version {version!r}; "
            f"this server speaks v{PROTOCOL_VERSION}",
        )
    request_id = frame.get("id")
    if request_id is not None and (
        isinstance(request_id, bool) or not isinstance(request_id, int)
    ):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"'id' must be an integer, got {request_id!r}"
        )
    op = frame.get("op")
    if op not in VERBS:
        raise ProtocolError(
            ErrorCode.UNKNOWN_OP, f"unknown op {op!r}; expected one of {list(VERBS)}"
        )

    if op == "pp_begin":
        resource_name = frame.get("resource", ResourceKind.LLC.value)
        resource = _RESOURCE_BY_NAME.get(resource_name)
        if resource is None:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"unknown resource {resource_name!r}; "
                f"expected one of {sorted(_RESOURCE_BY_NAME)}",
            )
        demand = _require_int(frame, "demand_bytes")
        reuse_name = frame.get("reuse", ReuseLevel.LOW.value)
        reuse = _REUSE_BY_NAME.get(reuse_name)
        if reuse is None:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"unknown reuse {reuse_name!r}; expected one of {sorted(_REUSE_BY_NAME)}",
            )
        sharing_key = frame.get("sharing_key")
        if sharing_key is not None and not isinstance(sharing_key, str):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "'sharing_key' must be a string when present"
            )
        label = frame.get("label", "")
        if not isinstance(label, str):
            raise ProtocolError(ErrorCode.BAD_REQUEST, "'label' must be a string")
        return Request(
            op=op,
            id=request_id,
            resource=resource,
            demand_bytes=demand,
            reuse=reuse,
            sharing_key=sharing_key,
            label=label,
            token=_optional_ident(frame, "token"),
            raw=frame,
        )

    if op == "hello":
        client = _optional_ident(frame, "client")
        if client is None:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "'hello' requires a 'client' identity"
            )
        return Request(op=op, id=request_id, client=client, raw=frame)

    if op == "pp_end":
        observed = None
        if frame.get("observed_bytes") is not None:
            observed = _require_int(frame, "observed_bytes", minimum=0)
        return Request(
            op=op, id=request_id, pp_id=_require_int(frame, "pp_id", minimum=1),
            observed_bytes=observed, raw=frame,
        )

    # heartbeat / query / stats / drain: pp_id optional on query only
    pp_id = None
    if op == "query" and "pp_id" in frame:
        pp_id = _require_int(frame, "pp_id", minimum=1)
    return Request(op=op, id=request_id, pp_id=pp_id, raw=frame)


# ----------------------------------------------------------------------
# replies
# ----------------------------------------------------------------------
def ok_reply(request_id: Optional[int], **fields: Any) -> Dict[str, Any]:
    """A success reply frame echoing the request id."""
    reply: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    reply.update(fields)
    return reply


def error_reply(
    request_id: Optional[int], code: str, message: str, **fields: Any
) -> Dict[str, Any]:
    """A typed failure reply frame."""
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(fields)
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False, "error": error}
