"""The reference server of ``fastpath_open``: NDJSON in, a canned reply out.

Usage: ``python3 perfbench/echo.py <unix socket path>``; serves until
SIGTERM.

It runs on the program server's CPU and takes a share of the open loop's
requests, over the same kind of connection, so each of its round trips
costs what one of the program's would on the same host at the same
moment, minus the program's own work: the kernel's socket path, the
wake-ups and the asyncio loop.  Those make up most of a sub-millisecond
round trip, and they are what the shared host slows down or speeds up
from one second to the next.  ``run.py`` gives the program's latencies
relative to this server's, at a fixed reference.

It never imports the program, so no change to the program changes it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys


def reply_to(request: dict) -> dict:
    reply = {"v": 1, "id": request.get("id"), "ok": True}
    op = request.get("op")
    if op == "pp_begin":
        reply.update(admitted=True, pp_id=request.get("id"), waited_s=0.0)
    elif op == "pp_end":
        reply.update(released=True)
    return reply


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            reply = reply_to(json.loads(line))
            writer.write(json.dumps(reply, separators=(",", ":")).encode() + b"\n")
            await writer.drain()
    finally:
        writer.close()


async def serve(path: str) -> None:
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    server = await asyncio.start_unix_server(handle, path)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <unix socket path>", file=sys.stderr)
        sys.exit(2)
    asyncio.run(serve(sys.argv[1]))
