"""Persistent connections through real sockets.

A connection keeps answering requests until the client sends
``Connection: close`` or speaks HTTP/1.0, a request is malformed (400,
then closed), or the server drains; every response's ``Connection``
header says which.  A drain closes idle kept-alive connections at once
and answers a request in flight with ``Connection: close``.
"""

import asyncio
import json
import time

from repro.serve.server import ReproServer, ServeConfig

#: Bound on a drain with only idle kept-alive connections open.
_IDLE_DRAIN_BOUND_S = 5.0

_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


def run(coro):
    return asyncio.run(coro)


def _job(payload, connection=None):
    body = json.dumps(payload).encode("utf-8")
    head = ("POST /v1/job HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n" % len(body))
    if connection is not None:
        head += "Connection: %s\r\n" % connection
    return head.encode("latin-1") + b"\r\n" + body


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


async def _exchange(reader, writer, request):
    writer.write(request)
    await writer.drain()
    return await _read_response(reader)


async def _closed(reader, timeout=5.0):
    """Whether the server closed the connection (EOF, nothing more)."""
    return await asyncio.wait_for(reader.read(), timeout) == b""


async def _started(server_class=ReproServer):
    server = server_class(ServeConfig(port=0, queue_capacity=8))
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    return server, reader, writer


class TestKeepAlive:
    def test_two_requests_on_one_connection(self):
        async def scenario():
            server, reader, writer = await _started()
            first = await _exchange(
                reader, writer, _job({"op": "mul",
                                      "params": {"a": 6, "b": 7}}))
            second = await _exchange(
                reader, writer, _job({"op": "mul",
                                      "params": {"a": 3, "b": 5}},
                                     connection="close"))
            closed = await _closed(reader)
            writer.close()
            await server.shutdown()
            return first, second, closed

        first, second, closed = run(scenario())
        assert first[0] == 200 and second[0] == 200
        assert first[1]["connection"] == "keep-alive"
        assert second[1]["connection"] == "close"
        assert json.loads(first[2])["result"]["product"] == hex(42)
        assert json.loads(second[2])["result"]["product"] == hex(15)
        assert closed

    def test_http_1_0_closes(self):
        async def scenario():
            server, reader, writer = await _started()
            answer = await _exchange(
                reader, writer, b"GET /healthz HTTP/1.0\r\n\r\n")
            closed = await _closed(reader)
            writer.close()
            await server.shutdown()
            return answer, closed

        (status, headers, _), closed = run(scenario())
        assert status == 200
        assert headers["connection"] == "close"
        assert closed

    def test_malformed_second_request_gets_400_and_closes(self):
        async def scenario():
            server, reader, writer = await _started()
            first = await _exchange(reader, writer, _HEALTHZ)
            second = await _exchange(reader, writer, b"GARBAGE\r\n\r\n")
            closed = await _closed(reader)
            writer.close()
            await server.shutdown()
            return first, second, closed

        first, second, closed = run(scenario())
        assert first[0] == 200
        assert first[1]["connection"] == "keep-alive"
        assert second[0] == 400
        assert second[1]["connection"] == "close"
        assert json.loads(second[2])["error"] == "invalid:http"
        assert closed


class TestDrain:
    def test_idle_kept_alive_connection_does_not_hold_shutdown(self):
        async def scenario():
            server, reader, writer = await _started()
            answer = await _exchange(reader, writer, _HEALTHZ)
            started = time.monotonic()
            await asyncio.wait_for(server.shutdown(), 30.0)
            elapsed = time.monotonic() - started
            closed = await _closed(reader)
            writer.close()
            return answer, elapsed, closed

        (status, headers, _), elapsed, closed = run(scenario())
        assert status == 200 and headers["connection"] == "keep-alive"
        assert elapsed < _IDLE_DRAIN_BOUND_S
        assert closed

    def test_request_in_flight_at_drain_is_answered_with_close(self):
        class GatedServer(ReproServer):
            """Holds every admitted job's answer until released."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.arrived = asyncio.Event()
                self.release = asyncio.Event()

            async def _await_result(self, job):
                self.arrived.set()
                await self.release.wait()
                return await super()._await_result(job)

        async def scenario():
            server, reader, writer = await _started(GatedServer)
            writer.write(_job({"op": "mul", "params": {"a": 2, "b": 9}}))
            await writer.drain()
            await asyncio.wait_for(server.arrived.wait(), 5.0)
            drain = asyncio.ensure_future(server.shutdown())
            while not server.draining:
                await asyncio.sleep(0)
            server.release.set()
            answer = await asyncio.wait_for(_read_response(reader), 10.0)
            closed = await _closed(reader)
            await asyncio.wait_for(drain, 10.0)
            writer.close()
            return answer, closed

        (status, headers, body), closed = run(scenario())
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["result"]["product"] == hex(18)
        assert closed
