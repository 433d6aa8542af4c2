"""Asyncio TCP/HTTP front-end: ``repro serve --port N``.

A stdlib-only, single-event-loop HTTP/1.1 server with persistent
connections.  A connection answers requests one after another until
the client sends ``Connection: close``, the client speaks HTTP/1.0, a
request is malformed (answered 400, then closed), or the server
drains; every response's ``Connection`` header says whether the
connection stays open.  Bodies are ``Content-Length`` framed.

* ``POST /v1/job`` (or ``POST /``) — submit one JSON job
  (``{"op": "mul", "params": {...}, "priority": 0-9,
  "deadline_ms": N, "id": "..."}``); the response is the job body
  from the batcher, an ``invalid:*`` 400, an explicit
  ``rejected:overloaded`` 503 from admission control, or a
  ``rejected:deadline`` 504;
* ``GET /metrics`` — the metrics plane's text exposition;
* ``GET /healthz`` — liveness;
* ``GET /traces`` — collected span traces (404 unless ``REPRO_TRACE``
  is enabled).

:class:`HttpFrontDoor` is the connection loop; the shard router
(:mod:`repro.shard.router`) runs the same one, so both front doors
follow one keep-alive rule.

Shutdown (SIGTERM/SIGINT through :meth:`ReproServer.trigger_shutdown`)
is graceful and bounded: the listener closes, idle kept-alive
connections close at once, new admissions shed with
``shutting-down``, queued work drains through the batcher, in-flight
responses complete with ``Connection: close``, and only then does the
process exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.analysis import env as _env
from repro.serve import trace as tracing
from repro.serve.batcher import DynamicBatcher
from repro.serve.jobs import JobError, make_job
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue

#: Capacity knobs (see docs/SERVING.md).
QUEUE_ENV = _env.SERVE_QUEUE.name
MAX_WAIT_ENV = _env.SERVE_MAX_WAIT_MS.name

_MAX_BODY_BYTES = 8 << 20
_MAX_HEADER_LINES = 64


@dataclass
class ServeConfig:
    """Server configuration; env defaults, CLI overrides."""

    host: str = "127.0.0.1"
    port: int = 8421
    queue_capacity: int = 256
    max_wait_ms: float = 10_000.0
    max_body_bytes: int = _MAX_BODY_BYTES

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        config = cls(
            queue_capacity=_env.int_value(_env.SERVE_QUEUE, 256,
                                          minimum=1),
            max_wait_ms=_env.float_value(_env.SERVE_MAX_WAIT_MS,
                                         10_000.0, minimum=1.0),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


@dataclass
class _HttpRequest:
    method: str
    path: str
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """An HTTP/1.1 request keeps its connection open unless it
        says ``Connection: close``; anything older closes it."""
        if self.version != "HTTP/1.1":
            return False
        tokens = self.headers.get("connection", "").lower().split(",")
        return "close" not in (token.strip() for token in tokens)


@dataclass(frozen=True)
class Response:
    """One HTTP answer, before its ``Connection`` header is chosen."""

    status: int
    body: bytes
    content_type: str = "application/json"


class _BadRequest(Exception):
    """Malformed transport-level request (answered 400, then closed)."""


# -- transport helpers (shared with the shard router) -------------------------

async def read_http_request(reader: asyncio.StreamReader,
                            request_line: bytes,
                            max_body_bytes: int = _MAX_BODY_BYTES
                            ) -> _HttpRequest:
    """Parse the rest of one HTTP/1.x request after its first line.

    Raises :class:`_BadRequest` on malformed transport."""
    parts = request_line.decode("latin-1", "replace").split()
    if not parts:
        raise _BadRequest("empty request")
    if len(parts) < 2:
        raise _BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    version = parts[2].upper() if len(parts) > 2 else "HTTP/0.9"
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1", "replace")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many headers")
    if "transfer-encoding" in headers:
        # Only Content-Length framing is spoken; an unframed body
        # would be read as the next request on a kept-alive connection.
        raise _BadRequest("transfer-encoding is not supported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise _BadRequest("bad content-length") from None
        if size < 0 or size > max_body_bytes:
            raise _BadRequest("body too large")
        body = await reader.readexactly(size)
    return _HttpRequest(method, path, body, headers, version)


def json_response(status: int, body: Dict[str, Any]) -> Response:
    return Response(status, json.dumps(body).encode("utf-8"))


def text_response(status: int, text: str) -> Response:
    return Response(status, text.encode("utf-8"),
                    "text/plain; charset=utf-8")


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 502: "Bad Gateway",
            503: "Service Unavailable", 504: "Gateway Timeout"}


async def respond(writer: asyncio.StreamWriter, response: Response,
                  keep_alive: bool) -> None:
    """Write one response; its ``Connection`` header is ``keep_alive``."""
    head = ("HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: %s\r\n\r\n"
            % (response.status, _REASONS.get(response.status, "OK"),
               response.content_type, len(response.body),
               "keep-alive" if keep_alive else "close"))
    writer.write(head.encode("latin-1") + response.body)
    await writer.drain()


class HttpFrontDoor:
    """The persistent-connection loop both front doors run.

    :class:`ReproServer` and :class:`repro.shard.router.ShardRouter`
    subclass it and supply :meth:`_route`, which maps one request to
    one :class:`Response`.  The loop owns the keep-alive rule: a
    connection stays open after an answer unless the request asked to
    close it (``Connection: close`` or HTTP/1.0), was malformed, or the
    front door is draining.  A connection waiting for its next request
    is *idle*; :meth:`_close_front_door` closes those at once, while
    one mid-request still gets its answer, sent with
    ``Connection: close``.
    """

    def __init__(self, registry: MetricsRegistry,
                 max_body_bytes: int = _MAX_BODY_BYTES) -> None:
        self.registry = registry
        self._max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    async def _listen(self, host: str, port: int) -> Tuple[str, int]:
        """Bind the listener; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _close_front_door(self) -> None:
        """Stop accepting and close every idle kept-alive connection.

        Call after setting ``_draining``: a connection finishing an
        answer then closes instead of going idle again."""
        if self._server is not None:
            self._server.close()
        for writer in tuple(self._idle):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def _await_connections(self) -> None:
        """Wait for every open connection's last answer."""
        if self._connections:
            await asyncio.gather(*tuple(self._connections),
                                 return_exceptions=True)

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            while line:
                if not await self._answer(reader, writer, line) \
                        or self._draining:
                    return
                self._idle.add(writer)
                try:
                    line = await reader.readline()
                finally:
                    self._idle.discard(writer)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            return
        except Exception as error:
            self.registry.counter("internal_error_total").inc()
            try:
                await respond(writer, json_response(
                    500, {"ok": False, "error": "error:internal",
                          "message": str(error)}), keep_alive=False)
            except Exception:
                self.registry.counter(
                    "connection_close_error_total").inc()
        finally:
            try:
                writer.close()
            except Exception:
                self.registry.counter(
                    "connection_close_error_total").inc()

    async def _answer(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      request_line: bytes) -> bool:
        """Read, route and answer one request; whether the connection
        stays open."""
        try:
            request = await read_http_request(reader, request_line,
                                              self._max_body_bytes)
        except _BadRequest as error:
            await respond(writer, json_response(
                400, {"ok": False, "error": "invalid:http",
                      "message": str(error)}), keep_alive=False)
            return False
        response = await self._route(request)
        keep_alive = request.keep_alive and not self._draining
        await respond(writer, response, keep_alive)
        return keep_alive

    async def _route(self, request: _HttpRequest) -> Response:
        raise NotImplementedError


class ReproServer(HttpFrontDoor):
    """The serve subsystem wired together: queue → batcher → HTTP."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[tracing.Tracer] = None) -> None:
        self.config = config if config is not None else \
            ServeConfig.from_env()
        super().__init__(registry if registry is not None
                         else MetricsRegistry(),
                         self.config.max_body_bytes)
        self.tracer = tracer if tracer is not None else tracing.Tracer()
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            max_wait_ms=self.config.max_wait_ms)
        self.batcher = DynamicBatcher(self.queue, self.registry)
        self.host = self.config.host
        self.port = self.config.port
        self._batcher_task: Optional[asyncio.Task] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._terminated = asyncio.Event()

    # -- lifecycle ------------------------------------------------------------

    def seed_service_rate(self) -> Optional[float]:
        """Warm the admission queue's service-rate estimate at boot.

        The estimated-wait shed gate is dead until the first batch
        completes; seeding it from the learned cost model's observed
        cycles-per-ns rate (or the analytic machine rate when no fit
        is live) makes it answer from the first request.  A no-op
        under ``REPRO_COST=0`` — the queue then boots cold exactly as
        it always did."""
        from repro import cost
        seed = cost.seed_rate_cycles_per_ms()
        if seed is not None:
            self.queue.seed_service_rate(seed)
        return seed

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the batcher; returns (host, port)."""
        self.seed_service_rate()
        self.host, self.port = await self._listen(self.config.host,
                                                  self.config.port)
        self._batcher_task = asyncio.ensure_future(self.batcher.run())
        self._batcher_task.add_done_callback(self._on_batcher_done)
        return self.host, self.port

    def trigger_shutdown(self) -> None:
        """Begin a graceful drain (signal-handler entry point)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())
            self._shutdown_task.add_done_callback(self._on_shutdown_done)

    def _on_batcher_done(self, task: "asyncio.Task") -> None:
        """Observe the batcher consumer (it is spawned, never awaited
        on the hot path): if it crashes, every queued future would
        otherwise hang until its client's deadline, silently.  Fail
        them immediately, stop admissions, and count the crash."""
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        self.registry.counter("batcher_crash_total").inc()
        self.queue.close()
        for job in self.queue.drain():
            if job.future is not None and not job.future.done():
                job.future.set_result(
                    {"ok": False, "id": job.job_id, "op": job.op,
                     "error": "error:internal",
                     "message": "batcher crashed: %s" % error})

    def _on_shutdown_done(self, task: "asyncio.Task") -> None:
        """Observe the drain task: an exception mid-shutdown must not
        leave ``wait_terminated()`` callers hanging forever."""
        if task.cancelled():
            return
        if task.exception() is not None:
            self.registry.counter("shutdown_error_total").inc()
            self._terminated.set()

    async def shutdown(self) -> None:
        """Drain: stop accepting, close idle connections, shed new
        work, finish queued work."""
        if self._draining:
            await self._terminated.wait()
            return
        self._draining = True
        await self._close_front_door()
        self.queue.close()
        if self._batcher_task is not None:
            try:
                await self._batcher_task
            except Exception:  # repro: noqa=broad-except -- observed and counted by _on_batcher_done; the drain must still terminate
                pass
        await self._await_connections()
        self.tracer.dump()
        self._terminated.set()

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    # -- routing --------------------------------------------------------------

    async def _route(self, request: _HttpRequest) -> Response:
        if request.method == "GET" and request.path == "/metrics":
            return text_response(200, self.registry.render())
        if request.method == "GET" and request.path == "/metrics.json":
            # The shard wire form: the router scrapes this and folds
            # snapshots with metrics.merge_snapshots.
            return json_response(200, {"ok": True,
                                       "snapshot":
                                           self.registry.snapshot()})
        if request.method == "GET" and request.path == "/statz":
            return json_response(200, self.statz())
        if request.method == "GET" and request.path == "/healthz":
            return text_response(
                200, "draining\n" if self._draining else "ok\n")
        if request.method == "GET" and request.path == "/traces":
            if not self.tracer.enabled:
                return json_response(
                    404, {"ok": False,
                          "error": "invalid:tracing-disabled"})
            return json_response(200, {"ok": True,
                                       "traces": self.tracer.to_json()})
        if request.method == "POST" and request.path in ("/", "/v1/job"):
            return await self._handle_job(request)
        return json_response(
            404, {"ok": False, "error": "invalid:route",
                  "message": "%s %s not found"
                  % (request.method, request.path)})

    # -- the job path ---------------------------------------------------------

    async def _handle_job(self, request: _HttpRequest) -> Response:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.registry.counter("invalid_total").inc()
            return json_response(
                400, {"ok": False, "error": "invalid:bad-json",
                      "message": "body is not valid JSON"})
        try:
            job = make_job(payload)
        except JobError as error:
            self.registry.counter("invalid_total").inc()
            return json_response(
                400, {"ok": False, "error": error.code,
                      "message": error.message})
        self.registry.counter("requests_total", op=job.op).inc()
        job.trace = self.tracer.begin(job.job_id, job.op)
        tracing.annotate_plan(job.trace, job.plan, cost_ns=job.cost_ns)
        if self._draining:
            reason = "shutting-down"
        else:
            job.future = asyncio.get_running_loop().create_future()
            reason = self.queue.try_submit(job)
        if reason is not None:
            self.registry.counter("shed_total", reason=reason).inc()
            self.registry.gauge("queue_depth").set(self.queue.depth)
            tracing.mark(job.trace, "responded")
            self.tracer.record(job.trace)
            return json_response(
                503, {"ok": False, "id": job.job_id, "op": job.op,
                      "error": "rejected:overloaded", "reason": reason,
                      "queue_depth": self.queue.depth})
        tracing.mark(job.trace, "admitted")
        self.registry.gauge("queue_depth").set(self.queue.depth)
        self.registry.gauge("queue_max_depth").set_max(
            self.queue.max_depth)
        body = await self._await_result(job)
        tracing.mark(job.trace, "responded")
        self.tracer.record(job.trace)
        status = 200
        if not body.get("ok"):
            error = str(body.get("error", ""))
            status = 504 if error == "rejected:deadline" else 500
        return json_response(status, body)

    async def _await_result(self, job) -> Dict[str, Any]:
        """Wait for the batcher's answer, bounded by the deadline."""
        if job.deadline_at is None:
            return await job.future
        remaining = max(0.0, job.deadline_at
                        - asyncio.get_running_loop().time())
        # Grace covers the batcher marking the expiry itself (it owns
        # the queue-side deadline check).
        try:
            return await asyncio.wait_for(job.future, remaining + 0.25)
        except asyncio.TimeoutError:
            self.registry.counter("deadline_expired_total").inc()
            return {"ok": False, "id": job.job_id, "op": job.op,
                    "error": "rejected:deadline"}

    # -- introspection --------------------------------------------------------

    def statz(self) -> Dict[str, Any]:
        """One server's live service stats (the ``/statz`` payload):
        the queue's observed-service-rate EWMA and pending backlog that
        its wait gate prices against, and the drain flag."""
        return {
            "ok": True,
            "draining": self._draining,
            "queue_depth": self.queue.depth,
            "pending_cycles": self.queue.pending_cycles,
            "rate_cycles_per_ms":
                self.queue.service_rate_cycles_per_ms,
            "rate_seeded": self.queue.service_rate_seeded,
            "pending_ns": self.queue.pending_ns,
            "submitted": self.queue.submitted,
            "shed": self.queue.shed,
            "jobs_completed": self.batcher.jobs_completed,
        }


class ServerThread:
    """A :class:`ReproServer` on a background thread's event loop.

    Self-hosting for the benchmark client and in-process tests:
    ``start()`` blocks until the listener is bound and returns
    ``(host, port)``; ``stop()`` runs the graceful drain and joins.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 tracer: Optional[tracing.Tracer] = None) -> None:
        import threading
        self.config = config
        self._tracer = tracer
        self.server: Optional[ReproServer] = None
        self.host = ""
        self.port = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = ReproServer(self.config, tracer=self._tracer)
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self.server.wait_terminated()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not come up")
        if self._error is not None:
            raise RuntimeError("server thread failed: %r" % self._error)
        return self.host, self.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                self.server.trigger_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain")

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_server(config: Optional[ServeConfig] = None,
               announce=None) -> int:
    """Blocking entry point for ``repro serve`` (installs signal
    handlers, runs until drained)."""
    return asyncio.run(_serve_main(config, announce))


async def _serve_main(config: Optional[ServeConfig],
                      announce) -> int:
    server = ReproServer(config)
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.trigger_shutdown)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support fall back to the
            # default KeyboardInterrupt path.
            break
    if announce is not None:
        announce("repro-serve listening on %s:%d" % (host, port))
        announce("  queue=%d max_wait_ms=%g"
                 % (server.config.queue_capacity,
                    server.config.max_wait_ms))
    await server.wait_terminated()
    if announce is not None:
        announce("repro-serve drained: %d served, %d shed"
                 % (server.batcher.jobs_completed, server.queue.shed))
    return 0
