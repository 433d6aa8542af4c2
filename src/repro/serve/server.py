"""Asyncio TCP/HTTP front-end: ``repro serve --port N``.

A stdlib-only, single-event-loop HTTP/1.1 server.  Every connection
carries one request (``Connection: close``), which keeps the parser
trivial and the drain logic exact:

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

Shutdown (SIGTERM/SIGINT through :meth:`ReproServer.trigger_shutdown`)
is graceful and bounded: the listener closes, new admissions shed with
``shutting-down``, queued work drains through the batcher (partial
batches forced out via the driver's ``flush``), in-flight responses
complete, and only then does the process exit.
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
BATCH_ENV = _env.SERVE_BATCH.name

_MAX_BODY_BYTES = 8 << 20
_MAX_HEADER_LINES = 64


@dataclass
class ServeConfig:
    """Server configuration; env defaults, CLI overrides."""

    host: str = "127.0.0.1"
    port: int = 8421
    queue_capacity: int = 256
    max_wait_ms: float = 10_000.0
    max_batch: int = 16
    max_body_bytes: int = _MAX_BODY_BYTES

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        config = cls(
            queue_capacity=_env.int_value(_env.SERVE_QUEUE, 256,
                                          minimum=1),
            max_wait_ms=_env.float_value(_env.SERVE_MAX_WAIT_MS,
                                         10_000.0, minimum=1.0),
            max_batch=_env.int_value(_env.SERVE_BATCH, 16, minimum=1),
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


class _BadRequest(Exception):
    """Malformed transport-level request (connection is answered 400)."""


# -- transport helpers (shared with the shard router) -------------------------

async def read_http_request(reader: asyncio.StreamReader,
                            max_body_bytes: int = _MAX_BODY_BYTES
                            ) -> _HttpRequest:
    """Parse one ``Connection: close`` HTTP/1.1 request.

    Raises :class:`_BadRequest` on malformed transport; module-level so
    :mod:`repro.shard.router` speaks byte-identical framing."""
    request_line = (await reader.readline()).decode(
        "latin-1", "replace").strip()
    if not request_line:
        raise _BadRequest("empty request")
    parts = request_line.split()
    if len(parts) < 2:
        raise _BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1", "replace")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many headers")
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
    return _HttpRequest(method, path, body, headers)


async def respond_json(writer: asyncio.StreamWriter, status: int,
                       body: Dict[str, Any]) -> None:
    data = json.dumps(body).encode("utf-8")
    await respond_raw(writer, status, data, "application/json")


async def respond_text(writer: asyncio.StreamWriter, status: int,
                       text: str) -> None:
    await respond_raw(writer, status, text.encode("utf-8"),
                      "text/plain; charset=utf-8")


async def respond_raw(writer: asyncio.StreamWriter, status: int,
                      data: bytes, content_type: str) -> None:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              500: "Internal Server Error",
              502: "Bad Gateway",
              503: "Service Unavailable",
              504: "Gateway Timeout"}.get(status, "OK")
    head = ("HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n\r\n"
            % (status, reason, content_type, len(data)))
    writer.write(head.encode("latin-1") + data)
    await writer.drain()


class ReproServer:
    """The serve subsystem wired together: queue → batcher → HTTP."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[tracing.Tracer] = None) -> None:
        self.config = config if config is not None else \
            ServeConfig.from_env()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else tracing.Tracer()
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            max_wait_ms=self.config.max_wait_ms)
        self.batcher = DynamicBatcher(
            self.queue, self.registry,
            max_batch=self.config.max_batch)
        self.host = self.config.host
        self.port = self.config.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._connections: Set[asyncio.Task] = set()
        self._draining = False
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
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
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
        """Drain: stop accepting, shed new work, finish queued work."""
        if self._draining:
            await self._terminated.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queue.close()
        if self._batcher_task is not None:
            try:
                await self._batcher_task
            except Exception:  # repro: noqa=broad-except -- observed and counted by _on_batcher_done; the drain must still terminate
                pass
        if self._connections:
            await asyncio.gather(*tuple(self._connections),
                                 return_exceptions=True)
        self.tracer.dump()
        self._terminated.set()

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling --------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _BadRequest as error:
                await self._respond_json(
                    writer, 400, {"ok": False, "error": "invalid:http",
                                  "message": str(error)})
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.LimitOverrunError):
                return
            await self._route(request, writer)
        except Exception as error:
            self.registry.counter("internal_error_total").inc()
            await self._try_respond_error(writer, error)
        finally:
            try:
                writer.close()
            except Exception:
                self.registry.counter("connection_close_error_total").inc()

    async def _read_request(self,
                            reader: asyncio.StreamReader) -> _HttpRequest:
        return await read_http_request(reader,
                                       self.config.max_body_bytes)

    async def _route(self, request: _HttpRequest,
                     writer: asyncio.StreamWriter) -> None:
        if request.method == "GET" and request.path == "/metrics":
            await self._respond_text(writer, 200, self.registry.render())
            return
        if request.method == "GET" and request.path == "/metrics.json":
            # The shard wire form: the router scrapes this and folds
            # snapshots with metrics.merge_snapshots.
            await self._respond_json(
                writer, 200, {"ok": True,
                              "snapshot": self.registry.snapshot()})
            return
        if request.method == "GET" and request.path == "/statz":
            await self._respond_json(writer, 200, self.statz())
            return
        if request.method == "GET" and request.path == "/healthz":
            await self._respond_text(
                writer, 200, "draining\n" if self._draining else "ok\n")
            return
        if request.method == "GET" and request.path == "/traces":
            if not self.tracer.enabled:
                await self._respond_json(
                    writer, 404, {"ok": False,
                                  "error": "invalid:tracing-disabled"})
                return
            await self._respond_json(
                writer, 200, {"ok": True,
                              "traces": self.tracer.to_json()})
            return
        if request.method == "POST" and request.path in ("/", "/v1/job"):
            await self._handle_job(request, writer)
            return
        await self._respond_json(
            writer, 404, {"ok": False, "error": "invalid:route",
                          "message": "%s %s not found"
                          % (request.method, request.path)})

    # -- the job path ---------------------------------------------------------

    async def _handle_job(self, request: _HttpRequest,
                          writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.registry.counter("invalid_total").inc()
            await self._respond_json(
                writer, 400, {"ok": False, "error": "invalid:bad-json",
                              "message": "body is not valid JSON"})
            return
        try:
            job = make_job(payload)
        except JobError as error:
            self.registry.counter("invalid_total").inc()
            await self._respond_json(
                writer, 400, {"ok": False, "error": error.code,
                              "message": error.message})
            return
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
            await self._respond_json(
                writer, 503, {"ok": False, "id": job.job_id,
                              "op": job.op,
                              "error": "rejected:overloaded",
                              "reason": reason,
                              "queue_depth": self.queue.depth})
            return
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
        await self._respond_json(writer, status, body)

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
        """One shard's live service stats (the ``/statz`` payload).

        The router polls this to aggregate fleet admission state: the
        queue's observed-service-rate EWMA, its pending backlog, and
        the drain flag that marks the shard degraded."""
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
            "batches_dispatched": self.batcher.batches_dispatched,
        }

    # -- responses ------------------------------------------------------------

    async def _respond_json(self, writer: asyncio.StreamWriter,
                            status: int, body: Dict[str, Any]) -> None:
        await respond_json(writer, status, body)

    async def _respond_text(self, writer: asyncio.StreamWriter,
                            status: int, text: str) -> None:
        await respond_text(writer, status, text)

    async def _try_respond_error(self, writer: asyncio.StreamWriter,
                                 error: Exception) -> None:
        try:
            await self._respond_json(
                writer, 500, {"ok": False, "error": "error:internal",
                              "message": str(error)})
        except Exception:
            self.registry.counter("connection_close_error_total").inc()


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
        announce("  queue=%d max_wait_ms=%g max_batch=%d"
                 % (server.config.queue_capacity,
                    server.config.max_wait_ms,
                    server.config.max_batch))
    await server.wait_terminated()
    if announce is not None:
        announce("repro-serve drained: %d served, %d shed, %d batches"
                 % (server.batcher.jobs_completed, server.queue.shed,
                    server.batcher.batches_dispatched))
    return 0
