"""Fleet front-door router: ``repro serve --shards N``.

The router is the one address clients see.  It speaks the exact
HTTP/JSON job protocol of :mod:`repro.serve.server` — it runs the same
:class:`~repro.serve.server.HttpFrontDoor` connection loop, so its
front door keeps connections open by the same rule — and scales it
across N supervised shard worker processes:

* **byte-forwarding proxy** — the router decodes a job body only to
  read its ``op`` (a non-object body or an unknown op is answered
  ``400`` here, by :func:`~repro.serve.jobs.job_op`), then forwards
  the body unparsed to the live shard with the fewest in-flight jobs;
  ties go to the shard that has served fewest, so sequential work
  alternates.  A dead shard simply drops out of the candidate set.
  The shard validates, prices and wait-gates the job exactly as the
  single-process server does, and its answer — a result, a ``400``,
  a ``503`` or a ``504`` — is relayed unchanged.
* **fleet depth bound** — the router sheds at its own front door
  (``rejected:overloaded``) only while draining, with no live shard,
  or once its proxied-but-unanswered jobs reach ``per_shard_depth``
  per live shard.  Each shard runs the one estimated-wait gate.
* **cross-shard result cache** — idempotent jobs
  (:data:`~repro.serve.jobs.CACHEABLE_OPS`, the only ones the router
  lowers, for their memo-key-salted cache key) answer from a shared
  cache (:mod:`repro.shard.cache`) without touching any shard.
* **one observability plane** — ``/metrics`` merges every shard's
  snapshot through :func:`repro.serve.metrics.merge_snapshots`
  (counters sum, histograms merge bucket-wise) and appends the
  router's own series under the ``repro_router`` prefix; ``/healthz``
  aggregates shard states; ``/traces`` concatenates shard traces.
* **persistent shard connections** — proxied jobs and the
  ``/metrics.json`` and ``/traces`` scrapes all reuse HTTP/1.1
  keep-alive connections from a per-shard pool of at most
  ``_POOL_SIZE`` idle ones.  A connection is tagged with the shard's
  generation and reused only within it; it returns to the pool only
  after a complete ``Content-Length`` answer that said ``keep-alive``;
  an error, timeout or cancellation closes it.  The supervisor drops a
  shard's pool when the shard dies or restarts, and the router drops
  every pool on drain before the shards get SIGTERM.
  ``shard_connect_total{shard=...}`` counts the connections opened.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import env as _env
from repro.serve.jobs import (CACHEABLE_OPS, Job, JobError, job_op,
                              make_job)
from repro.serve.metrics import (MetricsRegistry, merge_snapshots,
                                 render_snapshot)
from repro.serve.queue import SHED_QUEUE_FULL, SHED_SHUTTING_DOWN
from repro.serve.server import (HttpFrontDoor, Response, _HttpRequest,
                                json_response, text_response)
from repro.shard.cache import ShardResultCache
from repro.shard.supervisor import ShardHandle, ShardSupervisor

#: Shed reason when every shard is dead or restarting.
SHED_NO_LIVE_SHARDS = "no-live-shards"

#: Ceiling on one proxied shard exchange (connect + compute + answer).
_PROXY_TIMEOUT_S = 300.0

#: Idle keep-alive connections the router keeps open to each shard.
_POOL_SIZE = 8


@dataclass
class RouterConfig:
    """Router configuration; env defaults, CLI overrides."""

    host: str = "127.0.0.1"
    port: int = 8421
    shards: int = 2
    #: Fleet depth bound is ``per_shard_depth * live shards``.
    per_shard_depth: int = 256
    drain_s: float = 20.0
    max_restarts: int = 5
    proxy_timeout_s: float = _PROXY_TIMEOUT_S

    @classmethod
    def from_env(cls, **overrides: Any) -> "RouterConfig":
        config = cls(
            shards=_env.int_value(_env.SHARDS, 2, minimum=1),
            per_shard_depth=_env.int_value(_env.SERVE_QUEUE, 256,
                                           minimum=1),
            drain_s=_env.float_value(_env.SHARD_DRAIN_S, 20.0,
                                     minimum=0.1),
            max_restarts=_env.int_value(_env.SHARD_RESTARTS, 5,
                                        minimum=0),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


class ShardRouter(HttpFrontDoor):
    """The sharded front door: route, admit, proxy, aggregate."""

    def __init__(self, config: Optional[RouterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 cache: Optional[ShardResultCache] = None,
                 announce=None) -> None:
        self.config = config if config is not None \
            else RouterConfig.from_env()
        super().__init__(registry if registry is not None
                         else MetricsRegistry(prefix="repro_router"))
        self.cache = cache if cache is not None else ShardResultCache()
        self.announce = announce
        self.supervisor = ShardSupervisor(
            self.config.shards, registry=self.registry,
            max_restarts=self.config.max_restarts, announce=announce)
        self.host = self.config.host
        self.port = self.config.port
        self.routed = 0
        self.shed = 0
        self._shutdown_task: Optional[asyncio.Task] = None
        self._terminated = asyncio.Event()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Warm the cache, boot the fleet, bind the front door."""
        self.cache.load()
        await self.supervisor.start()
        self.host, self.port = await self._listen(self.config.host,
                                                  self.config.port)
        return self.host, self.port

    def trigger_shutdown(self) -> None:
        """Begin the graceful fleet drain (signal-handler entry)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())
            self._shutdown_task.add_done_callback(self._on_shutdown_done)

    def _on_shutdown_done(self, task: "asyncio.Task") -> None:
        """Observe the drain: a mid-shutdown crash must not leave
        ``wait_terminated()`` callers hanging."""
        if task.cancelled():
            return
        if task.exception() is not None:
            self.registry.counter("shutdown_error_total").inc()
            self._terminated.set()

    async def shutdown(self) -> None:
        """Drain router-first, then shards, each step bounded.

        Order matters: the listener and idle client connections close
        (no new admissions), then every proxied in-flight response
        completes, the shard connection pools close, and only then do
        the shards get SIGTERM — so a drain never turns healthy
        in-flight work into connection errors.
        """
        if self._draining:
            await self._terminated.wait()
            return
        self._draining = True
        await self._close_front_door()
        await self._await_connections()
        for handle in self.supervisor.handles:
            handle.drop_pool()
        await self.supervisor.drain(self.config.drain_s)
        self.cache.save()
        self._terminated.set()

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    # -- fleet admission ------------------------------------------------------

    def fleet_inflight(self) -> int:
        return sum(handle.inflight for handle in self.supervisor.handles)

    def admission_reason(self, live: List[ShardHandle]) -> Optional[str]:
        """Front-door shed reason for a job arriving now (``None`` =
        forward it; the shard then applies its own wait gate)."""
        if self._draining:
            return SHED_SHUTTING_DOWN
        if not live:
            return SHED_NO_LIVE_SHARDS
        if self.fleet_inflight() >= \
                self.config.per_shard_depth * len(live):
            return SHED_QUEUE_FULL
        return None

    # -- routing --------------------------------------------------------------

    def pick_shard(self, live: List[ShardHandle]) -> ShardHandle:
        """The live shard with the fewest in-flight jobs; ties go to
        the one that has served fewest."""
        return min(live, key=lambda handle: (handle.inflight,
                                             handle.served))

    # -- shard HTTP client ----------------------------------------------------

    async def _shard_request(self, handle: ShardHandle, method: str,
                             path: str, body: bytes = b"",
                             timeout: Optional[float] = None
                             ) -> Tuple[int, bytes]:
        """One exchange with a shard over a pooled keep-alive
        connection (a fresh one when the pool has none), bounded by
        ``timeout``; returns ``(status, body)``."""
        return await asyncio.wait_for(
            self._shard_exchange(handle, method, path, body),
            timeout if timeout is not None
            else self.config.proxy_timeout_s)

    async def _shard_exchange(self, handle: ShardHandle, method: str,
                              path: str, body: bytes
                              ) -> Tuple[int, bytes]:
        generation = handle.generation
        connection = handle.checkout()
        if connection is None:
            self.registry.counter("shard_connect_total",
                                  shard=str(handle.index)).inc()
            connection = await asyncio.open_connection(handle.host,
                                                       handle.port)
        reader, writer = connection
        reusable = False
        try:
            head = ("%s %s HTTP/1.1\r\n"
                    "Host: %s:%d\r\n"
                    % (method, path, handle.host, handle.port))
            if body:
                head += ("Content-Type: application/json\r\n"
                         "Content-Length: %d\r\n" % len(body))
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
            status, payload, reusable = await self._read_response(reader)
            return status, payload
        finally:
            # Any error, timeout or cancellation leaves reusable False:
            # a half-read answer must never be pooled.
            if reusable and not self._draining:
                handle.checkin(generation, reader, writer, _POOL_SIZE)
            else:
                writer.close()

    @staticmethod
    async def _read_response(reader: asyncio.StreamReader
                             ) -> Tuple[int, bytes, bool]:
        """``(status, body, reusable)``: reusable only for a complete
        ``Content-Length`` answer that said ``keep-alive``."""
        status_line = (await reader.readline()).decode(
            "latin-1", "replace")
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise asyncio.IncompleteReadError(
                status_line.encode("latin-1"), None)
        status = int(parts[1])
        length = None
        keep_alive = False
        while True:
            line = (await reader.readline()).decode("latin-1",
                                                    "replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                keep_alive = value.strip().lower() == "keep-alive"
        if length is None:
            return status, await reader.read(), False
        return status, await reader.readexactly(length), keep_alive

    # -- routing --------------------------------------------------------------

    async def _route(self, request: _HttpRequest) -> Response:
        if request.method == "GET" and request.path == "/metrics":
            return text_response(200, await self._merged_metrics())
        if request.method == "GET" and request.path == "/metrics.json":
            return json_response(
                200, {"ok": True,
                      "snapshot": await self._merged_snapshot(),
                      "router": self.registry.snapshot()})
        if request.method == "GET" and request.path == "/statz":
            return json_response(200, self.statz())
        if request.method == "GET" and request.path == "/healthz":
            return text_response(200, self.health_text())
        if request.method == "GET" and request.path == "/traces":
            return await self._merged_traces()
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
            op = job_op(payload)
            # Only a cacheable job is lowered here, for its cache key;
            # every other body goes to a shard unparsed, and the shard
            # validates, prices and wait-gates it.
            job = make_job(payload) if self.cache.enabled \
                and op in CACHEABLE_OPS else None
        except JobError as error:
            self.registry.counter("invalid_total").inc()
            return json_response(
                400, {"ok": False, "error": error.code,
                      "message": error.message})
        self.registry.counter("requests_total", op=op).inc()
        if job is not None:
            cached = self.cache.get(job)
            if cached is not None:
                self.registry.counter("cache_hits_total").inc()
                return json_response(
                    200, {"ok": True, "id": job.job_id, "op": op,
                          "result": cached, "cached": True,
                          "queue_ms": 0.0})
            self.registry.counter("cache_misses_total").inc()
        live = self.supervisor.live()
        reason = self.admission_reason(live)
        if reason is not None:
            self.shed += 1
            self.registry.counter("shed_total", reason=reason).inc()
            return json_response(
                503, {"ok": False, "id": payload.get("id"), "op": op,
                      "error": "rejected:overloaded", "reason": reason,
                      "queue_depth": self.fleet_inflight()})
        handle = self.pick_shard(live)
        return await self._proxy_job(payload, handle, request.body, job)

    async def _proxy_job(self, payload: Dict[str, Any],
                         handle: ShardHandle, body: bytes,
                         job: Optional[Job]) -> Response:
        """Forward one job's body and relay the shard's exact answer.

        A dead shard surfaces here as an immediate socket error (the
        OS refuses the connect, or a pooled connection reads EOF or a
        reset), so in-flight jobs on a crashed shard *fail fast* with
        a 502 ``error:internal`` — the client retries or reports;
        nothing ever hangs on a corpse.  Only a cacheable ``job``'s
        answer is decoded, to store its result.
        """
        handle.inflight += 1
        generation = handle.generation
        try:
            status, answer = await self._shard_request(
                handle, "POST", "/v1/job", body)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            self.registry.counter("proxy_error_total",
                                  shard=str(handle.index)).inc()
            return json_response(
                502, {"ok": False, "id": payload.get("id"),
                      "op": payload["op"], "error": "error:internal",
                      "message": "shard %d connection failed"
                      % handle.index})
        finally:
            if handle.generation == generation:
                handle.inflight = max(0, handle.inflight - 1)
        self.routed += 1
        handle.served += 1
        self.registry.counter("routed_total",
                              shard=str(handle.index)).inc()
        if status == 200 and job is not None:
            try:
                decoded = json.loads(answer.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = None
            if decoded is not None and decoded.get("ok") \
                    and "result" in decoded:
                self.cache.put(job, decoded["result"])
        return Response(status, answer)

    # -- aggregation ----------------------------------------------------------

    async def _scrape_snapshots(self) -> List[Dict[str, Any]]:
        """Every live shard's metrics snapshot (failures skipped)."""
        live = self.supervisor.live()
        results = await asyncio.gather(
            *[self._shard_request(handle, "GET", "/metrics.json",
                                  timeout=10.0) for handle in live],
            return_exceptions=True)
        snapshots: List[Dict[str, Any]] = []
        for outcome in results:
            if isinstance(outcome, BaseException):
                self.registry.counter("scrape_error_total").inc()
                continue
            status, body = outcome
            if status != 200:
                continue
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            snapshot = decoded.get("snapshot")
            if isinstance(snapshot, dict):
                snapshots.append(snapshot)
        return snapshots

    async def _merged_snapshot(self) -> Dict[str, Any]:
        return merge_snapshots(await self._scrape_snapshots())

    async def _merged_metrics(self) -> str:
        """The fleet scrape: merged shard series + router series."""
        merged = render_snapshot(await self._merged_snapshot(),
                                 prefix="repro_serve")
        own = self.registry.render()
        return merged + own

    async def _merged_traces(self) -> Response:
        live = self.supervisor.live()
        results = await asyncio.gather(
            *[self._shard_request(handle, "GET", "/traces",
                                  timeout=10.0) for handle in live],
            return_exceptions=True)
        traces: List[Any] = []
        any_enabled = False
        for outcome in results:
            if isinstance(outcome, BaseException):
                continue
            status, body = outcome
            if status != 200:
                continue
            any_enabled = True
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            traces.extend(decoded.get("traces", ()))
        if not any_enabled:
            return json_response(404, {"ok": False,
                                       "error": "invalid:tracing-disabled"})
        return json_response(200, {"ok": True, "traces": traces})

    # -- introspection --------------------------------------------------------

    def health_text(self) -> str:
        """Aggregate health: first line ``ok``/``degraded``/
        ``draining``, then one line per shard."""
        if self._draining:
            first = "draining"
        elif self.supervisor.degraded():
            first = "degraded"
        else:
            first = "ok"
        lines = [first]
        for handle in self.supervisor.handles:
            lines.append("shard %d: %s" % (handle.index, handle.state))
        return "\n".join(lines) + "\n"

    def statz(self) -> Dict[str, Any]:
        """The fleet view.  ``shed`` counts only the router's own
        front-door sheds (draining, no live shard, depth); a shard's
        sheds are relayed unchanged and counted in the merged
        ``repro_serve_shed_total`` series."""
        return {
            "ok": True,
            "role": "router",
            "draining": self._draining,
            "shards": [handle.describe()
                       for handle in self.supervisor.handles],
            "inflight": self.fleet_inflight(),
            "routed": self.routed,
            "shed": self.shed,
            "restarts": self.supervisor.restarts_total,
            "cache": {"entries": len(self.cache),
                      "hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "enabled": self.cache.enabled},
        }


class RouterThread:
    """A :class:`ShardRouter` on a background thread's event loop.

    The sharded twin of :class:`repro.serve.server.ServerThread`, for
    in-process tests and the benchmark harness: ``start()`` blocks
    until the fleet is up and the front door bound.
    """

    def __init__(self, config: Optional[RouterConfig] = None,
                 cache: Optional[ShardResultCache] = None) -> None:
        import threading
        self.config = config
        self._cache = cache
        self.router: Optional[ShardRouter] = None
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
        self.router = ShardRouter(self.config, cache=self._cache)
        self.host, self.port = await self.router.start()
        self._ready.set()
        await self.router.wait_terminated()

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("router thread did not come up")
        if self._error is not None:
            raise RuntimeError("router thread failed: %r" % self._error)
        return self.host, self.port

    def stop(self, timeout: float = 120.0) -> None:
        if self._loop is not None and self.router is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                self.router.trigger_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("router thread did not drain")

    def __enter__(self) -> "RouterThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_router(config: Optional[RouterConfig] = None,
               announce=None) -> int:
    """Blocking entry point for ``repro serve --shards N``."""
    return asyncio.run(_router_main(config, announce))


async def _router_main(config: Optional[RouterConfig],
                       announce) -> int:
    router = ShardRouter(config, announce=announce)
    host, port = await router.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, router.trigger_shutdown)
        except (NotImplementedError, RuntimeError):
            break
    if announce is not None:
        announce("repro-router listening on %s:%d" % (host, port))
        announce("  shards=%d depth=%d drain_s=%g"
                 % (router.config.shards,
                    router.config.per_shard_depth,
                    router.config.drain_s))
    await router.wait_terminated()
    if announce is not None:
        announce("repro-router drained: %d routed, %d shed, "
                 "%d restarts"
                 % (router.routed, router.shed,
                    router.supervisor.restarts_total))
    return 0
