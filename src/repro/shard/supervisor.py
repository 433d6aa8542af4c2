"""Shard worker supervision: spawn, watch, restart, drain.

Each shard is one OS process running today's single-event-loop
:class:`~repro.serve.server.ReproServer` (``python -m repro serve
--port 0 --shards 0``) on an ephemeral port parsed from its announce
line.  The supervisor owns the fleet lifecycle, reusing
:mod:`repro.parallel`'s env conventions — the child environment is the
parent's (killswitches such as ``REPRO_PACKED`` propagate) with
``REPRO_SHARDS`` forced to ``0`` so a shard can never recursively boot
its own router.

* **restart-on-crash** — a watcher task per shard observes the process
  exit; an unexpected death marks the shard ``dead``, counts
  ``shard_crash_total``, and respawns it (fresh port, bumped
  generation) up to ``REPRO_SHARD_RESTARTS`` times, closing the
  router's pooled keep-alive connections to it.  Requests in flight
  to the dead shard fail fast at the router's proxy socket — they are
  answered ``error:internal``, never hung.
* **bounded graceful drain** — :meth:`ShardSupervisor.drain` forwards
  SIGTERM to every live shard (each runs its own graceful drain:
  listener closed, queued work answered) and waits at most
  ``REPRO_SHARD_DRAIN_S`` seconds before killing stragglers.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.metrics import MetricsRegistry

#: The shard's announce line (same format ``repro serve`` has always
#: printed; the smoke harness parses the identical pattern).
_LISTEN_RE = re.compile(
    r"repro-serve listening on (?P<host>[0-9.]+):(?P<port>\d+)")

#: How long one shard may take to announce its ephemeral port.
_BOOT_TIMEOUT_S = 30.0

#: Shard lifecycle states.
STATE_STARTING = "starting"
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DEAD = "dead"


@dataclass
class ShardHandle:
    """One supervised shard worker, as the router sees it."""

    index: int
    host: str = ""
    port: int = 0
    state: str = STATE_STARTING
    process: Any = None          # asyncio.subprocess.Process
    restarts: int = 0
    #: Bumps on every (re)spawn; distinguishes pre-crash bookkeeping.
    generation: int = 0
    #: Router-tracked outstanding proxied requests (what routing
    #: balances, and the fleet depth bound).
    inflight: int = 0
    #: Requests this shard answered through the router (the routing
    #: tiebreak).
    served: int = 0
    #: The router's idle keep-alive connections to this shard, each
    #: tagged with the generation it was opened to:
    #: ``(generation, reader, writer)``.
    pool: List[Tuple[int, Any, Any]] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.process is not None \
            and self.process.returncode is None

    def checkout(self) -> Optional[Tuple[Any, Any]]:
        """An idle pooled ``(reader, writer)`` to the current
        generation, or ``None``; stale or closed ones are closed."""
        while self.pool:
            generation, reader, writer = self.pool.pop()
            if generation == self.generation and not reader.at_eof() \
                    and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def checkin(self, generation: int, reader: Any, writer: Any,
                limit: int) -> None:
        """Pool one idle connection, or close it if it belongs to an
        older generation or the pool already holds ``limit``."""
        if generation == self.generation and len(self.pool) < limit:
            self.pool.append((generation, reader, writer))
        else:
            writer.close()

    def drop_pool(self) -> None:
        """Close every pooled connection (restart, death, drain)."""
        for _, _, writer in self.pool:
            writer.close()
        self.pool.clear()

    def describe(self) -> Dict[str, Any]:
        """JSON-able view for the router's ``/statz``."""
        return {
            "index": self.index,
            "state": self.state,
            "host": self.host,
            "port": self.port,
            "pid": self.process.pid if self.process is not None
            else None,
            "restarts": self.restarts,
            "generation": self.generation,
            "inflight": self.inflight,
            "served": self.served,
        }


def shard_environment() -> Dict[str, str]:
    """Child environment for one shard worker.

    The parent's environment verbatim (tuning and killswitches
    propagate) plus the repro source root on
    ``PYTHONPATH`` and ``REPRO_SHARDS`` pinned to ``0`` — a shard is
    always a plain single-process server, never a nested router.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing
                                   if existing else "")
    env["REPRO_SHARDS"] = "0"
    return env


class ShardSupervisor:
    """Spawn and babysit ``count`` shard workers."""

    def __init__(self, count: int,
                 registry: Optional[MetricsRegistry] = None,
                 max_restarts: int = 5,
                 announce=None) -> None:
        if count < 1:
            raise ValueError("shard count must be at least 1")
        self.registry = registry if registry is not None \
            else MetricsRegistry(prefix="repro_router")
        self.max_restarts = max_restarts
        self.announce = announce
        self.handles = [ShardHandle(index) for index in range(count)]
        self.restarts_total = 0
        self._draining = False
        self._watchers: set = set()

    # -- queries --------------------------------------------------------------

    def live(self) -> List[ShardHandle]:
        """Shards currently accepting routed work."""
        return [handle for handle in self.handles
                if handle.state == STATE_UP]

    def degraded(self) -> bool:
        """Any shard not fully up (the ``/healthz`` aggregate rule)."""
        return any(handle.state != STATE_UP for handle in self.handles)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Boot every shard; raises if any fails its first spawn."""
        for handle in self.handles:
            await self._spawn(handle)

    async def _spawn(self, handle: ShardHandle) -> None:
        handle.state = STATE_STARTING
        handle.generation += 1
        handle.drop_pool()
        # Router-side accounting from the dead generation must not
        # haunt the fresh process (stale inflight skews routing and
        # the fleet depth bound).
        handle.inflight = 0
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--shards", "0",
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=shard_environment())
        handle.process = process
        try:
            handle.host, handle.port = await asyncio.wait_for(
                self._await_announce(process), _BOOT_TIMEOUT_S)
        except (asyncio.TimeoutError, RuntimeError):
            handle.state = STATE_DEAD
            if process.returncode is None:
                process.kill()
            await process.wait()
            raise RuntimeError("shard %d did not announce a port"
                               % handle.index)
        handle.state = STATE_UP
        if self.announce is not None:
            self.announce("shard %d up on %s:%d (pid %d)"
                          % (handle.index, handle.host, handle.port,
                             process.pid))
        watcher = asyncio.ensure_future(self._watch(handle, process))
        self._watchers.add(watcher)
        watcher.add_done_callback(self._on_watcher_done)

    async def _await_announce(self, process) -> tuple:
        while True:
            line = await process.stdout.readline()
            if not line:
                raise RuntimeError("shard exited before announcing "
                                   "(code %r)" % process.returncode)
            match = _LISTEN_RE.search(line.decode("utf-8", "replace"))
            if match:
                return match.group("host"), int(match.group("port"))

    async def _watch(self, handle: ShardHandle, process) -> None:
        """Observe one shard process generation until it exits.

        Drains the child's stdout (so it can never block on a full
        pipe), then decides: an orderly drain leaves the shard dead; an
        unexpected exit restarts it with a fresh generation, up to the
        restart budget.
        """
        while True:
            line = await process.stdout.readline()
            if not line:
                break
        code = await process.wait()
        if handle.process is not process:
            return          # a newer generation took over this handle
        handle.state = STATE_DEAD
        handle.drop_pool()
        if self._draining:
            return
        self.registry.counter("shard_crash_total",
                              shard=str(handle.index)).inc()
        if self.announce is not None:
            self.announce("shard %d exited %r unexpectedly"
                          % (handle.index, code))
        if handle.restarts >= self.max_restarts:
            if self.announce is not None:
                self.announce("shard %d restart budget exhausted (%d)"
                              % (handle.index, self.max_restarts))
            return
        handle.restarts += 1
        self.restarts_total += 1
        self.registry.counter("shard_restart_total",
                              shard=str(handle.index)).inc()
        await self._spawn(handle)

    def _on_watcher_done(self, task: "asyncio.Task") -> None:
        """Observe watcher outcomes: a failed respawn must be counted,
        never silently swallowed with the task object."""
        self._watchers.discard(task)
        if task.cancelled():
            return
        if task.exception() is not None:
            self.registry.counter("shard_watch_error_total").inc()

    async def drain(self, deadline_s: float) -> None:
        """SIGTERM every live shard and wait at most ``deadline_s``.

        Each shard runs its own graceful drain on SIGTERM; whatever is
        still alive past the deadline is killed, so router shutdown is
        always bounded.
        """
        self._draining = True
        waiters = []
        for handle in self.handles:
            if not handle.alive:
                handle.state = STATE_DEAD
                continue
            handle.state = STATE_DRAINING
            try:
                handle.process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                handle.state = STATE_DEAD
                continue
            waiters.append(asyncio.ensure_future(
                handle.process.wait()))
        if waiters:
            done, pending = await asyncio.wait(waiters,
                                               timeout=deadline_s)
            if pending:
                self.registry.counter("shard_drain_killed_total").inc(
                    len(pending))
                for handle in self.handles:
                    if handle.alive:
                        handle.process.kill()
                await asyncio.gather(*tuple(pending),
                                     return_exceptions=True)
        for handle in self.handles:
            handle.state = STATE_DEAD
        if self._watchers:
            await asyncio.gather(*tuple(self._watchers),
                                 return_exceptions=True)
