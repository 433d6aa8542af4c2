"""Closed-loop load: each connection sends its next job only after the
previous answer arrived, so a slower server receives less load."""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

from deploy import http_request

#: Client connections: one per CPU of the 2-vCPU reference host.
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Exchange:
    """One job sent and what came back."""

    index: int
    payload: Dict[str, Any]
    status: int
    body: bytes
    latency_ms: float
    #: Set by the oracle check.
    verified: bool = False


@dataclass
class LoadResult:
    exchanges: List[Exchange]
    wall_s: float
    #: ``GET /healthz`` round trips (ms), when probing was requested.
    rtt_ms: List[float]


def closed_loop(host: str, port: int, stream: Iterator[Dict[str, Any]],
                seconds: float, probe_every: int = 0) -> LoadResult:
    """Drive ``stream`` for ``seconds`` over :data:`CONNECTIONS`
    connections; with ``probe_every`` > 0 the first connection also
    times a ``/healthz`` round trip after every that many jobs."""
    numbered = enumerate(stream)
    lock = threading.Lock()
    exchanges: List[Exchange] = []
    rtt_ms: List[float] = []
    finished: List[float] = []
    started = time.perf_counter()
    stop_at = started + seconds

    def connection(slot: int) -> None:
        for sent in itertools.count(1):
            if time.perf_counter() >= stop_at:
                break
            with lock:
                index, payload = next(numbered)
            body = json.dumps(payload).encode("utf-8")
            begin = time.perf_counter()
            try:
                status, answer = http_request(host, port, "POST",
                                              "/v1/job", body,
                                              REQUEST_TIMEOUT_S)
            except (OSError, http.client.HTTPException):
                status, answer = 0, b""
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
            exchanges.append(Exchange(index, payload, status, answer,
                                      elapsed_ms))
            if probe_every and slot == 0 and sent % probe_every == 0:
                begin = time.perf_counter()
                try:
                    http_request(host, port, "GET", "/healthz",
                                 timeout=REQUEST_TIMEOUT_S)
                    rtt_ms.append((time.perf_counter() - begin) * 1000.0)
                except (OSError, http.client.HTTPException):
                    pass
        finished.append(time.perf_counter())

    threads = [threading.Thread(target=connection, args=(slot,))
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    exchanges.sort(key=lambda exchange: exchange.index)
    return LoadResult(exchanges, max(finished) - started, rtt_ms)
