"""Boot, probe and tear down one ``repro serve`` deployment.

A deployment is a separately spawned process tree: ``repro serve`` alone
(``shards=0``) or the plan-aware router with ``shards`` supervised
workers.  The benchmark process only ever talks to it over HTTP.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_LISTEN_RE = re.compile(
    r"repro-(?:serve|router) listening on (?P<host>[0-9.]+):(?P<port>\d+)")

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Child pre-exec hook: SIGTERM the server if the benchmark dies."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def http_request(host: str, port: int, method: str, path: str,
                 body: Optional[bytes] = None,
                 timeout: float = 60.0) -> Tuple[int, bytes]:
    """One ``Connection: close`` exchange; returns ``(status, body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; ppid is the 2nd field after it.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child in children.get(parent, ()):
            found.append(child)
            frontier.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        text = Path("/proc/%d/status" % pid).read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


class Deployment:
    """One ``repro serve`` process tree on an ephemeral port."""

    def __init__(self, root: Path, env: Dict[str, str],
                 shards: int = 0) -> None:
        self.root = root
        self.env = env
        self.shards = shards
        self.host = ""
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self.output: List[str] = []
        self._announced = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def boot(self) -> float:
        """Spawn and wait until ``/healthz`` is ``ok`` with every shard
        up; returns the seconds that took."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host",
             "127.0.0.1", "--port", "0", "--shards", str(self.shards)],
            cwd=str(self.root), env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            preexec_fn=_die_with_parent)
        self._reader = threading.Thread(target=self._read_output,
                                        daemon=True)
        self._reader.start()
        deadline = started + BOOT_TIMEOUT_S
        while not self._announced.wait(0.002):
            if self.process.poll() is not None \
                    or time.perf_counter() > deadline:
                raise RuntimeError("server did not announce a port:\n%s"
                                   % "".join(self.output[-20:]))
        while True:
            try:
                status, body = self.get("/healthz", timeout=5.0)
                if status == 200 and self._healthy(body.decode()):
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.002)

    def _healthy(self, text: str) -> bool:
        lines = text.strip().splitlines()
        if not lines or lines[0] != "ok":
            return False
        if self.shards:
            up = [line for line in lines[1:] if line.endswith(": up")]
            return len(up) == self.shards
        return True

    def _read_output(self) -> None:
        stdout = self.process.stdout if self.process else None
        for line in stdout or ():
            self.output.append(line)
            match = _LISTEN_RE.search(line)
            if match and not self._announced.is_set():
                self.host = match.group("host")
                self.port = int(match.group("port"))
                self._announced.set()

    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
        return http_request(self.host, self.port, "GET", path,
                            timeout=timeout)

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the server's process tree."""
        if self.process is None:
            return 0.0
        pids = [self.process.pid] + descendants(self.process.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill whatever outlives it."""
        if self.process is None:
            return
        tree = descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            # A clean drain reaps the shard workers; anything else can
            # orphan them.
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in tree:
                _reap_wait(pid)
        if self._reader is not None:
            self._reader.join(10.0)
        self.process = None


def _reap_wait(pid: int, timeout: float = 10.0) -> None:
    """Wait until a non-child pid has left ``/proc`` (or is a zombie)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            state = Path("/proc/%d/stat" % pid).read_text()
        except OSError:
            return
        if state[state.rindex(")") + 2] == "Z":
            return
        time.sleep(0.01)
