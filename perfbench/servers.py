"""Server subprocesses started with the repository's own CLIs, and what
can be read about them from outside: ``/metrics``, ``/fleet/status`` and
``/proc/<pid>``."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")
BOOT_TIMEOUT = 60.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One server subprocess; its first stdout line carries the address."""

    def __init__(self, argv: Sequence[str], cwd: Path) -> None:
        self.argv = list(argv)
        self.proc = subprocess.Popen(
            [sys.executable, *self.argv], cwd=str(cwd), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()
        if not self._ready.wait(BOOT_TIMEOUT) or self.port is None:
            self.stop()
            raise RuntimeError("server did not report its address:\n"
                               + "".join(self.lines[-20:]))

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = _ADDRESS.search(line)
            if match and self.port is None:
                self.host, self.port = match.group(1), int(match.group(2))
                self._ready.set()
        self._ready.set()

    def get_json(self, path: str) -> dict:
        return get_json(self.host, self.port, path)

    def pids(self) -> List[int]:
        """The server's processes: itself plus any fleet replicas."""
        pids = [self.proc.pid]
        if "repro.fleet" in self.argv:
            status = self.get_json("/fleet/status")
            pids += [r["pid"] for r in status["replicas"].values()
                     if r.get("pid")]
        return pids

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 20.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        self._pump.join(timeout=timeout)


def get_json(host: str, port: int, path: str, timeout: float = 10.0) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path} -> HTTP {response.status}")
    return payload


def post_json(host: str, port: int, path: str, payload: dict,
              timeout: float = 10.0) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"POST {path} -> HTTP {response.status}: {body}")
    return body


def cpu_seconds(pid: int) -> float:
    """CPU time of a process's threads so far, from
    ``/proc/<pid>/task/*/schedstat`` in nanoseconds.  (``/proc/<pid>/stat``
    counts 10-ms ticks, which over a 0.125-s reference chunk of a few
    requests was an error of several percent per process.)"""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as src:
                total += int(src.read().split()[0])
        except FileNotFoundError:  # the thread has ended
            continue
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as src:
        for line in src:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
