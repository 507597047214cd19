"""Asyncio load-generation client shared by the ``fleet`` drill and bench.

One coroutine per simulated client, each holding a keep-alive connection
and replaying a scripted sequence of ``POST /predict`` bodies.  On a
connection-level failure (refused, reset, timeout) the client re-dials
and **resends the same request** — predictions are idempotent reads, so
a retry cannot double-apply anything, and counting one response per
scripted request is exactly the exactly-once accounting the fleet drill
asserts.

Lives under ``repro.fleet`` (not ``benchmarks/``) so the resilience
drill can import it with only ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..serve.http import FramingError, encode_request, read_response

__all__ = ["LoadResult", "run_load", "predict_scripts"]

#: Re-dial attempts per request before recording a client-side failure.
#: Sized so the cumulative backoff (~3.1s) comfortably covers a router
#: standby takeover window (lease TTL + detection + rebind, ~1.5s).
CLIENT_RETRIES = 6
#: First retry backoff; doubles per attempt.
RETRY_BACKOFF = 0.05
#: Per-request wall-clock bound (connect + write + read).
REQUEST_TIMEOUT = 30.0


@dataclass
class LoadResult:
    """Aggregate outcome of one :func:`run_load` run."""

    statuses: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: request-index -> decoded JSON body, only for clients asked to keep them
    bodies: Dict[Tuple[int, int], dict] = field(default_factory=dict)
    #: requests that never got any response within their retry budget
    failures: int = 0

    @property
    def total(self) -> int:
        return len(self.statuses) + self.failures

    def count(self, status: int) -> int:
        return sum(1 for s in self.statuses if s == status)

    def server_errors(self) -> int:
        """Responses in the 5xx range — the fleet drill requires zero."""
        return sum(1 for s in self.statuses if 500 <= s < 600)


def predict_scripts(num_clients: int, per_client: int, num_papers: int,
                    seed: int = 7, ids_per_request: int = 4) -> List[List[bytes]]:
    """Deterministic per-client request bodies for ``POST /predict``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    scripts = []
    for _ in range(num_clients):
        script = []
        for _ in range(per_client):
            ids = rng.integers(0, num_papers, size=ids_per_request)
            script.append(json.dumps(
                {"paper_ids": [int(i) for i in ids]}).encode())
        scripts.append(script)
    return scripts


async def _run_client(client_idx: int, host: str, port: int,
                      script: Sequence[bytes], result: LoadResult,
                      keep_bodies: bool, lock: asyncio.Lock) -> None:
    reader = writer = None

    async def _close() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), 5.0)
            except (OSError, asyncio.TimeoutError):  # noqa: R005 — peer already gone
                pass
        reader = writer = None

    for req_idx, body in enumerate(script):
        request = encode_request("POST", "/predict", body,
                                 {"Host": "fleet",
                                  "Content-Type": "application/json"})
        answered = False
        for attempt in range(CLIENT_RETRIES):
            t0 = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port), REQUEST_TIMEOUT)
                writer.write(request)
                await asyncio.wait_for(writer.drain(), REQUEST_TIMEOUT)
                response = await asyncio.wait_for(
                    read_response(reader), REQUEST_TIMEOUT)
            except (OSError, asyncio.TimeoutError, FramingError,
                    asyncio.IncompleteReadError):
                await _close()
                await asyncio.sleep(RETRY_BACKOFF * (2 ** attempt))
                continue
            elapsed = time.perf_counter() - t0
            async with lock:
                result.statuses.append(response.status)
                result.latencies.append(elapsed)
                if keep_bodies:
                    try:
                        result.bodies[(client_idx, req_idx)] = json.loads(
                            response.body)
                    except json.JSONDecodeError:
                        result.bodies[(client_idx, req_idx)] = {}
            answered = True
            break
        if not answered:
            async with lock:
                result.failures += 1
    await _close()


def run_load(host: str, port: int, scripts: Sequence[Sequence[bytes]], *,
             keep_bodies: bool = False) -> LoadResult:
    """Replay ``scripts`` (one list of bodies per client) concurrently."""

    async def _main() -> LoadResult:
        result = LoadResult()
        lock = asyncio.Lock()
        await asyncio.gather(*(
            _run_client(i, host, port, script, result, keep_bodies, lock)
            for i, script in enumerate(scripts)))
        return result

    return asyncio.run(_main())
