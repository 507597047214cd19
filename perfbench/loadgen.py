"""Open-loop HTTP/1.1 load generator.

One single-threaded asyncio process sends requests over at most a few
keep-alive connections.  Arrivals follow a Poisson schedule fixed before
the phase starts; each request is written when it is due, whether or not
earlier ones have been answered (HTTP/1.1 pipelining), so a slow server
builds a queue instead of slowing the generator down.  Latency runs from
the moment a request was *due*, so a stall charges its wait to every
request scheduled behind it, and the generator's own lateness is recorded
so a starved generator shows instead of passing as a slow server.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import selectors
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

#: Seconds after the last due time to wait for stragglers; a request
#: still unanswered then counts as timed out.
RESPONSE_TIMEOUT = 2.0


def poisson_schedule(rate: float, count: int,
                     rng: random.Random) -> List[float]:
    """Due offsets (seconds from the phase start) of the first ``count``
    arrivals of a Poisson process.  A fixed count, not a fixed duration,
    keeps the sample size and so the supported percentile the same on
    every run."""
    due, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        due.append(t)
    return due


def event_loop() -> asyncio.AbstractEventLoop:
    """The generator's event loop.  The default epoll selector rounds each
    timeout up to a whole millisecond, which sent requests ~0.7 ms late at
    the median on the reference host and added that to every latency;
    ``select()`` takes microseconds (~0.17 ms late).  The generator holds
    only a few sockets, so ``select()``'s cost per socket does not matter."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def predict_request(paper_ids: Sequence[int]) -> bytes:
    body = json.dumps({"paper_ids": [int(x) for x in paper_ids]}).encode()
    head = ("POST /predict HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


@dataclass
class Outcome:
    index: int
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    status: Optional[int] = None  # None: reset or timed out
    timed_out: bool = False
    body: bytes = b""
    replica: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency(self, cap: float) -> float:
        """Due-to-response seconds; a failed request counts as ``cap``."""
        if not self.ok or self.done is None:
            return cap
        return self.done - self.due


@dataclass
class PhaseResult:
    rate: float
    outcomes: List[Outcome]
    backlog: int  # requests unanswered when the last one was sent
    cpu_s: float  # the generator's own CPU over the phase
    wall_s: float

    @property
    def sent(self) -> int:
        return sum(o.sent is not None for o in self.outcomes)

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)

    @property
    def shed(self) -> int:
        return sum(o.status == 503 for o in self.outcomes)

    @property
    def timed_out(self) -> int:
        return sum(o.timed_out for o in self.outcomes)

    @property
    def failed(self) -> int:
        """Everything not answered 200: shed, errors, resets, timeouts."""
        return len(self.outcomes) - self.ok

    def latencies(self, cap: float = RESPONSE_TIMEOUT) -> List[float]:
        return [o.latency(cap) for o in self.outcomes]

    def lateness(self) -> List[float]:
        return [o.sent - o.due for o in self.outcomes if o.sent is not None]

    def accounting(self) -> dict:
        lat = sorted(self.latencies())
        return {"rate": round(self.rate, 3), "sent": self.sent,
                "ok": self.ok, "shed": self.shed,
                "failed": self.failed - self.shed - self.timed_out,
                "timed_out": self.timed_out, "backlog": self.backlog,
                "p50_ms": round(lat[len(lat) // 2] * 1e3, 3) if lat else None,
                "p95_ms": (round(lat[math.ceil(0.95 * len(lat)) - 1] * 1e3, 3)
                           if lat else None),
                "max_ms": round(lat[-1] * 1e3, 3) if lat else None,
                "late_max_ms": round(max(self.lateness(), default=0.0) * 1e3,
                                     3)}


class _Conn:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Deque[Outcome] = deque()
        self.alive = True
        self.task: Optional[asyncio.Task] = None


class OpenLoopClient:
    """Pipelined keep-alive connections driven by an arrival schedule."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self._conns: List[_Conn] = []

    async def _connect(self) -> _Conn:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        conn = _Conn(reader, writer)
        conn.task = asyncio.get_running_loop().create_task(self._read(conn))
        return conn

    async def _read(self, conn: _Conn) -> None:
        try:
            while True:
                # One read for the whole head keeps the generator's own
                # time per response, which every latency includes, small.
                head = await conn.reader.readuntil(b"\r\n\r\n")
                status_line, *lines = head.decode("latin-1").split("\r\n")
                status = int(status_line.split(None, 2)[1])
                length, replica = 0, None
                for line in lines:
                    name, _, value = line.partition(":")
                    name = name.strip().lower()
                    if name == "content-length":
                        length = int(value)
                    elif name == "x-fleet-replica":
                        replica = value.strip()
                body = await conn.reader.readexactly(length) if length else b""
                done = time.perf_counter()
                outcome = conn.pending.popleft()
                outcome.done, outcome.status = done, status
                outcome.body, outcome.replica = body, replica
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError):
            conn.alive = False
            self._fail(conn)

    @staticmethod
    def _fail(conn: _Conn) -> None:
        now = time.perf_counter()
        while conn.pending:
            outcome = conn.pending.popleft()
            outcome.done, outcome.status = now, None

    async def _close(self, conn: _Conn) -> None:
        conn.alive = False
        if conn.task is not None:
            conn.task.cancel()
            try:
                await conn.task
            except asyncio.CancelledError:  # noqa: R005 — we cancelled it
                pass
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except OSError:  # noqa: R005 — the peer is already gone
            pass

    async def _pick(self) -> Optional[_Conn]:
        """The live connection with the fewest requests in flight."""
        for conn in [c for c in self._conns if not c.alive]:
            self._conns.remove(conn)
            await self._close(conn)
        while len(self._conns) < self.connections:
            try:
                self._conns.append(await self._connect())
            except OSError:
                break
        if not self._conns:
            return None
        return min(self._conns, key=lambda c: len(c.pending))

    async def run_phase(self, requests: Sequence[bytes],
                        due: Sequence[float], rate: float) -> PhaseResult:
        """Send ``requests[i]`` at ``start + due[i]``; wait for answers."""
        cpu0 = time.process_time()
        await self._pick()  # connect before the clock starts
        start = time.perf_counter() + 0.005
        outcomes = [Outcome(i, start + d) for i, d in enumerate(due)]
        for outcome, payload in zip(outcomes, requests):
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = await self._pick()
            if conn is None:
                outcome.sent = outcome.done = time.perf_counter()
                continue
            conn.pending.append(outcome)
            outcome.sent = time.perf_counter()
            try:
                conn.writer.write(payload)
                await conn.writer.drain()
            except OSError:
                conn.alive = False
                self._fail(conn)
        backlog = sum(len(c.pending) for c in self._conns)
        deadline = start + (due[-1] if due else 0.0) + RESPONSE_TIMEOUT
        while (any(c.pending for c in self._conns)
               and time.perf_counter() < deadline):
            await asyncio.sleep(0.002)
        for conn in list(self._conns):
            if conn.pending:
                # The pipeline cannot be resynchronised: time the rest
                # out and start the next phase on a fresh connection.
                for outcome in conn.pending:
                    outcome.timed_out = True
                conn.pending.clear()
                self._conns.remove(conn)
                await self._close(conn)
        return PhaseResult(rate=rate, outcomes=outcomes,
                           backlog=backlog,
                           cpu_s=time.process_time() - cpu0,
                           wall_s=time.perf_counter() - start)

    async def close(self) -> None:
        for conn in self._conns:
            await self._close(conn)
        self._conns = []


def passes(phase: PhaseResult, limit_s: float) -> bool:
    """A rate step passes when its p95 is within ``limit_s`` (failures
    count as exceeding it), nothing failed, and no more requests were left
    in flight than the limit allows at that rate."""
    if phase.failed or not phase.outcomes:
        return False
    over = sum(lat > limit_s for lat in phase.latencies())
    return (over <= 0.05 * len(phase.outcomes)
            and phase.backlog <= phase.rate * limit_s + 2)


#: The rate ladder's grid is ``start * COARSE_STEP**j * FINE_STEP**k``
#: with ``k < 4`` (``FINE_STEP**3 < COARSE_STEP <= FINE_STEP**4``).
COARSE_STEP = 1.2
FINE_STEP = 1.05
MAX_COARSE_STEPS = 12


def ladder(step: Callable[[float], bool], start: float,
           floor: float) -> Optional[float]:
    """The highest grid rate that ``step(rate)`` passes.

    From ``start`` the ladder climbs in coarse steps until one fails, or,
    if ``start`` fails, descends in coarse steps until one passes; then it
    climbs in fine steps from that last pass.  It returns only a rate that
    ``step`` passed, and ``None`` when nothing at or above ``floor`` does.
    """
    rate = start
    if step(rate):
        for _ in range(MAX_COARSE_STEPS):
            if not step(rate * COARSE_STEP):
                break
            rate *= COARSE_STEP
    else:
        while True:
            rate /= COARSE_STEP
            if rate < floor:
                return None
            if step(rate):
                break
    for _ in range(3):
        if not step(rate * FINE_STEP):
            break
        rate *= FINE_STEP
    return rate


def next_start(passes: Sequence[Optional[float]], start: float,
               floor: float) -> float:
    """Where the next ladder pass starts: the highest coarse grid rate
    ``start * COARSE_STEP**j`` at or below the median of the earlier passes
    that found a rate (``start`` when none did), and not below ``floor``.
    A pass then skips the steps every earlier pass cleared, and what it
    reports stays on the ladder's grid."""
    found = [rate for rate in passes if rate]
    if not found:
        return start
    j = math.floor(math.log(statistics.median(found) / start)
                   / math.log(COARSE_STEP) + 1e-9)
    return max(floor, start * COARSE_STEP ** j)
