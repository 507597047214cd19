"""Fleet front door: asyncio proxy with consistent-hash affinity (DESIGN §17).

The router owns no model state.  It reads each client request, computes
an affinity key from the method/target/body (so identical ``/predict``
bodies always hash to the same replica and hit its warm LRU cache),
forwards the request to that replica over a pooled keep-alive
connection, and relays the response — stamped with ``X-Fleet-Replica``
so tests and drills can observe placement.

Both sides speak HTTP/1.1 through :mod:`repro.serve.http`; a client
request gets a replica's own caps and deadline (431/413/400) before any
replica sees it.

Failover: connection-refused / reset / timeout errors walk the ring's
successor list with exponential backoff.  Predictions are idempotent
reads, so replaying a request against the next replica preserves
exactly-once *responses* (each client request yields exactly one
response) even while a replica is being killed and restarted under it.
A client only ever sees 503 when every member of the ring failed.

Locally answered endpoints:

- ``GET  /fleet/status`` — supervisor snapshot (members, restarts, ...)
- ``GET  /healthz``      — 200 while the ring has members
- ``GET  /metrics``      — router counters + per-replica metrics
- ``POST /admin/reload`` — delegates to the supervisor's rolling reload

Membership is mutated by the supervisor thread through
:meth:`FleetRouter.set_member` / :meth:`drop_member`; the ring and pools
are lock-guarded because those calls race the event loop's lookups.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..serve.http import (MAX_BODY_BYTES, READ_TIMEOUT, BackgroundServer,
                          FramingError, Response, encode_request,
                          parse_json_object, read_response,
                          serve_connection)
from .heartbeat import http_json
from .ring import HashRing

__all__ = ["FleetRouter", "BackgroundRouter"]

#: Seconds allowed for one TCP connect to a replica.
CONNECT_TIMEOUT = 3.0
#: Seconds allowed for a replica to answer one forwarded request.
RESPONSE_TIMEOUT = 60.0
#: First failover backoff; doubles per additional attempt.
FAILOVER_BACKOFF = 0.02
#: Extra full ring passes after the first (a just-restarted replica may
#: need one more probe round before it accepts connections).
RING_PASSES = 3


class FleetRouter:
    """Consistent-hash HTTP proxy over the replica set."""

    def __init__(self, *, ring_seed: int = 0, vnodes: int = 64,
                 status_provider: Optional[Callable[[], dict]] = None,
                 reload_handler: Optional[Callable[[str], dict]] = None,
                 verbose: bool = False) -> None:
        self.ring = HashRing(vnodes=vnodes, seed=ring_seed)  # guarded-by: _lock
        self._addrs: Dict[str, Tuple[str, int]] = {}  # guarded-by: _lock
        self._pools: Dict[str, List[Tuple[asyncio.StreamReader,
                                          asyncio.StreamWriter]]] = {}
        self._lock = threading.Lock()
        self._status_provider = status_provider
        self._reload_handler = reload_handler
        self.verbose = verbose
        self._server: Optional[asyncio.base_events.Server] = None
        self._counters = {"requests": 0, "forwarded": 0, "failovers": 0,
                          "unroutable": 0}  # guarded-by: _lock
        # Sequence-numbered membership op log: the warm standby mirrors
        # the ring by replaying ops it has not seen (DESIGN §18).
        self._member_seq = 0  # guarded-by: _lock
        self._member_log: List[dict] = []  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Membership (called from the supervisor thread)
    # ------------------------------------------------------------------
    def set_member(self, name: str, host: str, port: int) -> None:
        with self._lock:
            self._addrs[name] = (host, port)
            self.ring.add(name)
            self._member_seq += 1
            self._member_log.append({"seq": self._member_seq, "op": "set",
                                     "name": name, "host": host,
                                     "port": int(port)})

    def drop_member(self, name: str) -> None:
        """Drain: stop routing *new* requests at ``name``.

        In-flight forwards already own their pooled connection and
        finish normally; the pool itself is emptied so nothing re-uses a
        socket to a replica that may be about to die.
        """
        with self._lock:
            self.ring.remove(name)
            stale = self._pools.pop(name, [])
            self._member_seq += 1
            self._member_log.append({"seq": self._member_seq, "op": "drop",
                                     "name": name})
        for _, writer in stale:
            writer.close()

    def members(self) -> Dict[str, Tuple[str, int]]:
        with self._lock:
            return {n: self._addrs[n] for n in self.ring.nodes}

    def membership_since(self, since: int) -> Tuple[int, List[dict]]:
        """Ops later than sequence ``since``, for standby mirroring."""
        with self._lock:
            return (self._member_seq,
                    [op for op in self._member_log if op["seq"] > since])

    def apply_membership(self, ops: List[dict]) -> None:
        """Replay a peer's op log into this (mirror) router."""
        for op in ops:
            if op.get("op") == "set":
                self.set_member(op["name"], op["host"], int(op["port"]))
            elif op.get("op") == "drop":
                self.drop_member(op["name"])

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            # A replica's body cap and read deadline, so the router
            # answers 431/413/400 up front exactly as a replica would.
            lambda reader, writer: serve_connection(
                reader, writer, self._handle,
                timeout=READ_TIMEOUT, max_body=MAX_BODY_BYTES),
            host, port, backlog=2048)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            for _, writer in pool:
                writer.close()

    async def _handle(self, method: str, target: str,
                      _headers: Dict[str, str],
                      body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        with self._lock:
            self._counters["requests"] += 1
        if self.verbose:
            print(f"fleet {method} {target}")
        path = target.split("?", 1)[0]
        local = await self._handle_local(method, path, body)
        if local is not None:
            payload, status = local
            return status, json.dumps(payload).encode(), {}
        forwarded = await self._forward(method, target, body)
        if forwarded is None:
            unroutable = {"error": "no fleet replica reachable",
                          "retry_after": 1}
            return 503, json.dumps(unroutable).encode(), {"Retry-After": "1"}
        replica, response = forwarded
        out_headers = {"X-Fleet-Replica": replica}
        if "retry-after" in response.headers:
            out_headers["Retry-After"] = response.headers["retry-after"]
        return response.status, response.body, out_headers

    # ------------------------------------------------------------------
    # Local endpoints
    # ------------------------------------------------------------------
    async def _handle_local(self, method: str, path: str,
                            body: bytes) -> Optional[Tuple[dict, int]]:
        if path == "/fleet/status" and method == "GET":
            status = (self._status_provider()
                      if self._status_provider else {})
            with self._lock:
                status = dict(status)
                status["router"] = dict(self._counters)
                status["ring"] = list(self.ring.nodes)
            return status, 200
        if path == "/healthz" and method == "GET":
            with self._lock:
                members = len(self.ring)
            return {"status": "ok" if members else "unroutable",
                    "members": members}, (200 if members else 503)
        if path == "/metrics" and method == "GET":
            return await self._aggregate_metrics(), 200
        if path == "/admin/reload" and method == "POST":
            if self._reload_handler is None:
                return {"error": "fleet has no reload handler"}, 404
            try:
                payload = parse_json_object(body)
            except ValueError as exc:
                return {"error": str(exc)}, 400
            ckpt = payload.get("path")
            if not isinstance(ckpt, str) or not ckpt:
                return {"error": "body must contain a checkpoint path"}, 400
            loop = asyncio.get_running_loop()
            # Rolling reload shadow-validates + swaps replica by replica:
            # seconds of blocking HTTP; keep it off the event loop.
            report = await loop.run_in_executor(
                None, self._reload_handler, ckpt)
            return report, (200 if report.get("reloaded") else 409)
        return None

    async def _aggregate_metrics(self) -> dict:
        members = self.members()
        loop = asyncio.get_running_loop()

        def _fetch(addr: Tuple[str, int]) -> dict:
            try:
                status, payload = http_json(addr[0], addr[1], "GET",
                                            "/metrics", timeout=5.0)
            except OSError as exc:
                return {"error": str(exc)}
            return payload if status == 200 else {"error": f"HTTP {status}"}

        per_replica = {}
        for name, addr in members.items():
            per_replica[name] = await loop.run_in_executor(None, _fetch, addr)
        with self._lock:
            counters = dict(self._counters)
        return {"fleet": counters, "replicas": per_replica}

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _route(self, method: str, target: str, body: bytes) -> List[str]:
        key = f"{method}|{target}|{body.decode('latin-1')}"
        with self._lock:
            if not len(self.ring):
                return []
            return self.ring.successors(key)

    async def _forward(self, method: str, target: str,
                       body: bytes) -> Optional[Tuple[str, Response]]:
        """Try the affinity owner, then ring successors, with backoff.

        Returns ``(replica, response)``, or ``None`` when every attempt
        failed at the connection level.  Membership is re-read between
        passes so a replica the supervisor restarts mid-request becomes
        routable again.
        """
        attempt = 0
        for _pass in range(1 + RING_PASSES):
            for name in self._route(method, target, body):
                with self._lock:
                    addr = self._addrs.get(name)
                    in_ring = name in self.ring
                if addr is None or not in_ring:
                    continue
                if attempt > 0:
                    with self._lock:
                        self._counters["failovers"] += 1
                    await asyncio.sleep(
                        min(1.0, FAILOVER_BACKOFF * (2 ** min(attempt, 6))))
                attempt += 1
                try:
                    response = await self._forward_once(
                        name, addr, method, target, body)
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError, FramingError):
                    continue
                with self._lock:
                    self._counters["forwarded"] += 1
                return name, response
        with self._lock:
            self._counters["unroutable"] += 1
        return None

    async def _forward_once(self, name: str, addr: Tuple[str, int],
                            method: str, target: str,
                            body: bytes) -> Response:
        conn = self._checkout(name)
        if conn is None:
            conn = await asyncio.wait_for(
                asyncio.open_connection(addr[0], addr[1]), CONNECT_TIMEOUT)
        reader, writer = conn
        try:
            writer.write(encode_request(
                method, target, body,
                {"Host": f"{addr[0]}:{addr[1]}",
                 "Content-Type": "application/json"}))
            await asyncio.wait_for(writer.drain(), RESPONSE_TIMEOUT)
            response = await asyncio.wait_for(read_response(reader),
                                              RESPONSE_TIMEOUT)
        except BaseException:
            writer.close()
            raise
        self._checkin(name, reader, writer)
        return response

    def _checkout(self, name: str):
        while True:
            with self._lock:
                pool = self._pools.get(name)
                if not pool:
                    return None
                reader, writer = pool.pop()
            if not reader.at_eof():
                return reader, writer
            # The replica closed it (idle deadline); using it would fail
            # over to a ring successor and lose affinity.
            writer.close()

    def _checkin(self, name: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        with self._lock:
            if name in self.ring:
                self._pools.setdefault(name, []).append((reader, writer))
                return
        writer.close()


class BackgroundRouter(BackgroundServer):
    """The router on its own thread + event loop."""

    def __init__(self, router: FleetRouter, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(router, host, port, name="repro-fleet-router")
        self.router = router
