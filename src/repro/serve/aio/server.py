"""The prediction server behind ``repro-serve`` (DESIGN §11.4, §16).

Endpoints: ``GET /healthz``, ``GET /metrics``, ``POST /predict``
(``{"paper_ids": [..]}`` or ``{"title": ".."}``), ``GET
/predict?ids=1,2``, ``POST /rank`` and ``POST /admin/reload``.  A full
admission queue sheds with 503 + ``Retry-After``; the two ``GET``
probes bypass admission, so a saturated server still answers them.
One thread, one event loop, and every concurrent ``/predict``/``/rank``
funneled through the :class:`~repro.serve.aio.batcher.DynamicBatcher`
so overlapping requests share a single tape-free engine forward.

stdlib-only: ``asyncio.start_server`` plus the shared HTTP/1.1 codec
:mod:`repro.serve.http` (keep-alive, head and body caps, one deadline
per head); this module only supplies the request handler.
Predictions flow through :class:`~repro.serve.degrade.ServingRuntime`,
so breaker trips fall back model → cache → prior and still answer 200.

Entry points: :func:`serve_forever_aio` (blocking, used by
``repro-serve``) and :class:`BackgroundAsyncServer` (own thread + event
loop, used by tests, drills, the serving example and the
``benchmarks/perf loadtest`` harness).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..degrade import ReloadRejected, ServingRuntime
from ..http import (MAX_BODY_BYTES, READ_TIMEOUT, BackgroundServer,
                    parse_json_object, serve_connection)
from ..metrics import ServiceMetrics
from .admission import AdmissionFull
from .batcher import BatchSettings, DynamicBatcher

#: ``GET`` endpoints that bypass admission: operability probes must keep
#: answering while the server is saturated.
CONTROL_ENDPOINTS = frozenset({"/healthz", "/metrics"})


class ServiceError(Exception):
    """An HTTP-visible request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServiceLimits:
    """Operational guard-rails for the prediction server."""

    #: Reject request bodies whose Content-Length exceeds this (bytes).
    max_body_bytes: int = MAX_BODY_BYTES
    #: Seconds the client should wait before retrying after a shed.
    retry_after_seconds: int = 1
    #: Read deadline (seconds) per head and body; guards against
    #: stalled clients.
    read_timeout: float = READ_TIMEOUT


class AsyncPredictionServer:
    """Routes HTTP requests into the batcher; JSON in, JSON out."""

    def __init__(self, engine, runtime: Optional[ServingRuntime] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 limits: Optional[ServiceLimits] = None,
                 settings: Optional[BatchSettings] = None,
                 verbose: bool = False) -> None:
        self.runtime = runtime or ServingRuntime(engine)
        self.metrics = metrics or ServiceMetrics()
        self.limits = limits or ServiceLimits()
        self.batcher = DynamicBatcher(self.runtime, settings)
        self.verbose = verbose
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def engine(self):
        """The live engine, read through the runtime (hot-reload aware)."""
        return self.runtime.engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    backlog: int = 2048) -> Tuple[str, int]:
        self.batcher.start()
        # Deep listen backlog: a 1k-client load test opens all its
        # connections at once; asyncio's default backlog of 100 would
        # reset the overflow before the loop ever sees it.
        self._server = await asyncio.start_server(
            lambda reader, writer: serve_connection(
                reader, writer, self._handle,
                timeout=self.limits.read_timeout,
                max_body=self.limits.max_body_bytes,
                on_disconnect=lambda: self.metrics.record_disconnect(
                    "<connection>"),
                on_framing_error=lambda exc: self.metrics.record_rejected(
                    urlparse(exc.target).path or "<connection>")),
            host, port, backlog=backlog)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()

    # ------------------------------------------------------------------
    # Routing (framing lives in repro.serve.http)
    # ------------------------------------------------------------------
    async def _handle(self, method: str, target: str, _headers: Dict[str, str],
                      body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        if self.verbose:
            print(f"aio {method} {target}")
        parsed = urlparse(target)
        endpoint = parsed.path
        loop = asyncio.get_running_loop()
        start = loop.time()
        error = False
        extra: Dict[str, str] = {}
        try:
            if endpoint in CONTROL_ENDPOINTS and method == "GET":
                # Probes bypass admission entirely: a saturated server
                # still answers them.
                payload, status = self._handle_control(endpoint)
            elif endpoint == "/predict" and method == "GET":
                payload, status = await self._handle_predict_query(
                    parsed.query)
            elif endpoint == "/predict" and method == "POST":
                payload, status = await self._handle_predict_post(body)
            elif endpoint == "/rank" and method == "POST":
                payload, status = await self._handle_rank(body)
            elif endpoint == "/admin/reload" and method == "POST":
                payload, status = await self._handle_reload(body)
            else:
                raise ServiceError(404, f"no such endpoint: {endpoint}")
        except AdmissionFull as exc:
            self.metrics.record_shed(endpoint)
            payload = {"error": str(exc)}
            status, error = 503, True
            extra["Retry-After"] = str(self.limits.retry_after_seconds)
        except ServiceError as exc:
            payload, status, error = {"error": exc.message}, exc.status, True
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            payload, status, error = {"error": str(exc)}, 400, True
        except Exception as exc:  # noqa: BLE001 — surface as a 500
            payload, status, error = {"error": str(exc)}, 500, True
        self.metrics.observe(endpoint, loop.time() - start, error=error)
        return status, json.dumps(payload).encode(), extra

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_control(self, endpoint: str) -> Tuple[dict, int]:
        if endpoint == "/healthz":
            queue = self.batcher.queue
            breaker_state = self.runtime.breaker.state
            status = ("degraded"
                      if queue.saturated or breaker_state != "closed"
                      else "ok")
            return {
                "status": status,
                "queue_depth": queue.depth,
                "queue_capacity": queue.capacity,
                "breaker": breaker_state,
                **self.engine.info(),
            }, 200
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.engine.cache.stats()
        snapshot["batching"] = self.batcher.snapshot()
        snapshot.update(self.runtime.snapshot())
        return snapshot, 200

    async def _handle_predict_query(self, query: str) -> Tuple[dict, int]:
        params = parse_qs(query)
        raw = ",".join(params.get("ids", []))
        if not raw:
            raise ServiceError(400, "missing ids query parameter")
        try:
            ids = [int(x) for x in raw.split(",") if x != ""]
        except ValueError as exc:
            raise ServiceError(400, f"bad ids: {exc}") from exc
        return await self.batcher.submit_predict(ids), 200

    async def _handle_predict_post(self, body: bytes) -> Tuple[dict, int]:
        payload = parse_json_object(body)
        if "title" in payload:
            if not isinstance(payload["title"], str) or not payload["title"]:
                raise ServiceError(400, "title must be a non-empty string")
            # Cold-start scoring runs a bespoke 1-paper forward that can
            # never share a batch; dispatch it straight to the executor.
            loop = asyncio.get_running_loop()
            try:
                score = await loop.run_in_executor(
                    self.batcher._executor, self.engine.score_title,
                    payload["title"])
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from exc
            return {"prediction": score, "cold_start": True}, 200
        if "paper_ids" in payload:
            ids = payload["paper_ids"]
            if not isinstance(ids, list):
                raise ServiceError(400, "paper_ids must be a list of ints")
            return await self.batcher.submit_predict(ids), 200
        raise ServiceError(400, "body must contain paper_ids or title")

    async def _handle_rank(self, body: bytes) -> Tuple[dict, int]:
        payload = parse_json_object(body)
        node_type = payload.get("node_type", "paper")
        k = payload.get("k", 10)
        cluster = payload.get("cluster")
        ranking = await self.batcher.submit_rank(node_type, int(k), cluster)
        return {"node_type": node_type, "ranking": ranking}, 200

    async def _handle_reload(self, body: bytes) -> Tuple[dict, int]:
        payload = parse_json_object(body)
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError(400, "body must contain a checkpoint path")
        loop = asyncio.get_running_loop()
        try:
            # The shadow-validation load is seconds of blocking I/O +
            # compute; it shares the batcher's worker thread so the
            # event loop never stalls (and the swap happens between
            # batches, never inside one).
            result = await loop.run_in_executor(
                self.batcher._executor, self.runtime.reload, path)
        except ReloadRejected as exc:
            out: Dict[str, Any] = {"reloaded": False, "error": exc.reason}
            if exc.report is not None:
                out["report"] = exc.report
            return out, 409
        return result, 200


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def serve_forever_aio(engine, host: str = "127.0.0.1", port: int = 8099,
                      verbose: bool = True,
                      limits: Optional[ServiceLimits] = None,
                      settings: Optional[BatchSettings] = None) -> None:
    """Blocking entry point used by ``repro-serve``."""

    async def _main() -> None:
        app = AsyncPredictionServer(engine, limits=limits,
                                    settings=settings, verbose=verbose)
        bound_host, bound_port = await app.start(host, port)
        cfg = app.batcher.settings
        print(f"repro-serve (asyncio) listening on "
              f"http://{bound_host}:{bound_port} "
              f"({engine.num_papers} papers frozen, batching "
              f"max_batch_size={cfg.max_batch_size} "
              f"max_wait_ms={cfg.max_wait_ms})")
        try:
            await asyncio.Event().wait()  # run until cancelled (^C)
        finally:
            await app.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # noqa: R005 — ^C is the documented shutdown
        pass


class BackgroundAsyncServer(BackgroundServer):
    """:class:`AsyncPredictionServer` on its own thread + event loop."""

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0,
                 runtime: Optional[ServingRuntime] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 limits: Optional[ServiceLimits] = None,
                 settings: Optional[BatchSettings] = None) -> None:
        super().__init__(AsyncPredictionServer(
            engine, runtime=runtime, metrics=metrics, limits=limits,
            settings=settings), host, port)
