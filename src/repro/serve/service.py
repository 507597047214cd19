"""Stdlib-only JSON HTTP service around :class:`InferenceEngine`.

Endpoints
---------
``GET  /healthz``          liveness + snapshot description (``ok``/``degraded``)
``GET  /metrics``          request counts, latency p50/p99, cache hit rate,
                           shed/disconnect/deadline counters
``POST /predict``          ``{"paper_ids": [..]}`` or ``{"title": "..."}``
``GET  /predict?ids=1,2``  curl-friendly bulk prediction
``POST /rank``             ``{"node_type": "author", "k": 10, "cluster": 3}``

No third-party web framework: ``http.server.ThreadingHTTPServer`` plus
hand-rolled JSON marshalling keeps the dependency surface at zero, which
is the whole point of a reproduction repo's serving layer.

Overload & failure semantics (DESIGN §12)
-----------------------------------------
- **Bounded concurrency**: at most ``ServiceLimits.max_inflight`` work
  requests execute at once; excess requests are shed immediately with
  ``503`` + a ``Retry-After`` header instead of queueing unboundedly.
  ``/healthz`` and ``/metrics`` bypass the limiter (a saturated server
  must still answer its health checks) and report ``degraded`` while the
  limiter is saturated.
- **Body caps**: a ``Content-Length`` beyond ``max_body_bytes`` is
  rejected with ``413`` before a single payload byte is read.
- **Slow/truncated clients**: socket reads carry a ``read_timeout``; a
  client that promises more body bytes than it sends gets ``400`` and
  the connection is closed rather than a handler thread parked forever.
- **Deadlines**: requests whose handler ran past ``deadline_seconds``
  return ``504`` (cooperative/post-hoc — stdlib threads cannot be
  preempted, but the client gets an honest signal and the event is
  counted).
- **Disconnects**: clients that vanish mid-response (``BrokenPipeError``
  / ``ConnectionResetError``) are counted, not crashed on; no traceback
  spam from the server thread.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .degrade import ReloadRejected, ServingRuntime
from .engine import InferenceEngine
from .http import MAX_BODY_BYTES, READ_TIMEOUT
from .metrics import ServiceMetrics

#: Endpoints that bypass the in-flight limiter and deadline: operability
#: probes must keep answering while the server is saturated.
CONTROL_ENDPOINTS = frozenset({"/healthz", "/metrics"})


class ServiceError(Exception):
    """An HTTP-visible request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServiceLimits:
    """Operational guard-rails for the prediction service."""

    #: Reject request bodies whose Content-Length exceeds this (bytes).
    max_body_bytes: int = MAX_BODY_BYTES
    #: Maximum concurrently-executing work requests; excess is shed (503).
    max_inflight: int = 64
    #: Seconds the client should wait before retrying after a shed.
    retry_after_seconds: int = 1
    #: Socket read timeout (seconds); guards against stalled clients.
    read_timeout: float = READ_TIMEOUT
    #: Post-hoc per-request deadline (seconds); ``None`` disables.
    deadline_seconds: Optional[float] = None


class InflightLimiter:
    """Non-blocking concurrency gate with saturation introspection."""

    def __init__(self, limit: int) -> None:
        self.limit = max(1, int(limit))
        self._lock = threading.Lock()
        self._in_use = 0

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    @property
    def saturated(self) -> bool:
        with self._lock:
            return self._in_use >= self.limit

    def try_acquire(self) -> bool:
        with self._lock:
            if self._in_use >= self.limit:
                return False
            self._in_use += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._in_use <= 0:
                raise RuntimeError("InflightLimiter released below zero")
            self._in_use -= 1


class PredictionHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's engine; JSON in, JSON out."""

    server_version = "repro-serve/1.1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    @property
    def runtime(self) -> ServingRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    @property
    def engine(self) -> InferenceEngine:
        # Always read through the runtime: a hot reload swaps the engine
        # under us and every handler must see the new one immediately.
        return self.runtime.engine

    @property
    def metrics(self) -> ServiceMetrics:
        return self.server.metrics  # type: ignore[attr-defined]

    @property
    def limits(self) -> ServiceLimits:
        return self.server.limits  # type: ignore[attr-defined]

    @property
    def limiter(self) -> InflightLimiter:
        return self.server.limiter  # type: ignore[attr-defined]

    def setup(self) -> None:
        # Socket-level read timeout: a stalled client can only park this
        # thread for read_timeout seconds, not forever.
        self.timeout = self.limits.read_timeout
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        if length > self.limits.max_body_bytes:
            # The oversized body is never read; drop the connection so the
            # unread bytes cannot be misparsed as a follow-up request.
            self.close_connection = True
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.limits.max_body_bytes}-byte limit",
            )
        try:
            body = self.rfile.read(length)
        except TimeoutError as exc:  # body shorter than Content-Length
            self.close_connection = True
            raise ServiceError(
                400,
                f"request body shorter than Content-Length {length} "
                f"(read timed out after {self.limits.read_timeout}s)",
            ) from exc
        if len(body) < length:  # client half-closed before sending it all
            self.close_connection = True
            raise ServiceError(
                400,
                f"request body truncated: Content-Length {length} but "
                f"only {len(body)} bytes received",
            )
        try:
            return json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from exc

    def _send_json(self, payload: dict, status: int = 200,
                   headers: Optional[Dict[str, str]] = None,
                   endpoint: str = "") -> None:
        body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; count it, drop the
            # connection, and keep the worker thread alive.
            self.metrics.record_disconnect(endpoint or self.path)
            self.close_connection = True

    def _dispatch(self, endpoint: str, handler) -> None:
        control = endpoint in CONTROL_ENDPOINTS
        if not control and not self.limiter.try_acquire():
            self.metrics.record_shed(endpoint)
            retry = self.limits.retry_after_seconds
            self._send_json(
                {"error": "server is at its in-flight request limit; "
                          "retry shortly"},
                503,
                headers={"Retry-After": str(retry)},
                endpoint=endpoint,
            )
            return
        start = time.perf_counter()
        error = False
        try:
            try:
                payload, status = handler()
            except ServiceError as exc:
                payload, status, error = {"error": exc.message}, exc.status, True
            except (BrokenPipeError, ConnectionResetError):
                # Disconnect while *reading* the request: nothing to send.
                self.metrics.record_disconnect(endpoint)
                self.close_connection = True
                return
            except Exception as exc:  # noqa: BLE001 — surface as a 500
                payload, status, error = {"error": str(exc)}, 500, True
            elapsed = time.perf_counter() - start
            deadline = self.limits.deadline_seconds
            if (not control and not error and deadline is not None
                    and elapsed > deadline):
                # Post-hoc deadline: the work finished but too late to be
                # useful; report 504 honestly instead of a stale 200.
                self.metrics.record_deadline(endpoint)
                payload = {"error": f"deadline of {deadline}s exceeded "
                                    f"({elapsed:.3f}s elapsed)"}
                status, error = 504, True
            self.metrics.observe(endpoint, elapsed, error=error)
            self._send_json(payload, status, endpoint=endpoint)
        finally:
            if not control:
                self.limiter.release()

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._dispatch("/healthz", self._handle_healthz)
        elif parsed.path == "/metrics":
            self._dispatch("/metrics", self._handle_metrics)
        elif parsed.path == "/predict":
            query = parse_qs(parsed.query)
            self._dispatch(
                "/predict", lambda: self._handle_predict_query(query)
            )
        else:
            self._dispatch(parsed.path, self._not_found)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        parsed = urlparse(self.path)
        if parsed.path == "/predict":
            self._dispatch("/predict", self._handle_predict_post)
        elif parsed.path == "/rank":
            self._dispatch("/rank", self._handle_rank)
        elif parsed.path == "/admin/reload":
            self._dispatch("/admin/reload", self._handle_reload)
        else:
            self._dispatch(parsed.path, self._not_found)

    # ------------------------------------------------------------------
    def _not_found(self) -> Tuple[dict, int]:
        raise ServiceError(404, f"no such endpoint: {self.path}")

    def _handle_healthz(self) -> Tuple[dict, int]:
        saturated = self.limiter.saturated
        breaker_state = self.runtime.breaker.state
        status = ("degraded" if saturated or breaker_state != "closed"
                  else "ok")
        return {
            "status": status,
            "inflight": self.limiter.in_use,
            "inflight_limit": self.limiter.limit,
            "breaker": breaker_state,
            **self.engine.info(),
        }, 200

    def _handle_metrics(self) -> Tuple[dict, int]:
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.engine.cache.stats()
        snapshot["inflight"] = self.limiter.in_use
        snapshot["inflight_limit"] = self.limiter.limit
        # Breaker state + per-source fallback counters (DESIGN §13).
        snapshot.update(self.runtime.snapshot())
        return snapshot, 200

    def _handle_predict_query(self, query: dict) -> Tuple[dict, int]:
        raw = ",".join(query.get("ids", []))
        if not raw:
            raise ServiceError(400, "missing ids query parameter")
        try:
            ids = [int(x) for x in raw.split(",") if x != ""]
        except ValueError as exc:
            raise ServiceError(400, f"bad ids: {exc}") from exc
        return self._predict_ids(ids)

    def _handle_predict_post(self) -> Tuple[dict, int]:
        body = self._read_json()
        if "title" in body:
            if not isinstance(body["title"], str) or not body["title"]:
                raise ServiceError(400, "title must be a non-empty string")
            try:
                score = self.engine.score_title(body["title"])
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from exc
            return {"prediction": score, "cold_start": True}, 200
        if "paper_ids" in body:
            ids = body["paper_ids"]
            if not isinstance(ids, list):
                raise ServiceError(400, "paper_ids must be a list of ints")
            return self._predict_ids(ids)
        raise ServiceError(400, "body must contain paper_ids or title")

    def _predict_ids(self, ids) -> Tuple[dict, int]:
        try:
            result = self.runtime.predict(ids)
        except (IndexError, TypeError, ValueError) as exc:
            raise ServiceError(400, str(exc)) from exc
        return {
            "paper_ids": [int(i) for i in ids],
            "predictions": [float(p) for p in result["predictions"]],
            "source": result["source"],
            "degraded": result["degraded"],
        }, 200

    def _handle_reload(self) -> Tuple[dict, int]:
        """Hot checkpoint reload behind the shadow-validation gate.

        A rejected candidate (corrupt file, contract violation, golden
        parity failure) returns ``409`` with the reason — and the old
        engine keeps serving; the reload is atomic on success.
        """
        body = self._read_json()
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError(400, "body must contain a checkpoint path")
        try:
            result = self.runtime.reload(path)
        except ReloadRejected as exc:
            payload = {"reloaded": False, "error": exc.reason}
            if exc.report is not None:
                payload["report"] = exc.report
            return payload, 409
        return result, 200

    def _handle_rank(self) -> Tuple[dict, int]:
        body = self._read_json()
        node_type = body.get("node_type", "paper")
        k = body.get("k", 10)
        cluster = body.get("cluster")
        try:
            ranking = self.engine.rank(node_type, k=int(k),
                                       cluster=cluster)
        except (KeyError, ValueError, TypeError) as exc:
            raise ServiceError(400, str(exc)) from exc
        return {"node_type": node_type, "ranking": ranking}, 200


class ResilientHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client disconnects as routine.

    Stdlib's default ``handle_error`` prints a full traceback for *any*
    exception escaping a handler thread — including the
    ``BrokenPipeError`` every impatient client causes.  Those are
    counted in metrics and suppressed; genuine bugs still get their
    traceback.
    """

    #: Exceptions that mean "the client hung up", not "the server broke".
    DISCONNECT_ERRORS = (BrokenPipeError, ConnectionResetError,
                         TimeoutError)

    #: Deep listen backlog (socketserver's default is 5): a burst of
    #: concurrent clients — e.g. the serving load test — must land in
    #: the accept queue, not get reset at the kernel's front door.
    request_queue_size = 1024

    @property
    def engine(self) -> InferenceEngine:
        """The live engine, read through the runtime (hot-reload aware)."""
        return self.runtime.engine  # type: ignore[attr-defined]

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, self.DISCONNECT_ERRORS):
            metrics = getattr(self, "metrics", None)
            if metrics is not None:
                metrics.record_disconnect("<connection>")
            return
        super().handle_error(request, client_address)


def make_server(engine: InferenceEngine, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                metrics: Optional[ServiceMetrics] = None,
                limits: Optional[ServiceLimits] = None,
                runtime: Optional[ServingRuntime] = None
                ) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; ``port=0`` = ephemeral.

    ``runtime`` optionally supplies a pre-configured
    :class:`~repro.serve.degrade.ServingRuntime` (custom breaker
    thresholds, model deadline); by default the engine is wrapped in one
    with standard settings.  The server's ``engine`` attribute always
    reflects the runtime's *current* engine, including after hot reloads.
    """
    server = ResilientHTTPServer((host, port), PredictionHandler)
    server.runtime = runtime or ServingRuntime(engine)  # type: ignore[attr-defined]
    server.metrics = metrics or ServiceMetrics()  # type: ignore[attr-defined]
    server.limits = limits or ServiceLimits()  # type: ignore[attr-defined]
    server.limiter = InflightLimiter(  # type: ignore[attr-defined]
        server.limits.max_inflight
    )
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve_forever(engine: InferenceEngine, host: str = "127.0.0.1",
                  port: int = 8099, verbose: bool = True,
                  limits: Optional[ServiceLimits] = None) -> None:
    """Blocking entry point used by ``python -m repro.serve``."""
    server = make_server(engine, host, port, verbose=verbose, limits=limits)
    bound = server.server_address
    print(f"repro-serve listening on http://{bound[0]}:{bound[1]} "
          f"({engine.num_papers} papers frozen, "
          f"freeze took {engine.freeze_seconds:.2f}s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # noqa: R005 — ^C is the documented shutdown
        pass
    finally:
        server.server_close()
