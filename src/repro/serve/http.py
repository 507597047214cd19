"""The one HTTP/1.1 codec behind every serving hop (DESIGN §16.1).

The asyncio prediction server, both sides of the fleet router, the fleet
load client and the ``benchmarks/perf`` load test frame HTTP/1.1 here;
no other module under ``src/`` reads a request or response head.

- Heads end in CRLFCRLF.  A request head is one ``readuntil`` under one
  deadline; a bare-LF head is never framed and waits out that deadline.
  urllib, http.client and every client in this repository send CRLF.
- A head over :data:`MAX_HEAD_BYTES` is 431.  A malformed request or
  header line, a ``Content-Length`` that is not a plain decimal number, a
  ``Transfer-Encoding`` header, and a body cut short by EOF or the
  deadline are 400.  A body over the cap is 413 and is never read.
  Every framing error closes the connection after its answer.
- A JSON request body must be one object (:func:`parse_json_object`);
  anything else is 400.
- Connections are kept alive until ``Connection: close`` or an idle
  deadline, which closes them without a response.  Responses always
  carry ``Content-Length`` and ``Connection``; reason phrases come from
  :class:`http.HTTPStatus`.

:class:`BackgroundServer` runs either server on its own thread + loop.
Importing this module (and so the router) pulls in no model code.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http import HTTPStatus
from typing import Awaitable, Callable, Dict, NamedTuple, Optional, Tuple

#: Cap on request-line + header bytes (the body has its own cap).
MAX_HEAD_BYTES = 16 * 1024
#: Default body cap and read deadline (``ServiceLimits`` defaults), which
#: the fleet router shares with its replicas.
MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT = 5.0

_END = b"\r\n\r\n"
_REASONS = {s.value: s.phrase for s in HTTPStatus}


class FramingError(ValueError):
    """A message that cannot be framed; ``status`` is the answer to send.

    ``target`` is the request target when the request line was read
    (a body over the cap or cut short), else ``""``.
    """

    def __init__(self, status: int, message: str, target: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.target = target


class Request(NamedTuple):
    method: str
    target: str
    headers: Dict[str, str]  # names lower-cased
    body: bytes

    @property
    def close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


class Response(NamedTuple):
    status: int
    headers: Dict[str, str]  # names lower-cased
    body: bytes

    @property
    def close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


def _parse_head(head: bytes, error: int) -> Tuple[str, Dict[str, str], int]:
    """``(start line, headers, body length)``; a malformed head raises a
    :class:`FramingError` with status ``error``."""
    start, *lines = head[:-4].decode("latin-1").lstrip("\r\n").split("\r\n")
    headers = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise FramingError(error, f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise FramingError(error, "Transfer-Encoding is not supported; "
                                  "frame the body with Content-Length")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise FramingError(error, f"bad Content-Length: {length[:80]!r}")
    return start, headers, int(length)


async def read_request(reader: asyncio.StreamReader, *, timeout: float,
                       max_body: int) -> Optional[Request]:
    """One request, or ``None`` once the client closed or idled out."""
    try:
        head = await asyncio.wait_for(reader.readuntil(_END), timeout)
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection or stalled head
    except asyncio.IncompleteReadError as exc:
        if exc.partial.strip():
            raise FramingError(400, "request head ended before CRLFCRLF") \
                from None
        return None
    except asyncio.LimitOverrunError:
        head = b""  # longer than the stream's buffer limit
    if not head or len(head) > MAX_HEAD_BYTES:
        raise FramingError(431, f"request head exceeds the "
                                f"{MAX_HEAD_BYTES}-byte limit")
    start, headers, length = _parse_head(head, 400)
    if not start:
        return None  # nothing but blank lines
    parts = start.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise FramingError(400, f"malformed request line {start[:80]!r}")
    if length > max_body:
        raise FramingError(413, f"request body of {length} bytes exceeds "
                                f"the {max_body}-byte limit", parts[1])
    try:
        body = (await asyncio.wait_for(reader.readexactly(length), timeout)
                if length else b"")
    except (asyncio.TimeoutError, asyncio.IncompleteReadError):
        raise FramingError(400, f"request body truncated: Content-Length "
                                f"{length} not received within {timeout}s",
                           parts[1]) from None
    return Request(parts[0], parts[1], headers, body)


async def read_response(reader: asyncio.StreamReader) -> Response:
    """One response; the caller bounds the wait.  A peer that closed
    first raises ``ConnectionResetError``, a malformed head a 502
    :class:`FramingError`."""
    try:
        head = await reader.readuntil(_END)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionResetError("peer closed the connection") \
                from None
        raise
    except asyncio.LimitOverrunError:
        raise FramingError(502, "response head too large") from None
    start, headers, length = _parse_head(head, 502)
    parts = start.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith("HTTP/")
            or not (parts[1].isascii() and parts[1].isdigit())):
        raise FramingError(502, f"malformed status line {start[:80]!r}")
    body = await reader.readexactly(length) if length else b""
    return Response(int(parts[1]), headers, body)


def parse_json_object(body: bytes) -> dict:
    """A request body as a JSON object; an empty body is ``{}``.

    Raises :class:`ValueError`, which both servers answer with 400, for
    a body that is not JSON or is JSON but not an object.
    """
    try:
        value = json.loads(body or b"{}")
    except ValueError as exc:  # JSONDecodeError or undecodable bytes
        raise ValueError(f"invalid JSON body: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"JSON body must be an object, "
                         f"not {type(value).__name__}")
    return value


def _encode(start: str, headers: Dict[str, str], body: bytes) -> bytes:
    lines = [start, f"Content-Length: {len(body)}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def encode_request(method: str, target: str, body: bytes = b"",
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    return _encode(f"{method} {target} HTTP/1.1", headers or {}, body)


def encode_response(status: int, body: bytes,
                    headers: Optional[Dict[str, str]] = None, *,
                    close: bool = False) -> bytes:
    """A JSON response (``headers`` may override ``Content-Type``)."""
    head = {"Content-Type": "application/json",
            "Connection": "close" if close else "keep-alive",
            **(headers or {})}
    return _encode(f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                   head, body)


async def _send(writer: asyncio.StreamWriter, data: bytes,
                timeout: float) -> None:
    writer.write(data)
    if writer.transport.get_write_buffer_size():
        # drain() only waits while the peer is not reading; bound that.
        await asyncio.wait_for(writer.drain(), timeout)


Handler = Callable[[str, str, Dict[str, str], bytes],
                   Awaitable[Tuple[int, bytes, Dict[str, str]]]]


async def serve_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter, handler: Handler,
                           *, timeout: float, max_body: int,
                           on_disconnect: Optional[Callable[[], None]] = None,
                           on_framing_error: Optional[
                               Callable[[FramingError], None]] = None
                           ) -> None:
    """Answer requests on one keep-alive connection until it ends.

    ``handler`` maps ``(method, target, headers, body)`` to ``(status,
    body, headers)``.  ``timeout`` bounds each head read, body read,
    blocked write and the close; ``on_disconnect`` runs when the client
    goes away: it resets the connection, or stops reading while a
    response waits in the send buffer; ``on_framing_error`` runs for a
    request answered by the codec itself (400/413/431) before it is sent.
    """
    try:
        while True:
            try:
                request = await read_request(reader, timeout=timeout,
                                             max_body=max_body)
            except FramingError as exc:
                if on_framing_error is not None:
                    on_framing_error(exc)
                error = json.dumps({"error": exc.message}).encode()
                await _send(writer, encode_response(exc.status, error,
                                                    close=True), timeout)
                return
            if request is None:
                return
            status, body, headers = await handler(*request)
            await _send(writer, encode_response(status, body, headers,
                                                close=request.close), timeout)
            if request.close:
                return
    except (OSError, asyncio.TimeoutError):
        if on_disconnect is not None:
            on_disconnect()
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), timeout)
        except (OSError, asyncio.TimeoutError):  # noqa: R005 — client already gone
            pass
        except asyncio.CancelledError:  # noqa: R005 — server stop cancelled the close
            pass  # the transport is torn down either way


class BackgroundServer:
    """An asyncio server app on its own thread + event loop.

    ``app`` is anything with ``async start(host, port) -> (host, port)``
    and ``async stop()``: the prediction server or the fleet router.
    Lets synchronous callers (tests, drills, the load-test harness, the
    fleet) boot it, read its bound address, poke it over real sockets,
    and tear it down deterministically::

        bg = BackgroundAsyncServer(engine, settings=BatchSettings(...))
        host, port = bg.start()
        ...
        bg.shutdown()
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0,
                 name: str = "repro-aio-server") -> None:
        self.app = app
        self._host = host
        self._port = port
        self._name = name
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True, name=self._name)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self._name} did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(f"{self._name} failed to start") \
                from self._startup_error
        return self.address

    def shutdown(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None \
                and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # noqa: R005 — loop closed between check and call: already down
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — reported to starter
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.address = await self.app.start(self._host, self._port)
        self._ready.set()
        await self._stop_event.wait()
        await self.app.stop()
        # Drain in-flight connection handlers ourselves: cancelling and
        # *gathering* them retrieves their CancelledErrors, so a server
        # stopped mid-request never spills "exception was never
        # retrieved" tracebacks into drill/test output.  The handler
        # filter covers CPython 3.11's StreamReaderProtocol done-callback,
        # which calls task.exception() on the cancelled task and re-raises
        # the CancelledError into the loop's exception handler.
        def _quiet_cancelled(loop: asyncio.AbstractEventLoop,
                             context: dict) -> None:
            if isinstance(context.get("exception"), asyncio.CancelledError):
                return  # expected: handlers axed mid-shutdown
            loop.default_exception_handler(context)

        self._loop.set_exception_handler(_quiet_cancelled)
        pending = [t for t in asyncio.all_tasks()
                   if t is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
