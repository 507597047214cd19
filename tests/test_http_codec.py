"""Unit tests for the shared HTTP/1.1 codec (``repro.serve.http``).

Every function is driven through an in-memory ``asyncio.StreamReader``
(``feed_data``/``feed_eof``), so each framing rule is pinned without a
socket.  The last test keeps the codec the only HTTP head parser under
``src/``.
"""

import ast
import asyncio
from http import HTTPStatus
from pathlib import Path

import pytest

from repro.serve.http import (
    MAX_HEAD_BYTES,
    FramingError,
    encode_request,
    encode_response,
    read_request,
    read_response,
    serve_connection,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _reader(data=b"", eof=True, limit=2 ** 16):
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _request(data, eof=True, timeout=1.0, max_body=1024, limit=2 ** 16):
    async def run():
        return await read_request(_reader(data, eof, limit),
                                  timeout=timeout, max_body=max_body)
    return asyncio.run(run())


def _framing_error(data, **kwargs):
    with pytest.raises(FramingError) as info:
        _request(data, **kwargs)
    return info.value


def _response(data):
    async def run():
        return await read_response(_reader(data))
    return asyncio.run(run())


# ---------------------------------------------------------------------------
# read_request
# ---------------------------------------------------------------------------
def test_request_round_trip():
    wire = encode_request("POST", "/predict?x=1", b'{"paper_ids": [1]}',
                          {"Host": "t", "X-Request-Id": "abc"})
    req = _request(wire)
    assert (req.method, req.target, req.body) == (
        "POST", "/predict?x=1", b'{"paper_ids": [1]}')
    assert req.headers["x-request-id"] == "abc"  # names lower-cased
    assert req.headers["content-length"] == "18"
    assert not req.close


def test_connection_close_and_leading_blank_lines():
    req = _request(b"\r\nGET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n")
    assert (req.method, req.target, req.body) == ("GET", "/healthz", b"")
    assert req.close


def test_pipelined_requests_frame_one_at_a_time():
    one = encode_request("POST", "/a", b"xy", {"Host": "t"})
    two = encode_request("GET", "/b", headers={"Host": "t"})

    async def run():
        reader = _reader(one + two)
        first = await read_request(reader, timeout=1.0, max_body=10)
        second = await read_request(reader, timeout=1.0, max_body=10)
        third = await read_request(reader, timeout=1.0, max_body=10)
        return first, second, third

    first, second, third = asyncio.run(run())
    assert (first.target, first.body) == ("/a", b"xy")
    assert (second.target, second.body) == ("/b", b"")
    assert third is None  # clean EOF between requests


@pytest.mark.parametrize("data", [b"", b"\r\n\r\n", b"  \r\n"])
def test_eof_or_blank_between_requests_closes_quietly(data):
    assert _request(data) is None


def test_idle_connection_times_out_quietly():
    assert _request(b"", eof=False, timeout=0.05) is None


def test_bare_lf_head_is_never_framed():
    # The CRLFCRLF rule: a bare-LF head waits out the deadline and the
    # connection is closed without an answer.
    assert _request(b"GET / HTTP/1.1\nHost: t\n\n", eof=False,
                    timeout=0.05) is None


def test_head_cut_by_eof_is_400():
    assert _framing_error(b"GET / HTTP/1.1\r\nHost: t\r\n").status == 400


@pytest.mark.parametrize("line", [b"NONSENSE", b"GET /", b"GET / FTP/1.0",
                                  b"GET / HTTP/1.1 extra"])
def test_malformed_request_line_is_400(line):
    exc = _framing_error(line + b"\r\nHost: t\r\n\r\n")
    assert exc.status == 400 and "request line" in exc.message


def test_malformed_header_line_is_400():
    assert _framing_error(
        b"GET / HTTP/1.1\r\nno colon here\r\n\r\n").status == 400


def test_head_over_cap_is_431():
    pad = b"X-Pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n"
    exc = _framing_error(b"GET / HTTP/1.1\r\n" + pad + b"\r\n")
    assert exc.status == 431


def test_head_over_stream_limit_is_431():
    # No terminator within the reader's buffer limit: LimitOverrunError.
    exc = _framing_error(b"GET / HTTP/1.1\r\n" + b"a" * 4096, eof=False,
                         limit=1024)
    assert exc.status == 431


@pytest.mark.parametrize("value", [b"abc", b"-5", b"", b"1e3", b"+4",
                                   b"\xb2"])
def test_bad_content_length_is_400(value):
    exc = _framing_error(b"POST / HTTP/1.1\r\nContent-Length: " + value
                         + b"\r\n\r\n")
    assert exc.status == 400 and "Content-Length" in exc.message


def test_transfer_encoding_is_400():
    exc = _framing_error(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked"
                         b"\r\n\r\n4\r\nabcd\r\n0\r\n\r\n")
    assert exc.status == 400


def test_body_over_cap_is_413_without_reading_it():
    async def run():
        reader = _reader(b"POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
                         b"hello world")
        with pytest.raises(FramingError) as info:
            await read_request(reader, timeout=1.0, max_body=10)
        return info.value, await reader.read()

    exc, unread = asyncio.run(run())
    assert exc.status == 413 and "exceeds" in exc.message
    assert unread == b"hello world"


def test_body_cut_by_eof_is_400():
    exc = _framing_error(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert exc.status == 400 and "truncated" in exc.message


def test_body_missing_its_deadline_is_400():
    exc = _framing_error(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                         eof=False, timeout=0.05)
    assert exc.status == 400 and "truncated" in exc.message


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("status", [200, 400, 404, 409, 413, 431, 502, 503])
def test_response_round_trip_with_stdlib_reason(status):
    wire = encode_response(status, b'{"ok": 1}', {"Retry-After": "3"})
    assert wire.startswith(
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n".encode())
    resp = _response(wire)
    assert (resp.status, resp.body) == (status, b'{"ok": 1}')
    assert resp.headers["retry-after"] == "3"
    assert resp.headers["content-type"] == "application/json"
    assert not resp.close


def test_response_close_flag():
    assert _response(encode_response(400, b"", close=True)).close


def test_response_on_closed_connection_is_reset():
    with pytest.raises(ConnectionResetError):
        _response(b"")


@pytest.mark.parametrize("head", [b"garbage\r\n\r\n",
                                  b"HTTP/1.1 OK fine\r\n\r\n",
                                  b"HTTP/1.1 200 OK\r\nContent-Length: x"
                                  b"\r\n\r\n"])
def test_malformed_response_is_502(head):
    with pytest.raises(FramingError) as info:
        _response(head)
    assert info.value.status == 502


# ---------------------------------------------------------------------------
# serve_connection
# ---------------------------------------------------------------------------
class _StuckWriter:
    """A writer whose peer never reads: bytes sit in the send buffer and
    ``drain`` never returns."""

    def __init__(self):
        self.closed = False
        self.transport = self

    def write(self, data):
        pass

    def get_write_buffer_size(self):
        return 1 << 20

    async def drain(self):
        await asyncio.Event().wait()

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def test_peer_that_stops_reading_ends_the_connection_quietly():
    writer = _StuckWriter()
    gone = []

    async def handler(method, target, headers, body):
        return 200, b"{}", {}

    async def run():
        await serve_connection(
            _reader(encode_request("GET", "/healthz"), eof=False), writer,
            handler, timeout=0.05, max_body=1024,
            on_disconnect=lambda: gone.append(True))
    asyncio.run(run())
    assert gone == [True]
    assert writer.closed


# ---------------------------------------------------------------------------
# One parser: nothing else under src/ reads an HTTP head
# ---------------------------------------------------------------------------
#: The codec itself.
ALLOWED = {"repro/serve/http.py"}


def head_parsing_sites(root):
    """``path:line`` of every ``readline``/``readuntil`` call (bare or
    under ``wait_for``) and every ``content-length`` string literal
    outside :data:`ALLOWED`."""
    sites = []
    for path in sorted(Path(root).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            line_read = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("readline", "readuntil"))
            length_literal = (
                isinstance(node, ast.Constant)
                and isinstance(node.value, (str, bytes))
                and node.value.lower() in ("content-length",
                                           b"content-length"))
            if line_read or length_literal:
                sites.append(f"{rel}:{node.lineno}")
    return sites


def test_only_the_codec_parses_http_heads():
    sites = head_parsing_sites(SRC)
    assert not sites, ("HTTP head parsing outside repro/serve/http.py "
                       f"(use read_request/read_response): {sites}")
