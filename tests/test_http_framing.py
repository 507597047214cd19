"""One raw-socket framing table, run against both asyncio servers.

The prediction server and the fleet router frame HTTP/1.1 through the
same codec (``repro.serve.http``) under the same caps, so every row must
hold for both: errors are answered once and the connection is closed,
keep-alive and pipelining answer every request in order, and an idle
keep-alive connection is closed without a response.  A body that is not
a JSON object is 400 on every JSON endpoint, the router's own
``/admin/reload`` included.  The router fronts one in-process replica,
so its 200 rows are real forwarded predictions.
"""

import json
import socket
import time

import pytest

from repro.core import CATEHGN
from repro.eval.runner import default_cate_config
from repro.fleet import BackgroundRouter, FleetRouter
from repro.serve import (
    BackgroundAsyncServer,
    BatchSettings,
    InferenceEngine,
    ServiceLimits,
)

#: Read deadline of both fronts: short, so the idle and stalled-body
#: rows finish quickly.
READ_TIMEOUT = 1.0


@pytest.fixture(scope="module")
def fronts(tiny_dataset, tmp_path_factory):
    """``{"aio": addr, "router": addr, "fleet": FleetRouter}``; the router
    fronts one replica with the same short read deadline."""
    config = default_cate_config(dim=16, seed=0, outer_iters=1, mini_iters=1)
    est = CATEHGN(config).fit(tiny_dataset)
    path = est.save_checkpoint(tmp_path_factory.mktemp("ckpt") / "model")
    limits = ServiceLimits(read_timeout=READ_TIMEOUT)
    settings = BatchSettings(max_wait_ms=1.0)

    front = BackgroundAsyncServer(
        InferenceEngine.from_checkpoint(path, cache_size=0),
        limits=limits, settings=settings)
    replica = BackgroundAsyncServer(
        InferenceEngine.from_checkpoint(path, cache_size=0),
        limits=limits, settings=settings)
    patch = pytest.MonkeyPatch()
    patch.setattr("repro.fleet.router.READ_TIMEOUT", READ_TIMEOUT)
    # The reload handler is never reached: the reload rows send bodies
    # the router must refuse first.
    router = FleetRouter(reload_handler=lambda path: {"reloaded": False})
    router.set_member("replica-0", *replica.start())
    bg_router = BackgroundRouter(router)
    yield {"aio": front.start(), "router": bg_router.start(),
           "fleet": router}
    bg_router.shutdown()
    replica.shutdown()
    front.shutdown()
    patch.undo()


def _predict(connection=b"keep-alive"):
    body = json.dumps({"paper_ids": [1, 2]}).encode()
    return (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: " + connection + b"\r\n\r\n" + body)


def _post_json(path, body):
    return (b"POST " + path + b" HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body)


def _post_head(content_length):
    return (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n")


def _read_response(stream):
    """``(status, headers, body)`` off a socket file, ``None`` at EOF."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _converse(addr, payloads, half_close=False):
    """Send each payload, reading one response before sending the next;
    after the last, read every response until the server closes.

    Returns ``(responses, seconds from the last send to EOF)``.  A server
    that never closes fails the row with a socket timeout.
    """
    with socket.create_connection(addr, timeout=15) as sk:
        stream = sk.makefile("rb")
        responses = []
        for payload in payloads[:-1]:
            sk.sendall(payload)
            responses.append(_read_response(stream))
        sk.sendall(payloads[-1])
        if half_close:
            sk.shutdown(socket.SHUT_WR)
        sent = time.monotonic()
        while (response := _read_response(stream)) is not None:
            responses.append(response)
        return responses, time.monotonic() - sent


ERRORS = {
    # row: (payloads, half-close after sending, status, text in the body)
    "malformed_request_line": ([b"NONSENSE\r\n\r\n"], False, 400,
                               b"request line"),
    "oversize_head": ([b"GET /healthz HTTP/1.1\r\nX-Pad: "
                       + b"a" * (20 * 1024) + b"\r\n\r\n"], False, 431,
                      b"limit"),
    # Answered from Content-Length alone, before (and without) the body.
    "oversize_body": ([_post_head(b"2000000")], False, 413, b"exceeds"),
    "truncated_body": ([_post_head(b"68") + b'{"paper_ids": [0]}'], True,
                       400, b"truncated"),
    "stalled_body": ([_post_head(b"68") + b'{"paper_ids": [0]}'], False, 400,
                     b"truncated"),
    "non_numeric_content_length": ([_post_head(b"abc")], False, 400,
                                   b"Content-Length"),
    "negative_content_length": ([_post_head(b"-5")], False, 400,
                                b"Content-Length"),
}


@pytest.mark.parametrize("row", sorted(ERRORS))
@pytest.mark.parametrize("front", ["aio", "router"])
def test_framing_error_answered_once_then_closed(fronts, front, row):
    payloads, half_close, status, text = ERRORS[row]
    responses, _ = _converse(fronts[front], payloads, half_close)
    assert [r[0] for r in responses] == [status]
    _status, headers, body = responses[0]
    assert headers["connection"] == "close"
    assert text in body


@pytest.mark.parametrize("body", [b"[1]", b'"abc"'])
@pytest.mark.parametrize("path", [b"/predict", b"/rank", b"/admin/reload"])
@pytest.mark.parametrize("front", ["aio", "router"])
def test_non_object_json_body_400(fronts, front, path, body):
    responses, _ = _converse(fronts[front], [_post_json(path, body)])
    assert [r[0] for r in responses] == [400]
    assert b"JSON body must be an object" in responses[0][2]


@pytest.mark.parametrize("front", ["aio", "router"])
def test_keep_alive_pair(fronts, front):
    responses, _ = _converse(fronts[front],
                             [_predict(), _predict(b"close")])
    assert [r[0] for r in responses] == [200, 200]
    assert [r[1]["connection"] for r in responses] == ["keep-alive", "close"]
    assert responses[0][2] == responses[1][2]


@pytest.mark.parametrize("front", ["aio", "router"])
def test_two_pipelined_requests_in_one_write(fronts, front):
    responses, _ = _converse(fronts[front],
                             [_predict() + _predict(b"close")])
    assert [r[0] for r in responses] == [200, 200]
    assert responses[0][2] == responses[1][2]


@pytest.mark.parametrize("front", ["aio", "router"])
def test_idle_keep_alive_connection_closed_quietly(fronts, front):
    responses, idle = _converse(fronts[front], [_predict()])
    # One answer, then nothing but the close once the deadline passed.
    assert [r[0] for r in responses] == [200]
    assert idle >= 0.5 * READ_TIMEOUT


def test_router_skips_pooled_connection_the_replica_idled_out(fronts):
    router = fronts["fleet"]
    _converse(fronts["router"], [_predict(b"close")])
    # The replica closes the router's pooled connection after its read
    # deadline; the next forward must dial afresh, not fail over.
    time.sleep(1.5 * READ_TIMEOUT)
    failovers = router._counters["failovers"]
    responses, _ = _converse(fronts["router"], [_predict(b"close")])
    assert [r[0] for r in responses] == [200]
    assert router._counters["failovers"] == failovers
