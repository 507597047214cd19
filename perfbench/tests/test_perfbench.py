"""Tests of the benchmark's own machinery.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import loadgen  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, coverage, self_time_by_name, self_times  # noqa: E402
from stats import (METRIC_NAME, percentile, result_line, tail,  # noqa: E402
                   tail_percentile)


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10, None), (11, 9), (42, 76), (100, 90), (500, 98), (999, 98),
    (1000, 99), (5000, 99),
])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 3000):
        p = tail_percentile(n)
        beyond = n - math.ceil(p / 100.0 * n)
        assert beyond >= 10, (n, p)
        if p < 99:
            assert n - math.ceil((p + 1) / 100.0 * n) < 10, (n, p)


def test_tail_reports_percentile_value_and_max_when_unsupported():
    values = list(range(1, 1001))
    random.Random(0).shuffle(values)
    assert tail(values) == (99, 990)
    assert tail([3.0, 1.0, 2.0]) == (None, 3.0)
    assert percentile(values, 50) == 500


# ----------------------------------------------------------------------
# Open-loop latency is timed from the due time
# ----------------------------------------------------------------------
async def _echo_server(stall_on: int = -1, stall_s: float = 0.0):
    """A pipelining-capable HTTP/1.1 server answering 200 to each POST;
    the ``stall_on``-th request (0-based) is answered ``stall_s`` late."""
    seen = {"n": 0}

    async def handle(reader, writer):
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            await reader.readexactly(length)
            index = seen["n"]
            seen["n"] += 1
            if index == stall_on:
                await asyncio.sleep(stall_s)
            body = b'{"ok": true}'
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()

    async def guarded(reader, writer):
        try:
            await handle(reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    server = await asyncio.start_server(guarded, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _requests(n):
    return [loadgen.predict_request([i]) for i in range(n)]


def _run(coro):
    """Run ``coro`` on the generator's own event loop."""
    loop = loadgen.event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def test_server_stall_is_charged_from_due_time():
    """A request queued behind a stalled one on the same connection is
    late by the stall, though its own service took no time."""
    async def main():
        server, port = await _echo_server(stall_on=5, stall_s=0.3)
        client = loadgen.OpenLoopClient("127.0.0.1", port, connections=1)
        due = [0.01 * i for i in range(40)]
        try:
            return await client.run_phase(_requests(40), due, rate=100.0)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    phase = _run(main())
    assert phase.ok == 40 and phase.failed == 0
    stalled = phase.outcomes[5]
    stall_end = stalled.done
    assert stall_end - stalled.due >= 0.3
    for outcome in phase.outcomes[6:]:
        if outcome.due < stall_end - 0.01:
            # Sent on time, answered only after the stall: the whole
            # wait counts, measured from when it was due.
            assert outcome.sent - outcome.due < 0.05
            assert outcome.latency(1.0) >= stall_end - outcome.due - 1e-6
    late = sorted(phase.latencies())
    assert late[len(late) // 2] > 0.03  # most requests queued behind it


def test_generator_stall_shows_as_lateness_and_latency():
    """When the generator itself is blocked, requests go out late; the
    lateness is recorded and their latency still runs from the due time."""
    async def main():
        server, port = await _echo_server()
        client = loadgen.OpenLoopClient("127.0.0.1", port, connections=2)
        due = [0.005 * i for i in range(60)]
        loop = asyncio.get_running_loop()
        loop.call_later(0.06, time.sleep, 0.2)  # block the loop
        try:
            return await client.run_phase(_requests(60), due, rate=200.0)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    phase = _run(main())
    assert phase.ok == 60
    lateness = phase.lateness()
    assert max(lateness) >= 0.15
    for outcome in phase.outcomes:
        assert outcome.latency(1.0) >= outcome.sent - outcome.due


def test_failed_requests_count_as_over_the_limit():
    phase = loadgen.PhaseResult(rate=100.0, outcomes=[
        loadgen.Outcome(i, due=0.0, sent=0.0, done=0.001, status=200)
        for i in range(199)] + [loadgen.Outcome(199, due=0.0, sent=0.0)],
        backlog=0, cpu_s=0.0, wall_s=1.0)
    assert phase.failed == 1
    assert max(phase.latencies(cap=2.0)) == 2.0
    assert not loadgen.passes(phase, limit_s=0.025)
    phase.outcomes[-1].status = 200
    phase.outcomes[-1].done = 0.001
    assert loadgen.passes(phase, limit_s=0.025)


def test_poisson_schedule_is_seeded_with_fixed_count():
    a = loadgen.poisson_schedule(100.0, 500, random.Random(7))
    b = loadgen.poisson_schedule(100.0, 500, random.Random(7))
    assert a == b and len(a) == 500
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 3.5 < a[-1] < 6.5  # 500 arrivals at 100/s take about 5 s


# ----------------------------------------------------------------------
# The rate ladder reports only a rate that passed
# ----------------------------------------------------------------------
def _capacity(limit: float, tried: list):
    def step(rate: float) -> bool:
        tried.append(rate)
        return rate <= limit
    return step


@pytest.mark.parametrize("limit", [460.0, 600.0, 300.0, 200.0, 150.0])
def test_ladder_returns_the_highest_passing_grid_rate(limit):
    tried = []
    floor = 300.0 / 1.2 ** 4
    rate = loadgen.ladder(_capacity(limit, tried), 300.0, floor)
    grid = [300.0 * 1.2 ** j * 1.05 ** k
            for j in range(-4, 12) for k in range(4)]
    assert rate == pytest.approx(max(r for r in grid
                                     if floor <= r <= limit))
    assert rate in tried


def test_ladder_climbs_then_refines():
    tried = []
    rate = loadgen.ladder(_capacity(460.0, tried), 300.0, 100.0)
    assert rate == pytest.approx(300.0 * 1.2 ** 2 * 1.05)
    assert tried == pytest.approx([300.0, 360.0, 432.0, 518.4, 453.6,
                                   476.28])


def test_ladder_walks_down_when_the_first_step_fails():
    tried = []
    rate = loadgen.ladder(_capacity(200.0, tried), 300.0, 100.0)
    assert rate == pytest.approx(300.0 / 1.2 ** 3 * 1.05 ** 2)
    assert tried[:4] == pytest.approx([300.0, 250.0, 300.0 / 1.44,
                                       300.0 / 1.728])


def test_ladder_reports_none_when_nothing_passes_above_the_floor():
    tried = []
    assert loadgen.ladder(_capacity(50.0, tried), 300.0, 140.0) is None
    assert min(tried) >= 140.0



@pytest.mark.parametrize("passes, expected", [
    ([], 300.0),
    ([None, None], 300.0),
    ([544.32, 571.536, None], 518.4),
    ([518.4], 518.4),
    ([300.0 * 1.2 ** 2 * 1.05 ** 3, 300.0], 360.0),
    ([200.0], 300.0 / 1.2 ** 3),
    ([90.0], 300.0 / 1.2 ** 4),
])
def test_next_pass_starts_on_the_coarse_grid_below_the_median(passes,
                                                               expected):
    floor = 300.0 / 1.2 ** 4
    assert loadgen.next_start(passes, 300.0, floor) == pytest.approx(expected)


def test_ladder_from_a_later_start_stays_on_the_grid():
    tried = []
    start = loadgen.next_start([571.536, 544.32], 300.0, 100.0)
    rate = loadgen.ladder(_capacity(560.0, tried), start, 100.0)
    assert tried[0] == pytest.approx(518.4)
    assert rate == pytest.approx(300.0 * 1.2 ** 3 * 1.05)

# ----------------------------------------------------------------------
# Span self time over nested children
# ----------------------------------------------------------------------
def _span(i, start, end, parent=None):
    return {"id": i, "name": f"s{i}", "start": start, "end": end,
            "parent": parent, "rid": None}


def test_self_time_subtracts_union_of_children():
    spans = [_span(1, 0.0, 10.0),
             _span(2, 1.0, 4.0, parent=1),
             _span(3, 3.0, 6.0, parent=1),   # overlaps 2 (async children)
             _span(4, 2.0, 3.0, parent=2),   # grandchild
             _span(5, 9.0, 12.0, parent=1)]  # runs past its parent
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert coverage(spans, "s1") == pytest.approx(0.6)


def test_recorder_nests_wrapped_calls():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            self.inner()
            return "done"

        def inner(self):
            time.sleep(0.03)

    rec = SpanRecorder()
    rec.wrap(Layer, "outer", "layer.outer")
    rec.wrap(Layer, "inner", "layer.inner", rid=lambda self: "r1")
    try:
        assert Layer().outer() == "done"
    finally:
        rec.unwrap_all()
    assert Layer.inner.__name__ == "inner" and not rec.spans[0].get("_token")
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["layer.inner"]["parent"] == by_name["layer.outer"]["id"]
    assert by_name["layer.inner"]["rid"] == "r1"
    own = self_time_by_name(rec.spans)
    assert 0.015 < own["layer.outer"] < 0.03
    assert own["layer.inner"] >= 0.03


def test_recorder_wraps_coroutines_per_task():
    class Batcher:
        async def submit(self, ids):
            await asyncio.sleep(0.01)
            return len(ids)

    rec = SpanRecorder()
    rec.wrap(Batcher, "submit", "serve.submit",
             rid=lambda self, ids: ",".join(map(str, ids)))

    async def main():
        b = Batcher()
        return await asyncio.gather(b.submit([1, 2]), b.submit([3]))

    try:
        assert asyncio.run(main()) == [2, 1]
    finally:
        rec.unwrap_all()
    assert sorted(s["rid"] for s in rec.spans) == ["1,2", "3"]
    assert all(s["parent"] is None for s in rec.spans)  # siblings, not nested


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["p50_ms", "tensor.backward_s",
                                  "serve.aio.submit_ms_p99", "9lives",
                                  "a-b.c_d"])
def test_metric_name_accepted(name):
    assert METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "p99 ms", "lat/ms", "_x", ".x",
                                  "a" * 65, "ü"])
def test_metric_name_rejected(name):
    assert not METRIC_NAME.fullmatch(name)


def test_benchmark_json_matches_the_command():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_result_line_has_exactly_the_contract_keys():
    line = result_line(True, 3, 0, {"p50_ms": (1.25, "ms")})
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["metrics"] == {"p50_ms": {"value": 1.25, "unit": "ms"}}
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": (1.0, "ms")})
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"x": (float("nan"), "ms")})
