"""Launch ``repro.serve`` with spans around its serving layers.

Usage::

    python perfbench/trace_server.py SPANS.jsonl <repro.serve arguments>

Wraps ``DynamicBatcher.submit_predict`` (one span per request, keyed by
its paper ids) and ``InferenceEngine.predict`` (one span per batch), and
turns each ``BatchingMetrics.record_batch`` call into a
``serve.aio.compute`` span for the batch and a ``serve.aio.queue_wait``
span per request, then runs ``repro.serve.__main__.main``.  On SIGINT or SIGTERM the server
stops and the spans are written to ``SPANS.jsonl``.
"""

from __future__ import annotations

import signal
import sys
import time


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    from spans import SpanRecorder

    from repro.serve.__main__ import main as serve_main
    from repro.serve.aio.batcher import DynamicBatcher
    from repro.serve.aio.metrics import BatchingMetrics
    from repro.serve.engine import InferenceEngine

    rec = SpanRecorder()
    rec.wrap(DynamicBatcher, "submit_predict", "serve.aio.submit",
             rid=lambda _self, ids, *a: ",".join(str(int(i)) for i in ids))
    rec.wrap(InferenceEngine, "predict", "serve.engine.predict")

    record_batch = BatchingMetrics.record_batch

    def record(metrics, batch, compute_seconds, *args, **kwargs):
        # Called just after the batch's compute: the durations are the
        # batcher's own, the end times are read here.
        started = time.perf_counter() - compute_seconds
        rec.add("serve.aio.compute", started, started + compute_seconds)
        for pending in batch:
            rec.add("serve.aio.queue_wait", started - pending.queue_wait_s,
                    started)
        return record_batch(metrics, batch, compute_seconds, *args, **kwargs)

    BatchingMetrics.record_batch = record

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    try:
        return serve_main(serve_args)
    finally:
        rec.write_jsonl(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
