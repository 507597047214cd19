"""``python -m repro.serve`` / ``repro-serve``: boot the prediction service.

Usage::

    repro-serve model.npz --host 127.0.0.1 --port 8099

The checkpoint must have been written by
:func:`repro.serve.save_catehgn` (or ``CATEHGN.save_checkpoint``); its
``.graph`` sidecar is expected next to it.  The server is the asyncio
runtime with cross-request dynamic batching (DESIGN §16).
"""

from __future__ import annotations

import argparse

from .http import MAX_BODY_BYTES, READ_TIMEOUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve citation predictions from a CATE-HGN checkpoint.",
    )
    parser.add_argument("checkpoint",
                        help="path to a .npz checkpoint written by "
                             "CATEHGN.save_checkpoint / save_catehgn")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8099)
    parser.add_argument("--cache-size", type=int, default=4096,
                        help="LRU result-cache capacity (0 disables)")
    parser.add_argument("--micro-batch", type=int, default=256,
                        help="bulk-prediction micro-batch size")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map the checkpoint and graph arrays "
                             "(read-only) so co-located replicas share one "
                             "copy via the OS page cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logs")
    # Accepted and ignored: the asyncio server is the only server, and
    # existing launch scripts still pass the flag that once selected it.
    parser.add_argument("--aio", action="store_true", help=argparse.SUPPRESS)
    batching = parser.add_argument_group("dynamic batching (DESIGN §16)")
    batching.add_argument("--max-batch-size", type=int, default=256,
                          help="flush a batch once its coalesced cost "
                               "(paper ids + ranks) reaches this many units")
    batching.add_argument("--max-wait-ms", type=float, default=2.0,
                          help="flush a partial batch this many ms after "
                               "its first request arrived")
    batching.add_argument("--queue-depth", type=int, default=1024,
                          help="admission queue bound; excess requests are "
                               "shed with 503 + Retry-After")
    limits = parser.add_argument_group("limits (DESIGN §12)")
    limits.add_argument("--max-body-bytes", type=int, default=MAX_BODY_BYTES,
                        help="reject larger request bodies with 413")
    limits.add_argument("--read-timeout", type=float, default=READ_TIMEOUT,
                        help="read deadline in seconds per head and body "
                             "(stalled or truncating clients get 400)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Imports after arg parsing so --help stays instant.
    from .aio import BatchSettings, ServiceLimits, serve_forever_aio
    from .engine import InferenceEngine

    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, cache_size=args.cache_size,
        micro_batch=args.micro_batch,
        mmap_mode="r" if args.mmap else None,
    )
    limits = ServiceLimits(max_body_bytes=args.max_body_bytes,
                           read_timeout=args.read_timeout)
    settings = BatchSettings(max_batch_size=args.max_batch_size,
                             max_wait_ms=args.max_wait_ms,
                             max_queue_depth=args.queue_depth)
    serve_forever_aio(engine, host=args.host, port=args.port,
                      verbose=not args.quiet, limits=limits,
                      settings=settings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
