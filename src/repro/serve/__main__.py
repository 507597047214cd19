"""``python -m repro.serve`` / ``repro-serve``: boot the prediction service.

Usage::

    repro-serve model.npz --host 127.0.0.1 --port 8099

The checkpoint must have been written by
:func:`repro.serve.save_catehgn` (or ``CATEHGN.save_checkpoint``); its
``.graph`` sidecar is expected next to it.
"""

from __future__ import annotations

import argparse


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
    aio = parser.add_argument_group("asyncio runtime (DESIGN §16)")
    aio.add_argument("--aio", action="store_true",
                     help="serve on the asyncio runtime with cross-request "
                          "dynamic batching instead of the threaded server")
    aio.add_argument("--max-batch-size", type=int, default=256,
                     help="flush a batch once its coalesced cost (paper ids "
                          "+ ranks) reaches this many units")
    aio.add_argument("--max-wait-ms", type=float, default=2.0,
                     help="flush a partial batch this many ms after its "
                          "first request arrived")
    aio.add_argument("--queue-depth", type=int, default=1024,
                     help="admission queue bound; excess requests are shed "
                          "with 503 + Retry-After")
    limits = parser.add_argument_group("limits (DESIGN §12)")
    limits.add_argument("--max-inflight", type=int, default=None,
                        help="threaded server only (default 64): max "
                             "concurrently-executing requests; excess is "
                             "shed with 503 + Retry-After (--aio sheds past "
                             "--queue-depth instead)")
    limits.add_argument("--max-body-bytes", type=int, default=1 << 20,
                        help="reject larger request bodies with 413")
    limits.add_argument("--read-timeout", type=float, default=5.0,
                        help="socket read timeout in seconds (stalled or "
                             "truncating clients get 400)")
    limits.add_argument("--deadline", type=float, default=None,
                        help="threaded server only: per-request deadline "
                             "in seconds; late responses become 504 "
                             "(default: off)")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.aio and (args.max_inflight is not None
                     or args.deadline is not None):
        parser.error("--max-inflight and --deadline apply to the threaded "
                     "server only; --aio sheds load past --queue-depth")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Imports after arg parsing so --help stays instant.
    from .engine import InferenceEngine
    from .service import ServiceLimits, serve_forever

    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, cache_size=args.cache_size,
        micro_batch=args.micro_batch,
        mmap_mode="r" if args.mmap else None,
    )
    if args.max_inflight is None:
        args.max_inflight = ServiceLimits.max_inflight  # the default, 64
    limits = ServiceLimits(max_body_bytes=args.max_body_bytes,
                           max_inflight=args.max_inflight,
                           read_timeout=args.read_timeout,
                           deadline_seconds=args.deadline)
    if args.aio:
        from .aio import BatchSettings, serve_forever_aio

        settings = BatchSettings(max_batch_size=args.max_batch_size,
                                 max_wait_ms=args.max_wait_ms,
                                 max_queue_depth=args.queue_depth)
        serve_forever_aio(engine, host=args.host, port=args.port,
                          verbose=not args.quiet, limits=limits,
                          settings=settings)
        return 0
    serve_forever(engine, host=args.host, port=args.port,
                  verbose=not args.quiet, limits=limits)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
