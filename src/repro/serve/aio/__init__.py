"""Asyncio serving runtime with cross-request dynamic batching.

See DESIGN §16.  Public surface:

* :class:`AsyncPredictionServer` — the HTTP app behind ``repro-serve``;
* :class:`ServiceLimits` / :class:`ServiceError` — its body cap, read
  deadline and ``Retry-After``, and its HTTP-visible request error;
* :class:`BackgroundAsyncServer` — the app on its own thread + loop,
  for tests / drills / benchmarks;
* :func:`serve_forever_aio` — blocking CLI entry point;
* :class:`DynamicBatcher` / :class:`BatchSettings` — the coalescing
  core and its watermarks;
* :class:`AdmissionQueue` / :class:`AdmissionFull` — bounded admission
  (503 + ``Retry-After`` past the bound);
* :class:`BatchingMetrics` — per-flush observability.
"""

from .admission import AdmissionFull, AdmissionQueue
from .batcher import BatchSettings, DynamicBatcher
from .metrics import BatchingMetrics
from .server import (
    AsyncPredictionServer,
    BackgroundAsyncServer,
    ServiceError,
    ServiceLimits,
    serve_forever_aio,
)

__all__ = [
    "AdmissionFull",
    "AdmissionQueue",
    "AsyncPredictionServer",
    "BackgroundAsyncServer",
    "BatchSettings",
    "BatchingMetrics",
    "DynamicBatcher",
    "ServiceError",
    "ServiceLimits",
    "serve_forever_aio",
]
