"""repro.serve — checkpointing + tape-free inference + prediction service.

The deployment story of the reproduction (DESIGN §11): train an estimator,
:func:`save_catehgn` it to a versioned ``.npz`` checkpoint, freeze it into
an :class:`InferenceEngine` (one tape-free forward per graph snapshot),
and expose predictions over the stdlib asyncio server via
``python -m repro.serve``.

The public names below are imported on first use, so importing a light
submodule (the fleet router imports only :mod:`repro.serve.http`) does not
load the engine, the model code and scipy into the router process.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AdmissionFull": "aio",
    "AdmissionQueue": "aio",
    "AsyncPredictionServer": "aio",
    "BackgroundAsyncServer": "aio",
    "BatchSettings": "aio",
    "BatchingMetrics": "aio",
    "DynamicBatcher": "aio",
    "ServiceError": "aio",
    "ServiceLimits": "aio",
    "serve_forever_aio": "aio",
    "CircuitBreaker": "breaker",
    "LRUCache": "cache",
    "CHECKPOINT_FORMAT_VERSION": "checkpoint",
    "Checkpoint": "checkpoint",
    "RestoredCATEHGN": "checkpoint",
    "load_checkpoint": "checkpoint",
    "load_gnn_baseline": "checkpoint",
    "restore_catehgn": "checkpoint",
    "save_catehgn": "checkpoint",
    "save_checkpoint": "checkpoint",
    "save_gnn_baseline": "checkpoint",
    "ReloadRejected": "degrade",
    "ServingRuntime": "degrade",
    "InferenceEngine": "engine",
    "ServiceMetrics": "metrics",
    "PriorHead": "prior",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
