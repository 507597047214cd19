"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 12 --trace 0

Workloads: ``train_full``, ``train_minibatch``, ``serve_direct``,
``serve_fleet`` (see perfbench/README.md).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that reports
per-layer metrics and writes its spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.  The last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_full", "train_minibatch", "serve_direct", "serve_fleet")

END_TO_END = ("setup_s", "peak_rss_mb", "epoch_s", "val_rmse", "p50_ms",
              "max_rate_rps", "cpu_ms_per_req", "ok_share")

#: Every per-layer metric, with its unit; a workload that does not run a
#: layer reports 0 for it.
PER_LAYER = {
    "tensor.backward_s": "s",
    "tensor.backward_calls": "count",
    "tensor.tape_nodes": "count",
    "tensor.tape_bytes": "B",
    "core.model.forward_s": "s",
    "core.model.hgn_loss_s": "s",
    "core.model.ca_loss_s": "s",
    "core.model.predict_s": "s",
    "core.trainer.fit_self_s": "s",
    "nn.optim.step_s": "s",
    "core.text_enhance.refine_s": "s",
    "data.sampling.next_minibatch_s": "s",
    "data.sampling.batch_nodes": "count",
    "hetnet.structure_build_s": "s",
    "serve.aio.submit_ms_p50": "ms",
    "serve.aio.submit_ms_p99": "ms",
    "serve.aio.queue_wait_ms_p50": "ms",
    "serve.aio.queue_wait_ms_p99": "ms",
    "serve.aio.compute_ms_p50": "ms",
    "serve.aio.mean_batch_size": "count",
    "serve.framing_ms_p50": "ms",
    "serve.engine.predict_ms_p50": "ms",
    "serve.cache.hit_rate": "ratio",
    "fleet.router.hop_ms_p50": "ms",
    "fleet.router.cpu_ms_per_req": "ms",
    "fleet.replica.cpu_ms_per_req": "ms",
    "fleet.affinity_share": "ratio",
    "fleet.router.failovers": "count",
    "loadgen.p95_ms": "ms",
    "loadgen.p99_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "loadgen.cpu_s": "s",
    "trace.coverage_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop(signum, frame):
    # Unwind through the ``finally`` blocks that stop the servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imported after the check above: they import the program.
    import serving
    import training
    from nohalt import spinners
    from stats import result_line

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_path = (str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
                  if args.trace else None)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    # Keep every temporary file inside the checkout, the fleet
    # supervisor's replica state directory included.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    train = {s.name: s for s in (training.TRAIN_FULL,
                                 training.TRAIN_MINIBATCH)}
    serve = {s.name: s for s in (serving.SERVE_DIRECT, serving.SERVE_FLEET)}
    try:
        with spinners() as spinning:
            if args.workload in train:
                outcome = training.run(train[args.workload], args.seconds,
                                       bool(args.trace), trace_path)
            else:
                outcome = serving.run(serve[args.workload], args.seed,
                                      args.seconds, bool(args.trace),
                                      trace_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors, attempted, failed, metrics, notes = outcome
    notes.append(f"{spinning} idle spinners started (nohalt.py)")

    if args.trace:
        metrics = {name: metrics.get(name, (0.0, unit))
                   for name, unit in PER_LAYER.items()}
    else:
        missing = [name for name in END_TO_END if name not in metrics]
        if missing:
            errors.append(f"metrics not measured: {missing}")
        metrics = {name: metrics[name] for name in END_TO_END
                   if name in metrics}
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(result_line(not errors, attempted, failed, metrics))
    sys.stdout.flush()
    return 1 if errors else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    raise SystemExit(main())
