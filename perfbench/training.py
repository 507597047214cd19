"""The training workloads: Algorithm 1 full-batch and neighbour-sampled.

``train_full`` fits CATE-HGN on the 1000-paper DBLP-full network with the
cached batch structure (one tape shape, reused every step).
``train_minibatch`` fits on a 3000-paper network with a
``MinibatchSampler``, so every step builds a fresh subgraph, structure
and tape.  Each fit runs a fixed number of outer iterations with early
stopping out of reach; fits repeat until the measuring time is used.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import CATEHGN, CATEHGNConfig
from repro.core.model import CATEHGNModel
from repro.core.text_enhance import TextEnhancer
from repro.data import WorldConfig, make_dblp_full
from repro.data.sampling import MinibatchSampler
from repro.eval.metrics import rmse
from repro.hetnet import PAPER
from repro.hetnet.structure import BatchStructure
from repro.nn import Adam
from repro.tensor import Tensor, tape_nodes_created

from spans import SpanRecorder, coverage, self_time_by_name
from stats import median, tail

#: Dataset builds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 5
#: Fits per run at least, so a slow host does not halve the sample.
MIN_FITS = 2

#: CATE-HGN settings at CPU scale (the Table-II settings with early
#: stopping out of reach: ``patience`` exceeds ``outer_iters``).  Three
#: outer iterations include one TE refinement (outer iteration 2).  The
#: model seed is fixed: TE rewrites the term graph from the model's own
#: impacts, so a per-run model draw moved both ``val_rmse`` (about 8%)
#: and the cost of an outer iteration (about 7%) between seeds.
MODEL = dict(dim=24, attention_heads=2, outer_iters=3, mini_iters=8,
             lr=0.01, kappa=40, patience=100, seed=0)


@dataclass(frozen=True)
class TrainSpec:
    name: str
    world: Dict[str, int]
    mini_iters: int
    batch_size: Optional[int] = None  # None: full-batch
    fanout: int = 0


TRAIN_FULL = TrainSpec("train_full",
                       dict(num_papers=1000, num_authors=200, seed=3),
                       mini_iters=8)
# Three times train_full's papers: a 2-hop sample of 64 seeds with
# fanout 2 touches ~30% of the nodes, so the 16 sampled steps are most of
# each outer iteration (the rest is the full-batch CA centre step, TE
# refinement and validation).
TRAIN_MINIBATCH = TrainSpec("train_minibatch",
                            dict(num_papers=3000, num_authors=600, seed=3),
                            mini_iters=16, batch_size=64, fanout=2)


def build_dataset(world: Dict[str, int]):
    return make_dblp_full(WorldConfig(**world))


def timed_setup(world: Dict[str, int], rounds: int = SETUP_ROUNDS):
    """Build the dataset ``rounds`` times; (last dataset, seconds each)."""
    times, dataset = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        dataset = build_dataset(world)
        times.append(time.perf_counter() - t0)
    return dataset, times


def model_config(**overrides) -> CATEHGNConfig:
    return CATEHGNConfig(**dict(MODEL, **overrides))


class StepClock:
    """Timestamps each HGN mini-step of Algorithm 1 (lines 3-9).

    ``Adam.clip_grad_norm`` runs once per mini-step and only there (the
    CA centre step does not clip), so consecutive calls within one outer
    iteration are one full step apart: sampling, forward, loss, backward,
    clip and update.  One clock read per step; no spans.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self._original = Adam.clip_grad_norm
        clock = self

        def clip_grad_norm(opt, max_norm):
            clock.stamps.append(time.perf_counter())
            return clock._original(opt, max_norm)

        Adam.clip_grad_norm = clip_grad_norm

    def restore(self) -> None:
        Adam.clip_grad_norm = self._original

    def _groups(self, mini_iters: int) -> List[List[float]]:
        """The stamps of each outer iteration."""
        return [self.stamps[lo:lo + mini_iters]
                for lo in range(0, len(self.stamps), mini_iters)]

    def step_seconds(self, mini_iters: int) -> List[float]:
        return [b - a for group in self._groups(mini_iters)
                for a, b in zip(group, group[1:])]

    def mean_step_seconds(self, mini_iters: int) -> List[float]:
        """Each outer iteration's mean mini-step."""
        return [(group[-1] - group[0]) / (len(group) - 1)
                for group in self._groups(mini_iters) if len(group) > 1]


def _fit(spec: TrainSpec, dataset) -> CATEHGN:
    sampler = (MinibatchSampler(batch_size=spec.batch_size,
                                fanouts=spec.fanout, seed=MODEL["seed"])
               if spec.batch_size else None)
    est = CATEHGN(model_config(mini_iters=spec.mini_iters))
    return est.fit(dataset, sampler=sampler)


def _papers_per_step(spec: TrainSpec, dataset) -> int:
    """Labelled papers one HGN mini-step trains on."""
    if spec.batch_size:
        return spec.batch_size
    fit_idx, _ = dataset.early_stopping_split()
    return len(fit_idx)


def _check_fit(est: CATEHGN, dataset, errors: List[str]) -> float:
    best = est.history.best_val_rmse
    fit_idx, stop_idx = dataset.early_stopping_split()
    labels = dataset.labels
    baseline = rmse(labels[stop_idx],
                    np.full(len(stop_idx), labels[fit_idx].mean()))
    if not math.isfinite(best):
        errors.append(f"val_rmse is not finite: {best!r}")
    elif best >= baseline:
        errors.append(f"val_rmse {best:.4f} is not below the mean "
                      f"predictor's {baseline:.4f}")
    rollbacks = [e for e in est.history.events if e.get("type") == "rollback"]
    if rollbacks:
        errors.append(f"{len(rollbacks)} divergence rollbacks")
    return best


def _check_sampler(spec: TrainSpec, dataset, errors: List[str],
                   batches: int = 3) -> None:
    """The first minibatches hold their seeds and respect the fanout."""
    fit_idx, _ = dataset.early_stopping_split()
    sampler = MinibatchSampler(batch_size=spec.batch_size,
                               fanouts=spec.fanout, seed=MODEL["seed"])
    sampler.bind(dataset.graph, fit_idx, dataset.labels[fit_idx],
                 hops=model_config().num_layers)
    for b in range(batches):
        mb = sampler.next_minibatch()
        papers = mb.nodes[PAPER]
        if not np.array_equal(papers[mb.batch.labeled_ids], mb.seeds):
            errors.append(f"minibatch {b} does not hold its seeds")
        for key, arrays in mb.batch.edges.items():
            dst = np.asarray(arrays[1])
            if len(dst) and np.bincount(dst).max() > spec.fanout:
                errors.append(f"minibatch {b} exceeds fanout {spec.fanout} "
                              f"on {key}")


def run(spec: TrainSpec, seconds: float, trace: bool,
        trace_path: Optional[str]):
    """Returns ``(errors, attempted, failed, metrics, notes)``.

    Training inputs are fixed (network and model seed); only the host
    varies between runs.
    """
    dataset, setup_times = timed_setup(spec.world)
    errors: List[str] = []
    if spec.batch_size:
        _check_sampler(spec, dataset, errors)
    if trace:
        return _run_traced(spec, dataset, errors, trace_path)

    clock = StepClock()
    epochs: List[float] = []
    best: List[float] = []
    attempted = failed = steps = 0
    fit_cpu = 0.0
    walls = []
    started = time.perf_counter()
    try:
        while len(walls) < MIN_FITS or time.perf_counter() - started < seconds:
            cpu0, t0 = time.process_time(), time.perf_counter()
            est = _fit(spec, dataset)
            walls.append(time.perf_counter() - t0)
            fit_cpu += time.process_time() - cpu0
            epochs += est.history.iter_seconds
            steps += len(est.history.iter_seconds) * spec.mini_iters
            best.append(_check_fit(est, dataset, errors))
            bad = sum(e.get("type") == "rollback" for e in est.history.events)
            bad += sum(not math.isfinite(v) for v in est.history.val_rmse)
            attempted += len(est.history.iter_seconds) + bad
            failed += bad
    finally:
        clock.restore()
    if len(set(best)) != 1:
        errors.append(f"repeated fits disagree on val_rmse: {best}")

    step_s = clock.step_seconds(spec.mini_iters)
    p, step_tail = tail(step_s, want=95)
    metrics = common_metrics(setup_times, attempted, failed)
    metrics.update({
        "epoch_s": (median(epochs), "s"),
        "val_rmse": (best[0], "rmse"),
        # Single step times fall into clusters (train_minibatch: ~65-80
        # and ~85-90 ms on the reference host), and their median jumped
        # between them from run to run; outer-iteration means do not.
        "p50_ms": (median(clock.mean_step_seconds(spec.mini_iters)) * 1e3,
                   "ms"),
        # Per median outer iteration, like ``epoch_s``: a mean over a
        # run's few iterations moves with every slow second of the host.
        "max_rate_rps": (spec.mini_iters * _papers_per_step(spec, dataset)
                         / median(epochs), "1/s"),
        "cpu_ms_per_req": (fit_cpu / steps * 1e3, "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    })
    notes = ["set-up rounds (s): "
             + ", ".join(f"{t:.3f}" for t in setup_times),
             "fit wall (s): " + ", ".join(f"{t:.3f}" for t in walls),
             f"{len(best)} fits, {len(epochs)} outer iterations, "
             f"{steps} HGN steps; step time p{p} {step_tail * 1e3:.3f} ms "
             f"over {len(step_s)} steps"]
    return errors, attempted, failed, metrics, notes


def common_metrics(setup_times: List[float], attempted: int,
                   failed: int) -> Dict[str, Tuple[float, str]]:
    return {"setup_s": (median(setup_times), "s"),
            "ok_share": ((attempted - failed) / attempted, "ratio")}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class _TapeCounter:
    """Tape nodes created and bytes held per backward pass."""

    def __init__(self) -> None:
        self.calls = 0
        self.nodes = 0
        self.bytes = 0
        self._mark = tape_nodes_created()

    def before_backward(self, root: Tensor) -> None:
        created = tape_nodes_created()
        self.nodes += created - self._mark
        self._mark = created
        self.calls += 1
        seen, stack, held = set(), [root], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._parents:
                held += node.data.nbytes
                stack.extend(node._parents)
        self.bytes += held


def install_training_spans(rec: SpanRecorder, tape: _TapeCounter,
                           sampled: List[int]) -> None:
    """Spans around the public entry points of each training layer."""
    rec.wrap(CATEHGN, "fit", "core.trainer.fit")
    rec.wrap(CATEHGNModel, "forward_state", "core.model.forward")
    rec.wrap(CATEHGNModel, "hgn_loss", "core.model.hgn_loss")
    rec.wrap(CATEHGNModel, "ca_loss", "core.model.ca_loss")
    rec.wrap(CATEHGNModel, "predict_papers", "core.model.predict")
    rec.wrap(Adam, "step", "nn.optim.step")
    rec.wrap(Adam, "clip_grad_norm", "nn.optim.step")
    rec.wrap(TextEnhancer, "refine", "core.text_enhance.refine")
    rec.wrap(TextEnhancer, "rebuild_graph_terms", "core.text_enhance.refine")
    rec.wrap(MinibatchSampler, "next_minibatch", "data.sampling.next_minibatch",
             after=lambda mb, *a: sampled.append(
                 sum(mb.batch.num_nodes.values())))
    rec.wrap(BatchStructure, "__init__", "hetnet.structure_build")
    rec.wrap(Tensor, "backward", "tensor.backward",
             before=lambda root, *a: tape.before_backward(root))


#: Per-layer training metrics: span name -> metric name (seconds of
#: self time per outer iteration).
TRAIN_LAYERS = {
    "tensor.backward": "tensor.backward_s",
    "core.model.forward": "core.model.forward_s",
    "core.model.hgn_loss": "core.model.hgn_loss_s",
    "core.model.ca_loss": "core.model.ca_loss_s",
    "core.model.predict": "core.model.predict_s",
    "nn.optim.step": "nn.optim.step_s",
    "core.text_enhance.refine": "core.text_enhance.refine_s",
    "data.sampling.next_minibatch": "data.sampling.next_minibatch_s",
    "hetnet.structure_build": "hetnet.structure_build_s",
    "core.trainer.fit": "core.trainer.fit_self_s",
}


def _run_traced(spec: TrainSpec, dataset, errors: List[str],
                trace_path: Optional[str]):
    """One untraced fit, then the same fit traced; per-layer self times."""
    plain = _fit(spec, dataset)
    untraced_epoch = median(plain.history.iter_seconds)
    rec, tape, sampled = SpanRecorder(), _TapeCounter(), []
    install_training_spans(rec, tape, sampled)
    try:
        est = _fit(spec, dataset)
    finally:
        rec.unwrap_all()
    if est.history.best_val_rmse != plain.history.best_val_rmse:
        errors.append("tracing changed the fit's val_rmse")
    _check_fit(est, dataset, errors)
    if trace_path:
        rec.write_jsonl(trace_path)

    iters = len(est.history.iter_seconds)
    traced_epoch = median(est.history.iter_seconds)
    own = self_time_by_name(rec.spans)
    metrics = {metric: (own.get(span, 0.0) / iters, "s")
               for span, metric in TRAIN_LAYERS.items()}
    metrics.update({
        "tensor.backward_calls": (tape.calls, "count"),
        "tensor.tape_nodes": (tape.nodes / max(1, tape.calls), "count"),
        "tensor.tape_bytes": (tape.bytes / max(1, tape.calls), "B"),
        "data.sampling.batch_nodes": (
            sum(sampled) / len(sampled) if sampled else 0.0, "count"),
        "trace.coverage_share": (coverage(rec.spans, "core.trainer.fit"),
                                 "ratio"),
        "trace.overhead_share": (traced_epoch / untraced_epoch - 1.0,
                                 "ratio"),
        "trace.spans": (len(rec.spans), "count"),
    })
    attempted = 2 * iters
    notes = [f"traced epoch {traced_epoch:.3f} s vs untraced "
             f"{untraced_epoch:.3f} s; {len(rec.spans)} spans"]
    return errors, attempted, 0, metrics, notes
