"""The serving workloads: open-loop ``POST /predict`` against a server
subprocess started with the repository's own CLI.

``serve_direct`` runs ``python -m repro.serve <ckpt> --aio --cache-size 0``
and sends four uniform-random paper ids per request, so every request
pays framing, admission, the batcher and the engine head.
``serve_fleet`` runs ``python -m repro.fleet <ckpt> --replicas 2`` and
draws request bodies Zipf-like from a fixed catalogue whose distinct
paper ids exceed one replica's cache but fit in the fleet's, so the
cache hit rate depends on the router's ring affinity.
"""

from __future__ import annotations

import json
import math
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import CATEHGN
from repro.eval.metrics import rmse
from repro.serve import InferenceEngine

import loadgen
import servers
from spans import SpanRecorder, read_jsonl
from stats import median, percentile, tail
from training import build_dataset, common_metrics, model_config

#: Set-up rounds per run.  Each round builds the network, fits the
#: checkpoint, boots the server and warms it up (``setup_s`` is the
#: median), then measures that server: PASSES passes of the rate ladder,
#: with a short reference chunk before the first step and after every
#: step.  The chunks sample the reference rate evenly over the whole
#: measured time, so a slow spell of the host moves the chunks and the
#: ladder passes it overlaps, not the run's figures.
ROUNDS = 3
PASSES = 2  # ladder passes per round
#: The checkpoint's network: every serving cost here is per request over
#: precomputed embeddings, so a small network only shortens set-up.
SERVE_WORLD = dict(num_papers=400, num_authors=80, seed=3)
CHECKPOINT_FIT = dict(outer_iters=3, mini_iters=2)
CONNECTIONS = 2  # = nproc on the reference host
#: The rate ladder's latency limit on each step's p95.  Judged at 25 ms,
#: host stalls failed steps far below capacity (the fleet's ladder ended
#: anywhere from 167/s to 476/s); at 50 ms a step fails at the capacity
#: cliff, where the queue grows and latency jumps past 100 ms.
LIMIT_S = 0.05
WARMUP = 60  # requests at the reference rate, per set-up round
#: A ladder step sends ``rate * LADDER_STEP_S`` requests.  It is not
#: retried: a host stall that fails a step moves one pass, and the run
#: reports the median of its ROUNDS * PASSES passes.
LADDER_STEP_S = 0.5
#: A run's first ladder pass starts here (requests/s); later passes start
#: at ``loadgen.next_start``.  No pass reports a rate below LADDER_FLOOR,
#: four coarse steps down.
LADDER_START = 300.0
LADDER_FLOOR = LADDER_START / loadgen.COARSE_STEP ** 4
CHECK_SAMPLE = 200
#: A reference chunk lasts ``seconds / REF_SHARE``: 0.125 s, so 19
#: (fleet) or 28 (direct) requests, with ``--seconds 12``.  ``p50_ms`` is
#: the p50 of all reference requests of the run, pooled.
REF_SHARE = 96
#: The traced run's windows: 1000 requests, so p99 has ten beyond it.
TRACE_WINDOW = 1000
IDS_PER_REQUEST = 4


@dataclass(frozen=True)
class ServeSpec:
    name: str
    ref_rate: float  # requests/s; see README "Sizing on two cores"
    argv: Callable[[str], List[str]]
    fleet: bool


SERVE_DIRECT = ServeSpec(
    "serve_direct", ref_rate=220.0,
    argv=lambda ckpt: ["-m", "repro.serve", ckpt, "--aio", "--cache-size",
                       "0", "--port", "0", "--quiet"],
    fleet=False)
#: 75 bodies x 4 distinct ids = 300 distinct ids: more than one replica's
#: 192-entry cache, less than the fleet's 384.
FLEET_CACHE = 192
CATALOGUE_BODIES = 75
ZIPF_S = 1.0
#: Lower than serve_direct's: when the host slows, the fleet's four busy
#: processes lose capacity first (its ladder fell from ~460/s to ~280/s),
#: and at 220/s its p95 then doubled.
SERVE_FLEET = ServeSpec(
    "serve_fleet", ref_rate=150.0,
    argv=lambda ckpt: ["-m", "repro.fleet", ckpt, "--replicas", "2",
                       "--cache-size", str(FLEET_CACHE), "--port", "0",
                       "--quiet"],
    fleet=True)


class Traffic:
    """Seeded request bodies for one workload."""

    def __init__(self, spec: ServeSpec, seed: int, num_papers: int) -> None:
        self.spec = spec
        self.seed = seed
        self.num_papers = num_papers
        if spec.fleet:
            rng = random.Random(f"{seed}:catalogue")
            ids = rng.sample(range(num_papers),
                             CATALOGUE_BODIES * IDS_PER_REQUEST)
            self.catalogue = [ids[i:i + IDS_PER_REQUEST]
                              for i in range(0, len(ids), IDS_PER_REQUEST)]
            self.payloads = [loadgen.predict_request(b)
                             for b in self.catalogue]
            weights = [1.0 / (k + 1) ** ZIPF_S
                       for k in range(CATALOGUE_BODIES)]
            self.cum_weights = list(np.cumsum(weights))

    def phase(self, label: str, rate: float, count: int):
        """(payloads, ids per request, due offsets) for one phase."""
        rng = random.Random(f"{self.seed}:{label}:{rate:.3f}")
        due = loadgen.poisson_schedule(rate, count, rng)
        if self.spec.fleet:
            picks = rng.choices(range(CATALOGUE_BODIES),
                                cum_weights=self.cum_weights, k=len(due))
            ids = [self.catalogue[k] for k in picks]
            payloads = [self.payloads[k] for k in picks]
        else:
            ids = [rng.sample(range(self.num_papers), IDS_PER_REQUEST)
                   for _ in due]
            payloads = [loadgen.predict_request(b) for b in ids]
        return payloads, ids, due


class Session:
    """One server and the client that loads it, on one event loop."""

    def __init__(self, server: servers.Server, traffic: Traffic,
                 phases: list) -> None:
        self.server = server
        self.traffic = traffic
        self.loop = loadgen.event_loop()
        self.client = loadgen.OpenLoopClient(server.host, server.port,
                                             CONNECTIONS)
        #: (label, result, paper ids per request) of every phase so far,
        #: shared by the sessions of one run.
        self.phases: List[Tuple[str, loadgen.PhaseResult, list]] = phases

    def run(self, label: str, rate: float,
            count: int) -> loadgen.PhaseResult:
        """``count`` Poisson arrivals at ``rate``; waits for the answers."""
        payloads, ids, due = self.traffic.phase(label, rate, count)
        result = self.loop.run_until_complete(
            self.client.run_phase(payloads, due, rate))
        self.phases.append((label, result, ids))
        return result

    def close(self, sig: int = signal.SIGTERM) -> None:
        """Close the connections and stop the server (idempotent)."""
        if self.loop.is_closed():
            return
        try:
            self.loop.run_until_complete(self.client.close())
            self.loop.close()
        finally:
            self.server.stop(sig)


def _fit_checkpoint(workdir: Path):
    dataset = build_dataset(SERVE_WORLD)
    est = CATEHGN(model_config(**CHECKPOINT_FIT)).fit(dataset)
    path = est.save_checkpoint(workdir / "model")
    return dataset, est, str(path)


def _boot(spec: ServeSpec, ckpt: str,
          argv: Optional[List[str]] = None) -> servers.Server:
    server = servers.Server(argv or spec.argv(ckpt), cwd=servers.ROOT)
    healthy = servers.wait_until(
        lambda: _healthy(server), timeout=servers.BOOT_TIMEOUT)
    if not healthy:
        server.stop()
        raise RuntimeError(f"{spec.name}: server never became healthy")
    return server


def _healthy(server: servers.Server) -> bool:
    try:
        server.get_json("/healthz")
        return True
    except (OSError, RuntimeError, ValueError):
        return False


def _set_up(spec: ServeSpec, seed: int, workdir: Path, phases: list):
    """One set-up round; ``(session, dataset, ckpt, seconds, epochs)``."""
    t0 = time.perf_counter()
    dataset, est, ckpt = _fit_checkpoint(workdir)
    traffic = Traffic(spec, seed, dataset.graph.num_nodes["paper"])
    session = Session(_boot(spec, ckpt), traffic, phases)
    try:
        session.run("warmup", spec.ref_rate, WARMUP)
    except BaseException:
        session.close()
        raise
    return (session, dataset, ckpt, time.perf_counter() - t0,
            est.history.iter_seconds)


def _server_cpu(pids: Sequence[int]) -> Dict[int, float]:
    return {pid: servers.cpu_seconds(pid) for pid in pids}


def _check(session: Session, dataset, ckpt: str,
           errors: List[str]) -> float:
    """Bitwise check of sampled responses; served validation RMSE."""
    engine = InferenceEngine.from_checkpoint(ckpt, cache_size=0)
    rng = random.Random(f"{session.traffic.seed}:check")
    answered = [(o, ids) for _, phase, batch in session.phases
                for o, ids in zip(phase.outcomes, batch) if o.ok]
    sample = rng.sample(answered, min(CHECK_SAMPLE, len(answered)))
    if len(sample) < CHECK_SAMPLE:
        errors.append(f"only {len(sample)} answered requests to check")
    mismatched = 0
    for outcome, ids in sample:
        served = json.loads(outcome.body)["predictions"]
        expect = engine.predict(ids).tolist()
        mismatched += served != expect
    if mismatched:
        errors.append(f"{mismatched} of {len(sample)} sampled responses "
                      "differ from offline InferenceEngine.predict")
    val_ids = [int(i) for i in dataset.val_idx]
    served = servers.post_json(session.server.host, session.server.port,
                               "/predict", {"paper_ids": val_ids})
    preds = served["predictions"]
    if preds != engine.predict(val_ids).tolist():
        errors.append("served validation predictions differ from offline")
    value = rmse(dataset.labels[dataset.val_idx], np.asarray(preds))
    if not math.isfinite(value):
        errors.append(f"served val_rmse is not finite: {value!r}")
    return value


def _totals(phases) -> Tuple[int, int]:
    attempted = sum(len(p.outcomes) for _, p, _ in phases)
    failed = sum(p.failed for _, p, _ in phases)
    return attempted, failed


def _accounting(phases) -> List[str]:
    return [f"{label}: " + json.dumps(phase.accounting())
            for label, phase, _ in phases]


def _pooled(chunks: Sequence[loadgen.PhaseResult]) -> List[float]:
    return [x for c in chunks for x in c.latencies()]


@dataclass
class _Round:
    setup_s: float
    epochs: List[float]
    chunks: List[loadgen.PhaseResult]  # at the reference rate
    cpu_s: float  # all server processes, over the reference chunks
    max_rates: List[Optional[float]]
    rss_mb: float  # summed over the server processes


def _measure(spec: ServeSpec, session: Session, index: int, seconds: float,
             rates: List[Optional[float]]):
    """PASSES ladder passes, each step followed by a reference chunk, and
    one chunk before the first step; ``(chunks, server cpu seconds over
    them, max rates, rss)``.  ``rates`` holds the passes of earlier rounds
    and places each pass's start."""
    pids = session.server.pids()
    count = round(seconds / REF_SHARE * spec.ref_rate)
    chunks: List[loadgen.PhaseResult] = []
    cpu = [0.0]
    mine: List[Optional[float]] = []

    def reference() -> None:
        cpu0 = _server_cpu(pids)
        chunks.append(session.run(f"reference{index}.{len(chunks)}",
                                  spec.ref_rate, count))
        cpu1 = _server_cpu(pids)
        cpu[0] += sum(cpu1[p] - cpu0[p] for p in pids)

    def step(rate: float) -> bool:
        phase = session.run(f"ladder{index}.{len(mine)}", rate,
                            round(rate * LADDER_STEP_S))
        passed = loadgen.passes(phase, LIMIT_S)
        reference()
        return passed

    reference()
    for _ in range(PASSES):
        start = loadgen.next_start(rates + mine, LADDER_START, LADDER_FLOOR)
        mine.append(loadgen.ladder(step, start, LADDER_FLOOR))
    rss = sum(servers.peak_rss_mb(pid) for pid in pids)
    return chunks, cpu[0], mine, rss


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool,
        trace_path: Optional[str], workdir: Path):
    """Returns ``(errors, attempted, failed, metrics, notes)``."""
    if trace:
        return _run_traced(spec, seed, trace_path, workdir)
    errors: List[str] = []
    phases: list = []
    rounds: List[_Round] = []
    for index in range(ROUNDS):
        session, dataset, ckpt, setup_s, epochs = _set_up(spec, seed,
                                                          workdir, phases)
        try:
            measured = _measure(spec, session, index, seconds,
                                [x for r in rounds for x in r.max_rates])
            if index == ROUNDS - 1:
                val_rmse = _check(session, dataset, ckpt, errors)
        finally:
            session.close()
        rounds.append(_Round(setup_s, epochs, *measured))

    chunks = [c for r in rounds for c in r.chunks]
    latencies = _pooled(chunks)
    # A pass that found no rate down to the floor counts as 0.
    rates = [rate or 0.0 for r in rounds for rate in r.max_rates]
    if median(rates) <= 0.0:
        errors.append(f"no ladder rate down to {LADDER_FLOOR:.1f}/s "
                      f"passed in most passes: {rates}")
    answered = sum(c.ok for c in chunks)
    attempted, failed = _totals(phases)
    metrics = common_metrics([r.setup_s for r in rounds], attempted, failed)
    metrics.update({
        # The checkpoint fit's outer iterations differ in kind (TE rewrites
        # the graph in the second), so each round gives its mean.
        "epoch_s": (median([sum(r.epochs) / len(r.epochs) for r in rounds]),
                    "s"),
        "val_rmse": (val_rmse, "rmse"),
        "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "max_rate_rps": (median(rates), "1/s"),
        "cpu_ms_per_req": (sum(r.cpu_s for r in rounds) / max(1, answered)
                           * 1e3, "ms"),
        "peak_rss_mb": (median([r.rss_mb for r in rounds]), "MB"),
    })
    late = [x for c in chunks for x in c.lateness()]
    tail_p, tail_v = tail(latencies)
    notes = _accounting(phases) + [
        "set-up rounds (s): " + ", ".join(f"{r.setup_s:.3f}" for r in rounds),
        "checkpoint fit outer iterations (s): " + "; ".join(
            ", ".join(f"{e:.3f}" for e in r.epochs) for r in rounds),
        f"reference {spec.ref_rate:g}/s: {len(latencies)} requests in "
        f"{len(chunks)} chunks of {len(chunks[0].outcomes)}; p50 "
        f"{percentile(latencies, 50) * 1e3:.3f} ms, p{tail_p} "
        f"{tail_v * 1e3:.3f} ms; round p50 "
        + ", ".join(f"{percentile(_pooled(r.chunks), 50) * 1e3:.3f}"
                    for r in rounds) + " ms",
        "ladder passes (1/s): " + ", ".join(f"{v:.1f}" for v in rates),
        f"generator: lateness p99 {percentile(late, 99) * 1e3:.3f} ms, "
        f"cpu {sum(c.cpu_s for c in chunks):.3f} s over "
        f"{sum(c.wall_s for c in chunks):.3f} s",
    ]
    return errors, attempted, failed, metrics, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _batching(server: servers.Server) -> List[dict]:
    """``/metrics`` of every replica (the server itself when direct)."""
    payload = server.get_json("/metrics")
    if "replicas" in payload:
        return list(payload["replicas"].values())
    return [payload]


def _delta(before: List[dict], after: List[dict], section: str,
           key: str) -> float:
    return sum(a[section][key] - b[section][key]
               for b, a in zip(before, after))


def _affinity(phase: loadgen.PhaseResult, ids: List[list]) -> float:
    """Share of repeated bodies answered by the replica that took the
    body's first occurrence."""
    owner: Dict[tuple, str] = {}
    same = repeats = 0
    for outcome, body in zip(phase.outcomes, ids):
        if not outcome.ok:
            continue
        key = tuple(body)
        if key in owner:
            repeats += 1
            same += outcome.replica == owner[key]
        else:
            owner[key] = outcome.replica
    return same / repeats if repeats else 0.0


def _run_traced(spec: ServeSpec, seed: int, trace_path: Optional[str],
                workdir: Path):
    """One set-up round, then one traced window at the reference rate.

    ``serve_direct`` first runs an untraced window on the plain server,
    then restarts it under ``trace_server.py``; its per-layer figures come
    from the spans inside the traced window.  Nothing is installed in the
    fleet: its figures come from ``/metrics``, ``/fleet/status`` and
    ``/proc``, and it has no tracing overhead to report.
    """
    errors: List[str] = []
    phases: list = []
    session, dataset, ckpt, _, _ = _set_up(spec, seed, workdir, phases)
    spans_path = workdir / "server-spans.jsonl"
    untraced_p50 = None
    try:
        if not spec.fleet:
            plain = session.run("untraced", spec.ref_rate, TRACE_WINDOW)
            untraced_p50 = percentile(plain.latencies(), 50)
            session.close()
            argv = ["perfbench/trace_server.py", str(spans_path),
                    *spec.argv(ckpt)[2:]]
            session = Session(_boot(spec, ckpt, argv=argv), session.traffic,
                              phases)
            session.run("warmup", spec.ref_rate, WARMUP)
        pids = session.server.pids()
        before = _batching(session.server)
        status0 = (session.server.get_json("/fleet/status")
                   if spec.fleet else None)
        cpu0 = _server_cpu(pids)
        traced = session.run("traced", spec.ref_rate, TRACE_WINDOW)
        cpu1 = _server_cpu(pids)
        after = _batching(session.server)
        status1 = (session.server.get_json("/fleet/status")
                   if spec.fleet else None)
        val_rmse = _check(session, dataset, ckpt, errors)
    finally:
        # SIGINT: the launcher writes its spans on the way out.
        session.close(signal.SIGINT)

    rec = SpanRecorder()
    _, _, ids = phases[-1]
    for outcome, body in zip(traced.outcomes, ids):
        if outcome.ok:
            rec.add("loadgen.request", outcome.due, outcome.done,
                    rid=",".join(map(str, body)))
    server_spans = [] if spec.fleet else read_jsonl(str(spans_path))
    if trace_path:
        rec.write_jsonl(trace_path, extra=server_spans)

    client_lat = traced.latencies()
    client_p50 = percentile(client_lat, 50)
    ok = max(1, traced.ok)
    metrics = {
        "serve.aio.mean_batch_size": (
            _delta(before, after, "batching", "batched_requests")
            / max(1.0, _delta(before, after, "batching", "batches")),
            "count"),
        "serve.cache.hit_rate": (
            _delta(before, after, "cache", "hits")
            / max(1.0, _delta(before, after, "cache", "hits")
                  + _delta(before, after, "cache", "misses")), "ratio"),
        "loadgen.p95_ms": (percentile(client_lat, 95) * 1e3, "ms"),
        "loadgen.p99_ms": (percentile(client_lat, 99) * 1e3, "ms"),
        "loadgen.late_ms_p99": (percentile(traced.lateness(), 99) * 1e3,
                                "ms"),
        "loadgen.cpu_s": (traced.cpu_s, "s"),
    }
    if spec.fleet:
        metrics.update(_fleet_layers(traced, ids, after, pids, cpu0, cpu1,
                                     status0, status1, client_p50, ok))
        metrics["trace.spans"] = (len(rec.spans), "count")
    else:
        metrics.update(_direct_layers(traced, rec, server_spans, errors))
        metrics["trace.overhead_share"] = (client_p50 / untraced_p50 - 1.0,
                                           "ratio")
    attempted, failed = _totals(phases)
    notes = _accounting(phases) + [
        f"client p50 {client_p50 * 1e3:.3f} ms traced"
        + (f" vs {untraced_p50 * 1e3:.3f} ms untraced" if untraced_p50
           else "") + f"; served val_rmse {val_rmse:.4f}"]
    return errors, attempted, failed, metrics, notes


def _durations(spans: List[dict], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name] \
        or [0.0]


def _direct_layers(traced: loadgen.PhaseResult, rec: SpanRecorder,
                   server_spans: List[dict], errors: List[str]) -> dict:
    """Per-layer figures of ``serve_direct`` from the server spans that lie
    inside the traced window (not the warm-up or the output check)."""
    lo = min(o.due for o in traced.outcomes)
    hi = max(o.done for o in traced.outcomes if o.done is not None)
    window = [s for s in server_spans if lo <= s["start"] and s["end"] <= hi]
    submit = {s["rid"]: s["end"] - s["start"] for s in window
              if s["name"] == "serve.aio.submit"}
    framing, covered, wall = [], 0.0, 0.0
    for span in rec.spans:
        inner = submit.get(span["rid"])
        if inner is not None:
            outer = span["end"] - span["start"]
            framing.append(outer - inner)
            covered += inner
            wall += outer
    if not framing:
        errors.append("no server spans matched client requests")
        framing, wall = [0.0], 1.0
    submit_s = list(submit.values()) or [0.0]
    queue_s = _durations(window, "serve.aio.queue_wait")
    return {
        "serve.aio.submit_ms_p50": (percentile(submit_s, 50) * 1e3, "ms"),
        "serve.aio.submit_ms_p99": (tail(submit_s)[1] * 1e3, "ms"),
        "serve.aio.queue_wait_ms_p50": (percentile(queue_s, 50) * 1e3, "ms"),
        "serve.aio.queue_wait_ms_p99": (tail(queue_s)[1] * 1e3, "ms"),
        "serve.aio.compute_ms_p50": (percentile(
            _durations(window, "serve.aio.compute"), 50) * 1e3, "ms"),
        "serve.engine.predict_ms_p50": (percentile(
            _durations(window, "serve.engine.predict"), 50) * 1e3, "ms"),
        "serve.framing_ms_p50": (percentile(framing, 50) * 1e3, "ms"),
        "trace.coverage_share": (covered / wall, "ratio"),
        "trace.spans": (len(rec.spans) + len(server_spans), "count"),
    }


def _fleet_layers(traced: loadgen.PhaseResult, ids: List[list],
                  after: List[dict], pids: List[int], cpu0: dict,
                  cpu1: dict, status0: dict, status1: dict,
                  client_p50: float, ok: int) -> dict:
    """Per-layer figures of ``serve_fleet``, measured from outside.

    The replicas' latency reservoirs cover their whole life, which in the
    traced run is the warm-up (WARMUP requests) and the traced window.
    """
    replica_p50 = median([m["endpoints"]["/predict"]["latency_ms_p50"]
                          for m in after]) / 1e3
    router_pid, replica_pids = pids[0], pids[1:]
    return {
        "serve.aio.queue_wait_ms_p50": (median(
            [m["batching"]["queue_wait_ms_p50"] for m in after]), "ms"),
        "serve.aio.queue_wait_ms_p99": (max(
            m["batching"]["queue_wait_ms_p99"] for m in after), "ms"),
        "serve.aio.compute_ms_p50": (median(
            [m["batching"]["compute_ms_p50"] for m in after]), "ms"),
        "fleet.router.hop_ms_p50": ((client_p50 - replica_p50) * 1e3, "ms"),
        "fleet.router.cpu_ms_per_req": (
            (cpu1[router_pid] - cpu0[router_pid]) / ok * 1e3, "ms"),
        "fleet.replica.cpu_ms_per_req": (
            sum(cpu1[p] - cpu0[p] for p in replica_pids) / ok * 1e3, "ms"),
        "fleet.affinity_share": (_affinity(traced, ids), "ratio"),
        "fleet.router.failovers": (status1["router"]["failovers"]
                                   - status0["router"]["failovers"],
                                   "count"),
        "trace.coverage_share": (replica_p50 / client_p50, "ratio"),
    }
