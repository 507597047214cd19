"""Degraded-mode serving: breaker, fallback chain, hot-reload gates.

Covers DESIGN §13's serving half with exact-count assertions:

- :class:`CircuitBreaker` state machine under an injectable clock
  (closed → open → half-open probe → closed/re-open), single probe
  token, trip-once under 8-thread failure bursts;
- :class:`ServingRuntime` fallback chain model → cache → prior with
  ``source``/``degraded`` tagging, client errors never moving the
  breaker, deadline accounting;
- HTTP surface: 200-from-prior under engine fault (zero 5xx), breaker
  state in ``/healthz``, exact fallback counters in ``/metrics``;
- hot reload shadow-validation gates: golden-parity failure and
  contract failure each leave the old engine serving.
"""

import json
import shutil
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    BackgroundAsyncServer,
    BatchSettings,
    CircuitBreaker,
    LRUCache,
    ReloadRejected,
    ServiceMetrics,
    ServingRuntime,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN


# ----------------------------------------------------------------------
# Deterministic fakes
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class FakePrior:
    """Prior head stub: constant answer, call counting."""

    def __init__(self, value: float = 7.0) -> None:
        self.value = value
        self.calls = 0

    def predict(self, ids):
        self.calls += 1
        return np.full(len(np.asarray(ids).reshape(-1)), self.value)


class FlakyEngine:
    """Duck-typed engine whose model path can be made to fail or stall."""

    def __init__(self, num_papers: int = 32, prior: bool = True) -> None:
        self.num_papers = num_papers
        self.freeze_seconds = 0.0
        self.cache = LRUCache(64)
        self.micro_batch = 8
        self.prior = FakePrior() if prior else None
        self.fail = False
        self.delay = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def info(self) -> dict:
        return {"num_papers": self.num_papers, "stub": True}

    def predict(self, paper_ids):
        ids = np.asarray(paper_ids, dtype=np.intp).reshape(-1)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.num_papers):
            raise IndexError(f"paper id out of range [0, {self.num_papers})")
        with self._lock:
            self.calls += 1
        if self.fail:
            raise RuntimeError("engine is sick")
        if self.delay:
            time.sleep(self.delay)
        for pid in ids:
            self.cache.put(int(pid), float(pid))
        return ids.astype(np.float64)

    def rank(self, node_type, k=10, cluster=None):
        return []

    def score_title(self, title) -> float:
        return 1.0


# ----------------------------------------------------------------------
# CircuitBreaker state machine (injectable clock)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, recovery=5.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              recovery_seconds=recovery, clock=clock), clock

    def test_stays_closed_below_threshold(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure("e1")
        breaker.record_failure("e2")
        assert breaker.state == CLOSED and breaker.allow()
        # A success resets the consecutive counter: two more failures
        # still do not trip.
        breaker.record_success()
        breaker.record_failure("e3")
        breaker.record_failure("e4")
        assert breaker.state == CLOSED
        assert breaker.snapshot()["trips"] == 0

    def test_threshold_failures_open(self):
        breaker, _ = self.make(threshold=3)
        for i in range(3):
            assert breaker.allow()
            breaker.record_failure(f"e{i}")
        assert breaker.state == OPEN
        assert not breaker.allow()
        snap = breaker.snapshot()
        assert snap["trips"] == 1 and snap["failures"] == 3
        assert snap["rejected"] == 1
        assert snap["last_failure_reason"] == "e2"

    def test_half_open_single_probe_token(self):
        breaker, clock = self.make(threshold=1, recovery=5.0)
        breaker.record_failure("boom")
        assert not breaker.allow()
        clock.now += 5.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()        # the one probe
        assert not breaker.allow()    # everyone else still rejected
        assert breaker.snapshot()["probes"] == 1

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1)
        breaker.record_failure("boom")
        clock.now += 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() and breaker.allow()  # fully reopened
        assert breaker.snapshot()["recoveries"] == 1

    def test_probe_failure_reopens_and_restarts_clock(self):
        breaker, clock = self.make(threshold=1, recovery=5.0)
        breaker.record_failure("boom")
        clock.now += 5.0
        assert breaker.allow()
        breaker.record_failure("still sick")
        assert breaker.state == OPEN
        clock.now += 4.9  # recovery clock restarted at the probe failure
        assert not breaker.allow()
        clock.now += 0.1
        assert breaker.allow()
        assert breaker.snapshot()["trips"] == 2

    def test_reset_closes(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure("boom")
        breaker.reset()
        assert breaker.state == CLOSED and breaker.allow()

    def test_trip_once_under_concurrent_failures(self, run_threads):
        """8 threads hammering failures: exactly one closed→open trip."""
        breaker, _ = self.make(threshold=4)

        def slam(tid):
            for _ in range(16):
                breaker.allow()
                breaker.record_failure("burst")

        run_threads(slam, count=8)
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["trips"] == 1
        assert snap["failures"] == 8 * 16

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# ServingRuntime fallback chain
# ----------------------------------------------------------------------
class TestFallbackChain:
    def make(self, threshold=2, prior=True, deadline=None):
        engine = FlakyEngine(prior=prior)
        clock = FakeClock()
        runtime = ServingRuntime(
            engine,
            breaker=CircuitBreaker(failure_threshold=threshold,
                                   recovery_seconds=60.0, clock=clock),
            deadline_seconds=deadline,
        )
        return runtime, engine, clock

    def test_model_source_when_healthy(self):
        runtime, _, _ = self.make()
        out = runtime.predict([1, 2, 3])
        assert out["source"] == "model" and out["degraded"] is False
        np.testing.assert_array_equal(out["predictions"], [1.0, 2.0, 3.0])
        assert runtime.snapshot()["served"] == {
            "model": 1, "cache": 0, "prior": 0, "unserved": 0}

    def test_client_error_propagates_and_never_moves_breaker(self):
        runtime, _, _ = self.make()
        with pytest.raises(IndexError):
            runtime.predict([10_000])
        snap = runtime.snapshot()
        assert snap["breaker"]["failures"] == 0
        assert snap["served"] == {"model": 0, "cache": 0, "prior": 0,
                                  "unserved": 0}

    def test_prior_fallback_then_breaker_open(self):
        runtime, engine, _ = self.make(threshold=2)
        engine.fail = True
        out1 = runtime.predict([5])
        out2 = runtime.predict([6])
        assert out1["source"] == out2["source"] == "prior"
        assert out1["degraded"] is True
        np.testing.assert_array_equal(out1["predictions"], [7.0])
        snap = runtime.snapshot()
        assert snap["breaker"]["state"] == OPEN
        # Once open, the model path is not even attempted.
        calls_before = engine.calls
        out3 = runtime.predict([8])
        assert out3["source"] == "prior" and engine.calls == calls_before
        assert runtime.snapshot()["served"]["prior"] == 3

    def test_cache_beats_prior_but_only_on_full_hit(self):
        runtime, engine, _ = self.make(threshold=1)
        runtime.predict([4, 5])      # healthy: populates the cache
        engine.fail = True
        runtime.predict([9])         # trips the breaker (threshold 1)
        full_hit = runtime.predict([4, 5])
        assert full_hit["source"] == "cache" and full_hit["degraded"]
        np.testing.assert_array_equal(full_hit["predictions"], [4.0, 5.0])
        partial = runtime.predict([4, 19])   # 19 never cached
        assert partial["source"] == "prior"  # all-or-nothing cache reads
        assert runtime.snapshot()["served"] == {
            "model": 1, "cache": 1, "prior": 2, "unserved": 0}

    def test_no_fallback_reraises_engine_error(self):
        runtime, engine, _ = self.make(threshold=1, prior=False)
        engine.fail = True
        with pytest.raises(RuntimeError, match="engine is sick"):
            runtime.predict([1])
        assert runtime.snapshot()["served"]["unserved"] == 1

    def test_deadline_violation_returns_answer_but_counts_failure(self):
        runtime, engine, _ = self.make(threshold=2, deadline=0.01)
        engine.delay = 0.05
        out = runtime.predict([3])
        # The answer is correct and served (it is merely late) ...
        assert out["source"] == "model"
        np.testing.assert_array_equal(out["predictions"], [3.0])
        # ... but the breaker heard about it.
        snap = runtime.snapshot()["breaker"]
        assert snap["failures"] == 1
        assert snap["last_failure_reason"] == "deadline"

    def test_concurrent_prior_fallback_exact_counters(self, run_threads):
        """8 threads against a dead engine: every request answered by the
        prior, zero unserved, breaker tripped exactly once."""
        runtime, engine, _ = self.make(threshold=1)
        engine.fail = True

        def slam(tid):
            for _ in range(8):
                out = runtime.predict([11])
                assert out["source"] == "prior" and out["degraded"]

        run_threads(slam, count=8)
        snap = runtime.snapshot()
        assert snap["served"]["prior"] == 8 * 8
        assert snap["served"]["unserved"] == 0
        assert snap["breaker"]["trips"] == 1


# ----------------------------------------------------------------------
# HTTP surface: tagging, healthz, metrics
# ----------------------------------------------------------------------
@pytest.fixture()
def degraded_server():
    engine = FlakyEngine()
    runtime = ServingRuntime(engine, breaker=CircuitBreaker(
        failure_threshold=2, recovery_seconds=60.0, clock=FakeClock()))
    # One request per flush: the runtime's served counters then count
    # requests, which the exact-count assertions below rely on.
    bg = BackgroundAsyncServer(engine, runtime=runtime,
                               metrics=ServiceMetrics(),
                               settings=BatchSettings(max_batch_size=1))
    host, port = bg.start()
    yield engine, runtime, f"http://{host}:{port}"
    bg.shutdown()


def _call(method, url, body=None, timeout=10):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPDegraded:
    def test_source_tagging_and_exact_counters(self, degraded_server):
        engine, runtime, base = degraded_server
        status, body = _call("POST", base + "/predict",
                             {"paper_ids": [0, 1]})
        assert status == 200
        assert body["source"] == "model" and body["degraded"] is False

        engine.fail = True
        for _ in range(3):  # 2 trip the breaker, 1 served while open
            status, body = _call("POST", base + "/predict",
                                 {"paper_ids": [9]})
            assert status == 200, "engine fault must never surface as 5xx"
            assert body["source"] == "prior" and body["degraded"] is True
        status, body = _call("GET", base + "/predict?ids=0,1")
        assert status == 200
        assert body["source"] == "cache" and body["degraded"] is True

        status, health = _call("GET", base + "/healthz")
        assert status == 200
        assert health["status"] == "degraded" and health["breaker"] == OPEN

        status, metrics = _call("GET", base + "/metrics")
        assert status == 200
        assert metrics["served"] == {"model": 1, "cache": 1, "prior": 3,
                                     "unserved": 0}
        breaker = metrics["breaker"]
        assert breaker["state"] == OPEN
        assert breaker["trips"] == 1 and breaker["failures"] == 2
        # No request errored at the HTTP layer.
        assert all(ep["errors"] == 0
                   for ep in metrics["endpoints"].values())

    def test_client_errors_are_400_not_breaker_food(self, degraded_server):
        engine, runtime, base = degraded_server
        status, body = _call("POST", base + "/predict",
                             {"paper_ids": [10_000]})
        assert status == 400
        status, metrics = _call("GET", base + "/metrics")
        assert metrics["breaker"]["failures"] == 0
        assert metrics["breaker"]["state"] == CLOSED

    def test_eight_thread_load_zero_5xx(self, degraded_server, run_threads):
        engine, runtime, base = degraded_server
        engine.fail = True
        results = []
        lock = threading.Lock()

        def slam(tid):
            for _ in range(6):
                status, body = _call("POST", base + "/predict",
                                     {"paper_ids": [3]})
                with lock:
                    results.append((status, body.get("source"),
                                    body.get("degraded")))

        run_threads(slam, count=8)
        assert len(results) == 48
        assert all(status == 200 for status, _, _ in results)
        assert all(source == "prior" and degraded
                   for _, source, degraded in results)
        status, metrics = _call("GET", base + "/metrics")
        assert metrics["served"]["prior"] == 48
        assert metrics["served"]["unserved"] == 0
        assert metrics["breaker"]["trips"] == 1


# ----------------------------------------------------------------------
# Hot reload shadow-validation gates (real checkpoints)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_tiny(tiny_dataset):
    from repro.core import CATEHGN, CATEHGNConfig

    config = CATEHGNConfig(dim=8, num_layers=2, outer_iters=2, mini_iters=2,
                           center_iters=1, kappa=12, num_clusters=4,
                           patience=10, seed=0)
    return CATEHGN(config).fit(tiny_dataset)


class TestReloadGates:
    def _runtime(self, path):
        from repro.serve import InferenceEngine

        return ServingRuntime(InferenceEngine.from_checkpoint(path))

    def test_good_reload_swaps_and_resets(self, fitted_tiny, tmp_path):
        from repro.serve import save_catehgn

        path = save_catehgn(fitted_tiny, tmp_path / "model.npz")
        runtime = self._runtime(path)
        old = runtime.engine
        runtime.breaker.record_failure("x")  # some history to reset
        out = runtime.reload(path)
        assert out["reloaded"] is True and out["golden_checked"] > 0
        assert runtime.engine is not old
        assert runtime.snapshot()["reloads"] == 1
        assert runtime.breaker.state == CLOSED

    def test_golden_parity_failure_rejected(self, fitted_tiny, tmp_path):
        from repro.serve import save_catehgn
        from repro.serve.checkpoint import load_checkpoint, save_checkpoint

        path = save_catehgn(fitted_tiny, tmp_path / "model.npz")
        ckpt = load_checkpoint(path)
        extras = dict(ckpt.extras)
        extras["golden_preds"] = np.asarray(extras["golden_preds"]) + 0.5
        meta = {k: v for k, v in ckpt.meta.items()
                if k not in ("format_version", "content_sha256")}
        tampered = save_checkpoint(tmp_path / "tampered.npz", meta,
                                   ckpt.state, extras)

        runtime = self._runtime(path)
        old = runtime.engine
        with pytest.raises(ReloadRejected, match="golden-batch parity"):
            runtime.reload(tampered)
        assert runtime.engine is old  # old engine keeps serving
        assert runtime.predict([0])["source"] == "model"
        assert runtime.snapshot()["reloads_rejected"] == 1

    def test_contract_failure_rejected(self, fitted_tiny, tmp_path):
        from repro.data.io import save_graph
        from repro.hetnet.graph import EdgeArray
        from repro.serve import restore_catehgn, save_catehgn

        path = save_catehgn(fitted_tiny, tmp_path / "model.npz")
        # Candidate dir: same checkpoint, but its graph sidecar poisoned
        # with a dangling citation edge (the checkpoint digest covers
        # params/extras, not the sidecar — exactly the gap the contract
        # gate exists to close).
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        shutil.copy(path, bad_dir / "model.npz")
        graph = restore_catehgn(path).graph
        key = ("paper", "cites", "paper")
        edge = graph.edges[key]
        graph.edges[key] = EdgeArray(
            np.append(edge.src, graph.num_nodes["paper"] + 3),
            np.append(edge.dst, 0), np.append(edge.weight, 1.0))
        graph._topology_version += 1
        save_graph(graph, bad_dir / "model_graph")

        runtime = self._runtime(path)
        old = runtime.engine
        with pytest.raises(ReloadRejected) as excinfo:
            runtime.reload(bad_dir / "model.npz")
        assert runtime.engine is old
        assert runtime.snapshot()["reloads_rejected"] == 1
        # Either gate may fire first depending on load-path validation;
        # both mean "the candidate never went live".
        assert ("contract" in excinfo.value.reason
                or "load failed" in excinfo.value.reason)

    def test_corrupt_file_rejected(self, fitted_tiny, tmp_path):
        from repro.serve import save_catehgn

        path = save_catehgn(fitted_tiny, tmp_path / "model.npz")
        bad = tmp_path / "garbage.npz"
        bad.write_bytes(b"definitely not an npz archive")
        runtime = self._runtime(path)
        with pytest.raises(ReloadRejected, match="load failed"):
            runtime.reload(bad)
        assert runtime.snapshot()["reloads_rejected"] == 1
