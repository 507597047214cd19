"""``repro-serve`` over HTTP: boot the server as the CLI builds it
(asyncio, default batching, the engine's default LRU cache) on an
ephemeral port and hit every endpoint; then its command-line flags, and
that it always boots the asyncio server.  Bitwise parity with the
unbatched runtime, backpressure and stress are in ``test_aio_server.py``.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import CATEHGN
from repro.eval.runner import default_cate_config
from repro.serve import BackgroundAsyncServer, InferenceEngine
from repro.serve.__main__ import build_parser, main
from repro.serve.http import MAX_BODY_BYTES, READ_TIMEOUT


@pytest.fixture(scope="module")
def served(tiny_dataset, tmp_path_factory):
    config = default_cate_config(dim=16, seed=0, outer_iters=1, mini_iters=1)
    est = CATEHGN(config).fit(tiny_dataset)
    path = est.save_checkpoint(tmp_path_factory.mktemp("ckpt") / "model")
    engine = InferenceEngine.from_checkpoint(path)
    bg = BackgroundAsyncServer(engine)  # ephemeral port
    host, port = bg.start()
    yield est, engine, f"http://{host}:{port}"
    bg.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, served):
        _est, engine, base = served
        status, body = _get(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["num_papers"] == engine.num_papers

    def test_predict_get(self, served):
        est, _engine, base = served
        status, body = _get(base + "/predict?ids=0,1,2")
        assert status == 200
        assert body["predictions"] == [float(p) for p in est.predict()[:3]]

    def test_predict_post(self, served):
        est, _engine, base = served
        status, body = _post(base + "/predict", {"paper_ids": [5, 9]})
        assert status == 200
        reference = est.predict()
        assert body["predictions"] == [reference[5], reference[9]]

    def test_predict_cold_start(self, served):
        _est, _engine, base = served
        status, body = _post(base + "/predict",
                             {"title": "mining heterogeneous networks"})
        assert status == 200
        assert body["cold_start"] is True
        assert body["prediction"] >= 0.0

    def test_rank(self, served):
        est, _engine, base = served
        status, body = _post(base + "/rank", {"node_type": "author", "k": 3})
        assert status == 200
        assert len(body["ranking"]) == 3
        best = int(np.argmax(est.node_impacts("author")))
        assert body["ranking"][0]["id"] == best

    def test_metrics_counts_and_latency(self, served):
        _est, _engine, base = served
        before = _get(base + "/metrics")[1]["endpoints"].get("/predict", {})
        _get(base + "/predict?ids=1")
        _get(base + "/predict?ids=1")  # second hit -> cache hit rate > 0
        status, body = _get(base + "/metrics")
        assert status == 200
        assert body["total_requests"] >= 2
        predict = body["endpoints"]["/predict"]
        assert predict["requests"] == before.get("requests", 0) + 2
        assert predict["errors"] == before.get("errors", 0)
        assert predict["latency_ms_p50"] >= 0.0
        assert predict["latency_ms_p99"] >= predict["latency_ms_p50"]
        assert 0.0 <= body["cache"]["hit_rate"] <= 1.0
        assert body["cache"]["hits"] >= 1


class TestErrorHandling:
    def test_unknown_endpoint_404(self, served):
        _est, _engine, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/nope")
        assert err.value.code == 404

    def test_bad_json_400(self, served):
        _est, _engine, base = served
        request = urllib.request.Request(
            base + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_out_of_range_ids_400(self, served):
        _est, _engine, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base + "/predict", {"paper_ids": [10 ** 9]})
        assert err.value.code == 400

    def test_missing_body_400(self, served):
        _est, _engine, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base + "/predict", {})
        assert err.value.code == 400

    def test_bad_rank_type_400(self, served):
        _est, _engine, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base + "/rank", {"node_type": "galaxy"})
        assert err.value.code == 400

    def test_errors_counted_in_metrics(self, served):
        _est, _engine, base = served
        before = _get(base + "/metrics")[1]["total_errors"]
        with pytest.raises(urllib.error.HTTPError):
            _get(base + "/definitely-missing")
        _status, body = _get(base + "/metrics")
        assert body["total_errors"] == before + 1
        assert body["endpoints"]["/definitely-missing"]["errors"] == 1


def test_cli_parser():
    args = build_parser().parse_args(["model.npz", "--port", "9000",
                                      "--cache-size", "16"])
    assert args.checkpoint == "model.npz"
    assert args.port == 9000 and args.cache_size == 16
    assert args.max_body_bytes == MAX_BODY_BYTES
    assert args.read_timeout == READ_TIMEOUT


@pytest.mark.parametrize("flags", [["--max-inflight", "8"],
                                   ["--deadline", "2.5"],
                                   ["--max-inflight", "8", "--deadline", "1"]])
def test_cli_rejects_threaded_only_limits_with_aio(flags, capsys):
    """The threaded server's limits are gone: unrecognised, exit 2,
    with or without ``--aio``."""
    for argv in (["model.npz", "--aio", *flags], ["model.npz", *flags]):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_aio_accepts_its_own_flags():
    args = build_parser().parse_args(
        ["model.npz", "--aio", "--cache-size", "0", "--queue-depth", "8",
         "--max-body-bytes", "4096", "--read-timeout", "2"])
    assert args.cache_size == 0 and args.queue_depth == 8
    assert args.max_body_bytes == 4096 and args.read_timeout == 2.0


@pytest.mark.parametrize("aio", [[], ["--aio"]])
def test_cli_always_serves_asyncio(aio, monkeypatch):
    import repro.serve.aio as aio_module
    import repro.serve.engine as engine_module

    calls = []
    monkeypatch.setattr(engine_module.InferenceEngine, "from_checkpoint",
                        classmethod(lambda cls, path, **kw: ("engine", path)))
    monkeypatch.setattr(aio_module, "serve_forever_aio",
                        lambda engine, **kw: calls.append((engine, kw)))
    assert main(["model.npz", "--port", "0", "--queue-depth", "8",
                 "--max-body-bytes", "4096", *aio]) == 0
    [(engine, kwargs)] = calls
    assert engine == ("engine", "model.npz")
    assert kwargs["port"] == 0
    assert kwargs["settings"].max_queue_depth == 8
    assert kwargs["limits"].max_body_bytes == 4096
