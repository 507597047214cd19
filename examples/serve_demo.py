"""Serving demo: train CATE-HGN, checkpoint it, and serve predictions.

Walks the whole production path from DESIGN.md §11: fit → versioned
.npz checkpoint → frozen tape-free InferenceEngine → JSON HTTP service,
then queries every endpoint the way a client would.

Run:  python examples/serve_demo.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import CATEHGN, CATEHGNConfig
from repro.data import WorldConfig, make_dblp_full
from repro.serve import BackgroundAsyncServer, InferenceEngine


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Train a small CATE-HGN (same recipe as quickstart.py).
    dataset = make_dblp_full(WorldConfig(num_papers=400, num_authors=100,
                                         seed=1))
    config = CATEHGNConfig(dim=16, attention_heads=2, outer_iters=6,
                           mini_iters=4, lr=0.015, kappa=30, seed=0)
    model = CATEHGN(config).fit(dataset)
    reference = model.predict()

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Persist: one versioned .npz (parameters, config, label scaler,
        #    text embeddings) plus a graph sidecar for the snapshot.
        path = model.save_checkpoint(Path(tmp) / "model")
        size_kb = Path(path).stat().st_size / 1024
        print(f"checkpoint: {path} ({size_kb:.0f} KiB)")

        # 3. Restore into an inference engine: one tape-free forward
        #    freezes every node embedding; queries never run message
        #    passing again.
        engine = InferenceEngine.from_checkpoint(path)

    print(f"freeze forward: {engine.freeze_seconds * 1e3:.1f} ms "
          f"({engine.num_papers} papers)")

    # 4. Predictions are bitwise-identical to the estimator's.
    served = engine.predict_all()
    assert np.array_equal(reference, served)
    print(f"bitwise match vs estimator: {np.array_equal(reference, served)}")

    # 5. Table-III-style impact ranking, and cold-start scoring of a
    #    paper the model has never seen, straight from its title.
    print("\ntop-3 authors by predicted impact:")
    for row in engine.rank("author", k=3):
        print(f"  #{row['id']:<4d} {row['name']:<30s} {row['score']:6.2f}")
    title = "cluster aware heterogeneous network mining"
    print(f"\ncold-start score for {title!r}: "
          f"{engine.score_title(title):.2f} cites/yr")

    # 6. Serve it over HTTP (ephemeral port here; in production:
    #    `repro-serve model.npz --port 8099`).
    server = BackgroundAsyncServer(engine)
    host, port = server.start()
    base = f"http://{host}:{port}"
    print(f"\nserving on {base}")

    print("GET  /healthz ->", _get(base, "/healthz"))
    print("GET  /predict?ids=0,1,2 ->", _get(base, "/predict?ids=0,1,2"))
    print("POST /predict {'title': ...} ->",
          _post(base, "/predict", {"title": title}))
    print("POST /rank {'node_type': 'venue', 'k': 2} ->",
          _post(base, "/rank", {"node_type": "venue", "k": 2}))
    metrics = _get(base, "/metrics")
    print(f"GET  /metrics -> {metrics['total_requests']} requests, "
          f"p50 {metrics['endpoints']['/predict']['latency_ms_p50']:.2f} ms, "
          f"cache hit rate {metrics['cache']['hit_rate']:.2f}")

    server.shutdown()


if __name__ == "__main__":
    main()
