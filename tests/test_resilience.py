"""Fault tolerance: atomic writes, snapshots, resume, divergence rollback.

The two headline guarantees pinned here (DESIGN §12):

1. **Bitwise resume** — kill training mid-run, resume from the checkpoint
   directory, and the final model state and predictions are ``==`` (not
   allclose) to an uninterrupted run's, for both the CATE-HGN trainer and
   the supervised-GNN baseline scaffold.
2. **Never half-load** — truncated / bit-flipped / torn snapshot files
   either fall back to the previous good snapshot or raise
   ``CheckpointCorruptError``; no loader ever returns partial state.
"""

import json
import warnings

import numpy as np
import pytest

from repro.baselines import RGCN
from repro.baselines.gnn_common import GNNTrainConfig
from repro.core.model import CATEHGNConfig
from repro.core.trainer import CATEHGN
from repro.nn import Linear
from repro.nn.optim import SGD, Adam
from repro.resilience import (
    CheckpointCorruptError,
    CrashInjected,
    SnapshotStore,
    atomic_write_bytes,
    atomic_write_text,
    content_digest,
    faults,
    file_sha256,
)
from repro.tensor import Tensor


def small_config(**overrides) -> CATEHGNConfig:
    params = dict(dim=8, num_layers=2, outer_iters=4, mini_iters=2,
                  center_iters=1, kappa=12, num_clusters=4, patience=10,
                  seed=0)
    params.update(overrides)
    return CATEHGNConfig(**params)


def states_equal(a, b) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ----------------------------------------------------------------------
# Atomic writes + digests
# ----------------------------------------------------------------------
class TestAtomic:
    def test_roundtrip_and_no_temp_left(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"
        atomic_write_text(target, "world")
        assert target.read_text() == "world"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_failure_leaves_target_intact(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"old")
        with pytest.raises(CrashInjected):
            with faults.kill_before_replace():
                atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_content_digest_sensitive_to_everything(self):
        base = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        d0 = content_digest(base)
        assert d0 == content_digest(
            {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        )
        assert d0 != content_digest({"v": base["w"]})  # name
        assert d0 != content_digest({"w": base["w"].reshape(3, 2)})  # shape
        assert d0 != content_digest({"w": base["w"].astype(np.float32)})
        mutated = base["w"].copy()
        mutated[0, 0] += 1
        assert d0 != content_digest({"w": mutated})  # value

    def test_file_sha256_matches_payload(self, tmp_path):
        f = tmp_path / "x"
        f.write_bytes(b"abc")
        import hashlib

        assert file_sha256(f) == hashlib.sha256(b"abc").hexdigest()


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def make_store(self, tmp_path, keep_last=3):
        store = SnapshotStore(tmp_path, keep_last=keep_last)
        rng = np.random.default_rng(0)
        for step in range(4):
            store.save(step, {"kind": "t", "note": step},
                       {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=3)})
        return store

    def test_roundtrip_and_retention(self, tmp_path):
        store = self.make_store(tmp_path, keep_last=3)
        assert store.steps() == [1, 2, 3]  # step 0 pruned
        snap = store.load(2)
        assert snap.step == 2 and snap.meta["note"] == 2
        assert set(snap.arrays) == {"w", "b"}
        latest = store.load_latest()
        assert latest is not None and latest.step == 3

    def test_truncated_snapshot_falls_back(self, tmp_path):
        store = self.make_store(tmp_path)
        newest = store.path_for(3)
        payload = newest.read_bytes()
        newest.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointCorruptError):
            store.load(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback = store.load_latest()
        assert fallback is not None and fallback.step == 2

    def test_bitflip_fails_checksum(self, tmp_path):
        store = self.make_store(tmp_path)
        newest = store.path_for(3)
        payload = bytearray(newest.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        newest.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptError):
            store.load(3)

    def test_kill_before_replace_keeps_previous(self, tmp_path):
        store = self.make_store(tmp_path)
        before = store.load_latest()
        with pytest.raises(CrashInjected):
            with faults.kill_before_replace():
                store.save(9, {"kind": "t"}, {"w": np.ones(2)})
        after = store.load_latest()
        assert after is not None and after.step == before.step
        assert states_equal(after.arrays, before.arrays)

    def test_torn_write_is_rejected_not_half_loaded(self, tmp_path):
        """truncate_after_write installs a corrupt file; load must refuse."""
        store = self.make_store(tmp_path)
        with faults.truncate_after_write(nbytes=128) as injector:
            store.save(9, {"kind": "t"}, {"w": np.ones((8, 8))})
        assert injector.fired() == 1
        with pytest.raises(CheckpointCorruptError):
            store.load(9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback = store.load_latest()
        assert fallback is not None and fallback.step == 3

    def test_keep_last_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep_last=0)


# ----------------------------------------------------------------------
# Optimizer state round-trips (the substrate of bitwise resume)
# ----------------------------------------------------------------------
class TestOptimizerState:
    def _train_steps(self, opt, layer, steps, rng):
        for _ in range(steps):
            x = Tensor(rng.normal(size=(4, 3)))
            loss = (layer(x) * layer(x)).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()

    @pytest.mark.parametrize("make_opt", [
        lambda params: Adam(params, lr=0.01, weight_decay=1e-3),
        lambda params: SGD(params, lr=0.01, momentum=0.9),
    ])
    def test_roundtrip_preserves_trajectory(self, make_opt):
        rng_a = np.random.default_rng(7)
        layer_a = Linear(3, 2, np.random.default_rng(0))
        opt_a = make_opt(layer_a.parameters())
        self._train_steps(opt_a, layer_a, 3, rng_a)

        # Clone: params + optimizer state through the dict round-trip.
        layer_b = Linear(3, 2, np.random.default_rng(0))
        layer_b.load_state_dict(layer_a.state_dict())
        opt_b = make_opt(layer_b.parameters())
        opt_b.load_state_dict(opt_a.state_dict())

        rng_b = np.random.default_rng(11)
        rng_a2 = np.random.default_rng(11)
        self._train_steps(opt_a, layer_a, 3, rng_a2)
        self._train_steps(opt_b, layer_b, 3, rng_b)
        assert states_equal(layer_a.state_dict(), layer_b.state_dict())

    def test_shape_mismatch_rejected(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        opt = Adam(layer.parameters())
        state = opt.state_dict()
        bad = {k: (v if not k.startswith("m/") else np.zeros((9, 9)))
               for k, v in state.items()}
        fresh = Adam(Linear(3, 2, np.random.default_rng(0)).parameters())
        with pytest.raises(ValueError):
            fresh.load_state_dict(bad)


# ----------------------------------------------------------------------
# Fault injector mechanics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_noop_when_unarmed(self):
        faults.fire("trainer.outer", outer=0)  # must not raise
        assert faults.active() is None

    def test_once_semantics_and_log(self):
        with faults.raise_at_op("atomic.post_write", 2) as injector:
            faults.fire("atomic.post_write", tmp=None, final="a")
            with pytest.raises(CrashInjected):
                faults.fire("atomic.post_write", tmp=None, final="b")
            # once=True: the third call must NOT re-trip.
            faults.fire("atomic.post_write", tmp=None, final="c")
        assert injector.fired() == 1
        assert injector.log[0]["site"] == "atomic.post_write"
        assert injector.log[0]["count"] == 2

    def test_stack_restored_after_exit(self):
        with faults.crash_at_outer(99):
            assert faults.active() is not None
        assert faults.active() is None


# ----------------------------------------------------------------------
# Resumable training: bitwise guarantees
# ----------------------------------------------------------------------
class TestResume:
    def test_catehgn_kill_and_resume_bitwise(self, tiny_dataset, tmp_path):
        reference = CATEHGN(small_config()).fit(tiny_dataset)
        ref_state = reference.model.state_dict()
        ref_pred = reference.predict()

        victim = CATEHGN(small_config())
        with pytest.raises(CrashInjected):
            with faults.crash_at_outer(2):
                victim.fit(tiny_dataset, checkpoint_dir=tmp_path)
        assert SnapshotStore(tmp_path).steps(), "no snapshot written pre-crash"

        resumed = CATEHGN(small_config())
        resumed.fit(tiny_dataset, checkpoint_dir=tmp_path, resume=True)
        events = [e for e in resumed.history.events if e["type"] == "resume"]
        assert len(events) == 1 and events[0]["step"] == 1
        assert states_equal(ref_state, resumed.model.state_dict())
        assert np.array_equal(ref_pred, resumed.predict())

    def test_rgcn_kill_and_resume_bitwise(self, tiny_dataset, tmp_path):
        config = GNNTrainConfig(epochs=6, eval_every=1, patience=10, seed=0)
        reference = RGCN(config).fit(tiny_dataset)
        ref_state = reference.network.state_dict()
        ref_pred = reference.predict()

        victim = RGCN(config)
        with pytest.raises(CrashInjected):
            with faults.crash_at_epoch(3):
                victim.fit(tiny_dataset, checkpoint_dir=tmp_path)

        resumed = RGCN(config)
        resumed.fit(tiny_dataset, checkpoint_dir=tmp_path, resume=True)
        assert any(e["type"] == "resume" for e in resumed.events)
        assert states_equal(ref_state, resumed.network.state_dict())
        assert np.array_equal(ref_pred, resumed.predict())

    def test_resume_requires_checkpoint_dir(self, tiny_dataset):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            CATEHGN(small_config()).fit(tiny_dataset, resume=True)

    def test_resume_rejects_config_mismatch(self, tiny_dataset, tmp_path):
        est = CATEHGN(small_config())
        with pytest.raises(CrashInjected):
            with faults.crash_at_outer(2):
                est.fit(tiny_dataset, checkpoint_dir=tmp_path)
        other = CATEHGN(small_config(dim=16))
        with pytest.raises(ValueError, match="dim"):
            other.fit(tiny_dataset, checkpoint_dir=tmp_path, resume=True)

    def test_resume_with_empty_dir_trains_from_scratch(self, tiny_dataset,
                                                       tmp_path):
        est = CATEHGN(small_config())
        est.fit(tiny_dataset, checkpoint_dir=tmp_path / "fresh", resume=True)
        assert est.model is not None
        assert not any(e["type"] == "resume" for e in est.history.events)


# ----------------------------------------------------------------------
# Divergence guard
# ----------------------------------------------------------------------
class TestDivergenceGuard:
    def test_nan_grad_rolls_back_exactly_once(self, tiny_dataset):
        est = CATEHGN(small_config())
        with faults.nan_in_grad(iter=2) as injector:
            est.fit(tiny_dataset)
        assert injector.fired() == 1
        rollbacks = [e for e in est.history.events
                     if e["type"] == "rollback"]
        assert len(rollbacks) == 1
        event = rollbacks[0]
        assert event["step"] == 2 and event["resumed_from"] == 1
        assert "non-finite" in event["reason"]
        # LR backoff applied to both optimizers.
        cfg = est.config
        assert event["lr"][0] == pytest.approx(cfg.lr * cfg.lr_backoff)
        assert event["lr"][1] == pytest.approx(cfg.center_lr * cfg.lr_backoff)
        # Training recovered and finished with finite numbers.
        assert np.all(np.isfinite(est.predict()))
        assert np.all(np.isfinite(est.history.train_loss))

    def test_baseline_nan_grad_rolls_back(self, tiny_dataset):
        config = GNNTrainConfig(epochs=5, eval_every=1, patience=10, seed=0)
        est = RGCN(config)
        with faults.nan_in_grad(iter=2):
            est.fit(tiny_dataset)
        rollbacks = [e for e in est.events if e["type"] == "rollback"]
        assert len(rollbacks) == 1
        assert np.all(np.isfinite(est.predict()))

    def test_guard_disabled_lets_anomaly_escape(self, tiny_dataset):
        """Without the guard, the tape sanitizer's signal propagates."""
        est = CATEHGN(small_config(divergence_guard=False,
                                   debug_anomaly=True))
        with pytest.raises(FloatingPointError):
            with faults.nan_in_grad(iter=1):
                est.fit(tiny_dataset)

    def test_guard_is_trajectory_neutral_when_healthy(self, tiny_dataset):
        with_guard = CATEHGN(small_config()).fit(tiny_dataset)
        without = CATEHGN(small_config(divergence_guard=False)).fit(
            tiny_dataset)
        assert states_equal(with_guard.model.state_dict(),
                            without.model.state_dict())
        assert with_guard.history.events == []


# ----------------------------------------------------------------------
# Serving checkpoints + graph exports: crash-safe, checksummed
# ----------------------------------------------------------------------
class TestCheckpointAtomicity:
    def _save(self, path):
        from repro.serve.checkpoint import save_checkpoint

        return save_checkpoint(
            path, {"kind": "t"},
            {"w": np.arange(4, dtype=np.float64)},
            {"ids": np.array([1, 2])},
        )

    def test_truncated_checkpoint_rejected(self, tmp_path):
        from repro.serve.checkpoint import load_checkpoint

        out = self._save(tmp_path / "ck")
        payload = out.read_bytes()
        out.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(out)

    def test_bitflipped_checkpoint_rejected(self, tmp_path):
        from repro.serve.checkpoint import load_checkpoint

        out = self._save(tmp_path / "ck")
        payload = bytearray(out.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        out.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(out)

    def test_kill_before_replace_keeps_previous_checkpoint(self, tmp_path):
        from repro.serve.checkpoint import load_checkpoint, save_checkpoint

        out = self._save(tmp_path / "ck")
        with pytest.raises(CrashInjected):
            with faults.kill_before_replace():
                save_checkpoint(tmp_path / "ck", {"kind": "t2"},
                                {"w": np.zeros(4)})
        ck = load_checkpoint(out)
        assert ck.meta["kind"] == "t"
        assert np.array_equal(ck.state["w"], np.arange(4, dtype=np.float64))

    def test_pre_checksum_checkpoint_still_loads(self, tmp_path):
        """Files written before checksumming carry no digest: accepted."""
        from repro.serve.checkpoint import (CHECKPOINT_FORMAT_VERSION,
                                            load_checkpoint)

        arrays = {
            "__checkpoint__": np.array(json.dumps(
                {"kind": "old", "format_version": CHECKPOINT_FORMAT_VERSION}
            )),
            "param/w": np.ones(3),
        }
        out = tmp_path / "old.npz"
        np.savez_compressed(out, **arrays)
        ck = load_checkpoint(out)
        assert ck.meta["kind"] == "old"

    def test_graph_bitflip_rejected(self, tiny_single_dataset, tmp_path):
        from repro.data.io import load_graph, save_graph

        base = tmp_path / "g"
        save_graph(tiny_single_dataset.graph, base)
        load_graph(base)  # good file round-trips
        npz = base.with_suffix(".npz")
        payload = bytearray(npz.read_bytes())
        payload[len(payload) // 3] ^= 0xFF
        npz.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptError):
            load_graph(base)


# ----------------------------------------------------------------------
# Drill CLI
# ----------------------------------------------------------------------
def test_drill_atomicity_via_cli(capsys):
    from repro.resilience.drill import main

    assert main(["--only", "atomicity", "--only", "degrade"]) == 0
    out = capsys.readouterr().out
    assert "atomicity: PASS" in out and "degrade: PASS" in out
    assert "2/2 drills passed" in out
