import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from padlab import nn
from padlab.autodiff import Tape, Variable, backward
from padlab.checkpoint import model_state
from padlab.data import (AugmentConfig, Dataset, EvalAugment, TrainAugment,
                         gen_border_task)
from padlab.errors import ConfigError, NumericError, TrainingDivergedError
from padlab.models import Model, ModelSpec, build_model
from padlab.rng import Rng
from padlab.training import (Checkpoint, EpochRecord, RunLog, TrainConfig,
                             epochs_to_threshold, evaluate, lr_at, sgd_step,
                             split_train_val, train_run)

from oracles import scalar_sgd_updates


# ---------------------------------------------------------------------------
# schedule

def test_lr_schedule_reference_points():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.00125
    assert lr_at(30, cfg) == pytest.approx(0.000125, rel=1e-12)
    assert lr_at(60, cfg) == pytest.approx(1.25e-5, rel=1e-12)
    assert lr_at(90, cfg) == pytest.approx(1.25e-6, rel=1e-12)
    assert lr_at(99, cfg) == pytest.approx(1.25e-6, rel=1e-12)


def test_lr_schedule_piecewise_and_monotone():
    cfg = TrainConfig()
    values = [lr_at(e, cfg) for e in range(100)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for e in range(99):
        if (e + 1) % 30 != 0:
            assert values[e + 1] == values[e]
        else:
            assert values[e + 1] == pytest.approx(values[e] * 0.1, rel=1e-12)


def test_lr_at_rejects_out_of_range():
    with pytest.raises(ConfigError):
        lr_at(100, TrainConfig())


@pytest.mark.parametrize("field, value", [
    ("lr_gamma", np.nan), ("lr_gamma", np.inf), ("weight_decay", np.nan),
    ("weight_decay", np.inf), ("early_stop_top1", np.nan), ("early_stop_top1", -np.inf),
])
def test_train_config_rejects_non_finite_values(field, value):
    # the CLI schema stops these earlier; the API must stop them too
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# sgd

def _param(arr):
    v = Variable(np.asarray(arr, np.float64), requires_grad=True)
    return v


def test_sgd_vanilla_step():
    p = _param([1.0, 2.0])
    p.grad = np.array([0.5, -0.5])
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_sgd_zero_grad_is_fixed_point():
    p = _param([3.0])
    p.grad = np.zeros(1)
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [3.0])


def test_sgd_momentum_matches_scalar_recurrence():
    history = scalar_sgd_updates(grad=1.0, lr=0.1, momentum=0.9,
                                 weight_decay=0.0, w0=0.0, steps=3)
    p = _param([0.0])
    velocity = {}
    got = []
    for _ in range(3):
        p.grad = np.ones(1)
        sgd_step([p], velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
        got.append(float(p.data[0]))
    np.testing.assert_allclose(got, history, rtol=1e-12)
    # second step's effective update is lr * 1.9 * g
    assert got[1] - got[0] == pytest.approx(-0.1 * 1.9, rel=1e-12)


def test_sgd_quadratic_contraction():
    # grad of 0.5*||w||^2 is w: one step scales w by (1 - lr) exactly
    p = _param([2.0, -4.0, 8.0])
    p.grad = p.data.copy()
    sgd_step([p], {}, lr=0.25, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0, 8.0]) * 0.75,
                               rtol=0, atol=0)


def test_sgd_weight_decay_enters_velocity():
    p = _param([1.0])
    p.grad = np.zeros(1)
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.5)
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])


def test_sgd_nonfinite_grad_raises():
    p = _param([1.0])
    p.grad = np.array([np.inf])
    with pytest.raises(TrainingDivergedError):
        sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.0)


def test_sgd_nonfinite_grad_names_the_qualified_parameter():
    # every BatchNorm has a beta: the message must say which layer's
    model = build_model(ModelSpec("tinyvgg", num_classes=2, input_size=32), Rng(0))
    beta = dict(model.named_parameters())["features.bn1.beta"]
    beta.grad = np.full_like(beta.data, np.nan)
    with pytest.raises(TrainingDivergedError,
                       match=r"^non-finite gradient in features\.bn1\.beta$"):
        sgd_step(model.parameters(), {}, lr=0.1, momentum=0.0, weight_decay=0.0)


# ---------------------------------------------------------------------------
# evaluation and curve queries

class _FixedModel:
    """Stands in for a Model: returns canned logits per batch."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, np.float32)

    def forward(self, batch, mode):
        n = batch.shape[0]
        out = self.logits[:n]
        self.logits = self.logits[n:]
        return Variable(out)


def _dataset(labels, size=8):
    return Dataset(np.zeros((len(labels), 3, size, size), np.float32),
                   np.array(labels, np.int64))


def test_evaluate_perfect_classifier():
    ds = _dataset([0, 1, 2])
    logits = np.eye(3, dtype=np.float32) * 5
    assert evaluate(_FixedModel(logits), ds) == 100.0


def test_evaluate_tie_breaks_to_lowest_class():
    ds = _dataset([0, 1, 0, 2])
    logits = np.zeros((4, 3), np.float32)  # all ties -> argmax picks class 0
    assert evaluate(_FixedModel(logits), ds) == 50.0


def test_evaluate_three_of_five():
    ds = _dataset([0, 0, 0, 1, 1])
    logits = np.array([[9, 0], [9, 0], [9, 0], [9, 0], [9, 0]], np.float32)
    assert evaluate(_FixedModel(logits), ds) == 60.0


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        evaluate(_FixedModel(np.zeros((1, 2))), _dataset([]))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    # -1 used to score an empty range as 0.0 top-1, 0 to raise range()'s ValueError
    ds = _dataset([0, 1])
    with pytest.raises(ConfigError, match="batch_size >= 1"):
        evaluate(_FixedModel(np.eye(2, dtype=np.float32)), ds, batch_size=batch_size)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_logits(bad):
    ds = _dataset([0, 1])
    logits = np.array([[1, 0], [0, bad]], np.float32)  # argmax would score 2/2
    with pytest.raises(NumericError, match="non-finite logits"):
        evaluate(_FixedModel(logits), ds)


def _log_from_curve(curve):
    log = RunLog("fixture", 0)
    for e, v in enumerate(curve):
        log.records.append(EpochRecord(e, 0.0, v, 0.1, 0.0))
    return log


def test_best_epoch_argmax_rule():
    log = _log_from_curve([70.1, 70.5, 70.3])
    assert log.best_epoch() == 1
    assert log.best_top1() == 70.5
    # ties keep the earliest epoch
    log = _log_from_curve([70.5, 70.5, 70.1])
    assert log.best_epoch() == 0


def test_epochs_to_threshold_fixture_curve():
    # synthetic curve first crossing 75.75 at epoch 73
    curve = [40 + 35.7 * e / 72 for e in range(73)] + [75.75, 75.9, 75.8]
    assert max(curve[:73]) < 75.75
    log = _log_from_curve(curve)
    assert epochs_to_threshold(log, 75.75) == 73
    assert epochs_to_threshold(log, 99.0) is None
    assert epochs_to_threshold(log, 0.0) == 0


# ---------------------------------------------------------------------------
# runs

def _small_setup(n=400, seed=5):
    images = gen_border_task(n, 32, Rng(seed))
    return split_train_val(images, 0.25)


def test_split_fractions():
    train, val = _small_setup(n=100)
    assert len(train) == 75 and len(val) == 25
    with pytest.raises(ConfigError):
        split_train_val(train, 1.5)


def test_train_run_rejects_empty_validation_set():
    train, _ = _small_setup(n=80)
    spec = ModelSpec("tinyvgg", num_classes=2, input_size=32)
    with pytest.raises(ConfigError, match="must be non-empty"):
        train_run(spec, TrainConfig(epochs=1), train, train[:0], seed=0)
    with pytest.raises(ConfigError, match="must be non-empty"):
        train_run(spec, TrainConfig(epochs=1), train[:0], train, seed=0)


def test_split_halves_share_memory_with_source():
    images = gen_border_task(40, 8, Rng(0))
    train, val = split_train_val(images, 0.25)
    assert isinstance(train, Dataset) and (len(train), len(val)) == (30, 10)
    for part in (train, val):
        assert np.shares_memory(part.pixels, images.pixels)
        assert np.shares_memory(part.labels, images.labels)


def test_train_run_and_evaluate_read_datasets_in_place(monkeypatch):
    # Without an augment, nothing may stack or copy the images whole; the
    # model reads its batches from the caller's block and must not write it.
    train, val = _small_setup(n=160)
    before = train.pixels.tobytes(), val.pixels.tobytes()

    def no_stack(*args, **kwargs):
        raise AssertionError("np.stack called on a Dataset path")

    monkeypatch.setattr(np, "stack", no_stack)
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=1, batch_size=64)
    log, _, model = train_run(spec, cfg, train, val, seed=0)
    assert evaluate(model, val) == log.records[-1].val_top1
    monkeypatch.undo()
    assert (train.pixels.tobytes(), val.pixels.tobytes()) == before


def test_validation_in_a_run_applies_the_eval_transform():
    # train_run applies the eval transform to val once; evaluate applies it
    # per call. Both must score the final model the same.
    train, val = _small_setup(n=160)
    augment = AugmentConfig(
        train=TrainAugment(32, horizontal_flip_prob=0.5, scale=(0.6, 1.0),
                           aspect=(0.9, 1.1)),
        eval=EvalAugment(36, 32),
        normalize_mean=(0.3, 0.3, 0.3), normalize_std=(0.5, 0.5, 0.5))
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=3, batch_size=16)
    log, _, model = train_run(spec, cfg, train, val, seed=1, augment=augment)
    assert evaluate(model, val, augment) == log.records[-1].val_top1
    # the raw pixels score otherwise (97.5 against 82.5 here), so a run that
    # validated them would fail the line above
    assert evaluate(model, val) != log.records[-1].val_top1


def test_train_run_deterministic(tmp_path):
    train, val = _small_setup()
    spec = ModelSpec("tinyvgg", num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=2, batch_size=64)
    log1, best1, _ = train_run(spec, cfg, train, val, seed=1)
    log2, best2, _ = train_run(spec, cfg, train, val, seed=1)
    strip = lambda log: [(r.epoch, r.train_loss, r.val_top1, r.lr)
                         for r in log.records]
    assert strip(log1) == strip(log2)
    assert best1.epoch == best2.epoch
    for k in best1.tensors:
        assert best1.tensors[k].tobytes() == best2.tensors[k].tobytes()
    # different seed -> different trajectory
    log3, _, _ = train_run(spec, cfg, train, val, seed=2)
    assert strip(log1) != strip(log3)


_BLAS_RUN = """
import hashlib, sys, tempfile
from padlab.data import gen_border_task
from padlab.models import ModelSpec
from padlab.rng import Rng
from padlab.training import TrainConfig, save_run, split_train_val, train_run

train, val = split_train_val(gen_border_task(640, 32, Rng(3).child("data")), 0.2)
cfg = TrainConfig(base_lr=0.02, epochs=1, batch_size=64)
for family in ("tinyvgg", "tinyresnet"):
    log, best, _ = train_run(ModelSpec(family, pad_channel=True, num_classes=2,
                                       input_size=32), cfg, train, val, seed=3)
    with tempfile.TemporaryDirectory() as out:
        ckpt = (save_run(out, log, best) / "best.ckpt").read_bytes()
    print(family, hashlib.sha256(ckpt).hexdigest())
"""


@pytest.mark.slow
def test_checkpoints_identical_across_blas_thread_counts():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].split()[::2] == ["tinyvgg", "tinyresnet"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_evaluate_top1_independent_of_batch_size(family):
    # Logits may differ in the last bit between partitions, because OpenBLAS
    # picks kernels by row count; the top-1 is the contract.
    images = gen_border_task(1024, 32, Rng(2).child("data"))
    train, val = images[:512], images[512:]
    spec = ModelSpec(family, pad_channel=True, num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=1, batch_size=16)
    log, _, model = train_run(spec, cfg, train, val, seed=2)
    top1 = {bs: evaluate(model, val, batch_size=bs) for bs in (64, 100, 128, 256)}
    assert set(top1.values()) == {evaluate(model, val)} == {log.records[-1].val_top1}
    assert 80 < top1[128] < 100  # neither the majority class alone nor solved


def test_checkpoint_roundtrip_reproduces_top1(tmp_path):
    train, val = _small_setup()
    spec = ModelSpec("tinyresnet", num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=2, batch_size=64)
    log, best, _ = train_run(spec, cfg, train, val, seed=3)
    path = tmp_path / "best.ckpt"
    best.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.epoch == best.epoch
    assert loaded.val_top1 == best.val_top1
    fresh = build_model(spec, Rng(0))
    fresh.load_state(loaded.tensors)
    assert evaluate(fresh, val) == best.val_top1
    # byte-exact round trip of the file itself
    path2 = tmp_path / "again.ckpt"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_runlog_csv_roundtrip():
    train, val = _small_setup(n=120)
    spec = ModelSpec("tinyvgg", num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=2, batch_size=32)
    log, _, _ = train_run(spec, cfg, train, val, seed=7)
    text = log.to_csv()
    back = RunLog.from_csv(text)
    assert back.spec_id == log.spec_id and back.seed == 7
    assert [r.val_top1 for r in back.records] == [r.val_top1 for r in log.records]
    assert [r.train_loss for r in back.records] == [r.train_loss for r in log.records]
    assert [r.epoch for r in back.records] == [0, 1]


def test_divergence_preserves_partial_log():
    train, val = _small_setup(n=200)
    spec = ModelSpec("tinyvgg", num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=1e18, epochs=3, batch_size=64, weight_decay=0.0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as info:
            train_run(spec, cfg, train, val, seed=0)
    assert hasattr(info.value, "runlog")


def _overflow_run(train_images, val_images):
    """One step at base_lr 3e38: the update overflows the f32 weights."""
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=3e38, epochs=1, batch_size=64)
    with np.errstate(all="ignore"):
        return train_run(spec, cfg, train_images, val_images, seed=0)


def test_non_finite_validation_logits_diverge():
    images = gen_border_task(80, 32, Rng(0).child("data"))
    with pytest.raises(TrainingDivergedError, match="non-finite logits") as info:
        _overflow_run(images[:64], images[64:])
    assert info.value.runlog.records == []


def test_non_finite_state_never_becomes_best(monkeypatch):
    # with evaluate scoring blind, only the state check stands between the
    # overflowed weights and the best checkpoint
    monkeypatch.setattr("padlab.training.evaluate", lambda *args, **kwargs: 50.0)
    images = gen_border_task(80, 32, Rng(0).child("data"))
    with pytest.raises(TrainingDivergedError, match="non-finite model state") as info:
        _overflow_run(images[:64], images[64:])
    assert [r.val_top1 for r in info.value.runlog.records] == [50.0]


def test_early_stop_caps_epochs():
    train, val = _small_setup()
    spec = ModelSpec("tinyresnet", num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=15, batch_size=64, early_stop_top1=90.0)
    log, best, _ = train_run(spec, cfg, train, val, seed=0)
    assert len(log.records) <= 15
    assert [r.epoch for r in log.records] == list(range(len(log.records)))
    if best.val_top1 >= 90.0:
        assert log.records[-1].val_top1 >= 90.0


# ---------------------------------------------------------------------------
# memory plan

def test_train_step_peak_stays_under_38_mib():
    # one batch-64 tinyvgg-pc step, the model build and a 21-image validation:
    # 40.1 MiB when each step allocated afresh and backward kept every tape
    # entry to its end, 37.5 MiB with the step's pool and entries freed as run
    train, val = _small_setup(n=85)
    assert len(train) == 64
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    tracemalloc.start()
    try:
        train_run(spec, TrainConfig(base_lr=0.02, epochs=1, batch_size=64), train, val, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 38 * 2**20


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_pool_allocates_no_block_after_the_first_batch(monkeypatch, family):
    # every batch of a loop has the same layer shapes (the last one is
    # smaller), so once the first has run each later array finds a free block
    counts = {}  # pool -> its block count as each forward starts, then at exit
    forward, exit_ = Model.forward, nn.Pool.__exit__

    def counting_forward(self, *args, **kwargs):
        counts.setdefault(nn._pool, []).append(len(nn._pool.blocks))
        return forward(self, *args, **kwargs)

    def counting_exit(self, *exc):
        counts[self].append(len(self.blocks))
        return exit_(self, *exc)

    monkeypatch.setattr(Model, "forward", counting_forward)
    monkeypatch.setattr(nn.Pool, "__exit__", counting_exit)
    train, val = _small_setup(n=200)  # 150 / 50: batches of 64, 64 and 22
    spec = ModelSpec(family, pad_channel=True, num_classes=2, input_size=32)
    cfg = TrainConfig(base_lr=0.02, epochs=2, batch_size=64)
    _, _, model = train_run(spec, cfg, train, val, seed=0)
    evaluate(model, val, batch_size=16)
    assert None not in counts and nn._pool is None
    # two epochs and two validations, then the 4-batch evaluate
    assert [len(c) for c in counts.values()] == [4, 2, 4, 2, 5]
    for blocks in counts.values():
        assert blocks[0] == 1 < blocks[1] and set(blocks[1:]) == {blocks[1]}


def test_pool_never_hands_out_a_block_a_live_array_holds():
    with nn.Pool() as pool:
        a = pool.empty((1024,), np.float32)
        b = pool.empty((1024,), np.float32)
        view = a[::2]
        del a
        c = pool.empty((1024,), np.float32)  # a's block is still held by its view
        for x, y in ((view, b), (view, c), (b, c)):
            assert not np.shares_memory(x, y)
        count = len(pool.blocks)
        del view, x, y
        d = pool.empty((32, 16), np.float64)  # a's block is free now: no new block
        assert len(pool.blocks) == count
        assert not np.shares_memory(d, b) and not np.shares_memory(d, c)


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_nothing_that_outlives_a_step_sits_in_a_pool_block(family):
    model = build_model(ModelSpec(family, pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    batch = np.random.default_rng(1).random((8, 3, 32, 32), dtype=np.float32)
    velocity = {}
    with nn.Pool() as pool:
        tape = Tape()
        logits = model.forward(Variable(batch), "train", tape, Rng(2))
        loss = nn.softmax_cross_entropy(logits, np.arange(8) % 2, tape)
        grads = backward(loss, tape)
        sgd_step(model.parameters(), velocity, 0.01, 0.9, 1e-4)
        kept = [logits.data, loss.data, *grads.values(), *velocity.values(),
                *(p.grad for p in model.parameters()), *model_state(model).values()]
        assert pool.blocks and len(grads) == len(velocity) == len(model.parameters())
        for arr in kept:
            assert not any(np.shares_memory(arr, block) for block in pool.blocks)


def test_evaluate_logits_match_forward_outside_the_pool(monkeypatch):
    train, val = _small_setup(n=200)
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    _, _, model = train_run(spec, TrainConfig(base_lr=0.02, epochs=1, batch_size=64),
                            train, val, seed=0)
    seen, forward = [], model.forward

    def recording_forward(batch, mode):
        logits = forward(batch, mode)
        seen.append((batch.data, logits.data.tobytes()))
        return logits

    monkeypatch.setattr(model, "forward", recording_forward)
    evaluate(model, val, batch_size=16)
    monkeypatch.undo()
    assert len(seen) == 4
    for batch, logits in seen:
        assert model.forward(Variable(batch), "eval").data.tobytes() == logits
