"""Seeded training runs: SGD with step-decayed LR, per-epoch validation,
best-checkpoint selection, and training-curve queries.

A run is fully determined by (model spec, train config, datasets, seed): model
init, shuffling, augmentation and dropout all draw from named substreams of
the run seed. Wall-clock time is logged but excluded from any determinism
comparison.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape, Variable, backward
from .checkpoint import Checkpoint, model_state
from .data import AugmentConfig, Dataset, augment_eval, augment_train
from .errors import (ConfigError, CorruptFileError, NumericError,
                     TrainingDivergedError)
from .models import Model, ModelSpec, build_model
from .nn import Pool, softmax_cross_entropy
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.00125
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 100
    lr_step: int = 30
    lr_gamma: float = 0.1
    batch_size: int = 32
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    early_stop_top1: float | None = None  # None: always run all epochs

    def __post_init__(self):
        if not (np.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError("base_lr must be finite and > 0")
        if not (0 <= self.momentum < 1):
            raise ConfigError("momentum must be in [0, 1)")
        if self.epochs < 1 or self.lr_step < 1 or self.batch_size < 1:
            raise ConfigError("epochs, lr_step and batch_size must be >= 1")
        if not 0 < self.lr_gamma <= 1:
            raise ConfigError("lr_gamma must be finite and in (0, 1]")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.early_stop_top1 is not None and not 0 <= self.early_stop_top1 <= 100:
            raise ConfigError("early_stop_top1 must be in [0, 100]")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """base_lr * gamma^(epoch // lr_step)."""
    if not (0 <= epoch < cfg.epochs):
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    return cfg.base_lr * cfg.lr_gamma ** (epoch // cfg.lr_step)


def sgd_step(params, velocity: dict, lr: float, momentum: float,
             weight_decay: float):
    """v <- momentum*v + (g + wd*w); w <- w - lr*v. Velocity persists in-place."""
    for p in params:
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in {p.name}")
        if weight_decay:
            g = g + weight_decay * p.data
        v = velocity.get(p)
        v = g if v is None else momentum * v + g
        velocity[p] = v
        p.data -= (lr * v).astype(p.data.dtype, copy=False)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_top1: float
    lr: float
    wall_seconds: float


@dataclass
class RunLog:
    spec_id: str
    seed: int
    records: list[EpochRecord] = field(default_factory=list)

    CSV_HEADER = "spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(self.CSV_HEADER + "\n")
        for r in self.records:
            out.write(f"{self.spec_id},{self.seed},{r.epoch},{r.train_loss!r},"
                      f"{r.val_top1!r},{r.lr!r},{r.wall_seconds:.3f}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RunLog":
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise CorruptFileError("empty run log")
        try:
            log = cls(rows[0]["spec_id"], int(rows[0]["seed"]))
            for row in rows:
                nums = [float(row[k]) for k in ("train_loss", "val_top1", "lr", "wall_seconds")]
                if not all(map(math.isfinite, nums)):
                    raise CorruptFileError(f"run log holds a non-finite number: {row}")
                if not 0 <= nums[1] <= 100:
                    raise CorruptFileError(f"run log val_top1 is outside [0, 100]: {row}")
                if (row["spec_id"], int(row["seed"])) != (log.spec_id, log.seed):
                    raise CorruptFileError(f"run log rows differ in spec_id or seed: {row}")
                log.records.append(EpochRecord(int(row["epoch"]), *nums))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(f"run log is not {cls.CSV_HEADER}: {exc!r}") from exc
        return log

    def best_epoch(self) -> int:
        """Epoch with the highest val_top1; first one on ties."""
        best, best_val = 0, -1.0
        for r in self.records:
            if r.val_top1 > best_val:
                best, best_val = r.epoch, r.val_top1
        return best

    def best_top1(self) -> float:
        return max(r.val_top1 for r in self.records)


def epochs_to_threshold(log: RunLog, threshold: float):
    """First epoch whose val_top1 reaches `threshold`, or None."""
    for r in log.records:
        if r.val_top1 >= threshold:
            return r.epoch
    return None


def evaluate(model: Model, ds: Dataset, augment: AugmentConfig | None = None,
             batch_size: int = 128) -> float:
    """Top-1 percentage; argmax ties resolve to the lowest class index.

    Batches of 128 bound the activations; forward-only convs copy whole input
    rows (stride 1) or im2col columns into blocks of about 512 KiB (see
    `nn._COL_BLOCK_BYTES`). The batches share one `nn.Pool`; for tinyvgg-pc at
    32x32 the loop peaks at 13.9 MiB of allocations, one unpooled forward at 10 MiB.

    Raises ConfigError on an empty dataset or a batch_size below 1, and
    NumericError on non-finite logits, which argmax would score as class 0.
    """
    if len(ds) == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    if batch_size < 1:
        raise ConfigError(f"evaluate needs batch_size >= 1, got {batch_size}")
    if augment is not None:
        ds = Dataset(augment_eval(ds.pixels, augment), ds.labels)
    correct = 0
    with Pool():
        for start in range(0, len(ds), batch_size):
            batch = ds.pixels[start:start + batch_size]
            logits = model.forward(Variable(batch), "eval").data
            if not np.isfinite(logits).all():
                raise NumericError(f"non-finite logits in batch at {start}")
            correct += int((logits.argmax(axis=1)
                            == ds.labels[start:start + batch_size]).sum())
    return 100.0 * correct / len(ds)


def train_run(spec: ModelSpec, cfg: TrainConfig, train: Dataset, val: Dataset,
              seed: int, augment: AugmentConfig | None = None,
              progress=None) -> tuple[RunLog, Checkpoint, Model]:
    """One seeded run; returns the log, the best checkpoint and the final model.

    Without `augment`, batches are gathered from the training pixels and
    validation reads its pixels in place. With it, each batch is augmented
    image by image, and the fixed eval transform is applied to `val` once.

    Raises TrainingDivergedError (with .runlog holding the partial log) on
    non-finite loss, gradients, validation logits or best-checkpoint tensors.
    """
    if len(train) == 0 or len(val) == 0:
        raise ConfigError("train and validation sets must be non-empty")
    if augment is not None:
        val = Dataset(augment_eval(val.pixels, augment), val.labels)
    rng = Rng(seed)
    model = build_model(spec, rng.child("init"))
    log = RunLog(spec.spec_id, seed)
    velocity: dict = {}
    params = model.parameters()
    n = len(train)

    best: Checkpoint | None = None
    dropout_rng = rng.child("dropout")
    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            lr = lr_at(epoch, cfg)
            order = rng.child(f"shuffle.{epoch}").permutation(n)
            aug_rng = rng.child(f"augment.{epoch}")
            loss_sum, seen = 0.0, 0
            with Pool():  # one per epoch, gone before validation
                for start in range(0, n, cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    if augment is None:
                        batch = train.pixels[idx]
                    else:
                        batch = np.stack([augment_train(train.pixels[i], augment, aug_rng)
                                          for i in idx])
                    tape = Tape()
                    logits = model.forward(Variable(batch), "train", tape, dropout_rng)
                    loss = softmax_cross_entropy(logits, train.labels[idx], tape)
                    loss_val = float(loss.data[0])
                    if not np.isfinite(loss_val):
                        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                    backward(loss, tape)
                    sgd_step(params, velocity, lr, cfg.momentum, cfg.weight_decay)
                    model.zero_grads()
                    loss_sum += loss_val * len(idx)
                    seen += len(idx)
            val_top1 = evaluate(model, val)
            record = EpochRecord(epoch, loss_sum / seen, val_top1, lr,
                                 time.perf_counter() - t0)
            log.records.append(record)
            if progress is not None:
                progress(record)
            if best is None or val_top1 > best.val_top1:
                state = {k: v.copy() for k, v in model_state(model).items()}
                if not all(np.isfinite(v).all() for v in state.values()):
                    raise TrainingDivergedError(f"non-finite model state at epoch {epoch}")
                best = Checkpoint(epoch, val_top1, state)
            if cfg.early_stop_top1 is not None and val_top1 >= cfg.early_stop_top1:
                break
    except NumericError as exc:
        if not isinstance(exc, TrainingDivergedError):
            exc = TrainingDivergedError(str(exc))
        exc.runlog = log
        raise exc
    return log, best, model


def split_train_val(ds: Dataset, val_fraction: float = 0.2):
    """Deterministic tail split into two views of `ds`'s memory; generation
    order is already randomized."""
    if not (0 < val_fraction < 1):
        raise ConfigError("val_fraction must be in (0, 1)")
    n_val = max(1, int(round(len(ds) * val_fraction)))
    return ds[:-n_val], ds[-n_val:]


def save_run(out_dir, log: RunLog, best: Checkpoint | None = None) -> Path:
    """Write <out_dir>/<spec_id>/<seed>/runlog.csv, and best.ckpt when given one."""
    d = Path(out_dir) / log.spec_id / str(log.seed)
    d.mkdir(parents=True, exist_ok=True)
    (d / "runlog.csv").write_text(log.to_csv())
    if best is not None:
        best.save(d / "best.ckpt")
    return d
