"""Desk-scale datasets and the train/eval transform pipelines.

A `Dataset` holds n images as one block: `pixels` (n, 3, S, S) with values in
[0, 1] and `labels` (n,) int64. It is the one dataset type: the loader, the
generator, the split and training all pass it. Slices are Datasets of views,
so splitting, batching and evaluation read the images in place. The train
transform takes one (C, S, S) image; the eval transform also takes a block.
The on-disk format is the classic CIFAR-10 binary layout (3073-byte records:
one label byte, then 3072 pixel bytes as R/G/B planes of a 32x32 image), which
needs no image codec; synthetic datasets serialize to the same layout.

The border-location task probes boundary sensitivity: a bright 3x3 patch is
dropped on low noise at a uniformly random position and the label says whether
the patch touches the outer 2-pixel ring. Plain translation-invariant features
cannot solve it; padding cues or an explicit pad-indicator channel can.

Resizing is bilinear with the half-pixel (align_corners=false) convention;
the random resized crop samples area scale then log-aspect, with up to ten
attempts and a centered fallback, and skips resampling when the sampled crop
already has the target size (which keeps identity configs bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptFileError, InvalidLabelError, ShapeError
from .rng import Rng

RECORD_BYTES = 3073
CIFAR_SIDE = 32


class Dataset:
    """n labeled images as one block; see the module docstring."""

    __slots__ = ("pixels", "labels")

    def __init__(self, pixels, labels):
        pixels, labels = np.asarray(pixels), np.asarray(labels)
        if pixels.ndim != 4:
            raise ShapeError(
                f"dataset pixels must be (n, C, S, S), got shape {pixels.shape}")
        if pixels.dtype not in (np.float32, np.float64):
            raise ConfigError(f"dataset pixels must be f32 or f64, got {pixels.dtype}")
        if labels.ndim != 1:
            raise ShapeError(f"dataset labels must be (n,), got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ConfigError(f"dataset labels must be integers, got {labels.dtype}")
        if len(labels) != len(pixels):
            raise ShapeError(f"{len(pixels)} images but {len(labels)} labels")
        self.pixels = pixels
        self.labels = labels.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError(f"a Dataset takes a slice, not {type(key).__name__}")
        return Dataset(self.pixels[key], self.labels[key])


@dataclass(frozen=True)
class TrainAugment:
    random_resized_crop_size: int
    horizontal_flip_prob: float = 0.5
    scale: tuple[float, ...] = (0.08, 1.0)
    aspect: tuple[float, ...] = (3.0 / 4.0, 4.0 / 3.0)

    def __post_init__(self):
        for key in ("scale", "aspect"):
            pair = getattr(self, key)
            if not (len(pair) == 2 and np.isfinite(pair).all() and 0 < pair[0] <= pair[1]):
                raise ConfigError(f"augment.train.{key} must be two finite numbers "
                                  f"with 0 < low <= high, got {list(pair)}")
        if not 0 <= self.horizontal_flip_prob <= 1:
            raise ConfigError("augment.train.horizontal_flip_prob must lie in [0, 1], "
                              f"got {self.horizontal_flip_prob}")


@dataclass(frozen=True)
class EvalAugment:
    resize_size: int
    center_crop_size: int

    def __post_init__(self):
        if self.center_crop_size > self.resize_size:
            raise ConfigError(
                f"center crop {self.center_crop_size} > resize {self.resize_size}")


@dataclass(frozen=True)
class AugmentConfig:
    train: TrainAugment
    eval: EvalAugment
    normalize_mean: tuple[float, ...] = (0.0, 0.0, 0.0)
    normalize_std: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.normalize_mean) != 3 or len(self.normalize_std) != 3:
            raise ConfigError("normalization needs 3 channel values")
        if any(s <= 0 for s in self.normalize_std):
            raise ConfigError("normalize_std components must be > 0")


def identity_augment(size: int) -> AugmentConfig:
    """Pipelines that pass `size`-sized images through unchanged."""
    return AugmentConfig(
        train=TrainAugment(size, horizontal_flip_prob=0.0,
                           scale=(1.0, 1.0), aspect=(1.0, 1.0)),
        eval=EvalAugment(size, size))


# ---------------------------------------------------------------------------
# on-disk format

def load_cifar_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % RECORD_BYTES != 0:
        raise CorruptFileError(
            f"{path}: size {len(blob)} is not a multiple of {RECORD_BYTES}")
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    if labels.max() > 9:
        raise InvalidLabelError(f"{path}: label byte {labels.max()} > 9")
    pixels = records[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE).astype(np.float32)
    pixels /= 255.0
    return Dataset(pixels, labels)


def save_cifar_binary(ds: Dataset, path):
    """Write `ds` as 3073-byte records.

    Pixels are quantized as rint(x * 255), so anything that would not survive
    that (non-finite, outside [0, 1]) is rejected, as are labels outside
    [0, 9], before `path` is opened.
    """
    if len(ds) == 0:
        raise ConfigError("no images to save")
    pixels, n = ds.pixels, len(ds)
    if pixels.shape[1:] != (3, CIFAR_SIDE, CIFAR_SIDE):
        raise ConfigError(
            f"binary layout stores (3, 32, 32) images, got {pixels.shape[1:]}")
    lo, hi = pixels.min(), pixels.max()  # NaN propagates and fails the test
    if not (0 <= lo and hi <= 1):
        raise ConfigError(
            f"pixels must be finite and lie in [0, 1] to be stored, got [{lo}, {hi}]")
    if ds.labels.min() < 0 or ds.labels.max() > 9:
        raise ConfigError(
            f"labels must lie in [0, 9], got [{ds.labels.min()}, {ds.labels.max()}]")
    records = np.empty((n, RECORD_BYTES), np.uint8)
    records[:, 0] = ds.labels
    for start in range(0, n, 256):  # bounds the float temporaries to 3 MB
        chunk = pixels[start:start + 256]
        records[start:start + len(chunk), 1:] = np.rint(chunk.reshape(len(chunk), -1) * 255.0)
    with open(path, "wb") as fh:
        fh.write(records)


# ---------------------------------------------------------------------------
# synthetic boundary-sensitive task

def gen_border_task(n: int, size: int, rng: Rng) -> Dataset:
    """Bright 3x3 patch on faint noise; label 1 iff it touches the outer ring.

    Per image the draw order is fixed: noise block first, then the patch
    anchor, so generation is reproducible from the seed alone.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if size < 8:
        raise ConfigError(f"size must be >= 8, got {size}")
    pixels = np.empty((n, 3, size, size), np.float32)
    labels = np.empty(n, np.int64)
    for i in range(n):
        pixels[i] = rng.uniform((3, size, size), 0.0, 0.2)
        r = int(rng.integers(0, size - 2))
        c = int(rng.integers(0, size - 2))
        pixels[i, :, r:r + 3, c:c + 3] = 1.0
        labels[i] = r <= 1 or r >= size - 4 or c <= 1 or c >= size - 4
    return Dataset(pixels, labels)


# ---------------------------------------------------------------------------
# transforms

def resize_bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(..., C, H, W) -> (..., C, out_h, out_w), half-pixel centers."""
    h, w = pixels.shape[-2:]
    if (h, w) == (out_h, out_w):
        return pixels.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)[:, None]
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)  # a column: [..., y0, x0] gathers (out_h, out_w)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(pixels.dtype)
    wx = (xs - x0).astype(pixels.dtype)
    top = pixels[..., y0, x0] * (1 - wx) + pixels[..., y0, x1] * wx
    bot = pixels[..., y1, x0] * (1 - wx) + pixels[..., y1, x1] * wx
    return top * (1 - wy) + bot * wy


def _normalize(pixels: np.ndarray, cfg: AugmentConfig) -> np.ndarray:
    if cfg.normalize_mean == (0.0, 0.0, 0.0) and cfg.normalize_std == (1.0, 1.0, 1.0):
        return pixels
    mean = np.asarray(cfg.normalize_mean, pixels.dtype)[:, None, None]
    std = np.asarray(cfg.normalize_std, pixels.dtype)[:, None, None]
    return (pixels - mean) / std


def augment_train(pixels: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """(C, H, W) -> (C, S, S): random resized crop, horizontal flip, normalization."""
    t = cfg.train
    _, h, w = pixels.shape
    area = h * w
    out = t.random_resized_crop_size
    ch = cw = None
    for _ in range(10):
        target = area * float(rng.uniform((), t.scale[0], t.scale[1], np.float64))
        log_lo, log_hi = np.log(t.aspect[0]), np.log(t.aspect[1])
        ratio = np.exp(rng.uniform((), log_lo, log_hi, np.float64))
        # numpy scalars: an overflow or a zero ratio gives inf, and rint rounds
        # half to even as round() does but keeps the inf, which fails the fit test
        cw_try = np.rint(np.sqrt(target * ratio))
        ch_try = np.rint(np.sqrt(target / ratio))
        if 0 < cw_try <= w and 0 < ch_try <= h:
            ch, cw = int(ch_try), int(cw_try)
            break
    if ch is None:  # centered fallback, aspect clamped, no side below 1
        in_ratio = w / h
        if in_ratio < t.aspect[0]:
            cw, ch = w, max(1, min(h, int(round(w / t.aspect[0]))))
        elif in_ratio > t.aspect[1]:
            ch, cw = h, max(1, min(w, int(round(h * t.aspect[1]))))
        else:
            ch, cw = h, w
        top, left = (h - ch) // 2, (w - cw) // 2
    else:
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
    crop = pixels[:, top:top + ch, left:left + cw]
    resized = resize_bilinear(crop, out, out)
    if t.horizontal_flip_prob > 0:
        if float(rng.uniform((), 0.0, 1.0, np.float64)) < t.horizontal_flip_prob:
            resized = resized[:, :, ::-1]
    return np.ascontiguousarray(_normalize(resized, cfg))


def augment_eval(pixels: np.ndarray, cfg: AugmentConfig) -> np.ndarray:
    """(..., C, H, W) -> (..., C, S, S): deterministic resize, center crop, normalization."""
    e = cfg.eval
    resized = resize_bilinear(pixels, e.resize_size, e.resize_size)
    top = (e.resize_size - e.center_crop_size) // 2
    crop = resized[..., top:top + e.center_crop_size, top:top + e.center_crop_size]
    return np.ascontiguousarray(_normalize(crop, cfg))
