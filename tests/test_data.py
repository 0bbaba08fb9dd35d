import hashlib
import tracemalloc

import numpy as np
import pytest

from padlab.data import (AugmentConfig, Dataset, EvalAugment, TrainAugment,
                         augment_eval, augment_train, gen_border_task,
                         identity_augment, load_cifar_binary, resize_bilinear,
                         save_cifar_binary)
from padlab.errors import (ConfigError, CorruptFileError, InvalidLabelError,
                           ShapeError)
from padlab.rng import Rng


def _record(label, value=0):
    return bytes([label]) + bytes([value]) * 3072


def test_loader_counts_records(tmp_path):
    path = tmp_path / "two.bin"
    path.write_bytes(_record(3) + _record(7, 255))
    ds = load_cifar_binary(path)
    assert len(ds) == 2
    assert ds.labels.tolist() == [3, 7]
    assert ds.pixels[1].shape == (3, 32, 32)
    assert np.allclose(ds.pixels[1], 1.0)


def test_loader_rejects_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(3072))
    with pytest.raises(CorruptFileError):
        load_cifar_binary(path)


def test_loader_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_record(10))
    with pytest.raises(InvalidLabelError):
        load_cifar_binary(path)


def test_roundtrip_bit_exact(tmp_path):
    raw = bytes(Rng(0).integers(0, 256, 5 * 3073).astype(np.uint8).tolist())
    # force valid labels
    arr = bytearray(raw)
    for i in range(5):
        arr[i * 3073] = i
    path = tmp_path / "ds.bin"
    path.write_bytes(bytes(arr))
    ds = load_cifar_binary(path)
    out = tmp_path / "copy.bin"
    save_cifar_binary(ds, out)
    assert out.read_bytes() == bytes(arr)


def test_border_task_determinism_and_balance():
    a = gen_border_task(10_000, 32, Rng(42))
    b = gen_border_task(10_000, 32, Rng(42))
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.pixels[:100].tobytes() == b.pixels[:100].tobytes()
    ones = int(a.labels.sum())
    assert 0.2 <= ones / len(a) <= 0.8


def test_border_labels_match_patch_location():
    # recover each patch position independently and recompute the rule
    ds = gen_border_task(300, 32, Rng(7))
    for pixels, label in zip(ds.pixels, ds.labels):
        bright = np.argwhere((pixels == 1.0).all(axis=0))
        r, c = bright.min(axis=0)
        r2, c2 = bright.max(axis=0)
        assert (r2 - r, c2 - c) == (2, 2)
        touches = r <= 1 or r2 >= 30 or c <= 1 or c2 >= 30
        assert label == int(touches)


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# Taken from the per-image generator that preceded the one-block Dataset:
# filling a preallocated block must draw the same bytes.
@pytest.mark.parametrize("n, size, seed, pixels_sha, labels_sha", [
    (256, 32, 42, "ddd5b876d592517800eec374cd25d012260a8ac04011dbc8c9440878475ae94b",
     "50464819b954fecbacb452e12701391642191c3d013713488bbabafc06decf81"),
    (64, 8, 7, "e06bdd42dc2379b6b41a73baef8ad06939855fcce84d2d14cf521a4d3d3b17d8",
     "a84a88876f92777f08ea71c1bbd0920fad8a5ef60bd5bd1bf9c93a2846b8b906"),
], ids=["256x32-seed42", "64x8-seed7"])
def test_border_task_bytes_pinned(n, size, seed, pixels_sha, labels_sha):
    ds = gen_border_task(n, size, Rng(seed))
    assert ds.pixels.shape == (n, 3, size, size) and ds.pixels.dtype == np.float32
    assert ds.labels.shape == (n,) and ds.labels.dtype == np.int64
    assert _sha(ds.pixels) == pixels_sha
    assert _sha(ds.labels) == labels_sha


def test_border_task_rejects_small_size():
    with pytest.raises(ConfigError):
        gen_border_task(1, 7, Rng(0))


def test_resize_bilinear_known_values():
    x = np.array([[1.0, 2.0]], np.float64).reshape(1, 1, 2)
    out = resize_bilinear(x, 1, 4)
    np.testing.assert_allclose(out[0, 0], [1.0, 1.25, 1.75, 2.0])


def test_resize_constant_stays_constant():
    x = np.full((3, 5, 5), 0.375, np.float32)
    out = resize_bilinear(x, 9, 9)
    np.testing.assert_allclose(out, 0.375, rtol=1e-6)


def _img(seed=0, size=32, value=None):
    if value is not None:
        return np.full((3, size, size), value, np.float32)
    return Rng(seed).uniform((3, size, size))


def test_identity_augment_is_bitexact():
    cfg = identity_augment(32)
    img = _img(3)
    out = augment_train(img, cfg, Rng(1))
    assert out.tobytes() == img.tobytes()
    out_eval = augment_eval(img, cfg)
    assert out_eval.tobytes() == img.tobytes()


def test_flip_is_involution():
    cfg = AugmentConfig(
        train=TrainAugment(32, horizontal_flip_prob=1.0, scale=(1.0, 1.0),
                           aspect=(1.0, 1.0)),
        eval=EvalAugment(32, 32))
    img = _img(4)
    once = augment_train(img, cfg, Rng(0))
    twice = augment_train(once, cfg, Rng(0))
    assert twice.tobytes() == img.tobytes()


def test_normalization_formula():
    cfg = AugmentConfig(
        train=TrainAugment(32, 0.0, (1.0, 1.0), (1.0, 1.0)),
        eval=EvalAugment(32, 32),
        normalize_mean=(0.5, 0.25, 0.0),
        normalize_std=(0.25, 0.5, 1.0))
    img = _img(value=0.5)
    out = augment_eval(img, cfg)
    np.testing.assert_allclose(out[0], 0.0, atol=1e-7)
    np.testing.assert_allclose(out[1], 0.5, atol=1e-7)
    np.testing.assert_allclose(out[2], 0.5, atol=1e-7)


def test_eval_augment_deterministic_and_shapes():
    cfg = AugmentConfig(train=TrainAugment(32), eval=EvalAugment(36, 32))
    img = _img(9)
    a = augment_eval(img, cfg)
    b = augment_eval(img, cfg)
    assert a.shape == (3, 32, 32)
    assert a.tobytes() == b.tobytes()


def test_eval_augment_constant_stays_constant():
    cfg = AugmentConfig(train=TrainAugment(32), eval=EvalAugment(36, 32))
    out = augment_eval(_img(value=0.7), cfg)
    np.testing.assert_allclose(out, 0.7, rtol=1e-6)


def _nan_and_negative_zero_block(dtype):
    block = Rng(13).uniform((4, 3, 16, 16), 0.0, 1.0, dtype)
    block[1, 0, 2, 3] = np.nan
    block[2, 1, :, 5] = -0.0
    return block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("resize, crop", [(16, 16), (16, 12), (24, 24), (24, 16),
                                          (10, 10), (12, 8)])
@pytest.mark.parametrize("normalize", [
    pytest.param({}, id="unnormalized"),
    pytest.param({"normalize_mean": (0.25, 0.5, 0.0), "normalize_std": (0.5, 2.0, 1.0)},
                 id="normalized")])
def test_eval_transform_of_a_block_matches_image_by_image(dtype, resize, crop, normalize):
    cfg = AugmentConfig(TrainAugment(crop), EvalAugment(resize, crop), **normalize)
    block = _nan_and_negative_zero_block(dtype)
    whole = augment_eval(block, cfg)
    per_image = np.stack([augment_eval(p, cfg) for p in block])
    assert whole.dtype == per_image.dtype and whole.shape == per_image.shape
    assert whole.tobytes() == per_image.tobytes()


def test_eval_transform_of_a_large_block_is_chunked():
    # transformed whole, this block peaked at 118.7 MiB: five block-sized temporaries
    cfg = AugmentConfig(TrainAugment(32), EvalAugment(36, 32), (0.25, 0.5, 0.0),
                        (0.5, 2.0, 1.0))
    block = Rng(3).uniform((2000, 3, 32, 32), 0.0, 1.0, np.float32)
    tracemalloc.start()
    try:
        whole = augment_eval(block, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20
    assert whole.tobytes() == np.stack([augment_eval(p, cfg) for p in block]).tobytes()


def test_train_and_eval_transform_bytes_pinned():
    # sha256 taken from the per-image (C, H, W) resize that preceded the block one
    h = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        block = _nan_and_negative_zero_block(dtype)
        for size, resize, crop in ((16, 16, 16), (24, 24, 20), (12, 12, 8)):
            cfg = AugmentConfig(TrainAugment(size, 0.5, (0.3, 1.0), (0.6, 1.6)),
                                EvalAugment(resize, crop), (0.25, 0.5, 0.0), (0.5, 2.0, 1.0))
            rng = Rng(8)
            for p in block:
                h.update(augment_train(p, cfg, rng).tobytes())
                h.update(augment_eval(p, cfg).tobytes())
    assert h.hexdigest() == "51bbbcc044fe3f512c3c88d9fa6a54ec539845cb24c3b600c6b8fb4df1db6198"


def test_train_augment_reproducible_stream():
    cfg = AugmentConfig(train=TrainAugment(24), eval=EvalAugment(24, 24))
    img = _img(11)
    a = augment_train(img, cfg, Rng(5))
    b = augment_train(img, cfg, Rng(5))
    assert a.shape == (3, 24, 24)
    assert a.tobytes() == b.tobytes()
    c = augment_train(img, cfg, Rng(6))
    assert a.tobytes() != c.tobytes()


def test_augment_config_guards():
    with pytest.raises(ConfigError):
        EvalAugment(32, 36)
    with pytest.raises(ConfigError):
        AugmentConfig(train=TrainAugment(32), eval=EvalAugment(32, 32),
                      normalize_std=(1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Dataset

def test_dataset_slices_and_items_are_views():
    ds = gen_border_task(20, 8, Rng(1))
    part = ds[5:15]
    assert isinstance(part, Dataset) and len(part) == 10
    assert np.shares_memory(part.pixels, ds.pixels)
    assert np.shares_memory(part.labels, ds.labels)
    assert part.labels.tolist() == ds.labels[5:15].tolist()
    for key in (3, np.int64(3), [1, 2]):
        with pytest.raises(TypeError, match="takes a slice"):
            ds[key]


@pytest.mark.parametrize("pixels, labels, error, match", [
    (np.zeros((2, 3, 8), np.float32), [0, 1], ShapeError, "pixels must be"),
    (np.zeros((2, 1, 3, 8, 8), np.float32), [0, 1], ShapeError, "pixels must be"),
    (np.zeros((2, 3, 8, 8), np.uint8), [0, 1], ConfigError, "f32 or f64"),
    (np.zeros((2, 3, 8, 8), np.float32), [[0, 1]], ShapeError, "labels must be"),
    (np.zeros((2, 3, 8, 8), np.float32), [0.0, 1.0], ConfigError, "integers"),
    (np.zeros((2, 3, 8, 8), np.float32), [True, False], ConfigError, "integers"),
    (np.zeros((2, 3, 8, 8), np.float32), [0, 1, 1], ShapeError, "2 images but 3"),
])
def test_dataset_rejects_hostile_input(pixels, labels, error, match):
    with pytest.raises(error, match=match):
        Dataset(pixels, labels)


def test_loader_returns_one_block(tmp_path):
    path = tmp_path / "two.bin"
    path.write_bytes(_record(3) + _record(7, 255))
    ds = load_cifar_binary(path)
    assert isinstance(ds, Dataset)
    assert ds.pixels.shape == (2, 3, 32, 32) and ds.pixels.dtype == np.float32
    assert ds.labels.tolist() == [3, 7]


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf, -np.inf])
def test_save_rejects_unstorable_pixels(tmp_path, bad):
    ds = gen_border_task(4, 32, Rng(0))
    ds.pixels[2, 1, 5, 7] = bad
    out = tmp_path / "x.bin"
    with pytest.raises(ConfigError, match="finite and lie in"):
        save_cifar_binary(ds, out)
    assert not out.exists()


@pytest.mark.parametrize("label", [10, -1])
def test_save_rejects_out_of_range_labels(tmp_path, label):
    ds = gen_border_task(4, 32, Rng(0))
    ds.labels[1] = label
    out = tmp_path / "x.bin"
    with pytest.raises(ConfigError, match="labels must lie"):
        save_cifar_binary(ds, out)
    assert not out.exists()


def test_save_rejects_empty_and_wrong_size(tmp_path):
    out = tmp_path / "x.bin"
    with pytest.raises(ConfigError):
        save_cifar_binary(gen_border_task(2, 32, Rng(0))[:0], out)
    with pytest.raises(ConfigError, match="stores"):
        save_cifar_binary(gen_border_task(2, 16, Rng(0)), out)
    assert not out.exists()


def test_save_then_load_is_within_one_quantization_step(tmp_path):
    ds = gen_border_task(6, 32, Rng(3))
    a = tmp_path / "a.bin"
    save_cifar_binary(ds, a)
    back = load_cifar_binary(a)
    assert back.labels.tolist() == ds.labels.tolist()
    np.testing.assert_allclose(back.pixels, ds.pixels, atol=0.5 / 255 + 1e-7)
