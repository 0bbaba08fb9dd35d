import csv
import hashlib
import io
import json
import struct
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import padlab
from padlab.cli import main
from padlab.data import AugmentConfig, EvalAugment, TrainAugment
from padlab.training import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_wall(text: str) -> str:
    lines = text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def _config(tmp_path, **overrides):
    cfg = {
        "arch": "tinyvgg",
        "pad_channel": False,
        "num_classes": 2,
        "input_size": 32,
        "dataset": {"kind": "border", "n": 240, "size": 32, "seed": 9,
                    "val_fraction": 0.25},
        "train": {"base_lr": 0.02, "epochs": 2, "batch_size": 64},
        "out_dir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# ---------------------------------------------------------------------------
# imports

def test_import_loads_no_third_party_module_but_numpy():
    # urllib.request alone raised an analysis process's peak RSS by 2.3 MB
    src = str(Path(padlab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
            "import padlab, padlab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    loaded = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "padlab.cli" in loaded and "urllib.request" not in loaded
    tops = {name.split(".")[0] for name in loaded}
    assert tops - sys.stdlib_module_names == {"padlab", "numpy"}


# ---------------------------------------------------------------------------
# cost

def test_cost_single_arch(capsys):
    code, out, _ = run(capsys, "cost", "--arch", "resnet18", "--input-size", "224")
    assert code == 0
    assert "+3136" in out


def test_cost_all_reproduces_tables(capsys):
    code, out, _ = run(capsys, "cost", "--all", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header + 4 families x 2 variants
    by_family = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_family.setdefault(parts[0], {})[parts[1]] = parts
    for family, gmacs, delta in (("vgg11-bn", 7.66, 576), ("vgg16-bn", 15.55, 576),
                                 ("resnet18", 1.83, 3136), ("resnet50", 4.13, 3136)):
        base = by_family[family]["base"]
        pc = by_family[family]["pc"]
        assert round(float(base[5]), 2) == gmacs
        assert int(pc[3]) == delta


def test_cost_unknown_arch_exits_1(capsys):
    # ModelSpec is the one family check
    code, _, err = run(capsys, "cost", "--arch", "nonesuch")
    assert code == 1
    assert "unknown family 'nonesuch'; known: ('vgg11-bn'," in err and "'tinyresnet')" in err
    code, _, _ = run(capsys, "cost")
    assert code == 1


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "cost", "--arch", "resnet18", "--bogus")
    assert code == 1


def test_help_exits_0():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    for sub in ("cost", "train", "compare", "gen-data", "gradcheck", "eval"):
        with pytest.raises(SystemExit) as info:
            main([sub, "--help"])
        assert info.value.code == 0


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    code1, _, _ = run(capsys, "gen-data", "--task", "border", "--n", "100",
                      "--seed", "7", "--out", str(a))
    code2, _, _ = run(capsys, "gen-data", "--task", "border", "--n", "100",
                      "--seed", "7", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size == 100 * 3073


def test_gen_data_bytes_pinned(tmp_path, capsys):
    # sha256 taken from the per-image writer that preceded the one-block one
    out = tmp_path / "g.bin"
    code, stdout, _ = run(capsys, "gen-data", "--task", "border", "--n", "64",
                          "--seed", "7", "--out", str(out))
    assert code == 0
    assert "wrote 64 records" in stdout and "(17 boundary-positive)" in stdout
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "6ea2aa6bdc33da95edaecd33faeba63dd06c1f1912c9dd34d64c19a35ebb72c5")


def test_gen_data_unknown_task(tmp_path, capsys):
    code, _, _ = run(capsys, "gen-data", "--task", "speckle", "--n", "1",
                     "--seed", "0", "--out", str(tmp_path / "x.bin"))
    assert code == 1


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_data_rejects_empty_count(tmp_path, capsys, n):
    out = tmp_path / "x.bin"
    code, _, err = run(capsys, "gen-data", "--task", "border", "--n", n,
                       "--seed", "0", "--out", str(out))
    assert code == 1
    assert "n must be >= 1" in err
    assert not out.exists()


def test_gen_data_seed_outside_64_bits_exits_1(tmp_path, capsys):
    out = tmp_path / "x.bin"
    code, stdout, err = run(capsys, "gen-data", "--task", "border", "--n", "4",
                            "--seed", "-1", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: seed -1 is outside [0, 2**64)\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval

def test_train_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path)
    code, out, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    run_folder = Path(cfg["out_dir"]) / "tinyvgg" / "0"
    runlog = run_folder / "runlog.csv"
    ckpt = run_folder / "best.ckpt"
    assert runlog.exists() and ckpt.exists()
    lines = runlog.read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # header + one row per epoch
    first = runlog.read_text()
    first_ckpt = ckpt.read_bytes()

    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    assert _strip_wall(runlog.read_text()) == _strip_wall(first)
    assert ckpt.read_bytes() == first_ckpt


def test_train_parallel_matches_sequential(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path)
    code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                     "--seeds", "0,1", "--parallel", "2")
    assert code == 0
    par = {s: (Path(cfg["out_dir"]) / "tinyvgg" / s / "runlog.csv").read_text()
           for s in ("0", "1")}
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seeds", "0,1")
    assert code == 0
    for s in ("0", "1"):
        seq = (Path(cfg["out_dir"]) / "tinyvgg" / s / "runlog.csv").read_text()
        assert _strip_wall(seq) == _strip_wall(par[s])


def test_train_parallel_starts_no_more_workers_than_seeds(tmp_path, capsys, monkeypatch):
    import concurrent.futures as cf

    class InlineExecutor:  # forks nothing: records max_workers, runs each job here
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = cf.Future()
            future.set_result(fn(*args))
            return future

    workers = []
    monkeypatch.setattr(cf, "ProcessPoolExecutor", InlineExecutor)
    cfg_path, _ = _config(tmp_path, train={"base_lr": 0.02, "epochs": 1, "batch_size": 64})
    code, out, _ = run(capsys, "train", "--config", str(cfg_path),
                       "--seeds", "0..1", "--parallel", "5000")
    assert code == 0 and workers == [2]
    assert [line.split(":")[0] for line in out.splitlines()] == ["seed 0", "seed 1"]


def test_train_dataset_too_large_to_allocate_exits_2(tmp_path, capsys):
    # numpy refuses the 10.9 PiB request at once, before touching any memory
    cfg_path, _ = _config(tmp_path, dataset={"kind": "border", "n": 10**12, "size": 32,
                                             "seed": 9, "val_fraction": 0.25})
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 2 and out == ""
    assert err.startswith("data error: Unable to allocate") and err.count("\n") == 1


def test_train_dataset_n_no_array_can_hold_exits_2(tmp_path, capsys):
    # numpy refuses a dimension past int64 with a ValueError, not a MemoryError
    cfg_path, _ = _config(tmp_path, dataset={"kind": "border", "n": 10**20, "size": 32,
                                             "seed": 9, "val_fraction": 0.25})
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert (code, out, err) == (2, "", "data error: Maximum allowed dimension exceeded\n")


@pytest.mark.parametrize("argv", [
    ("gen-data", "--n", str(10**20), "--seed", "1"),
    ("cost", "--arch", "tinyvgg", "--input-size", str(10**23)),
    ("cost", "--arch", "tinyvgg", "--num-classes", str(10**23)),
], ids=["gen-data-n", "cost-input-size", "cost-num-classes"])
def test_size_no_array_can_hold_exits_2(tmp_path, capsys, argv):
    out_args = ("--out", str(tmp_path / "x.bin")) if argv[0] == "gen-data" else ()
    code, out, err = run(capsys, *argv, *out_args)
    assert (code, out, err) == (2, "", "data error: Maximum allowed dimension exceeded\n")
    assert not (tmp_path / "x.bin").exists()


def test_train_with_explicit_augment_config(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path, augment={
        "train": {"random_resized_crop_size": 32, "horizontal_flip_prob": 0.5,
                  "scale": [0.6, 1.0], "aspect": [0.9, 1.1]},
        "eval": {"resize_size": 32, "center_crop_size": 32},
        "normalize_mean": [0.3, 0.3, 0.3],
        "normalize_std": [0.5, 0.5, 0.5]})
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    runlog = Path(cfg["out_dir"]) / "tinyvgg" / "0" / "runlog.csv"
    first = runlog.read_text()
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    assert _strip_wall(runlog.read_text()) == _strip_wall(first)


def test_train_from_generated_binary_dataset(tmp_path, capsys):
    data = tmp_path / "border.bin"
    assert run(capsys, "gen-data", "--task", "border", "--n", "300",
               "--seed", "3", "--out", str(data))[0] == 0
    cfg_path, cfg = _config(tmp_path, dataset={
        "kind": "cifar-binary", "train_path": str(data), "val_path": str(data)},
        num_classes=2)
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    assert (Path(cfg["out_dir"]) / "tinyvgg" / "0" / "best.ckpt").exists()


def test_train_config_schema_violation_exits_1(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["surprise"] = 1
    cfg_path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("argv", [("train", "--seed", "0"),
                                  ("eval", "--checkpoint", "best.ckpt")])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, argv):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_bytes(b'{"arch": "tinyvgg\xff"}')
    code, out, err = run(capsys, argv[0], "--config", str(cfg_path), *argv[1:])
    assert code == 1 and out == ""
    assert "config is not UTF-8 text" in err and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["no", 1, None])
def test_train_config_non_boolean_pad_channel_exits_1(tmp_path, capsys, value):
    cfg_path, _ = _config(tmp_path, pad_channel=value)
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "pad_channel" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_train_config_non_finite_base_lr_exits_1(tmp_path, capsys, lr):
    cfg_path, _ = _config(tmp_path, train={"base_lr": lr, "epochs": 1, "batch_size": 64})
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "base_lr" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("lr_gamma", -1.0),  # used to train with lr -0.02 from epoch lr_step on
    ("lr_gamma", 0.0),
    ("lr_gamma", 1.5),
    ("lr_gamma", float("inf")),
    ("weight_decay", -5.0),
    ("weight_decay", float("nan")),
    ("early_stop_top1", -0.5),
    ("early_stop_top1", 100.5),
])
def test_train_config_out_of_range_training_value_exits_1(tmp_path, capsys, key, value):
    cfg_path, cfg = _config(tmp_path)
    cfg["train"][key] = value
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("arch", ["tinyvgg", "tinyresnet"])
def test_train_input_size_unlike_border_size_exits_1(tmp_path, capsys, arch):
    # tinyvgg used to stop in its linear layer, tinyresnet to train and exit 0
    cfg_path, _ = _config(tmp_path, arch=arch, input_size=16)
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "input_size 16" in err and "image size 32" in err
    assert not (tmp_path / "runs").exists()


def test_eval_input_size_unlike_cifar_binary_size_exits_1(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, input_size=16, dataset={
        "kind": "cifar-binary", "train_path": "unused.bin", "val_path": "unused.bin"})
    code, _, err = run(capsys, "eval", "--config", str(cfg_path),
                       "--checkpoint", "unused.ckpt")
    assert code == 1
    assert "input_size 16" in err and "image size 32" in err


def test_train_input_size_follows_augment_crops(tmp_path, capsys):
    augment = {"train": {"random_resized_crop_size": 24},
               "eval": {"resize_size": 32, "center_crop_size": 24}}
    cfg_path, cfg = _config(tmp_path, augment=augment, input_size=32)
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "input_size 32" in err and "image size 24" in err
    cfg_path, cfg = _config(tmp_path, augment=augment, input_size=24,
                            train={"base_lr": 0.02, "epochs": 1, "batch_size": 64})
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0
    assert (Path(cfg["out_dir"]) / "tinyvgg" / "0" / "best.ckpt").exists()


def test_train_out_dir_on_a_file_exits_2(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, train={"base_lr": 0.02, "epochs": 1, "batch_size": 64})
    raw = json.loads(cfg_path.read_text())
    raw["out_dir"] = str(cfg_path)  # a file where a directory is needed
    cfg_path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 2
    assert "Not a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("where, key, value", [
    ("train", "epochs", "1"),
    ("train", "seeds", "abc"),
    (None, "arch", 5),
    (None, "augment", 3),
    (None, "num_classes", "x"),
    ("train", "batch_size", 2.5),
    ("train", "epochs", True),  # a bool is not an int
    ("train", "seeds", [0, False]),
    # no float holds 10**400: np.isfinite raised TypeError on it
    pytest.param("train", "base_lr", 10**400, id="train-base_lr-10**400"),
    pytest.param("train", "weight_decay", 10**400, id="train-weight_decay-10**400"),
])
def test_train_config_wrong_json_type_exits_1(tmp_path, capsys, where, key, value):
    cfg_path, cfg = _config(tmp_path)
    (cfg["train"] if where else cfg)[key] = value
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert f"{key} has the wrong JSON type" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_config_with_an_int_past_the_digit_limit_exits_1(tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, on 5001 digits
    cfg_path, _ = _config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace('"n": 240', '"n": 1' + "0" * 5000))
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_train_config_missing_augment_key_exits_1(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, augment={"train": {}, "eval": {}})
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert "random_resized_crop_size" in err


def _augment(**train):
    return {"train": {"random_resized_crop_size": 32, **train},
            "eval": {"resize_size": 32, "center_crop_size": 32}}


@pytest.mark.parametrize("key, value", [
    ("scale", [0.5]),
    ("scale", [-1.0, -0.5]),
    ("scale", [0.9, 0.1]),
    ("aspect", [0.0, 1.0]),
    ("aspect", [0.5, 1.0, 2.0]),
    ("horizontal_flip_prob", 5.0),
    ("horizontal_flip_prob", -0.5),
    # no float holds 10**400: float() raised OverflowError on it
    pytest.param("scale", [1, 10**400], id="scale-10**400"),
])
def test_train_malformed_augment_exits_1(tmp_path, capsys, key, value):
    cfg_path, _ = _config(tmp_path, augment=_augment(**{key: value}))
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"augment.train.{key}" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_train_normalize_std_beyond_float_range_exits_1(tmp_path, capsys):
    # float() raised OverflowError on 10**400
    cfg_path, _ = _config(tmp_path,
                          augment={**_augment(), "normalize_std": [10**400, 1, 1]})
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 1 and out == ""
    assert "augment.normalize_std has the wrong JSON type" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("aspect", [100.0, 100.0]),  # the centered fallback's crop is 1 pixel high
    ("aspect", [1e308, 1e308]),  # area * ratio overflows to inf
    ("scale", [1e308, 1e308]),
    # ints a float holds: kept as ints, np.isfinite raised TypeError on 2**70
    pytest.param("scale", [1, 2**70], id="scale-2**70"),
    pytest.param("aspect", [1, 10**300], id="aspect-10**300"),
])
def test_train_extreme_augment_falls_back_and_trains(tmp_path, capsys, key, value):
    cfg_path, cfg = _config(tmp_path, augment=_augment(**{key: value}),
                            train={"base_lr": 0.02, "epochs": 1, "batch_size": 64})
    with np.errstate(over="ignore"):  # the overflow is the case under test
        code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 0, err
    assert (Path(cfg["out_dir"]) / "tinyvgg" / "0" / "best.ckpt").exists()


@pytest.mark.parametrize("where, cls, needs", [
    pytest.param("train", TrainConfig, [], id="TrainConfig"),
    pytest.param("augment", AugmentConfig, ["train", "eval"], id="AugmentConfig"),
    pytest.param("augment.train", TrainAugment, ["random_resized_crop_size"],
                 id="TrainAugment"),
    pytest.param("augment.eval", EvalAugment, ["resize_size", "center_crop_size"],
                 id="EvalAugment"),
])
def test_config_block_takes_the_keys_of_its_dataclass(tmp_path, capsys, where, cls, needs):
    assert [f.name for f in fields(cls) if f.default is MISSING] == needs

    def block(cfg):
        for part in where.split("."):
            cfg = cfg[part]
        return cfg

    for change in ["surprise", *needs]:
        cfg_path, cfg = _config(tmp_path, augment=_augment())
        if change == "surprise":
            block(cfg)[change] = 1
            expected = f"error: unknown {where} keys: ['surprise']"
        else:
            del block(cfg)[change]
            expected = f"error: {where} needs {change!r}"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
        assert code == 1 and out == ""
        assert err == expected + "\n"
    assert not (tmp_path / "runs").exists()


def test_train_non_finite_state_exits_3_and_keeps_runlog(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("padlab.training.evaluate", lambda *args, **kwargs: 50.0)
    cfg_path, cfg = _config(tmp_path, train={"base_lr": 3e38, "epochs": 1, "batch_size": 256})
    with np.errstate(all="ignore"):
        code, _, err = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 3
    assert "non-finite model state" in err
    run_path = Path(cfg["out_dir"]) / "tinyvgg" / "0"
    assert (run_path / "runlog.csv").exists()
    assert not (run_path / "best.ckpt").exists()


@pytest.mark.parametrize("seeds, argv", [
    ([], ()),
    (None, ("--seeds", ",")),
    (None, ("--seeds", "5..3")),
    (None, ("--seeds", "abc")),
    (None, ("--seeds", "0,1", "--parallel", "-1")),
])
def test_train_without_usable_seeds_exits_1(tmp_path, capsys, seeds, argv):
    cfg_path, cfg = _config(tmp_path)
    if seeds is not None:
        cfg["train"]["seeds"] = seeds
        cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "train", "--config", str(cfg_path), *argv)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("train, argv", [
    pytest.param({}, ("--seed", str(2**64)), id="--seed-2**64"),
    pytest.param({}, ("--seeds", "-1"), id="--seeds--1"),
    pytest.param({"seeds": [2**70]}, (), id="train.seeds-2**70"),
    pytest.param({}, ("--seeds", f"0,{2**64}"), id="--seeds-0,2**64"),
])
def test_train_seed_outside_64_bits_exits_1(tmp_path, capsys, train, argv):
    # masked, 2**64 trained seed 0's run again and 2**70 trained seed 0; a bad
    # seed after a good one exits before the good one's run writes anything
    cfg_path, cfg = _config(tmp_path)
    cfg["train"].update(train)
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "train", "--config", str(cfg_path), *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: seed ") and "is outside [0, 2**64)" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("seeds, message", [
    ("0..100000000000000000000", "seed 100000000000000000000 is outside [0, 2**64)"),
    (f"0..{2**64 - 1}", f"--seeds '0..{2**64 - 1}' names {2**64} seeds, too many to list"),
], ids=["past-64-bits", "past-a-list"])
def test_train_seed_range_checked_before_it_is_listed_exits_1(tmp_path, capsys, seeds,
                                                               message):
    # list(range(...)) raised OverflowError on both before any check ran
    cfg_path, _ = _config(tmp_path)
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seeds", seeds)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "runs").exists()


def test_train_prints_one_progress_line_per_epoch(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path)
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--seeds", "0,1")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["seed 0", "seed 1"]
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "seed 0 epoch 0", "seed 0 epoch 1", "seed 1 epoch 0", "seed 1 epoch 1"]
    for line in lines:
        for word in ("loss ", "top-1 ", "lr 0.02 "):
            assert word in line
        assert line.endswith(" s")


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, dataset={
        "kind": "cifar-binary",
        "train_path": str(tmp_path / "none.bin"),
        "val_path": str(tmp_path / "none.bin")})
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 2


def test_train_corrupt_dataset_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(3072))
    cfg_path, _ = _config(tmp_path, dataset={
        "kind": "cifar-binary", "train_path": str(bad), "val_path": str(bad)})
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    assert code == 2


def test_eval_matches_checkpoint_value(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path)
    code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--seed", "1")
    assert code == 0
    ckpt = Path(cfg["out_dir"]) / "tinyvgg" / "1" / "best.ckpt"
    code, out, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                       "--config", str(cfg_path))
    assert code == 0
    shown, recorded = out.split("val top-1 ")[1].split(" (checkpoint recorded ")
    assert float(shown) == float(recorded.split(" ")[0])


def test_eval_checkpoint_with_non_utf8_name_exits_2(tmp_path, capsys):
    from padlab.training import Checkpoint
    cfg_path, _ = _config(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    Checkpoint(0, 50.0, {"zz": np.zeros(2, np.float32)}).save(ckpt)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"zz", b"\xff\xfe"))
    code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--config", str(cfg_path))
    assert code == 2
    assert "not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("meta", [{"meta.val_top1": [50.0]},
                                  {"meta.epoch": [3.0]},
                                  {"meta.epoch": [], "meta.val_top1": [50.0]},
                                  {"meta.epoch": [3.0], "meta.val_top1": [50.0, 1.0]},
                                  {"meta.epoch": [np.nan], "meta.val_top1": [50.0]}],
                         ids=["no-epoch", "no-top1", "empty-epoch", "two-top1", "nan-epoch"])
def test_eval_checkpoint_with_bad_meta_exits_2(tmp_path, capsys, meta):
    from padlab.checkpoint import model_state, write_tensors
    from padlab.models import ModelSpec, build_model
    from padlab.rng import Rng
    cfg_path, _ = _config(tmp_path)
    state = model_state(build_model(ModelSpec("tinyvgg", num_classes=2,
                                              input_size=32), Rng(0)))
    state.update({k: np.asarray(v, np.float64) for k, v in meta.items()})
    ckpt = tmp_path / "meta.ckpt"
    write_tensors(ckpt, state)
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path))
    assert code == 2
    assert "must hold exactly one finite value" in err
    assert out == "" and "Traceback" not in err


def test_eval_checkpoint_whose_element_count_wraps_int64_exits_2(tmp_path, capsys):
    # four dims of 65536 hold 2**64 elements, a count an int64 product wraps to 0
    cfg_path, _ = _config(tmp_path)
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(b"PDCH" + struct.pack("<IIH", 1, 1, 1) + b"w"
                     + struct.pack("<B4IB", 4, *[65536] * 4, 0))
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path))
    assert (code, out, err) == (2, "", "data error: w: truncated data\n")


@pytest.mark.parametrize("records, message", [
    (2 * [b"w" + struct.pack("<BIB", 1, 1, 0) + bytes(4)], "w: tensor named twice"),
    ([b"w" + struct.pack("<B70IB", 70, *[1] * 70, 0) + bytes(4)], "w: "),
    ([b"w" + struct.pack("<BIB", 1, 2, 0) + bytes(5)], "w: "),
], ids=["named-twice", "rank-70", "cut-inside-an-element"])
def test_eval_checkpoint_numpy_or_a_dict_cannot_hold_exits_2(tmp_path, capsys, records,
                                                              message):
    # the last copy of a repeated name won; numpy's ValueError ended the others
    cfg_path, _ = _config(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"PDCH" + struct.pack("<II", 1, len(records))
                     + b"".join(struct.pack("<H", 1) + r for r in records))
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path))
    assert (code, out) == (2, "") and err.startswith(f"data error: {message}")
    assert err.count("\n") == 1


def test_eval_checkpoint_with_wrong_shaped_running_stat_exits_1(tmp_path, capsys):
    from padlab.checkpoint import model_state
    from padlab.models import ModelSpec, build_model
    from padlab.rng import Rng
    from padlab.training import Checkpoint
    cfg_path, _ = _config(tmp_path)
    state = model_state(build_model(ModelSpec("tinyvgg", num_classes=2,
                                              input_size=32), Rng(0)))
    state["features.bn2.running_mean"] = np.zeros(3, np.float32)
    ckpt = tmp_path / "bn.ckpt"
    Checkpoint(0, 50.0, state).save(ckpt)
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path))
    assert code == 1
    assert "features.bn2.running_mean: checkpoint shape (3,)" in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("change, message", [
    (lambda state: state.update({"features.conv9.weight": np.zeros((3, 3), np.float32)}),
     "checkpoint tensors the model does not name: ['features.conv9.weight']"),
    (lambda state: state.update({"classifier.fc1.bias":
                                 state["classifier.fc1.bias"].astype(np.float64)}),
     "classifier.fc1.bias: checkpoint dtype float64 != model dtype float32"),
], ids=["unknown-tensor", "f64-tensor"])
def test_eval_checkpoint_the_model_cannot_take_whole_exits_1(tmp_path, capsys, change,
                                                              message):
    from padlab.checkpoint import model_state
    from padlab.models import ModelSpec, build_model
    from padlab.rng import Rng
    from padlab.training import Checkpoint
    cfg_path, _ = _config(tmp_path)
    state = model_state(build_model(ModelSpec("tinyvgg", num_classes=2,
                                              input_size=32), Rng(0)))
    change(state)
    ckpt = tmp_path / "extra.ckpt"
    Checkpoint(0, 50.0, state).save(ckpt)
    code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path))
    assert code == 1
    assert message in err
    assert out == "" and "Traceback" not in err


# ---------------------------------------------------------------------------
# compare

def test_compare_fixture_reproduces_p_values(tmp_path, capsys):
    out_stem = tmp_path / "cmp"
    code, out, _ = run(capsys, "compare", "--fixture", "--out", str(out_stem),
                       "--svg")
    assert code == 0
    for p in ("0.5018", "0.3928", "0.3988", "0.0104"):
        assert p in out
    assert (tmp_path / "cmp.csv").exists()
    assert (tmp_path / "cmp_means.svg").exists()
    assert (tmp_path / "cmp_stdevs.svg").exists()


def test_compare_svg_without_out_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "compare", "--fixture", "--svg")
    assert code == 1
    assert "--svg needs --out" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_compare_requires_two_runs_per_side(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path)
    run(capsys, "train", "--config", str(cfg_path), "--seed", "0")
    glob_a = str(Path(cfg["out_dir"]) / "tinyvgg" / "0" / "runlog.csv")
    code, _, _ = run(capsys, "compare", "--runs-a", glob_a, "--runs-b", glob_a)
    assert code == 1


def test_compare_identical_groups_null_case(tmp_path, capsys):
    cfg_path, cfg = _config(tmp_path)
    run(capsys, "train", "--config", str(cfg_path), "--seeds", "0,1")
    glob_all = str(Path(cfg["out_dir"]) / "tinyvgg" / "*" / "runlog.csv")
    code, out, _ = run(capsys, "compare", "--runs-a", glob_all,
                       "--runs-b", glob_all)
    assert code == 0
    assert " 0.5000" in out


@pytest.mark.parametrize("text, message", [
    ("name,score\nx,1.0\n", "run log is not"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\n", "empty run log"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,x,1,1,1\n",
     "run log is not"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\n\xff\xfe,0,0,1,1,1,1\n",
     "run log is not UTF-8 text"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,0.5,nan,0.02,1\n",
     "non-finite"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,inf,99,0.02,1\n",
     "non-finite"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,0.5,250.0,0.02,1\n",
     "val_top1 is outside [0, 100]"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,0.5,-3,0.02,1\n",
     "val_top1 is outside [0, 100]"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,0.5,90,0.02,1\n"
     "tinyvgg-pc,0,1,0.4,95,0.02,1\n", "differ in spec_id or seed"),
    ("spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\ntinyvgg,0,0,0.5,90,0.02,1\n"
     "tinyvgg,7,1,0.4,95,0.02,1\n", "differ in spec_id or seed"),
])
def test_compare_malformed_runlogs_exit_2(tmp_path, capsys, text, message):
    for side in ("a", "b"):
        for i in range(2):  # latin-1 writes "\xff" as the byte 0xff, which is not UTF-8
            (tmp_path / f"{side}{i}.csv").write_text(text, encoding="latin-1")
    code, _, err = run(capsys, "compare", "--runs-a", str(tmp_path / "a*.csv"),
                       "--runs-b", str(tmp_path / "b*.csv"))
    assert code == 2
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("spec_id", ["a<b,c", 'x&"y"'])
def test_compare_writes_valid_csv_and_svg_for_any_spec_id(tmp_path, capsys, spec_id):
    header = "spec_id,seed,epoch,train_loss,val_top1,lr,wall_seconds\n"
    for side, spec in (("a", spec_id), ("b", spec_id + "-pc")):
        quoted = '"' + spec.replace('"', '""') + '"'
        for seed in range(2):
            top1 = 90 + seed + (side == "b")
            (tmp_path / f"{side}{seed}.csv").write_text(
                f"{header}{quoted},{seed},0,0.5,{top1},0.02,1\n")
    code, _, err = run(capsys, "compare", "--runs-a", str(tmp_path / "a*.csv"),
                       "--runs-b", str(tmp_path / "b*.csv"),
                       "--out", str(tmp_path / "out"), "--svg")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO((tmp_path / "out.csv").read_text())))
    assert [len(row) for row in rows] == [10, 10]
    assert rows[1][:2] == [spec_id, "2"]
    for name in ("out_means.svg", "out_stdevs.svg"):
        texts = [node.firstChild.data
                 for node in minidom.parse(str(tmp_path / name)).getElementsByTagName("text")]
        assert spec_id in texts


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_cli_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--trials", "1")
    assert code == 0
    assert "all layers pass" in out
    assert "conv2d[zero pad]" in out


def test_gradcheck_cli_reports_failures(capsys, monkeypatch):
    import padlab.gradcheck_suite as suite
    monkeypatch.setattr(suite, "run_suite",
                        lambda trials=3: [("broken-layer", 0.5)])
    code, out, _ = run(capsys, "gradcheck")
    assert code == 3
    assert "FAIL" in out


def test_gradcheck_cli_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "gradcheck", "--trials", "0")
    assert code == 1
    assert "trials must be >= 1" in err and "all layers pass" not in out
