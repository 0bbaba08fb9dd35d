"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from padlab.autodiff import Variable
from padlab.cli import main as cli_main
from padlab.cost import cost_table
from padlab.errors import IncompatiblePaddingError
from padlab.gradcheck_suite import run_suite
from padlab.models import ModelSpec, build_model
from padlab.nn import (ConvSpec, PaddingMode, attach_pad_channel, conv2d,
                       pad2d, relu)
from padlab.rng import Rng
from padlab.stats import load_reference_runs, summarize, t_cdf
from padlab.training import (EpochRecord, RunLog, TrainConfig,
                             epochs_to_threshold, lr_at)


def _report(number, description, elapsed, budget):
    print(f"PASS criterion {number}: {description} "
          f"({elapsed:.2f}s, budget {budget})")


def test_criterion_1_param_table_exact():
    t0 = time.perf_counter()
    report = cost_table(input_size=224)
    expected = {
        "vgg11-bn": (132.9, 576, 0.0004),
        "vgg16-bn": (138.4, 576, 0.0004),
        "resnet18": (11.7, 3136, 0.027),
        "resnet50": (25.6, 3136, 0.012),
    }
    for family, (total_m, delta, pct) in expected.items():
        base = report.row(family, "base")
        pc = report.row(family, "pc")
        assert round(base.params / 1e6, 1) == total_m
        assert pc.params_delta == delta
        digits = 4 if pct < 0.001 else 3
        assert round(pc.params_pct, digits) == pct
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "param totals, +576/+3136 deltas and % diffs exact", elapsed, "1 s")


def test_criterion_2_mac_table_exact():
    t0 = time.perf_counter()
    report = cost_table(input_size=224)
    expected = {
        "vgg11-bn": (7.66, 0.03, 0.377),
        "vgg16-bn": (15.55, 0.03, 0.186),
        "resnet18": (1.83, 0.04, 2.155),
        "resnet50": (4.13, 0.04, 0.952),
    }
    for family, (gmacs, delta, pct) in expected.items():
        base = report.row(family, "base")
        pc = report.row(family, "pc")
        assert round(base.gmacs, 2) == gmacs
        assert round(pc.macs_delta / 1e9, 2) == delta
        assert abs(pc.macs_pct - pct) <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "GMAC baselines, +0.03/+0.04 deltas and % diffs", elapsed, "1 s")


def test_criterion_3_run_statistics_exact():
    t0 = time.perf_counter()
    report = summarize(load_reference_runs())
    printed = {
        "vgg11-bn": (71.071, 71.070, 0.165, 0.099, 0.5018),
        "vgg16-bn": (74.218, 74.240, 0.149, 0.103, 0.3928),
        "resnet18": (70.301, 70.321, 0.126, 0.113, 0.3988),
        "resnet50": (76.432, 76.640, 0.130, 0.097, 0.0104),
    }
    for row in report.rows:
        mb, mp, sb, sp, p = printed[row.arch]
        assert round(row.mean_base, 3) == mb
        assert round(row.mean_pc, 3) == mp
        assert round(row.stdev_base, 3) == sb
        assert round(row.stdev_pc, 3) == sp
        assert abs(row.p_one_sided - p) <= 0.0005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, "16 aggregates at 3 decimals, p-values within 5e-4", elapsed, "1 s")


def test_criterion_4_pad_indicator_property():
    t0 = time.perf_counter()
    for trial in range(20):
        rng = Rng(4000 + trial)
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        h = int(rng.integers(5, 12))
        w = int(rng.integers(5, 12))
        x = Variable(rng.uniform((n, c, h, w)))
        for pad in (1, 2, 3):
            out = pad2d(attach_pad_channel(x), pad, PaddingMode.ZERO).data
            indicator = out[:, c]
            expected = np.zeros_like(indicator)
            expected[:, pad:-pad, pad:-pad] = 1.0
            assert np.array_equal(indicator, expected)
            assert out[:, :c, pad:-pad, pad:-pad].tobytes() == \
                x.data.tobytes()
    for mode in (PaddingMode.REFLECT, PaddingMode.REPLICATE):
        with pytest.raises(IncompatiblePaddingError):
            build_model(ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                                  input_size=32, padding_mode=mode), Rng(0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, "indicator channel exact for p in {1,2,3}; non-zero modes rejected",
            elapsed, "10 s")


def test_criterion_5_subsumption_construction():
    t0 = time.perf_counter()
    rng = Rng(55)
    x = Variable(rng.uniform((2, 3, 9, 7)))
    zero_w = Variable(np.zeros((1, 3, 3, 3), np.float32))
    one_b = Variable(np.ones(1, np.float32))
    feat = relu(conv2d(x, zero_w, one_b, ConvSpec(pad=1)))
    constructed = pad2d(feat, 1, PaddingMode.ZERO).data[:, 0]

    nxt = Variable(rng.uniform((2, 6, 9, 7)))
    reference = pad2d(attach_pad_channel(nxt), 1, PaddingMode.ZERO).data[:, 6]
    assert constructed.tobytes() == reference.tobytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "zero-weight/bias-1 conv + relu + zero pad equals the indicator "
               "bit-exactly", elapsed, "1 s")


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    results = run_suite(trials=10)
    names = [name for name, _ in results]
    for needed in ("conv2d[zero pad]", "conv2d[reflect pad]",
                   "conv2d[replicate pad]", "batchnorm2d[train]",
                   "maxpool2d[2x2 s2]", "global_avgpool", "linear",
                   "softmax_cross_entropy", "tinyresnet[composite, wrt input]"):
        assert needed in names
    worst = 0.0
    for name, err in results:
        print(f"    {name:<40} max rel err {err:.3e}")
        assert err < 1e-4, f"{name}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, f"all layers < 1e-4 over 10 f64 trials (worst {worst:.1e})",
            elapsed, "2 min")


def _smoke_config(tmp_path, family, pad_channel):
    spec_id = family + ("-pc" if pad_channel else "")
    cfg = {
        "arch": family,
        "pad_channel": pad_channel,
        "num_classes": 2,
        "input_size": 32,
        "dataset": {"kind": "border", "n": 10000, "size": 32, "seed": 123,
                    "val_fraction": 0.2},
        "train": {"base_lr": 0.02, "epochs": 15, "batch_size": 64,
                  "early_stop_top1": 99.0},
        "out_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / f"{spec_id}.json"
    path.write_text(json.dumps(cfg))
    return path, spec_id


def _strip_wall(text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in text.strip().splitlines())


@pytest.mark.slow
def test_criterion_7_desk_scale_training_smoke(tmp_path):
    t0 = time.perf_counter()
    runs_root = tmp_path / "runs"
    spec_ids = []
    for family in ("tinyresnet", "tinyvgg"):
        for pad_channel in (False, True):
            cfg_path, spec_id = _smoke_config(tmp_path, family, pad_channel)
            spec_ids.append((family, spec_id, cfg_path))
            assert cli_main(["train", "--config", str(cfg_path),
                             "--seeds", "0..4"]) == 0

    # every run reaches >= 95% within 15 epochs
    for _, spec_id, _ in spec_ids:
        for seed in range(5):
            log = RunLog.from_csv(
                (runs_root / spec_id / str(seed) / "runlog.csv").read_text())
            first = epochs_to_threshold(log, 95.0)
            assert first is not None and first < 15, \
                f"{spec_id} seed {seed} never reached 95% in 15 epochs"

    # byte-for-byte determinism on repeated invocation (seed 0, each config)
    for _, spec_id, cfg_path in spec_ids:
        run_path = runs_root / spec_id / "0"
        before_log = (run_path / "runlog.csv").read_text()
        before_ckpt = (run_path / "best.ckpt").read_bytes()
        assert cli_main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
        assert _strip_wall((run_path / "runlog.csv").read_text()) == \
            _strip_wall(before_log)
        assert (run_path / "best.ckpt").read_bytes() == before_ckpt

    # observed mean/stdev across seeds via the compare command (no threshold)
    for family in ("tinyresnet", "tinyvgg"):
        out_stem = tmp_path / f"cmp-{family}"
        code = cli_main([
            "compare",
            "--runs-a", str(runs_root / family / "*" / "runlog.csv"),
            "--runs-b", str(runs_root / (family + "-pc") / "*" / "runlog.csv"),
            "--out", str(out_stem)])
        assert code == 0
        csv_text = Path(str(out_stem) + ".csv").read_text()
        print(f"    {family} comparison: {csv_text.splitlines()[1]}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _report(7, "20/20 smoke runs reach 95% within 15 epochs, deterministic, "
               "compare report emitted", elapsed, "30 min")


def test_criterion_8_schedule_and_selection():
    t0 = time.perf_counter()
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.00125
    assert lr_at(30, cfg) == pytest.approx(0.000125, rel=1e-12)
    assert lr_at(60, cfg) == pytest.approx(1.25e-5, rel=1e-12)
    assert lr_at(90, cfg) == pytest.approx(1.25e-6, rel=1e-12)

    log = RunLog("fixture", 0)
    for e, v in enumerate([70.1, 70.5, 70.3]):
        log.records.append(EpochRecord(e, 0.0, v, 0.1, 0.0))
    assert log.best_epoch() == 1

    curve = [40 + 35.7 * e / 72 for e in range(73)] + [75.75, 75.9]
    fixture = RunLog("curve", 0)
    for e, v in enumerate(curve):
        fixture.records.append(EpochRecord(e, 0.0, v, 0.1, 0.0))
    assert epochs_to_threshold(fixture, 75.75) == 73
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, "LR decade steps, argmax checkpoint rule, threshold epoch 73",
            elapsed, "1 s")


def test_criterion_9_t_distribution_kernel():
    t0 = time.perf_counter()
    for t in (0.0, 1.0, -1.0, 2.0, -2.0):
        arctan_form = 0.5 + math.atan(t) / math.pi
        algebraic_form = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
        assert abs(t_cdf(t, 1) - arctan_form) < 1e-9
        assert abs(t_cdf(t, 2) - algebraic_form) < 1e-9
    for df in range(1, 51):
        assert t_cdf(0.0, df) == 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(9, "CDF matches df=1/df=2 closed forms at 1e-9; CDF(0)=0.5 up to df 50",
            elapsed, "1 s")
