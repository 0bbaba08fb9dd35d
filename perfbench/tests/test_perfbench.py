"""Tests of the benchmark's own logic: span accounting, metric names, MAC
derivation and the trace coverage self-check."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from padlab import autodiff, models, nn, training
from padlab.rng import Rng
from perfbench import layers, spans, workloads
from perfbench.spans import Tracer, nearest, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent, n=None):
    return [name, start, end, parent, n]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 15, 25, 1),
        _span("b", 50, 90, 0),
        _span("b.child", 60, 70, 3),
        _span("b.child.leaf", 62, 65, 4),
    ]
    assert self_times(tree) == [30, 20, 10, 30, 7, 3]


def test_nearest_finds_enclosing_span():
    tree = [
        _span("bench.rep", 0, 100, -1),
        _span("x", 1, 50, 0),
        _span("y", 2, 10, 1),
        _span("outside", 110, 120, -1),
    ]
    assert nearest(tree, lambda n: n == "bench.rep") == [0, 0, 0, -1]


def test_training_steps_report_wall_and_unattributed_time():
    tree = [
        _span("training.train_run", 0, 1000, -1),
        _span("models.build_model", 0, 5, 0),
        _span("models.forward.train", 10, 40, 0),
        _span("nn.softmax_cross_entropy", 42, 45, 0),
        _span("autodiff.backward", 46, 80, 0),
        _span("training.sgd_step", 81, 90, 0),
        _span("models.zero_grads", 90, 95, 0),
        _span("models.forward.train", 100, 130, 0),
        _span("autodiff.backward", 130, 160, 0),
        _span("training.sgd_step", 160, 170, 0),
        _span("models.zero_grads", 171, 180, 0),
        _span("training.evaluate", 200, 300, 0),
    ]
    assert layers.training_steps(tree) == [(85, 4), (80, 1)]


def test_benchmark_json_names_and_units_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME_RE.fullmatch(name), name
    assert len(set(names + [m["name"] for m in metrics])) == len(names) + len(metrics)
    assert set(names) == set(workloads.WORKLOADS)
    for m in metrics:
        assert UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items()


def _conv_macs_by_hand(spec):
    """k*k*Cin*Cout*Ho*Wo (+ Cout*Ho*Wo with bias) per conv, in forward order."""
    c = spec.input_channels + 1
    s = spec.input_size
    if spec.family == "tinyvgg":
        out = []
        for width in (8, 16, 32):
            out.append(9 * c * width * s * s + width * s * s)
            c, s = width, s // 2
        return out
    # tinyresnet: stem s2, then two BasicBlocks (s2 conv1, conv2, 1x1 s2 projection)
    s //= 2
    out = [9 * c * 8 * s * s]
    c = 8
    for width in (16, 32):
        s //= 2
        out += [9 * c * width * s * s, 9 * width * width * s * s, c * width * s * s]
        c = width
    return out


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_conv_macs_match_padlab_cost(family):
    spec = models.ModelSpec(family, pad_channel=True, num_classes=2, input_size=32)
    model = models.build_model(spec, Rng(0))
    by_hand = _conv_macs_by_hand(spec)
    fwd, bwd = layers.conv_macs(model)
    assert fwd == sum(by_hand)
    assert bwd == 2 * sum(by_hand) - by_hand[0]


def _traced_steps(tracer, model, steps=2):
    batch = Rng(1).uniform((4, 3, 16, 16)).astype(np.float32)
    labels = np.array([0, 1, 0, 1])
    with tracer.span("bench.rep"), tracer.span("training.train_run"):
        for _ in range(steps):
            tape = autodiff.Tape()
            logits = model.forward(autodiff.Variable(batch), "train", tape, Rng(2))
            loss = training.softmax_cross_entropy(logits, labels, tape)
            autodiff.backward(loss, tape)
            model.zero_grads()
        model.forward(autodiff.Variable(batch), "eval")


def test_trace_covers_a_model_and_restores_padlab():
    spec = models.ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                            input_size=16)
    model = models.build_model(spec, Rng(0))
    originals = (nn.conv2d, models.conv2d, models.Model.forward,
                 autodiff.Tape.record, autodiff.backward)
    tracer = Tracer()
    try:
        assert layers.install(tracer) == []
        assert models.conv2d is nn.conv2d and models.conv2d is not originals[0]
        _traced_steps(tracer, model)
    finally:
        tracer.uninstall()
    assert (nn.conv2d, models.conv2d, models.Model.forward,
            autodiff.Tape.record, autodiff.backward) == originals

    checks = layers.coverage_checks(
        tracer.spans, [], {"models.forward.train": 8, "models.forward.eval": 4,
                           "autodiff.backward": None, "models.zero_grads": None},
        model)
    assert all(ok for _, ok in checks), [w for w, ok in checks if not ok]
    totals = layers.rep_totals(tracer.spans)[0]
    assert totals["nn.conv2d"][0] == 3 * layers.ops_per_forward(model)["conv2d"]
    assert layers.ops_per_forward(model)["maxpool2d"] == 0
    m = layers.layer_metrics(tracer.spans, layers.conv_macs(model))
    assert m["nn.conv2d.fwd_ms"] > 0 and m["nn.conv2d.bwd_ms"] > 0
    assert m["nn.conv2d.fwd_gmacs_per_s"] > 0


def test_bypassed_wrapper_fails_the_coverage_check():
    spec = models.ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                            input_size=16)
    model = models.build_model(spec, Rng(0))
    tracer = Tracer()
    try:
        layers.install(tracer)
        # a refactor that calls conv2d through a path the wrappers miss
        tracer.patch(models, "conv2d", nn.conv2d.__wrapped__)
        _traced_steps(tracer, model)
    finally:
        tracer.uninstall()
    checks = layers.coverage_checks(tracer.spans, [], {}, model)
    failed = [what for what, ok in checks if not ok]
    assert any("forwards runs the ops" in what for what in failed)
    assert any("backward closure" in what for what in failed)


def test_write_spans_round_trips(tmp_path):
    import gzip
    tree = [_span("a", 0, 10, -1, 3), _span("b", 1, 2, 0)]
    spans.write_spans(tree, tmp_path / "s.csv.gz")
    lines = gzip.open(tmp_path / "s.csv.gz", "rt").read().splitlines()
    assert lines == ["name,start_ns,end_ns,parent,n", "a,0,10,-1,3", "b,1,2,0,"]


class _FakeUnits:
    """Units of fixed wall time; the secondary's outputs change once."""

    calibration = {"primary_s": "array", "secondary_s": "array"}
    secondary_repeats = 1

    def __init__(self):
        self.calls = 0

    def primary_unit(self, tally):
        return 1.0, {"x": 1}

    def secondary_unit(self, tally):
        self.calls += 1
        return 0.5, {"x": min(self.calls, 2)}


def test_timed_units_normalise_by_the_kernel_around_each_unit(monkeypatch):
    # importing run pins the BLAS pool in os.environ; keep that to this test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    from perfbench import calib, run
    kernel_times = iter([0.01, 0.03, 0.01] * 10)
    monkeypatch.setattr(calib, "kernel_s", lambda kind: next(kernel_times))
    tally = workloads.Tally()
    times = run.timed_units(_FakeUnits(), tally, seconds=0)
    assert len(times["primary_s"]) == len(times["secondary_s"]) == run.MIN_UNITS
    # kernel times 0.01 | primary | 0.03 | secondary | 0.01 | primary | 0.03 ...
    assert times["primary_s"][0] == (1.0, pytest.approx(1.0 * calib.REF_S / 0.02))
    assert times["secondary_s"][0] == (0.5, pytest.approx(0.5 * calib.REF_S / 0.02))
    assert tally.failed == run.MIN_UNITS - 1
    assert all("secondary_s unit outputs repeat" in what for what in tally.failures)


def test_calibration_kernel_is_deterministic():
    from perfbench import calib
    for kind, kernel in calib.KERNELS.items():
        assert kernel() == kernel()
        assert calib.kernel_s(kind) > 0
