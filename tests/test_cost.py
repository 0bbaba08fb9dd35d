import hashlib
import tracemalloc

import numpy as np
import pytest

from padlab.cost import (COST_FAMILIES, cost_pair, cost_table, count_macs,
                         count_params)
from padlab.errors import ConfigError, GeometryError
from padlab.models import Conv2d, Forward, ModelSpec, build_model
from padlab.autodiff import Variable
from padlab.nn import ConvSpec, maxpool2d
from padlab.rng import Rng

# printed reference values for the four full-size families at 224x224
PARAM_TOTALS_M = {"vgg11-bn": 132.9, "vgg16-bn": 138.4,
                  "resnet18": 11.7, "resnet50": 25.6}
PARAM_DELTAS = {"vgg11-bn": 576, "vgg16-bn": 576,
                "resnet18": 3136, "resnet50": 3136}
PARAM_PCTS = {"vgg11-bn": 0.0004, "vgg16-bn": 0.0004,
              "resnet18": 0.027, "resnet50": 0.012}
GMAC_BASE = {"vgg11-bn": 7.66, "vgg16-bn": 15.55,
             "resnet18": 1.83, "resnet50": 4.13}
GMAC_DELTAS = {"vgg11-bn": 0.03, "vgg16-bn": 0.03,
               "resnet18": 0.04, "resnet50": 0.04}
GMAC_PCTS = {"vgg11-bn": 0.377, "vgg16-bn": 0.186,
             "resnet18": 2.155, "resnet50": 0.952}


@pytest.fixture(scope="module")
def report():
    return cost_table(COST_FAMILIES, 224)


def test_single_conv_param_count():
    model = build_model(ModelSpec("vgg11-bn"), Rng(0), init="zeros")
    conv1 = model._children["features"]._children["conv1"]
    _, params, _ = conv1.cost((3, 224, 224))
    assert params == 3 * 3 * 3 * 64 + 64 == 1792


def test_identity_conv_is_one_mac():
    layer = Conv2d(ConvSpec(1, 1, 1, 1, bias=False), Rng(0))
    out, params, macs = layer.cost((1, 1, 1))
    assert out == (1, 1, 1)
    assert macs == 1
    assert params == 1


def test_param_totals_and_deltas(report):
    for family in COST_FAMILIES:
        base = report.row(family, "base")
        pc = report.row(family, "pc")
        assert round(base.params / 1e6, 1) == PARAM_TOTALS_M[family]
        assert pc.params_delta == PARAM_DELTAS[family]
        assert round(pc.params_pct, 4 if PARAM_PCTS[family] < 0.001 else 3) == \
            PARAM_PCTS[family]


def test_gmac_totals_and_deltas(report):
    for family in COST_FAMILIES:
        base = report.row(family, "base")
        pc = report.row(family, "pc")
        assert round(base.gmacs, 2) == GMAC_BASE[family]
        assert round(pc.macs_delta / 1e9, 2) == GMAC_DELTAS[family]
        assert abs(pc.macs_pct - GMAC_PCTS[family]) <= 0.005


def test_resnet18_mac_delta_closed_form(report):
    # first conv 7x7, 64 filters, output 112x112
    assert report.row("resnet18", "pc").macs_delta == 7 * 7 * 64 * 112 * 112 \
        == 39_337_984
    assert report.row("vgg11-bn", "pc").macs_delta == 3 * 3 * 64 * 224 * 224 \
        == 28_901_376


@pytest.mark.parametrize("family,size", [("tinyresnet", 32), ("tinyvgg", 32),
                                         ("resnet18", 224), ("resnet18", 64),
                                         ("tinyresnet", 64)])
def test_mac_delta_matches_first_conv_closed_form(family, size):
    classes = 2 if family.startswith("tiny") else 1000
    rows = cost_pair(family, size, classes)
    base, pc = rows
    spec = ModelSpec(family, num_classes=classes, input_size=size)
    model = build_model(spec, Rng(0))
    first_conv = next(m for m in _iter_modules(model) if isinstance(m, Conv2d))
    s = first_conv.spec
    out = (size + 2 * s.pad - s.kernel_h) // s.stride + 1
    assert pc.macs_delta == s.kernel_h * s.kernel_w * s.out_channels * out * out
    assert pc.params_delta == s.kernel_h * s.kernel_w * s.out_channels


def _iter_modules(module):
    yield module
    for child in module._children.values():
        yield from _iter_modules(child)


def test_totals_equal_sum_of_rows():
    model = build_model(ModelSpec("tinyresnet", num_classes=2, input_size=32), Rng(0))
    rows = model.cost_rows()
    assert count_params(model) == sum(r[1] for r in rows)
    assert count_macs(model) == sum(r[2] for r in rows)


def test_count_params_matches_checkpoint_elements(tmp_path):
    from padlab.checkpoint import model_state, read_tensors
    from padlab.training import Checkpoint
    model = build_model(ModelSpec("tinyvgg", num_classes=2, input_size=32), Rng(1))
    path = tmp_path / "m.ckpt"
    Checkpoint(0, 0.0, model_state(model)).save(path)
    tensors = read_tensors(path)
    param_names = {name for name, _ in model.named_parameters()}
    byte_level = sum(arr.size for name, arr in tensors.items()
                     if name in param_names)
    assert byte_level == count_params(model)


def test_unknown_family_errors():
    with pytest.raises(ConfigError):
        cost_pair("nonesuch", 224)


def test_geometry_underflow_errors():
    with pytest.raises(GeometryError, match="input size 8 too small for vgg11-bn: "
                       "features.pool4: pool output 0x0 < 1"):
        cost_pair("vgg11-bn", 8)


def test_pool_underflow_reads_the_same_in_the_op_and_the_cost_walk():
    # nn.out_hw is the one output-size rule: the op and the cost rule share its
    # wording, and the walk prefixes the layer name once
    wording = "pool output 0x0 < 1 for input 1x1, kernel 2x2, stride 2, pad 0"
    with pytest.raises(GeometryError) as op_error:
        maxpool2d(Variable(np.zeros((1, 512, 1, 1), np.float32)), 2, 2)
    model = build_model(ModelSpec("vgg11-bn", input_size=8), Rng(0), init="zeros")
    with pytest.raises(GeometryError) as walk_error:
        model.cost_rows()
    assert str(op_error.value) == wording
    assert str(walk_error.value) == "features.pool4: " + wording


def test_cost_csv_bytes_pinned(report):
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == \
        "6e45856f9a6fb5a64402d0ea054ef938ae820f9ec38383bf8e7b36a200e65973"


def test_tinyresnet_cost_rows_in_forward_order():
    # the shortcut's projection runs after the main path and before the ReLU
    # that follows the join
    model = build_model(ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0), init="zeros")
    assert [name for name, _, _ in model.cost_rows()] == [
        "stem.conv", "stem.bn", "stem.relu",
        "layer1.block1.conv1", "layer1.block1.bn1", "layer1.block1.relu1",
        "layer1.block1.conv2", "layer1.block1.bn2",
        "layer1.block1.downsample.conv", "layer1.block1.downsample.bn",
        "layer1.block1.relu2",
        "layer2.block1.conv1", "layer2.block1.bn1", "layer2.block1.relu1",
        "layer2.block1.conv2", "layer2.block1.bn2",
        "layer2.block1.downsample.conv", "layer2.block1.downsample.bn",
        "layer2.block1.relu2",
        "gap", "fc"]


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_cost_rows_follow_the_forward_pass(family, monkeypatch):
    # every layer a real forward runs, in its order, is a cost row unless
    # its rule gives no MACs (flatten, dropout)
    model = build_model(ModelSpec(family, pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    names = {module: name for name, module in model.named_modules()}
    ran = []
    layer = Forward.layer

    def spy(ctx, module, x):
        ran.append(names[module])
        return layer(ctx, module, x)

    monkeypatch.setattr(Forward, "layer", spy)
    model.forward(np.zeros((2, 3, 32, 32), np.float32), "train", None, Rng(1))
    costed = [name for name, _, _ in model.cost_rows()]
    assert [n for n in ran if not n.startswith(("classifier.flatten",
                                                "classifier.drop"))] == costed


def test_csv_columns(report):
    header = report.to_csv().splitlines()[0]
    assert header == ("family,variant,params,params_delta,params_pct,"
                      "gmacs,gmacs_delta,gmacs_pct")
    assert len(report.to_csv().splitlines()) == 1 + 8


def test_tiny_rows_present_in_extended_table():
    report = cost_table(("tinyresnet", "tinyvgg"), 32, num_classes=2)
    assert len(report.rows) == 4
    for family in ("tinyresnet", "tinyvgg"):
        pc = report.row(family, "pc")
        assert pc.params_delta > 0
        assert pc.macs_delta > 0


def test_cost_pair_allocates_no_parameter_memory():
    # vgg16-bn has 138M parameters; reading its structure must not allocate
    # them (weights and gradients are zero-stride views)
    cost_pair("vgg16-bn", 224)
    tracemalloc.start()
    try:
        cost_pair("vgg16-bn", 224)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_structure_only_builds_construct_no_philox(monkeypatch):
    # a structure-only build derives child streams but draws from none, so
    # no Philox generator is built
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    cost_pair("resnet50", 224)
    build_model(ModelSpec("vgg11-bn", pad_channel=True), Rng(0), init="zeros")
    assert made == []
    Rng(5).normal((2,))  # a draw does build one, through the patched name
    assert made == [(5,)]
