import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from padlab.autodiff import Tape, Variable, backward
from padlab.checkpoint import model_state
from padlab.errors import ConfigError, IncompatiblePaddingError, ShapeError
from padlab.models import (FAMILIES, Conv2d, ModelSpec, build_model,
                           normalize_family)
from padlab.nn import PaddingMode, Pool, softmax_cross_entropy
from padlab.rng import Rng
from padlab.training import sgd_step

FIRST_CONV = {"vgg11-bn": "features.conv1.weight", "vgg16-bn": "features.conv1.weight",
              "resnet18": "stem.conv.weight", "resnet50": "stem.conv.weight",
              "tinyvgg": "features.conv1.weight", "tinyresnet": "stem.conv.weight"}


def _params(model):
    return dict(model.named_parameters())


def _total(model):
    return sum(v.data.size for _, v in model.named_parameters())


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        ModelSpec("nonesuch")


def test_resnet18_first_conv_shapes():
    # the one full-size Kaiming build; the other shape tests build zeros
    base = build_model(ModelSpec("resnet18"), Rng(0))
    stem = _params(base)["stem.conv.weight"].data
    assert stem.shape == (64, 3, 7, 7)
    assert stem.std() == pytest.approx(np.sqrt(2 / 147), rel=0.05)
    pc = build_model(ModelSpec("resnet18", pad_channel=True), Rng(0), init="zeros")
    assert _params(pc)["stem.conv.weight"].data.shape == (64, 4, 7, 7)
    assert _total(pc) - _total(base) == 3136


def test_vgg11_first_conv_growth():
    base = build_model(ModelSpec("vgg11-bn"), Rng(0), init="zeros")
    pc = build_model(ModelSpec("vgg11-bn", pad_channel=True), Rng(0), init="zeros")
    assert _params(pc)["features.conv1.weight"].data.shape == (64, 4, 3, 3)
    assert _total(pc) - _total(base) == 576


@pytest.mark.parametrize("family", FAMILIES)
def test_param_delta_is_first_conv_kernel_slice(family):
    size = 32 if family.startswith("tiny") else 224
    classes = 2 if family.startswith("tiny") else 1000
    base = build_model(ModelSpec(family, num_classes=classes, input_size=size), Rng(0),
                       init="zeros")
    pc = build_model(ModelSpec(family, pad_channel=True, num_classes=classes,
                               input_size=size), Rng(0), init="zeros")
    w = _params(base)[FIRST_CONV[family]].data.shape
    cout, _, kh, kw = w
    assert _total(pc) - _total(base) == kh * kw * cout
    # the delta carries no bias term: bias vectors are identical in size
    base_biases = sum(v.data.size for n, v in base.named_parameters() if "bias" in n)
    pc_biases = sum(v.data.size for n, v in pc.named_parameters() if "bias" in n)
    assert base_biases == pc_biases


@pytest.mark.parametrize("mode", [PaddingMode.REFLECT, PaddingMode.REPLICATE])
def test_pad_channel_rejects_other_padding(mode):
    with pytest.raises(IncompatiblePaddingError):
        build_model(ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                              input_size=32, padding_mode=mode), Rng(0))


def test_reflect_padding_allowed_without_pad_channel():
    spec = ModelSpec("tinyvgg", num_classes=2, input_size=32,
                     padding_mode=PaddingMode.REFLECT)
    model = build_model(spec, Rng(0))
    out = model.forward(Variable(Rng(1).uniform((2, 3, 32, 32))), "eval")
    assert out.shape == (2, 2)


def test_forward_shape_contract():
    model = build_model(ModelSpec("tinyresnet", num_classes=10, input_size=32), Rng(0))
    batch = Rng(5).uniform((4, 3, 32, 32))
    logits = model.forward(Variable(batch), "eval")
    assert logits.shape == (4, 10)


def test_pad_channel_model_rejects_4ch_batch():
    model = build_model(ModelSpec("tinyresnet", pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    with pytest.raises(ShapeError):
        model.forward(Variable(Rng(2).uniform((1, 4, 32, 32))), "eval")


def test_eval_forward_deterministic():
    model = build_model(ModelSpec("tinyvgg", num_classes=3, input_size=32), Rng(4))
    batch = Variable(Rng(6).uniform((2, 3, 32, 32)))
    a = model.forward(batch, "eval").data
    b = model.forward(batch, "eval").data
    assert a.tobytes() == b.tobytes()


def test_build_deterministic_per_seed():
    a = build_model(ModelSpec("tinyresnet", num_classes=2, input_size=32), Rng(11))
    b = build_model(ModelSpec("tinyresnet", num_classes=2, input_size=32), Rng(11))
    for (na, va), (nb, vb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert va.data.tobytes() == vb.data.tobytes()


def test_structural_equivalence_with_zeroed_mask_slice():
    # zeroing the 4th-channel kernel slice and dropping the mask machinery
    # reproduces a baseline model bit-exactly
    spec_pc = ModelSpec("tinyresnet", pad_channel=True, num_classes=5, input_size=32)
    spec_base = ModelSpec("tinyresnet", num_classes=5, input_size=32)
    pc = build_model(spec_pc, Rng(3))
    base = build_model(spec_base, Rng(99))

    _params(pc)["stem.conv.weight"].data[:, 3] = 0.0
    state = {name: arr[:, :3] if name == "stem.conv.weight" else arr
             for name, arr in model_state(pc).items()}
    base.load_state(state)

    x = Variable(Rng(17).uniform((2, 3, 32, 32)))
    out_pc = pc.forward(x, "eval").data
    out_base = base.forward(x, "eval").data
    assert np.array_equal(out_pc, out_base)


def test_manifest_layer_shapes_and_counts():
    manifest = json.loads(resources.files("padlab").joinpath(
        "fixtures/arch_manifest.json").read_text())
    assert set(manifest) == set(FAMILIES)
    for family, entry in manifest.items():
        spec = ModelSpec(family, num_classes=entry["num_classes"],
                         input_size=entry["input_size"])
        model = build_model(spec, Rng(0), init="zeros")
        got = [[name, list(v.data.shape)] for name, v in model.named_parameters()]
        assert got == entry["parameters"], f"{family} parameter list drifted"
        assert _total(model) == entry["params_total"]

        def count_convs(mod):
            n = isinstance(mod, Conv2d)
            return n + sum(count_convs(c) for c in mod._children.values())

        assert count_convs(model) == entry["conv_layers"]


def test_tiny_families_stay_desk_scale():
    manifest = json.loads(resources.files("padlab").joinpath(
        "fixtures/arch_manifest.json").read_text())
    for family in ("tinyvgg", "tinyresnet"):
        assert manifest[family]["conv_layers"] <= 8


def test_family_name_normalization():
    assert normalize_family("VGG11_BN") == "vgg11-bn"
    m = build_model(ModelSpec("ResNet18"), Rng(0), init="zeros")
    assert m.spec.spec_id == "resnet18"
    assert m.spec.family == "resnet18"


def test_spec_stores_the_normalized_family():
    assert ModelSpec("TinyVGG") == ModelSpec("tinyvgg")
    assert ModelSpec(" VGG11_BN").family == "vgg11-bn"


def test_state_slots_name_a_saved_checkpoint_in_order(tmp_path):
    from padlab.checkpoint import read_tensors
    from padlab.training import Checkpoint
    model = build_model(ModelSpec("tinyresnet", num_classes=2, input_size=32), Rng(0))
    path = tmp_path / "m.ckpt"
    Checkpoint(1, 50.0, model_state(model)).save(path)
    names = [name for name in read_tensors(path) if not name.startswith("meta.")]
    slots = model.state_slots()
    assert names == [name for name, *_ in slots]
    kinds = [kind for _, kind, *_ in slots]
    assert kinds == sorted(kinds, reverse=True)  # parameters, then buffers
    assert len(names) == len(set(names)) > kinds.count("buffer") > 0


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_train_activations_stay_channel_major(family):
    # conv writes (C, N, H, W) memory; the ops after it keep that order in
    # forward and backward, so the gradient reaching conv backward reshapes
    # to its GEMM operand without a copy
    model = build_model(ModelSpec(family, pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    batch = Rng(1).normal((4, 3, 32, 32))
    tape = Tape()
    logits = model.forward(batch, "train", tape, Rng(2))
    grads = []

    def keep_grad(op, fn):
        def wrapped(g):
            grads.append((op, g))
            return fn(g)
        return wrapped

    ops, wrapped = [], 0
    for entry in tape.entries:
        op = entry.backward_fn.__qualname__.split(".")[0]
        ops.append(op)
        data = entry.output.data
        if op in ("conv2d", "batchnorm2d", "relu", "maxpool2d") and data.ndim == 4:
            assert data.transpose(1, 0, 2, 3).flags.c_contiguous, op
            entry.backward_fn = keep_grad(op, entry.backward_fn)
            wrapped += 1
    assert {"conv2d", "batchnorm2d", "relu"} <= set(ops)
    assert ("maxpool2d" in ops) == (family == "tinyvgg")
    backward(softmax_cross_entropy(logits, np.array([0, 1, 0, 1]), tape), tape)
    assert len(grads) == wrapped
    for op, g in grads:
        # channel-major order: C has the largest stride, then N, H, W (a
        # padded conv's input gradient is a strided view of such memory)
        assert list(np.argsort(g.strides)[::-1]) == [1, 0, 2, 3], op
        if op == "conv2d":
            assert np.shares_memory(g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1), g)


def test_zeros_init_weights_are_read_only_zero_views():
    model = build_model(ModelSpec("vgg16-bn", pad_channel=True), Rng(0), init="zeros")
    weights = 0
    for name, var in model.named_parameters():
        data = var.data
        if name.endswith("weight"):
            weights += 1
            assert not data.any() and not data.flags.writeable, name
            assert all(st == 0 for st in data.strides), name
        else:  # conv/linear biases and BatchNorm vectors stay owned arrays
            assert data.flags.writeable and data.flags.c_contiguous, name
    assert weights == 13 + 3
    with pytest.raises(ValueError):  # not trainable until a state is loaded
        sgd_step(model.parameters(), {}, 0.1, 0.0, 0.0)


def test_zeros_build_loaded_from_checkpoint_matches_kaiming_build():
    # a structure-only model that loads a state is the same model: bit-equal
    # eval logits, and one training step gives bit-equal parameters
    spec = ModelSpec("tinyvgg", pad_channel=True, num_classes=2, input_size=32)
    kaiming = build_model(spec, Rng(5))
    loaded = build_model(spec, Rng(0), init="zeros")
    loaded.load_state(model_state(kaiming))
    batch = Rng(6).uniform((4, 3, 32, 32))
    assert (kaiming.forward(batch, "eval").data.tobytes()
            == loaded.forward(batch, "eval").data.tobytes())
    for model in (kaiming, loaded):
        tape = Tape()
        logits = model.forward(batch, "train", tape, Rng(7))
        backward(softmax_cross_entropy(logits, np.array([0, 1, 1, 0]), tape), tape)
        sgd_step(model.parameters(), {}, 0.1, 0.9, 5e-4)
    for (name, a), (_, b) in zip(kaiming.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert (kaiming.forward(batch, "eval").data.tobytes()
            == loaded.forward(batch, "eval").data.tobytes())


def test_load_state_rejects_wrong_shaped_running_stat():
    # buffers get the parameter checks: a wrong shape raises ShapeError
    # instead of loading and failing later inside batchnorm
    model = build_model(ModelSpec("tinyvgg", num_classes=2, input_size=32), Rng(0))
    state = dict(model_state(model))
    state["features.bn1.running_mean"] = np.zeros(9, np.float32)
    with pytest.raises(ShapeError, match=r"features.bn1.running_mean: checkpoint "
                       r"shape \(9,\) != model shape \(8,\)"):
        model.load_state(state)


def test_load_state_names_every_tensor_the_model_does_not_name():
    model = build_model(ModelSpec("tinyvgg", num_classes=2, input_size=32), Rng(0))
    state = dict(model_state(model))
    state["features.conv9.weight"] = np.zeros((3, 3), np.float32)
    state["head.scale"] = np.ones(1, np.float32)
    with pytest.raises(ConfigError, match=r"does not name: "
                       r"\['features.conv9.weight', 'head.scale'\]"):
        model.load_state(state)


@pytest.mark.parametrize("name", ["features.conv1.weight", "features.bn1.running_var"])
def test_load_state_rejects_a_tensor_of_another_dtype(name):
    # an f64 tensor used to be cast to the model's f32 without a word
    model = build_model(ModelSpec("tinyvgg", num_classes=2, input_size=32), Rng(0))
    state = dict(model_state(model))
    state[name] = state[name].astype(np.float64)
    with pytest.raises(ConfigError, match=f"{name}: checkpoint dtype float64 "
                       "!= model dtype float32"):
        model.load_state(state)


def test_load_state_rejects_missing_running_stat():
    model = build_model(ModelSpec("tinyresnet", num_classes=2, input_size=32), Rng(0))
    state = dict(model_state(model))
    del state["layer1.block1.downsample.bn.running_var"]
    with pytest.raises(ConfigError, match="checkpoint missing buffer "
                       "layer1.block1.downsample.bn.running_var"):
        model.load_state(state)


@pytest.mark.parametrize("family", ["tinyvgg", "tinyresnet"])
def test_eval_logits_of_forward_only_blocks_match_a_taped_forward(family):
    # forward-only convs run in whole-row blocks, a taped forward keeps one
    # full column matrix; evaluate's batches of 128 and a last batch of 104,
    # and a batch of 32, whose last block of 4 images in tinyresnet's 8x8 convs
    # changed its bytes when the block's columns were not padded to 64
    model = build_model(ModelSpec(family, pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    x = np.random.default_rng(1).random((232, 3, 32, 32), dtype=np.float32)
    for batch in (x[:128], x[128:], x[:32]):
        with Pool():
            blocked = model.forward(Variable(batch), "eval").data.copy()
        full = model.forward(Variable(batch), "eval", Tape()).data
        assert blocked.tobytes() == full.tobytes()


def test_eval_forward_allocates_no_full_column_matrix():
    # forward-only convs build im2col columns in blocks of about 512 KiB, and
    # eval batchnorm without a tape writes its output over its own xhat; one
    # full matrix for the first conv at batch 128 would be 19 MB
    model = build_model(ModelSpec("tinyvgg", pad_channel=True, num_classes=2,
                                  input_size=32), Rng(0))
    x = Variable(np.random.default_rng(0).random((128, 3, 32, 32), dtype=np.float32))
    model.forward(x, "eval")
    tracemalloc.start()
    try:
        model.forward(x, "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
