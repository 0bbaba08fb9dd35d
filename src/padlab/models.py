"""Architecture specs and builders for the VGG/ResNet families and the
desk-scale Tiny variants, with the pad-indicator input channel as a flag.

A built Model owns its parameters (named Variables) and BatchNorm running
statistics. When `pad_channel` is set the first convolution accepts one extra
input channel and `forward` prepends `attach_pad_channel`, so after the first
zero padding the extra channel is exactly the 0/1 indicator of the original
image extent. That marker only survives zero padding, so building a
pad-channel model with any other padding mode is rejected.

Forward passes and cost accounting share one walk: a container's
`forward(x, ctx)` hands each leaf to `ctx.layer` and each shortcut join to
`ctx.add`, which `Forward` runs on activations and `_CostWalk` on one image's
(C, H, W) shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Variable, zeros_view
from .errors import (ConfigError, GeometryError, IncompatiblePaddingError,
                     ShapeError)
from .nn import (BatchNormState, ConvSpec, PaddingMode, adaptive_avgpool2d,
                 add, attach_pad_channel, batchnorm2d, conv2d, dropout,
                 flatten, global_avgpool, kaiming_init, linear, maxpool2d,
                 out_hw, relu)
from .rng import Rng

FAMILIES = ("vgg11-bn", "vgg16-bn", "resnet18", "resnet50", "tinyvgg", "tinyresnet")

VGG_CFGS = {
    # features ("M" = 2x2 max-pool), classifier hidden widths, avgpool side
    # (None: flatten the last feature map as it is)
    "vgg11-bn": ((64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
                 (4096, 4096), 7),
    "vgg16-bn": ((64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                  512, 512, 512, "M", 512, 512, 512, "M"), (4096, 4096), 7),
    "tinyvgg": ((8, "M", 16, "M", 32, "M"), (64,), None),
}
RESNET_CFGS = {
    # block kind, blocks per stage, stage widths, expansion,
    # stem (width, kernel, first-stage stride)
    "resnet18": ("basic", (2, 2, 2, 2), (64, 128, 256, 512), 1, (64, 7, 1)),
    "resnet50": ("bottleneck", (3, 4, 6, 3), (64, 128, 256, 512), 4, (64, 7, 1)),
    "tinyresnet": ("basic", (1, 1), (16, 32), 1, (8, 3, 2)),
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    pad_channel: bool = False
    num_classes: int = 1000
    input_channels: int = 3
    input_size: int = 224
    padding_mode: PaddingMode = PaddingMode.ZERO

    def __post_init__(self):
        family = normalize_family(self.family)
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {FAMILIES}")
        object.__setattr__(self, "family", family)  # frozen: set the normalized spelling once
        if self.num_classes < 2 or self.input_channels < 1 or self.input_size < 8:
            raise ConfigError("num_classes >= 2, input_channels >= 1, input_size >= 8")

    @property
    def spec_id(self) -> str:
        return self.family + ("-pc" if self.pad_channel else "")


def normalize_family(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def _first_conv_channels(spec: ModelSpec) -> int:
    return spec.input_channels + (1 if spec.pad_channel else 0)


def _qual(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


class Forward:
    """State threaded through one forward pass."""

    __slots__ = ("mode", "tape", "rng")

    def __init__(self, mode: str = "eval", tape: Tape | None = None,
                 rng: Rng | None = None):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        self.mode, self.tape, self.rng = mode, tape, rng

    def layer(self, module: "Layer", x: Variable) -> Variable:
        return module.op(x, self)

    def add(self, a: Variable, b: Variable) -> Variable:
        return add(a, b, self.tape)


class _CostWalk:
    """Carries one image's (C, H, W) shape through `Module.forward` and
    records a (name, params, macs) row for each layer that has a cost."""

    def __init__(self):
        self.rows = []

    def layer(self, module: "Layer", chw):
        try:
            out, params, macs = module.cost(chw)
        except GeometryError as exc:
            raise GeometryError(f"{module.name}: {exc}") from exc
        if macs is not None:
            self.rows.append((module.name, params, macs))
        return out

    def add(self, a, b):
        return a


class Module:
    """Base for layers and blocks: named parameters and children, given as
    (name, module) pairs. A container's forward runs its children in order."""
    name = ""  # the qualified name, which build_model sets

    def __init__(self, children=()):
        self._params: dict[str, Variable] = {}
        self._children: dict[str, Module] = dict(children)

    def add_param(self, name: str, data: np.ndarray) -> Variable:
        self._params[name] = var = Variable(data, requires_grad=True, name=name)
        return var

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def named_modules(self, prefix: str = ""):
        """[(qualified name, module)] depth first in child order, this one first."""
        out = [(prefix, self)]
        for name, child in self._children.items():
            out += child.named_modules(_qual(prefix, name))
        return out

    def named_parameters(self):
        for prefix, module in self.named_modules():
            for name, var in module._params.items():
                yield _qual(prefix, name), var

    def state_slots(self):
        """[(qualified name, kind, owner, attribute)] of every checkpoint tensor
        in checkpoint order: each parameter's data, then each BatchNorm
        running stat."""
        slots = [(name, "parameter", var, "data") for name, var in self.named_parameters()]
        for prefix, module in self.named_modules():
            if isinstance(module, BatchNorm2d):
                slots += [(_qual(prefix, attr), "buffer", module.state, attr)
                          for attr in ("running_mean", "running_var")]
        return slots

    def load_state(self, tensors: dict):
        """Assign parameters and buffers by fully qualified name; a tensor the
        model does not name, or of another dtype, is a ConfigError."""
        slots = self.state_slots()
        if unknown := sorted(set(tensors) - {name for name, *_ in slots}):
            raise ConfigError(f"checkpoint tensors the model does not name: {unknown}")
        for name, kind, owner, attr in slots:
            if name not in tensors:
                raise ConfigError(f"checkpoint missing {kind} {name}")
            arr, like = tensors[name], getattr(owner, attr)
            if arr.shape != like.shape:
                raise ShapeError(f"{name}: checkpoint shape {arr.shape} "
                                 f"!= model shape {like.shape}")
            if arr.dtype != like.dtype:
                raise ConfigError(f"{name}: checkpoint dtype {arr.dtype} "
                                  f"!= model dtype {like.dtype}")
            setattr(owner, attr, arr.copy())
            if kind == "parameter":
                owner.zero_grad()

    def forward(self, x, ctx):
        for child in self._children.values():
            x = child.forward(x, ctx)
        return x


class Layer(Module):
    """A leaf. `op(x, ctx)` computes it; `cost(chw)` gives its output shape,
    parameter count and MACs on one (C, H, W) image, macs None for a layer
    that takes no row in the cost table."""

    def forward(self, x, ctx):
        return ctx.layer(self, x)


def _weight(shape, rng: Rng, init: str) -> np.ndarray:
    if init == "zeros":  # structure only: a read-only view, trainable once loaded
        return zeros_view(shape, np.float32)
    return kaiming_init(shape, rng.child("weight"))


class Conv2d(Layer):
    def __init__(self, in_ch: int, out_ch: int, k: int, spec: ConvSpec, rng: Rng,
                 init: str = "kaiming", bias: bool = True):
        super().__init__()
        self.spec = spec
        self.weight = self.add_param("weight", _weight((out_ch, in_ch, k, k), rng, init))
        self.bias = self.add_param("bias", np.zeros(out_ch, np.float32)) if bias else None

    def op(self, x, ctx):
        return conv2d(x, self.weight, self.bias, self.spec, tape=ctx.tape)

    def cost(self, chw):
        cout, _, kh, kw = self.weight.data.shape
        ho, wo = out_hw(chw[1], chw[2], kh, kw, self.spec.stride, self.spec.pad, "conv")
        params = sum(var.data.size for var in self._params.values())  # weight and bias
        return (cout, ho, wo), params, params * ho * wo  # a MAC per parameter per pixel


class BatchNorm2d(Layer):
    def __init__(self, num_features: int):
        super().__init__()
        self.gamma = self.add_param("gamma", np.ones(num_features, np.float32))
        self.beta = self.add_param("beta", np.zeros(num_features, np.float32))
        self.state = BatchNormState(num_features)

    def op(self, x, ctx):
        return batchnorm2d(x, self.gamma, self.beta, self.state, ctx.mode, tape=ctx.tape)

    def cost(self, chw):
        return chw, 2 * chw[0], 2 * math.prod(chw)


class ReLU(Layer):
    def op(self, x, ctx):
        return relu(x, ctx.tape)

    def cost(self, chw):
        return chw, 0, 2 * math.prod(chw)


class MaxPool2d(Layer):
    def __init__(self, kernel: int, stride: int, pad: int = 0):
        super().__init__()
        self.kernel, self.stride, self.pad = kernel, stride, pad

    def op(self, x, ctx):
        return maxpool2d(x, self.kernel, self.stride, self.pad, tape=ctx.tape)

    def cost(self, chw):
        c, h, w = chw
        ho, wo = out_hw(h, w, self.kernel, self.kernel, self.stride, self.pad, "pool")
        return (c, ho, wo), 0, 2 * c * h * w


class AdaptiveAvgPool2d(Layer):
    def __init__(self, out_h: int, out_w: int):
        super().__init__()
        self.out_h, self.out_w = out_h, out_w

    def op(self, x, ctx):
        return adaptive_avgpool2d(x, self.out_h, self.out_w, tape=ctx.tape)

    def cost(self, chw):
        return (chw[0], self.out_h, self.out_w), 0, 2 * math.prod(chw)


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C)."""

    def op(self, x, ctx):
        return global_avgpool(x, ctx.tape)

    def cost(self, chw):
        return (chw[0],), 0, 2 * math.prod(chw)


class Flatten(Layer):
    def op(self, x, ctx):
        return flatten(x, ctx.tape)

    def cost(self, chw):
        return (math.prod(chw),), 0, None


class Dropout(Layer):
    def __init__(self, p: float = 0.5):
        super().__init__()
        self.p = p

    def op(self, x, ctx):
        return dropout(x, self.p, ctx.mode, ctx.rng, tape=ctx.tape)

    def cost(self, chw):
        return chw, 0, None


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, rng: Rng,
                 init: str = "kaiming"):
        super().__init__()
        self.weight = self.add_param(
            "weight", _weight((out_features, in_features), rng, init))
        self.bias = self.add_param("bias", np.zeros(out_features, np.float32))

    def op(self, x, ctx):
        return linear(x, self.weight, self.bias, tape=ctx.tape)

    def cost(self, chw):
        (f,) = chw
        o = self.weight.data.shape[0]
        return (o,), self.weight.data.size + o, f * o + o


class Residual(Module):
    """A main path of conv -> bn -> ReLU triples, one per (out_channels,
    kernel, stride) in `convs`, with an identity or 1x1-projection shortcut
    added before the last ReLU. forward visits the main path, then
    downsample, then that ReLU; the children stay in the order main path,
    downsample, which fixes parameter and checkpoint order."""

    def __init__(self, in_ch: int, convs, padding_mode: PaddingMode, rng: Rng,
                 init: str = "kaiming"):
        super().__init__()
        ch = in_ch
        for i, (out_ch, k, s) in enumerate(convs, start=1):
            self.add_child(f"conv{i}", Conv2d(ch, out_ch, k, ConvSpec(s, k // 2, padding_mode),
                                              rng.child(f"conv{i}"), init, bias=False))
            self.add_child(f"bn{i}", BatchNorm2d(out_ch))
            self.add_child(f"relu{i}", ReLU())
            ch = out_ch
        self.out_channels, self.main = ch, list(self._children.values())
        stride = math.prod(s for *_, s in convs)
        if stride != 1 or in_ch != ch:
            self.add_child("downsample", Module([
                ("conv", Conv2d(in_ch, ch, 1, ConvSpec(stride, 0, padding_mode),
                                rng.child("downsample"), init, bias=False)),
                ("bn", BatchNorm2d(ch)),
            ]))

    def forward(self, x, ctx):
        out = x
        for layer in self.main[:-1]:
            out = layer.forward(out, ctx)
        c = self._children
        shortcut = c["downsample"].forward(x, ctx) if "downsample" in c else x
        return self.main[-1].forward(ctx.add(out, shortcut), ctx)


class Model(Module):
    def __init__(self, spec: ModelSpec):
        super().__init__()
        self.spec = spec

    def parameters(self):
        return [var for _, var in self.named_parameters()]

    def zero_grads(self):
        for var in self.parameters():
            var.zero_grad()

    def forward(self, batch, mode: str = "eval", tape: Tape | None = None,
                rng: Rng | None = None) -> Variable:
        """Run the network on an (N, input_channels, S, S) batch; returns logits."""
        ctx = Forward(mode, tape, rng)
        x = batch if isinstance(batch, Variable) else Variable(batch)
        if len(x.shape) != 4 or x.shape[1] != self.spec.input_channels:
            raise ShapeError(
                f"expected (N, {self.spec.input_channels}, S, S) batch, got {x.shape}")
        if self.spec.pad_channel:
            x = attach_pad_channel(x, tape=ctx.tape)
        return Module.forward(self, x, ctx)

    def cost_rows(self):
        """(name, params, macs) per layer in forward order at the spec's input size."""
        walk = _CostWalk()
        size = self.spec.input_size
        Module.forward(self, (_first_conv_channels(self.spec), size, size), walk)
        return walk.rows


def _build_vgg(spec: ModelSpec, rng: Rng, init: str) -> Model:
    features, hidden, side = VGG_CFGS[spec.family]
    model = Model(spec)
    pm = spec.padding_mode
    in_ch = _first_conv_channels(spec)
    layers = []
    conv_i = pool_i = 0
    for v in features:
        if v == "M":
            pool_i += 1
            layers.append((f"pool{pool_i}", MaxPool2d(2, 2)))
        else:
            conv_i += 1
            conv = Conv2d(in_ch, v, 3, ConvSpec(1, 1, pm), rng.child(f"conv{conv_i}"), init)
            layers += [(f"conv{conv_i}", conv), (f"bn{conv_i}", BatchNorm2d(v)),
                       (f"relu{conv_i}", ReLU())]
            in_ch = v
    model.add_child("features", Module(layers))
    if side is None:
        side = spec.input_size // 2 ** pool_i
    else:
        model.add_child("avgpool", AdaptiveAvgPool2d(side, side))
    head = [("flatten", Flatten())]
    width = in_ch * side * side
    for i, out in enumerate(hidden, start=1):
        head += [(f"fc{i}", Linear(width, out, rng.child(f"fc{i}"), init)),
                 (f"relu{i}", ReLU()), (f"drop{i}", Dropout(0.5))]
        width = out
    fc = f"fc{len(hidden) + 1}"
    head.append((fc, Linear(width, spec.num_classes, rng.child(fc), init)))
    model.add_child("classifier", Module(head))
    return model


def _build_resnet(spec: ModelSpec, rng: Rng, init: str) -> Model:
    kind, blocks, widths, expansion, (ch, k, first_stride) = RESNET_CFGS[spec.family]
    model = Model(spec)
    pm = spec.padding_mode
    stem = [("conv", Conv2d(_first_conv_channels(spec), ch, k, ConvSpec(2, k // 2, pm),
                            rng.child("stem"), init, bias=False)),
            ("bn", BatchNorm2d(ch)), ("relu", ReLU())]
    if first_stride == 1:  # the stem max-pools unless the first stage strides
        stem.append(("pool", MaxPool2d(3, 2, pad=1)))
    model.add_child("stem", Module(stem))
    for stage, (n_blocks, width) in enumerate(zip(blocks, widths), start=1):
        stage_layers = []
        for b in range(1, n_blocks + 1):
            stride = 1 if b > 1 else first_stride if stage == 1 else 2
            convs = ([(width, 3, stride), (width, 3, 1)] if kind == "basic" else
                     [(width, 1, 1), (width, 3, stride), (width * expansion, 1, 1)])
            block = Residual(ch, convs, pm, rng.child(f"layer{stage}.block{b}"), init)
            ch = block.out_channels
            stage_layers.append((f"block{b}", block))
        model.add_child(f"layer{stage}", Module(stage_layers))
    model.add_child("gap", GlobalAvgPool())
    model.add_child("fc", Linear(ch, spec.num_classes, rng.child("fc"), init))
    return model


def build_model(spec: ModelSpec, rng: Rng, init: str = "kaiming") -> Model:
    """Realise a ModelSpec; deterministic given (spec, rng seed).

    init="zeros" skips weight sampling and builds a structure-only model for
    consumers that read shapes or load every tensor afterwards (cost
    accounting, `padlab eval`): its conv and linear weights are read-only
    zero views that own no memory, so it is not trainable until a checkpoint
    is loaded with `load_state`.
    """
    if spec.pad_channel and spec.padding_mode is not PaddingMode.ZERO:
        raise IncompatiblePaddingError(
            "the pad-indicator channel only works with zero padding: "
            f"{spec.padding_mode.value} padding keeps the marker at 1 everywhere")
    model = (_build_vgg if spec.family in VGG_CFGS else _build_resnet)(spec, rng, init)
    for prefix, module in model.named_modules():  # for cost rows and error messages
        module.name = prefix
        for name, var in module._params.items():  # the root holds none: prefix != ""
            var.name = f"{prefix}.{name}"
    return model
