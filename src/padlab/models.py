"""Architecture specs and builders for the VGG/ResNet families and the
desk-scale Tiny variants, with the pad-indicator input channel as a flag.

A built Model owns its parameters (named Variables) and BatchNorm running
statistics. When `pad_channel` is set the first convolution accepts one extra
input channel and `forward` prepends `attach_pad_channel`, so after the first
zero padding the extra channel is exactly the 0/1 indicator of the original
image extent. That marker only survives zero padding, so building a
pad-channel model with any other padding mode is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, Variable, zeros_view
from .errors import (ConfigError, GeometryError, IncompatiblePaddingError,
                     ShapeError)
from .nn import (BatchNormSpec, BatchNormState, ConvSpec, PaddingMode,
                 adaptive_avgpool2d, add, attach_pad_channel, batchnorm2d,
                 conv2d, dropout, flatten, global_avgpool, kaiming_init,
                 linear, maxpool2d, relu)
from .rng import Rng

FAMILIES = ("vgg11-bn", "vgg16-bn", "resnet18", "resnet50", "tinyvgg", "tinyresnet")

VGG_CFGS = {
    "vgg11-bn": (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    "vgg16-bn": (64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                 512, 512, 512, "M", 512, 512, 512, "M"),
}
RESNET_CFGS = {
    # block kind, blocks per stage, stage widths, expansion
    "resnet18": ("basic", (2, 2, 2, 2), (64, 128, 256, 512), 1),
    "resnet50": ("bottleneck", (3, 4, 6, 3), (64, 128, 256, 512), 4),
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
        if normalize_family(self.family) not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.num_classes < 2 or self.input_channels < 1 or self.input_size < 8:
            raise ConfigError("num_classes >= 2, input_channels >= 1, input_size >= 8")

    @property
    def spec_id(self) -> str:
        return normalize_family(self.family) + ("-pc" if self.pad_channel else "")


def normalize_family(name: str) -> str:
    return name.strip().lower().replace("_", "-")


class Forward:
    """State threaded through one forward pass."""

    __slots__ = ("mode", "tape", "rng")

    def __init__(self, mode: str = "eval", tape: Tape | None = None,
                 rng: Rng | None = None):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode
        self.tape = tape
        self.rng = rng


class Module:
    """Base for layers and blocks: named parameters, buffers, children."""

    def __init__(self):
        self._params: dict[str, Variable] = {}
        self._children: dict[str, Module] = {}

    def add_param(self, name: str, tensor: Tensor) -> Variable:
        var = Variable(tensor, requires_grad=True, name=name)
        self._params[name] = var
        return var

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def named_parameters(self, prefix: str = ""):
        for name, var in self._params.items():
            yield prefix + name, var
        for cname, child in self._children.items():
            yield from child.named_parameters(f"{prefix}{cname}.")

    def named_buffers(self, prefix: str = ""):
        yield from ()
        for cname, child in self._children.items():
            yield from child.named_buffers(f"{prefix}{cname}.")

    def set_buffer(self, name: str, value: np.ndarray):
        raise KeyError(name)

    def load_state(self, tensors: dict):
        """Assign parameters and buffers by fully qualified name."""
        own = dict(self.named_parameters())
        for name, var in own.items():
            if name not in tensors:
                raise ConfigError(f"checkpoint missing parameter {name}")
            arr = tensors[name]
            if arr.shape != var.value.shape:
                raise ShapeError(f"{name}: checkpoint shape {arr.shape} "
                                 f"!= model shape {var.value.shape}")
            var.value = Tensor(arr.astype(var.value.data.dtype, copy=True))
            var.zero_grad()
        for name, _ in self.named_buffers():
            if name not in tensors:
                raise ConfigError(f"checkpoint missing buffer {name}")
            self._assign_buffer(name, tensors[name])

    def _assign_buffer(self, qual_name: str, value: np.ndarray):
        head, _, rest = qual_name.partition(".")
        if rest and head in self._children:
            self._children[head]._assign_buffer(rest, value)
        else:
            self.set_buffer(qual_name, value)

    def forward(self, x: Variable, ctx: Forward) -> Variable:
        raise NotImplementedError

    # cost walk: returns (out_chw, rows of (name, params, macs))
    def walk_cost(self, in_chw, prefix: str = ""):
        rows = []
        shape = in_chw
        for cname, child in self._children.items():
            shape, sub = child.walk_cost(shape, f"{prefix}{cname}.")
            rows.extend(sub)
        return shape, rows


class Sequential(Module):
    def __init__(self, layers):
        super().__init__()
        for name, layer in layers:
            self.add_child(name, layer)

    def forward(self, x, ctx):
        for child in self._children.values():
            x = child.forward(x, ctx)
        return x


def _conv_out(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


class Conv2d(Module):
    def __init__(self, spec: ConvSpec, rng: Rng, init: str = "kaiming"):
        super().__init__()
        self.spec = spec
        shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        if init == "zeros":  # structure only: a read-only view, trainable once loaded
            weight = Tensor(zeros_view(shape, np.float32))
        else:
            weight = kaiming_init(shape, rng.child("weight"))
        self.weight = self.add_param("weight", weight)
        self.bias = None
        if spec.bias:
            self.bias = self.add_param(
                "bias", Tensor(np.zeros(spec.out_channels, np.float32)))

    def forward(self, x, ctx):
        return conv2d(x, self.weight, self.bias, self.spec, tape=ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        c, h, w = in_chw
        s = self.spec
        ho, wo = _conv_out(h, s.kernel_h, s.stride, s.pad), _conv_out(w, s.kernel_w, s.stride, s.pad)
        if ho < 1 or wo < 1:
            raise GeometryError(f"{prefix.rstrip('.')}: conv output {ho}x{wo} < 1")
        out_elems = s.out_channels * ho * wo
        macs = s.kernel_h * s.kernel_w * s.in_channels * out_elems
        params = self.weight.value.size
        if self.bias is not None:
            macs += out_elems
            params += s.out_channels
        return (s.out_channels, ho, wo), [(prefix.rstrip("."), params, macs)]


class BatchNorm2d(Module):
    def __init__(self, num_features: int, dtype=np.float32):
        super().__init__()
        self.spec = BatchNormSpec(num_features)
        self.gamma = self.add_param("gamma", Tensor(np.ones(num_features, dtype)))
        self.beta = self.add_param("beta", Tensor(np.zeros(num_features, dtype)))
        self.state = BatchNormState(num_features, dtype)

    def forward(self, x, ctx):
        return batchnorm2d(x, self.gamma, self.beta, self.state, self.spec,
                           ctx.mode, tape=ctx.tape)

    def named_buffers(self, prefix=""):
        yield prefix + "running_mean", self.state.running_mean
        yield prefix + "running_var", self.state.running_var

    def set_buffer(self, name, value):
        if name == "running_mean":
            self.state.running_mean = value.astype(self.state.running_mean.dtype, copy=True)
        elif name == "running_var":
            self.state.running_var = value.astype(self.state.running_var.dtype, copy=True)
        else:
            raise KeyError(name)

    def walk_cost(self, in_chw, prefix=""):
        c, h, w = in_chw
        return in_chw, [(prefix.rstrip("."), 2 * c, 2 * c * h * w)]


class ReLU(Module):
    def forward(self, x, ctx):
        return relu(x, ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        return in_chw, [(prefix.rstrip("."), 0, 2 * math.prod(in_chw))]


class MaxPool2d(Module):
    def __init__(self, kernel: int, stride: int, pad: int = 0):
        super().__init__()
        self.kernel, self.stride, self.pad = kernel, stride, pad

    def forward(self, x, ctx):
        return maxpool2d(x, self.kernel, self.stride, self.pad, tape=ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        c, h, w = in_chw
        ho = _conv_out(h, self.kernel, self.stride, self.pad)
        wo = _conv_out(w, self.kernel, self.stride, self.pad)
        if ho < 1 or wo < 1:
            raise GeometryError(f"{prefix.rstrip('.')}: pool output {ho}x{wo} < 1")
        return (c, ho, wo), [(prefix.rstrip("."), 0, 2 * c * h * w)]


class AdaptiveAvgPool2d(Module):
    def __init__(self, out_h: int, out_w: int):
        super().__init__()
        self.out_h, self.out_w = out_h, out_w

    def forward(self, x, ctx):
        return adaptive_avgpool2d(x, self.out_h, self.out_w, tape=ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        c, h, w = in_chw
        return (c, self.out_h, self.out_w), [(prefix.rstrip("."), 0, 2 * c * h * w)]


class GlobalAvgPool(Module):
    """(N, C, H, W) -> (N, C)."""

    def forward(self, x, ctx):
        return global_avgpool(x, ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        c, h, w = in_chw
        return (c,), [(prefix.rstrip("."), 0, 2 * c * h * w)]


class Flatten(Module):
    def forward(self, x, ctx):
        return flatten(x, ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        return (math.prod(in_chw),), []


class Dropout(Module):
    def __init__(self, p: float = 0.5):
        super().__init__()
        self.p = p

    def forward(self, x, ctx):
        return dropout(x, self.p, ctx.mode, ctx.rng, tape=ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        return in_chw, []


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: Rng,
                 init: str = "kaiming"):
        super().__init__()
        if init == "zeros":
            weight = Tensor(zeros_view((out_features, in_features), np.float32))
        else:
            weight = kaiming_init((out_features, in_features), rng.child("weight"))
        self.weight = self.add_param("weight", weight)
        self.bias = self.add_param("bias", Tensor(np.zeros(out_features, np.float32)))

    def forward(self, x, ctx):
        return linear(x, self.weight, self.bias, tape=ctx.tape)

    def walk_cost(self, in_chw, prefix=""):
        (f,) = in_chw
        o = self.weight.value.shape[0]
        return (o,), [(prefix.rstrip("."), self.weight.value.size + o, f * o + o)]


class Residual(Module):
    """A main path of conv -> bn -> ReLU triples, one per (out_channels,
    kernel, stride) in `convs`, with an identity or 1x1-projection shortcut
    added before the last ReLU. forward and walk_cost both visit the main
    path, then downsample, then that ReLU; the children stay in the order
    main path, downsample, which fixes parameter and checkpoint order."""

    def __init__(self, in_ch: int, convs, padding_mode: PaddingMode, rng: Rng,
                 init: str = "kaiming"):
        super().__init__()
        ch = in_ch
        for i, (out_ch, k, s) in enumerate(convs, start=1):
            self.add_child(f"conv{i}", Conv2d(ConvSpec(ch, out_ch, k, k, s, k // 2,
                                                       padding_mode, bias=False),
                                              rng.child(f"conv{i}"), init))
            self.add_child(f"bn{i}", BatchNorm2d(out_ch))
            self.add_child(f"relu{i}", ReLU())
            ch = out_ch
        self.out_channels, self.main = ch, list(self._children.items())
        stride = math.prod(s for *_, s in convs)
        if stride != 1 or in_ch != ch:
            self.add_child("downsample", Sequential([
                ("conv", Conv2d(ConvSpec(in_ch, ch, 1, 1, stride, 0,
                                         padding_mode, bias=False),
                                rng.child("downsample"), init)),
                ("bn", BatchNorm2d(ch)),
            ]))

    def forward(self, x, ctx):
        out = x
        for _, layer in self.main[:-1]:
            out = layer.forward(out, ctx)
        c = self._children
        shortcut = c["downsample"].forward(x, ctx) if "downsample" in c else x
        return self.main[-1][1].forward(add(out, shortcut, ctx.tape), ctx)

    def walk_cost(self, in_chw, prefix=""):
        rows, shape = [], in_chw
        for name, layer in self.main[:-1]:
            shape, sub = layer.walk_cost(shape, f"{prefix}{name}.")
            rows.extend(sub)
        if "downsample" in self._children:
            rows.extend(self._children["downsample"].walk_cost(
                in_chw, f"{prefix}downsample.")[1])
        name, last = self.main[-1]
        shape, sub = last.walk_cost(shape, f"{prefix}{name}.")
        return shape, rows + sub


class Model(Module):
    def __init__(self, spec: ModelSpec):
        super().__init__()
        self.spec = spec

    @property
    def spec_id(self) -> str:
        return self.spec.spec_id

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
        for child in self._children.values():
            x = child.forward(x, ctx)
        return x

    def input_chw(self):
        c = self.spec.input_channels + (1 if self.spec.pad_channel else 0)
        return (c, self.spec.input_size, self.spec.input_size)

    def cost_rows(self):
        """(name, params, macs) per layer at the spec's input size."""
        shape, rows = self.walk_cost(self.input_chw())
        return rows


def _check_pad_channel(spec: ModelSpec):
    if spec.pad_channel and spec.padding_mode is not PaddingMode.ZERO:
        raise IncompatiblePaddingError(
            "the pad-indicator channel only works with zero padding: "
            f"{spec.padding_mode.value} padding keeps the marker at 1 everywhere")


def _build_vgg(spec: ModelSpec, rng: Rng, init: str) -> Model:
    model = Model(spec)
    pm = spec.padding_mode
    in_ch = spec.input_channels + (1 if spec.pad_channel else 0)
    layers = []
    conv_i = pool_i = 0
    for v in VGG_CFGS[normalize_family(spec.family)]:
        if v == "M":
            pool_i += 1
            layers.append((f"pool{pool_i}", MaxPool2d(2, 2)))
        else:
            conv_i += 1
            layers.append((f"conv{conv_i}",
                           Conv2d(ConvSpec(in_ch, v, 3, 3, 1, 1, pm, bias=True),
                                  rng.child(f"conv{conv_i}"), init)))
            layers.append((f"bn{conv_i}", BatchNorm2d(v)))
            layers.append((f"relu{conv_i}", ReLU()))
            in_ch = v
    model.add_child("features", Sequential(layers))
    model.add_child("avgpool", AdaptiveAvgPool2d(7, 7))
    model.add_child("classifier", Sequential([
        ("flatten", Flatten()),
        ("fc1", Linear(in_ch * 7 * 7, 4096, rng.child("fc1"), init)),
        ("relu1", ReLU()),
        ("drop1", Dropout(0.5)),
        ("fc2", Linear(4096, 4096, rng.child("fc2"), init)),
        ("relu2", ReLU()),
        ("drop2", Dropout(0.5)),
        ("fc3", Linear(4096, spec.num_classes, rng.child("fc3"), init)),
    ]))
    return model


def _build_resnet(spec: ModelSpec, rng: Rng, init: str) -> Model:
    model = Model(spec)
    pm = spec.padding_mode
    kind, blocks, widths, expansion = RESNET_CFGS[normalize_family(spec.family)]
    in_ch = spec.input_channels + (1 if spec.pad_channel else 0)
    model.add_child("stem", Sequential([
        ("conv", Conv2d(ConvSpec(in_ch, 64, 7, 7, 2, 3, pm, bias=False),
                        rng.child("stem"), init)),
        ("bn", BatchNorm2d(64)),
        ("relu", ReLU()),
        ("pool", MaxPool2d(3, 2, pad=1)),
    ]))
    ch = 64
    for stage, (n_blocks, width) in enumerate(zip(blocks, widths), start=1):
        stage_layers = []
        for b in range(1, n_blocks + 1):
            stride = 2 if (stage > 1 and b == 1) else 1
            brng = rng.child(f"layer{stage}.block{b}")
            convs = ([(width, 3, stride), (width, 3, 1)] if kind == "basic" else
                     [(width, 1, 1), (width, 3, stride), (width * expansion, 1, 1)])
            block = Residual(ch, convs, pm, brng, init)
            ch = block.out_channels
            stage_layers.append((f"block{b}", block))
        model.add_child(f"layer{stage}", Sequential(stage_layers))
    model.add_child("gap", GlobalAvgPool())
    model.add_child("fc", Linear(ch, spec.num_classes, rng.child("fc"), init))
    return model


def _build_tinyresnet(spec: ModelSpec, rng: Rng, init: str) -> Model:
    # frozen desk-scale stack: 7 convs total (incl. the two 1x1 projections)
    model = Model(spec)
    pm = spec.padding_mode
    in_ch = spec.input_channels + (1 if spec.pad_channel else 0)
    model.add_child("stem", Sequential([
        ("conv", Conv2d(ConvSpec(in_ch, 8, 3, 3, 2, 1, pm, bias=False),
                        rng.child("stem"), init)),
        ("bn", BatchNorm2d(8)),
        ("relu", ReLU()),
    ]))
    for i, (ch, width) in enumerate(((8, 16), (16, 32)), start=1):
        model.add_child(f"layer{i}", Sequential([("block1", Residual(
            ch, [(width, 3, 2), (width, 3, 1)], pm, rng.child(f"layer{i}.block1"), init))]))
    model.add_child("gap", GlobalAvgPool())
    model.add_child("fc", Linear(32, spec.num_classes, rng.child("fc"), init))
    return model


def _build_tinyvgg(spec: ModelSpec, rng: Rng, init: str) -> Model:
    # frozen desk-scale stack: 3 convs, flatten head
    model = Model(spec)
    pm = spec.padding_mode
    in_ch = spec.input_channels + (1 if spec.pad_channel else 0)
    layers = []
    for i, width in enumerate((8, 16, 32), start=1):
        layers.append((f"conv{i}", Conv2d(ConvSpec(in_ch, width, 3, 3, 1, 1, pm,
                                                   bias=True),
                                          rng.child(f"conv{i}"), init)))
        layers.append((f"bn{i}", BatchNorm2d(width)))
        layers.append((f"relu{i}", ReLU()))
        layers.append((f"pool{i}", MaxPool2d(2, 2)))
        in_ch = width
    model.add_child("features", Sequential(layers))
    side = spec.input_size // 8
    if side < 1:
        raise ConfigError(f"input_size {spec.input_size} too small for tinyvgg")
    model.add_child("classifier", Sequential([
        ("flatten", Flatten()),
        ("fc1", Linear(32 * side * side, 64, rng.child("fc1"), init)),
        ("relu1", ReLU()),
        ("drop1", Dropout(0.5)),
        ("fc2", Linear(64, spec.num_classes, rng.child("fc2"), init)),
    ]))
    return model


def build_model(spec: ModelSpec, rng: Rng, init: str = "kaiming") -> Model:
    """Realise a ModelSpec; deterministic given (spec, rng seed).

    init="zeros" skips weight sampling and builds a structure-only model for
    consumers that read shapes or load every tensor afterwards (cost
    accounting, `padlab eval`): its conv and linear weights are read-only
    zero views that own no memory, so it is not trainable until a checkpoint
    is loaded with `load_state`.
    """
    _check_pad_channel(spec)
    family = normalize_family(spec.family)
    if family in VGG_CFGS:
        return _build_vgg(spec, rng, init)
    if family in RESNET_CFGS:
        return _build_resnet(spec, rng, init)
    if family == "tinyresnet":
        return _build_tinyresnet(spec, rng, init)
    if family == "tinyvgg":
        return _build_tinyvgg(spec, rng, init)
    raise ConfigError(f"unknown family {spec.family!r}")

