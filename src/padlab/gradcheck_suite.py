"""Finite-difference verification of every differentiable layer.

Each entry builds a scalar loss from a random f64 input through one layer (or
the full TinyResNet composite), weights the output with a fixed random
projection, and compares tape gradients against central differences with
eps = 1e-5. Used by the `gradcheck` CLI command and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Variable, grad_check
from .errors import ConfigError
from .models import ModelSpec, build_model
from .nn import (BatchNormState, ConvSpec, PaddingMode, adaptive_avgpool2d,
                 batchnorm2d, conv2d, dropout, flatten, global_avgpool, linear,
                 maxpool2d, mul, relu, softmax, softmax_cross_entropy, sum_all)
from .rng import Rng

EPS = 1e-5


def _projected(op):
    cache = {}  # output shape -> its fixed projection Variable

    def f(var, tape):
        out = op(var, tape)
        shape = out.data.shape
        if shape not in cache:
            cache[shape] = Variable(Rng(999).normal(shape, dtype=np.float64))
        return sum_all(mul(out, cache[shape], tape), tape)

    return f


def _conv_case(mode: PaddingMode):
    def make(trial):
        rng = Rng(100 + trial)
        w = Variable(rng.normal((3, 4, 3, 3), dtype=np.float64))
        b = Variable(rng.normal((3,), dtype=np.float64))
        spec = ConvSpec(4, 3, 3, 3, stride=1 + trial % 2, pad=1, padding_mode=mode)
        return lambda v, tape: conv2d(v, w, b, spec, tape=tape)

    return make, (2, 4, 8, 8)


def _bn_case():
    def make(trial):
        rng = Rng(200 + trial)
        gamma = Variable(rng.normal((4,), dtype=np.float64) + 1.0)
        beta = Variable(rng.normal((4,), dtype=np.float64))

        def f(v, tape):
            return batchnorm2d(v, gamma, beta, BatchNormState(4, np.float64),
                               "train", tape=tape)
        return f

    return make, (2, 4, 6, 6)


def _composite_case():
    spec = ModelSpec("tinyresnet", pad_channel=True, num_classes=3, input_size=8)
    model = build_model(spec, Rng(7))
    for _, var in model.named_parameters():  # params fixed; input is checked
        var.requires_grad = False
    labels = np.array([0, 2])

    def make(trial):
        def f(v, tape):  # no Rng: tinyresnet has no dropout, which would need one
            logits = model.forward(v, "train", tape)
            return softmax_cross_entropy(logits, labels, tape=tape)
        return f

    return make, (2, 3, 8, 8)


def suite_cases():
    cases = []
    for mode in PaddingMode:
        make, shape = _conv_case(mode)
        cases.append((f"conv2d[{mode.value} pad]", make, shape))
    make, shape = _bn_case()
    cases.append(("batchnorm2d[train]", make, shape))
    cases.append(("maxpool2d[2x2 s2]",
                  lambda trial: (lambda v, t: maxpool2d(v, 2, 2, tape=t)),
                  (2, 4, 8, 8)))
    cases.append(("maxpool2d[3x3 s2 pad1]",
                  lambda trial: (lambda v, t: maxpool2d(v, 3, 2, 1, tape=t)),
                  (2, 4, 8, 8)))
    cases.append(("relu", lambda trial: (lambda v, t: relu(v, t)), (2, 4, 8, 8)))
    cases.append(("global_avgpool",
                  lambda trial: (lambda v, t: global_avgpool(v, t)),
                  (2, 4, 8, 8)))
    cases.append(("adaptive_avgpool[3x3]",
                  lambda trial: (lambda v, t: adaptive_avgpool2d(v, 3, 3, t)),
                  (2, 4, 8, 8)))

    def linear_make(trial):
        rng = Rng(300 + trial)
        w = Variable(rng.normal((5, 64), dtype=np.float64))
        b = Variable(rng.normal((5,), dtype=np.float64))
        return lambda v, t: linear(flatten(v, t), w, b, t)

    cases.append(("linear", linear_make, (2, 2, 4, 8)))
    cases.append(("dropout[p=0.5 fixed mask]",
                  lambda trial: (lambda v, t: dropout(v, 0.5, "train",
                                                      Rng(400 + trial), tape=t)),
                  (2, 4, 8, 8)))
    cases.append(("softmax",
                  lambda trial: (lambda v, t: softmax(flatten(v, t), t)),
                  (2, 1, 2, 5)))

    def ce_make(trial):
        labels = Rng(500 + trial).integers(0, 6, (4,))
        return lambda v, t: softmax_cross_entropy(flatten(v, t), labels, tape=t)

    cases.append(("softmax_cross_entropy", ce_make, (4, 1, 1, 6)))

    make, shape = _composite_case()
    cases.append(("tinyresnet[composite, wrt input]", make, shape))
    return cases


_NO_PROJECTION = {"softmax_cross_entropy", "tinyresnet[composite, wrt input]"}


def run_suite(trials: int = 3):
    """[(layer name, worst relative error)] over `trials` random f64 inputs."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    results = []
    for name, make, shape in suite_cases():
        worst = 0.0
        for trial in range(trials):
            x = Rng(1000 + trial).normal(shape, dtype=np.float64)
            if name.startswith("relu"):
                x = np.where(np.abs(x) < 1e-3, 0.1, x)
            f = make(trial)
            loss_fn = f if name in _NO_PROJECTION else _projected(f)
            worst = max(worst, grad_check(loss_fn, x, eps=EPS))
        results.append((name, worst))
    return results
