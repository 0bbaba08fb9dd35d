"""Central-difference checks for every differentiable layer, f64, eps 1e-5.

Each op is wrapped into a scalar loss by weighting the output with a fixed
random projection, so a wrong gradient anywhere in the output cannot cancel.
"""

import numpy as np
import pytest

from padlab import gradcheck_suite, nn
from padlab.autodiff import Variable, grad_check
from padlab.nn import (BatchNormState, ConvSpec, PaddingMode,
                       adaptive_avgpool2d, attach_pad_channel, batchnorm2d,
                       conv2d, dropout, global_avgpool, linear, maxpool2d,
                       pad2d, relu, softmax, softmax_cross_entropy, sum_all,
                       mul)
from padlab.rng import Rng

from oracles import (as_strided_im2col, per_bin_adaptive_avgpool2d,
                     per_bin_adaptive_avgpool2d_backward)

TOL = 1e-4
EPS = 1e-5
TRIALS = 10

SHAPES = [(2, 4, 8, 8), (1, 3, 6, 7), (2, 2, 5, 5), (1, 4, 8, 6), (2, 3, 7, 7),
          (1, 2, 8, 8), (2, 4, 6, 6), (1, 1, 5, 8), (2, 3, 8, 5), (1, 4, 7, 6)]


def projected(op):
    """Wrap op(var, tape) -> Variable into a scalar loss with a fixed projection."""
    cache = {}

    def f(var, tape):
        out = op(var, tape)
        key = out.shape
        if key not in cache:
            cache[key] = Rng(999).normal(out.shape, dtype=np.float64)
        proj = Variable(cache[key])
        return sum_all(mul(out, proj, tape), tape)

    return f


def run_trials(make_op, shapes=SHAPES, tol=TOL):
    worst = 0.0
    for trial in range(TRIALS):
        shape = shapes[trial % len(shapes)]
        rng = Rng(1000 + trial)
        x = rng.normal(shape, dtype=np.float64)
        err = grad_check(projected(make_op(trial, shape, rng)), x, eps=EPS)
        worst = max(worst, err)
    assert worst < tol, f"max relative error {worst:.3e} >= {tol}"
    return worst


@pytest.mark.parametrize("mode", list(PaddingMode))
def test_grad_pad2d(mode):
    run_trials(lambda t, s, r: lambda v, tape: pad2d(v, 1 + t % 2, mode, tape=tape))


def test_grad_attach_pad_channel():
    run_trials(lambda t, s, r: lambda v, tape: attach_pad_channel(v, tape=tape))


@pytest.mark.parametrize("mode", list(PaddingMode))
def test_grad_conv_wrt_input(mode):
    def make(trial, shape, rng):
        cin = shape[1]
        cout = 3
        w = Variable(rng.normal((cout, cin, 3, 3), dtype=np.float64))
        b = Variable(rng.normal((cout,), dtype=np.float64))
        spec = ConvSpec(stride=1 + trial % 2, pad=1, padding_mode=mode)
        return lambda v, tape: conv2d(v, w, b, spec, tape=tape)

    run_trials(make)


def test_grad_conv_wrt_weight_and_bias():
    xs = {}

    def make_w(trial, shape, rng):
        def f(v, tape):
            cin = v.shape[1]
            if trial not in xs:
                xs[trial] = Rng(55 + trial).normal((2, cin, 6, 6), dtype=np.float64)
            x = Variable(xs[trial])
            spec = ConvSpec(pad=1)
            return conv2d(x, v, None, spec, tape=tape)
        return f

    weight_shapes = [(3, 2, 3, 3), (4, 1, 3, 3), (2, 4, 3, 3)]
    worst = 0.0
    for trial in range(TRIALS):
        shape = weight_shapes[trial % len(weight_shapes)]
        w = Rng(2000 + trial).normal(shape, dtype=np.float64)
        worst = max(worst, grad_check(projected(make_w(trial, shape, None)), w, eps=EPS))
    assert worst < TOL

    # bias: shape (cout,)
    x_fix = Rng(77).normal((2, 3, 6, 6), dtype=np.float64)
    w_fix = Rng(78).normal((4, 3, 3, 3), dtype=np.float64)

    def via_bias(v, tape):
        return conv2d(Variable(x_fix), Variable(w_fix), v, ConvSpec(pad=1), tape=tape)

    err = grad_check(projected(via_bias), Rng(79).normal((4,), dtype=np.float64),
                     eps=EPS)
    assert err < TOL


def test_grad_batchnorm_train_wrt_input():
    def make(trial, shape, rng):
        c = shape[1]
        gamma = Variable(rng.normal((c,), dtype=np.float64) + 1.0)
        beta = Variable(rng.normal((c,), dtype=np.float64))

        def f(v, tape):
            return batchnorm2d(v, gamma, beta, BatchNormState(c, np.float64),
                               "train", tape=tape)
        return f

    run_trials(make)


def test_grad_batchnorm_train_wrt_gamma_beta():
    x_fix = Rng(31).normal((2, 3, 5, 5), dtype=np.float64)

    def via_gamma(v, tape):
        beta = Variable(np.zeros(3, np.float64))
        return batchnorm2d(Variable(x_fix), v, beta,
                           BatchNormState(3, np.float64), "train", tape=tape)

    def via_beta(v, tape):
        gamma = Variable(np.ones(3, np.float64))
        return batchnorm2d(Variable(x_fix), gamma, v,
                           BatchNormState(3, np.float64), "train", tape=tape)

    for fn, seed in ((via_gamma, 41), (via_beta, 42)):
        err = grad_check(projected(fn), Rng(seed).normal((3,), dtype=np.float64),
                         eps=EPS)
        assert err < TOL


def test_grad_relu():
    # nudge values away from the kink so central differences stay valid
    def make(trial, shape, rng):
        def f(v, tape):
            return relu(v, tape)
        return f

    worst = 0.0
    for trial in range(TRIALS):
        shape = SHAPES[trial % len(SHAPES)]
        x = Rng(3000 + trial).normal(shape, dtype=np.float64)
        x = np.where(np.abs(x) < 1e-3, 0.1, x)
        worst = max(worst, grad_check(projected(make(trial, shape, None)),
                                      x, eps=EPS))
    assert worst < TOL


def test_grad_maxpool():
    def make(trial, shape, rng):
        k = 2 + trial % 2
        return lambda v, tape: maxpool2d(v, k, 2, pad=trial % 2, tape=tape)

    run_trials(make)


def test_grad_global_and_adaptive_avgpool():
    run_trials(lambda t, s, r: lambda v, tape: global_avgpool(v, tape=tape))
    run_trials(lambda t, s, r: lambda v, tape: adaptive_avgpool2d(v, 3, 3, tape=tape))


def test_grad_linear():
    w_fix = Rng(91).normal((5, 24), dtype=np.float64)
    b_fix = Rng(92).normal((5,), dtype=np.float64)

    def via_x(v, tape):
        from padlab.nn import flatten
        flat = flatten(v, tape)
        w = Variable(Rng(91).normal((5, flat.shape[1]), dtype=np.float64))
        b = Variable(b_fix)
        return linear(flat, w, b, tape=tape)

    worst = 0.0
    for trial in range(TRIALS):
        x = Rng(4000 + trial).normal((2, 2, 3, 4), dtype=np.float64)
        worst = max(worst, grad_check(projected(via_x), x, eps=EPS))
    assert worst < TOL

    x_fix = Rng(93).normal((3, 24), dtype=np.float64)

    def via_w(v, tape):
        return linear(Variable(x_fix), v, Variable(b_fix), tape=tape)

    err = grad_check(projected(via_w), w_fix, eps=EPS)
    assert err < TOL


def test_grad_dropout_fixed_mask():
    def make(trial, shape, rng):
        def f(v, tape):
            return dropout(v, 0.5, "train", Rng(500 + trial), tape=tape)
        return f

    run_trials(make)


def test_grad_softmax():
    def make(trial, shape, rng):
        from padlab.nn import flatten
        return lambda v, tape: softmax(flatten(v, tape), tape)

    run_trials(make)


def test_grad_softmax_cross_entropy():
    worst = 0.0
    for trial in range(TRIALS):
        n, k = 4, 6
        labels = Rng(600 + trial).integers(0, k, (n,))
        logits = Rng(700 + trial).normal((n, k), dtype=np.float64)
        err = grad_check(
            lambda v, tape: softmax_cross_entropy(v, labels, tape=tape),
            logits, eps=EPS)
        worst = max(worst, err)
    assert worst < TOL


def test_grad_conv_bn_relu_mean_chain():
    w_fix = Rng(801).normal((4, 3, 3, 3), dtype=np.float64)
    gamma_fix = Rng(802).normal((4,), dtype=np.float64) + 1.0
    beta_fix = Rng(803).normal((4,), dtype=np.float64)

    def chain(v, tape):
        from padlab.nn import mean_all
        w = Variable(w_fix)
        spec = ConvSpec(pad=1)
        h = conv2d(v, w, None, spec, tape=tape)
        h = batchnorm2d(h, Variable(gamma_fix), Variable(beta_fix),
                        BatchNormState(4, np.float64), "train", tape=tape)
        h = relu(h, tape)
        return mean_all(h, tape)

    worst = 0.0
    for trial in range(3):
        x = Rng(900 + trial).normal((2, 3, 6, 6), dtype=np.float64)
        worst = max(worst, grad_check(chain, x, eps=EPS))
    assert worst < TOL


def test_suite_results_unchanged_with_the_as_strided_im2col(monkeypatch):
    # the same repr with conv2d's window built the old way: the guard holds
    # on any BLAS, where a pinned hash of the results would not
    want = repr(gradcheck_suite.run_suite(trials=1))
    monkeypatch.setattr(nn, "_im2col", as_strided_im2col)
    assert repr(gradcheck_suite.run_suite(trials=1)) == want


def test_suite_results_unchanged_with_the_per_bin_pool_and_a_dropout_rng_per_forward(
        monkeypatch):
    # the same repr with the adaptive pool dividing bin by bin and the
    # dropout case building Rng(400 + trial) on every forward, as before
    want = repr(gradcheck_suite.run_suite(trials=1))
    calls = {"pool": 0, "dropout": 0}

    def per_bin_pool(x, out_h, out_w, tape=None):
        calls["pool"] += 1
        shape = x.data.shape
        return nn._out(per_bin_adaptive_avgpool2d(x.data, out_h, out_w), (x,), tape,
                       lambda g: (per_bin_adaptive_avgpool2d_backward(g, shape),))

    def dropout_per_forward(trial):
        def f(v, t):
            calls["dropout"] += 1
            return dropout(v, 0.5, "train", Rng(400 + trial), tape=t)
        return f

    cases = gradcheck_suite.suite_cases
    monkeypatch.setattr(gradcheck_suite, "adaptive_avgpool2d", per_bin_pool)
    monkeypatch.setattr(gradcheck_suite, "suite_cases", lambda: [
        (name, dropout_per_forward if name.startswith("dropout") else make, shape)
        for name, make, shape in cases()])
    assert repr(gradcheck_suite.run_suite(trials=1)) == want
    assert calls["pool"] > 1 and calls["dropout"] > 1
