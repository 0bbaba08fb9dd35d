import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padlab.autodiff import Tape, Variable, backward
from padlab.errors import (ConfigError, DegenerateBatchError, GeometryError,
                           InvalidLabelError, InvalidPadError, ShapeError)
from padlab.nn import (BN_EPS, BN_MOMENTUM, BatchNormState, ConvSpec,
                       PaddingMode, adaptive_avgpool2d, add, attach_pad_channel,
                       batchnorm2d, conv2d, dropout, flatten, global_avgpool,
                       kaiming_init, linear, maxpool2d, mean_all, mul, pad2d,
                       relu, softmax, softmax_cross_entropy, sum_all)
from padlab.rng import Rng

from padlab.nn import _COL_BLOCK_BYTES, Pool, _im2col, _pad_frame
from oracles import (accumulate_maxpool2d_backward, as_strided_im2col,
                     batchnorm2d_eval, channel_stats, fold_conv2d_dx,
                     gemm_conv2d_dw,
                     mean_adaptive_avgpool2d,
                     mean_batchnorm2d_train, mean_global_avgpool, naive_conv2d,
                     naive_conv2d_backward, naive_maxpool2d,
                     naive_maxpool2d_backward, naive_pad2d, np_pad_constant,
                     sliding_window_im2col, tap_chain_maxpool2x2)

MODES = {PaddingMode.ZERO: "zero", PaddingMode.REFLECT: "reflect",
         PaddingMode.REPLICATE: "replicate"}


def _var(arr, requires_grad=False):
    return Variable(arr, requires_grad=requires_grad)


def _vjp(op, arrays, g):
    """Gradients of sum(g * op(*variables, tape)) w.r.t. each array, via the tape."""
    variables = [_var(a, requires_grad=True) for a in arrays]
    tape = Tape()
    out = op(*variables, tape)
    backward(sum_all(mul(out, _var(g), tape), tape), tape)
    return [v.grad for v in variables]


# ---------------------------------------------------------------------------
# pad2d

def test_pad_zero_single_pixel():
    x = _var(np.full((1, 1, 1, 1), 5.0, np.float32))
    out = pad2d(x, 1, PaddingMode.ZERO).data[0, 0]
    expected = np.zeros((3, 3), np.float32)
    expected[1, 1] = 5.0
    assert np.array_equal(out, expected)


def test_pad_reflect_row():
    # rows [1,2,3] mirror to [2,1,2,3,2]
    x = _var(np.tile(np.array([1.0, 2.0, 3.0], np.float32), (3, 1)).reshape(1, 1, 3, 3))
    out = pad2d(x, 1, PaddingMode.REFLECT).data[0, 0]
    for row in out:
        assert row.tolist() == [2.0, 1.0, 2.0, 3.0, 2.0]


def test_pad_replicate_row():
    x = _var(np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 1, 3))
    out = pad2d(x, 1, PaddingMode.REPLICATE).data[0, 0]
    assert out[1].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]


def test_pad_reflect_rejects_oversized_pad():
    x = _var(np.zeros((1, 1, 3, 3), np.float32))
    with pytest.raises(InvalidPadError):
        pad2d(x, 3, PaddingMode.REFLECT)


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(list(PaddingMode)), pad=st.integers(1, 3),
       h=st.integers(4, 9), w=st.integers(4, 9), seed=st.integers(0, 2**31))
def test_pad_matches_oracle_and_preserves_interior(mode, pad, h, w, seed):
    x = Rng(seed).uniform((2, 3, h, w))
    out = pad2d(_var(x), pad, mode).data
    assert out.shape == (2, 3, h + 2 * pad, w + 2 * pad)
    assert out[:, :, pad:-pad, pad:-pad].tobytes() == x.tobytes()
    assert np.array_equal(out, naive_pad2d(x, pad, MODES[mode]))


# ---------------------------------------------------------------------------
# attach_pad_channel

def test_attach_pad_channel_appends_ones():
    x = Rng(0).uniform((2, 3, 5, 5))
    out = attach_pad_channel(_var(x)).data
    assert out.shape == (2, 4, 5, 5)
    assert out[:, :3].tobytes() == x.tobytes()
    assert np.all(out[:, 3] == 1.0)


@pytest.mark.parametrize("pad", [1, 2, 3])
def test_pad_indicator_marks_original_extent(pad):
    x = Rng(pad).uniform((2, 3, 6, 7))
    padded = pad2d(attach_pad_channel(_var(x)), pad, PaddingMode.ZERO).data
    indicator = padded[:, 3]
    expected = np.zeros_like(indicator)
    expected[:, pad:-pad, pad:-pad] = 1.0
    assert np.array_equal(indicator, expected)


@pytest.mark.parametrize("mode", [PaddingMode.REFLECT, PaddingMode.REPLICATE])
def test_indicator_defeated_by_other_modes(mode):
    x = Rng(9).uniform((1, 3, 6, 6))
    padded = pad2d(attach_pad_channel(_var(x)), 2, mode).data
    assert np.all(padded[:, 3] == 1.0)


# ---------------------------------------------------------------------------
# conv2d

def test_conv_identity_kernel():
    x = Rng(3).uniform((2, 1, 5, 5))
    w = _var(np.ones((1, 1, 1, 1), np.float32), requires_grad=True)
    spec = ConvSpec()
    out = conv2d(_var(x), w, None, spec).data
    assert np.array_equal(out, x)


def test_conv_all_ones_3x3_padded():
    x = _var(np.ones((1, 1, 3, 3), np.float32))
    w = _var(np.ones((1, 1, 3, 3), np.float32))
    spec = ConvSpec(stride=1, pad=1)
    out = conv2d(x, w, None, spec).data[0, 0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
    assert np.array_equal(out, expected)


def test_conv_zero_weights_bias_one():
    x = Rng(1).uniform((2, 3, 4, 4))
    w = _var(np.zeros((5, 3, 3, 3), np.float32))
    b = _var(np.ones(5, np.float32))
    out = conv2d(_var(x), w, b, ConvSpec(pad=1)).data
    assert np.all(out == 1.0)


@settings(max_examples=25, deadline=None)
@given(cin=st.integers(1, 3), cout=st.integers(1, 4), k=st.sampled_from([1, 2, 3]),
       stride=st.integers(1, 2), pad=st.integers(0, 2), size=st.integers(4, 7),
       seed=st.integers(0, 2**31), use_bias=st.booleans())
def test_conv_matches_naive_oracle(cin, cout, k, stride, pad, size, seed, use_bias):
    rng = Rng(seed)
    x = rng.uniform((2, cin, size, size), dtype=np.float64)
    w = rng.normal((cout, cin, k, k), dtype=np.float64)
    b = rng.normal((cout,), dtype=np.float64) if use_bias else None
    spec = ConvSpec(stride=stride, pad=pad)
    got = conv2d(_var(x), _var(w), None if b is None else _var(b), spec).data
    want = naive_conv2d(x, w, b, stride=stride, pad=pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_conv_backward_matches_loop_oracle(k, stride):
    rng = Rng(40 + 2 * k + stride)
    pad = k // 2
    x = rng.uniform((2, 3, 7, 7), dtype=np.float64)
    w = rng.normal((4, 3, k, k), dtype=np.float64)
    b = rng.normal((4,), dtype=np.float64)
    ho = (7 + 2 * pad - k) // stride + 1
    g = rng.normal((2, 4, ho, ho), dtype=np.float64)
    spec = ConvSpec(stride=stride, pad=pad)
    got = _vjp(lambda xv, wv, bv, tape: conv2d(xv, wv, bv, spec, tape), [x, w, b], g)
    for name, a, e in zip(("dx", "dw", "db"), got,
                          naive_conv2d_backward(x, w, g, stride, pad)):
        np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12, err_msg=name)


def test_conv_channel_mismatch():
    x = _var(np.zeros((1, 2, 4, 4), np.float32))
    w = _var(np.zeros((1, 3, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        conv2d(x, w, None, ConvSpec())


def test_conv_rank3_weight():
    x = _var(np.zeros((1, 3, 4, 4), np.float32))
    w = _var(np.zeros((3, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        conv2d(x, w, None, ConvSpec())


@pytest.mark.parametrize("kwargs, error", [
    pytest.param({"stride": 0}, ShapeError, id="stride-0"),
    pytest.param({"pad": -1}, InvalidPadError, id="pad--1")])
def test_conv_spec_rejects(kwargs, error):
    with pytest.raises(error):
        ConvSpec(**kwargs)


# a (1,) bias used to broadcast in forward and fail only in backward; a (4,)
# one raised numpy's ValueError
@pytest.mark.parametrize("bias_shape", [(1,), (4,)], ids=["bias-1", "bias-4"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda b: conv2d(_var(np.zeros((2, 3, 4, 4))), _var(np.zeros((5, 3, 3, 3))),
                                  b, ConvSpec(), Tape()), id="conv2d"),
    pytest.param(lambda b: linear(_var(np.zeros((2, 3))), _var(np.zeros((5, 3))), b, Tape()),
                 id="linear")])
def test_bias_of_the_wrong_shape(call, bias_shape):
    with pytest.raises(ShapeError) as exc:
        call(_var(np.zeros(bias_shape), requires_grad=True))
    assert f"bias shape {bias_shape} != (5,)" in str(exc.value)


def test_conv_geometry_underflow():
    x = _var(np.zeros((1, 1, 2, 2), np.float32))
    w = _var(np.zeros((1, 1, 3, 3), np.float32))
    with pytest.raises(GeometryError):
        conv2d(x, w, None, ConvSpec())


def test_conv_translation_equivariance_interior():
    # input with a zero margin wider than the kernel: shifting commutes
    rng = Rng(11)
    x = np.zeros((1, 2, 12, 12), np.float64)
    x[:, :, 4:8, 4:8] = rng.uniform((1, 2, 4, 4), dtype=np.float64)
    w = rng.normal((3, 2, 3, 3), dtype=np.float64)
    spec = ConvSpec(pad=1)
    base = conv2d(_var(x), _var(w), None, spec).data
    shifted = conv2d(_var(np.roll(x, (1, 1), axis=(2, 3))), _var(w), None, spec).data
    assert np.array_equal(shifted[:, :, 2:-2, 2:-2],
                          np.roll(base, (1, 1), axis=(2, 3))[:, :, 2:-2, 2:-2])


# ---------------------------------------------------------------------------
# batchnorm

def _bn_parts(c, dtype=np.float32):
    gamma = _var(np.ones(c, dtype), requires_grad=True)
    beta = _var(np.zeros(c, dtype), requires_grad=True)
    return gamma, beta, BatchNormState(c, dtype)


def test_bn_constant_channel_train():
    gamma, beta, state = _bn_parts(2)
    x = _var(np.full((2, 2, 3, 3), 7.0, np.float32))
    out = batchnorm2d(x, gamma, beta, state, "train").data
    assert np.allclose(out, 0.0, atol=1e-4)


def test_bn_normalises_batch():
    gamma, beta, state = _bn_parts(4, np.float64)
    x = Rng(5).normal((3, 4, 6, 6), std=3.0, dtype=np.float64) + 1.5
    out = batchnorm2d(_var(x), gamma, beta, state, "train").data
    means, variances = channel_stats(out)
    assert np.all(np.abs(means) < 1e-5)
    assert np.all(np.abs(variances - 1.0) < 1e-3)


def test_bn_eval_affine_identity():
    gamma = _var(np.full(3, 2.0, np.float32))
    beta = _var(np.full(3, 3.0, np.float32))
    state = BatchNormState(3)
    x = Rng(2).uniform((2, 3, 4, 4))
    out = batchnorm2d(_var(x), gamma, beta, state, "eval").data
    np.testing.assert_allclose(out, 2.0 * x / np.sqrt(1 + 1e-5) + 3.0, rtol=1e-6)


def test_bn_running_stats_update():
    gamma, beta, state = _bn_parts(1, np.float64)
    x = Rng(8).normal((4, 1, 5, 5), std=2.0, dtype=np.float64) + 10.0
    batchnorm2d(_var(x), gamma, beta, state, "train")
    mu = x.mean()
    m = x.size
    unbiased = x.var() * m / (m - 1)
    assert np.allclose(state.running_mean, 0.9 * 0 + 0.1 * mu)
    assert np.allclose(state.running_var, 0.9 * 1 + 0.1 * unbiased)


def test_bn_degenerate_batch():
    gamma, beta, state = _bn_parts(1)
    with pytest.raises(DegenerateBatchError):
        batchnorm2d(_var(np.ones((1, 1, 1, 1), np.float32)),
                    gamma, beta, state, "train")


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_rejects_input_channels_unlike_gamma(mode):
    gamma, beta, state = _bn_parts(3)
    with pytest.raises(ShapeError, match=r"gamma \(3,\) and beta \(3,\) must be \(2,\)"):
        batchnorm2d(_var(np.ones((2, 2, 3, 3), np.float32)), gamma, beta, state, mode)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("gamma_shape, beta_shape", [((3,), (1,)), ((3,), (4,)),
                                                     ((3, 1), (3,))],
                         ids=["beta-1", "beta-4", "gamma-3x1"])
def test_bn_rejects_gamma_or_beta_not_of_the_channel_count(mode, gamma_shape, beta_shape):
    # a (1,) beta used to broadcast in forward and fail in backward, a (4,)
    # one to raise numpy's ValueError; a (3, 1) gamma has the right length
    gamma = _var(np.ones(gamma_shape, np.float32), requires_grad=True)
    beta = _var(np.zeros(beta_shape, np.float32), requires_grad=True)
    with pytest.raises(ShapeError, match=re.escape(
            f"gamma {gamma_shape} and beta {beta_shape} must be (3,)")):
        batchnorm2d(_var(np.ones((2, 3, 4, 4), np.float32), requires_grad=True),
                    gamma, beta, BatchNormState(3), mode, Tape())


# ---------------------------------------------------------------------------
# kaiming init

def test_kaiming_std_conv_4ch():
    w = kaiming_init((64, 4, 3, 3), Rng(0))
    assert w.shape == (64, 4, 3, 3)
    # fan_in 36 -> std sqrt(2/36) = 0.2357; 1e5 draws land within 2%
    big = kaiming_init((2778, 4, 3, 3), Rng(1), dtype="f64")  # 100,008 draws
    assert big.size >= 100_000
    assert abs(big.std() - 0.235702) < 0.02 * 0.235702


def test_kaiming_std_resnet_stem():
    big = kaiming_init((681, 3, 7, 7), Rng(2), dtype="f64")  # 100,107 draws
    want = np.sqrt(2 / 147)  # 0.116642
    assert abs(big.std() - want) < 0.02 * want


def test_kaiming_deterministic():
    a = kaiming_init((8, 3, 3, 3), Rng(42))
    b = kaiming_init((8, 3, 3, 3), Rng(42))
    assert a.tobytes() == b.tobytes()


def test_kaiming_rejects_unknown_dtype_tag():
    with pytest.raises(ConfigError, match="f32, f64"):
        kaiming_init((8, 3, 3, 3), Rng(42), dtype="f16")


# ---------------------------------------------------------------------------
# pools, linear, dropout, softmax

def test_relu_definition():
    out = relu(_var(np.array([-1.0, 0.0, 2.0], np.float32))).data
    assert out.tolist() == [0.0, 0.0, 2.0]


def test_maxpool_2x2():
    x = _var(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 1, 2, 2))
    out = maxpool2d(x, 2, 2).data
    assert out.reshape(-1).tolist() == [4.0]


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([2, 3]), s=st.integers(1, 2), pad=st.integers(0, 1),
       size=st.integers(4, 8), seed=st.integers(0, 2**31))
def test_maxpool_matches_oracle(k, s, pad, size, seed):
    x = Rng(seed).uniform((2, 3, size, size))
    got = maxpool2d(_var(x), k, s, pad).data
    want = naive_maxpool2d(x, k, s, pad)
    assert np.array_equal(got, want.astype(got.dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_ties_go_to_first_cell_bit_for_bit(dtype):
    # ReLU'd inputs: about one 2x2 window in 16 is all zeros
    rng = Rng(17)
    x = relu(_var(rng.normal((4, 3, 16, 16), dtype=dtype))).data
    g = rng.normal((4, 3, 8, 8), dtype=dtype)
    (dx,) = _vjp(lambda v, tape: maxpool2d(v, 2, 2, tape=tape), [x], g)
    assert dx.tobytes() == naive_maxpool2d_backward(x, g, 2, 2).tobytes()
    windows = dx.reshape(4, 3, 8, 2, 8, 2).transpose(0, 1, 2, 4, 3, 5)
    tied = np.all(x.reshape(4, 3, 8, 2, 8, 2) == 0, axis=(3, 5))
    assert tied.sum() > 20
    assert np.array_equal(windows[tied][:, 0, 0], g[tied])
    assert not windows[tied].reshape(-1, 4)[:, 1:].any()


@pytest.mark.parametrize("k,s,pad", [(3, 2, 1), (3, 1, 1), (2, 1, 0), (3, 2, 0)])
def test_maxpool_overlapping_backward_matches_oracle(k, s, pad):
    rng = Rng(23 + k + s + pad)
    x = relu(_var(rng.normal((2, 3, 9, 9)))).data
    ho = (9 + 2 * pad - k) // s + 1
    g = rng.normal((2, 3, ho, ho))
    (dx,) = _vjp(lambda v, tape: maxpool2d(v, k, s, pad, tape=tape), [x], g)
    np.testing.assert_allclose(dx, naive_maxpool2d_backward(x, g, k, s, pad),
                               rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("kernel, stride, pad, error", [
    (0, 1, 0, ShapeError), (2, 0, 0, ShapeError), (-1, 2, 0, ShapeError),
    (2, 2, -1, InvalidPadError), (2, 2, 2, InvalidPadError), (3, 2, 2, InvalidPadError),
    (1, 1, 1, InvalidPadError),
])
def test_maxpool_rejects_bad_arguments(kernel, stride, pad, error):
    # pad > kernel // 2 would leave windows of padding only, which yield -inf
    x = _var(Rng(3).uniform((1, 2, 4, 4)))
    with pytest.raises(error):
        maxpool2d(x, kernel, stride, pad)


def test_global_avgpool():
    x = Rng(4).uniform((2, 3, 4, 4))
    out = global_avgpool(_var(x)).data
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)


def test_adaptive_avgpool_identity_and_downsample():
    x = Rng(6).uniform((1, 2, 7, 7))
    same = adaptive_avgpool2d(_var(x), 7, 7).data
    assert np.array_equal(same, x)
    one = adaptive_avgpool2d(_var(x), 1, 1).data
    np.testing.assert_allclose(one[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-6)


def test_linear_matches_matmul():
    rng = Rng(12)
    x = rng.uniform((4, 6))
    w = rng.normal((3, 6))
    b = rng.normal((3,))
    out = linear(_var(x), _var(w), _var(b)).data
    np.testing.assert_allclose(out, x @ w.T + b, rtol=1e-6)


def test_dropout_eval_is_identity_train_scales():
    x = _var(np.ones((4, 100), np.float32))
    assert dropout(x, 0.5, "eval") is x
    out = dropout(x, 0.5, "train", Rng(3)).data
    kept = out[out != 0]
    assert np.allclose(kept, 2.0)
    assert 0.3 < (out != 0).mean() < 0.7


def test_softmax_rows_sum_to_one():
    logits = Rng(5).normal((8, 10), std=4.0)
    p = softmax(_var(logits)).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_cross_entropy_uniform_logits():
    logits = _var(np.zeros((3, 10), np.float32))
    loss = softmax_cross_entropy(logits, np.array([0, 5, 9])).data
    assert abs(loss[0] - np.log(10)) < 1e-6


def test_cross_entropy_rejects_bad_label():
    logits = _var(np.zeros((2, 4), np.float32))
    with pytest.raises(InvalidLabelError):
        softmax_cross_entropy(logits, np.array([0, 4]))


def test_subsumption_zero_weight_bias_one_conv():
    # A conv with zero weights and bias 1, relu, then zero padding produces
    # exactly the indicator channel that attach_pad_channel + zero padding
    # would supply at the next layer.
    rng = Rng(21)
    x = _var(rng.uniform((2, 3, 6, 6)))
    w = _var(np.zeros((1, 3, 3, 3), np.float32))
    b = _var(np.ones(1, np.float32))
    feat = conv2d(x, w, b, ConvSpec(pad=1))
    feat = relu(feat)
    constructed = pad2d(feat, 1, PaddingMode.ZERO).data[:, 0]

    next_in = _var(rng.uniform((2, 5, 6, 6)))
    reference = pad2d(attach_pad_channel(next_in), 1,
                      PaddingMode.ZERO).data[:, 5]
    assert constructed.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# direct forms against the numpy library forms they replaced, byte for byte

def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _random_shapes(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, c = (int(v) for v in rng.integers(1, 6, 2))
        h, w = (int(v) for v in rng.integers(1, 12, 2))
        yield rng, (n, c, h, w), 10.0 ** rng.uniform(-3, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [1, 2, 3])
@pytest.mark.parametrize("value", [0.0, 0.5, -np.inf])
def test_pad_frame_matches_np_pad(dtype, pad, value):
    x = np.random.default_rng(pad).standard_normal((2, 3, 5, 4)).astype(dtype)
    _same_bytes(_pad_frame(x, pad, value), np_pad_constant(x, pad, value))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw", [(1, 1), (2, 3), (3, 3), (7, 7)])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_im2col_matches_sliding_window_form(dtype, kh, kw, stride):
    x = np.random.default_rng(kh * 10 + stride).standard_normal((2, 3, 11, 10)).astype(dtype)
    ho = (11 - kh) // stride + 1
    wo = (10 - kw) // stride + 1
    _same_bytes(_im2col(x, kh, kw, stride, ho, wo), sliding_window_im2col(x, kh, kw, stride))


def _strided_view(a):
    """The same (N, C, H, W) values in neither NCHW nor channel-major memory:
    every other column of a wider array, with the rows reversed."""
    n, c, h, w = a.shape
    wide = np.zeros((n, c, h, 2 * w), a.dtype)
    wide[:, :, ::-1, ::2] = a
    return wide[:, :, ::-1, ::2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("layout", ["nchw", "channel-major", "strided"])
def test_im2col_matches_as_strided_form(dtype, k, stride, layout):
    x = np.random.default_rng(10 * k + stride).standard_normal((7, 3, 9, 8)).astype(dtype)
    x = {"nchw": x, "channel-major": _channel_major(x), "strided": _strided_view(x)}[layout]
    ho, wo = (9 - k) // stride + 1, (8 - k) // stride + 1
    _same_bytes(_im2col(x, k, k, stride, ho, wo), as_strided_im2col(x, k, k, stride, ho, wo))
    for start, count in ((0, 3), (3, 3), (6, 1), (2, 5)):  # (6, 1): a partial last block
        _same_bytes(_im2col(x, k, k, stride, ho, wo, start, count),
                    as_strided_im2col(x[start:start + count], k, k, stride, ho, wo))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_train_forward_backward_match_np_mean(dtype):
    for rng, shape, scale in _random_shapes(1, 60):
        if shape[0] * shape[2] * shape[3] < 2:
            continue
        c = shape[1]
        x = (rng.standard_normal(shape) * scale + rng.standard_normal()).astype(dtype)
        gamma = rng.standard_normal(c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        state = BatchNormState(c, dtype)
        vs = [_var(a, requires_grad=True) for a in (x, gamma, beta)]
        tape = Tape()
        out = batchnorm2d(*vs, state, "train", tape)
        backward(sum_all(mul(out, _var(g), tape), tape), tape)
        ref_out, ref_dx, ref_dgamma, ref_dbeta, mu, var = mean_batchnorm2d_train(
            x, gamma, beta, g, BN_EPS)
        _same_bytes(out.data, ref_out)
        for v, ref in zip(vs, (ref_dx, ref_dgamma, ref_dbeta)):
            _same_bytes(v.grad, ref)
        m = shape[0] * shape[2] * shape[3]
        mom, fresh = BN_MOMENTUM, BatchNormState(c, dtype)
        _same_bytes(state.running_mean,
                    ((1 - mom) * fresh.running_mean + mom * mu).astype(dtype))
        _same_bytes(state.running_var,
                    ((1 - mom) * fresh.running_var + mom * (var * (m / (m - 1)))).astype(dtype))


def _signed_zero_grad(rng, shape, dtype):
    """A standard-normal output gradient with every fifth entry -0.0."""
    g = rng.standard_normal(shape).astype(dtype)
    g.flat[::5] = -0.0
    return g


def _op_backward(op, arrays, g):
    """op's output and its backward closure applied to g directly, so no sum
    into a zeroed .grad can turn a -0.0 into +0.0."""
    tape = Tape()
    out = op(*[_var(a, requires_grad=True) for a in arrays], tape)
    return out.data, tape.entries[-1].backward_fn(g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_dw_matches_gmat_cols_t_form(dtype, k, stride):
    rng = np.random.default_rng(10 * k + stride)
    for n, c, size, cout in ((2, 3, 7, 4), (16, 8, 16, 16), (8, 16, 8, 32)):
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        w = rng.standard_normal((cout, c, k, k)).astype(dtype)
        spec = ConvSpec(stride)
        ho = (size - k) // stride + 1
        g = _signed_zero_grad(rng, (n, cout, ho, ho), dtype)
        _, (_, dw) = _op_backward(lambda xv, wv, tape: conv2d(xv, wv, None, spec, tape),
                                  [x, w], g)
        cols = sliding_window_im2col(x, k, k, stride)
        _same_bytes(dw, gemm_conv2d_dw(cols, g).reshape(w.shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_eval_forward_backward_match_fresh_temporaries(dtype):
    for rng, shape, scale in _random_shapes(3, 60):
        c = shape[1]
        state = BatchNormState(c, dtype)
        state.running_mean = (rng.standard_normal(c) * scale).astype(dtype)
        state.running_var = (rng.uniform(0.01, 4.0, c) * scale * scale).astype(dtype)
        x = (rng.standard_normal(shape) * scale + rng.standard_normal()).astype(dtype)
        gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
        g = _signed_zero_grad(rng, shape, dtype)
        out, grads = _op_backward(
            lambda xv, gv, bv, tape: batchnorm2d(xv, gv, bv, state, "eval", tape),
            [x, gamma, beta], g)
        ref = batchnorm2d_eval(x, gamma, beta, state.running_mean, state.running_var,
                               g, BN_EPS)
        for got, want in zip((out, *grads), ref):
            _same_bytes(got, want)
        # without a tape the output is written over the op's own xhat buffer
        _same_bytes(batchnorm2d(_var(x), _var(gamma), _var(beta), state,
                                "eval").data, ref[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, s, pad, size", [
    (2, 2, 0, 8), (3, 3, 0, 9), (1, 1, 0, 5), (2, 2, 1, 6),  # tiling
    (3, 2, 1, 9), (2, 1, 0, 8), (3, 1, 1, 7),  # overlapping
    (2, 2, 0, 9), (3, 3, 1, 8), (2, 3, 0, 8),  # odd-sized or gapped
])
def test_maxpool_backward_matches_accumulate_form(dtype, k, s, pad, size):
    rng = np.random.default_rng(100 * k + 10 * s + size)
    x = np.maximum(rng.standard_normal((3, 4, size, size)), 0).astype(dtype)  # ties
    ho = (size + 2 * pad - k) // s + 1
    g = _signed_zero_grad(rng, (3, 4, ho, ho), dtype)
    _, (dx,) = _op_backward(lambda v, tape: maxpool2d(v, k, s, pad, tape=tape), [x], g)
    _same_bytes(dx, accumulate_maxpool2d_backward(x, g, k, s, pad))


def test_adaptive_bin_edges_are_the_float_floor_and_ceil():
    # the integer edges i*h//out and -(-(i+1)*h//out) that adaptive_avgpool2d
    # uses, against floor(i*h/out) and ceil((i+1)*h/out) of floats
    h = np.arange(1, 600)[:, None, None]
    out = np.arange(1, 80)[None, :, None]
    i = np.arange(0, 80)[None, None, :]
    assert np.array_equal(i * h // out, np.floor(i * h / out))
    assert np.array_equal(-(-(i + 1) * h // out), np.ceil((i + 1) * h / out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpools_match_np_mean(dtype):
    for rng, shape, scale in _random_shapes(2, 60):
        x = (rng.standard_normal(shape) * scale).astype(dtype)
        _same_bytes(global_avgpool(_var(x)).data, mean_global_avgpool(x))
        out_h, out_w = (int(v) for v in rng.integers(1, 5, 2))
        _same_bytes(adaptive_avgpool2d(_var(x), out_h, out_w).data,
                    mean_adaptive_avgpool2d(x, out_h, out_w))


# ---------------------------------------------------------------------------
# memory layout: ops take (N, C, H, W) shapes in any memory order

def _channel_major(a):
    """The same (N, C, H, W) values stored as a (C, N, H, W)-contiguous array."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _both_layouts(op, arrays, g):
    """op's output and grads with the first array (and g) in NCHW order, then
    with both channel-major."""
    nchw = _op_backward(op, arrays, g)
    cm = _op_backward(op, [_channel_major(arrays[0]), *arrays[1:]], _channel_major(g))
    return nchw, cm


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride, bias", [(3, 1, True), (3, 2, False), (1, 2, True)])
def test_conv_same_bytes_in_either_layout(dtype, k, stride, bias):
    rng = np.random.default_rng(10 * k + stride)
    for n, c, size, cout in ((2, 3, 7, 4), (16, 8, 16, 16)):
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        w = rng.standard_normal((cout, c, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        spec = ConvSpec(stride)
        ho = (size - k) // stride + 1
        g = _signed_zero_grad(rng, (n, cout, ho, ho), dtype)
        (out, grads), (out_cm, grads_cm) = _both_layouts(
            lambda xv, wv, bv, tape: conv2d(xv, wv, bv if bias else None, spec, tape),
            [x, w, b], g)
        assert out_cm.transpose(1, 0, 2, 3).flags.c_contiguous
        for got, want in zip((out_cm, *grads_cm), (out, *grads)):
            _same_bytes(got, want)


# f64 stays at 16: at sizes such as 7, 13 and 31 a forward-only block's f64
# bytes differ from the full matrix's, with whole-row blocks and without
@pytest.mark.parametrize("dtype, size", [(np.float32, 32), (np.float64, 16), (np.float32, 7),
                                         (np.float32, 13), (np.float32, 31), (np.float32, 33)])
@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
def test_conv_forward_only_blocks_give_the_full_matrix_bytes(dtype, size, k, stride,
                                                             bias, layout):
    c, cout, pad = 4, 8, k // 2
    ho = (size + 2 * pad - k) // stride + 1
    step = _COL_BLOCK_BYTES // (c * k * k * ho * ho * np.dtype(dtype).itemsize)
    assert step >= 2
    n = 3 * step - 1  # two full blocks of `step` images and a partial third
    rng = np.random.default_rng(100 * k + stride)
    x = rng.standard_normal((n, c, size, size)).astype(dtype)
    if layout == "channel-major":
        x = _channel_major(x)
    w = rng.standard_normal((cout, c, k, k)).astype(dtype)
    b = _var(rng.standard_normal(cout).astype(dtype)) if bias else None
    spec = ConvSpec(stride, pad)
    full = conv2d(_var(x), _var(w, requires_grad=True), b, spec, Tape()).data
    no_tape = conv2d(_var(x), _var(w), b, spec).data
    frozen_w = conv2d(_var(x, requires_grad=True), _var(w), b, spec, Tape()).data
    for got in (no_tape, frozen_w):
        _same_bytes(got, full)
        assert got.strides == full.strides


@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
def test_conv_whole_row_blocks_give_the_full_matrix_bytes_on_a_ragged_map(layout):
    # an 11x23 map padded to 13x25: a whole-row block spans 273 cells per image,
    # blocks of 11 images fill 3003 columns and the last block of one image 273,
    # neither a multiple of 64
    n, c, cout, h, w = 23, 5, 6, 11, 23
    assert _COL_BLOCK_BYTES // (c * 9 * h * w * 4) == 11
    assert (11 * 273) % 64 and 273 % 64
    rng = np.random.default_rng(23)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    x = _channel_major(x) if layout == "channel-major" else x
    wt = rng.standard_normal((cout, c, 3, 3)).astype(np.float32)
    b = _var(rng.standard_normal(cout).astype(np.float32))
    full = conv2d(_var(x), _var(wt, requires_grad=True), b, ConvSpec(1, 1), Tape()).data
    _same_bytes(conv2d(_var(x), _var(wt), b, ConvSpec(1, 1)).data, full)


def test_conv_forward_only_blocks_are_free_after_a_frozen_weight_forward():
    # backward_conv never reads a forward-only conv's blocks, so with a tape
    # and a frozen weight only the padded input and the output stay held
    rng = np.random.default_rng(4)
    x = _var(rng.standard_normal((16, 4, 32, 32)).astype(np.float32), requires_grad=True)
    wt = _var(rng.standard_normal((8, 4, 3, 3)).astype(np.float32))
    tape = Tape()
    with Pool() as pool:
        out = conv2d(x, wt, None, ConvSpec(1, 1), tape)
        refs = [sys.getrefcount(block) for block in pool.blocks]
        assert len(refs) >= 5  # the zero block, padded input, output, columns, product
        assert sum(r != refs[0] for r in refs) == 2
    assert len(tape.entries) == 2 and out.data.shape == (16, 8, 32, 32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op_name", ["relu", "pad2d", "maxpool2d-2s2", "maxpool2d-3s2p1"])
def test_pointwise_and_pool_same_bytes_in_either_layout(dtype, op_name):
    rng = np.random.default_rng(7)
    op, out_hw = {"relu": (lambda v, tape: relu(v, tape), 8),
                  "pad2d": (lambda v, tape: pad2d(v, 2, tape=tape), 12),
                  "maxpool2d-2s2": (lambda v, tape: maxpool2d(v, 2, 2, tape=tape), 4),
                  "maxpool2d-3s2p1": (lambda v, tape: maxpool2d(v, 3, 2, 1, tape=tape), 4),
                  }[op_name]
    x = np.maximum(rng.standard_normal((4, 5, 8, 8)), 0).astype(dtype)  # ties, zeros
    g = _signed_zero_grad(rng, (4, 5, out_hw, out_hw), dtype)
    (out, grads), (out_cm, grads_cm) = _both_layouts(op, [x], g)
    assert out_cm.transpose(1, 0, 2, 3).flags.c_contiguous
    for got, want in zip((out_cm, *grads_cm), (out, *grads)):
        _same_bytes(got, want)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_agrees_in_either_layout(dtype, tol, mode):
    # Only the summation order of the per-channel reductions may change. A
    # reordered mean moves xhat by about eps * |mean| / std, so the bound is
    # relative to the largest value, times that conditioning of x.
    big = [(np.random.default_rng(s), shape, 1.0)
           for s, shape in enumerate([(64, 8, 32, 32), (64, 32, 8, 8)])]
    for rng, shape, scale in [*_random_shapes(5, 30), *big]:
        if mode == "train" and shape[0] * shape[2] * shape[3] < 2:
            continue
        c = shape[1]
        states = [BatchNormState(c, dtype) for _ in range(2)]
        x = (rng.standard_normal(shape) * scale + rng.standard_normal()).astype(dtype)
        gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
        g = _signed_zero_grad(rng, shape, dtype)
        results = []
        for state, xs, gs in zip(states, (x, _channel_major(x)), (g, _channel_major(g))):
            out, grads = _op_backward(
                lambda xv, gv, bv, tape: batchnorm2d(xv, gv, bv, state, mode, tape),
                [xs, gamma, beta], gs)
            results.append((out, *grads, state.running_mean, state.running_var))
        x64 = x.astype(np.float64)
        mean, std = x64.mean(axis=(0, 2, 3)), x64.std(axis=(0, 2, 3)) + BN_EPS
        cond = 1.0 + np.max(np.abs(mean) / std) if mode == "train" else 1.0
        for got, want in zip(*results[::-1]):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=tol * cond * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# whole-row kernels: the 2x2 pool and the stride-1 input gradient keep the
# bytes of the tap-by-tap forms they replaced

_SPECIALS = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]


def _pool2x2_against_tap_chain(x, gfull):
    """maxpool2d(x, 2, 2) and its dx for the gradient g = gfull's interior,
    the strided view pad2d's backward hands on, against the tap chain."""
    g = gfull[:, :, 1:-1, 1:-1]
    out, (dx,) = _op_backward(lambda v, tape: maxpool2d(v, 2, 2, tape=tape), [x], g)
    want_out, want_dx = tap_chain_maxpool2x2(x, g)
    for got, want in ((out, want_out), (dx, want_dx)):
        _same_bytes(got, want)
        assert got.strides == want.strides


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
def test_maxpool2x2_matches_tap_chain_on_every_special_window(dtype, layout):
    # all 6**4 windows over {+0, -0, 1, NaN, +inf, -inf}, one per channel,
    # twice over with the channels shuffled into a batch of two
    windows = np.array(list(itertools.product(_SPECIALS, repeat=4)), dtype)
    rng = np.random.default_rng(5)
    specials_g = np.array([1.5, -2.0, -0.0, 0.0, np.nan, np.inf], dtype)
    for x in (windows.reshape(1, -1, 2, 2),
              rng.permutation(windows).reshape(2, -1, 2, 2, 2).transpose(0, 1, 3, 2, 4)
              .reshape(2, -1, 2, 4)):
        gfull = rng.choice(specials_g, (x.shape[0], x.shape[1], 3, x.shape[3] // 2 + 2))
        if layout == "channel-major":
            x, gfull = _channel_major(x), _channel_major(gfull)
        _pool2x2_against_tap_chain(x, gfull)


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       layout=st.sampled_from(["nchw", "channel-major"]), n=st.integers(1, 2),
       c=st.integers(1, 3), ho=st.integers(1, 4), wo=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_maxpool2x2_matches_tap_chain(dtype, layout, n, c, ho, wo, seed):
    rng = np.random.default_rng(seed)
    cells = np.array([*_SPECIALS, -1.0, 0.5], dtype)
    x = rng.choice(cells, (n, c, 2 * ho, 2 * wo))
    gfull = rng.choice(np.array([1.5, -2.0, -0.0, np.nan], dtype), (n, c, ho + 2, wo + 2))
    if layout == "channel-major":
        x, gfull = _channel_major(x), _channel_major(gfull)
    _pool2x2_against_tap_chain(x, gfull)


def _conv_dx_against_fold(x, w, g):
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    spec = ConvSpec(1)
    _, (dx, _) = _op_backward(lambda xv, wv, tape: conv2d(xv, wv, None, spec, tape), [x, w], g)
    want = fold_conv2d_dx(w.reshape(cout, -1), g.transpose(1, 0, 2, 3).reshape(cout, -1),
                          x.shape, kh, kw, 1, g.shape[2], g.shape[3])
    _same_bytes(dx, want)
    assert dx.strides == want.strides


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), k=st.integers(1, 5),
       n=st.integers(1, 3), c=st.integers(1, 4), cout=st.integers(1, 5),
       h=st.integers(0, 5).map(lambda v: 2 * v + 1),
       w=st.integers(0, 5).map(lambda v: 2 * v + 1), seed=st.integers(0, 2**32 - 1))
def test_conv_stride1_dx_matches_strided_fold(dtype, k, n, c, cout, h, w, seed):
    assume(h >= k and w >= k)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    wt = rng.standard_normal((cout, c, k, k)).astype(dtype)
    g = _signed_zero_grad(rng, (n, cout, h - k + 1, w - k + 1), dtype)
    g.flat[3::11] = np.nan
    _conv_dx_against_fold(x, wt, g)


@pytest.mark.parametrize("size, k", [(3, 3), (4, 3), (1, 1), (2, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conv_dx_keeps_the_fold_for_f32_weights_and_f64_gradients(size, k, n):
    # f64 input and f32 weights give an f64 gradient; numpy's mixed f32 x f64
    # product on a few columns gave other bytes than on the widened columns
    rng = np.random.default_rng(10 * size + k + n)
    x = rng.standard_normal((n, 16, size, size))
    wt = rng.standard_normal((32, 16, k, k)).astype(np.float32)
    g = _signed_zero_grad(rng, (n, 32, size - k + 1, size - k + 1), np.float64)
    _conv_dx_against_fold(x, wt, g)


@pytest.mark.parametrize("n, c, cout, size", [(3, 16, 32, 13), (2, 16, 48, 15), (1, 32, 32, 25)])
def test_conv_dx_keeps_the_fold_for_f64(n, c, cout, size):
    # f64 GEMMs on AVX-512 OpenBLAS give the last N mod 8 columns other
    # bytes than the same columns inside a wider product
    rng = np.random.default_rng(n + c + size)
    x = rng.standard_normal((n, c, size, size))
    wt = rng.standard_normal((cout, c, 3, 3))
    _conv_dx_against_fold(x, wt, _signed_zero_grad(rng, (n, cout, size - 2, size - 2),
                                                   np.float64))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_conv_dx_with_a_non_finite_weight_matches_the_fold(bad):
    # a non-finite weight times a padded zero column is NaN, not +-0
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    wt = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    wt[1, 2, 0, 1] = bad
    _conv_dx_against_fold(x, wt, _signed_zero_grad(rng, (2, 4, 4, 5), np.float32))



@pytest.mark.parametrize("c", [5, 8, 13, 15])
def test_conv_dx_keeps_the_fold_for_a_single_output_column(c):
    # one image with a 1x1 output map: numpy multiplies a single column by
    # gemv, whose bytes can differ from the same column inside a wider GEMM
    rng = np.random.default_rng(c)
    for _ in range(20):
        x = rng.standard_normal((1, c, 3, 3)).astype(np.float32)
        wt = rng.standard_normal((4, c, 3, 3)).astype(np.float32)
        _conv_dx_against_fold(x, wt, rng.standard_normal((1, 4, 1, 1)).astype(np.float32))


def test_conv_stride1_dx_blocks_match_the_fold():
    # 36 columns of 31x33 per image: blocks of 3 images, the last one partial
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 4, 33, 33)).astype(np.float32)
    wt = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
    assert _COL_BLOCK_BYTES // (36 * 31 * 33 * 4) == 3
    _conv_dx_against_fold(x, wt, _signed_zero_grad(rng, (8, 8, 31, 31), np.float32))


# ---------------------------------------------------------------------------
# the op exit: what every op records, and its rank-4 check

# id -> (op name, input shapes, call(variables, tape))
RECORDING_CASES = {
    "pad2d-zero": ("pad2d", [(2, 3, 4, 4)],
                   lambda v, t: pad2d(v[0], 1, PaddingMode.ZERO, tape=t)),
    "pad2d-reflect": ("pad2d", [(2, 3, 4, 4)],
                      lambda v, t: pad2d(v[0], 1, PaddingMode.REFLECT, tape=t)),
    "attach_pad_channel": ("attach_pad_channel", [(2, 3, 4, 4)],
                           lambda v, t: attach_pad_channel(v[0], tape=t)),
    "conv2d-bias": ("conv2d", [(2, 3, 4, 4), (5, 3, 3, 3), (5,)],
                    lambda v, t: conv2d(v[0], v[1], v[2], ConvSpec(), t)),
    "conv2d-no-bias": ("conv2d", [(2, 3, 4, 4), (5, 3, 3, 3)],
                       lambda v, t: conv2d(v[0], v[1], None, ConvSpec(), t)),
    "batchnorm2d-train": ("batchnorm2d", [(2, 3, 4, 4), (3,), (3,)],
                          lambda v, t: batchnorm2d(v[0], v[1], v[2],
                                                   BatchNormState(3, np.float64), "train", t)),
    "batchnorm2d-eval": ("batchnorm2d", [(2, 3, 4, 4), (3,), (3,)],
                         lambda v, t: batchnorm2d(v[0], v[1], v[2],
                                                  BatchNormState(3, np.float64), "eval", t)),
    "relu": ("relu", [(2, 3, 4, 4)], lambda v, t: relu(v[0], t)),
    "add": ("add", [(2, 3), (2, 3)], lambda v, t: add(v[0], v[1], t)),
    "mul": ("mul", [(2, 3), (2, 3)], lambda v, t: mul(v[0], v[1], t)),
    "sum_all": ("sum_all", [(2, 3)], lambda v, t: sum_all(v[0], t)),
    "mean_all": ("mean_all", [(2, 3)], lambda v, t: mean_all(v[0], t)),
    "flatten": ("flatten", [(2, 3, 4, 4)], lambda v, t: flatten(v[0], t)),
    "maxpool2d-rows": ("maxpool2d", [(2, 3, 4, 4)],
                       lambda v, t: maxpool2d(v[0], 2, 2, tape=t)),
    "maxpool2d-taps": ("maxpool2d", [(2, 3, 5, 5)],
                       lambda v, t: maxpool2d(v[0], 3, 2, 1, tape=t)),
    "global_avgpool": ("global_avgpool", [(2, 3, 4, 4)],
                       lambda v, t: global_avgpool(v[0], t)),
    "adaptive_avgpool2d": ("adaptive_avgpool2d", [(2, 3, 5, 5)],
                           lambda v, t: adaptive_avgpool2d(v[0], 2, 2, t)),
    "linear": ("linear", [(2, 6), (4, 6), (4,)], lambda v, t: linear(v[0], v[1], v[2], t)),
    "dropout-train": ("dropout", [(2, 6)],
                      lambda v, t: dropout(v[0], 0.5, "train", Rng(0), t)),
    "softmax": ("softmax", [(2, 5)], lambda v, t: softmax(v[0], t)),
    "softmax_cross_entropy": ("softmax_cross_entropy", [(2, 5)],
                              lambda v, t: softmax_cross_entropy(v[0], np.array([0, 3]), t)),
}


@pytest.mark.parametrize("case", RECORDING_CASES)
def test_op_records_one_entry_only_with_a_tape_and_an_input_requiring_grad(
        case, monkeypatch):
    op, shapes, call = RECORDING_CASES[case]
    recorded, record = [], Tape.record

    def counting_record(tape, *args):
        recorded.append(args)
        record(tape, *args)

    monkeypatch.setattr(Tape, "record", counting_record)
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    # no input, each input alone, and every input requiring grad
    patterns = [[False] * len(arrays), [True] * len(arrays)]
    patterns += [[i == j for j in range(len(arrays))] for i in range(len(arrays))]
    for flags in patterns:
        for tape in (None, Tape()):
            recorded.clear()
            out = call([Variable(a, requires_grad=f) for a, f in zip(arrays, flags)], tape)
            assert out.requires_grad == any(flags)
            assert len(recorded) == (tape is not None and any(flags))
            if recorded:
                assert len(tape) == 1 and tape.entries[0].output is out
                assert tape.entries[0].backward_fn.__qualname__.startswith(op + ".")


RANK4_OPS = {
    "pad2d": lambda x: pad2d(x, 1),
    "attach_pad_channel": attach_pad_channel,
    "conv2d": lambda x: conv2d(x, _var(np.ones((1, 3, 1, 1))), None, ConvSpec()),
    "batchnorm2d": lambda x: batchnorm2d(x, _var(np.ones(3)), _var(np.zeros(3)),
                                         BatchNormState(3, np.float64), "train"),
    "maxpool2d": lambda x: maxpool2d(x, 2, 2),
    "global_avgpool": global_avgpool,
    "adaptive_avgpool2d": lambda x: adaptive_avgpool2d(x, 1, 1),
}


@pytest.mark.parametrize("op", RANK4_OPS)
def test_nchw_op_rejects_a_rank_3_input_naming_itself(op):
    with pytest.raises(ShapeError, match=rf"^{op} expects rank 4, got \(3, 4, 4\)$"):
        RANK4_OPS[op](_var(np.ones((3, 4, 4))))
