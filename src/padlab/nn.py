"""Padding operators and the layer set used by the VGG/ResNet-style models.

Every operation here is a pure function of Variables (plus an explicit Rng
where sampling is involved). Passing a `Tape` records the backward closure;
passing None runs forward-only. Padding is deliberately a separate operator
composed before convolution, so the behaviour of the pad-indicator channel
under each padding mode is directly observable.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Variable, np_dtype
from .errors import (ConfigError, DegenerateBatchError, GeometryError,
                     InvalidLabelError, InvalidPadError, ShapeError)
from .rng import Rng


class PaddingMode(enum.Enum):
    ZERO = "zero"
    REFLECT = "reflect"
    REPLICATE = "replicate"


@dataclass(frozen=True)
class ConvSpec:
    """What a conv's weight cannot say; channels and kernel are its shape."""
    stride: int = 1
    pad: int = 0
    padding_mode: PaddingMode = PaddingMode.ZERO

    def __post_init__(self):
        if self.stride < 1:
            raise ShapeError("stride must be >= 1")
        if self.pad < 0:
            raise InvalidPadError("pad must be non-negative")


def _out(data, inputs, tape, backward_fn) -> Variable:
    """The op's output Variable; `tape` records backward_fn if some input requires grad."""
    if not 1 <= data.ndim <= 4 or 0 in data.shape:
        raise ShapeError(f"rank must be 1..4 and all dims >= 1, got shape {data.shape}")
    out = Variable.__new__(Variable)  # op outputs are f32/f64 already; keep their order
    out.data, out.grad, out.name = data, None, None  # no .grad: backward() only fills leaves
    out.requires_grad = any([v.requires_grad for v in inputs])
    if tape is not None and out.requires_grad:
        tape.record(inputs, out, backward_fn)
    return out


def out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int,
           what: str) -> tuple[int, int]:
    """A window op's output height and width; GeometryError when either is < 1."""
    ho, wo = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise GeometryError(f"{what} output {ho}x{wo} < 1 for input {h}x{w}, "
                            f"kernel {kh}x{kw}, stride {stride}, pad {pad}")
    return ho, wo


def _nchw(x: Variable, op: str) -> np.ndarray:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"{op} expects rank 4, got {xd.shape}")
    return xd


_pool = None  # the Pool of the innermost `with Pool():`, else None


class Pool:
    """Byte blocks a loop's steps share: inside `with Pool():` the ops take their
    large per-step arrays from it, and a block is handed out again once only the
    pool refers to it, so nothing that outlives a step may come from one."""

    def __enter__(self):
        global _pool  # blocks ascend by size; blocks[0] has 0 bytes, is never handed out
        self.blocks, self.outer, _pool = [np.empty(0, np.uint8)], _pool, self
        return self

    def __exit__(self, *exc):
        global _pool
        _pool, self.blocks = self.outer, []

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised C-order array in the smallest free block that fits.
        A block is free when only the list holds it, as blocks[0] always is:
        its count, read on the same line, is the interpreter's count for that."""
        size, free = max(1, math.prod(shape) * np.dtype(dtype).itemsize), 0
        for block in self.blocks:
            refs = sys.getrefcount(block)
            free = free or refs
            if refs == free and len(block) >= size:
                break
        else:
            bisect.insort(self.blocks, block := np.empty(size, np.uint8), key=len)
        return np.ndarray(shape, dtype, block)


def _empty(shape, dtype) -> np.ndarray:
    return np.empty(shape, dtype) if _pool is None else _pool.empty(shape, dtype)


def _like(*arrays, shape=None) -> np.ndarray:
    """An uninitialised array in the first array's dtype and shape (or `shape`):
    np.empty_like's outside a pool; in one, channel-major when every array is,
    else C order, as numpy's ufuncs pick."""
    a, shape = arrays[0], shape or arrays[0].shape
    if _pool is None:
        return np.empty_like(a, shape=shape)
    if a.ndim == 4 and all(b.strides[1] > b.strides[0] for b in arrays):
        return _pool.empty((shape[1], shape[0]) + shape[2:], a.dtype).transpose(1, 0, 2, 3)
    return _pool.empty(shape, a.dtype)


# ---------------------------------------------------------------------------
# padding

@functools.cache
def _border_index(n: int, pad: int, mode: PaddingMode) -> np.ndarray:
    if mode is PaddingMode.REFLECT:
        left = list(range(pad, 0, -1))
        right = list(range(n - 2, n - 2 - pad, -1))
    else:
        left = [0] * pad
        right = [n - 1] * pad
    idx = np.asarray(left + list(range(n)) + right)
    idx.flags.writeable = False  # shared by every call with this (n, pad, mode)
    return idx


def _fold_axis(g: np.ndarray, idx: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Scatter-add g along `axis` according to idx, shrinking it to length n."""
    acc = np.zeros(g.shape[:axis] + (n,) + g.shape[axis + 1:], dtype=g.dtype)
    np.add.at(np.moveaxis(acc, axis, 0), idx, np.moveaxis(g, axis, 0))
    return acc


def _pad_frame(xd: np.ndarray, pad: int, value: float) -> np.ndarray:
    """Constant-pad the two spatial axes in x's memory order: fill, copy x inside."""
    n, c, h, w = xd.shape
    out = _like(xd, shape=(n, c, h + 2 * pad, w + 2 * pad))
    out.fill(value)
    out[:, :, pad:pad + h, pad:pad + w] = xd
    return out


def pad2d(x: Variable, pad: int, mode: PaddingMode = PaddingMode.ZERO,
          tape: Tape | None = None) -> Variable:
    """Pad the two spatial axes of an (N, C, H, W) Variable by `pad` on each side."""
    xd = _nchw(x, "pad2d")
    if pad < 0:
        raise InvalidPadError("pad must be non-negative")
    if pad == 0:
        return x
    _, _, h, w = xd.shape
    if mode is PaddingMode.ZERO:
        def backward_zero(g):
            return (g[:, :, pad:-pad, pad:-pad],)

        return _out(_pad_frame(xd, pad, 0.0), (x,), tape, backward_zero)

    if mode is PaddingMode.REFLECT and pad >= min(h, w):
        raise InvalidPadError(
            f"reflect pad {pad} needs pad < min spatial dim {min(h, w)}")
    ridx = _border_index(h, pad, mode)
    cidx = _border_index(w, pad, mode)

    def backward_border(g):
        folded = _fold_axis(g, ridx, axis=2, n=h)
        return (_fold_axis(folded, cidx, axis=3, n=w),)

    return _out(xd.take(ridx, 2).take(cidx, 3), (x,), tape, backward_border)  # NCHW for conv2d


def attach_pad_channel(x: Variable, tape: Tape | None = None) -> Variable:
    """Append an all-ones indicator channel: (N, C, H, W) -> (N, C+1, H, W).

    After subsequent zero padding the appended channel is exactly 1 on the
    original extent and 0 on the padded frame. Reflect or replicate padding
    keeps it 1 everywhere, which defeats the marker; model builders reject
    that combination.
    """
    xd = _nchw(x, "attach_pad_channel")
    n, c, h, w = xd.shape

    def backward_attach(g):
        return (g[:, :c],)

    return _out(np.concatenate([xd, np.ones((n, 1, h, w), xd.dtype)], axis=1,
                               out=_pool and _pool.empty((n, c + 1, h, w), xd.dtype)),
                (x,), tape, backward_attach)


# ---------------------------------------------------------------------------
# convolution

# Forward-only stride-1 convs over a C-contiguous buffer (NCHW or channel-major)
# multiply whole input rows a few images at a time, about this many bytes per block,
# so the GEMM reads each block from L2 right after the copy that wrote it (first
# tinyvgg-pc conv at batch 128, 2-core Xeon, one OpenBLAS thread: 11 ms as one 19 MB
# matrix, 6 ms in 512 KiB blocks, 7 in 256 KiB, 12-14 in 1-2 MiB). A tap copies one
# run of (Ho-1)*W + Wo cells per (c, n), cell y*W + x being output (y, x) for x < Wo;
# zero columns pad a block to a multiple of 64, where OpenBLAS gave each column its
# full-batch bytes. Every other conv (strided, or in another layout) runs one GEMM.
_COL_BLOCK_BYTES = 512 * 1024


def _im2col(xd: np.ndarray, kh: int, kw: int, s: int, ho: int, wo: int):
    """Channel-major (C*kh*kw, N*ho*wo) columns from a window on x's own buffer:
    x when NCHW, its (C, N, H, W) transpose when channel-major. Any other
    layout is copied to C order first, once for the whole batch."""
    buf = xd if xd.flags.c_contiguous else xd.transpose(1, 0, 2, 3)
    if not buf.flags.c_contiguous:
        xd = buf = np.ascontiguousarray(xd)
    n, c = xd.shape[:2]
    sn, sc, sh, sw = xd.strides
    # each copied row is a run of wo pixels
    win = np.ndarray((c, kh, kw, n, ho, wo), xd.dtype, buf, 0,
                     (sc, sh, sw, sn, s * sh, s * sw))
    if _pool is None:  # 0.35 us a call under the pooled copy; the gradcheck suite makes 8.5k
        return np.ascontiguousarray(win).reshape(c * kh * kw, n * ho * wo)
    cols = _pool.empty((c * kh * kw, n * ho * wo), xd.dtype)
    cols.reshape(win.shape)[...] = win
    return cols


def _col2im(dcols, xshape, kh, kw, s, ho, wo):
    n, c, h, w = xshape
    dx = np.zeros((c, n, h, w), dtype=dcols.dtype)
    d6 = dcols.reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + s * ho:s, j:j + s * wo:s] += d6[:, i, j]
    return dx.transpose(1, 0, 2, 3)


def _col2im_rows(wmat, gmat, xshape, kh, kw, ho, wo):
    """_col2im's bytes for stride 1, with whole rows of width w per tap.

    gmat's rows are zero-padded from wo to w before the GEMM, so in a flat
    (C, N, H*W) buffer (plus kw - 1 cells of tail) each tap adds one run of
    ho*w per (c, n), not ho runs of wo. With finite weights the padded
    columns are exact +-0, and a sum that starts at +0 never holds -0, so
    adding them changes nothing: each dx cell sums the same terms in the
    same tap order. The GEMM runs a few images at a time, as the forward's.
    """
    n, c, h, w = xshape
    cout, size, b = len(gmat), c * n * h * w, gmat.itemsize
    gw = _empty((cout, n, ho * w), gmat.dtype)
    gw.reshape(cout, n * ho, w)[:, :, wo:] = 0
    gw.reshape(cout, n * ho, w)[:, :, :wo] = gmat.reshape(cout, n * ho, wo)
    step = max(1, _COL_BLOCK_BYTES // (wmat.shape[1] * ho * w * b))
    dbuf = _empty((wmat.shape[1], min(step, n) * ho * w), gmat.dtype)
    flat = _empty((size + kw - 1,), gmat.dtype)
    flat[...] = 0
    for s0 in range(0, n, step):
        nb = min(step, n - s0)
        d5 = np.matmul(wmat.T, gw[:, s0:s0 + nb].reshape(cout, -1),
                       out=dbuf[:, :nb * ho * w]).reshape(c, kh, kw, nb, ho * w)
        for i in range(kh):
            for j in range(kw):
                run = np.ndarray((c, nb, ho * w), flat.dtype, flat,
                                 (s0 * h * w + i * w + j) * b, (n * h * w * b, h * w * b, b))
                run += d5[:, i, j]
    return flat[:size].reshape(c, n, h, w).transpose(1, 0, 2, 3)


def conv2d(x: Variable, weight: Variable, bias: Variable | None,
           spec: ConvSpec, tape: Tape | None = None) -> Variable:
    """Cross-correlation of x with `weight` (C_out, C_in, k_h, k_w) plus a (C_out,) bias.

    Padding per spec.pad / spec.padding_mode is applied first as a separate
    pad2d op; the core here always runs on the already-padded tensor.
    """
    xd, wd = _nchw(x, "conv2d"), weight.data
    if wd.ndim != 4 or wd.shape[1] != xd.shape[1]:
        raise ShapeError(f"conv2d weight {wd.shape} is not (C_out, {xd.shape[1]}, k_h, k_w)")
    cout, _, kh, kw = wd.shape
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.data.shape} != ({cout},)")
    s = spec.stride
    ho, wo = out_hw(xd.shape[2], xd.shape[3], kh, kw, s, spec.pad, "conv")
    if spec.pad:
        x = pad2d(x, spec.pad, spec.padding_mode, tape=tape)
        xd = x.data
    n, c, h, w = xd.shape

    wmat = wd.reshape(cout, -1)
    m = ho * wo
    step, shape = n, (cout, n * m)  # the weight gradient reads the columns as one matrix
    if s == 1 and (tape is None or not weight.requires_grad):
        step = max(1, _COL_BLOCK_BYTES // (wmat.shape[1] * m * xd.itemsize))
    if step < n:  # whole rows need x's own buffer C-contiguous, see _COL_BLOCK_BYTES
        buf = xd if xd.flags.c_contiguous else xd.transpose(1, 0, 2, 3)
        step = step if buf.flags.c_contiguous else n
    if step >= n:
        # one GEMM call: running the loop below for a single block added
        # about 3% to the gradcheck suite, whose thousands of small convs
        # each fit one block
        cols = _im2col(xd, kh, kw, s, ho, wo)
        out_mat = np.matmul(wmat, cols, out=_pool and _pool.empty(
            shape, np.result_type(wmat, xd)))
    else:
        out_mat = _empty(shape, dt := np.result_type(wmat, xd))
        (sn, sc, sh, sw), span, b = xd.strides, (ho - 1) * w + wo, dt.itemsize
        full = -(-step * span // 64) * 64
        rows, prod = _empty((wmat.shape[1], full), xd.dtype), _empty((cout, full), dt)
        for i in range(0, n, step):
            nb, dst = min(step, n - i), out_mat[:, i * m:(i + step) * m]
            width = -(-nb * span // 64) * 64
            rows[:, nb * span:width] = 0
            rows[:, :nb * span].reshape(c, kh, kw, nb, span)[...] = np.ndarray(
                (c, kh, kw, nb, span), xd.dtype, buf, i * sn, (sc, sh, sw, sn, sw))
            np.matmul(wmat, rows[:, :width], out=prod[:, :width])
            dst.reshape(cout, nb, ho, wo)[...] = np.ndarray(
                (cout, nb, ho, wo), dt, prod, 0, (full * b, span * b, w * b, b))
    if bias is not None:
        out_mat += bias.data[:, None]

    def backward_conv(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        dx = dw = db = None
        # f32 only: the widened GEMM keeps each column's bytes where OpenBLAS's
        # bytes for a column do not depend on its place in the product, as the
        # thread-count test needs; measured false for f64, gemv and f32 x f64.
        if x.requires_grad and s == 1 and wmat.dtype == gmat.dtype == np.float32 \
                and n * m > 1 and np.isfinite(wmat).all():
            dx = _col2im_rows(wmat, gmat, (n, c, h, w), kh, kw, ho, wo)
        elif x.requires_grad:
            dx = _col2im(wmat.T @ gmat, (n, c, h, w), kh, kw, s, ho, wo)
        if weight.requires_grad:
            # the same product as gmat @ cols.T, but this operand order runs
            # about twice as fast in OpenBLAS and gives the same bytes
            dw = (cols @ gmat.T).T.reshape(wd.shape)
        if bias is not None and bias.requires_grad:
            db = gmat.sum(axis=1)  # contiguous rows: the same bytes in any layout of g
        return (dx, dw) if bias is None else (dx, dw, db)

    return _out(out_mat.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3),
                (x, weight) if bias is None else (x, weight, bias), tape, backward_conv)


# ---------------------------------------------------------------------------
# batch normalisation

BN_EPS, BN_MOMENTUM = 1e-5, 0.1  # every BatchNorm's variance floor and running-stat weight


def _stats_row(i: int) -> property:
    """Row i of a BatchNormState's stats; assigning one copies, never writes into them."""
    def set_row(state, value):
        stats = state.stats.copy()
        stats[i] = value
        state.stats = stats

    return property(lambda state: state.stats[i], set_row)


class BatchNormState:
    """Running statistics owned by a single training run: one (2, C) array,
    `stats`, whose rows are the running mean and the running variance."""
    running_mean, running_var = _stats_row(0), _stats_row(1)

    def __init__(self, num_features: int, dtype=np.float32):
        self.stats = np.zeros((2, num_features), dtype=dtype)  # np.ones fills: slower
        self.stats[1] = 1


def batchnorm2d(x: Variable, gamma: Variable, beta: Variable,
                state: BatchNormState, mode: str, tape: Tape | None = None) -> Variable:
    """Per-channel (x - mean) / sqrt(var + BN_EPS) * gamma + beta.

    Train mode uses batch statistics (biased variance) and updates the running
    statistics in `state` with BN_MOMENTUM; eval mode uses the running ones.
    Steps write into arrays this op owns, in the order of the plain
    expressions, so the bytes are theirs with fewer full-size temporaries.
    """
    xd = _nchw(x, "batchnorm2d")
    n, c, h, w = xd.shape
    gd = gamma.data
    if gd.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"gamma {gd.shape} and beta {beta.data.shape} must be ({c},)")

    if mode == "train":
        m = n * h * w
        if m < 2:
            raise DegenerateBatchError("train-mode batchnorm needs N*H*W >= 2")
        batch = np.empty((2, c), xd.dtype)  # mu and the unbiased variance
        mu = np.divide(xd.sum(axis=(0, 2, 3)), m, out=batch[0])  # int m keeps f32 in f32
        xhat = np.subtract(xd, mu[None, :, None, None], out=_pool and _like(xd))
        out = np.multiply(xhat, xhat, out=_pool and _like(xhat))  # (x - mu)^2, then out
        var = out.sum(axis=(0, 2, 3)) / m
        inv = 1.0 / np.sqrt(var + BN_EPS)
        np.multiply(var, m / (m - 1), out=batch[1])
        mom, stats = BN_MOMENTUM, state.stats  # astype(copy=False): the sum is fresh
        state.stats = ((1 - mom) * stats + mom * batch).astype(stats.dtype, copy=False)
    else:
        if mode != "eval":
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        inv = 1.0 / np.sqrt(state.running_var + BN_EPS)
        xhat = np.subtract(xd, state.running_mean[None, :, None, None],
                           out=_pool and _like(xd))
        out = xhat if tape is None else np.empty_like(xhat)  # backward reads xhat
    inv4, gd4 = inv[None, :, None, None], gd[None, :, None, None]
    xhat *= inv4
    np.multiply(xhat, gd4, out=out)
    out += beta.data[None, :, None, None]

    def backward_bn(g):
        tmp = np.multiply(g, xhat, out=_pool and _like(g, xhat))  # scratch
        dgamma = tmp.sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        dx = None
        if x.requires_grad and mode == "train":
            dx = np.multiply(g, gd4, out=_pool and _like(g))  # dxhat, then dx
            mean_d = dx.sum(axis=(0, 2, 3), keepdims=True) / m
            np.multiply(dx, xhat, out=tmp)
            mean_dx = tmp.sum(axis=(0, 2, 3), keepdims=True) / m
            np.multiply(xhat, mean_dx, out=tmp)
            dx -= mean_d
            dx -= tmp
            dx *= inv4
        elif x.requires_grad:
            dx = g * (gd * inv)[None, :, None, None]
        return dx, dgamma, dbeta

    return _out(out, (x, gamma, beta), tape, backward_bn)


# ---------------------------------------------------------------------------
# initialisation

def kaiming_init(shape, rng: Rng, dtype: str = "f32") -> np.ndarray:
    """Normal(0, 2 / fan_in) weights; fan_in is the product of non-leading dims."""
    shape = tuple(int(d) for d in shape)
    if len(shape) < 2 or any(d < 1 for d in shape):
        raise ShapeError(f"bad weight shape {shape}")
    std = float(np.sqrt(2.0 / math.prod(shape[1:])))
    return rng.normal(shape, std=std, dtype=np_dtype(dtype))


# ---------------------------------------------------------------------------
# pointwise and reduction layers

def relu(x: Variable, tape: Tape | None = None) -> Variable:
    xd = x.data
    return _out(np.maximum(xd, 0, out=_pool and _like(xd)), (x,), tape,
                lambda g: (np.multiply(g, xd > 0, out=_pool and _like(g, xd)),))


def add(a: Variable, b: Variable, tape: Tape | None = None) -> Variable:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"add shape mismatch: {ad.shape} vs {bd.shape}")
    return _out(ad + bd, (a, b), tape, lambda g: (g, g))


def mul(a: Variable, b: Variable, tape: Tape | None = None) -> Variable:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul shape mismatch: {ad.shape} vs {bd.shape}")
    return _out(ad * bd, (a, b), tape, lambda g: (g * bd, g * ad))


def sum_all(x: Variable, tape: Tape | None = None) -> Variable:
    xd = x.data
    return _out(xd.sum().reshape(1), (x,), tape,
                lambda g: (np.full(xd.shape, g.reshape(()), dtype=xd.dtype),))


def mean_all(x: Variable, tape: Tape | None = None) -> Variable:
    xd = x.data
    return _out(xd.mean().reshape(1), (x,), tape,
                lambda g: (np.full(xd.shape, g.reshape(()) / xd.size, dtype=xd.dtype),))


def flatten(x: Variable, tape: Tape | None = None) -> Variable:
    xd = x.data

    def backward_flatten(g):
        dx = np.empty_like(xd, dtype=g.dtype)  # the gradient in x's memory order
        dx[...] = g.reshape(xd.shape)
        return (dx,)

    return _out(xd.reshape(xd.shape[0], -1), (x,), tape, backward_flatten)


def maxpool2d(x: Variable, kernel: int, stride: int, pad: int = 0,
              tape: Tape | None = None) -> Variable:
    """Max over kernel x kernel windows; padded cells never win, ties go to the first.
    pad is at most kernel // 2, so every window holds a real cell."""
    xd = _nchw(x, "maxpool2d")
    if kernel < 1 or stride < 1:
        raise ShapeError(f"pool kernel and stride must be >= 1, got {kernel} and {stride}")
    if not 0 <= pad <= kernel // 2:
        raise InvalidPadError(f"pool pad must lie in [0, {kernel // 2}], got {pad}")
    _, _, h, w = xd.shape
    ho, wo = out_hw(h, w, kernel, kernel, stride, pad, "pool")
    if pad:
        xd = _pad_frame(xd, pad, -np.inf)
    buf = xd if xd.flags.c_contiguous else xd.transpose(1, 0, 2, 3)
    if kernel == stride == 2 and not pad and h % 2 == w % 2 == 0 and buf.flags.c_contiguous:
        # Whole-row passes over x's C-contiguous buffer (NCHW or (C, N, H, W)):
        # the max of its even and odd cells pairs each cell with its right
        # neighbour, and the max of each pair row and the one below is the
        # output. np.maximum is exact and passes on its first NaN, so
        # (t00 v t01) v (t10 v t11) has the bytes of the tap chain
        # ((t00 v t01) v t10) v t11; the first tap equal to the max is the
        # top pair's if top >= bottom, then its left cell if l >= r.
        cm, shape = buf is not xd, buf.shape[:2] + (ho, wo)
        flat = buf.reshape(-1)
        left, right = flat[0::2], flat[1::2]
        pairs = np.maximum(left, right,
                           out=_pool and _pool.empty(left.shape, buf.dtype)).reshape(-1, 2, wo)
        top, bottom = pairs[:, 0], pairs[:, 1]
        out_buf = np.maximum(top, bottom,
                             out=_pool and _pool.empty(top.shape, buf.dtype)).reshape(shape)
        out_data = out_buf.transpose(1, 0, 2, 3) if cm else out_buf
        if tape is None or not x.requires_grad:
            return _out(out_data, (x,), None, None)
        # the two masks wait for backward as bits: as bools they would raise a
        # batch-64 tinyvgg-pc step's tracemalloc peak, which they live across
        left_bits, top_bits = np.packbits(left >= right), np.packbits(top >= bottom)

        def backward_rows(g):
            left_wins = np.unpackbits(left_bits, count=buf.size // 2).view(bool)
            top_wins = np.unpackbits(top_bits, count=out_buf.size).view(bool).reshape(shape)
            g = g.transpose(1, 0, 2, 3) if cm else g
            hit = out_buf == out_buf  # NaN windows get no hit, as in the tap chain
            gpair = _empty(shape[:3] + (2, wo), g.dtype)
            np.multiply(g, hit & top_wins, out=gpair[:, :, :, 0])
            np.multiply(g, hit & ~top_wins, out=gpair[:, :, :, 1])
            dx = _empty(buf.shape, g.dtype)
            dflat, gflat = dx.reshape(-1), gpair.reshape(-1)
            np.multiply(gflat, left_wins, out=dflat[0::2])
            np.multiply(gflat, ~left_wins, out=dflat[1::2])
            dflat += 0.0  # as 0 + g * hit does: -0.0 becomes +0.0
            return (dx.transpose(1, 0, 2, 3) if cm else dx,)

        return _out(out_data, (x,), tape, backward_rows)
    taps = [(..., slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(kernel) for j in range(kernel)]
    out_data = xd[taps[0]].copy(order="K")
    for tap in taps[1:]:
        np.maximum(out_data, xd[tap], out=out_data)

    def backward_pool(g):
        dxp = np.zeros_like(xd, dtype=g.dtype)
        free = np.ones_like(out_data, dtype=bool)
        hit = np.empty_like(free)
        for tap in taps:
            np.equal(xd[tap], out_data, out=hit)
            hit &= free
            free ^= hit
            dxp[tap] += g * hit
        if pad:
            dxp = dxp[:, :, pad:-pad, pad:-pad]
        return (dxp,)

    return _out(out_data, (x,), tape, backward_pool)


def global_avgpool(x: Variable, tape: Tape | None = None) -> Variable:
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""
    xd = _nchw(x, "global_avgpool")
    _, _, h, w = xd.shape
    return _out(xd.sum(axis=(2, 3)) / (h * w), (x,), tape,
                lambda g: (np.divide(g[:, :, None, None], h * w,  # dx in x's memory order
                                     out=np.empty_like(xd, dtype=g.dtype)),))


def adaptive_avgpool2d(x: Variable, out_h: int, out_w: int,
                       tape: Tape | None = None) -> Variable:
    """Average pooling to a fixed output size using proportional bins."""
    xd = _nchw(x, "adaptive_avgpool2d")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"adaptive pool output must be >= 1x1, got {out_h}x{out_w}")
    n, c, h, w = xd.shape
    hb = [(i * h // out_h, -(-(i + 1) * h // out_h)) for i in range(out_h)]
    wb = [(j * w // out_w, -(-(j + 1) * w // out_w)) for j in range(out_w)]
    # bins sum into their cells, then one division by areas in x's dtype (not int64: f32)
    area = np.array([[(h1 - h0) * (w1 - w0) for w0, w1 in wb] for h0, h1 in hb], xd.dtype)
    out_data = np.empty((n, c, out_h, out_w), dtype=xd.dtype)
    for i, (h0, h1) in enumerate(hb):
        for j, (w0, w1) in enumerate(wb):
            xd[:, :, h0:h1, w0:w1].sum(axis=(2, 3), out=out_data[:, :, i, j])
    out_data /= area

    def backward_adaptive(g):
        dx = np.zeros((n, c, h, w), dtype=g.dtype)
        g = g / area.astype(g.dtype, copy=False)
        for i, (h0, h1) in enumerate(hb):
            for j, (w0, w1) in enumerate(wb):
                dx[:, :, h0:h1, w0:w1] += g[:, :, i:i + 1, j:j + 1]
        return (dx,)

    return _out(out_data, (x,), tape, backward_adaptive)


def linear(x: Variable, weight: Variable, bias: Variable | None,
           tape: Tape | None = None) -> Variable:
    """x (N, F) @ weight (O, F)^T + bias."""
    xd, wd = x.data, weight.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"linear shapes incompatible: {xd.shape} vs {wd.shape}")
    if bias is not None and bias.data.shape != wd.shape[:1]:
        raise ShapeError(f"linear bias shape {bias.data.shape} != {wd.shape[:1]}")
    out_mat = xd @ wd.T
    if bias is not None:
        out_mat = out_mat + bias.data

    def backward_linear(g):
        dx = g @ wd if x.requires_grad else None
        dw = g.T @ xd if weight.requires_grad else None
        if bias is None:
            return dx, dw
        db = g.sum(axis=0) if bias.requires_grad else None
        return dx, dw, db

    return _out(out_mat, (x, weight) if bias is None else (x, weight, bias), tape,
                backward_linear)


def dropout(x: Variable, p: float, mode: str, rng: Rng | None = None,
            tape: Tape | None = None) -> Variable:
    """Inverted dropout: train mode zeroes with prob p and rescales by 1/(1-p)."""
    if not (0 <= p < 1):
        raise ShapeError(f"dropout rate must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be train or eval, got {mode!r}")
    if mode == "eval" or p == 0:
        return x
    if rng is None:
        raise ShapeError("train-mode dropout needs an Rng")
    xd = x.data
    keep = rng.uniform(xd.shape, dtype=np.float64) >= p
    mask = keep.astype(xd.dtype) / (1.0 - p)
    return _out(xd * mask, (x,), tape, lambda g: (g * mask,))


def softmax(x: Variable, tape: Tape | None = None) -> Variable:
    """Row-wise softmax over the last axis of an (N, K) Variable."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return _out(p, (x,), tape,
                lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


def softmax_cross_entropy(logits: Variable, labels: np.ndarray,
                          tape: Tape | None = None) -> Variable:
    """Mean over the batch of -log softmax(logits)[label]; returns shape (1,)."""
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {ld.shape}")
    labels = np.asarray(labels)
    n, k = ld.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise InvalidLabelError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidLabelError(
            f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    z = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)
    loss = -logp[rows, labels].mean()

    def backward_ce(g):
        grad = np.exp(logp)
        grad[rows, labels] -= 1.0
        return (grad * (g.reshape(()) / n),)

    return _out(np.asarray([loss], dtype=ld.dtype), (logits,), tape, backward_ce)
