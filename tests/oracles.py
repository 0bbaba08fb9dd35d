"""Independent brute-force oracles used by tests.

The naive_* oracles are deliberately written as plain Python loops over
indices, independent of the vectorised production paths they are used to
check: conv2d's channel-major im2col (a (C*kh*kw, N*Ho*Wo) column matrix
times the (C_out, C*kh*kw) weight matrix) with its col2im fold, and
maxpool2d's chain of strided tap views.

The references at the end are the forms the ops replaced with cheaper ones:
numpy library forms (np.pad, sliding_window_view, np.mean), conv2d's
`as_strided` im2col window, `gmat @ cols.T` weight gradient and strided
col2im fold, batchnorm2d with fresh temporaries, the accumulate-only
maxpool2d backward and the 2x2 pool's chain over its four taps. The
replacements must give the same bytes.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


def naive_pad2d(x, pad, mode, value=0.0):
    """x: (N, C, H, W) ndarray; mode in {'zero', 'reflect', 'replicate'}."""
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * pad, w + 2 * pad), value, dtype=x.dtype)
    for i in range(h + 2 * pad):
        for j in range(w + 2 * pad):
            si, sj = i - pad, j - pad
            if mode == "zero":
                if 0 <= si < h and 0 <= sj < w:
                    out[:, :, i, j] = x[:, :, si, sj]
                continue
            if mode == "reflect":
                si = -si if si < 0 else (2 * (h - 1) - si if si >= h else si)
                sj = -sj if sj < 0 else (2 * (w - 1) - sj if sj >= w else sj)
            else:  # replicate
                si = min(max(si, 0), h - 1)
                sj = min(max(sj, 0), w - 1)
            out[:, :, i, j] = x[:, :, si, sj]
    return out


def naive_conv2d(x, weight, bias=None, stride=1, pad=0, pad_mode="zero"):
    """Direct-sum cross-correlation; summation order channel, then kh, then kw."""
    if pad:
        x = naive_pad2d(x, pad, pad_mode)
    n, c, h, w = x.shape
    cout, cin, kh, kw = weight.shape
    assert c == cin
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = x.dtype.type(0)
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[b, ci, i * stride + u, j * stride + v] \
                                    * weight[o, ci, u, v]
                    if bias is not None:
                        acc += bias[o]
                    out[b, o, i, j] = acc
    return out


def naive_conv2d_backward(x, weight, g, stride=1, pad=0):
    """(dx, dw, db) of sum(g * conv(x, weight) + bias) with zero padding."""
    xp = naive_pad2d(x, pad, "zero") if pad else x
    n, c, h, w = xp.shape
    cout, _, kh, kw = weight.shape
    _, _, ho, wo = g.shape
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    db = np.zeros(cout, dtype=g.dtype)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    gv = g[b, o, i, j]
                    db[o] += gv
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                r, q = i * stride + u, j * stride + v
                                dxp[b, ci, r, q] += gv * weight[o, ci, u, v]
                                dw[o, ci, u, v] += gv * xp[b, ci, r, q]
    dx = dxp[:, :, pad:h - pad, pad:w - pad] if pad else dxp
    return dx, dw, db


def naive_maxpool2d(x, kernel, stride, pad=0):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   mode="constant", constant_values=-np.inf)
    n, c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[b, ci, i, j] = x[b, ci,
                                         i * stride:i * stride + kernel,
                                         j * stride:j * stride + kernel].max()
    return out


def naive_maxpool2d_backward(x, g, kernel, stride, pad=0):
    """dx of sum(g * maxpool(x)): each window's g goes to its first maximal
    cell in row-major window order (argmax's rule), windows visited in
    (n, c, row, col) order."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   mode="constant", constant_values=-np.inf)
    n, c, h, w = x.shape
    _, _, ho, wo = g.shape
    dx = np.zeros((n, c, h, w), dtype=g.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = None
                    for u in range(kernel):
                        for v in range(kernel):
                            cell = (i * stride + u, j * stride + v)
                            if best is None or x[b, ci][cell] > x[b, ci][best]:
                                best = cell
                    dx[b, ci][best] += g[b, ci, i, j]
    return dx[:, :, pad:h - pad, pad:w - pad] if pad else dx


def channel_stats(x):
    """Per-channel mean and biased variance of an (N, C, H, W) array."""
    n, c, h, w = x.shape
    means = np.empty(c, dtype=np.float64)
    variances = np.empty(c, dtype=np.float64)
    for ci in range(c):
        vals = [float(x[b, ci, i, j])
                for b in range(n) for i in range(h) for j in range(w)]
        m = sum(vals) / len(vals)
        means[ci] = m
        variances[ci] = sum((v - m) ** 2 for v in vals) / len(vals)
    return means, variances


def scalar_sgd_updates(grad, lr, momentum, weight_decay, w0, steps):
    """Hand iteration of v <- mu*v + (g + wd*w); w <- w - lr*v on a scalar."""
    w, v = w0, 0.0
    history = []
    for _ in range(steps):
        v = momentum * v + (grad + weight_decay * w)
        w = w - lr * v
        history.append(w)
    return history


# ---------------------------------------------------------------------------
# numpy library-form references (compared byte for byte)

def np_pad_constant(x, pad, value):
    """Constant padding of the two spatial axes of an (N, C, H, W) array."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                  mode="constant", constant_values=value)


def sliding_window_im2col(x, kh, kw, stride):
    """Channel-major (C*kh*kw, N*Ho*Wo) columns from a sliding-window view."""
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(c * kh * kw, n * ho * wo)


def as_strided_im2col(x, kh, kw, stride, ho, wo):
    """Channel-major (C*kh*kw, N*Ho*Wo) columns through an `as_strided` window
    on x's own strides, whatever its memory layout."""
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    win = as_strided(x, (c, kh, kw, n, ho, wo),
                     (sc, sh, sw, sn, stride * sh, stride * sw), writeable=False)
    return np.ascontiguousarray(win).reshape(c * kh * kw, n * ho * wo)


def mean_batchnorm2d_train(x, gamma, beta, g, eps):
    """Train-mode batchnorm by np.mean: (out, dx, dgamma, dbeta, mu, var),
    with `g` the gradient arriving at the output."""
    axes = (0, 2, 3)
    mu = x.mean(axis=axes)
    diff = x - mu[None, :, None, None]
    var = np.mean(diff * diff, axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = diff * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dxhat = g * gamma[None, :, None, None]
    mean_d = dxhat.mean(axis=axes, keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=axes, keepdims=True)
    dx = inv[None, :, None, None] * (dxhat - mean_d - xhat * mean_dx)
    return out, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes), mu, var


def mean_global_avgpool(x):
    return x.mean(axis=(2, 3))


def mean_adaptive_avgpool2d(x, out_h, out_w):
    """np.mean over proportional bins [floor(i*H/out), ceil((i+1)*H/out))."""
    n, c, h, w = x.shape
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for i in range(out_h):
        h0, h1 = i * h // out_h, -(-(i + 1) * h // out_h)
        for j in range(out_w):
            w0, w1 = j * w // out_w, -(-(j + 1) * w // out_w)
            out[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    return out


def gemm_conv2d_dw(cols, g):
    """conv2d's flat (C_out, C*kh*kw) weight gradient as gmat @ cols.T, with
    gmat the (C_out, N*Ho*Wo) view of the output gradient."""
    gmat = g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)
    return gmat @ cols.T


def batchnorm2d_eval(x, gamma, beta, running_mean, running_var, g, eps):
    """Eval-mode batchnorm with a fresh array per step: (out, dx, dgamma, dbeta)."""
    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dx = g * (gamma * inv)[None, :, None, None]
    return out, dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def accumulate_maxpool2d_backward(x, g, kernel, stride, pad=0):
    """maxpool2d's dx with every tap added into a zeroed buffer (0 + g*hit):
    each window's g goes to its first maximal cell in window order."""
    if pad:
        x = np_pad_constant(x, pad, -np.inf)
    n, c, h, w = x.shape
    _, _, ho, wo = g.shape
    taps = [(..., slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(kernel) for j in range(kernel)]
    out = x[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    dxp = np.zeros(x.shape, dtype=g.dtype)
    free = np.ones(out.shape, dtype=bool)
    for tap in taps:
        hit = (x[tap] == out) & free
        free ^= hit
        dxp[tap] += g * hit
    return dxp[:, :, pad:h - pad, pad:w - pad] if pad else dxp


def fold_conv2d_dx(wmat, gmat, xshape, kh, kw, stride, ho, wo):
    """conv2d's channel-major dx as the GEMM wmat.T @ gmat, folded tap by tap
    with strided adds of (Ho, Wo) windows into a zeroed (C, N, H, W) buffer."""
    n, c, h, w = xshape
    dx = np.zeros((c, n, h, w), dtype=np.result_type(wmat, gmat))
    d6 = (wmat.T @ gmat).reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += d6[:, i, j]
    return dx.transpose(1, 0, 2, 3)


def tap_chain_maxpool2x2(x, g):
    """(out, dx) of a 2x2 stride-2 pool over even H and W: the max chained
    over the taps in window order, and each window's g * (tap == max) stored
    at its first hit, -0.0 lifted to +0.0 at the end."""
    taps = [(..., slice(i, None, 2), slice(j, None, 2)) for i in range(2) for j in range(2)]
    out = x[taps[0]].copy(order="K")
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    dx = np.empty_like(x, dtype=g.dtype)
    free = np.ones(out.shape, dtype=bool)
    for tap in taps:
        hit = (x[tap] == out) & free
        free ^= hit
        np.multiply(g, hit, out=dx[tap])
    dx += 0.0
    return out, dx
