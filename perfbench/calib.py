"""Machine-speed reference: fixed numpy kernels timed around every measurement.

On a shared host the same code runs 30-120% slower for seconds to minutes at
a time, while a neighbour competes for the core; CPU time slows exactly as
much as wall time, so it does not help.  The benchmark therefore times a
calibration kernel right before and right after each measured unit and
reports

    unit wall time * REF_S / (mean of the two kernel times)

that is, the unit's time on a machine on which the kernel takes REF_S.  The
kernels are frozen here and share no code with padlab, so a change to padlab
moves the reported time exactly as it moves the wall time, while the
machine's slow phases cancel.

Code of different kinds slows by different factors, so each unit is
calibrated by the kernel that slows like it:

- ``array``: a strided im2col-style copy, a float32 GEMM, relu, a 2x2
  max-reduction and an accumulation into preallocated buffers, about 15 MB
  touched.  Training and evaluation at batch 64-256 slow down as much as it
  does.
- ``calls``: a loop of tiny-array numpy calls and Python bookkeeping.  When
  the neighbours get busier it slows by about the 1.5th power of ``array``'s
  factor, and so does the tiny-tensor gradcheck suite.
- ``fill``: zeroing a 32 MB buffer twice, a stream of stores to memory.  The
  cost table's time goes into ``np.zeros`` of multi-megabyte weights, which
  malloc serves from reused heap and so has to clear; it tracks this kernel
  better than ``array``, which over-corrects it by about 10%.
"""

import time

import numpy as np

REF_S = 0.010
_BUFFERS = {}


def _buffers():
    # Made on first use, so that the kernels' memory is not part of a peak
    # RSS read before the first calibration.  The kernels write into these
    # and allocate nothing large: a freed multi-megabyte temporary would
    # raise malloc's mmap threshold and change how fast the next unit's own
    # allocations (np.zeros in the cost table, above all) are served.
    if not _BUFFERS:
        rs = np.random.RandomState(12345)
        _BUFFERS.update(
            x=rs.rand(32, 8, 34, 34).astype(np.float32),
            w=rs.rand(72, 16).astype(np.float32),
            cols=np.empty((32, 32, 32, 8, 3, 3), np.float32),
            y=np.empty((32 * 32 * 32, 16), np.float32),
            pooled=np.empty((32, 16, 16, 16), np.float32),
            acc=np.empty((32 * 32 * 32, 16), np.float32),
            small=rs.rand(2, 4, 8, 8), m=rs.rand(8, 8),
            page=np.empty(4 << 20, np.float64))
    return _BUFFERS


def array_kernel() -> float:
    b = _buffers()
    windows = np.lib.stride_tricks.sliding_window_view(b["x"], (3, 3), axis=(2, 3))
    np.copyto(b["cols"], windows.transpose(0, 2, 3, 1, 4, 5))
    y = np.matmul(b["cols"].reshape(-1, 72), b["w"], out=b["y"])
    np.maximum(y, 0.0, out=y)
    np.max(y.reshape(32, 16, 2, 16, 2, 16), axis=(2, 4), out=b["pooled"])
    np.multiply(y, 0.5, out=b["acc"])
    b["acc"] += y
    return float(b["pooled"][0, 0, 0, 0] + b["acc"][0, 0])


def calls_kernel() -> float:
    small, m = _buffers()["small"], _buffers()["m"]
    acc = 0.0
    for i in range(200):
        padded = np.pad(small, ((0, 0), (0, 0), (1, 1), (1, 1)))
        inner = padded[:, :, 1:-1, 1:-1] * 2.0 + small
        record = {"sum": inner.sum(axis=(2, 3)), "i": i}
        acc += float((m @ m[i % 8]).sum()) + float(record["sum"][0, 0])
    return acc


def fill_kernel() -> float:
    page = _buffers()["page"]
    for _ in range(2):
        page.fill(0.0)
    return float(page[-1])


KERNELS = {"array": array_kernel, "calls": calls_kernel, "fill": fill_kernel}


def kernel_s(kind: str, calls: int = 2) -> float:
    """Mean wall seconds of `calls` back-to-back runs of kernel `kind`."""
    kernel = KERNELS[kind]
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - t0) / calls


def normalized(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to a machine on which the kernel takes REF_S."""
    return elapsed * REF_S / ((before + after) / 2)
