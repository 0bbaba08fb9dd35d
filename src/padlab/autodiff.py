"""Variables and tape-based reverse-mode differentiation.

A `Variable` holds a dense numpy array of rank 1..4 (`data`) and an
accumulated gradient; activations have the logical (N, C, H, W) shape in the
producing op's memory order. Differentiable operations append `TapeEntry`
records to a `Tape` in execution order, which is automatically a topological
order, so `backward` is a single reverse sweep.

Gradient accumulation over fan-out is plain summation in recording order.
An untouched `.grad` is a read-only zero view (`zeros_view`); nothing writes
into `.grad` in place, every accumulation builds a new array.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, GraphError, NumericError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}
_ZERO = bytes(8)  # one f64-sized zero that every zero view reads


def np_dtype(tag: str):
    """The numpy dtype of a tag in DTYPES; any other tag is a ConfigError."""
    if isinstance(tag, str) and tag in DTYPES:
        return DTYPES[tag]
    raise ConfigError(f"unknown dtype tag {tag!r}; valid tags are {', '.join(DTYPES)}")


def zeros_view(shape, dtype) -> np.ndarray:
    """Read-only all-zero array of `shape` with all strides 0: it owns no memory."""
    return np.ndarray(shape, dtype, _ZERO, 0, (0,) * len(shape))  # positional: cheaper


class Variable:
    """A dense array plus an accumulated gradient of identical shape.

    `data` is the given array, uncopied and in its own memory order: rank
    1..4, all dims >= 1, f32 or f64 (any other dtype becomes f64)."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(data)
        if data.dtype not in DTYPES.values():
            data = data.astype(np.float64)
        if not 1 <= data.ndim <= 4 or 0 in data.shape:
            raise ShapeError(f"rank must be 1..4 and all dims >= 1, got shape {data.shape}")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = zeros_view(data.shape, data.dtype) if self.requires_grad else None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self):
        if self.requires_grad:
            self.grad = zeros_view(self.data.shape, self.data.dtype)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Variable{tag}(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeEntry:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable operations.

    Appending at execution time guarantees every entry appears after the
    entries that produced its inputs.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.swept = False

    def record(self, inputs, output: Variable, backward_fn):
        """backward_fn(out_grad) -> tuple of grads aligned with inputs (None allowed)."""
        self.entries.append(TapeEntry(tuple(inputs), output, backward_fn))

    def __len__(self):
        return len(self.entries)


def backward(loss: Variable, tape: Tape) -> dict:
    """Reverse sweep from a scalar loss.

    Accumulates dLoss/dVariable into `.grad` of every requires_grad Variable
    reachable from `loss` and also returns {Variable: gradient array}. Each
    entry leaves the tape as it runs; a second sweep raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.swept:
        raise GraphError("this tape was already swept by backward; record a new one")
    tape.swept = True
    pending: dict[Variable, np.ndarray] = {loss: np.ones_like(loss.data)}
    while tape.entries:
        entry = tape.entries.pop()  # freed, with its saved state, at the next pop
        out_grad = pending.pop(entry.output, None)
        if out_grad is None:
            continue  # not reachable from the loss
        in_grads = entry.backward_fn(out_grad)
        for var, g in zip(entry.inputs, in_grads):
            if g is None or not var.requires_grad:
                continue
            if g.shape != var.data.shape:
                raise GraphError(
                    f"gradient shape {g.shape} != value shape {var.data.shape}")
            if var in pending:
                pending[var] = pending[var] + g
            else:
                pending[var] = g
    grad_map = {}
    for var, g in pending.items():
        if var.requires_grad:
            if var.grad is None:
                var.grad = zeros_view(var.data.shape, var.data.dtype)
            var.grad = var.grad + g
            grad_map[var] = g
    return grad_map


def grad_check(f, x: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f(var, tape)` must build a scalar Variable from `var` using tape-recorded
    ops and be deterministic across calls. `x` must be an f64 array; f32
    differences are too noisy for tight tolerances.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        raise NumericError("grad_check requires an f64 array input")
    var = Variable(x.copy(), requires_grad=True)
    tape = Tape()
    out = f(var, tape)
    backward(out, tape)
    analytic = var.grad.copy()

    probe = Variable(var.data)  # every difference forward reads the perturbed buffer
    flat = var.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(probe, Tape()).data.reshape(-1)[0])
        flat[i] = orig - eps
        lo = float(f(probe, Tape()).data.reshape(-1)[0])
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    if not (np.all(np.isfinite(numeric)) and np.all(np.isfinite(analytic))):
        raise NumericError("non-finite values in gradient check")
    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    return float(np.max(np.abs(a - numeric) / denom))
