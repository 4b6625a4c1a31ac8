"""Reverse-mode automatic differentiation on dense float64 arrays.

This is a small tape-based autodiff core, just large enough for the models in
this package. Design points:

* Everything is float64. Inputs of other dtypes are converted on the way in.
* Gradients are recorded on an explicit :class:`Tape`. Ops executed while no
  tape is active run as plain numpy and record nothing, which doubles as the
  inference mode: forward passes for evaluation or finite differences pay no
  bookkeeping cost.
* The tape is rebuilt on every step, so control flow in model code is plain
  Python (loops over timesteps of varying length are fine).
* relu has derivative 0 at exactly 0.
* A tape node holds a gradient slot for its output and one per input (a
  leaf or a constant input is itself), never a recorded output, so an
  array lives only while forward code or a backward closure reads it.
  Closures capture only the arrays and shapes they read.
* :func:`backward` drops each node once it has passed its gradient on, so
  afterwards only leaves keep ``.grad``; the tape keeps its length.

A minimal example; the scalar loss is an op of its own, built on ``record``::

    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = constant(rng.normal(size=(2, 4)))
    with Tape():
        y = relu(matmul(w, x))
        loss = record(Tensor(y.data.sum()), (y,), lambda g: (np.full((3, 4), g),))
    backward(loss)
    # w.grad now holds d loss / d w
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, StateError

__all__ = [
    "Tensor",
    "Tape",
    "constant",
    "backward",
    "clear_grads",
    "add",
    "mul",
    "matmul",
    "bmm_const",
    "relu",
    "concat",
    "rows",
    "record",
    "recording",
]

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A float64 array plus an optional gradient buffer.

    ``requires_grad`` marks leaves the caller wants gradients for. Results
    made under a tape from tracked inputs are tracked too; their gradient
    accumulates in ``_slot``, and their ``.grad`` stays None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_slot")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = self._slot = None

    def item(self):
        return float(self.data)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(data):
    """Wrap an array as a Tensor that never receives gradients."""
    return Tensor(data, requires_grad=False)


def _wrap(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


class _Slot:
    """The gradient of one recorded output, which a tape node holds instead."""

    grad = None
    requires_grad = True


class Tape:
    """Records the operations needed to run one backward pass.

    Use as a context manager around the forward computation. A tape can be
    consumed by :func:`backward` exactly once; reuse raises StateError.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - indicates interpreter misuse
            raise StateError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def _record(self, out, inputs, backward_fn):
        """Append node (out's slot, each input's slot, backward_fn); an input
        that is a leaf or a constant stands for itself."""
        out.requires_grad, out._tape, out._slot = True, self, _Slot()
        self._nodes.append((out._slot, tuple(t._slot or t for t in inputs),
                            backward_fn))


def backward(loss):
    """Run reverse accumulation from a scalar loss through its tape."""
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    tape = loss._tape
    if tape is None:
        raise ContractError("loss was not recorded on any tape")
    if tape._consumed:
        raise StateError("tape already consumed: backward may run once per tape")
    if loss.data.shape != ():
        raise DimensionError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    tape._consumed = True
    loss._slot.grad = np.ones((), dtype=np.float64)
    for i in range(len(tape._nodes) - 1, -1, -1):
        _pass_on(tape._nodes, i)


def _pass_on(nodes, i):
    """Run node i's backward; drop its closure and output gradient."""
    (slot, inputs, backward_fn), nodes[i] = nodes[i], None
    grad, slot.grad = slot.grad, None
    if grad is None:
        return
    grads = backward_fn(grad)
    del backward_fn, grad
    for inp, g in zip(inputs, grads):
        if g is not None and inp.requires_grad:
            # Accumulation always builds a fresh array, so views returned
            # by backward closures are safe to hold.
            inp.grad = g if inp.grad is None else inp.grad + g


def clear_grads(tensors):
    """Reset the gradient buffers of an iterable (or dict) of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None


def recording(inputs):
    """True when a tape is active and some of ``inputs`` is tracked."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def record(out, inputs, backward_fn):
    """Record ``out`` as a node on the active tape when ``recording(inputs)``.

    ``backward_fn(grad_out)`` returns one gradient (or None) per input. Ops
    outside the core, such as the fused recurrent kernel, use this hook too.
    Returns ``out``.
    """
    if recording(inputs):
        _TAPE_STACK[-1]._record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_check(a, b, op):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "add")
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def bk(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record(out, (a, b), bk)


def mul(a, b):
    """Elementwise product; no gradient is formed for a constant operand."""
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data)
    shapes = a.data.shape, b.data.shape
    others = (b.data if a.requires_grad else None,
              a.data if b.requires_grad else None)

    def bk(g):
        return tuple(None if o is None else _unbroadcast(g * o, shape)
                     for o, shape in zip(others, shapes))

    return record(out, (a, b), bk)


def matmul(a, b):
    """2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def bk(g):
        return g @ b_data.T, a_data.T @ g

    return record(out, (a, b), bk)


def bmm_const(mats, a):
    """Per-sentence product ``mats[b] @ a_b`` where ``mats`` is a constant ndarray.

    mats has shape (B, n, m); a holds B blocks of m rows, (B * m, k)
    sentence-major, and the result B blocks of n rows, (B * n, k). Used for
    aggregation with per-sentence adjacency matrices; only ``a`` carries
    gradients, the matrices are data.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if (mats.ndim != 3 or a.data.ndim != 2
            or a.data.shape[0] != mats.shape[0] * mats.shape[2]):
        raise DimensionError(
            f"bmm_const: a {mats.shape} stack does not fit rows {a.data.shape}")
    (batch, n, m), k = mats.shape, a.data.shape[1]
    out = Tensor(np.matmul(mats, a.data.reshape(batch, m, k)).reshape(batch * n, k))
    mats_t = mats.swapaxes(1, 2)

    def bk(g):
        return (np.matmul(mats_t, g.reshape(batch, n, k)).reshape(batch * m, k),)

    return record(out, (a,), bk)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))
    if not recording((a,)):
        return out
    positive = a.data > 0.0  # derivative at exactly 0 is defined as 0

    def bk(g):
        return (g * positive,)

    return record(out, (a,), bk)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise DimensionError(
            "concat: shapes " + ", ".join(str(t.data.shape) for t in tensors)
            + f" do not align off axis {axis}"
        ) from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bk(g):
        return tuple(np.split(g, offsets, axis=axis))

    return record(out, tuple(tensors), bk)


def rows(a, idx):
    """Gather rows of a 2-D tensor: out[i] = a[idx[i]].

    The backward pass sums the gradient rows of each index, so repeated
    indices accumulate: a stable sort groups equal indices and one
    ``np.add.reduceat`` sums each run.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"rows expects a 2-D tensor, got shape {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError(f"rows expects a 1-D index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError(
            f"rows: index out of range for tensor with {a.data.shape[0]} rows"
        )
    out = Tensor(a.data[idx])
    if not recording((a,)):
        return out
    in_shape = a.data.shape
    # Sorted here rather than in the backward pass: sorting there raised
    # train-paper's peak RSS by 1.6 MB.
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    targets = sorted_idx[starts]

    def bk(g):
        da = np.zeros(in_shape, dtype=np.float64)
        da[targets] = np.add.reduceat(g[order], starts, axis=0)
        return (da,)

    return record(out, (a,), bk)
