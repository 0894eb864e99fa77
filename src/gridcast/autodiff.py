"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Double-precision numpy arrays under the hood, a tape built implicitly out of
node references, and one segment-checkpoint mechanism that discards
intermediates on the forward pass and recomputes them during backward.  A
segment's input is kept by a store: pinned on the tape by default, or copied
out to host storage by offload.OffloadEngine.  All primitives are
deterministic: two runs over identical inputs produce bitwise-identical
outputs and gradients, which is what lets checkpointed and non-checkpointed
executions be compared exactly.

Conventions:
  * values are always float64, C-contiguous, and owned by their Tensor
  * graphs are built and differentiated on a single thread
  * gradients are plain numpy arrays, never Tensors
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "no_grad",
    "enable_grad",
    "grad_enabled",
    "backward",
    "checkpoint_segment",
    "tape_stats",
    "reset_tape_stats",
    "set_alloc_observer",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Input shapes invalid for a primitive; message names the op and shapes."""


class GraphError(RuntimeError):
    """Misuse of the tape: non-scalar root, repeated backward, dead tensor."""


class _ThreadState(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.alloc_observer = None
        self.stats = TapeStats()


class TapeStats:
    """Counters over the implicit tape, for residency instrumentation.

    saved_current counts intermediate arrays currently pinned by tape nodes
    for use in backward; saved_peak is its high-water mark.
    """

    def __init__(self):
        self.nodes_created = 0
        self.saved_current = 0
        self.saved_peak = 0
        self.saved_bytes_current = 0
        self.saved_bytes_peak = 0

    def _on_save(self, arrays):
        self.saved_current += len(arrays)
        self.saved_bytes_current += sum(a.nbytes for a in arrays)
        self.saved_peak = max(self.saved_peak, self.saved_current)
        self.saved_bytes_peak = max(self.saved_bytes_peak, self.saved_bytes_current)

    def _on_release(self, arrays):
        self.saved_current -= len(arrays)
        self.saved_bytes_current -= sum(a.nbytes for a in arrays)

    def reset(self):
        self.__init__()


_state = _ThreadState()


def tape_stats() -> TapeStats:
    return _state.stats


def reset_tape_stats() -> None:
    _state.stats.reset()


def set_alloc_observer(observer) -> None:
    """Install a callback invoked with every freshly created Tensor.

    Used by the offload arena to meter activation residency.  Pass None to
    remove.  The observer must not create Tensors itself.
    """
    _state.alloc_observer = observer


def grad_enabled() -> bool:
    return _state.grad_enabled


class _GradMode:
    def __init__(self, enabled: bool):
        self._enabled = enabled
        self._prev = None

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = self._enabled
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def no_grad() -> _GradMode:
    return _GradMode(False)


def enable_grad() -> _GradMode:
    return _GradMode(True)


_GEN = 0


class TapeNode:
    """One recorded primitive application.

    parents are the input Tensors (graph edges point backward only, so the
    node web is acyclic and reference counting can reclaim it), saved holds
    the numpy intermediates the backward rule needs, and rule is called as
    rule(grad_out, saved, add) where add(tensor, grad) accumulates into a
    parent's gradient.  gen orders node creation so a checkpoint recompute
    can detect escapes into an older graph.
    """

    __slots__ = ("op", "parents", "saved", "rule", "consumed", "gen")

    def __init__(self, op: str, parents, saved, rule):
        global _GEN
        _GEN += 1
        self.gen = _GEN
        self.op = op
        self.parents = tuple(parents)
        self.saved = list(saved)
        self.rule = rule
        self.consumed = False
        st = _state.stats
        st.nodes_created += 1
        st._on_save(self.saved)

    def release(self):
        if self.saved:
            _state.stats._on_release(self.saved)
            self.saved = []


def _own(values, copy: bool) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.base is not None or not arr.flags.owndata:
        arr = arr.copy()
    elif copy and arr is values:
        # caller still holds this exact array; keep our buffer private
        arr = arr.copy()
    return arr


class Tensor:
    """Dense float64 array plus autodiff bookkeeping.

    Values are immutable by convention once created; the shape invariant
    (product of extents == element count) is numpy's own.
    """

    __slots__ = ("values", "requires_grad", "node", "grad", "__weakref__")

    def __init__(self, values, requires_grad: bool = False, node: TapeNode | None = None,
                 copy: bool = True):
        self.values = _own(values, copy)
        self.requires_grad = bool(requires_grad)
        self.node = node
        self.grad = None
        obs = _state.alloc_observer
        if obs is not None:
            obs(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def __repr__(self):
        g = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{g})"

    def _check_alive(self, op: str):
        if self.values is None:
            raise GraphError(f"{op}: tensor values were evicted; dead by contract")

    # arithmetic sugar; python scalars become constant 0-d tensors
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_coerce(other), _const(-1.0)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(self, _const(-1.0)))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("div: tensor/tensor division is not a primitive; divide by a scalar")
        return mul(self, _const(1.0 / float(other)))

    def __neg__(self):
        return mul(self, _const(-1.0))

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.values, requires_grad=False, copy=False)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _const(x: float) -> Tensor:
    return Tensor(np.float64(x))


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _record(op: str, out_values, parents: Sequence[Tensor], saved, rule) -> Tensor:
    needs = _state.grad_enabled and any(p.requires_grad for p in parents)
    node = TapeNode(op, parents, saved, rule) if needs else None
    return Tensor(out_values, requires_grad=needs, node=node, copy=False)


def _contig(a) -> np.ndarray:
    """C-contiguous view or copy; never promotes rank 0 to rank 1."""
    a = np.asarray(a)
    if a.ndim and not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return _contig(np.asarray(grad).reshape(shape))


# ---------------------------------------------------------------------------
# elementwise and linear primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a._check_alive("add")
    b._check_alive("add")
    try:
        out = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def rule(g, saved, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(g, b.shape))

    return _record("add", out, (a, b), (), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a._check_alive("mul")
    b._check_alive("mul")
    try:
        out = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def rule(g, saved, acc):
        av, bv = saved
        acc(a, _unbroadcast(g * bv, a.shape))
        acc(b, _unbroadcast(g * av, b.shape))

    return _record("mul", out, (a, b), (a.values, b.values), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a._check_alive("matmul")
    b._check_alive("matmul")
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.values, b.values)
    except ValueError:
        raise ShapeError(f"matmul: batch extents do not broadcast, {a.shape} @ {b.shape}") from None

    def rule(g, saved, acc):
        av, bv = saved
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        acc(a, _unbroadcast(ga, a.shape))
        acc(b, _unbroadcast(gb, b.shape))

    return _record("matmul", out, (a, b), (a.values, b.values), rule)


def gelu(x: Tensor) -> Tensor:
    x._check_alive("gelu")
    xv = x.values
    out = 0.5 * xv * (1.0 + erf(xv * _INV_SQRT2))

    def rule(g, saved, acc):
        (v,) = saved
        d = 0.5 * (1.0 + erf(v * _INV_SQRT2)) + v * np.exp(-0.5 * v * v) * _INV_SQRT2PI
        acc(x, g * d)

    return _record("gelu", out, (x,), (xv,), rule)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x._check_alive("softmax")
    xv = x.values
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def rule(g, saved, acc):
        (p,) = saved
        dot = (g * p).sum(axis=axis, keepdims=True)
        acc(x, p * (g - dot))

    return _record("softmax", out, (x,), (out,), rule)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x._check_alive("layernorm")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm: gain/bias {gain.shape}/{bias.shape} must be ({d},)")
    xv = x.values
    mu = xv.mean(axis=-1, keepdims=True)
    xc = xv - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.values + bias.values

    def rule(g, saved, acc):
        xh, iv, gv = saved
        lead = tuple(range(g.ndim - 1))
        acc(bias, g.sum(axis=lead))
        acc(gain, (g * xh).sum(axis=lead))
        gx = g * gv
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xh).mean(axis=-1, keepdims=True)
        acc(x, iv * (gx - m1 - xh * m2))

    return _record("layernorm", out, (x, gain, bias), (xhat, inv, gain.values), rule)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x._check_alive("sum")
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def rule(g, saved, acc):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(a % x.values.ndim for a in axes)
            for a in sorted(axes):
                gg = np.expand_dims(gg, a)
        acc(x, np.broadcast_to(gg, x.shape).copy() if gg.shape != x.shape else gg)

    return _record("sum", out, (x,), (), rule)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for a in axes:
            n *= x.shape[a % x.values.ndim]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), _const(1.0 / n))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x._check_alive("reshape")
    try:
        out = x.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None

    def rule(g, saved, acc):
        acc(x, _contig(np.asarray(g).reshape(x.shape)))

    return _record("reshape", out, (x,), (), rule)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x._check_alive("transpose")
    if sorted(a % x.values.ndim for a in axes) != list(range(x.values.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for rank {x.values.ndim}")
    out = np.transpose(x.values, axes)
    inv = np.argsort(np.asarray(axes) % x.values.ndim)

    def rule(g, saved, acc):
        acc(x, np.ascontiguousarray(np.transpose(g, inv)))

    return _record("transpose", out, (x,), (), rule)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    for t in tensors:
        t._check_alive("concat")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} along axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]

    def rule(g, saved, acc):
        start = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            acc(t, np.ascontiguousarray(g[tuple(sl)]))
            start += s

    return _record("concat", out, tuple(tensors), (), rule)


def getitem(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing with a scatter backward."""
    x._check_alive("getitem")
    out = x.values[key]

    def rule(g, saved, acc):
        gx = np.zeros_like(x.values)
        gx[key] += g
        acc(x, gx)

    return _record("getitem", out, (x,), (), rule)


def take(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of x along axis 0 by an integer index array.

    Output shape is idx.shape + x.shape[1:]; the backward scatter-adds each
    gradient row into row idx[i] with _scatter_add, in the order of idx, so
    repeated indices sum deterministically.
    """
    x._check_alive("take")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take: index out of range for extent {x.shape[0]}")
    out = x.values[idx]

    def rule(g, saved, acc):
        row = math.prod(x.shape[1:])
        cells = idx[..., None] * row + np.arange(row)
        acc(x, _scatter_add(cells, g, x.size).reshape(x.shape))

    return _record("take", out, (x,), (), rule)


def pad(x: Tensor, pads: Sequence[tuple[int, int]], mode: str = "zero") -> Tensor:
    """Pad every axis by (before, after); mode 'zero' or 'circular'."""
    x._check_alive("pad")
    pads = [tuple(p) for p in pads]
    if len(pads) != x.values.ndim:
        raise ShapeError(f"pad: {len(pads)} pad pairs for rank {x.values.ndim}")
    if mode == "zero":
        out = np.pad(x.values, pads)
    elif mode == "circular":
        for (b, a), e in zip(pads, x.shape):
            if b > e or a > e:
                raise ShapeError(f"pad: circular pad ({b},{a}) exceeds extent {e}")
        out = np.pad(x.values, pads, mode="wrap")
    else:
        raise ShapeError(f"pad: unknown mode {mode!r}")

    def rule(g, saved, acc):
        gg = g
        for ax, (b, a) in enumerate(pads):
            e = x.shape[ax]
            sl = [slice(None)] * gg.ndim
            sl[ax] = slice(b, b + e)
            core = gg[tuple(sl)].copy()  # must not mutate the incoming grad
            if mode == "circular":
                if b:
                    sl[ax] = slice(0, b)
                    head = gg[tuple(sl)]
                    tgt = [slice(None)] * core.ndim
                    tgt[ax] = slice(e - b, e)
                    core[tuple(tgt)] += head
                if a:
                    sl[ax] = slice(b + e, b + e + a)
                    tail = gg[tuple(sl)]
                    tgt = [slice(None)] * core.ndim
                    tgt[ax] = slice(0, a)
                    core[tuple(tgt)] += tail
            gg = core
        acc(x, gg)

    return _record("pad", out, (x,), (), rule)


# ---------------------------------------------------------------------------
# convolution: shared gather/scatter index plans
# ---------------------------------------------------------------------------

_PLAN_CACHE: dict = {}


def _axis_plan(extent: int, kernel: int, stride: int, pad_pair: tuple[int, int], wrap: bool):
    """Tap indices for one spatial axis: (out_extent, idx[out,k], valid[out,k]).

    Wrapped axes index modulo the extent (circular longitude); padded axes
    clip out-of-range taps and mask them to zero.
    """
    if wrap:
        if extent % stride != 0:
            raise ShapeError(f"conv: wrapped extent {extent} not divisible by stride {stride}")
        out = extent // stride
        c = (kernel - 1) // 2
        base = np.arange(out)[:, None] * stride + np.arange(kernel)[None, :] - c
        return out, base % extent, np.ones((out, kernel), dtype=bool)
    p0, p1 = pad_pair
    out = (extent + p0 + p1 - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(f"conv: kernel {kernel} too large for extent {extent} with pads {pad_pair}")
    base = np.arange(out)[:, None] * stride + np.arange(kernel)[None, :] - p0
    valid = (base >= 0) & (base < extent)
    return out, np.clip(base, 0, extent - 1), valid


def _conv_plan(extents, kernel, stride, pads, wrap):
    """Cached im2col plan: (out extents, flat tap index (P, K), tap mask (P, K)).

    flat[p, k] is the raveled spatial cell that tap k of output cell p reads;
    P and K enumerate (out...) and (k...) in C order.  Out-of-range taps are
    clipped to a valid cell and zeroed by the float mask.
    """
    key = (tuple(extents), tuple(kernel), tuple(stride), tuple(pads), tuple(wrap))
    hit = _PLAN_CACHE.get(key)
    if hit is not None:
        return hit
    n = len(extents)
    outs, grids, masks = [], [], []
    for i in range(n):
        o, ix, va = _axis_plan(extents[i], kernel[i], stride[i], pads[i], wrap[i])
        # broadcastable over (out..., k...)
        shape = [1] * (2 * n)
        shape[i] = o
        shape[n + i] = kernel[i]
        outs.append(o)
        grids.append(ix.reshape(shape))
        masks.append(va.reshape(shape))
    mask = masks[0]
    for m in masks[1:]:
        mask = mask & m
    p, k = math.prod(outs), math.prod(kernel)
    flat = np.ravel_multi_index(tuple(np.broadcast_arrays(*grids)), tuple(extents))
    plan = (tuple(outs), flat.reshape(p, k), mask.reshape(p, k).astype(np.float64))
    _PLAN_CACHE[key] = plan
    return plan


def _norm_conv_args(x_shape, w_shape, stride, pads, wrap, op):
    n = len(x_shape) - 1
    if n not in (2, 3):
        raise ShapeError(f"{op}: expected 2 or 3 spatial dims, got input shape {x_shape}")
    if len(w_shape) != n + 2:
        raise ShapeError(f"{op}: weight rank {len(w_shape)} does not match {n} spatial dims")
    stride = (stride,) * n if isinstance(stride, int) else tuple(stride)
    if pads is None:
        pads = ((0, 0),) * n
    pads = tuple((p, p) if isinstance(p, int) else tuple(p) for p in pads)
    wrap = (False,) * n if wrap is None else tuple(wrap)
    if not (len(stride) == len(pads) == len(wrap) == n):
        raise ShapeError(f"{op}: stride/pads/wrap must have {n} entries")
    return n, stride, pads, wrap


def _scatter_add(cells: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """out[cells[i]] += vals[i] over a zeroed float vector of length size.

    Every cell starts from +0.0 and adds its values one at a time in the C
    order of cells, as numpy's unbuffered ufunc.at scatter does, so the sums
    are bitwise equal to that scatter's.
    """
    out = np.bincount(cells.ravel(), weights=vals.ravel(), minlength=size)
    return out.astype(np.float64, copy=False)  # bincount of no cells is int


def _gather_cols(xv: np.ndarray, plan):
    """im2col: (C, *S) -> (P, C*K) masked patch matrix."""
    _, flat, mask = plan
    (p, k), c = flat.shape, xv.shape[0]
    patches = np.take(xv.reshape(c, -1), flat, axis=1)  # (C, P, K)
    cols = np.empty((p, c, k))
    np.multiply(patches.transpose(1, 0, 2), mask[:, None, :], out=cols)  # zero out-of-range taps
    return cols.reshape(p, c * k)


def _scatter_cols(gcols: np.ndarray, c_in: int, extents, plan):
    """col2im: (P, C*K) -> (C, *S) scatter-add, adjoint of _gather_cols.

    Cell (c, s) only receives from channel c, so summing in (P, C, K) order
    adds its contributions in the same (P, K) order as a (C, P, K) walk.
    """
    _, flat, mask = plan
    p, k = flat.shape
    s = math.prod(extents)
    vals = gcols.reshape(p, c_in, k) * mask[:, None, :]
    cells = flat[:, None, :] + (np.arange(c_in) * s)[:, None]
    return _scatter_add(cells, vals, c_in * s).reshape((c_in,) + tuple(extents))


def conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None, wrap=None) -> Tensor:
    """N-d convolution (N = 2 or 3), channels-first.

    x: (C_in, *S); w: (C_out, C_in, *K); wrapped axes convolve circularly
    with centered taps, other axes honor explicit (before, after) zero pads.
    """
    x._check_alive("conv")
    w._check_alive("conv")
    n, stride, pads, wrap = _norm_conv_args(x.shape, w.shape, stride, pads, wrap, "conv")
    c_out, c_in = w.shape[0], w.shape[1]
    if c_in != x.shape[0]:
        raise ShapeError(f"conv: input channels {x.shape[0]} != weight channels {c_in}")
    kernel = w.shape[2:]
    plan = _conv_plan(x.shape[1:], kernel, stride, pads, wrap)
    outs = plan[0]
    cols = _gather_cols(x.values, plan)
    wmat = w.values.reshape(c_out, -1)
    y = cols @ wmat.T  # (P, C_out)
    if b is not None:
        if b.shape != (c_out,):
            raise ShapeError(f"conv: bias {b.shape} must be ({c_out},)")
        y = y + b.values
    out = np.ascontiguousarray(y.reshape(tuple(outs) + (c_out,)).transpose((n,) + tuple(range(n))))

    parents = (x, w) if b is None else (x, w, b)

    def rule(g, saved, acc):
        (xv,) = saved
        gmat = g.transpose(tuple(range(1, n + 1)) + (0,)).reshape(-1, c_out)
        cols_r = _gather_cols(xv, plan)
        acc(w, (gmat.T @ cols_r).reshape(w.shape))
        if b is not None:
            acc(b, gmat.sum(axis=0))
        if x.requires_grad:  # the stem conv's input is data
            acc(x, _scatter_cols(gmat @ wmat, c_in, x.shape[1:], plan))

    return _record("conv", out, parents, (x.values,), rule)


def conv_transpose(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None,
                   wrap=None, out_extents=None) -> Tensor:
    """Transposed N-d convolution: the exact adjoint of `conv`'s input map.

    x: (C_in, *S_small); w: (C_in, C_out, *K); output (C_out, *out_extents)
    where conv(out_extents -> S_small) under the same kernel/stride/pads/wrap
    geometry must reproduce S_small.
    """
    x._check_alive("conv_transpose")
    w._check_alive("conv_transpose")
    n, stride, pads, wrap = _norm_conv_args(x.shape, w.shape, stride, pads, wrap, "conv_transpose")
    c_in, c_out = w.shape[0], w.shape[1]
    if c_in != x.shape[0]:
        raise ShapeError(f"conv_transpose: input channels {x.shape[0]} != weight channels {c_in}")
    if out_extents is None:
        raise ShapeError("conv_transpose: out_extents is required")
    out_extents = tuple(out_extents)
    kernel = w.shape[2:]
    plan = _conv_plan(out_extents, kernel, stride, pads, wrap)
    outs = plan[0]
    if tuple(outs) != tuple(x.shape[1:]):
        raise ShapeError(
            f"conv_transpose: adjoint geometry maps {out_extents} -> {tuple(outs)}, "
            f"but input spatial extents are {tuple(x.shape[1:])}")

    # w rows are channel-major over kernel taps, matching _scatter_cols layout
    wmat = w.values.reshape(c_in, -1)  # (C_in, C_out*K)
    xmat = x.values.reshape(c_in, -1).T  # (P, C_in)
    scat = xmat @ wmat  # (P, C_out*K)
    y = _scatter_cols(scat, c_out, out_extents, plan)
    if b is not None:
        if b.shape != (c_out,):
            raise ShapeError(f"conv_transpose: bias {b.shape} must be ({c_out},)")
        y = y + b.values.reshape((c_out,) + (1,) * n)
    out = np.ascontiguousarray(y)

    parents = (x, w) if b is None else (x, w, b)

    def rule(g, saved, acc):
        (xv,) = saved
        gcols = _gather_cols(g, plan)  # (P, C_out*K)
        acc(x, np.ascontiguousarray((gcols @ wmat.T).T.reshape(x.shape)))
        xm = xv.reshape(c_in, -1).T
        acc(w, (xm.T @ gcols).reshape(w.shape))
        if b is not None:
            axes = tuple(range(1, n + 1))
            acc(b, g.sum(axis=axes))

    return _record("conv_transpose", out, parents, (x.values,), rule)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------

def _topo(root: Tensor) -> list[tuple[Tensor, TapeNode]]:
    """Tensors with nodes, parents-first, each exactly once."""
    order: list[tuple[Tensor, TapeNode]] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, done = stack.pop()
        node = t.node
        if node is None:
            continue
        if done:
            order.append((t, node))
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in node.parents:
            if p.node is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def _backward_impl(root: Tensor, seed: np.ndarray, set_grad_attr: bool, min_gen: int = 0):
    acc: dict[int, list] = {}  # id -> [tensor, grad]

    def add_grad(t: Tensor, g: np.ndarray):
        cell = acc.get(id(t))
        if cell is None:
            acc[id(t)] = [t, np.asarray(g, dtype=np.float64)]
        else:
            cell[1] = cell[1] + g

    add_grad(root, seed)
    order = _topo(root)
    for t, node in reversed(order):
        cell = acc.pop(id(t), None)
        if cell is None:
            continue  # tensor not on any path that received gradient
        if node.gen < min_gen:
            raise GraphError(
                "checkpoint_segment: recompute reached a tensor recorded outside the "
                "segment; segments may only capture leaf parameters")
        if node.consumed:
            raise GraphError(
                f"backward: node {node.op!r} already consumed by an earlier sweep; "
                "rebuild the graph before differentiating again")
        node.consumed = True
        g = cell[1]
        node.rule(g, node.saved, add_grad)
        node.release()

    leaves: dict[Tensor, np.ndarray] = {}
    for t, g in acc.values():
        if t.node is None and t.requires_grad:
            if g.shape != t.shape:
                g = _contig(np.broadcast_to(g, t.shape).copy())
            leaves[t] = g
            if set_grad_attr:
                t.grad = g
    return leaves


def backward(root: Tensor, seed=None, leaves: Iterable[Tensor] | None = None):
    """Reverse-mode sweep from a scalar root.

    Returns {leaf_tensor: gradient} for every requires-grad leaf the sweep
    reached; leaves passed explicitly are guaranteed a (possibly zero) entry,
    which is how disconnected leaves are reported.  A second call on the same
    root is rejected: saved intermediates are released as they are consumed.
    """
    if seed is None:
        if root.size != 1:
            raise GraphError(f"backward: root has shape {root.shape}, expected a scalar")
        seed = np.ones_like(root.values)
    else:
        seed = np.array(seed, dtype=np.float64)  # private copy, rules may slice it
        if seed.shape != root.shape:
            raise GraphError(f"backward: seed shape {seed.shape} != root shape {root.shape}")
    if root.node is not None and root.node.consumed:
        raise GraphError("backward: tape already consumed for this root; rebuild the graph")
    grads = _backward_impl(root, seed, set_grad_attr=True)
    if leaves is not None:
        for t in leaves:
            if t.requires_grad and t not in grads:
                z = np.zeros_like(t.values)
                grads[t] = z
                t.grad = z
    return grads


# ---------------------------------------------------------------------------
# segment checkpointing
# ---------------------------------------------------------------------------

class _PinnedInput:
    """Default segment store: the input array is pinned on the tape node."""

    @staticmethod
    def keep(x: Tensor, forward):
        return (x.values,), None, forward()

    @staticmethod
    def restore(saved, key, replay):
        return replay(saved[0])


def checkpoint_segment(fn: Callable[[Tensor], Tensor], x: Tensor, store=None) -> Tensor:
    """Run fn(x) without recording its interior; recompute it in backward.

    fn must be a pure function of x and of leaf parameters it closes over.
    Gradients are bitwise-identical to the non-checkpointed execution because
    every primitive is deterministic.  Only the segment input is kept for
    backward, by the store: the default pins it on the tape (one saved array
    per segment instead of one per interior op); an offload.OffloadEngine
    copies it out to host storage instead.  Under no_grad this is fn(x) and
    the store is not touched.

    A store has two methods.  store.keep(x, forward) runs forward() and
    returns (saved, key, y): the arrays the tape node pins, a key for the
    kept input, and forward()'s output.  store.restore(saved, key, replay)
    runs in backward and returns replay(input_array).
    """
    x._check_alive("checkpoint_segment")
    if not _state.grad_enabled:
        return fn(x)
    store = _PinnedInput if store is None else store
    x_in = Tensor(x.values, copy=False)

    def forward():
        with no_grad():
            return fn(x_in)

    saved, key, y = store.keep(x, forward)

    def rule(g, saved, acc):
        def replay(xv):
            start_gen = _GEN + 1
            with enable_grad():
                x_re = Tensor(xv, requires_grad=True, copy=False)
                y_re = fn(x_re)
                sub = _backward_impl(y_re, np.asarray(g, dtype=np.float64),
                                     set_grad_attr=False, min_gen=start_gen)
            return sub.pop(x_re, None), sub

        gx, sub = store.restore(saved, key, replay)
        if gx is not None:
            acc(x, gx)
        for p, gp in sub.items():
            acc(p, gp)

    # node exists regardless of x.requires_grad: captured parameters inside
    # fn still need their gradients routed on the recompute pass
    node = TapeNode("checkpoint", (x,), saved, rule)
    return Tensor(y.values, requires_grad=True, node=node, copy=False)
