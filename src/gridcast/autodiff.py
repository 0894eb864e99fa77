"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Double-precision numpy arrays under the hood, a tape built implicitly out of
node references, and one segment-checkpoint mechanism that discards
intermediates on the forward pass and recomputes them during backward.  A
segment's input is kept by a store: pinned on the tape by default, or copied
into a slot of an offload.OffloadEngine.  All primitives are
deterministic: two runs over identical inputs produce bitwise-identical
outputs and gradients, which is what lets checkpointed and non-checkpointed
executions be compared exactly.

Conventions:
  * values are always float64, C-contiguous, and owned by their Tensor
  * graphs are built and differentiated on a single thread
  * gradients are plain numpy arrays, never Tensors
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

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
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Input shapes invalid for a primitive; message names the op and shapes."""


class GraphError(RuntimeError):
    """Misuse of the tape: non-scalar root, repeated backward, dead tensor."""


class _State:
    def __init__(self):
        self.grad_enabled = True
        self.stats = TapeStats()


class TapeStats:
    """Counters over the implicit tape, for residency instrumentation.

    saved_current counts intermediate arrays currently pinned by tape nodes
    for use in backward; saved_bytes_current and saved_bytes_peak meter
    their bytes.
    """

    def __init__(self):
        self.nodes_created = 0
        self.saved_current = 0
        self.saved_bytes_current = 0
        self.saved_bytes_peak = 0

    def _on_save(self, arrays):
        self.saved_current += len(arrays)
        self.saved_bytes_current += sum(a.nbytes for a in arrays)
        self.saved_bytes_peak = max(self.saved_bytes_peak, self.saved_bytes_current)

    def _on_release(self, arrays):
        self.saved_current -= len(arrays)
        self.saved_bytes_current -= sum(a.nbytes for a in arrays)

    def reset(self):
        self.__init__()


_state = _State()


def tape_stats() -> TapeStats:
    return _state.stats


def reset_tape_stats() -> None:
    _state.stats.reset()


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

    __slots__ = ("values", "requires_grad", "node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False, node: TapeNode | None = None,
                 copy: bool = True):
        self.values = _own(values, copy)
        self.requires_grad = bool(requires_grad)
        self.node = node

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


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _const(x: float) -> Tensor:
    return Tensor(np.float64(x))


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
    cdf = 0.5 * (1.0 + erf(xv * _INV_SQRT2))
    out = xv * cdf

    def rule(g, saved, acc):
        v, c = saved
        acc(x, g * (c + v * np.exp(-0.5 * v * v) * _INV_SQRT2PI))

    return _record("gelu", out, (x,), (xv, cdf), rule)


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
    gradient row into row idx[i] with one np.bincount over flat cell numbers.
    That adds each cell's values one at a time from +0.0 in the C order of
    idx, as numpy's unbuffered np.add.at does, so repeated indices sum
    deterministically and bitwise equal to that scatter.
    """
    x._check_alive("take")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take: index out of range for extent {x.shape[0]}")
    out = x.values[idx]

    def rule(g, saved, acc):
        row = math.prod(x.shape[1:])
        cells = idx[..., None] * row + np.arange(row)
        gx = np.bincount(cells.ravel(), weights=g.ravel(), minlength=x.size)
        acc(x, gx.astype(np.float64, copy=False).reshape(x.shape))  # int when idx is empty

    return _record("take", out, (x,), (), rule)


# ---------------------------------------------------------------------------
# neighborhood attention
# ---------------------------------------------------------------------------

def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the feature pairs (x[..., i], x[..., i + dh/2]) by per-pair phases.

    cos and sin broadcast against x[..., :dh/2].  rotate_pairs(x, cos, -sin)
    is the inverse rotation, which is also its transpose.
    """
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    out = np.empty(np.broadcast_shapes(x1.shape, cos.shape)[:-1] + (2 * half,))
    lo, hi = out[..., :half], out[..., half:]
    np.multiply(x1, cos, out=lo)
    lo -= x2 * sin
    np.multiply(x1, sin, out=hi)
    hi += x2 * cos
    return out


def _check_attention(op: str, qkv_shape, table: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                     heads: int) -> None:
    if len(qkv_shape) != 2 or heads < 1 or qkv_shape[1] % (3 * heads) != 0:
        raise ShapeError(
            f"{op}: qkv {qkv_shape} is not (T, 3 * dim) with dim divisible by {heads} heads")
    t, dh = qkv_shape[0], qkv_shape[1] // (3 * heads)
    if dh % 2 != 0:
        raise ShapeError(f"{op}: head dim {dh} is odd; rotary phases need feature pairs")
    if table.ndim != 2 or table.shape[0] != t or not np.issubdtype(table.dtype, np.integer):
        raise ShapeError(f"{op}: neighbor table {table.shape} is not ({t}, K) integers")
    if table.size and (table.min() < 0 or table.max() >= t):
        raise ShapeError(f"{op}: neighbor index out of range for {t} tokens")
    if cos.shape != sin.shape or cos.ndim != 3 or cos.shape[0] != t or cos.shape[2] != dh // 2:
        raise ShapeError(f"{op}: phases {cos.shape}/{sin.shape} are not ({t}, C, {dh // 2})")
    if table.shape[1] % cos.shape[1] != 0:
        raise ShapeError(
            f"{op}: {table.shape[1]} neighbors do not split into {cos.shape[1]} column taps")


def _attend(qkv: np.ndarray, table: np.ndarray, cos: np.ndarray, sin: np.ndarray, heads: int):
    """numpy forward of neighborhood_attention, in the (heads, T, K, dh) layout.

    Returns the context (T, dim) and what the backward keeps: the rotated,
    scaled queries q (heads, T, C, dh), the rotated keys k and the values v
    (heads, T, dh), and the softmax weights (heads, T, K).
    """
    t, width = qkv.shape
    dh = width // (3 * heads)
    centre = (cos.shape[1] - 1) // 2
    x = qkv.reshape(t, 3, heads, dh).transpose(1, 2, 0, 3)  # (3, heads, T, dh) view
    q = rotate_pairs(x[0][:, :, None, :], cos, sin)
    q *= 1.0 / math.sqrt(dh)
    k = rotate_pairs(x[1], cos[:, centre], sin[:, centre])
    v = np.ascontiguousarray(x[2])
    kn = np.take(k, table, axis=1).reshape(heads, t, cos.shape[1], -1, dh)  # per column tap
    weights = np.einsum("htcmd,htcd->htcm", kn, q).reshape(heads, t, -1)  # softmaxed in place
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = np.matmul(weights[:, :, None, :], np.take(v, table, axis=1))  # (heads, T, 1, dh)
    out = np.ascontiguousarray(ctx.reshape(heads, t, dh).transpose(1, 0, 2)).reshape(t, -1)
    return out, q, k, v, weights


def _inverse_table(table: np.ndarray, extent: int) -> np.ndarray:
    """Where each token sits in table: (extent, R) flat positions t*K + j.

    Row n lists every position holding n in ascending order, padded at the
    end with table.size; R is the largest count.
    """
    flat = table.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=extent)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    inv = np.full((extent, counts.max(initial=0)), flat.size)
    inv[flat[order], rank] = order
    return inv


def neighborhood_attention(qkv: Tensor, table: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                           heads: int) -> Tensor:
    """Rotary neighborhood attention from a fused projection, as one tape node.

    qkv (T, 3*dim) holds the query, key and value projections side by side,
    each split into heads of dh = dim / heads features.  Token t attends to
    the K tokens table[t].  cos and sin (T, C, dh/2) are rotary phases: the
    K neighbors split into C runs, one per column tap as grid.neighborhood
    orders them; the query of t takes phase [t, c] against the neighbors of
    run c, and each key takes its own token's phase at the centre tap
    (C - 1) // 2.  With C = 1 that is plain rotary attention;
    attention.rotary_tables explains the column taps.
    Scores carry the 1/sqrt(dh) scale, a shifted softmax over the K neighbors
    weights the values, and the context (T, dim) is returned.

    Backward keeps only the rotated q, k, v and the weights and gathers the
    neighbors again.  Each key and value sums its gradient over the window
    positions that hold it, listed in ascending order by _inverse_table, in
    one batched dot: no scatter, and a token in several windows sums in a
    fixed order.
    """
    qkv._check_alive("neighborhood_attention")
    table = np.asarray(table)
    _check_attention("neighborhood_attention", qkv.shape, table, cos, sin, heads)
    out, q, k, v, weights = _attend(qkv.values, table, cos, sin, heads)
    t = qkv.shape[0]
    centre = (cos.shape[1] - 1) // 2

    def rule(g, saved, acc):
        q, k, v, w = saved
        h, _, taps, dh = q.shape
        g4 = g.reshape(t, h, dh).transpose(1, 0, 2)  # (heads, T, dh) view
        kn = np.take(k, table, axis=1)
        vn = np.take(v, table, axis=1)
        gw = np.matmul(vn, g4[..., None])[..., 0]
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gq = np.matmul(gs.reshape(h, t, taps, 1, -1), kn.reshape(h, t, taps, -1, dh))[..., 0, :]
        gq = rotate_pairs(gq * (1.0 / math.sqrt(dh)), cos, -sin).sum(axis=2)
        # each key and value sums its neighbor gradients over the (t, j) that
        # hold it, ascending, as one batched dot with padding zeros
        inv = _inverse_table(table, t)  # (T, R) flat t*K + j, padded with T*K
        src, j = np.divmod(inv, table.shape[1])  # token T for a pad
        q_row = src * taps + j // (table.shape[1] // taps)  # tap of j's run
        pad, zero_row = np.zeros((h, 1)), np.zeros((h, 1, dh))
        gs_t = np.concatenate([gs.reshape(h, -1), pad], axis=1)[:, inv]
        w_t = np.concatenate([w.reshape(h, -1), pad], axis=1)[:, inv]
        q_rows = np.concatenate([q.reshape(h, -1, dh), zero_row], axis=1)
        g_rows = np.concatenate([g4, zero_row], axis=1)
        gk = np.matmul(gs_t[:, :, None, :], np.take(q_rows, q_row, axis=1))
        gv = np.matmul(w_t[:, :, None, :], np.take(g_rows, src, axis=1))
        gk = rotate_pairs(gk[:, :, 0], cos[:, centre], -sin[:, centre])
        gqkv = np.stack([gq, gk, gv[:, :, 0]]).transpose(2, 0, 1, 3)  # (T, 3, heads, dh)
        acc(qkv, np.ascontiguousarray(gqkv).reshape(t, -1))

    return _record("neighborhood_attention", out, (qkv,), (q, k, v, weights), rule)


def neighborhood_weights(qkv: np.ndarray, table: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                         heads: int) -> np.ndarray:
    """Softmax weights (T, heads, K) of neighborhood_attention, no tape."""
    table = np.asarray(table)
    _check_attention("neighborhood_weights", qkv.shape, table, cos, sin, heads)
    weights = _attend(qkv, table, cos, sin, heads)[4]
    return np.ascontiguousarray(np.moveaxis(weights, 0, 1))


# ---------------------------------------------------------------------------
# convolution: cached slab plans for im2col and col2im
# ---------------------------------------------------------------------------

_PLAN_CACHE: dict = {}


class _ConvPlan(NamedTuple):
    """Slices that lower one conv geometry to a (C*K, P) column matrix.

    The columns are channel-tap-major: row c*K + k holds tap k of channel c
    at every output cell p, with K and P enumerating (k...) and (out...) in
    C order.  Tap k of output o reads padded position o*stride + k on each
    axis.
    """
    outs: tuple  # output extents
    padded: tuple  # extents of the padded input the taps read
    pad_copies: tuple  # (padded index, input index) pairs
    taps: tuple  # per tap k, the index of its strided slab in the padded input
    slabs: tuple  # (cell index, column index) per col2im add, in add order


def _axis_runs(extent: int, kernel: int, stride: int, pad_pair: tuple[int, int], wrap: bool):
    """One spatial axis: (out extent, padded extent, runs).

    A run (q, cell, n) places input cells cell..cell+n-1 at padded positions
    q..q+n-1; positions in no run are zero pads.  A wrapped axis (circular
    longitude, centred taps) holds cell (q - lead) mod extent at q and splits
    a run wherever that wraps; an unwrapped axis holds the input once, after
    its leading pad.
    """
    if wrap:
        if extent % stride != 0:
            raise ShapeError(f"conv: wrapped extent {extent} not divisible by stride {stride}")
        out, lead = extent // stride, (kernel - 1) // 2
    else:
        lead = pad_pair[0]
        out = (extent + lead + pad_pair[1] - kernel) // stride + 1
        if out <= 0:
            raise ShapeError(f"conv: kernel {kernel} too large for extent {extent} with pads {pad_pair}")
    padded = (out - 1) * stride + kernel
    runs = []
    if wrap:
        q = 0
        while q < padded:
            cell = (q - lead) % extent
            n = min(extent - cell, padded - q)
            runs.append((q, cell, n))
            q += n
    elif padded > lead:
        runs.append((lead, 0, min(extent, padded - lead)))
    return out, padded, runs


def _tap_runs(t: int, stride: int, out: int, runs):
    """col2im runs of tap t on one axis: (order key, cell slice, out slice).

    Outputs lo..hi-1 of the tap land in one pad run, so on cells spaced by
    the stride.  The key d - t, with d = q - cell the run's offset, grows
    with the output index o = (cell + d - t) / stride that any one cell
    receives from the run.
    """
    found = []
    for q, cell, n in runs:
        lo = max(0, -((t - q) // stride))
        hi = min(out, -((t - q - n) // stride))
        if lo < hi:
            c0 = cell + t + lo * stride - q
            found.append((q - cell - t, slice(c0, c0 + (hi - lo - 1) * stride + 1, stride),
                          slice(lo, hi)))
    return found


def _conv_plan(extents, kernel, stride, pads, wrap) -> _ConvPlan:
    """Cached _ConvPlan of one geometry; holds slices only, no index arrays.

    im2col pads the input with pad_copies, then copies one strided slab per
    tap.  col2im adds one slab per combination of per-axis tap runs: one per
    tap on an unwrapped axis, at most two on a wrapped one, where a tap's
    outputs span less than one extent.
    Slab order contract: every cell sums its contributions from +0.0 by
    ascending output index p, then ascending tap k, the order of an
    np.add.at scatter.  Hence the slabs are sorted by every axis's run key
    first, then by the taps; on an unwrapped axis that is descending taps.
    Sorting axis by axis, key then tap, is wrong once a kernel is wider than
    a wrapped extent.
    """
    key = (tuple(extents), tuple(kernel), tuple(stride), tuple(pads), tuple(wrap))
    hit = _PLAN_CACHE.get(key)
    if hit is not None:
        return hit
    axes = [_axis_runs(*args) for args in zip(*key)]
    outs = tuple(a[0] for a in axes)
    padded = tuple(a[1] for a in axes)
    pad_copies = tuple(
        ((slice(None),) + tuple(slice(q, q + n) for q, _, n in combo),
         (slice(None),) + tuple(slice(c, c + n) for _, c, n in combo))
        for combo in itertools.product(*(runs for _, _, runs in axes)))
    tap_grid = list(itertools.product(*(range(k) for k in kernel)))
    taps = tuple((slice(None),) + tuple(slice(t, t + (o - 1) * s + 1, s)
                                        for t, s, o in zip(tap, stride, outs))
                 for tap in tap_grid)
    ordered = []
    for k, tap in enumerate(tap_grid):
        per_axis = [_tap_runs(t, s, o, runs)
                    for t, s, (o, _, runs) in zip(tap, stride, axes)]
        for combo in itertools.product(*per_axis):
            order = tuple(r[0] for r in combo) + tap
            cells = (slice(None),) + tuple(r[1] for r in combo)
            col = (slice(None), k) + tuple(r[2] for r in combo)
            ordered.append((order, cells, col))
    ordered.sort(key=lambda r: r[0])
    plan = _ConvPlan(outs, padded, pad_copies, taps, tuple(r[1:] for r in ordered))
    _PLAN_CACHE[key] = plan
    return plan


def _conv_args(op, x, w, b, in_axis, stride, pads, wrap):
    """Check a conv's operands, w's input channels on in_axis; n is the spatial rank."""
    x._check_alive(op)
    w._check_alive(op)
    n = w.values.ndim - 2
    if n not in (2, 3):
        raise ShapeError(f"{op}: expected 2 or 3 spatial dims, got weight shape {w.shape}")
    c_in, c_out = w.shape[in_axis], w.shape[1 - in_axis]
    if x.values.ndim not in (n + 1, n + 2):
        raise ShapeError(f"{op}: input shape {x.shape} is not ([B,] C, *S) for {n} spatial dims")
    if x.shape[-n - 1] != c_in:
        raise ShapeError(f"{op}: input channels {x.shape[-n - 1]} != weight channels {c_in}")
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"{op}: bias {b.shape} must be ({c_out},)")
    stride = (stride,) * n if isinstance(stride, int) else tuple(stride)
    if pads is None:
        pads = ((0, 0),) * n
    pads = tuple((p, p) if isinstance(p, int) else tuple(p) for p in pads)
    wrap = (False,) * n if wrap is None else tuple(wrap)
    if not (len(stride) == len(pads) == len(wrap) == n):
        raise ShapeError(f"{op}: stride/pads/wrap must have {n} entries")
    return n, c_in, c_out, stride, pads, wrap


def _gather_cols(xv: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """im2col: (C, *S) -> (C*K, P) column matrix, one strided slab copy per tap.

    The input is padded once, into a zeroed buffer, by slice copies; taps
    outside an unwrapped axis read those +0.0 pads.
    """
    c = xv.shape[0]
    xp = np.zeros((c,) + plan.padded)
    for dst, src in plan.pad_copies:
        xp[dst] = xv[src]
    cols = np.empty((c, len(plan.taps)) + plan.outs)
    for k, tap in enumerate(plan.taps):
        cols[:, k] = xp[tap]
    return cols.reshape(c * len(plan.taps), -1)


def _scatter_cols(gcols: np.ndarray, c_in: int, extents, plan: _ConvPlan) -> np.ndarray:
    """col2im: (C*K, P) -> (C, *S) scatter-add, the adjoint of _gather_cols.

    Strided slab adds in the plan's order, so every cell is bitwise what an
    np.add.at scatter in (p, k) order gives; pad taps are dropped.
    """
    vals = gcols.reshape((c_in, len(plan.taps)) + plan.outs)
    out = np.zeros((c_in,) + tuple(extents))
    for cells, col in plan.slabs:
        dst = out[cells]
        np.add(dst, vals[col], out=dst)
    return out


def conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None, wrap=None) -> Tensor:
    """N-d convolution (N = 2 or 3), channels-first.

    x: ([B,] C_in, *S), batched when its rank says so; w: (C_out, C_in, *K).
    Wrapped axes convolve circularly with centered taps, other axes honor
    explicit (before, after) zero pads.  Each batch entry gets its own im2col
    and GEMM; one stacked GEMM over the batch is slower.  The backward hands
    acc the entries' weight and bias gradients last entry first, the order a
    sweep reaches B unbatched convs in, so every sum is bitwise theirs.
    """
    n, c_in, c_out, stride, pads, wrap = _conv_args("conv", x, w, b, 1, stride, pads, wrap)
    plan = _conv_plan(x.shape[-n:], w.shape[2:], stride, pads, wrap)
    outs = plan.outs
    wmat = w.values.reshape(c_out, -1)
    out = np.empty(x.shape[:-n - 1] + (c_out,) + outs)
    # The GEMMs here and in the rule take the columns as a transposed view, so
    # BLAS sees the operand roles of a (P, C_in*K) im2col; swapping the roles
    # (wmat @ cols) rounds differently on some shapes.
    for xi, oi in zip(x.values.reshape((-1,) + x.shape[-n - 1:]), out.reshape((-1, c_out) + outs)):
        y = _gather_cols(xi, plan).T @ wmat.T  # (P, C_out)
        if b is not None:
            y += b.values
        oi[...] = y.reshape(outs + (c_out,)).transpose((n,) + tuple(range(n)))

    parents = (x, w) if b is None else (x, w, b)

    def rule(g, saved, acc):
        (xv,) = saved
        xb = xv.reshape((-1,) + xv.shape[-n - 1:])
        gb = g.reshape(len(xb), c_out, -1)  # (B, C_out, P)
        gx = np.empty(xb.shape) if x.requires_grad else None  # the stems' input is data
        for i in reversed(range(len(xb))):
            acc(w, (gb[i] @ _gather_cols(xb[i], plan).T).reshape(w.shape))
            if b is not None:
                acc(b, gb[i].T.sum(axis=0))
            if gx is not None:
                gx[i] = _scatter_cols(wmat.T @ gb[i], c_in, xv.shape[-n:], plan)
        if gx is not None:
            acc(x, gx.reshape(xv.shape))

    return _record("conv", out, parents, (x.values,), rule)


def conv_transpose(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None,
                   wrap=None, out_extents=None) -> Tensor:
    """Transposed N-d convolution: the exact adjoint of `conv`'s input map.

    x: ([B,] C_in, *S_small); w: (C_in, C_out, *K); output
    ([B,] C_out, *out_extents), where conv(out_extents -> S_small) under the
    same kernel/stride/pads/wrap geometry must reproduce S_small.  Batch
    entries and their gradients run as in conv.
    """
    n, c_in, c_out, stride, pads, wrap = _conv_args("conv_transpose", x, w, b, 0, stride,
                                                    pads, wrap)
    if out_extents is None:
        raise ShapeError("conv_transpose: out_extents is required")
    out_extents = tuple(out_extents)
    plan = _conv_plan(out_extents, w.shape[2:], stride, pads, wrap)
    if plan.outs != x.shape[-n:]:
        raise ShapeError(
            f"conv_transpose: adjoint geometry maps {out_extents} -> {plan.outs}, "
            f"but input spatial extents are {x.shape[-n:]}")

    # w rows are channel-major over kernel taps, matching _scatter_cols layout;
    # the GEMMs use transposed views as in conv
    wmat = w.values.reshape(c_in, -1)  # (C_in, C_out*K)
    out = np.empty(x.shape[:-n - 1] + (c_out,) + out_extents)
    for xi, oi in zip(x.values.reshape(-1, c_in, math.prod(plan.outs)),
                      out.reshape((-1, c_out) + out_extents)):
        oi[...] = _scatter_cols(wmat.T @ xi, c_out, out_extents, plan)
    if b is not None:
        out += b.values.reshape((c_out,) + (1,) * n)

    parents = (x, w) if b is None else (x, w, b)

    def rule(g, saved, acc):
        (xv,) = saved
        gb = g.reshape((-1, c_out) + out_extents)
        xb = xv.reshape(len(gb), c_in, -1)  # (B, C_in, P)
        gx = np.empty(xb.shape)
        for i in reversed(range(len(gb))):
            gcols = _gather_cols(gb[i], plan)  # (C_out*K, P)
            gx[i] = (gcols.T @ wmat.T).T
            acc(w, (xb[i] @ gcols.T).reshape(w.shape))
            if b is not None:
                acc(b, gb[i].sum(axis=tuple(range(1, n + 1))))
        acc(x, gx.reshape(xv.shape))

    return _record("conv_transpose", out, parents, (x.values,), rule)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------

def _topo(root: Tensor) -> list[tuple[Tensor, TapeNode]]:
    """Tensors with nodes reachable from root, each exactly once, oldest first.

    Creation order is a topological order, since a node is made after its
    parents.  Sweeping it in reverse, rather than in a search order, adds a
    leaf's gradient terms in the reverse of the order the graph was built
    in, so a chain gives the same sums whether or not parts of it ran as
    checkpoint segments: a segment's recompute sweeps its own part of the
    chain at that same place.
    """
    found: dict[int, tuple[Tensor, TapeNode]] = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in found:
            continue
        found[id(t)] = (t, t.node)
        stack.extend(t.node.parents)
    return sorted(found.values(), key=lambda item: item[1].gen)


def _backward_impl(root: Tensor, seed: np.ndarray, min_gen: int = 0):
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
    grads = _backward_impl(root, seed)
    if leaves is not None:
        for t in leaves:
            if t.requires_grad and t not in grads:
                grads[t] = np.zeros_like(t.values)
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
    copies it into one of its slots instead, so the tape pins nothing.
    Under no_grad this is fn(x) and the store is not touched.

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
                sub = _backward_impl(y_re, np.asarray(g, dtype=np.float64), min_gen=start_gen)
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
