"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Double-precision numpy arrays under the hood, a tape built implicitly out of
node references, and one segment-checkpoint mechanism that discards
intermediates on the forward pass and recomputes them during backward; a
segment's node pins its input.  All primitives are deterministic: two runs
over identical inputs produce bitwise-identical outputs and gradients, which
is what lets checkpointed and non-checkpointed executions be compared
exactly.

The graph holds only what backward reads.  A node keeps a slot per parent
(the parent's node for an intermediate, the tensor itself for a leaf that
wants a gradient, None for a constant) plus the arrays its rule saved, and
no rule closes over a Tensor.  So an intermediate's buffer frees as soon as
its caller drops it, unless a rule saved it.

Conventions:
  * values are always float64, C-contiguous, and owned by their Tensor
  * graphs are built and differentiated on a single thread
  * gradients are plain numpy arrays, never Tensors
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

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
    """Misuse of the tape: non-scalar root, repeated backward, segment escape."""


class _State:
    def __init__(self):
        self.grad_enabled = True
        self.stats = TapeStats()


class TapeStats:
    """Counters over the implicit tape, for residency instrumentation.

    saved_current counts the buffers tape nodes currently pin for use in
    backward, each once per node however many of its saved arrays view it;
    a None in a node's saved tuple is an operand its rule does not need, and
    counts as nothing.  saved_bytes_current and saved_bytes_peak meter their
    bytes, less the values of a node's leaf parents: the node holds such a
    leaf (a parameter, say) as its slot, so saving its values costs the
    graph nothing more.  A node releases what this meter counted for it when
    it was recorded, and nothing if the meter was reset since, so a reset
    while a graph lives never drives the counters negative.
    """

    def __init__(self, epoch: int = 0):
        self.epoch = epoch
        self.nodes_created = 0
        self.saved_current = 0
        self.saved_bytes_current = 0
        self.saved_bytes_peak = 0

    @staticmethod
    def _buffers(saved, parents) -> dict:
        """{id(buffer): metered bytes} of the buffers a node's saved arrays view."""
        lent = {id(p.values) for p in parents if isinstance(p, Tensor)}
        held = {}
        for a in saved:
            if a is not None:
                while a.base is not None:  # a saved view pins its whole base
                    a = a.base
                held[id(a)] = 0 if id(a) in lent else a.nbytes
        return held

    def _on_save(self, saved, parents) -> tuple:
        """Meter a node's saved buffers; returns (epoch, count, bytes) for release."""
        held = self._buffers(saved, parents)
        count, nbytes = len(held), sum(held.values())
        self.saved_current += count
        self.saved_bytes_current += nbytes
        self.saved_bytes_peak = max(self.saved_bytes_peak, self.saved_bytes_current)
        return self.epoch, count, nbytes

    def _on_release(self, metered: tuple):
        epoch, count, nbytes = metered
        if epoch == self.epoch:
            self.saved_current -= count
            self.saved_bytes_current -= nbytes

    def reset(self):
        self.__init__(self.epoch + 1)


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
    """One recorded primitive application: parent slots plus saved arrays.

    parents holds one slot per input (see _slots): the input's own node, the
    input tensor if it is a leaf that wants a gradient, or None; graph edges
    point backward only, and no node holds an intermediate Tensor.  saved
    holds the numpy arrays the backward rule reads, None where it reads
    nothing.  rule is called as rule(grad_out, saved, add), where add(slot,
    grad) accumulates into a parent's gradient; it closes over slots and
    shapes only.  gen orders node creation so a checkpoint recompute can
    detect escapes into an older graph; metered is what the tape meter
    counted for saved.  A swept node drops saved, parents and rule, so the
    graph behind a root frees while the root lives.
    """

    __slots__ = ("op", "parents", "saved", "rule", "consumed", "gen", "metered")

    def __init__(self, op: str, parents, saved, rule):
        global _GEN
        _GEN += 1
        self.gen = _GEN
        self.op = op
        self.parents = tuple(parents)
        self.saved = tuple(saved)
        self.rule = rule
        self.consumed = False
        st = _state.stats
        st.nodes_created += 1
        if self.saved:
            self.metered = st._on_save(self.saved, self.parents)

    def release(self):
        if self.saved:
            _state.stats._on_release(self.metered)
            self.saved = ()
        self.parents = ()
        self.rule = None


def _own(values, copy: bool) -> np.ndarray:
    # The copy of a view also realigns it: most parameter views into an LMTW
    # buffer sit at unaligned offsets (220 of 260 in a desk file), and
    # tensors over them in place made forecasts slower.
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


def _slot(t: Tensor):
    """What a node keeps of a parent: its node, the tensor if a grad leaf, else None."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _slots(*parents: Tensor) -> tuple | None:
    """The parents' slots if a primitive over them records a node, else None.

    A primitive that gets None returns its output as a plain Tensor and
    builds no rule and no saved arrays, so under no_grad it does no work for
    the tape.
    """
    if not _state.grad_enabled:
        return None
    slots = tuple(map(_slot, parents))
    return slots if any(s is not None for s in slots) else None


def _record(op: str, out_values, slots: tuple, saved, rule) -> Tensor:
    return Tensor(out_values, requires_grad=True, node=TapeNode(op, slots, saved, rule),
                  copy=False)


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

def _cross_saved(a: Tensor, b: Tensor, slots: tuple) -> tuple:
    """(a's values, b's values) for a product rule, each only if the other side needs it."""
    sa, sb = slots
    return (a.values if sb is not None else None, b.values if sa is not None else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    slots = _slots(a, b)
    if slots is None:
        return Tensor(out, copy=False)
    (sa, sb), a_shape, b_shape = slots, a.shape, b.shape

    def rule(g, saved, acc):
        acc(sa, _unbroadcast(g, a_shape))
        acc(sb, _unbroadcast(g, b_shape))

    return _record("add", out, slots, (), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    slots = _slots(a, b)
    if slots is None:
        return Tensor(out, copy=False)
    (sa, sb), a_shape, b_shape = slots, a.shape, b.shape

    def rule(g, saved, acc):
        av, bv = saved
        if sa is not None:
            acc(sa, _unbroadcast(g * bv, a_shape))
        if sb is not None:
            acc(sb, _unbroadcast(g * av, b_shape))

    return _record("mul", out, slots, _cross_saved(a, b, slots), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.values, b.values)
    except ValueError:
        raise ShapeError(f"matmul: batch extents do not broadcast, {a.shape} @ {b.shape}") from None
    slots = _slots(a, b)
    if slots is None:
        return Tensor(out, copy=False)
    (sa, sb), a_shape, b_shape = slots, a.shape, b.shape

    def rule(g, saved, acc):
        av, bv = saved
        if sa is not None:
            acc(sa, _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), a_shape))
        if sb is not None:
            acc(sb, _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), b_shape))

    return _record("matmul", out, slots, _cross_saved(a, b, slots), rule)


# erf from a table of Taylor coefficients about the nodes a = i / _ERF_STEP
# on [0, _ERF_TOP]: erf(a + d) = sum_k c_k(a) d^k with c_0 = erf(a) and
# c_k = (2/sqrt(pi)) (-1)^(k-1) H_(k-1)(a) e^(-a^2) / k!, H the Hermite
# polynomials.  With |d| <= 1/2048, six terms leave a truncation error far
# below an ulp, and beyond 6 erf rounds to 1.  The table is 288 KiB; finer
# grids with fewer terms were as fast alone but slowed the model around them.
_ERF_STEP = 1024
_ERF_TOP = 6.0
_ERF_TERMS = 6
_ERF_CHUNK = 1 << 14  # elements per pass; the scratch buffers stay in L2
# Doubles near _ERF_ROUND are 1/_ERF_STEP apart, so adding it to v in
# [0, 6] rounds v to the nearest node, and the sum's bit pattern, less
# _ERF_BITS, is that node's column in the table.
_ERF_ROUND = 1.5 * 2.0 ** 52 / _ERF_STEP
_ERF_BITS = int(np.float64(_ERF_ROUND).view(np.int64))


def _erf_taylor_table() -> np.ndarray:
    """(terms, nodes) array whose row k holds c_k at every node."""
    a = np.arange(int(_ERF_TOP * _ERF_STEP) + 1) / _ERF_STEP
    hermite = [np.ones_like(a), 2.0 * a]
    for k in range(1, _ERF_TERMS - 2):
        hermite.append(2.0 * a * hermite[k] - 2.0 * k * hermite[k - 1])
    slope = (2.0 / math.sqrt(math.pi)) * np.exp(-a * a)
    rows = [np.fromiter(map(math.erf, a.tolist()), np.float64, a.size)]
    rows += [(-1) ** (k - 1) * hermite[k - 1] * slope / math.factorial(k)
             for k in range(1, _ERF_TERMS)]
    return np.array(rows)


_ERF_TABLE = _erf_taylor_table()


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float64 array, to within 2.3e-16.

    Odd, so +-0 keep their sign; +-inf give +-1 and NaN gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    m = min(flat_x.size, _ERF_CHUNK)
    d_buf, t_buf, i_buf = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
    for s in range(0, flat_x.size, _ERF_CHUNK):
        xs, acc = flat_x[s:s + _ERF_CHUNK], flat_out[s:s + _ERF_CHUNK]
        d, t, node = d_buf[:xs.size], t_buf[:xs.size], i_buf[:xs.size]
        np.abs(xs, out=d)
        np.minimum(d, _ERF_TOP, out=d)  # NaN stays NaN
        np.add(d, _ERF_ROUND, out=t)
        # a NaN's column is garbage; take's clip mode keeps it in the table
        np.subtract(t.view(np.int64), _ERF_BITS, out=node)
        t -= _ERF_ROUND  # the node
        d -= t  # the offset from the node, exact
        np.take(_ERF_TABLE[-1], node, out=acc, mode="clip")
        for c in _ERF_TABLE[-2::-1]:
            acc *= d
            np.take(c, node, out=t, mode="clip")
            acc += t
        np.copysign(acc, xs, out=acc)
    return out


def gelu(x: Tensor) -> Tensor:
    xv = x.values
    cdf = erf(xv * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = xv * cdf
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    # the one saved array, the derivative: neither x nor cdf stays pinned
    d = cdf + xv * np.exp(-0.5 * xv * xv) * _INV_SQRT2PI
    (sx,) = slots

    def rule(g, saved, acc):
        acc(sx, g * saved[0])

    return _record("gelu", out, slots, (d,), rule)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xv = x.values
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,) = slots

    def rule(g, saved, acc):
        (p,) = saved
        dot = (g * p).sum(axis=axis, keepdims=True)
        acc(sx, p * (g - dot))

    return _record("softmax", out, slots, (out,), rule)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
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
    slots = _slots(x, gain, bias)
    if slots is None:
        return Tensor(out, copy=False)
    sx, sg, sb = slots

    def rule(g, saved, acc):
        xh, iv, gv = saved
        lead = tuple(range(g.ndim - 1))
        acc(sb, g.sum(axis=lead))
        acc(sg, (g * xh).sum(axis=lead))
        gx = g * gv
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xh).mean(axis=-1, keepdims=True)
        acc(sx, iv * (gx - m1 - xh * m2))

    return _record("layernorm", out, slots, (xhat, inv, gain.values), rule)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.values.sum(axis=axis, keepdims=keepdims)
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,), shape = slots, x.shape

    def rule(g, saved, acc):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for a in sorted(a % len(shape) for a in axes):
                gg = np.expand_dims(gg, a)
        acc(sx, np.broadcast_to(gg, shape).copy() if gg.shape != shape else gg)

    return _record("sum", out, slots, (), rule)


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
    try:
        out = x.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,), x_shape = slots, x.shape

    def rule(g, saved, acc):
        acc(sx, _contig(np.asarray(g).reshape(x_shape)))

    return _record("reshape", out, slots, (), rule)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(a % x.values.ndim for a in axes) != list(range(x.values.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for rank {x.values.ndim}")
    out = np.transpose(x.values, axes)
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,), inv = slots, np.argsort(np.asarray(axes) % x.values.ndim)

    def rule(g, saved, acc):
        acc(sx, np.ascontiguousarray(np.transpose(g, inv)))

    return _record("transpose", out, slots, (), rule)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} along axis {axis}") from None
    slots = _slots(*tensors)
    if slots is None:
        return Tensor(out, copy=False)
    sizes = [t.shape[axis] for t in tensors]

    def rule(g, saved, acc):
        start = 0
        for st, s in zip(slots, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            acc(st, np.ascontiguousarray(g[tuple(sl)]))
            start += s

    return _record("concat", out, slots, (), rule)


def getitem(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing with a scatter backward."""
    out = x.values[key]
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,), x_shape = slots, x.shape

    def rule(g, saved, acc):
        gx = np.zeros(x_shape)
        gx[key] += g
        acc(sx, gx)

    return _record("getitem", out, slots, (), rule)


def take(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of x along axis 0 by an integer index array.

    Output shape is idx.shape + x.shape[1:]; the backward scatter-adds each
    gradient row into row idx[i] with one np.bincount over flat cell numbers.
    That adds each cell's values one at a time from +0.0 in the C order of
    idx, as numpy's unbuffered np.add.at does, so repeated indices sum
    deterministically and bitwise equal to that scatter.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take: index out of range for extent {x.shape[0]}")
    out = x.values[idx]
    slots = _slots(x)
    if slots is None:
        return Tensor(out, copy=False)
    (sx,), x_shape = slots, x.shape

    def rule(g, saved, acc):
        row = math.prod(x_shape[1:])
        cells = idx[..., None] * row + np.arange(row)
        gx = np.bincount(cells.ravel(), weights=g.ravel(), minlength=math.prod(x_shape))
        acc(sx, gx.astype(np.float64, copy=False).reshape(x_shape))  # int when idx is empty

    return _record("take", out, slots, (), rule)


# ---------------------------------------------------------------------------
# neighborhood attention
# ---------------------------------------------------------------------------

def _rotate(x1: np.ndarray, x2: np.ndarray, cos: np.ndarray, sin: np.ndarray,
            out: np.ndarray, tmp: np.ndarray) -> None:
    """Rotate the pairs (x1, x2) into (out[0], out[1]) = (x1 cos - x2 sin, x1 sin + x2 cos)."""
    np.multiply(x1, cos, out=out[0])
    out[0] -= np.multiply(x2, sin, out=tmp)
    np.multiply(x1, sin, out=out[1])
    out[1] += np.multiply(x2, cos, out=tmp)


def _unrotate(g: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The inverse rotation of halves g[0], g[1]: (x1 cos + x2 sin, x2 cos - x1 sin).

    Bitwise _rotate at phases -sin, with no negated table.
    """
    np.multiply(g[0], cos, out=out[0])
    out[0] += g[1] * sin
    np.multiply(g[1], cos, out=out[1])
    out[1] -= g[0] * sin
    return out


def _rotate_qk(qkv: np.ndarray, plan, q: np.ndarray, k: np.ndarray, scratch: np.ndarray):
    """Rotate qkv's queries, scaled, into q (heads, T, C, dh) and its keys into k (heads, T, dh).

    One gather through plan.qk_cols lays q's and k's columns out in (half,
    head, pair) order, so each rotation runs on plain column slices, against
    phases tiled across heads, in passes heads * dh/2 long.  The gather and
    the rotations work in scratch, a flat float64 buffer, when it is large
    enough, and in a buffer of their own when it is not.
    """
    t, taps, h, half = plan.cos_q.shape
    n, dh = h * half, 2 * half
    cut = np.cumsum([4 * t * n, 2 * t * taps * n, t * taps * n])
    if scratch.size < cut[-1]:
        scratch = np.empty(cut[-1])
    qk = scratch[:cut[0]].reshape(t, 4 * n)
    rot, tmp = scratch[cut[0]:cut[1]], scratch[cut[1]:cut[2]]
    np.take(qkv, plan.qk_cols, axis=1, out=qk, mode="clip")  # "raise" would buffer out
    q1, q2, k1, k2 = (qk[:, i * n:(i + 1) * n] for i in range(4))
    _rotate(q1[:, None], q2[:, None], plan.cos_q.reshape(t, taps, n),
            plan.sin_q.reshape(t, taps, n), rot.reshape(2, t, taps, n), tmp.reshape(t, taps, n))
    np.multiply(rot.reshape(2, t, taps, h, half).transpose(3, 1, 2, 0, 4), 1.0 / math.sqrt(dh),
                out=q.reshape(h, t, taps, 2, half))
    rot = rot[:2 * t * n].reshape(2, t, n)
    _rotate(k1, k2, plan.cos_k.reshape(t, n), plan.sin_k.reshape(t, n), rot,
            tmp[:t * n].reshape(t, n))
    k.reshape(h, t, 2, half)[...] = rot.reshape(2, t, h, half).transpose(2, 1, 0, 3)


def _attend(op: str, qkv: np.ndarray, plan, heads: int):
    """numpy forward of neighborhood_attention.

    Checks qkv against the plan.  The rotations run in (half, head, pair)
    column order (_rotate_qk); scores, softmax and context run in the
    (heads, T, K, dh) layout.  Returns the context (T, dim) and what the
    backward keeps: the rotated, scaled queries q (heads, T, C, dh), the
    rotated keys k and the values v (heads, T, dh), and the softmax weights
    (heads, T, K).
    """
    table = plan.table
    t, taps, h, half = plan.cos_q.shape
    dh = 2 * half
    if heads != h or qkv.shape != (t, 3 * h * dh):
        raise ShapeError(f"{op}: qkv {qkv.shape} with {heads} heads is not the plan's "
                         f"({t}, 3 * {h} heads * {dh})")
    q, k = np.empty((h, t, taps, dh)), np.empty((h, t, dh))
    v = np.ascontiguousarray(qkv[:, 2 * h * dh:].reshape(t, h, dh).transpose(1, 0, 2))
    # the key gather's buffer is the rotations' scratch until the gather fills it;
    # a forward with separate scratch buffers left the train warm-up's freed
    # graph resident (desk train peak RSS 208, not 189 MiB)
    kn = np.empty((h, t, table.shape[1], dh))
    _rotate_qk(qkv, plan, q, k, kn.reshape(-1))
    np.take(k, table, axis=1, out=kn, mode="clip")
    weights = np.einsum("htcmd,htcd->htcm", kn.reshape(h, t, taps, -1, dh), q)  # per column tap
    weights = weights.reshape(h, t, -1)  # softmaxed in place
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = np.matmul(weights[:, :, None, :], np.take(v, table, axis=1))  # (heads, T, 1, dh)
    out = np.ascontiguousarray(ctx.reshape(h, t, dh).transpose(1, 0, 2)).reshape(t, -1)
    return out, q, k, v, weights


def neighborhood_attention(qkv: Tensor, plan, heads: int) -> Tensor:
    """Rotary neighborhood attention from a fused projection, as one tape node.

    qkv (T, 3*dim) holds the query, key and value projections side by side,
    each split into heads of dh = dim / heads features.  plan is the
    geometry's attention.AttentionPlan for this head split, built and checked
    once; only qkv's shape and heads are checked here.  Token t attends to
    the K tokens plan.table[t], which split into C runs, one per column tap.
    The query of t takes the rotary phases plan.cos_q/sin_q[t, c] against run
    c, and each key its own token's phases at the centre tap (C - 1) // 2;
    attention.rotary_tables explains them.  Scores carry the 1/sqrt(dh)
    scale, a shifted softmax over the K neighbors weights the values, and the
    context (T, dim) is returned.

    Recording the node fetches plan.backward(), the tables only backward
    reads.  Backward keeps only the rotated q, k, v and the weights, gathers
    the neighbors again, and sums each key's and value's gradient over the
    window positions the inverse table lists, ascending, in one batched dot:
    no scatter, no sort, and a token in several windows sums in a fixed
    order.  The inverse rotations run in the forward's (half, head, pair)
    order and write back through plan.qk_cols.
    """
    out, q, k, v, weights = _attend("neighborhood_attention", qkv.values, plan, heads)
    slots = _slots(qkv)
    if slots is None:
        return Tensor(out, copy=False)
    (sqkv,), t, back = slots, qkv.shape[0], plan.backward()

    def rule(g, saved, acc):
        q, k, v, w = saved
        h, _, taps, dh = q.shape
        half, n = dh // 2, h * dh // 2
        g4 = g.reshape(t, h, dh).transpose(1, 0, 2)  # (heads, T, dh) view
        kn = np.take(k, plan.table, axis=1)
        vn = np.take(v, plan.table, axis=1)
        gw = np.matmul(vn, g4[..., None])[..., 0]
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gq = np.matmul(gs.reshape(h, t, taps, 1, -1), kn.reshape(h, t, taps, -1, dh))[..., 0, :]
        halves = np.empty((2, t, taps, n))  # (half, T, C, head * pair)
        np.multiply(gq.reshape(h, t, taps, 2, half).transpose(3, 1, 2, 0, 4),
                    1.0 / math.sqrt(dh), out=halves.reshape(2, t, taps, h, half))
        gqk = np.empty((t, 4, n))  # q's, then k's gradient halves, in qk_cols order
        _unrotate(halves, plan.cos_q.reshape(t, taps, n), plan.sin_q.reshape(t, taps, n),
                  np.empty(halves.shape)).sum(axis=2, out=gqk[:, :2].transpose(1, 0, 2))
        # each key and value sums its neighbor gradients over the (t, j) that
        # hold it, ascending, as one batched dot with padding zeros
        pad, zero_row = np.zeros((h, 1)), np.zeros((h, 1, dh))
        gs_t = np.concatenate([gs.reshape(h, -1), pad], axis=1)[:, back.inverse]
        w_t = np.concatenate([w.reshape(h, -1), pad], axis=1)[:, back.inverse]
        q_rows = np.concatenate([q.reshape(h, -1, dh), zero_row], axis=1)
        g_rows = np.concatenate([g4, zero_row], axis=1)
        gk = np.matmul(gs_t[:, :, None, :], np.take(q_rows, back.q_row, axis=1))
        gv = np.matmul(w_t[:, :, None, :], np.take(g_rows, back.src, axis=1))
        halves = np.empty((2, t, n))
        halves.reshape(2, t, h, half)[...] = gk.reshape(h, t, 2, half).transpose(2, 1, 0, 3)
        _unrotate(halves, plan.cos_k.reshape(t, n), plan.sin_k.reshape(t, n),
                  gqk[:, 2:].transpose(1, 0, 2))
        gqkv = np.empty((t, 6 * n))
        gqkv[:, plan.qk_cols] = gqk.reshape(t, -1)
        gqkv.reshape(t, 3, h, dh)[:, 2] = gv.reshape(h, t, dh).transpose(1, 0, 2)
        acc(sqkv, gqkv)

    return _record("neighborhood_attention", out, slots, (q, k, v, weights), rule)


def neighborhood_weights(qkv: np.ndarray, plan, heads: int) -> np.ndarray:
    """Softmax weights (T, heads, K) of neighborhood_attention, no tape."""
    weights = _attend("neighborhood_weights", qkv, plan, heads)[4]
    return np.ascontiguousarray(np.moveaxis(weights, 0, 1))


# ---------------------------------------------------------------------------
# convolution: one GEMM per kernel tap on a padded buffer
# ---------------------------------------------------------------------------

class _Geometry(NamedTuple):
    """A 2-D conv from input (H, W) to output (Ho, Wo), by polyphase spans.

    Each batch entry is padded once into a (C, s*Hq, s*Wq) buffer and split
    into its s*s stride phases, phase (a, b) = buffer[:, a::s, b::s] read
    flat.  Tap (i, j) of output (oy, ox) reads padded cell
    (oy*s + i, ox*s + j), which is position (i//s)*Wq + j//s + oy*Wq + ox of
    phase (i % s, j % s).  So every tap is one GEMM over a contiguous span of
    `span` elements of one phase; span element oy*Wq + ox serves output
    (oy, ox), and those with ox >= Wo fall between output rows and are
    computed, then cropped.  At stride 1 the one phase is the buffer.
    """
    extents: tuple  # input (H, W)
    kernel: tuple  # (kh, kw)
    stride: int
    outs: tuple  # output (Ho, Wo)
    runs: tuple  # per axis, the pad runs of _axis_runs
    phase: tuple  # (Hq, Wq), the padded extents over the stride, rounded up
    span: int  # (Ho - 1)*Wq + Wo


def _axis_runs(extent: int, kernel: int, stride: int, pad_pair: tuple[int, int], wrap: bool):
    """One spatial axis: (out extent, padded extent, runs).

    A run (q, cell, n) places input cells cell..cell+n-1 at padded positions
    q..q+n-1; positions in no run are zero pads.  A wrapped axis (circular
    longitude, centred taps) holds cell (q - lead) mod extent at every q and
    splits a run wherever that wraps; an unwrapped axis holds the input once,
    after its leading pad.
    """
    lead, trail = ((kernel - 1) // 2, kernel // 2) if wrap else pad_pair
    if wrap and extent % stride != 0:
        raise ShapeError(f"conv: wrapped extent {extent} not divisible by stride {stride}")
    out = (extent + lead + trail - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(f"conv: kernel {kernel} too large for extent {extent} with pads {pad_pair}")
    padded = (out - 1) * stride + kernel
    q, end = (0, padded) if wrap else (lead, min(padded, lead + extent))
    runs = []
    while q < end:
        cell = (q - lead) % extent
        runs.append((q, cell, min(extent - cell, end - q)))
        q += runs[-1][2]
    return out, padded, runs


def _conv_args(op, x, w, b, in_axis, extents, stride, pads, wrap) -> _Geometry:
    """Check a conv's operands, w's input channels on in_axis; the geometry from extents."""
    if w.values.ndim != 4:
        raise ShapeError(f"{op}: expected a 2-D kernel, got weight shape {w.shape}")
    if x.values.ndim not in (3, 4):
        raise ShapeError(f"{op}: input shape {x.shape} is not ([B,] C, H, W)")
    if x.shape[-3] != w.shape[in_axis]:
        raise ShapeError(f"{op}: input channels {x.shape[-3]} != weight channels {w.shape[in_axis]}")
    if b is not None and b.shape != (w.shape[1 - in_axis],):
        raise ShapeError(f"{op}: bias {b.shape} must be ({w.shape[1 - in_axis]},)")
    strides = tuple(stride) if np.ndim(stride) else (stride, stride)
    if len(strides) != 2 or strides[0] != strides[1] or strides[0] < 1:
        raise ShapeError(f"{op}: stride {stride} must be one positive int shared by both axes")
    pads = ((0, 0),) * 2 if pads is None else tuple(tuple(p) for p in pads)
    wrap = (False, False) if wrap is None else tuple(wrap)
    if len(pads) != 2 or len(wrap) != 2:
        raise ShapeError(f"{op}: pads and wrap must have 2 entries")
    s = int(strides[0])
    outs, padded, runs = zip(*map(_axis_runs, extents, w.shape[2:], (s, s), pads, wrap))
    phase = (-(-padded[0] // s), -(-padded[1] // s))
    return _Geometry(tuple(extents), w.shape[2:], s, outs, runs, phase,
                     (outs[0] - 1) * phase[1] + outs[1])


def _blocks(geo: _Geometry):
    """(padded block, input block) index pairs, one per row run and column run."""
    for qr, cr, nr in geo.runs[0]:
        for qc, cc, nc in geo.runs[1]:
            yield ((slice(None), slice(qr, qr + nr), slice(qc, qc + nc)),
                   (slice(None), slice(cr, cr + nr), slice(cc, cc + nc)))


def _taps(geo: _Geometry):
    """(i, j, p, slice) per tap: its span is phases[p][:, slice]."""
    s, wq = geo.stride, geo.phase[1]
    for i in range(geo.kernel[0]):
        for j in range(geo.kernel[1]):
            start = i // s * wq + j // s
            yield i, j, i % s * s + j % s, slice(start, start + geo.span)


def _phases(xv: np.ndarray, geo: _Geometry) -> np.ndarray:
    """(C, H, W) padded along the runs, zeros elsewhere: (s*s, C, Hq*Wq) stride phases.

    Every span is then a contiguous BLAS operand; at stride 1 this pads and
    copies nothing more.
    """
    c, s, (hq, wq) = xv.shape[0], geo.stride, geo.phase
    xp = np.zeros((c, s * hq, s * wq))
    for dst, src in _blocks(geo):
        xp[dst] = xv[src]
    return np.ascontiguousarray(
        xp.reshape(c, hq, s, wq, s).transpose(2, 4, 0, 1, 3)).reshape(s * s, c, hq * wq)


def _spread(g: np.ndarray, geo: _Geometry) -> np.ndarray:
    """(C, Ho, Wo) -> (C, span) in span layout: row pitch Wq, zeros between rows."""
    (ho, wo), wq = geo.outs, geo.phase[1]
    flat = np.zeros((g.shape[0], ho * wq))
    flat.reshape(-1, ho, wq)[:, :, :wo] = g
    return flat[:, :geo.span]


def _correlate(phases: np.ndarray, wt: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Sum over taps of wt[i, j] @ span, cropped to (C_o, Ho, Wo); wt is (kh, kw, C_o, C_i).

    The taps add into a contiguous (C_o, span) array, which a strided view
    with row pitch Wq crops: an add into a strided view ran 3x slower.
    """
    (ho, wo), wq = geo.outs, geo.phase[1]
    out = np.zeros((wt.shape[2], geo.span))
    for i, j, p, sl in _taps(geo):
        out += wt[i, j] @ phases[p][:, sl]
    return np.ndarray((out.shape[0], ho, wo), buffer=out,
                      strides=(out.strides[0], wq * out.itemsize, out.itemsize))


def _correlate_adjoint(span: np.ndarray, wt: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Adjoint of _correlate after _phases: (C_o, span) -> (C_i, H, W).

    wt[i, j].T @ span is added onto each tap's span of zeroed phases, which
    interleave back into the padded buffer; its runs are then added back
    onto the input cells.  Those adds stay strided: staging each product in
    a zero-gapped window and adding it in one contiguous pass per tap was
    bitwise, but won 14-30 % at small and mid shapes and lost 3-34 % at 40x80.
    """
    c, s, (hq, wq) = wt.shape[3], geo.stride, geo.phase
    phases = np.zeros((s * s, c, hq * wq))
    for i, j, p, sl in _taps(geo):
        phases[p][:, sl] += wt[i, j].T @ span
    xp = phases.reshape(s, s, c, hq, wq).transpose(2, 3, 0, 4, 1).reshape(c, s * hq, s * wq)
    out = np.zeros((c,) + geo.extents)
    for src, dst in _blocks(geo):
        out[dst] += xp[src]
    return out


def _conv_node(op: str, x: Tensor, w: Tensor, b: Tensor | None, geo: _Geometry,
               transposed: bool) -> Tensor:
    """Tape node of conv, or of conv_transpose when transposed; entries one at a time.

    conv_transpose is the adjoint of the conv that geo describes: its
    forward is that conv's input gradient, and its input gradient is that
    conv's forward.  Either way the weight gradient pairs the spread small
    side with the phases of the big side.  The backward hands acc the entries' weight and bias
    gradients last entry first, the order a sweep reaches B unbatched convs
    in, so every sum is bitwise theirs.
    """
    wt = np.ascontiguousarray(w.values.transpose(2, 3, 0, 1))  # (kh, kw, small C, big C)
    c_out = w.shape[int(transposed)]
    out_s = geo.extents if transposed else geo.outs
    out = np.empty(x.shape[:-3] + (c_out,) + out_s)
    for xi, oi in zip(x.values.reshape((-1,) + x.shape[-3:]), out.reshape((-1, c_out) + out_s)):
        oi[...] = (_correlate_adjoint(_spread(xi, geo), wt, geo) if transposed
                   else _correlate(_phases(xi, geo), wt, geo))
    if b is not None:
        out += b.values[:, None, None]
    slots = _slots(x, w) if b is None else _slots(x, w, b)
    if slots is None:
        return Tensor(out, copy=False)
    sx, sw, sb = slots if b is not None else slots + (None,)
    w_shape = w.shape

    def rule(g, saved, acc):
        (xv,) = saved
        xb = xv.reshape((-1,) + xv.shape[-3:])
        gb = g.reshape((len(xb), c_out) + out_s)
        gx = np.empty(xb.shape) if sx is not None else None  # the stems' input is data
        for i in reversed(range(len(xb))):
            small, big = (xb[i], gb[i]) if transposed else (gb[i], xb[i])
            span, phases = _spread(small, geo), _phases(big, geo)
            gw = np.empty(w_shape)  # span @ tap span.T per tap
            for ti, tj, p, sl in _taps(geo):
                gw[:, :, ti, tj] = span @ phases[p][:, sl].T
            acc(sw, gw)
            if sb is not None:
                acc(sb, gb[i].reshape(c_out, -1).T.sum(axis=0))
            if gx is not None:
                gx[i] = (_correlate(phases, wt, geo) if transposed
                         else _correlate_adjoint(span, wt, geo))
        if gx is not None:
            acc(sx, gx.reshape(xv.shape))

    return _record(op, out, slots, (x.values,), rule)


def conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None, wrap=None) -> Tensor:
    """2-D convolution, channels-first, with one stride for both axes.

    x: ([B,] C_in, H, W), batched when its rank says so; w: (C_out, C_in, kh, kw).
    A wrapped axis convolves circularly with centred taps; an unwrapped one
    honours explicit (before, after) zero pads.  Each batch entry is padded
    once and convolved by one GEMM per tap, as _Geometry lays out; one flat
    GEMM over the whole batch is slower.
    """
    geo = _conv_args("conv", x, w, b, 1, x.shape[-2:], stride, pads, wrap)
    return _conv_node("conv", x, w, b, geo, transposed=False)


def conv_transpose(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1, pads=None,
                   wrap=None, out_extents=None) -> Tensor:
    """Transposed 2-D convolution: the exact adjoint of `conv`'s input map.

    x: ([B,] C_in, h, w); w: (C_in, C_out, kh, kw); output
    ([B,] C_out, *out_extents), where conv(out_extents -> (h, w)) under the
    same kernel/stride/pads/wrap geometry must reproduce (h, w).  It runs
    conv's kernels with the roles swapped; batch entries and their gradients
    run as in conv.
    """
    if out_extents is None:
        raise ShapeError("conv_transpose: out_extents is required")
    geo = _conv_args("conv_transpose", x, w, b, 0, tuple(out_extents), stride, pads, wrap)
    if geo.outs != x.shape[-2:]:
        raise ShapeError(
            f"conv_transpose: adjoint geometry maps {geo.extents} -> {geo.outs}, "
            f"but input spatial extents are {x.shape[-2:]}")
    return _conv_node("conv_transpose", x, w, b, geo, transposed=True)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------

def _topo(root: TapeNode) -> list[TapeNode]:
    """Nodes reachable from root, each exactly once, oldest first.

    Creation order is a topological order, since a node is made after its
    parents.  Sweeping it in reverse, rather than in a search order, adds a
    leaf's gradient terms in the reverse of the order the graph was built
    in, so a chain gives the same sums whether or not parts of it ran as
    checkpoint segments: a segment's recompute sweeps its own part of the
    chain at that same place.
    """
    found: dict[int, TapeNode] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in found:
            continue
        found[id(node)] = node
        stack.extend(s for s in node.parents if isinstance(s, TapeNode))
    return sorted(found.values(), key=lambda node: node.gen)


def _backward_impl(root: Tensor, seed: np.ndarray, min_gen: int = 0):
    acc: dict[int, list] = {}  # id(slot) -> [slot, grad]

    def add_grad(slot, g: np.ndarray):
        if slot is None:
            return  # a parent that wants no gradient
        cell = acc.get(id(slot))
        if cell is None:
            acc[id(slot)] = [slot, np.asarray(g, dtype=np.float64)]
        else:
            cell[1] = cell[1] + g

    add_grad(_slot(root), seed)
    order = [] if root.node is None else _topo(root.node)
    for node in reversed(order):
        cell = acc.pop(id(node), None)
        if cell is None:
            continue  # node not on any path that received gradient
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
    for t, g in acc.values():  # every node was popped: the slots left are leaves
        if isinstance(t, Tensor):
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

def checkpoint_segment(fn: Callable[[Tensor], Tensor], x: Tensor) -> Tensor:
    """Run fn(x) without recording its interior; recompute it in backward.

    fn must be a pure function of x and of leaf parameters it closes over.
    Gradients are bitwise-identical to the non-checkpointed execution because
    every primitive is deterministic.  Only the segment input is kept for
    backward: the node pins x's values, one saved array per segment instead
    of one per interior op.  Under no_grad this is fn(x).
    """
    if not _state.grad_enabled:
        return fn(x)
    with no_grad():
        y = fn(Tensor(x.values, copy=False))
    sx = _slot(x)

    def rule(g, saved, acc):
        start_gen = _GEN + 1
        with enable_grad():
            x_re = Tensor(saved[0], requires_grad=True, copy=False)
            sub = _backward_impl(fn(x_re), np.asarray(g, dtype=np.float64), min_gen=start_gen)
        gx = sub.pop(x_re, None)
        if gx is not None:
            acc(sx, gx)
        for p, gp in sub.items():  # leaf parameters: each is its own slot
            acc(p, gp)

    # node exists regardless of x.requires_grad: captured parameters inside
    # fn still need their gradients routed on the recompute pass
    node = TapeNode("checkpoint", (sx,), (x.values,), rule)
    return Tensor(y.values, requires_grad=True, node=node, copy=False)
