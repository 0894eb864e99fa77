"""Neighborhood attention transformer blocks over a 3D latent grid.

Tokens live on a (depth, row, col) box.  Each token attends to a fixed-size
rectangular window around itself: columns wrap around the globe, depth and
row windows slide inward at the boundaries, and every token sees exactly
prod(window) keys.

Positions enter through rotary phases on query/key pairs.  Depth and row
bands use geometrically spaced wavelengths and each token's own phase.  The
column band uses integer wavenumbers, so its phase difference between a
query and a key depends only on their column offset; the query takes that
relative phase per column tap of the window and the key none.  Scores then
depend on column offsets alone, which makes attention exactly (bitwise)
equivariant to rolling the grid in longitude.

Block layout is pre-norm: x + attn(norm(x)), then x + mlp(norm(x)) with a
4x GELU expansion.  The attention half is LN1, one GEMM onto the fused
(T, 3 * dim) query/key/value projection, then autodiff.neighborhood_attention:
one tape node that rotates, gathers the neighbors, scores, softmaxes and
weights the values, then the output projection.

Memory layout.  The projection's columns stay in (q|k|v, head, feature)
order.  The rotations gather q's and k's columns once, by the plan's
qk_cols, into (half, head, pair) order, so each rotary half of every head is
one contiguous run of heads * dh/2 columns that meets phases tiled across
heads in long elementwise passes; the backward's inverse rotations run the
same way and write back through qk_cols.  Rotation is elementwise, so its
bits do not depend on the layout.  The score einsum, the softmax and the
context matmul sum over dh and K, and keep the (heads, T, K, dh) layout so
that their sums run in the same order.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .grid import neighborhood

__all__ = [
    "rotary_tables",
    "AttentionPlan",
    "BackwardPlan",
    "attention_plan",
    "natten_block",
    "attention_weights",
    "block_layout",
    "draw_params",
    "init_block_params",
]

MLP_EXPANSION = 4


def _pair_split(n_pairs: int) -> tuple[int, int, int]:
    """(depth, row, col) rotary pair counts; col absorbs the remainder."""
    base = n_pairs // 3
    return base, base, n_pairs - 2 * base


def rotary_tables(extents: tuple[int, int, int], head_dim: int, col_window: int | None = None):
    """cos/sin phase tables, each (T, C, head_dim // 2) float64.

    Depth and row phases use wavelengths spaced geometrically from 4 cells
    up to twice the axis extent.  With col_window None, C = 1 and the column
    band holds each token's absolute phase 2*pi*k*w / W, with integer k so
    that w -> w + W closes exactly.  With col_window = C, the column band of
    tap c instead holds the query's phase relative to a key c - (C - 1) // 2
    columns east, 2*pi*k*((C - 1) // 2 - c) / W, and the centre tap holds
    phase 0: the query phases autodiff.neighborhood_attention takes per
    column tap.
    """
    if head_dim % 2 != 0:
        raise ConfigError(f"rotary head dim must be even, got {head_dim}")
    n_pairs = head_dim // 2
    if n_pairs < 3:
        raise ConfigError(f"head dim {head_dim} leaves fewer than one rotary pair per axis")
    pd, pr, pc = _pair_split(n_pairs)
    d, h, w = extents
    t = d * h * w
    di, hi, wi = np.unravel_index(np.arange(t), (d, h, w))
    taps = 1 if col_window is None else col_window
    angles = np.empty((t, taps, n_pairs), dtype=np.float64)

    def axis_wavelengths(extent: int, n: int) -> np.ndarray:
        lo, hi_ = 4.0, max(8.0, 2.0 * extent)
        if n == 1:
            return np.array([hi_])
        return lo * (hi_ / lo) ** (np.arange(n) / (n - 1))

    angles[:, :, :pd] = (2.0 * math.pi * di[:, None] / axis_wavelengths(d, pd)[None, :])[:, None]
    angles[:, :, pd:pd + pr] = (2.0 * math.pi * hi[:, None]
                                / axis_wavelengths(h, pr)[None, :])[:, None]
    wavenumbers = np.arange(1, pc + 1, dtype=np.float64)
    if col_window is None:
        angles[:, 0, pd + pr:] = 2.0 * math.pi * wi[:, None] * wavenumbers[None, :] / w
    else:
        offsets = (taps - 1) // 2 - np.arange(taps)
        angles[:, :, pd + pr:] = 2.0 * math.pi * offsets[:, None] * wavenumbers[None, :] / w
    return np.cos(angles), np.sin(angles)


class AttentionPlan(NamedTuple):
    """What neighborhood attention's forward reads of one geometry, all read-only.

    table (T, K) is grid.neighborhood's.  The rotary phases are rotary_tables',
    tiled across heads to match qk_cols: cos_q, sin_q (T, C, heads, dh/2) per
    column tap, cos_k, sin_k (T, heads, dh/2) at the centre tap (C - 1) // 2.
    qk_cols (2 * heads * dh,) lists qkv's query columns, then its key columns,
    each in (half, head, pair) order, so a gather through it leaves every
    rotary half of every head one contiguous run of heads * dh/2 columns.
    """
    table: np.ndarray
    cos_q: np.ndarray
    sin_q: np.ndarray
    cos_k: np.ndarray
    sin_k: np.ndarray
    qk_cols: np.ndarray

    def backward(self) -> BackwardPlan:
        """This plan's BackwardPlan, built on the first call and kept with the plan."""
        held = _BACKWARD_PLANS.get(id(self))
        if held is None:
            held = _BACKWARD_PLANS[id(self)] = (self, _backward_plan(self.table,
                                                                      self.cos_q.shape[1]))
        return held[1]


class BackwardPlan(NamedTuple):
    """What neighborhood attention's backward alone reads of a geometry, read-only.

    inverse (T, R) lists where each token sits in the table as ascending flat
    positions t*K + j, padded with T*K; src holds their t (T for a pad) and
    q_row their per-tap query row t*C + c.  A no_grad forward never builds it.
    """
    inverse: np.ndarray
    src: np.ndarray
    q_row: np.ndarray


# id(plan) -> (plan, its BackwardPlan); holding the plan keeps its id from being reused
_BACKWARD_PLANS: dict[int, tuple[AttentionPlan, BackwardPlan]] = {}


def _backward_plan(table: np.ndarray, taps: int) -> BackwardPlan:
    t, k = table.shape
    flat = table.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=t)
    rank = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    inverse = np.full((t, counts.max()), flat.size)
    inverse[flat[order], rank] = order
    src, j = np.divmod(inverse, k)
    plan = BackwardPlan(inverse, src, src * taps + j // (k // taps))
    for a in plan:
        a.setflags(write=False)
    return plan


@functools.cache
def attention_plan(extents: tuple[int, int, int], window: tuple[int, int, int],
                   head_dim: int, heads: int) -> AttentionPlan:
    """The one AttentionPlan of a geometry and head split, built on first use.

    A window that does not fit or a bad head dim raises ConfigError, uncached.
    """
    table = neighborhood(extents, window)
    cos, sin = rotary_tables(extents, head_dim, col_window=window[2])
    half, centre = head_dim // 2, (window[2] - 1) // 2
    cos_q, sin_q = (np.repeat(a[:, :, None, :], heads, axis=2) for a in (cos, sin))
    qk_cols = (np.arange(2)[:, None, None, None] * heads * head_dim
               + np.arange(2)[None, :, None, None] * half
               + np.arange(heads)[None, None, :, None] * head_dim + np.arange(half)).ravel()
    plan = AttentionPlan(table, cos_q, sin_q, cos_q[:, centre].copy(), sin_q[:, centre].copy(),
                         qk_cols)
    for a in plan:
        a.setflags(write=False)
    return plan


def block_layout(dim: int, prefix: str, zero_residual: bool = True) -> list:
    """Every block parameter as (name, shape, init), in draw order.

    init is "ones", "zeros" or the factor on a standard-normal draw.
    zero_residual zeroes the attention output and MLP output projections so
    a freshly initialized block is the identity map, which keeps deep stacks
    trainable from step one.  Gradient-check tests turn it off.
    """
    s, hidden = 1.0 / math.sqrt(dim), MLP_EXPANSION * dim
    out_scale = 0.0 if zero_residual else s
    return [(f"{prefix}.{name}", shape, init) for name, shape, init in (
        ("ln1.gain", (dim,), "ones"), ("ln1.bias", (dim,), "zeros"),
        ("attn.wq", (dim, dim), s), ("attn.bq", (dim,), "zeros"),
        ("attn.wk", (dim, dim), s), ("attn.bk", (dim,), "zeros"),
        ("attn.wv", (dim, dim), s), ("attn.bv", (dim,), "zeros"),
        ("attn.wo", (dim, dim), out_scale), ("attn.bo", (dim,), "zeros"),
        ("ln2.gain", (dim,), "ones"), ("ln2.bias", (dim,), "zeros"),
        ("mlp.w1", (dim, hidden), s), ("mlp.b1", (hidden,), "zeros"),
        ("mlp.w2", (hidden, dim), 0.0 if zero_residual else 1.0 / math.sqrt(hidden)),
        ("mlp.b2", (dim,), "zeros"),
    )]


def draw_params(rng: np.random.Generator, layout) -> dict[str, Tensor]:
    """Fresh trainable tensors for a (name, shape, init) layout, drawn in order."""
    return {name: Tensor(np.ones(shape) if init == "ones"
                         else np.zeros(shape) if init == "zeros"
                         else rng.standard_normal(shape) * init, requires_grad=True)
            for name, shape, init in layout}


def init_block_params(rng: np.random.Generator, dim: int, heads: int, prefix: str,
                      zero_residual: bool = True) -> dict[str, Tensor]:
    """Fresh block parameters, drawn from block_layout."""
    if dim % heads != 0:
        raise ConfigError(f"dim {dim} not divisible by heads {heads}")
    return draw_params(rng, block_layout(dim, prefix, zero_residual))


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.matmul(x, w) + b


def _projection(x: Tensor, params: dict[str, Tensor], prefix: str,
                extents: tuple[int, int, int], window: tuple[int, int, int], heads: int):
    """LN1 -> one GEMM onto the fused (T, 3 * dim) q/k/v projection.

    Returns the projection and the geometry's attention plan.
    """
    t, dim = x.shape
    if t != math.prod(extents):
        raise ConfigError(f"token count {t} != prod of extents {extents}")
    if dim % heads != 0:
        raise ConfigError(f"dim {dim} not divisible by heads {heads}")
    plan = attention_plan(tuple(extents), tuple(window), dim // heads, heads)
    hn = ad.layernorm(x, params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"])
    w_qkv = ad.concat([params[f"{prefix}.attn.w{c}"] for c in "qkv"], axis=1)
    b_qkv = ad.concat([params[f"{prefix}.attn.b{c}"] for c in "qkv"])
    return _linear(hn, w_qkv, b_qkv), plan


def natten_block(x: Tensor, params: dict[str, Tensor], prefix: str,
                 extents: tuple[int, int, int], window: tuple[int, int, int],
                 heads: int) -> Tensor:
    """One pre-norm neighborhood attention block on tokens x (T, dim)."""

    def p(name):
        return params[f"{prefix}.{name}"]

    qkv, plan = _projection(x, params, prefix, extents, window, heads)
    ctx = ad.neighborhood_attention(qkv, plan, heads)
    x = x + _linear(ctx, p("attn.wo"), p("attn.bo"))

    hn2 = ad.layernorm(x, p("ln2.gain"), p("ln2.bias"))
    mid = ad.gelu(_linear(hn2, p("mlp.w1"), p("mlp.b1")))
    x = x + _linear(mid, p("mlp.w2"), p("mlp.b2"))
    return x


def attention_weights(x_values: np.ndarray, params: dict[str, Tensor], prefix: str,
                      extents: tuple[int, int, int], window: tuple[int, int, int],
                      heads: int) -> np.ndarray:
    """Softmax attention matrix (T, heads, K) for inspection, no tape.

    The same forward as natten_block's: the fused projection, then
    autodiff.neighborhood_attention's numpy forward.
    """
    with ad.no_grad():
        qkv, plan = _projection(Tensor(x_values), params, prefix, extents, window, heads)
    return ad.neighborhood_weights(qkv.values, plan, heads)
