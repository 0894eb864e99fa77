"""Neighborhood attention transformer blocks over a 3D latent grid.

Tokens live on a (depth, row, col) box.  Each token attends to a fixed-size
rectangular window around itself: columns wrap around the globe, depth and
row windows slide inward at the boundaries, and every token sees exactly
prod(window) keys.

Positions enter through rotary phases on query/key pairs.  The column band
uses integer wavenumbers so a full trip around the longitude axis closes
exactly, which makes attention equivariant to rolling the grid in longitude.
Depth and row bands use geometrically spaced wavelengths.

Block layout is pre-norm: x + attn(norm(x)), then x + mlp(norm(x)) with a
4x GELU expansion.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .grid import neighborhood

__all__ = [
    "rotary_tables",
    "apply_rotary",
    "natten_block",
    "init_block_params",
    "block_param_names",
]

MLP_EXPANSION = 4


def _pair_split(n_pairs: int) -> tuple[int, int, int]:
    """(depth, row, col) rotary pair counts; col absorbs the remainder."""
    base = n_pairs // 3
    return base, base, n_pairs - 2 * base


_ROTARY_CACHE: dict = {}


def rotary_tables(extents: tuple[int, int, int], head_dim: int):
    """cos/sin phase tables, each (T, 1, head_dim // 2) float64.

    Middle singleton broadcasts over heads.  Column phases are
    2*pi*k*w / W with integer k so that w -> w + W closes exactly; depth and
    row phases use wavelengths spaced geometrically from 4 cells up to twice
    the axis extent.
    """
    key = (tuple(extents), head_dim)
    hit = _ROTARY_CACHE.get(key)
    if hit is not None:
        return hit
    if head_dim % 2 != 0:
        raise ConfigError(f"rotary head dim must be even, got {head_dim}")
    n_pairs = head_dim // 2
    if n_pairs < 3:
        raise ConfigError(f"head dim {head_dim} leaves fewer than one rotary pair per axis")
    pd, pr, pc = _pair_split(n_pairs)
    d, h, w = extents
    t = d * h * w
    di, hi, wi = np.unravel_index(np.arange(t), (d, h, w))
    angles = np.empty((t, n_pairs), dtype=np.float64)

    def axis_wavelengths(extent: int, n: int) -> np.ndarray:
        lo, hi_ = 4.0, max(8.0, 2.0 * extent)
        if n == 1:
            return np.array([hi_])
        return lo * (hi_ / lo) ** (np.arange(n) / (n - 1))

    angles[:, :pd] = 2.0 * math.pi * di[:, None] / axis_wavelengths(d, pd)[None, :]
    angles[:, pd:pd + pr] = 2.0 * math.pi * hi[:, None] / axis_wavelengths(h, pr)[None, :]
    wavenumbers = np.arange(1, pc + 1, dtype=np.float64)
    angles[:, pd + pr:] = 2.0 * math.pi * wi[:, None] * wavenumbers[None, :] / w
    tables = (np.ascontiguousarray(np.cos(angles)[:, None, :]),
              np.ascontiguousarray(np.sin(angles)[:, None, :]))
    _ROTARY_CACHE[key] = tables
    return tables


def apply_rotary(x: Tensor, cos: Tensor, sin: Tensor) -> Tensor:
    """Rotate feature pairs of x (T, heads, dh) by per-token phases."""
    half = x.shape[-1] // 2
    x1 = x[:, :, :half]
    x2 = x[:, :, half:]
    return ad.concat([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def block_param_names(prefix: str) -> list[str]:
    return [f"{prefix}.{s}" for s in (
        "ln1.gain", "ln1.bias",
        "attn.wq", "attn.bq", "attn.wk", "attn.bk",
        "attn.wv", "attn.bv", "attn.wo", "attn.bo",
        "ln2.gain", "ln2.bias",
        "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2",
    )]


def init_block_params(rng: np.random.Generator, dim: int, heads: int, prefix: str,
                      zero_residual: bool = True) -> dict[str, Tensor]:
    """Fresh block parameters.

    zero_residual zeroes the attention output and MLP output projections so
    a freshly initialized block is the identity map, which keeps deep stacks
    trainable from step one.  Gradient-check tests turn it off.
    """
    if dim % heads != 0:
        raise ConfigError(f"dim {dim} not divisible by heads {heads}")
    s = 1.0 / math.sqrt(dim)
    hidden = MLP_EXPANSION * dim

    def w(shape, scale):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape), requires_grad=True)

    out_scale = 0.0 if zero_residual else s
    p = {
        f"{prefix}.ln1.gain": ones(dim), f"{prefix}.ln1.bias": zeros(dim),
        f"{prefix}.attn.wq": w((dim, dim), s), f"{prefix}.attn.bq": zeros(dim),
        f"{prefix}.attn.wk": w((dim, dim), s), f"{prefix}.attn.bk": zeros(dim),
        f"{prefix}.attn.wv": w((dim, dim), s), f"{prefix}.attn.bv": zeros(dim),
        f"{prefix}.attn.wo": w((dim, dim), out_scale), f"{prefix}.attn.bo": zeros(dim),
        f"{prefix}.ln2.gain": ones(dim), f"{prefix}.ln2.bias": zeros(dim),
        f"{prefix}.mlp.w1": w((dim, hidden), s), f"{prefix}.mlp.b1": zeros(hidden),
        f"{prefix}.mlp.w2": w((hidden, dim), out_scale if zero_residual else 1.0 / math.sqrt(hidden)),
        f"{prefix}.mlp.b2": zeros(dim),
    }
    return p


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.matmul(x, w) + b


def _attention(x: Tensor, params: dict[str, Tensor], prefix: str,
               extents: tuple[int, int, int], window: tuple[int, int, int], heads: int):
    """LN1 -> q/k -> rotary -> neighborhood scores -> softmax.

    Returns the normalized tokens, the neighbor table (T, K) and the
    attention weights (T, heads, 1, K).
    """
    t, dim = x.shape
    d, h, w = extents
    if t != d * h * w:
        raise ConfigError(f"token count {t} != prod of extents {extents}")
    if dim % heads != 0:
        raise ConfigError(f"dim {dim} not divisible by heads {heads}")
    dh = dim // heads
    table = neighborhood(extents, window)  # (T, K), validates window fit
    cos_np, sin_np = rotary_tables(extents, dh)
    cos = Tensor(cos_np, copy=False)
    sin = Tensor(sin_np, copy=False)

    def p(name):
        return params[f"{prefix}.{name}"]

    hn = ad.layernorm(x, p("ln1.gain"), p("ln1.bias"))
    q = _linear(hn, p("attn.wq"), p("attn.bq")).reshape(t, heads, dh)
    k = _linear(hn, p("attn.wk"), p("attn.bk")).reshape(t, heads, dh)
    q = apply_rotary(q, cos, sin)
    k = apply_rotary(k, cos, sin)

    k_n = ad.take(k, table).transpose(0, 2, 1, 3)  # (T, heads, K, dh)
    q4 = q.reshape(t, heads, 1, dh) * (1.0 / math.sqrt(dh))
    scores = ad.matmul(q4, k_n.transpose(0, 1, 3, 2))  # (T, heads, 1, K)
    return hn, table, ad.softmax(scores, axis=-1)


def natten_block(x: Tensor, params: dict[str, Tensor], prefix: str,
                 extents: tuple[int, int, int], window: tuple[int, int, int],
                 heads: int) -> Tensor:
    """One pre-norm neighborhood attention block on tokens x (T, dim)."""

    def p(name):
        return params[f"{prefix}.{name}"]

    hn, table, attn = _attention(x, params, prefix, extents, window, heads)
    t, dim = x.shape
    dh = dim // heads
    v = _linear(hn, p("attn.wv"), p("attn.bv")).reshape(t, heads, dh)
    v_n = ad.take(v, table).transpose(0, 2, 1, 3)  # (T, heads, K, dh)
    ctx = ad.matmul(attn, v_n).reshape(t, dim)
    x = x + _linear(ctx, p("attn.wo"), p("attn.bo"))

    hn2 = ad.layernorm(x, p("ln2.gain"), p("ln2.bias"))
    mid = ad.gelu(_linear(hn2, p("mlp.w1"), p("mlp.b1")))
    x = x + _linear(mid, p("mlp.w2"), p("mlp.b2"))
    return x


def attention_weights(x_values: np.ndarray, params: dict[str, Tensor], prefix: str,
                      extents: tuple[int, int, int], window: tuple[int, int, int],
                      heads: int) -> np.ndarray:
    """Softmax attention matrix (T, heads, K) for inspection, no tape."""
    with ad.no_grad():
        _, table, attn = _attention(Tensor(x_values), params, prefix, extents,
                                    window, heads)
    return attn.values.reshape(x_values.shape[0], heads, table.shape[1])
