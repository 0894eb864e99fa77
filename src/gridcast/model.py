"""Encoder-processor-decoder forecast model on a lat-lon grid.

The encoder folds vertical levels into a small number of depth planes,
runs a shared 2D convolutional pyramid (stem + three stride-2 stages, 8x
total downsampling) over every plane, stacks the planes into a 3D token
grid, and applies neighborhood attention blocks.  Processors advance the
latent state by a fixed horizon (1 h or 6 h) with a deeper block stack.
The decoder mirrors the encoder with transposed convolutions and per-branch
output heads.

Latent extents are (1 + levels/level_patch, rows/8, cols/8): one depth
plane for the surface branch plus one per folded level group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .attention import block_param_names, init_block_params, natten_block
from .autodiff import Tensor
from .errors import ConfigError
from .grid import GridSpec, N_STATIC_FIELDS, desk_grid, quarter_degree_grid, static_fields

__all__ = [
    "ModelConfig",
    "desk_config",
    "full_scale_config",
    "tiny_config",
    "WeatherState",
    "DecodedFields",
    "LatentState",
    "init_model_params",
    "encode",
    "process",
    "decode",
    "blend_latents",
    "blend_sources",
    "encoder_prefix",
    "available_sources",
    "shape_plan",
    "save_config",
    "load_config",
    "CALL_COUNTS",
    "reset_call_counts",
]

DOWNSAMPLE_STAGES = 3  # three stride-2 stages: 8x
PRIMARY_SOURCE = "primary"

CALL_COUNTS = {"encode": 0, "process1": 0, "process6": 0, "decode": 0}


def reset_call_counts() -> None:
    for k in CALL_COUNTS:
        CALL_COUNTS[k] = 0


@dataclass(frozen=True)
class ModelConfig:
    grid: GridSpec
    surface_in: int = 4
    surface_out: int = 6
    atmos_vars: int = 3
    levels: int = 8
    level_patch: int = 4
    stem_channels: int = 16
    stage_channels: tuple[int, ...] = (24, 32, 48)
    hidden: int = 48
    heads: int = 4
    window: tuple[int, int, int] = (3, 3, 3)
    enc_blocks: int = 2
    dec_blocks: int = 2
    proc_blocks: int = 4
    horizons: tuple[int, ...] = (1, 6)
    max_dt: int = 336

    def __post_init__(self):
        if self.level_patch < 1 or self.heads < 1:
            raise ConfigError(
                f"level_patch {self.level_patch} and heads {self.heads} must be at least 1")
        if len(self.window) != 3 or min(self.window) < 1:
            raise ConfigError(f"window {self.window} must be three positive extents")
        if self.levels % self.level_patch != 0:
            raise ConfigError(
                f"levels {self.levels} not divisible by level patch {self.level_patch}")
        if len(self.stage_channels) != DOWNSAMPLE_STAGES:
            raise ConfigError(f"expected {DOWNSAMPLE_STAGES} stage channel counts")
        if self.stage_channels[-1] != self.hidden:
            raise ConfigError("last stage channels must equal the token width")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        dh = self.hidden // self.heads
        if dh % 2 != 0 or dh < 6:
            raise ConfigError(f"head dim {dh} must be even and at least 6 for rotary bands")
        f = 2 ** DOWNSAMPLE_STAGES
        if self.grid.rows % f != 0 or self.grid.cols % f != 0:
            raise ConfigError(
                f"grid {self.grid.rows}x{self.grid.cols} not divisible by downsampling {f}")
        de, he, we = self.latent_extents
        wd, wh, ww = self.window
        if wd > de or wh > he or ww > we:
            raise ConfigError(
                f"attention window {self.window} exceeds latent extents {(de, he, we)}")
        if min(self.surface_in, self.surface_out, self.atmos_vars, self.levels,
               self.stem_channels, *self.stage_channels) < 1:
            raise ConfigError("channel and level counts must be positive")
        if self.proc_blocks < 1 or self.enc_blocks < 1 or self.dec_blocks < 1:
            raise ConfigError("block counts must be positive")
        bad = [h for h in self.horizons if h < 1]
        if bad or len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(f"invalid processor horizons {self.horizons}")
        if self.max_dt < 1:
            raise ConfigError("max_dt must be positive")

    @property
    def depth_planes(self) -> int:
        return 1 + self.levels // self.level_patch

    @property
    def latent_extents(self) -> tuple[int, int, int]:
        f = 2 ** DOWNSAMPLE_STAGES
        return (self.depth_planes, self.grid.rows // f, self.grid.cols // f)

    @property
    def tokens(self) -> int:
        d, h, w = self.latent_extents
        return d * h * w


def desk_config() -> ModelConfig:
    """Laptop-scale model: 40x80 grid, 3x5x10 latent, 48-wide tokens."""
    return ModelConfig(grid=desk_grid())


def full_scale_config() -> ModelConfig:
    """Full-scale configuration; use with shape_plan, not with live arrays."""
    return ModelConfig(
        grid=quarter_degree_grid(),
        surface_in=8, surface_out=17, atmos_vars=5,
        levels=28, level_patch=7,
        stem_channels=192, stage_channels=(256, 512, 1024),
        hidden=1024, heads=8, window=(5, 7, 7),
        enc_blocks=2, dec_blocks=2, proc_blocks=10,
    )


def tiny_config() -> ModelConfig:
    """Smallest config that still exercises every code path; for tests."""
    return ModelConfig(
        grid=GridSpec(rows=24, cols=24, lat_step=4.5, lon_step=15.0),
        surface_in=2, surface_out=3, atmos_vars=2, levels=4, level_patch=2,
        stem_channels=6, stage_channels=(6, 8, 12), hidden=12, heads=2,
        window=(3, 3, 3), enc_blocks=1, dec_blocks=1, proc_blocks=2,
    )


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass
class WeatherState:
    """Gridded fields at one valid time; plain arrays, no gradients."""
    valid_time: int  # hours since dataset start
    surface: np.ndarray  # (surface_in | surface_out, rows, cols)
    atmos: np.ndarray  # (atmos_vars, levels, rows, cols)


@dataclass
class DecodedFields:
    """Decoder output with live gradients."""
    valid_time: int
    surface: Tensor  # (surface_out, rows, cols)
    atmos: Tensor  # (atmos_vars, levels, rows, cols)

    def to_state(self) -> WeatherState:
        return WeatherState(self.valid_time, self.surface.values.copy(),
                            self.atmos.values.copy())


@dataclass
class LatentState:
    """Token grid between encoder and decoder."""
    tokens: Tensor  # (T, hidden)
    valid_time: int
    extents: tuple[int, int, int]


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def _conv_w(rng, c_out, c_in, k, scale=None):
    s = scale if scale is not None else 1.0 / math.sqrt(c_in * k * k)
    return Tensor(rng.standard_normal((c_out, c_in, k, k)) * s, requires_grad=True)


def _convt_w(rng, c_in, c_out, k, scale=None):
    s = scale if scale is not None else 1.0 / math.sqrt(c_in * k * k)
    return Tensor(rng.standard_normal((c_in, c_out, k, k)) * s, requires_grad=True)


def _zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _stage_params(rng, prefix, c_in, c_out, p):
    p[f"{prefix}.down.w"] = _conv_w(rng, c_out, c_in, 3)
    p[f"{prefix}.down.b"] = _zeros(c_out)
    for j in range(2):
        p[f"{prefix}.res{j}.conv1.w"] = _conv_w(rng, c_out, c_out, 3)
        p[f"{prefix}.res{j}.conv1.b"] = _zeros(c_out)
        p[f"{prefix}.res{j}.conv2.w"] = _conv_w(rng, c_out, c_out, 3)
        p[f"{prefix}.res{j}.conv2.b"] = _zeros(c_out)


def _upstage_params(rng, prefix, c_in, c_out, p):
    p[f"{prefix}.up.w"] = _convt_w(rng, c_in, c_out, 4)
    p[f"{prefix}.up.b"] = _zeros(c_out)
    for j in range(2):
        p[f"{prefix}.res{j}.conv1.w"] = _conv_w(rng, c_out, c_out, 3)
        p[f"{prefix}.res{j}.conv1.b"] = _zeros(c_out)
        p[f"{prefix}.res{j}.conv2.w"] = _conv_w(rng, c_out, c_out, 3)
        p[f"{prefix}.res{j}.conv2.b"] = _zeros(c_out)


def _encoder_params(cfg: ModelConfig, rng, prefix: str, zero_residual: bool,
                    p: dict) -> None:
    sfc_in = cfg.surface_in + N_STATIC_FIELDS
    atm_in = cfg.atmos_vars * cfg.level_patch
    p[f"{prefix}.stem_sfc.w"] = _conv_w(rng, cfg.stem_channels, sfc_in, 3)
    p[f"{prefix}.stem_sfc.b"] = _zeros(cfg.stem_channels)
    p[f"{prefix}.stem_atm.w"] = _conv_w(rng, cfg.stem_channels, atm_in, 3)
    p[f"{prefix}.stem_atm.b"] = _zeros(cfg.stem_channels)
    c_in = cfg.stem_channels
    for i, c_out in enumerate(cfg.stage_channels):
        _stage_params(rng, f"{prefix}.stage{i}", c_in, c_out, p)
        c_in = c_out
    for i in range(cfg.enc_blocks):
        p.update(init_block_params(rng, cfg.hidden, cfg.heads, f"{prefix}.blk{i}",
                                   zero_residual=zero_residual))


def init_model_params(cfg: ModelConfig, seed: int = 0, zero_residual: bool = True,
                      extra_sources: tuple[str, ...] = ()) -> dict[str, Tensor]:
    """All trainable tensors, flat dict keyed by dotted names.

    zero_residual zeroes residual-branch output projections and decoder
    heads so the fresh model maps any input to zero fields; training then
    moves away from the climatological mean first.
    """
    rng = np.random.default_rng(seed)
    p: dict[str, Tensor] = {}
    _encoder_params(cfg, rng, "enc", zero_residual, p)
    for name in extra_sources:
        if name == PRIMARY_SOURCE:
            raise ConfigError("primary source already has the default encoder")
        _encoder_params(cfg, rng, f"enc_op.{name}", zero_residual, p)
    for h in cfg.horizons:
        for i in range(cfg.proc_blocks):
            p.update(init_block_params(rng, cfg.hidden, cfg.heads, f"proc{h}.blk{i}",
                                       zero_residual=zero_residual))
    for i in range(cfg.dec_blocks):
        p.update(init_block_params(rng, cfg.hidden, cfg.heads, f"dec.blk{i}",
                                   zero_residual=zero_residual))
    chans = [cfg.hidden] + list(cfg.stage_channels[-2::-1]) + [cfg.stem_channels]
    for i in range(DOWNSAMPLE_STAGES):
        _upstage_params(rng, f"dec.stage{i}", chans[i], chans[i + 1], p)
    head_scale = 0.0 if zero_residual else None
    p["dec.head_sfc.w"] = _conv_w(rng, cfg.surface_out, cfg.stem_channels, 3,
                                  scale=head_scale)
    p["dec.head_sfc.b"] = _zeros(cfg.surface_out)
    p["dec.head_atm.w"] = _conv_w(rng, cfg.atmos_vars * cfg.level_patch,
                                  cfg.stem_channels, 3, scale=head_scale)
    p["dec.head_atm.b"] = _zeros(cfg.atmos_vars * cfg.level_patch)
    return p


def encoder_prefix(source: str) -> str:
    return "enc" if source == PRIMARY_SOURCE else f"enc_op.{source}"


def available_sources(params: dict) -> list[str]:
    out = [PRIMARY_SOURCE] if "enc.stem_sfc.w" in params else []
    seen = set()
    for k in params:
        if k.startswith("enc_op."):
            name = k.split(".")[1]
            if name not in seen:
                seen.add(name)
                out.append(name)
    return out


# ---------------------------------------------------------------------------
# conv building blocks (rows zero-padded, cols wrapped)
# ---------------------------------------------------------------------------

def _conv(x, params, name, stride=1):
    w = params[name + ".w"]
    k = w.shape[-1]
    pr = (k - 1) // 2
    return ad.conv(x, w, params[name + ".b"], stride=stride,
                   pads=[(pr, pr), (0, 0)], wrap=(False, True))


def _res_block(x, params, name):
    h = ad.gelu(_conv(x, params, name + ".conv1"))
    return x + _conv(h, params, name + ".conv2")


def _pyramid_down(x, params, prefix):
    for i in range(DOWNSAMPLE_STAGES):
        x = _conv(x, params, f"{prefix}.stage{i}.down", stride=2)
        x = _res_block(x, params, f"{prefix}.stage{i}.res0")
        x = _res_block(x, params, f"{prefix}.stage{i}.res1")
    return x


def _pyramid_up(x, params, out_shapes):
    for i in range(DOWNSAMPLE_STAGES):
        w = params[f"dec.stage{i}.up.w"]
        x = ad.conv_transpose(x, w, params[f"dec.stage{i}.up.b"], stride=2,
                              pads=[(1, 1), (0, 0)], wrap=(False, True),
                              out_extents=out_shapes[i])
        x = _res_block(x, params, f"dec.stage{i}.res0")
        x = _res_block(x, params, f"dec.stage{i}.res1")
    return x


# ---------------------------------------------------------------------------
# encode / process / decode
# ---------------------------------------------------------------------------

def _fold_levels(atmos: Tensor, cfg: ModelConfig) -> list[Tensor]:
    """(A, L, H, W) -> one (A*patch, H, W) tensor per level group."""
    a, l, h, w = atmos.shape
    g = l // cfg.level_patch
    planes = atmos.reshape(a, g, cfg.level_patch, h, w).transpose(1, 0, 2, 3, 4)
    return [planes[j].reshape(a * cfg.level_patch, h, w) for j in range(g)]


def _unfold_levels(planes: list[Tensor], cfg: ModelConfig) -> Tensor:
    """Inverse of _fold_levels: list of (A*patch, H, W) -> (A, L, H, W)."""
    g = len(planes)
    h, w = planes[0].shape[-2:]
    stacked = ad.concat([pl.reshape(1, cfg.atmos_vars, cfg.level_patch, h, w)
                         for pl in planes], axis=0)
    return stacked.transpose(1, 0, 2, 3, 4).reshape(
        cfg.atmos_vars, g * cfg.level_patch, h, w)


def _tokens_from_planes(planes: list[Tensor], cfg: ModelConfig) -> Tensor:
    d = len(planes)
    c, hh, ww = planes[0].shape
    stacked = ad.concat([pl.reshape(1, c, hh, ww) for pl in planes], axis=0)
    return stacked.transpose(0, 2, 3, 1).reshape(d * hh * ww, c)


def _planes_from_tokens(tokens: Tensor, extents, hidden) -> list[Tensor]:
    d, hh, ww = extents
    grid_t = tokens.reshape(d, hh, ww, hidden).transpose(0, 3, 1, 2)
    return [grid_t[j] for j in range(d)]


def encode(state: WeatherState, params: dict, cfg: ModelConfig,
           source: str = PRIMARY_SOURCE) -> LatentState:
    """Lift one gridded state into the latent token grid."""
    prefix = encoder_prefix(source)
    if f"{prefix}.stem_sfc.w" not in params:
        raise ConfigError(f"no encoder for source {source!r}")
    g = cfg.grid
    if state.surface.shape != (cfg.surface_in, g.rows, g.cols):
        raise ConfigError(
            f"surface shape {state.surface.shape} != {(cfg.surface_in, g.rows, g.cols)}")
    if state.atmos.shape != (cfg.atmos_vars, cfg.levels, g.rows, g.cols):
        raise ConfigError(
            f"atmos shape {state.atmos.shape} != "
            f"{(cfg.atmos_vars, cfg.levels, g.rows, g.cols)}")
    CALL_COUNTS["encode"] += 1

    sfc = Tensor(np.concatenate([state.surface, static_fields(g)], axis=0), copy=False)
    atm = Tensor(state.atmos)
    plane_list = [_conv(sfc, params, f"{prefix}.stem_sfc")]
    for pl in _fold_levels(atm, cfg):
        plane_list.append(_conv(pl, params, f"{prefix}.stem_atm"))
    plane_list = [_pyramid_down(pl, params, prefix) for pl in plane_list]
    tokens = _tokens_from_planes(plane_list, cfg)
    ext = cfg.latent_extents
    for i in range(cfg.enc_blocks):
        tokens = natten_block(tokens, params, f"{prefix}.blk{i}", ext,
                              cfg.window, cfg.heads)
    return LatentState(tokens, state.valid_time, ext)


def process(lat: LatentState, params: dict, cfg: ModelConfig, horizon: int) -> LatentState:
    """Advance the latent state by one processor application."""
    if horizon not in cfg.horizons:
        raise ConfigError(f"no {horizon} h processor in config horizons {cfg.horizons}")
    prefix = f"proc{horizon}"
    if f"{prefix}.blk0.ln1.gain" not in params:
        raise ConfigError(f"parameters carry no {horizon} h processor")
    CALL_COUNTS[f"process{horizon}"] += 1
    x = lat.tokens
    for i in range(cfg.proc_blocks):
        x = natten_block(x, params, f"{prefix}.blk{i}", lat.extents,
                         cfg.window, cfg.heads)
    return LatentState(x, lat.valid_time + horizon, lat.extents)


def decode(lat: LatentState, params: dict, cfg: ModelConfig) -> DecodedFields:
    """Project the latent token grid back to gridded fields."""
    CALL_COUNTS["decode"] += 1
    x = lat.tokens
    for i in range(cfg.dec_blocks):
        x = natten_block(x, params, f"dec.blk{i}", lat.extents, cfg.window, cfg.heads)
    g = cfg.grid
    up_shapes = [(g.rows // 4, g.cols // 4), (g.rows // 2, g.cols // 2), (g.rows, g.cols)]
    planes = _planes_from_tokens(x, lat.extents, cfg.hidden)
    full = [_pyramid_up(pl, params, up_shapes) for pl in planes]
    surface = _conv(full[0], params, "dec.head_sfc")
    atmos_planes = [_conv(pl, params, "dec.head_atm") for pl in full[1:]]
    atmos = _unfold_levels(atmos_planes, cfg)
    return DecodedFields(lat.valid_time, surface, atmos)


def blend_latents(latents: list[LatentState], weights) -> LatentState:
    """Convex combination of same-time latent states.

    weights may be a Tensor (for learned blending) or an array; entries must
    be finite, nonnegative and sum to one within 1e-12.
    """
    if not latents:
        raise ConfigError("blend of zero latent states")
    t0 = latents[0].valid_time
    ext = latents[0].extents
    for l in latents[1:]:
        if l.valid_time != t0:
            raise ConfigError(
                f"blend of mismatched valid times {t0} and {l.valid_time}")
        if l.extents != ext:
            raise ConfigError("blend of mismatched latent extents")
    wvals = weights.values if isinstance(weights, Tensor) else np.asarray(weights, float)
    if wvals.shape != (len(latents),):
        raise ConfigError(f"{len(latents)} states but weight shape {wvals.shape}")
    if not np.isfinite(wvals).all() or (wvals < 0).any() or abs(wvals.sum() - 1.0) > 1e-12:
        raise ConfigError("blend weights must be finite, nonnegative and sum to 1")
    wt = weights if isinstance(weights, Tensor) else Tensor(wvals)
    out = latents[0].tokens * wt[0]
    for i in range(1, len(latents)):
        out = out + latents[i].tokens * wt[i]
    return LatentState(out, t0, ext)


def blend_sources(latents: list[LatentState], params: dict, sources) -> LatentState:
    """Blend the latents encoded from sources by the softmax of their logits.

    params["blend.logits"] holds one logit per encoder of the model, in
    available_sources order; latents[i] was encoded from sources[i].
    Training blends every source, a forecast may blend a subset.
    """
    if "blend.logits" not in params:
        raise ConfigError("blending sources needs blend.logits in params")
    known = available_sources(params)
    logits = params["blend.logits"]
    if logits.shape != (len(known),):
        raise ConfigError(f"blend.logits has shape {logits.shape}, "
                          f"model has {len(known)} sources")
    picked = np.array([known.index(s) for s in sources], dtype=np.int64)
    return blend_latents(latents, ad.softmax(ad.take(logits, picked)))


# ---------------------------------------------------------------------------
# dry-run shape arithmetic
# ---------------------------------------------------------------------------

def shape_plan(cfg: ModelConfig) -> dict:
    """Every tensor extent the model would produce, without allocating any.

    Pure integer arithmetic; safe to call on the full-scale configuration.
    """
    g = cfg.grid
    h, w = g.rows, g.cols
    stages = []
    c_in = cfg.stem_channels
    hh, ww = h, w
    for i, c in enumerate(cfg.stage_channels):
        hh, ww = hh // 2, ww // 2
        stages.append({"stage": i, "channels": c, "rows": hh, "cols": ww})
        c_in = c
    ext = cfg.latent_extents
    n_blocks = cfg.enc_blocks + cfg.dec_blocks + len(cfg.horizons) * cfg.proc_blocks

    # parameter element counts, by closed form
    def conv_elems(co, ci, k):
        return co * ci * k * k + co

    def blk_elems(dim):
        return (2 * dim + 2 * dim          # layer norms
                + 4 * (dim * dim + dim)    # q, k, v, out
                + dim * 4 * dim + 4 * dim  # mlp in
                + 4 * dim * dim + dim)     # mlp out

    def stage_elems(ci, co):
        return conv_elems(co, ci, 3) + 4 * conv_elems(co, co, 3)

    def upstage_elems(ci, co):
        return (ci * co * 16 + co) + 4 * conv_elems(co, co, 3)

    enc_elems = (conv_elems(cfg.stem_channels, cfg.surface_in + N_STATIC_FIELDS, 3)
                 + conv_elems(cfg.stem_channels, cfg.atmos_vars * cfg.level_patch, 3))
    ci = cfg.stem_channels
    for c in cfg.stage_channels:
        enc_elems += stage_elems(ci, c)
        ci = c
    enc_elems += cfg.enc_blocks * blk_elems(cfg.hidden)
    proc_elems = len(cfg.horizons) * cfg.proc_blocks * blk_elems(cfg.hidden)
    chans = [cfg.hidden] + list(cfg.stage_channels[-2::-1]) + [cfg.stem_channels]
    dec_elems = cfg.dec_blocks * blk_elems(cfg.hidden)
    for i in range(DOWNSAMPLE_STAGES):
        dec_elems += upstage_elems(chans[i], chans[i + 1])
    dec_elems += (conv_elems(cfg.surface_out, cfg.stem_channels, 3)
                  + conv_elems(cfg.atmos_vars * cfg.level_patch, cfg.stem_channels, 3))

    return {
        "grid": (h, w),
        "surface_input": (cfg.surface_in + N_STATIC_FIELDS, h, w),
        "atmos_input": (cfg.atmos_vars, cfg.levels, h, w),
        "level_groups": cfg.levels // cfg.level_patch,
        "plane_channels_in": cfg.atmos_vars * cfg.level_patch,
        "stages": stages,
        "latent_extents": ext,
        "tokens": cfg.tokens,
        "token_width": cfg.hidden,
        "window": cfg.window,
        "attention_keys": int(np.prod(cfg.window)),
        "blocks_total": n_blocks,
        "surface_output": (cfg.surface_out, h, w),
        "atmos_output": (cfg.atmos_vars, cfg.levels, h, w),
        "param_elements": enc_elems + proc_elems + dec_elems,
    }


# ---------------------------------------------------------------------------
# config file round trip
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "rows": int, "cols": int, "north_lat": float, "lat_step": float,
    "lon_step": float, "south_pole_omitted": bool, "planet_radius_km": float,
    "surface_in": int, "surface_out": int, "atmos_vars": int, "levels": int,
    "level_patch": int, "stem_channels": int, "stage_channels": tuple,
    "hidden": int, "heads": int, "window": tuple, "enc_blocks": int,
    "dec_blocks": int, "proc_blocks": int, "horizons": tuple, "max_dt": int,
}


def config_to_dict(cfg: ModelConfig) -> dict:
    g = cfg.grid
    return {
        "rows": g.rows, "cols": g.cols, "north_lat": g.north_lat,
        "lat_step": g.lat_step, "lon_step": g.lon_step,
        "south_pole_omitted": g.south_pole_omitted,
        "planet_radius_km": g.planet_radius_km,
        "surface_in": cfg.surface_in, "surface_out": cfg.surface_out,
        "atmos_vars": cfg.atmos_vars, "levels": cfg.levels,
        "level_patch": cfg.level_patch, "stem_channels": cfg.stem_channels,
        "stage_channels": cfg.stage_channels, "hidden": cfg.hidden,
        "heads": cfg.heads, "window": cfg.window,
        "enc_blocks": cfg.enc_blocks, "dec_blocks": cfg.dec_blocks,
        "proc_blocks": cfg.proc_blocks, "horizons": cfg.horizons,
        "max_dt": cfg.max_dt,
    }


def config_from_dict(d: dict) -> ModelConfig:
    grid = GridSpec(
        rows=d["rows"], cols=d["cols"], north_lat=d["north_lat"],
        lat_step=d["lat_step"], lon_step=d["lon_step"],
        south_pole_omitted=d["south_pole_omitted"],
        planet_radius_km=d["planet_radius_km"])
    # JSON hands tuples back as lists
    kwargs = {k: tuple(v) if _CONFIG_KEYS[k] is tuple else v for k, v in d.items()
              if k in _CONFIG_KEYS and k not in
              ("rows", "cols", "north_lat", "lat_step", "lon_step",
               "south_pole_omitted", "planet_radius_km")}
    return ModelConfig(grid=grid, **kwargs)


def save_config(path, cfg: ModelConfig) -> None:
    lines = []
    for k, v in config_to_dict(cfg).items():
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{k} = {v}\n")
    with open(path, "w") as f:
        f.writelines(lines)


def load_config(path) -> ModelConfig:
    d: dict = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            ty = _CONFIG_KEYS[key]
            try:
                if ty is bool:
                    if val not in ("true", "false"):
                        raise ValueError
                    d[key] = val == "true"
                elif ty is tuple:
                    d[key] = tuple(int(x) for x in val.split(","))
                else:
                    d[key] = ty(val)
            except ValueError:
                raise ConfigError(f"{path}:{ln}: bad value {val!r} for {key}") from None
    missing = set(_CONFIG_KEYS) - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    return config_from_dict(d)
