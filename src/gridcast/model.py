"""Encoder-processor-decoder forecast model on a lat-lon grid.

The encoder folds vertical levels into a small number of depth planes,
runs a shared 2D convolutional pyramid (stem + three stride-2 stages, 8x
total downsampling) once over the planes as one batch, reads the batch as
a 3D token grid, and applies neighborhood attention blocks.  Processors
advance the latent state by a fixed horizon (1 h or 6 h) with a deeper
block stack.  The decoder mirrors the encoder with transposed convolutions
over the same batch of planes and per-branch output heads.

Latent extents are (1 + levels/level_patch, rows/8, cols/8): one depth
plane for the surface branch plus one per folded level group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import get_origin, get_type_hints

import numpy as np

from . import autodiff as ad
from .attention import attention_plan, block_layout, draw_params, natten_block
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
    "model_layout",
    "init_model_params",
    "encode",
    "process",
    "decode",
    "encode_sources",
    "encoder_prefix",
    "source_stream",
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


@dataclass
class LatentState:
    """Token grid between encoder and decoder."""
    tokens: Tensor  # (T, hidden)
    valid_time: int
    extents: tuple[int, int, int]


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def _conv_layout(name, c_out, c_in, k=3, transposed=False, scale=None) -> list:
    """Layout of a conv's weight and bias, the weight scaled by its fan-in.

    A transposed conv's weight is (c_in, c_out, k, k).
    """
    shape = (c_in, c_out, k, k) if transposed else (c_out, c_in, k, k)
    s = scale if scale is not None else 1.0 / math.sqrt(c_in * k * k)
    return [(f"{name}.w", shape, s), (f"{name}.b", (c_out,), "zeros")]


def _res_layout(prefix, c) -> list:
    return [e for j in range(2) for conv in ("conv1", "conv2")
            for e in _conv_layout(f"{prefix}.res{j}.{conv}", c, c)]


def model_layout(cfg: ModelConfig, zero_residual: bool = True,
                 extra_sources: tuple[str, ...] = ()) -> list:
    """Every model parameter as (name, shape, init), in draw order.

    An encoder per source (stems, pyramid stages, blocks), the processor
    stacks per horizon, then the decoder (blocks, up-stages, heads); init
    is as in attention.block_layout.
    """
    def blocks(prefix, n):
        return [e for i in range(n)
                for e in block_layout(cfg.hidden, f"{prefix}.blk{i}", zero_residual)]

    def encoder(prefix):
        out = (_conv_layout(f"{prefix}.stem_sfc", cfg.stem_channels,
                            cfg.surface_in + N_STATIC_FIELDS)
               + _conv_layout(f"{prefix}.stem_atm", cfg.stem_channels,
                              cfg.atmos_vars * cfg.level_patch))
        chans = (cfg.stem_channels,) + cfg.stage_channels
        for i in range(DOWNSAMPLE_STAGES):
            out += (_conv_layout(f"{prefix}.stage{i}.down", chans[i + 1], chans[i])
                    + _res_layout(f"{prefix}.stage{i}", chans[i + 1]))
        return out + blocks(prefix, cfg.enc_blocks)

    if any(source_stream(s) == 0 for s in extra_sources):
        raise ConfigError("primary source already has the default encoder")
    out = []
    for source in (PRIMARY_SOURCE, *extra_sources):
        out += encoder(encoder_prefix(source))
    for h in cfg.horizons:
        out += blocks(f"proc{h}", cfg.proc_blocks)
    out += blocks("dec", cfg.dec_blocks)
    chans = [cfg.hidden] + list(cfg.stage_channels[-2::-1]) + [cfg.stem_channels]
    for i in range(DOWNSAMPLE_STAGES):
        out += (_conv_layout(f"dec.stage{i}.up", chans[i + 1], chans[i], k=4,
                             transposed=True)
                + _res_layout(f"dec.stage{i}", chans[i + 1]))
    head_scale = 0.0 if zero_residual else None
    return (out + _conv_layout("dec.head_sfc", cfg.surface_out, cfg.stem_channels,
                               scale=head_scale)
            + _conv_layout("dec.head_atm", cfg.atmos_vars * cfg.level_patch,
                           cfg.stem_channels, scale=head_scale))


def init_model_params(cfg: ModelConfig, seed: int = 0, zero_residual: bool = True,
                      extra_sources: tuple[str, ...] = ()) -> dict[str, Tensor]:
    """All trainable tensors, flat dict keyed by dotted names.

    zero_residual zeroes residual-branch output projections and decoder
    heads so the fresh model maps any input to zero fields; training then
    moves away from the climatological mean first.
    """
    return draw_params(np.random.default_rng(seed),
                       model_layout(cfg, zero_residual, extra_sources))


def encoder_prefix(source: str) -> str:
    return "enc" if source == PRIMARY_SOURCE else f"enc_op.{source}"


def source_stream(source: str) -> int:
    """The dataset input stream a source's encoder reads: primary 0, "op<j>" j.

    Any other name raises ConfigError.  Training, the CLI and the blend
    logits all order sources by this number.
    """
    if source == PRIMARY_SOURCE:
        return 0
    if not re.fullmatch(r"op[1-9][0-9]*", source):
        raise ConfigError(f"source {source!r} is neither {PRIMARY_SOURCE!r} "
                          "nor op<j> with j >= 1")
    return int(source[2:])


def available_sources(params: dict) -> list[str]:
    """The model's encoders: primary first, then the extras by stream number."""
    extras = {k.split(".")[1] for k in params if k.startswith("enc_op.")}
    primary = [PRIMARY_SOURCE] if "enc.stem_sfc.w" in params else []
    return primary + sorted(extras, key=source_stream)


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
    # built before the pyramid allocates: made mid-graph, the long-lived plan kept
    # glibc from returning the freed graph (desk train peak RSS 207, not 189 MiB)
    plan = attention_plan(cfg.latent_extents, cfg.window, cfg.hidden // cfg.heads, cfg.heads)
    if ad.grad_enabled():
        plan.backward()

    sfc = np.concatenate([state.surface, static_fields(g)], axis=0)[None]
    a, p = cfg.atmos_vars, cfg.level_patch  # level group j is a (A*p, H, W) plane
    atm = state.atmos.reshape(a, -1, p, g.rows, g.cols).transpose(1, 0, 2, 3, 4)
    planes = ad.concat([_conv(Tensor(sfc), params, f"{prefix}.stem_sfc"),
                        _conv(Tensor(atm.reshape(-1, a * p, g.rows, g.cols)), params,
                              f"{prefix}.stem_atm")])
    x = _pyramid_down(planes, params, prefix)  # (D, hidden, H/8, W/8)
    tokens = x.transpose(0, 2, 3, 1).reshape(-1, cfg.hidden)
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
    planes = x.reshape(lat.extents + (cfg.hidden,)).transpose(0, 3, 1, 2)
    full = _pyramid_up(planes, params, up_shapes)  # (D, stem, H, W)
    surface = _conv(full[0], params, "dec.head_sfc")
    atmos = _conv(full[1:], params, "dec.head_atm").reshape(
        -1, cfg.atmos_vars, cfg.level_patch, g.rows, g.cols).transpose(1, 0, 2, 3, 4)
    return DecodedFields(lat.valid_time, surface,
                         atmos.reshape(cfg.atmos_vars, cfg.levels, g.rows, g.cols))


def encode_sources(states, params: dict, cfg: ModelConfig, sources) -> LatentState:
    """Encode states[i] with the encoder of sources[i]; blend several into one latent.

    One source gives its encoder's latent.  Several are weighted by
    softmax(take(blend.logits, picked)) and summed in source order, where
    params["blend.logits"] holds one logit per encoder of the model, in
    available_sources order.  Training blends every source, a forecast may
    blend a subset.
    """
    if not sources or len(states) != len(sources):
        raise ConfigError(f"{len(states)} states for {len(sources)} sources")
    t0 = states[0].valid_time
    for st in states[1:]:
        if st.valid_time != t0:
            raise ConfigError(f"blend of mismatched valid times {t0} and {st.valid_time}")
    lats = [encode(st, params, cfg, source=s) for st, s in zip(states, sources)]
    if len(lats) == 1:
        return lats[0]
    if "blend.logits" not in params:
        raise ConfigError("blending sources needs blend.logits in params")
    known = available_sources(params)
    logits = params["blend.logits"]
    if logits.shape != (len(known),):
        raise ConfigError(f"blend.logits has shape {logits.shape}, "
                          f"model has {len(known)} sources")
    picked = np.array([known.index(s) for s in sources], dtype=np.int64)
    w = ad.softmax(ad.take(logits, picked))
    out = lats[0].tokens * w[0]
    for i in range(1, len(lats)):
        out = out + lats[i].tokens * w[i]
    return LatentState(out, t0, lats[0].extents)


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
    hh, ww = h, w
    for i, c in enumerate(cfg.stage_channels):
        hh, ww = hh // 2, ww // 2
        stages.append({"stage": i, "channels": c, "rows": hh, "cols": ww})
    ext = cfg.latent_extents
    n_blocks = cfg.enc_blocks + cfg.dec_blocks + len(cfg.horizons) * cfg.proc_blocks
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
        "param_elements": sum(math.prod(shape) for _, shape, _ in model_layout(cfg)),
    }


# ---------------------------------------------------------------------------
# config file round trip
# ---------------------------------------------------------------------------

def _field_types(cls) -> dict:
    """A config dataclass's fields in order, each with its value type."""
    hints = get_type_hints(cls)
    return {f.name: get_origin(hints[f.name]) or hints[f.name] for f in fields(cls)}


_GRID_KEYS = _field_types(GridSpec)
_CONFIG_KEYS = _GRID_KEYS | {k: ty for k, ty in _field_types(ModelConfig).items()
                             if k != "grid"}


def config_to_dict(cfg: ModelConfig) -> dict:
    return {k: getattr(cfg.grid if k in _GRID_KEYS else cfg, k) for k in _CONFIG_KEYS}


def config_from_dict(d: dict) -> ModelConfig:
    # JSON hands tuples back as lists
    kwargs = {k: tuple(v) if _CONFIG_KEYS[k] is tuple else v for k, v in d.items()
              if k in _CONFIG_KEYS}
    grid = GridSpec(**{k: kwargs.pop(k) for k in _GRID_KEYS})
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
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    for ln, raw in enumerate(lines, 1):
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
