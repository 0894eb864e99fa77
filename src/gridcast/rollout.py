"""Greedy mixed-horizon latent rollout.

A forecast of dt hours is decomposed greedily: as many six-hour processor
applications as fit, then one-hour applications for the remainder, run
back to back in latent space.  No decoding or re-encoding happens between
steps; the only grid-space work is the encode (one per blended source) at
the start and one decode at the end.

Each step is a checkpointed segment, so long rollouts keep a constant
number of live intermediates.  The segment inputs are pinned on the tape, or
copied into the slots of an OffloadEngine passed as the segment store, which
keeps the tape's saved-bytes peak flat in the number of steps.  Under
no_grad no segment is recorded and the engine stores nothing.  A step whose
latent holds NaN or inf raises NumericsError naming the step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericsError
from .model import (
    DecodedFields,
    LatentState,
    ModelConfig,
    PRIMARY_SOURCE,
    decode,
    encode_sources,
    process,
)
from .offload import OffloadEngine

__all__ = ["greedy_plan", "plan_hours", "require_finite", "rollout", "forecast"]


def greedy_plan(dt: int, max_dt: int = 336) -> tuple[int, ...]:
    """Horizon sequence for a dt-hour forecast: sixes first, then ones."""
    if not isinstance(dt, (int,)) or isinstance(dt, bool):
        raise ConfigError(f"dt must be an integer hour count, got {dt!r}")
    if dt < 0:
        raise ConfigError(f"dt must be nonnegative, got {dt}")
    if dt > max_dt:
        raise ConfigError(f"dt {dt} exceeds the configured cap {max_dt}")
    return (6,) * (dt // 6) + (1,) * (dt % 6)


def plan_hours(plan) -> int:
    return sum(plan)


def require_finite(what: str, *tensors: ad.Tensor) -> None:
    """NumericsError naming what, if any of the tensors holds NaN or inf."""
    if not all(np.isfinite(t.values).all() for t in tensors):
        raise NumericsError(f"{what} is not finite")


def _check_plan(plan, params: dict, cfg: ModelConfig) -> None:
    for h in plan:
        if h not in cfg.horizons:
            raise ConfigError(f"plan step {h} h not among configured horizons {cfg.horizons}")
        if f"proc{h}.blk0.ln1.gain" not in params:
            raise ConfigError(f"parameters carry no {h} h processor, required by the plan")


def rollout(lat: LatentState, plan, params: dict, cfg: ModelConfig,
            engine: OffloadEngine | None = None) -> LatentState:
    """Apply the plan's processors in sequence, entirely in latent space.

    The empty plan returns the input state unchanged.  Every step is a
    checkpoint segment; the composition is bitwise identical to calling the
    processors back to back without checkpointing.
    """
    plan = tuple(plan)
    _check_plan(plan, params, cfg)
    if not plan:
        return lat
    ext = lat.extents

    def make_step(h):
        def step(tokens):
            return process(LatentState(tokens, 0, ext), params, cfg, h).tokens
        return step

    tokens = lat.tokens
    for i, h in enumerate(plan, 1):
        tokens = ad.checkpoint_segment(make_step(h), tokens, store=engine)
        require_finite(f"rollout: latent after step {i} of {len(plan)} ({h} h)", tokens)
    return LatentState(tokens, lat.valid_time + plan_hours(plan), ext)


def forecast(states, dt: int, params: dict, cfg: ModelConfig,
             sources=(PRIMARY_SOURCE,)) -> DecodedFields:
    """Encode (blending several sources) -> greedy latent rollout -> decode.

    states[i] is the analysis that sources[i]'s encoder reads.  The plan is
    checked before any encoding; a latent or a field holding NaN or inf
    raises NumericsError naming the stage.
    """
    plan = greedy_plan(dt, cfg.max_dt)
    lat = encode_sources(states, params, cfg, sources)
    del states  # a caller's temporary list of analyses frees before the decode
    require_finite(f"forecast: latent after {'encode' if len(sources) == 1 else 'blend'}",
                   lat.tokens)
    dec = decode(rollout(lat, plan, params, cfg), params, cfg)
    require_finite("forecast: fields after decode", dec.surface, dec.atmos)
    return dec
