"""Curriculum training over mixed forecast horizons.

One step samples a handful of lead times, encodes the initial state once,
advances the latent along the shared six-hour prefix chain, decodes at each
sampled lead, and applies a single optimizer update to the per-plane
sigma-normalized squared error averaged over the leads. Later stages reuse
the same step with a different lead-time pool and a restricted trainable
set: the hourly stage tunes only the one-hour processor, the multi-source
stage tunes only the added encoders and the blend weights.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

from .attention import draw_params
from .autodiff import Tensor, backward
from .errors import ConfigError, DataError, NumericsError
from .model import (
    ModelConfig,
    PRIMARY_SOURCE,
    available_sources,
    decode,
    encode_sources,
    model_layout,
    process,
    source_stream,
)
from .serialization import save_params_file
from .synthdata import WeatherDataset

STAGES = ("pretrain", "anneal", "1h", "operational")

LR_MAX_DEFAULT = 3e-4
LR_MIN = 0.0  # the cosine schedule's final learning rate
N_DRAW = 3  # lead times per step: N_DRAW - 1 random picks plus the pool maximum
CLIP_NORM = 1.0  # bound on the global gradient norm before each update

# step threshold -> admissible lead times (hours); the pool only ever grows
PRETRAIN_SCHEDULE = (
    (0, (0, 6, 12)),
    (1000, (0, 6, 12, 18, 24)),
    (15000, (0, 6, 12, 18, 24, 30)),
    (21000, (0, 6, 12, 18, 24, 30, 36)),
    (26000, (0, 6, 12, 18, 24, 30, 36, 42)),
    (30000, (0, 6, 12, 18, 24, 30, 36, 42, 48)),
)

ANNEAL_MAX_DT = 120
HOURLY_MAX_DT = 24


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def admissible_dts(step: int, stage: str = "pretrain") -> tuple:
    """Lead-time pool for one training step of the given stage."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if step < 0:
        raise ConfigError("step must be >= 0")
    if stage == "anneal":
        return tuple(range(0, ANNEAL_MAX_DT + 1, 6))
    if stage == "1h":
        return tuple(range(0, HOURLY_MAX_DT + 1))
    pool = PRETRAIN_SCHEDULE[0][1]
    for threshold, dts in PRETRAIN_SCHEDULE:
        if step >= threshold:
            pool = dts
    return pool


def sample_dts(rng, admissible, n_draw: int = 3) -> tuple:
    """Sorted unique lead times: n_draw-1 random picks plus the pool maximum."""
    if not admissible:
        raise ConfigError("empty lead-time pool")
    picks = rng.choice(len(admissible), size=max(0, n_draw - 1), replace=True)
    chosen = {admissible[int(i)] for i in picks}
    chosen.add(max(admissible))
    return tuple(sorted(chosen))


def sample_dts_hourly(rng, n_draw: int = 5) -> tuple:
    """Hourly-stage leads: uniform over 0..24, no forced maximum."""
    picks = rng.integers(0, HOURLY_MAX_DT + 1, size=n_draw)
    return tuple(sorted({int(d) for d in picks}))


def cosine_lr(step: int, total_steps: int, lr_max: float = LR_MAX_DEFAULT,
              lr_min: float = 0.0) -> float:
    """Half-cosine decay; exactly lr_max at step 0 and lr_min at the last step."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if step < 0 or step >= total_steps:
        raise ConfigError(f"step {step} outside 0..{total_steps - 1}")
    if total_steps == 1:
        return lr_max
    frac = step / (total_steps - 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with per-name moments; touches only the trainable subset.

    Parameters outside the trainable set are never written, so stage
    freezing is bitwise. A trainable parameter that received no gradient
    this step keeps its moments unchanged.
    """

    def __init__(self, params: dict, trainable=None, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        names = tuple(sorted(trainable)) if trainable is not None \
            else tuple(sorted(params))
        for n in names:
            if n not in params:
                raise ConfigError(f"trainable name {n!r} not in parameters")
        self.params = params
        self.trainable = names
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(params[n].values) for n in names}
        self.v = {n: np.zeros_like(params[n].values) for n in names}
        self.t = 0

    def step(self, grads: dict, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for n in self.trainable:
            p = self.params[n]
            g = grads.get(p)
            if g is None:
                continue
            m, v = self.m[n], self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.values -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def trainable_names(params: dict, stage: str) -> tuple:
    """Which parameters a stage may update."""
    if stage in ("pretrain", "anneal"):
        keep = lambda k: not (k.startswith("proc1.") or k.startswith("enc_op.")
                              or k.startswith("blend."))
    elif stage == "1h":
        keep = lambda k: k.startswith("proc1.")
    elif stage == "operational":
        keep = lambda k: k.startswith("enc_op.") or k.startswith("blend.")
    else:
        raise ConfigError(f"unknown stage {stage!r}")
    return tuple(sorted(k for k in params if keep(k)))


def add_source_encoders(params: dict, cfg: ModelConfig, names, seed: int = 0) -> None:
    """Graft fresh encoders for extra input sources plus uniform blend logits.

    The encoders hold the values init_model_params(cfg, seed,
    extra_sources=names) gives them; only the layout up to the last extra
    encoder is drawn.  The logits cover every encoder the model then has.
    """
    names = tuple(names)
    if not names:
        raise ConfigError("no source names given")
    layout = model_layout(cfg, extra_sources=names)
    last = max(i for i, (k, _, _) in enumerate(layout) if k.startswith("enc_op."))
    fresh = draw_params(np.random.default_rng(seed), layout[:last + 1])
    for k, v in fresh.items():
        if k.startswith("enc_op."):
            params[k] = v
    params["blend.logits"] = Tensor(np.zeros(len(available_sources(params))),
                                    requires_grad=True)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def normalized_loss(dec, sfc_true: np.ndarray, atm_true: np.ndarray,
                    sigmas: np.ndarray) -> Tensor:
    """Mean squared error with each field plane scaled by its dataset sigma."""
    s = sfc_true.shape[0]
    inv_sfc = (1.0 / sigmas[:s]).reshape(s, 1, 1)
    a, l = atm_true.shape[0], atm_true.shape[1]
    inv_atm = (1.0 / sigmas[s:]).reshape(a, l, 1, 1)
    d_sfc = (dec.surface - Tensor(sfc_true)) * Tensor(inv_sfc)
    d_atm = (dec.atmos - Tensor(atm_true)) * Tensor(inv_atm)
    n = d_sfc.values.size + d_atm.values.size
    return (d_sfc * d_sfc).sum() * (1.0 / n) + (d_atm * d_atm).sum() * (1.0 / n)


# ---------------------------------------------------------------------------
# one training step
# ---------------------------------------------------------------------------

def _initial_latent(params, cfg, ds, idx, stage):
    sources = [PRIMARY_SOURCE]
    if stage == "operational":
        sources = available_sources(params)
        if len(sources) < 2:
            raise ConfigError("operational stage needs at least two encoders")
        if ds.n_sources <= source_stream(sources[-1]):
            raise ConfigError(f"source {sources[-1]!r} has no dataset stream "
                              f"(dataset carries {ds.n_sources})")
    states = [ds.input_state(idx, source=source_stream(s)) for s in sources]
    return encode_sources(states, params, cfg, sources)


def train_step(params, cfg: ModelConfig, ds: WeatherDataset, dts, t0: int,
               sigmas: np.ndarray, stage: str = "pretrain"):
    """Shared-prefix multi-lead step; returns the scalar loss Tensor.

    The initial state is encoded once. Latents at six-hour multiples are
    computed once and reused by every lead that needs them; hour tails
    branch off the nearest six-hour latent.
    """
    dts = tuple(sorted(set(int(d) for d in dts)))
    if not dts:
        raise ConfigError("no lead times sampled")
    idx0 = ds.index_at(t0)
    lat0 = _initial_latent(params, cfg, ds, idx0, stage)

    six, six_h = lat0, 0  # latent at the latest six-hour multiple reached
    total = None
    for dt in dts:
        while six_h < (dt // 6) * 6:
            six = process(six, params, cfg, 6)
            six_h += 6
        z = six
        for _ in range(dt % 6):
            z = process(z, params, cfg, 1)
        dec = decode(z, params, cfg)
        sfc_t, atm_t = ds.truth_fields(ds.index_at(t0 + dt))
        term = normalized_loss(dec, sfc_t, atm_t, sigmas)
        total = term if total is None else total + term
    return total * (1.0 / len(dts))


# ---------------------------------------------------------------------------
# training driver
# ---------------------------------------------------------------------------

def clip_gradients(grads: dict, clip_norm: float) -> float:
    """Scale all gradients so their global norm is at most clip_norm.

    Returns the pre-clip norm. Mutates the gradient arrays in place. A
    clip_norm of 0, or a non-finite norm, leaves them as they are.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if math.isfinite(norm) and norm > clip_norm > 0.0:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _log_row(out_dir, row: list, mode: str = "a"):
    """Write one row of out_dir/train_log.csv and close it, so the row is on disk."""
    if out_dir is not None:
        with open(os.path.join(out_dir, "train_log.csv"), mode, newline="") as f:
            csv.writer(f).writerow(row)


def train(params: dict, cfg: ModelConfig, ds: WeatherDataset, stage: str,
          steps: int, seed: int = 0, out_dir=None, lr_max: float = LR_MAX_DEFAULT,
          checkpoint_every: int = 100):
    """Run one stage for a fixed number of steps; returns the step history.

    All randomness flows from the single seed. Each history row holds the
    step, lr, loss, lead times, pre-clip gradient norm and step wall time;
    with out_dir set, each row is also appended to train_log.csv next to the
    parameter checkpoints as its step ends, so a crash keeps the rows of the
    steps before it. The learning rate decays from lr_max to LR_MIN,
    and gradients are clipped to a global norm of CLIP_NORM before each
    update. A non-finite loss or gradient raises NumericsError before the
    update. lr_max must be finite and positive and checkpoint_every (0: no
    step checkpoints) at least 0, or ConfigError is raised before any step.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if not (math.isfinite(lr_max) and lr_max > 0.0):
        raise ConfigError(f"lr_max must be finite and positive, got {lr_max}")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    horizon_cap = max(admissible_dts(steps - 1, stage))
    if int(ds.times[-1]) < horizon_cap:
        raise DataError(
            f"dataset spans {int(ds.times[-1])} h but stage needs {horizon_cap} h")
    if stage == "1h" and 1 not in cfg.horizons:
        raise ConfigError("hourly stage needs a one-hour processor in cfg.horizons")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    _log_row(out_dir, ["step", "lr", "loss", "dts", "grad_norm", "step_s"], "w")

    rng = np.random.default_rng([seed, 13])
    opt = Adam(params, trainable=trainable_names(params, stage))
    sigmas = ds.plane_sigmas()
    history = []
    for i in range(steps):
        lr = cosine_lr(i, steps, lr_max, LR_MIN)
        if stage == "1h":
            dts = sample_dts_hourly(rng)
        else:
            dts = sample_dts(rng, admissible_dts(i, stage), N_DRAW)
        hi = int(ds.times[-1]) - max(dts)
        t0 = int(ds.times[0]) + int(rng.integers(0, hi - int(ds.times[0]) + 1))
        start = time.perf_counter()
        loss = train_step(params, cfg, ds, dts, t0, sigmas, stage)
        loss_v = float(loss.values)
        if not math.isfinite(loss_v):
            raise NumericsError(f"step {i}: loss is {loss_v}")
        grads = backward(loss, leaves=[params[n] for n in opt.trainable])
        grad_norm = clip_gradients(grads, CLIP_NORM)
        if not math.isfinite(grad_norm):
            bad = next((n for n in opt.trainable
                        if not np.isfinite(grads[params[n]]).all()), None)
            raise NumericsError(
                f"step {i}: gradient norm is {grad_norm}"
                + (f"; first non-finite gradient is {bad!r}" if bad else ""))
        opt.step(grads, lr)
        history.append({"step": i, "lr": lr, "loss": loss_v, "dts": dts,
                        "grad_norm": grad_norm,
                        "step_s": time.perf_counter() - start})
        _log_row(out_dir, [i, f"{lr:.12e}", f"{loss_v:.12e}", ";".join(str(d) for d in dts),
                           f"{grad_norm:.12e}", f"{history[-1]['step_s']:.6f}"])
        if out_dir is not None and checkpoint_every and (i + 1) % checkpoint_every == 0:
            save_params_file(os.path.join(out_dir, f"params_step_{i + 1:06d}.lmtw"),
                             {k: v.values for k, v in params.items()})

    if out_dir is not None:
        save_params_file(os.path.join(out_dir, "params_final.lmtw"),
                         {k: v.values for k, v in params.items()})
    return history
