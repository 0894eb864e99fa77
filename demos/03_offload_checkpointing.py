"""Activation offloading: constant tape memory no matter how long the rollout.

Each processor step is a checkpointed segment. The default store pins every
segment's input on the tape, so the tape's saved-bytes peak grows with the
rollout length. The offload engine copies each input into one of its slots
instead and hands them back, newest first, to the backward pass: gradients
match the plain path bitwise while the tape peak stays flat as the forecast
horizon grows.
"""

import numpy as np

from gridcast import autodiff as ad
from gridcast.model import WeatherState, encode, init_model_params, tiny_config
from gridcast.offload import OffloadEngine
from gridcast.rollout import rollout

cfg = tiny_config()
params = init_model_params(cfg, seed=21, zero_residual=False)
rng = np.random.default_rng(2)
state = WeatherState(
    valid_time=0,
    surface=rng.standard_normal((cfg.surface_in, cfg.grid.rows, cfg.grid.cols)),
    atmos=rng.standard_normal((cfg.atmos_vars, cfg.levels,
                               cfg.grid.rows, cfg.grid.cols)))
leaves = [params[k] for k in sorted(params)]


def run(n_steps, engine):
    """All gradients flattened, and the tape's saved-bytes peak."""
    ad.reset_tape_stats()
    lat = encode(state, params, cfg)
    lat = rollout(lat, (6,) * n_steps, params, cfg, engine=engine)
    loss = (lat.tokens * lat.tokens).mean()
    g = ad.backward(loss, leaves=leaves)
    grads = np.concatenate([g[t].ravel() for t in leaves])
    return grads, ad.tape_stats().saved_bytes_peak


g_plain, _ = run(4, None)
eng = OffloadEngine()
g_off, _ = run(4, eng)
eng.close()
print(f"offloaded gradients identical to plain: "
      f"{g_plain.tobytes() == g_off.tobytes()}")

print(f"\n{'steps':>6} {'tape peak, offloaded (B)':>25} {'tape peak, pinned (B)':>22}")
for n in (1, 2, 4, 8, 16):
    e = OffloadEngine()
    _, offloaded = run(n, e)
    e.close()
    _, pinned = run(n, None)
    print(f"{n:>6} {offloaded:>25} {pinned:>22}")
