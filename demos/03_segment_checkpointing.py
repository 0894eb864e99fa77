"""Segment checkpointing: one latent of tape memory per rollout step.

Each processor step is a checkpointed segment. Its tape node pins the
segment's input latent and nothing else; backward recomputes the interior.
Gradients match the plain, un-checkpointed processor chain bitwise, and the
tape's saved-bytes peak grows by exactly one latent per extra step, where
the plain chain's grows by a whole step's worth of saved activations.
"""

import numpy as np

from gridcast import autodiff as ad
from gridcast.model import WeatherState, encode, init_model_params, process, tiny_config
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
latent = 8 * cfg.tokens * cfg.hidden


def run(n_steps, checkpointed):
    """All gradients flattened, and the tape's saved-bytes peak."""
    ad.reset_tape_stats()
    lat = encode(state, params, cfg)
    if checkpointed:
        lat = rollout(lat, (6,) * n_steps, params, cfg)
    else:
        for _ in range(n_steps):
            lat = process(lat, params, cfg, 6)
    loss = (lat.tokens * lat.tokens).mean()
    g = ad.backward(loss, leaves=leaves)
    grads = np.concatenate([g[t].ravel() for t in leaves])
    return grads, ad.tape_stats().saved_bytes_peak


g_ck, _ = run(4, True)
g_plain, _ = run(4, False)
print(f"checkpointed gradients identical to plain: "
      f"{g_ck.tobytes() == g_plain.tobytes()}")

print(f"\nlatent: {latent} B")
print(f"{'steps':>6} {'tape peak, checkpointed (B)':>28} {'tape peak, plain (B)':>21}")
for n in (1, 2, 4, 8, 16):
    _, ck = run(n, True)
    _, plain = run(n, False)
    print(f"{n:>6} {ck:>28} {plain:>21}")
