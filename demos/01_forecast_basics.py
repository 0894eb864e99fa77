"""End-to-end tour: synthetic data, a short training run, one forecast.

Everything here runs in well under a minute on one CPU core.
"""

import numpy as np

from gridcast import autodiff as ad
from gridcast.evaluation import latitude_rmse
from gridcast.model import init_model_params, tiny_config
from gridcast.rollout import forecast
from gridcast.synthdata import generate_dataset
from gridcast.training import train

cfg = tiny_config()
print(f"grid {cfg.grid.rows}x{cfg.grid.cols}, latent {cfg.latent_extents}, "
      f"{cfg.tokens} tokens of width {cfg.hidden}")

# traveling-wave fields with a known drift; sigma of each plane is near 1
ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                      cfg.atmos_vars, cfg.levels, hours=30, seed=0)
print(f"dataset: {ds.n_times} hourly states, "
      f"{ds.truth.shape[1]} output planes per state")

params = init_model_params(cfg, seed=0)
hist = train(params, cfg, ds, "pretrain", steps=40, seed=1, lr_max=3e-3)
print(f"loss {hist[0]['loss']:.3f} -> {hist[-1]['loss']:.3f} in 40 steps")

# forecast 12 h ahead from the first analysis and score it against truth
state = ds.input_state(ds.index_at(0))
with ad.no_grad():
    out = forecast([state], 12, params, cfg)
sfc_true, _ = ds.truth_fields(ds.index_at(12))

for i in range(cfg.surface_out):
    err = latitude_rmse(out.surface.values[i], sfc_true[i], cfg.grid)
    base = latitude_rmse(np.zeros_like(sfc_true[i]), sfc_true[i], cfg.grid)
    print(f"surface plane {i}: rmse {err:.3f}  (zero forecast {base:.3f})")
