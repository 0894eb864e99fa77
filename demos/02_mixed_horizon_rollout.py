"""How a lead time becomes a processor plan, and why it stays in latent space.

A dt-hour forecast runs as many six-hour latent steps as fit, then one-hour
steps for the remainder. Nothing is decoded in between, so plans for longer
leads are strict extensions of shorter ones.
"""

import numpy as np

from gridcast import autodiff as ad
from gridcast.model import (CALL_COUNTS, WeatherState, decode, encode,
                            init_model_params, process, reset_call_counts,
                            tiny_config)
from gridcast.rollout import forecast, greedy_plan, rollout

for dt in (0, 1, 5, 6, 7, 23, 24, 120, 121):
    plan = greedy_plan(dt)
    shown = "".join("6" if h == 6 else "1" for h in plan) or "(empty)"
    print(f"dt {dt:>3} h -> {len(plan):>2} steps: {shown}")

cfg = tiny_config()
params = init_model_params(cfg, seed=3, zero_residual=False)
rng = np.random.default_rng(1)
state = WeatherState(
    valid_time=0,
    surface=rng.standard_normal((cfg.surface_in, cfg.grid.rows, cfg.grid.cols)),
    atmos=rng.standard_normal((cfg.atmos_vars, cfg.levels,
                               cfg.grid.rows, cfg.grid.cols)))

with ad.no_grad():
    reset_call_counts()
    out = forecast([state], 13, params, cfg)
    print(f"\nforecast(13 h) call counts: {dict(CALL_COUNTS)}")

    # the rollout itself is pure composition; check against manual chaining
    lat = encode(state, params, cfg)
    manual = lat
    for h in greedy_plan(13):
        manual = process(manual, params, cfg, h)
    manual = decode(manual, params, cfg)

same = out.surface.values.tobytes() == manual.surface.values.tobytes()
print(f"rollout equals manual processor chain bitwise: {same}")

with ad.no_grad():
    reset_call_counts()
    rollout(encode(state, params, cfg), greedy_plan(13), params, cfg)
print(f"decode/encode calls inside the rollout itself: "
      f"{CALL_COUNTS['decode'] + CALL_COUNTS['encode'] - 1}")
