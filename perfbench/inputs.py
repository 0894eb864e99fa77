"""Input files of one workload, made from the workload seed.

Every workload uses the desk config (40x80 grid, 3x5x10 latent). Seeds:
the dataset uses the workload seed, the parameters the workload seed + 1,
and the blend logits are drawn uniform in [-1, 1) from rng([seed, 2]).

    forecast-day  desk.cfg; params.lmtw with a second-source encoder "op1"
                  and blend logits; analysis.wmd3, two sources, hours 0-23;
                  truth.npy, truth planes for hours 0-47
    forecast-14d  desk.cfg; params.lmtw, primary encoder only;
                  analysis.wmd3, one source, rigid rotation, hours 0-23;
                  truth.npy, truth planes for hours 0-23
    train         train.wmd3, one source, hours 0-47

Forecast parameters are drawn without the zero-residual start, so their
outputs are not identically zero. The train workload builds its own fresh
zero-residual model in memory.

run.py runs this file as a child process, so that input generation, whose
memory peak is above an op's, does not set the measured peak RSS:

    python3 perfbench/inputs.py --workload forecast-day --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from gridcast.model import desk_config, init_model_params, save_config  # noqa: E402
from gridcast.serialization import save_params_file  # noqa: E402
from gridcast.synthdata import (WeatherDataset, generate_dataset,  # noqa: E402
                                save_dataset_file)

ANALYSIS_HOURS = 24  # an analysis file holds init hours 0..23
MAX_DAY_LEAD = 24
LONG_LEAD = 336  # the paper's 14-day lead
TRAIN_HOURS = 48

CONFIG = "desk.cfg"
PARAMS = "params.lmtw"
ANALYSIS = "analysis.wmd3"
TRUTH = "truth.npy"
TRAIN_DATA = "train.wmd3"


def params_seed(seed: int) -> int:
    return seed + 1


def _slice(ds, n_times: int):
    return WeatherDataset(grid=ds.grid, surface_in=ds.surface_in,
                          surface_out=ds.surface_out,
                          atmos_vars=ds.atmos_vars, levels=ds.levels,
                          times=ds.times[:n_times].copy(),
                          truth=ds.truth[:n_times],
                          sources=tuple(s[:n_times] for s in ds.sources))


def write_inputs(workload: str, seed: int, out: str) -> None:
    cfg = desk_config()
    os.makedirs(out, exist_ok=True)

    def dataset(hours, n_sources, advection_only=False):
        return generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                                cfg.atmos_vars, cfg.levels, hours=hours,
                                seed=seed, n_sources=n_sources,
                                advection_only=advection_only)

    if workload == "train":
        save_dataset_file(dataset(TRAIN_HOURS - 1, 1),
                          os.path.join(out, TRAIN_DATA))
        return

    save_config(os.path.join(out, CONFIG), cfg)
    if workload == "forecast-day":
        params = init_model_params(cfg, seed=params_seed(seed),
                                   zero_residual=False, extra_sources=("op1",))
        blobs = {k: v.values for k, v in params.items()}
        blobs["blend.logits"] = np.random.default_rng([seed, 2]).uniform(-1.0, 1.0, 2)
        ds = dataset(ANALYSIS_HOURS + MAX_DAY_LEAD - 1, 2)
        analysis = _slice(ds, ANALYSIS_HOURS)
    elif workload == "forecast-14d":
        params = init_model_params(cfg, seed=params_seed(seed),
                                   zero_residual=False)
        blobs = {k: v.values for k, v in params.items()}
        ds = analysis = dataset(ANALYSIS_HOURS - 1, 1, advection_only=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    save_params_file(os.path.join(out, PARAMS), blobs)
    save_dataset_file(analysis, os.path.join(out, ANALYSIS))
    np.save(os.path.join(out, TRUTH), ds.truth)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
