"""Command line front end.

Subcommands: gen-data, train, forecast, evaluate, scorecard, verify.
forecast runs rollout.forecast, the library's one encode -> rollout ->
decode path. Every artifact-producing run writes a manifest JSON next to its
output recording the command, the resolved configuration, the seed, library
versions, output paths, and wall time.

Exit codes: 0 on success; 1 on a handled failure, with a single
machine-parseable line "error: <category>: message" on stderr where
category is one of io, config, data, compute (a NaN or inf result) or
internal (any other failure, a bug); 2 for usage errors.

The environment variable GRIDCAST_OUT_DIR, when set, is prepended to
relative output paths. It affects nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericsError
from .model import (
    PRIMARY_SOURCE,
    available_sources,
    config_to_dict,
    init_model_params,
    load_config,
    model_layout,
    source_stream,
)
from .rollout import forecast, greedy_plan
from .serialization import ContainerError, load_params_file, save_params_file
from .synthdata import generate_dataset, load_dataset_file, save_dataset_file
from .training import add_source_encoders, train

OUT_DIR_ENV = "GRIDCAST_OUT_DIR"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _versions() -> dict:
    """Package versions, the BLAS build and its thread settings.

    numpy is gridcast's only runtime dependency, so it is the only package
    recorded besides gridcast and Python.  OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS are recorded (None when unset) to describe the run.  A
    desk train step's loss and gradients come out bitwise the same at one
    and at two BLAS threads; a test checks that.
    """
    out = {"gridcast": __version__, "numpy": np.__version__,
           "python": platform.python_version()}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out["blas"] = blas.get("name")
    out["blas_version"] = blas.get("version")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        out[var] = os.environ.get(var)
    return out


def write_manifest(target, command, config: dict, seed, outputs, wall_time_s):
    """Record one run next to its artifact; returns the manifest path."""
    if os.path.isdir(target):
        path = os.path.join(target, "manifest.json")
    else:
        path = str(target) + ".manifest.json"
    doc = {"command": list(command), "config": config, "seed": seed,
           "versions": _versions(),
           "outputs": [str(p) for p in outputs],
           "wall_time_s": round(float(wall_time_s), 6)}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _load_params_tensors(path, cfg) -> dict:
    """Parameters as leaf tensors, checked against model_layout(cfg, the file's encoders)."""
    blobs = load_params_file(path)
    try:
        extras = tuple(s for s in available_sources(blobs) if s != PRIMARY_SOURCE)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    stacks = {k.split(".")[0] for k in blobs}  # a wholly absent processor is the rollout's error
    want = {k: shape for k, shape, _ in model_layout(cfg, extra_sources=extras)
            if not k.startswith("proc") or k.split(".")[0] in stacks}
    if "blend.logits" in blobs:  # one logit per encoder
        want["blend.logits"] = (1 + len(extras),)
    for k in sorted(want.keys() | blobs.keys()):
        got = blobs[k].shape if k in blobs else "absent"
        if got != want.get(k, "absent"):
            raise DataError(f"{path}: parameter {k} is {got} in the file and "
                            f"{want.get(k, 'absent')} in the model")
        if not np.isfinite(blobs[k]).all():
            raise DataError(f"{path}: parameter {k} is not finite")
    return {k: Tensor(v, requires_grad=True) for k, v in blobs.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args, argv) -> int:
    t0 = time.time()
    cfg = load_config(args.spec)
    ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                          cfg.atmos_vars, cfg.levels, hours=args.hours,
                          seed=args.seed, n_sources=args.sources,
                          advection_only=args.advection_only)
    out = _resolve_out(args.out)
    _ensure_parent(out)
    save_dataset_file(ds, out)
    write_manifest(out, argv, config_to_dict(cfg), args.seed, [out],
                   time.time() - t0)
    print(f"wrote {out}: {ds.n_times} hourly samples, "
          f"{ds.n_sources} source(s)")
    return 0


def _cmd_train(args, argv) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    ds = load_dataset_file(args.data)
    if args.params:
        params = _load_params_tensors(args.params, cfg)
    else:
        params = init_model_params(cfg, seed=args.seed)
    if args.stage == "operational":
        names = [f"op{j}" for j in range(1, ds.n_sources)]
        have = set(available_sources(params))
        missing = [n for n in names if n not in have]
        if missing:
            add_source_encoders(params, cfg, missing, seed=args.seed)
    out = _resolve_out(args.out)
    os.makedirs(out, exist_ok=True)
    hist = train(params, cfg, ds, args.stage, steps=args.steps,
                 seed=args.seed, out_dir=out, lr_max=args.lr_max,
                 checkpoint_every=args.checkpoint_every)
    outputs = [os.path.join(out, "train_log.csv"),
               os.path.join(out, "params_final.lmtw")]
    write_manifest(out, argv, config_to_dict(cfg), args.seed, outputs,
                   time.time() - t0)
    print(f"trained {args.steps} steps ({args.stage}); "
          f"loss {hist[0]['loss']:.6f} -> {hist[-1]['loss']:.6f}")
    return 0


def _cmd_forecast(args, argv) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    params = _load_params_tensors(args.params, cfg)
    # only the init hour is kept (None: the file's last hour)
    ds = load_dataset_file(args.init, hours=(args.init_hour,))
    init_hour = args.init_hour if args.init_hour is not None else int(ds.times[-1])
    idx = ds.index_at(init_hour)

    sources = args.source or ["primary"]
    known = available_sources(params)
    for s in sources:
        if s not in known:
            raise ConfigError(f"no encoder for source {s!r}; have {known}")

    with ad.no_grad():
        dec = forecast([ds.input_state(idx, source_stream(s)) for s in sources],
                       args.dt, params, cfg, sources)

    out = _resolve_out(args.out)
    _ensure_parent(out)
    save_params_file(out, {"surface": dec.surface.values,
                           "atmos": dec.atmos.values,
                           "valid_time": np.float64(dec.valid_time)})
    write_manifest(out, argv, config_to_dict(cfg), None, [out], time.time() - t0)
    print(f"forecast +{args.dt} h from hour {init_hour} "
          f"({len(greedy_plan(args.dt))} latent steps) -> {out}")
    return 0


def _load_forecast_fields(path):
    blobs = load_params_file(path)
    for key in ("surface", "atmos", "valid_time"):
        if key not in blobs:
            raise DataError(f"forecast file lacks {key!r}")
    for key in ("surface", "atmos"):
        if not np.isfinite(blobs[key]).all():
            raise DataError(f"forecast field {key!r} holds NaN or inf")
    vt = blobs["valid_time"]
    if vt.ndim != 0:
        raise DataError(f"forecast valid_time must be a scalar, got shape {vt.shape}")
    if not np.isfinite(vt) or vt != np.floor(vt):
        raise DataError(f"forecast valid_time must be a whole hour, got {float(vt)}")
    return blobs["surface"], blobs["atmos"], int(vt)


def _cmd_evaluate(args, argv) -> int:
    from .evaluation import blur_index, latitude_rmse

    t0 = time.time()
    sfc, atm, valid_time = _load_forecast_fields(args.forecast)
    ds = load_dataset_file(args.truth, hours=(valid_time,))
    idx = ds.index_at(valid_time)
    true_sfc, true_atm = ds.truth_fields(idx)
    if sfc.shape != true_sfc.shape or atm.shape != true_atm.shape:
        raise DataError(
            f"forecast shapes {sfc.shape}/{atm.shape} do not match truth "
            f"{true_sfc.shape}/{true_atm.shape}")

    rmse = {}
    blur = {}

    def add(name, pred, true):
        rmse[name] = latitude_rmse(pred, true, ds.grid)
        b = blur_index(pred, true, ds.grid, args.wavelength_km)
        blur[name] = None if not np.isfinite(b) else b

    for i in range(sfc.shape[0]):
        add(f"sfc{i}", sfc[i], true_sfc[i])
    for a in range(atm.shape[0]):
        for l in range(atm.shape[1]):
            add(f"atm{a}.lev{l}", atm[a, l], true_atm[a, l])

    doc = {"valid_time": valid_time, "wavelength_km": args.wavelength_km,
           "rmse": rmse, "blur": blur}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)  # before the file opens
    out = _resolve_out(args.out)
    _ensure_parent(out)
    with open(out, "w") as f:
        f.write(text + "\n")
    write_manifest(out, argv, {"wavelength_km": args.wavelength_km}, None,
                   [out], time.time() - t0)
    mean_rmse = float(np.mean(list(rmse.values())))
    print(f"evaluated {len(rmse)} planes at hour {valid_time}; "
          f"mean rmse {mean_rmse:.6f} -> {out}")
    return 0


def _report_rmse(doc, name: str) -> dict:
    """An evaluation report's rmse: a non-empty mapping of names to finite numbers."""
    rmse = doc.get("rmse") if isinstance(doc, dict) else None
    if not isinstance(rmse, dict) or not rmse:
        raise DataError(f"file {name} is not an evaluation report: no non-empty 'rmse' mapping")
    for k, v in rmse.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise DataError(f"file {name}: rmse {k!r} is {v!r}, not a finite number")
    return rmse


def _cmd_scorecard(args, argv) -> int:
    from .evaluation import scorecard as score

    t0 = time.time()
    with open(args.a) as f:
        doc_a = json.load(f)
    with open(args.b) as f:
        doc_b = json.load(f)
    rmse_a, rmse_b = _report_rmse(doc_a, "a"), _report_rmse(doc_b, "b")
    pct = score(rmse_a, rmse_b)
    bad = next((k for k in sorted(pct) if not math.isfinite(pct[k])), None)
    if bad is not None:
        raise DataError(f"file b: rmse {bad!r} is {rmse_b[bad]!r}, no baseline to divide by")
    width = max(len(k) for k in pct)
    for k in sorted(pct):
        print(f"{k:<{width}}  {rmse_a[k]:12.6f}  {rmse_b[k]:12.6f}  {pct[k]:+8.3f}%")
    if args.out:
        out = _resolve_out(args.out)
        _ensure_parent(out)
        text = json.dumps({"percent_vs_baseline": pct}, indent=2, sort_keys=True, allow_nan=False)
        with open(out, "w") as f:
            f.write(text + "\n")
        write_manifest(out, argv, {}, None, [out], time.time() - t0)
    return 0


def _cmd_verify(args, argv) -> int:
    from .verify import run_checks

    failures = run_checks(verbose=True)
    if failures:
        raise RuntimeError(f"{failures} invariant check(s) failed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridcast",
        description="Grid forecasting toolkit: data, training, inference, "
                    "verification.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic WMD3 dataset")
    g.add_argument("--spec", required=True, help="model config file")
    g.add_argument("--hours", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sources", type=int, default=1)
    g.add_argument("--advection-only", action="store_true")
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--stage", required=True,
                   choices=["pretrain", "anneal", "1h", "operational"])
    t.add_argument("--steps", type=int, required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.add_argument("--params", help="warm start from a checkpoint")
    t.add_argument("--lr-max", type=float, default=3e-4)
    t.add_argument("--checkpoint-every", type=int, default=100)

    f = sub.add_parser("forecast", help="roll a forecast from a dataset state")
    f.add_argument("--config", required=True)
    f.add_argument("--params", required=True)
    f.add_argument("--init", required=True, help="WMD3 dataset file")
    f.add_argument("--init-hour", type=int, default=None)
    f.add_argument("--dt", type=int, required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--source", action="append",
                   help="input source name; repeat to blend several")
    f.add_argument("--offload", action="store_true",
                   help="accepted and ignored: a forecast records no tape, and "
                        "checkpoint segments pin their inputs themselves")

    e = sub.add_parser("evaluate", help="score a forecast file against truth")
    e.add_argument("--forecast", required=True)
    e.add_argument("--truth", required=True, help="WMD3 dataset file")
    e.add_argument("--wavelength-km", type=float, default=2000.0)
    e.add_argument("--out", required=True)

    s = sub.add_parser("scorecard", help="percent RMSE change of a versus b")
    s.add_argument("--a", required=True, help="evaluation JSON")
    s.add_argument("--b", required=True, help="baseline evaluation JSON")
    s.add_argument("--out")

    sub.add_parser("verify", help="run the built-in invariant checks")
    return p


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "forecast": _cmd_forecast,
    "evaluate": _cmd_evaluate,
    "scorecard": _cmd_scorecard,
    "verify": _cmd_verify,
}


def _categorize(exc: BaseException) -> str:
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, (DataError, ContainerError, json.JSONDecodeError, UnicodeDecodeError)):
        return "data"
    return "compute" if isinstance(exc, NumericsError) else "internal"


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # numpy's overflow and invalid-value warnings would print before the
        # error line; the finiteness checks name such failures instead
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args, ["gridcast"] + argv)
    except Exception as e:  # every failure becomes one parseable line
        msg = " ".join(str(e).split())
        print(f"error: {_categorize(e)}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
