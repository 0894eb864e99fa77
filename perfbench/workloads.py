"""The three workloads: their inputs, ops, output checks and run checks.

A workload hands out its ops in rounds. Every round holds the same work,
whatever the seed; the seed fixes the init hours, the op seeds and, for the
forecasts, the order, so every run with one seed does the same ops and runs
with other seeds do the same work on other inputs.

Checks never compare against stored outputs. They use numpy computations
made here, apart from the program, or properties of the method.
"""

from __future__ import annotations

import io
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import inputs
from gridcast import autodiff as ad
from gridcast import cli, evaluation, model, serialization, synthdata, training
from gridcast.autodiff import Tensor

RMSE_RTOL = 1e-12
ADJOINT_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-12
FD_EPS = 1e-5
FD_RTOL = 1e-6
INPUT_REPEATS = 3  # set-up generates the inputs this often; the median counts
INPUT_TIMEOUT_S = 120


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


class Workload:
    """Shared plumbing: input files, rounds of ops, run notes."""

    name = ""

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.dir = os.path.join(root, "perfbench", "out", self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.cfg = model.desk_config()
        self.rng = np.random.default_rng([seed, 3])  # order of the ops
        self.notes: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def generate_inputs(self) -> list[float]:
        """Write the inputs INPUT_REPEATS times in a child; returns each wall time."""
        argv = [sys.executable, inputs.__file__, "--workload", self.name,
                "--seed", str(self.seed), "--out", self.dir]
        times = []
        for _ in range(INPUT_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=INPUT_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        return times

    def reset(self) -> None:
        """Return to the state before the first timed op."""


# ---------------------------------------------------------------------------
# forecasts through the CLI
# ---------------------------------------------------------------------------

class ForecastWorkload(Workload):
    sources: tuple = ("primary",)
    offload = False

    def load_inputs(self) -> None:
        self.truth = np.load(self.path(inputs.TRUTH))
        g = self.cfg.grid
        self.weights = np.cos(np.radians(g.north_lat - np.arange(g.rows) * g.lat_step))
        self.first = None  # (op, fields) of the first checked op

    def truth_at(self, valid_hour: int):
        planes = self.truth[valid_hour - self.truth_offset]
        s = self.cfg.surface_out
        g = self.cfg.grid
        return planes[:s], planes[s:].reshape(self.cfg.atmos_vars,
                                              self.cfg.levels, g.rows, g.cols)

    def argv(self, op, offload: bool) -> list[str]:
        init, lead = op
        argv = ["forecast", "--config", self.path(inputs.CONFIG),
                "--params", self.path(inputs.PARAMS),
                "--init", self.path(inputs.ANALYSIS), "--init-hour", str(init),
                "--dt", str(lead), "--out", self.path("forecast.lmtw")]
        for s in self.sources:
            argv += ["--source", s]
        return argv + (["--offload"] if offload else [])

    def forecast(self, op, offload: bool):
        before = dict(model.CALL_COUNTS)
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            rc = cli.main(self.argv(op, offload))
        calls = {k: model.CALL_COUNTS[k] - before[k] for k in before}
        if rc != 0:
            return {"rc": rc, "log": log.getvalue(), "calls": calls}
        return {"rc": rc, "calls": calls,
                "fields": serialization.load_params_file(self.path("forecast.lmtw"))}

    def op(self, op):
        """One forecast through the CLI, scored plane by plane."""
        res = self.forecast(op, self.offload)
        if res["rc"] != 0:
            return res
        f = res["fields"]
        sfc_t, atm_t = self.truth_at(op[0] + op[1])
        g = self.cfg.grid
        res["rmse"] = (
            [evaluation.latitude_rmse(f["surface"][i], sfc_t[i], g)
             for i in range(f["surface"].shape[0])]
            + [evaluation.latitude_rmse(f["atmos"][a, l], atm_t[a, l], g)
               for a in range(f["atmos"].shape[0])
               for l in range(f["atmos"].shape[1])])
        return res

    def expected_calls(self, lead: int) -> dict:
        return {"encode": len(self.sources), "process6": lead // 6,
                "process1": lead % 6, "decode": 1}

    def own_rmse(self, pred, truth) -> float:
        g = self.cfg.grid
        d = pred - truth.astype(np.float64)
        return math.sqrt(float((self.weights[:, None] * d * d).sum()) / (g.rows * g.cols))

    def check(self, op, res) -> list[str]:
        init, lead = op
        if res["rc"] != 0:
            return [f"forecast {op} exited {res['rc']}: {res['log'].strip()}"]
        problems = []
        f = res["fields"]
        cfg, g = self.cfg, self.cfg.grid
        sfc, atm = f["surface"], f["atmos"]
        if sfc.shape != (cfg.surface_out, g.rows, g.cols):
            problems.append(f"surface shape {sfc.shape}")
        if atm.shape != (cfg.atmos_vars, cfg.levels, g.rows, g.cols):
            problems.append(f"atmos shape {atm.shape}")
        if problems:
            return problems
        if not (np.isfinite(sfc).all() and np.isfinite(atm).all()):
            problems.append("non-finite forecast field")
        if float(f["valid_time"]) != init + lead:
            problems.append(f"valid_time {float(f['valid_time'])} != {init + lead}")
        if res["calls"] != self.expected_calls(lead):
            problems.append(f"calls {res['calls']} != {self.expected_calls(lead)}")
        sfc_t, atm_t = self.truth_at(init + lead)
        own = ([self.own_rmse(sfc[i], sfc_t[i]) for i in range(sfc.shape[0])]
               + [self.own_rmse(atm[a, l], atm_t[a, l])
                  for a in range(atm.shape[0]) for l in range(atm.shape[1])])
        worst = max(_rel(a, b) for a, b in zip(res["rmse"], own))
        if len(own) != len(res["rmse"]) or worst > RMSE_RTOL:
            problems.append(f"latitude_rmse differs from numpy by {worst:.3g}")
        if not problems and self.first is None:
            self.first = (op, f)
        return problems

    def fingerprint(self, res):
        return tuple(res["rmse"])

    def warm_up(self) -> list[str]:
        res = self.op(self.warm_up_op)
        t0 = time.perf_counter()
        problems = self.check(self.warm_up_op, res)
        self.warm_check_s = time.perf_counter() - t0
        return problems


class ForecastDay(ForecastWorkload):
    """Day-ahead serving: two sources blended, leads 1-24 h."""

    name = "forecast-day"
    sources = ("primary", "op1")
    truth_offset = 0
    warm_up_op = (0, 23)  # runs both processors

    def round(self):
        # every lead once per round, in seeded order, each from a seeded init
        leads = self.rng.permutation(np.arange(1, inputs.MAX_DAY_LEAD + 1))
        inits = self.rng.integers(0, inputs.ANALYSIS_HOURS, size=leads.size)
        return [(int(i), int(l)) for i, l in zip(inits, leads)]

    def run_checks(self) -> list[str]:
        """<conv(x), y> == <x, conv_transpose(y)> at each decoder up-stage."""
        params = serialization.load_params_file(self.path(inputs.PARAMS))
        rng = np.random.default_rng([self.seed, 6])
        g = self.cfg.grid
        geom = dict(stride=2, pads=[(1, 1), (0, 0)], wrap=(False, True))
        worst = 0.0
        for i in range(3):
            w = params[f"dec.stage{i}.up.w"]  # (C_small, C_big, 4, 4)
            small = (g.rows // 8 * 2 ** i, g.cols // 8 * 2 ** i)
            big = (2 * small[0], 2 * small[1])
            x = rng.standard_normal((w.shape[1],) + big)
            y = rng.standard_normal((w.shape[0],) + small)
            lhs = float(np.vdot(ad.conv(Tensor(x), Tensor(w), **geom).values, y))
            rhs = float(np.vdot(x, ad.conv_transpose(Tensor(y), Tensor(w), **geom,
                                                     out_extents=big).values))
            worst = max(worst, _rel(lhs, rhs))
        self.notes["adjoint_rel_err"] = worst
        return [] if worst <= ADJOINT_RTOL else [
            f"conv / conv_transpose adjoint identity off by {worst:.3g}"]


class Forecast14d(ForecastWorkload):
    """The 14-day lead, offloaded, from a rigidly rotating atmosphere."""

    name = "forecast-14d"
    offload = True
    truth_offset = inputs.LONG_LEAD
    warm_up_op = (0, inputs.LONG_LEAD)

    def load_inputs(self) -> None:
        super().load_inputs()
        # Rigid rotation: the state 336 h on is the analysis rolled east by
        # 336 h of drift, a whole number of columns.
        shift = inputs.LONG_LEAD * synthdata.DRIFT_COLS_PER_HOUR
        if shift != int(shift):
            raise RuntimeError(f"14-day drift of {shift} columns is not whole")
        self.truth = np.roll(self.truth, int(shift), axis=-1)

    def round(self):
        return [(int(self.rng.integers(0, inputs.ANALYSIS_HOURS)), inputs.LONG_LEAD)]

    def run_checks(self) -> list[str]:
        """A plain forecast of the same init is bitwise the offloaded one."""
        if self.first is None:
            return ["no checked forecast to compare with"]
        op, f = self.first
        t0 = time.perf_counter()
        res = self.forecast(op, offload=False)
        self.notes["plain_forecast_ms"] = (time.perf_counter() - t0) * 1e3
        if res["rc"] != 0:
            return [f"plain forecast exited {res['rc']}: {res['log'].strip()}"]
        same = all(res["fields"][k].tobytes() == f[k].tobytes()
                   for k in ("surface", "atmos", "valid_time"))
        return [] if same else ["plain and offloaded forecasts differ"]


# ---------------------------------------------------------------------------
# pretraining steps
# ---------------------------------------------------------------------------

# The pretrain pool at step 0 is (0, 6, 12) and 12 is always drawn; one
# round holds each possible lead set once, so every round costs the same.
# The order is fixed too: the tape's garbage is freed only when the cyclic
# collector runs, so the peak RSS depends on the order of the ops.
LEAD_SETS = ((12,), (0, 12), (6, 12), (0, 6, 12))
SEED_SEARCH = 1000


class Train(Workload):
    """Pretraining steps, each training.train(steps=1) on the last params."""

    name = "train"

    def load_inputs(self) -> None:
        self.ds = synthdata.load_dataset_file(self.path(inputs.TRAIN_DATA))
        self.unplanned = 0
        self.reset()

    def reset(self) -> None:
        """A fresh zero-residual model, as `gridcast train` starts from."""
        self.params = model.init_model_params(self.cfg, seed=inputs.params_seed(self.seed))
        self.proc1 = {k: v.values.copy() for k, v in self.params.items()
                      if k.startswith("proc1.")}

    def _seed_for(self, leads) -> int:
        # train() draws its leads from rng([seed, 13]); pick an op seed
        # whose draw is the planned lead set
        pool = training.admissible_dts(0, "pretrain")
        for _ in range(SEED_SEARCH):
            s = int(self.rng.integers(2 ** 31))
            if training.sample_dts(np.random.default_rng([s, 13]), pool) == leads:
                return s
        return s

    def round(self):
        return [(self._seed_for(leads), leads) for leads in LEAD_SETS]

    def op(self, op):
        return training.train(self.params, self.cfg, self.ds, "pretrain",
                              steps=1, seed=op[0])

    def check(self, op, hist) -> list[str]:
        if len(hist) != 1 or not math.isfinite(hist[0]["loss"]):
            return [f"train step loss {hist[-1]['loss'] if hist else None}"]
        if tuple(hist[0]["dts"]) != op[1]:
            self.unplanned += 1
            self.notes["ops_off_plan"] = self.unplanned
        return []

    def fingerprint(self, hist):
        return hist[0]["loss"]

    def _leads_t0(self, stream: int):
        rng = np.random.default_rng([self.seed, stream])
        leads = training.sample_dts(rng, training.admissible_dts(0, "pretrain"))
        t0 = int(rng.integers(0, inputs.TRAIN_HOURS - max(leads)))
        return leads, t0

    def warm_up(self) -> list[str]:
        """Before the first op: the fresh model's loss equals its closed form.

        The zero-residual model decodes to exactly zero, so the loss is the
        mean over leads of sum((truth / sigma)^2) / n.
        """
        leads, t0 = self._leads_t0(4)
        loss = training.train_step(self.params, self.cfg, self.ds, leads, t0,
                                   self.ds.plane_sigmas())
        ad.backward(loss)  # warms the backward path; nothing is applied
        t_check = time.perf_counter()
        truth = self.ds.truth.astype(np.float64)
        flat = truth.reshape(truth.shape[0], truth.shape[1], -1)
        sigma = np.maximum(flat.std(axis=(0, 2)), 1e-6)[:, None, None]
        closed = statistics.fmean(float(((truth[t0 + d] / sigma) ** 2).sum())
                                  / truth[0].size for d in leads)
        err = _rel(float(loss.values), closed)
        self.notes["closed_form_rel_err"] = err
        self.warm_check_s = time.perf_counter() - t_check
        return [] if err <= CLOSED_FORM_RTOL else [
            f"fresh-model loss {float(loss.values)!r} != closed form {closed!r}"]

    def run_checks(self) -> list[str]:
        problems = []
        for k, v in self.proc1.items():
            if self.params[k].values.tobytes() != v.tobytes():
                problems.append(f"frozen parameter {k} changed")
                break
        problems += self._gradient_check()
        return problems

    def _gradient_check(self) -> list[str]:
        """Central difference along a random unit direction vs. backward.

        The error is taken relative to the gradient norm, the largest value
        the directional derivative can take along a unit direction.
        """
        p = self.params
        names = training.trainable_names(p, "pretrain")
        leads, t0 = self._leads_t0(5)
        sig = self.ds.plane_sigmas()
        rng = np.random.default_rng([self.seed, 7])
        d = {n: rng.standard_normal(p[n].shape) for n in names}
        norm = math.sqrt(sum(float((v * v).sum()) for v in d.values()))
        grads = ad.backward(training.train_step(p, self.cfg, self.ds, leads, t0, sig),
                            leaves=[p[n] for n in names])
        slope = sum(float((grads[p[n]] * d[n]).sum()) for n in names) / norm
        gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        saved = {n: p[n].values.copy() for n in names}
        side = []
        for sign in (1.0, -1.0):
            for n in names:
                p[n].values = saved[n] + (sign * FD_EPS / norm) * d[n]
            with ad.no_grad():
                side.append(float(training.train_step(p, self.cfg, self.ds, leads,
                                                      t0, sig).values))
        for n in names:
            p[n].values = saved[n]
        fd = (side[0] - side[1]) / (2 * FD_EPS)
        err = abs(fd - slope) / gnorm
        self.notes["fd_rel_err"] = err
        self.notes["fd_rel_err_of_slope"] = _rel(fd, slope)
        return [] if err <= FD_RTOL else [
            f"finite difference {fd!r} vs gradient {slope!r} (rel {err:.3g})"]


WORKLOADS = {w.name: w for w in (ForecastDay, Forecast14d, Train)}
