"""Curriculum schedule, optimizer, stage freezing, shared-prefix steps."""

import csv
import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gridcast
import gridcast.model as gm
import gridcast.training as training
from gridcast.autodiff import Tensor, backward, no_grad
from gridcast.errors import ConfigError, DataError, NumericsError
from gridcast.model import DecodedFields, desk_config, init_model_params, tiny_config
from gridcast.serialization import load_params_file
from gridcast.synthdata import generate_dataset
from gridcast.training import (
    ANNEAL_MAX_DT,
    Adam,
    add_source_encoders,
    admissible_dts,
    cosine_lr,
    normalized_loss,
    sample_dts,
    sample_dts_hourly,
    train,
    train_step,
    trainable_names,
)


@pytest.fixture(scope="module")
def tiny():
    cfg = tiny_config()
    ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                          cfg.atmos_vars, cfg.levels, hours=26, seed=2)
    return cfg, ds


class TestSchedule:
    def test_pretrain_table(self):
        assert admissible_dts(0) == (0, 6, 12)
        assert admissible_dts(999) == (0, 6, 12)
        assert admissible_dts(1000) == (0, 6, 12, 18, 24)
        assert admissible_dts(14999) == (0, 6, 12, 18, 24)
        assert admissible_dts(15000) == (0, 6, 12, 18, 24, 30)
        assert admissible_dts(21000) == (0, 6, 12, 18, 24, 30, 36)
        assert admissible_dts(26000) == (0, 6, 12, 18, 24, 30, 36, 42)
        assert admissible_dts(30000) == (0, 6, 12, 18, 24, 30, 36, 42, 48)
        assert admissible_dts(10 ** 6) == (0, 6, 12, 18, 24, 30, 36, 42, 48)

    def test_anneal_pool(self):
        pool = admissible_dts(0, "anneal")
        assert pool == tuple(range(0, ANNEAL_MAX_DT + 1, 6))
        assert admissible_dts(99999, "anneal") == pool

    def test_hourly_pool(self):
        assert admissible_dts(0, "1h") == tuple(range(25))

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            admissible_dts(0, "warmup")
        with pytest.raises(ConfigError):
            admissible_dts(-1)

    def test_sample_always_has_max(self):
        rng = np.random.default_rng(0)
        pool = admissible_dts(2000)
        for _ in range(1000):
            dts = sample_dts(rng, pool)
            assert max(pool) in dts
            assert all(d in pool for d in dts)
            assert list(dts) == sorted(set(dts))

    def test_hourly_sample_no_forced_max(self):
        rng = np.random.default_rng(1)
        draws = [sample_dts_hourly(rng) for _ in range(300)]
        assert all(0 <= d <= 24 for dts in draws for d in dts)
        assert any(24 not in dts for dts in draws)


class TestCosine:
    def test_endpoints_exact(self):
        for total in (2, 7, 200, 33000):
            assert cosine_lr(0, total, 3e-4, 0.0) == 3e-4
            assert abs(cosine_lr(total - 1, total, 3e-4, 0.0) - 0.0) <= 1e-12
            assert abs(cosine_lr(total - 1, total, 3e-4, 1e-5) - 1e-5) <= 1e-12

    def test_monotone_decreasing(self):
        vals = [cosine_lr(i, 50) for i in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_single_step(self):
        assert cosine_lr(0, 1, 2e-3) == 2e-3

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            cosine_lr(5, 5)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 5)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = {"x": Tensor(np.array([5.0, -3.0]), requires_grad=True)}
        opt = Adam(p)
        for _ in range(400):
            loss = (p["x"] * p["x"]).sum()
            grads = backward(loss, leaves=[p["x"]])
            opt.step(grads, 0.05)
        assert np.all(np.abs(p["x"].values) < 1e-3)

    def test_untrainable_bitwise_frozen(self):
        p = {"a": Tensor(np.ones(3), requires_grad=True),
             "b": Tensor(np.ones(3), requires_grad=True)}
        before = p["b"].values.tobytes()
        opt = Adam(p, trainable=["a"])
        loss = ((p["a"] + p["b"]) * (p["a"] + p["b"])).sum()
        opt.step(backward(loss, leaves=[p["a"], p["b"]]), 0.1)
        assert p["b"].values.tobytes() == before
        assert p["a"].values.tobytes() != np.ones(3).tobytes()

    def test_unknown_trainable_rejected(self):
        with pytest.raises(ConfigError):
            Adam({"a": Tensor(np.ones(1), requires_grad=True)}, trainable=["z"])

    def test_missing_grad_skipped(self):
        p = {"a": Tensor(np.ones(2), requires_grad=True)}
        opt = Adam(p)
        before = p["a"].values.copy()
        opt.step({}, 0.1)
        assert np.array_equal(p["a"].values, before)
        assert opt.t == 1


class TestTrainableSets:
    def test_stage_partitions(self):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=0)
        add_source_encoders(params, cfg, ["op1"], seed=1)
        pre = trainable_names(params, "pretrain")
        assert any(k.startswith("enc.") for k in pre)
        assert any(k.startswith("proc6.") for k in pre)
        assert any(k.startswith("dec.") for k in pre)
        assert not any(k.startswith("proc1.") or k.startswith("enc_op.")
                       or k.startswith("blend.") for k in pre)
        hourly = trainable_names(params, "1h")
        assert hourly and all(k.startswith("proc1.") for k in hourly)
        op = trainable_names(params, "operational")
        assert "blend.logits" in op
        assert all(k.startswith("enc_op.") or k.startswith("blend.") for k in op)


class TestLoss:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(4)
        sfc = rng.standard_normal((3, 5, 6))
        atm = rng.standard_normal((2, 4, 5, 6))
        sfc_t = rng.standard_normal((3, 5, 6))
        atm_t = rng.standard_normal((2, 4, 5, 6))
        sig = rng.uniform(0.5, 2.0, size=3 + 8)
        dec = DecodedFields(0, Tensor(sfc), Tensor(atm))
        got = normalized_loss(dec, sfc_t, atm_t, sig).values

        acc = []
        for p in range(3):
            acc.append(((sfc[p] - sfc_t[p]) / sig[p]) ** 2)
        for a in range(2):
            for l in range(4):
                acc.append(((atm[a, l] - atm_t[a, l]) / sig[3 + a * 4 + l]) ** 2)
        want = np.mean(acc)
        assert abs(float(got) - want) < 1e-12


class TestTrainStep:
    def test_shares_encode_and_prefixes(self, tiny):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0, zero_residual=False)
        sig = ds.plane_sigmas()
        gm.reset_call_counts()
        train_step(params, cfg, ds, (0, 6, 12), 0, sig)
        assert gm.CALL_COUNTS["encode"] == 1
        assert gm.CALL_COUNTS["process6"] == 2  # 6 h chain reused by 12 h
        assert gm.CALL_COUNTS["process1"] == 0
        assert gm.CALL_COUNTS["decode"] == 3

    def test_hour_tails_branch_from_six_chain(self, tiny):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0, zero_residual=False)
        sig = ds.plane_sigmas()
        gm.reset_call_counts()
        train_step(params, cfg, ds, (1, 7), 0, sig, stage="1h")
        assert gm.CALL_COUNTS["encode"] == 1
        assert gm.CALL_COUNTS["process6"] == 1
        assert gm.CALL_COUNTS["process1"] == 2
        assert gm.CALL_COUNTS["decode"] == 2

    def test_step_leaves_no_reference_cycles(self, tiny):
        # a cycle would hold the step's whole graph until the cyclic GC ran
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            loss = train_step(params, cfg, ds, (0, 7, 12), 0, ds.plane_sigmas())
            backward(loss, leaves=list(params.values()))
            del loss
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed == 0

    def test_bitwise_at_one_and_two_blas_threads(self):
        # one desk step plus backward per BLAS thread count, each in a fresh
        # process, since OpenBLAS reads its thread count when it loads
        script = "\n".join([
            "import hashlib",
            "from gridcast.autodiff import backward",
            "from gridcast.model import desk_config, init_model_params",
            "from gridcast.synthdata import generate_dataset",
            "from gridcast.training import train_step",
            "cfg = desk_config()",
            "ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,"
            " cfg.atmos_vars, cfg.levels, hours=13, seed=1)",
            "params = init_model_params(cfg, seed=1, zero_residual=False)",
            "loss = train_step(params, cfg, ds, (0, 6, 12), 0, ds.plane_sigmas())",
            "grads = backward(loss, leaves=list(params.values()))",
            "for name in sorted(params):",
            "    print(name, hashlib.sha256(grads[params[name]].tobytes()).hexdigest())",
            "print('loss', hashlib.sha256(loss.values.tobytes()).hexdigest())",
        ])
        src = os.path.dirname(os.path.dirname(gridcast.__file__))
        runs = []
        for threads in ("1", "2"):
            path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout.splitlines())
        assert len(runs[0]) > 200 and runs[0][-1].startswith("loss ")
        differ = [a.split()[0] for a, b in zip(*runs) if a != b]
        assert not differ, f"{len(differ)} of {len(runs[0])} arrays differ, first {differ[:3]}"

    def test_empty_dts_rejected(self, tiny):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            train_step(params, cfg, ds, (), 0, ds.plane_sigmas())


class TestGraphMemory:
    """A desk train_step((0, 6, 12)) graph under tracemalloc, in MB.

    The graph keeps only what backward reads.  When nodes held their parent
    tensors, it pinned 135.4 MB and peaked at 141.1 MB over forward and
    backward.
    """

    @pytest.fixture(scope="class")
    def traced(self):
        cfg = desk_config()
        ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out, cfg.atmos_vars,
                              cfg.levels, hours=13, seed=1)
        params = init_model_params(cfg, seed=1, zero_residual=False)
        sigmas = ds.plane_sigmas()
        with no_grad():  # fills the rotary and neighbor table caches
            train_step(params, cfg, ds, (0, 6, 12), 0, sigmas)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = train_step(params, cfg, ds, (0, 6, 12), 0, sigmas)
            live = tracemalloc.get_traced_memory()[0] - base
            backward(loss, leaves=list(params.values()))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return live / 1e6, peak / 1e6

    def test_live_graph(self, traced):
        assert traced[0] <= 90.0, traced

    def test_forward_and_backward_peak(self, traced):
        assert traced[1] <= 95.0, traced


class TestTrainDriver:
    def test_loss_decreases_and_is_deterministic(self, tiny):
        cfg, ds = tiny

        def run():
            params = init_model_params(cfg, seed=0)
            return train(params, cfg, ds, "pretrain", steps=20, seed=5,
                         lr_max=3e-3)

        h1 = run()
        h2 = run()
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]
        first = np.mean([r["loss"] for r in h1[:5]])
        last = np.mean([r["loss"] for r in h1[-5:]])
        assert last < 0.8 * first

    def test_hourly_stage_freezes_everything_else(self, tiny):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        train(params, cfg, ds, "pretrain", steps=2, seed=5, lr_max=1e-3)
        frozen = {k: v.values.tobytes() for k, v in params.items()
                  if not k.startswith("proc1.")}
        hist = train(params, cfg, ds, "1h", steps=3, seed=6, lr_max=1e-3)
        for k, blob in frozen.items():
            assert params[k].values.tobytes() == blob, k
        assert all(0 <= d <= 24 for r in hist for d in r["dts"])

    def test_hourly_stage_updates_hour_processor(self, tiny):
        cfg, ds = tiny
        # zero-residual init has zero decoder heads, which blocks gradient
        # flow into the processors; start from a live init instead
        params = init_model_params(cfg, seed=0, zero_residual=False)
        before = {k: params[k].values.copy() for k in params
                  if k.startswith("proc1.")}
        hist = train(params, cfg, ds, "1h", steps=4, seed=7, lr_max=1e-3)
        saw_hour_tail = any(d % 6 for r in hist for d in r["dts"])
        assert saw_hour_tail
        changed = any(not np.array_equal(params[k].values, before[k])
                      for k in before)
        assert changed

    def test_operational_stage(self, tiny):
        cfg, _ = tiny
        ds2 = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                               cfg.atmos_vars, cfg.levels, hours=14, seed=3,
                               n_sources=2)
        params = init_model_params(cfg, seed=0, zero_residual=False)
        add_source_encoders(params, cfg, ["op1"], seed=9)
        frozen = {k: v.values.tobytes() for k, v in params.items()
                  if not (k.startswith("enc_op.") or k.startswith("blend."))}
        trained = {k: v.values.tobytes() for k, v in params.items()
                   if k.startswith("enc_op.") or k.startswith("blend.")}
        train(params, cfg, ds2, "operational", steps=3, seed=8, lr_max=1e-3)
        for k, blob in frozen.items():
            assert params[k].values.tobytes() == blob, k
        assert any(params[k].values.tobytes() != blob
                   for k, blob in trained.items())
        w = np.exp(params["blend.logits"].values)
        w = w / w.sum()
        assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("names", [("op1",), ("op1", "op2")])
    @pytest.mark.parametrize("make_cfg", [tiny_config, desk_config])
    def test_source_encoders_match_the_full_draw(self, make_cfg, names, monkeypatch):
        cfg = make_cfg()
        params = init_model_params(cfg, seed=0)
        drawn = []
        draw = training.draw_params

        def recording_draw(rng, layout):
            drawn.extend(name for name, _, _ in layout)
            return draw(rng, layout)
        monkeypatch.setattr(training, "draw_params", recording_draw)
        add_source_encoders(params, cfg, names, seed=3)
        # the oracle: every parameter of the model drawn, extras kept
        full = init_model_params(cfg, seed=3, extra_sources=names)
        extras = {k: v for k, v in full.items() if k.startswith("enc_op.")}
        assert sorted(k for k in params if k.startswith("enc_op.")) == sorted(extras)
        for k, v in extras.items():
            assert params[k].values.tobytes() == v.values.tobytes(), k
        assert drawn[-1].startswith(f"enc_op.{names[-1]}.")
        assert not any(k.startswith(("proc", "dec.")) for k in drawn)
        assert params["blend.logits"].shape == (len(names) + 1,)

    def test_blend_logits_cover_earlier_sources(self, tiny):
        cfg, _ = tiny
        params = init_model_params(cfg, seed=0)
        add_source_encoders(params, cfg, ["op1"], seed=1)
        add_source_encoders(params, cfg, ["op2"], seed=1)
        assert params["blend.logits"].shape == (3,)

    def test_operational_requires_sources(self, tiny):
        cfg, ds = tiny  # single-source dataset
        params = init_model_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            train(params, cfg, ds, "operational", steps=1, seed=0)
        params2 = init_model_params(cfg, seed=0)
        add_source_encoders(params2, cfg, ["op1"], seed=1)
        with pytest.raises(ConfigError):
            train(params2, cfg, ds, "operational", steps=1, seed=0)

    def test_dataset_too_short(self, tiny):
        cfg, _ = tiny
        short = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                                 cfg.atmos_vars, cfg.levels, hours=6, seed=1)
        params = init_model_params(cfg, seed=0)
        with pytest.raises(DataError):
            train(params, cfg, short, "pretrain", steps=2, seed=0)

    def test_csv_and_checkpoints(self, tiny, tmp_path):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        hist = train(params, cfg, ds, "pretrain", steps=4, seed=5,
                     lr_max=1e-3, out_dir=tmp_path, checkpoint_every=2)
        with open(tmp_path / "train_log.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr", "loss", "dts", "grad_norm", "step_s"]
        assert len(rows) == 5
        assert float(rows[1][2]) == pytest.approx(hist[0]["loss"])
        assert all(part.isdigit() for part in rows[1][3].split(";"))
        for row, h in zip(rows[1:], hist):
            assert math.isfinite(h["grad_norm"]) and h["grad_norm"] > 0.0
            assert float(row[4]) == pytest.approx(h["grad_norm"])
            assert float(row[5]) > 0.0
        final = load_params_file(tmp_path / "params_final.lmtw")
        assert final.keys() == params.keys()
        assert (tmp_path / "params_step_000002.lmtw").exists()
        assert (tmp_path / "params_step_000004.lmtw").exists()

    def test_csv_keeps_the_rows_before_a_crash(self, tiny, tmp_path, monkeypatch):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        real_step, calls = training.train_step, []

        def nan_at_step_2(*args):
            calls.append(len(calls))
            loss = real_step(*args)
            return loss * float("nan") if calls[-1] == 2 else loss

        monkeypatch.setattr(training, "train_step", nan_at_step_2)
        with pytest.raises(NumericsError, match="step 2: loss is nan"):
            train(params, cfg, ds, "pretrain", steps=4, seed=5, lr_max=1e-3,
                  out_dir=tmp_path)
        with open(tmp_path / "train_log.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr", "loss", "dts", "grad_norm", "step_s"]
        assert [row[0] for row in rows[1:]] == ["0", "1"]
        assert all(math.isfinite(float(row[2])) for row in rows[1:])

    def test_nan_truth_raises_numerics_error_at_step_0(self, tiny):
        cfg, ds = tiny
        truth = ds.truth.copy()
        truth[3, 1, 2, 2] = np.nan
        bad = dataclasses.replace(ds, truth=truth)
        params = init_model_params(cfg, seed=0)
        before = {k: v.values.copy() for k, v in params.items()}
        with pytest.raises(NumericsError, match="step 0: loss is nan"):
            train(params, cfg, bad, "pretrain", steps=2, seed=0)
        assert all(params[k].values.tobytes() == v.tobytes() for k, v in before.items())

    def test_non_finite_gradient_names_the_parameter(self, tiny, monkeypatch):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        name = trainable_names(params, "pretrain")[3]
        real_backward = training.backward

        def poisoned(loss, leaves):
            grads = real_backward(loss, leaves=leaves)
            grads[params[name]].flat[0] = np.inf
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        before = params[name].values.copy()
        with pytest.raises(NumericsError, match="step 0: ") as exc:
            train(params, cfg, ds, "pretrain", steps=1, seed=0)
        assert repr(name) in str(exc.value)
        assert params[name].values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kwargs", [{"lr_max": math.nan}, {"lr_max": math.inf},
                                        {"lr_max": 0.0}, {"lr_max": -1e-3},
                                        {"checkpoint_every": -1}],
                             ids=["lr-nan", "lr-inf", "lr-zero", "lr-negative", "every-negative"])
    def test_bad_numeric_setting_raises_before_any_step(self, tiny, tmp_path, kwargs):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        before = {k: v.values.copy() for k, v in params.items()}
        with pytest.raises(ConfigError):
            train(params, cfg, ds, "pretrain", steps=1, seed=0, out_dir=tmp_path / "r", **kwargs)
        assert all(params[k].values.tobytes() == v.tobytes() for k, v in before.items())
        assert not (tmp_path / "r").exists()

    def test_bad_stage_and_steps(self, tiny):
        cfg, ds = tiny
        params = init_model_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            train(params, cfg, ds, "finetune", steps=1, seed=0)
        with pytest.raises(ConfigError):
            train(params, cfg, ds, "pretrain", steps=0, seed=0)
