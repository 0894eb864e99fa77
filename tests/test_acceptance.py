"""Acceptance gate: one test per product criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test enforces its own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from gridcast import autodiff as ad
from gridcast import model as gm
from gridcast.attention import attention_weights, init_block_params, natten_block
from gridcast.autodiff import Tensor
from gridcast.evaluation import (
    blur_index,
    ensemble_curve,
    latitude_rmse,
    power_at_wavelength,
    zonal_power,
)
from gridcast.grid import GridSpec, desk_grid, row_circumference_km
from gridcast.model import (
    CALL_COUNTS,
    WeatherState,
    decode,
    desk_config,
    encode,
    init_model_params,
    full_scale_config,
    process,
    reset_call_counts,
    shape_plan,
    tiny_config,
)
from gridcast.offload import OffloadEngine
from gridcast.rollout import forecast, greedy_plan, rollout
from gridcast.synthdata import generate_dataset
from gridcast.training import (
    add_source_encoders,
    admissible_dts,
    cosine_lr,
    normalized_loss,
    sample_dts,
    train,
)


class _Criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, num, label, limit_s=None):
        self.num = num
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        el = time.monotonic() - self.t0
        ok = exc_type is None and (self.limit is None or el < self.limit)
        print(f"{'PASS' if ok else 'FAIL'} criterion {self.num:>2}: "
              f"{self.label} ({el:.1f}s)", flush=True)
        if exc_type is None and not ok:
            raise AssertionError(
                f"criterion {self.num} exceeded {self.limit}s budget: {el:.1f}s")
        return False


def random_state(cfg, seed=0):
    rng = np.random.default_rng(seed)
    g = cfg.grid
    return WeatherState(
        valid_time=0,
        surface=rng.standard_normal((cfg.surface_in, g.rows, g.cols)),
        atmos=rng.standard_normal((cfg.atmos_vars, cfg.levels, g.rows, g.cols)),
    )


def test_c01_greedy_plan_exactness():
    with _Criterion(1, "greedy plan exactness, dt 0..336", limit_s=1.0):
        for dt in range(0, 337):
            plan = greedy_plan(dt)
            assert sum(plan) == dt
            assert plan.count(6) == dt // 6
            assert plan.count(1) == dt % 6 <= 5
            assert set(plan) <= {1, 6}
            # greedy: all sixes strictly before any ones
            assert plan == (6,) * (dt // 6) + (1,) * (dt % 6)
        plan120 = greedy_plan(120)
        assert plan120 == (6,) * 20
        assert len(plan120) == 20


def test_c02_latent_rollout_composition():
    with _Criterion(2, "forecast(12) == decode(P6(P6(encode)))", limit_s=10.0):
        cfg = desk_config()
        params = init_model_params(cfg, seed=0, zero_residual=False)
        state = random_state(cfg, seed=1)

        with ad.no_grad():
            reset_call_counts()
            out = forecast([state], 12, params, cfg)
            assert CALL_COUNTS["encode"] == 1
            assert CALL_COUNTS["decode"] == 1
            assert CALL_COUNTS["process6"] == 2
            assert CALL_COUNTS["process1"] == 0

            lat = encode(state, params, cfg)
            manual = decode(process(process(lat, params, cfg, 6),
                                    params, cfg, 6), params, cfg)

            # instrumented: the rollout itself never decodes or re-encodes
            reset_call_counts()
            rollout(lat, (6, 6), params, cfg)
            assert CALL_COUNTS["encode"] == 0
            assert CALL_COUNTS["decode"] == 0

        assert out.valid_time == 12 == manual.valid_time
        assert out.surface.values.tobytes() == manual.surface.values.tobytes()
        assert out.atmos.values.tobytes() == manual.atmos.values.tobytes()


def test_c03_offload_equivalence_and_residency():
    with _Criterion(3, "offload gradients bitwise, flat tape peak", limit_s=120.0):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=21, zero_residual=False)
        state = random_state(cfg, seed=2)
        leaves = [params[k] for k in sorted(params)]

        def grads_via(engine, n):
            """Gradient bytes per parameter, and the tape's saved-bytes peak."""
            ad.reset_tape_stats()
            lat = encode(state, params, cfg)
            lat = rollout(lat, (6,) * n, params, cfg, engine=engine)
            loss = (lat.tokens * lat.tokens).mean()
            g = ad.backward(loss, leaves=leaves)
            return ({k: g[params[k]].tobytes() for k in sorted(params)},
                    ad.tape_stats().saved_bytes_peak)

        # the tape peak does not grow with rollout length under the engine,
        # and does with the pinned store
        offloaded, pinned = {}, {}
        for n in (1, 4, 16):
            e = OffloadEngine()
            try:
                offl, offloaded[n] = grads_via(e, n)
            finally:
                e.close()
            plain, pinned[n] = grads_via(None, n)
            assert plain == offl, f"offloaded gradients differ at {n} steps"
        assert offloaded[1] == offloaded[4] == offloaded[16], offloaded
        assert pinned[1] < pinned[4] < pinned[16], pinned


def fd_directions(loss_fn, leaves, n_dirs, seed, eps=1e-5):
    """Worst relative error between analytic and central-difference slopes."""
    rng = np.random.default_rng(seed)
    loss = loss_fn()
    grads = ad.backward(loss, leaves=leaves)
    base = [lf.values.copy() for lf in leaves]
    worst = 0.0
    for _ in range(n_dirs):
        vs = [rng.standard_normal(lf.values.shape) for lf in leaves]
        norm = math.sqrt(sum(float((v * v).sum()) for v in vs))
        vs = [v / norm for v in vs]
        analytic = sum(float((grads[lf] * v).sum()) for lf, v in zip(leaves, vs))
        for lf, v, b in zip(leaves, vs, base):
            lf.values[...] = b + eps * v
        with ad.no_grad():
            up = float(loss_fn().values)
        for lf, v, b in zip(leaves, vs, base):
            lf.values[...] = b - eps * v
        with ad.no_grad():
            dn = float(loss_fn().values)
        for lf, b in zip(leaves, base):
            lf.values[...] = b
        numeric = (up - dn) / (2.0 * eps)
        worst = max(worst, abs(analytic - numeric)
                    / max(abs(analytic), abs(numeric), 1e-10))
    return worst


def test_c04_gradient_correctness():
    with _Criterion(4, "analytic vs finite-difference gradients, 56 directions",
                    limit_s=300.0):
        cfg = tiny_config()
        rng = np.random.default_rng(40)

        # standalone attention block
        ext, win, dim, heads = (2, 4, 6), (1, 3, 3), 12, 2
        bp = init_block_params(rng, dim, heads, "blk", zero_residual=False)
        xb = Tensor(rng.standard_normal((np.prod(ext), dim)), requires_grad=True)
        tgt = rng.standard_normal((np.prod(ext), dim))

        def block_loss():
            y = natten_block(xb, bp, "blk", ext, win, heads)
            d = y - Tensor(tgt)
            return (d * d).mean()

        block_leaves = [xb] + [bp[k] for k in sorted(bp)]
        assert fd_directions(block_loss, block_leaves, 20, seed=41) < 1e-4

        params = init_model_params(cfg, seed=3, zero_residual=False)
        state = random_state(cfg, seed=4)
        enc_leaves = [params[k] for k in sorted(params) if k.startswith("enc.")]
        dec_leaves = [params[k] for k in sorted(params) if k.startswith("dec.")]
        all_leaves = [params[k] for k in sorted(params)]

        def enc_loss():
            lat = encode(state, params, cfg)
            return (lat.tokens * lat.tokens).mean()

        assert fd_directions(enc_loss, enc_leaves, 12, seed=42) < 1e-4

        with ad.no_grad():
            lat0 = encode(state, params, cfg)
        frozen = Tensor(lat0.tokens.values.copy())

        def dec_loss():
            out = decode(gm.LatentState(frozen, 0, lat0.extents), params, cfg)
            return (out.surface * out.surface).mean() + (out.atmos * out.atmos).mean()

        assert fd_directions(dec_loss, dec_leaves, 12, seed=43) < 1e-4

        g = cfg.grid
        sigmas = np.ones(cfg.surface_out + cfg.atmos_vars * cfg.levels)
        t_s = rng.standard_normal((cfg.surface_out, g.rows, g.cols))
        t_a = rng.standard_normal((cfg.atmos_vars, cfg.levels, g.rows, g.cols))

        def roll_loss():
            out = forecast([state], 12, params, cfg)  # two 6 h latent steps
            return normalized_loss(out, t_s, t_a, sigmas)

        assert fd_directions(roll_loss, all_leaves, 12, seed=44) < 1e-4


def test_c05_attention_geometry():
    with _Criterion(5, "window cardinality, softmax, locality, roll equivariance"):
        rng = np.random.default_rng(50)
        ext, win, dim, heads = (3, 6, 12), (3, 3, 3), 12, 2
        params = init_block_params(rng, dim, heads, "blk", zero_residual=False)
        t = int(np.prod(ext))
        x = rng.standard_normal((t, dim))

        attn = attention_weights(x, params, "blk", ext, win, heads)
        assert attn.shape == (t, heads, int(np.prod(win)))  # full cardinality
        assert (attn > 0).all()
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

        # locality: single-token bump moves outputs exactly within the radius
        d2, h2, w2 = 1, 9, 12
        win2 = (1, 3, 3)
        x2 = rng.standard_normal((d2 * h2 * w2, dim))
        with ad.no_grad():
            y0 = natten_block(Tensor(x2), params, "blk", (d2, h2, w2), win2, heads).values
            xp = x2.copy()
            src_r, src_c = 4, 6
            # single-feature bump; a whole-token constant would vanish in the norm
            xp[src_r * w2 + src_c, 0] += 1.0
            y1 = natten_block(Tensor(xp), params, "blk", (d2, h2, w2), win2, heads).values
        changed = np.abs(y1 - y0).max(axis=1).reshape(h2, w2) > 1e-12
        rr, cc = np.nonzero(changed)
        dr = np.abs(rr - src_r)
        dc = np.minimum(np.abs(cc - src_c), w2 - np.abs(cc - src_c))
        assert dr.max() == 1 and dc.max() == 1  # radius equals window radius

        d, h, w = ext
        xg = x.reshape(d, h, w, dim)
        with ad.no_grad():
            y = natten_block(Tensor(x), params, "blk", ext, win, heads).values
            y = y.reshape(d, h, w, dim)
            for shift in (1, 5, w - 2):
                xs = np.roll(xg, shift, axis=2).reshape(t, dim)
                ys = natten_block(Tensor(xs), params, "blk", ext, win, heads).values
                np.testing.assert_allclose(ys.reshape(d, h, w, dim),
                                           np.roll(y, shift, axis=2), atol=1e-9)


def test_c06_metric_oracles():
    with _Criterion(6, "RMSE oracle, Parseval, blur scale, smoothing monotone"):
        spec = GridSpec(rows=6, cols=8, lat_step=10.0, lon_step=45.0)
        rng = np.random.default_rng(60)
        for _ in range(100):
            td = int(rng.integers(1, 4))
            p = rng.standard_normal((td, spec.rows, spec.cols))
            g = rng.standard_normal((td, spec.rows, spec.cols))
            s = 0.0
            for tt in range(td):
                acc = 0.0
                for i in range(spec.rows):
                    wgt = math.cos(math.radians(spec.north_lat - i * spec.lat_step))
                    for j in range(spec.cols):
                        d = p[tt, i, j] - g[tt, i, j]
                        acc += wgt * d * d
                s += math.sqrt(acc / (spec.rows * spec.cols))
            want = s / td
            got = latitude_rmse(p, g, spec)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for cols in (8, 9):
            sp = GridSpec(rows=5, cols=cols, lat_step=10.0, lon_step=360.0 / cols)
            f = rng.standard_normal((sp.rows, sp.cols))
            np.testing.assert_allclose(zonal_power(f, sp).sum(axis=1),
                                       (f * f).mean(axis=1), atol=1e-10)

        # forecast with twice the spectral amplitude: power ratio 4, score 0.5
        eq = GridSpec(rows=1, cols=16, north_lat=0.0, lat_step=10.0, lon_step=22.5)
        lam = float(row_circumference_km(eq)[0]) / 4.0
        phase = 2.0 * np.pi * 4.0 * np.arange(eq.cols) / eq.cols
        truth = np.cos(phase)[None, :]
        sharp = 2.0 * truth
        assert abs(blur_index(sharp, truth, eq, lam) - 0.5) <= 1e-12

        base = rng.standard_normal((eq.rows, eq.cols))
        scores = []
        for sig in (0.0, 0.7, 1.5, 3.0):
            sm = gaussian_filter1d(base, sig, axis=-1, mode="wrap") if sig else base
            scores.append(blur_index(sm, base, eq, lam))
        assert all(b > a for a, b in zip(scores, scores[1:]))


def test_c07_curriculum_semantics():
    with _Criterion(7, "dt schedule table, forced max over 10000 draws"):
        table = {
            0: (0, 6, 12),
            999: (0, 6, 12),
            1000: tuple(range(0, 25, 6)),
            15000: tuple(range(0, 31, 6)),
            21000: tuple(range(0, 37, 6)),
            26000: tuple(range(0, 43, 6)),
            30000: tuple(range(0, 49, 6)),
        }
        for step, want in table.items():
            assert admissible_dts(step) == want, step

        rng = np.random.default_rng(70)
        for draw in range(10000):
            adm = admissible_dts(int(rng.integers(0, 40000)))
            batch = sample_dts(rng, adm)
            assert max(adm) in batch, draw
            assert all(d in adm for d in batch)


def test_c08_stage_freezing():
    with _Criterion(8, "stage freezing bitwise, blend weights on the simplex"):
        cfg = tiny_config()
        ds1 = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                               cfg.atmos_vars, cfg.levels, hours=26, seed=2)
        params = init_model_params(cfg, seed=0, zero_residual=False)

        frozen = {k: v.values.tobytes() for k, v in params.items()
                  if not k.startswith("proc1.")}
        train(params, cfg, ds1, "1h", steps=3, seed=6, lr_max=1e-3)
        for k, blob in frozen.items():
            assert params[k].values.tobytes() == blob, k

        ds2 = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                               cfg.atmos_vars, cfg.levels, hours=14, seed=3,
                               n_sources=2)
        add_source_encoders(params, cfg, ["op1"], seed=9)
        frozen2 = {k: v.values.tobytes() for k, v in params.items()
                   if not (k.startswith("enc_op.") or k.startswith("blend."))}
        train(params, cfg, ds2, "operational", steps=3, seed=8, lr_max=1e-3)
        for k, blob in frozen2.items():
            assert params[k].values.tobytes() == blob, k

        w = np.exp(params["blend.logits"].values)
        w = w / w.sum()
        assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-12


def test_c09_training_smoke():
    with _Criterion(9, "200 desk steps halve the loss; cosine endpoints",
                    limit_s=600.0):
        for total in (2, 7, 200, 33000):
            assert abs(cosine_lr(0, total, 3e-4) - 3e-4) <= 1e-12 * 3e-4
            assert abs(cosine_lr(total - 1, total, 3e-4)) <= 1e-16

        cfg = desk_config()
        ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                              cfg.atmos_vars, cfg.levels, hours=14, seed=2)
        params = init_model_params(cfg, seed=0)
        hist = train(params, cfg, ds, "pretrain", steps=200, seed=1, lr_max=5e-3)
        first = hist[0]["loss"]
        tail = float(np.mean([h["loss"] for h in hist[-10:]]))
        assert tail < 0.5 * first, (first, tail)


def test_c10_full_scale_shape_contract():
    with _Criterion(10, "full-scale config validates dry, latent 90x180"):
        cfg = full_scale_config()  # construction itself runs the validators
        sp = shape_plan(cfg)
        assert sp["grid"] == (720, 1440)
        assert sp["latent_extents"] == (5, 90, 180)
        assert sp["tokens"] == 5 * 90 * 180
        assert sp["window"] == (5, 7, 7)
        assert sp["attention_keys"] == 5 * 7 * 7
        assert sp["level_groups"] == 4
        assert [ (s["rows"], s["cols"]) for s in sp["stages"] ] == \
            [(360, 720), (180, 360), (90, 180)]
        assert sp["token_width"] == 1024
        assert sp["param_elements"] > 0
        for dt in (0, 1, 6, 24, 72, 336):
            plan = greedy_plan(dt, cfg.max_dt)
            assert sum(plan) == dt


def test_c11_ensemble_subset_curve():
    with _Criterion(11, "k=1 identity, 8-mean beats members, blur monotone"):
        spec = desk_grid()
        rng = np.random.default_rng(110)
        truth = rng.standard_normal((spec.rows, spec.cols))
        members = truth[None] + 0.8 * rng.standard_normal((12, spec.rows, spec.cols))

        rows = ensemble_curve(members, truth, spec, wavelength_km=2000.0)
        sizes = [r["size"] for r in rows]
        assert sizes[0] == 1 and 8 in sizes

        first = rows[0]
        assert first["rmse"] == latitude_rmse(members[0], truth, spec)
        assert first["blur"] == blur_index(members[0], truth, spec, 2000.0)

        individual = [latitude_rmse(m, truth, spec) for m in members]
        mean8 = members[:8].mean(axis=0)
        r8 = next(r for r in rows if r["size"] == 8)
        assert r8["rmse"] == latitude_rmse(mean8, truth, spec)
        assert all(r8["rmse"] < ind for ind in individual)

        blurs = [r["blur"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(blurs, blurs[1:]))
