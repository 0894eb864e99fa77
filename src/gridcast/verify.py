"""Built-in invariant checks behind the `verify` subcommand.

Each check is a small self-contained function that raises AssertionError
with a reason on failure. They cover the load-bearing invariants: plan
arithmetic, adjoint pairing of the convolution ops, rotational closure of
the attention geometry, checkpointed against plain gradient parity and the
tape peak's one latent per step, metric oracles, container round trips, and
the curriculum schedule.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .grid import GridSpec, latitude_weights
from .model import LatentState, init_model_params, process, tiny_config
from .rollout import greedy_plan, rollout
from .serialization import dump_params, load_params_file, save_params_file
from .synthdata import dump_dataset, generate_dataset, load_dataset_file, save_dataset_file
from .training import admissible_dts, cosine_lr, sample_dts


def check_plan_arithmetic():
    for dt in range(0, 337):
        plan = greedy_plan(dt)
        assert plan == (6,) * (dt // 6) + (1,) * (dt % 6), f"dt={dt}"
        assert sum(plan) == dt, f"dt={dt} sums to {sum(plan)}"
    assert greedy_plan(120) == (6,) * 20, "120 h plan"


def check_conv_adjoint():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 10, 12)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    y = ad.conv(x, w, stride=(1, 1), pads=((1, 1), (0, 0)), wrap=(False, True))
    u = rng.standard_normal(y.shape)
    # the same buffer serves both ops: conv reads (C_out, C_in, *K),
    # conv_transpose reads (C_in, C_out, *K)
    xt = ad.conv_transpose(Tensor(u), Tensor(w.values), stride=(1, 1),
                           pads=((1, 1), (0, 0)), wrap=(False, True),
                           out_extents=(10, 12))
    lhs = float((y.values * u).sum())
    rhs = float((xt.values * x.values).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs)), f"{lhs} vs {rhs}"


def check_roll_equivariance():
    from .attention import init_block_params, natten_block

    extents = (3, 4, 8)
    dim, heads = 12, 2
    rng = np.random.default_rng(1)
    params = init_block_params(rng, dim, heads, "blk", zero_residual=False)
    t = extents[0] * extents[1] * extents[2]
    x = rng.standard_normal((t, dim))

    def run(arr):
        with ad.no_grad():
            return natten_block(Tensor(arr), params, "blk", extents,
                                (3, 3, 3), heads).values

    y = run(x).reshape(*extents, dim)
    xs = np.roll(x.reshape(*extents, dim), 3, axis=2).reshape(t, dim)
    ys = run(xs).reshape(*extents, dim)
    rolled = np.roll(y, 3, axis=2)
    assert rolled.tobytes() == ys.tobytes(), \
        f"longitude roll changes outputs by {np.max(np.abs(rolled - ys))}"


def check_checkpoint_parity():
    cfg = tiny_config()
    params = init_model_params(cfg, seed=0, zero_residual=False)
    z0v = np.random.default_rng(2).standard_normal((cfg.tokens, cfg.hidden))
    leaves = [params[k] for k in sorted(params)]

    def run(steps, checkpointed):
        """Loss and gradient bytes, and the tape's saved-bytes peak."""
        ad.reset_tape_stats()
        z0 = Tensor(z0v, requires_grad=True)
        lat = LatentState(z0, 0, cfg.latent_extents)
        if checkpointed:
            lat = rollout(lat, (6,) * steps, params, cfg)
        else:
            for _ in range(steps):
                lat = process(lat, params, cfg, 6)
        loss = (lat.tokens * lat.tokens).mean()
        g = backward(loss, leaves=[z0] + leaves)
        return (b"".join([loss.values.tobytes()] + [g[t].tobytes() for t in [z0] + leaves]),
                ad.tape_stats().saved_bytes_peak)

    peaks = {}
    for steps in (1, 4, 16):
        got, peaks[steps] = run(steps, True)
        assert got == run(steps, False)[0], \
            f"checkpointed gradients differ from the plain chain at {steps} steps"
    # z0 is a leaf the tape does not meter; each later segment pins one latent
    want = {n: peaks[1] + (n - 1) * z0v.nbytes for n in peaks}
    assert peaks == want, f"tape peaks {peaks}, want one latent per extra step {want}"


def check_gradient_fd():
    from .attention import init_block_params, natten_block

    extents = (3, 3, 4)
    dim, heads = 12, 2
    rng = np.random.default_rng(3)
    params = init_block_params(rng, dim, heads, "blk", zero_residual=False)
    t = extents[0] * extents[1] * extents[2]
    xv = rng.standard_normal((t, dim))

    def loss_value(xarr):
        with ad.no_grad():
            y = natten_block(Tensor(xarr), params, "blk", extents, (3, 3, 3),
                            heads)
            return float((y.values * y.values).mean())

    x = Tensor(xv, requires_grad=True)
    y = natten_block(x, params, "blk", extents, (3, 3, 3), heads)
    g = backward((y * y).mean(), leaves=[x])[x]
    eps = 1e-5
    for k in range(5):
        d = np.random.default_rng(10 + k).standard_normal(xv.shape)
        d /= np.linalg.norm(d)
        num = (loss_value(xv + eps * d) - loss_value(xv - eps * d)) / (2 * eps)
        ana = float((g * d).sum())
        rel = abs(num - ana) / max(1e-12, abs(num), abs(ana))
        assert rel < 1e-4, f"direction {k}: fd {num} vs grad {ana} rel {rel}"


def check_rmse_oracle():
    from .evaluation import latitude_rmse

    spec = GridSpec(rows=6, cols=8, lat_step=10.0, lon_step=45.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.standard_normal((2, 6, 8))
        t = rng.standard_normal((2, 6, 8))
        got = latitude_rmse(p, t, spec)
        w = latitude_weights(spec)
        vals = []
        for ti in range(2):
            s = 0.0
            for i in range(6):
                for j in range(8):
                    s += w[i] * (p[ti, i, j] - t[ti, i, j]) ** 2
            vals.append(math.sqrt(s / 48))
        want = sum(vals) / 2
        assert abs(got - want) <= 1e-12 * max(1.0, want), f"{got} vs {want}"


def check_parseval():
    from .evaluation import zonal_power

    for cols, lon in ((8, 45.0), (9, 40.0)):
        spec = GridSpec(rows=5, cols=cols, lat_step=10.0, lon_step=lon)
        f = np.random.default_rng(5).standard_normal((5, cols))
        p = zonal_power(f, spec)
        err = np.max(np.abs(p.sum(axis=1) - (f * f).mean(axis=1)))
        assert err <= 1e-10, f"cols={cols}: parseval error {err}"


def check_blur_scale():
    from .evaluation import blur_index
    from .grid import desk_grid

    spec = desk_grid()
    truth = np.random.default_rng(6).standard_normal((spec.rows, spec.cols))
    got = blur_index(2.0 * truth, truth, spec, 2000.0)
    assert abs(got - 0.5) < 1e-12, f"doubled amplitude gives blur {got}"


def check_round_trips():
    params = {"a.w": np.random.default_rng(7).standard_normal((3, 4)), "b": np.float64(2.5)}
    ds = generate_dataset(GridSpec(rows=8, cols=12, lat_step=10.0, lon_step=30.0),
                          1, 2, 1, 2, hours=3, seed=8, n_sources=2)
    with tempfile.TemporaryDirectory() as d:
        p, q = f"{d}/p.lmtw", f"{d}/d.wmd3"
        save_params_file(p, params)
        save_dataset_file(ds, q)
        assert dump_params(load_params_file(p)) == dump_params(params), "parameter file round trip"
        assert dump_dataset(load_dataset_file(q)) == dump_dataset(ds), "dataset file round trip"


def check_curriculum():
    assert admissible_dts(0) == (0, 6, 12)
    assert admissible_dts(999) == (0, 6, 12)
    assert admissible_dts(1000) == (0, 6, 12, 18, 24)
    assert admissible_dts(15000) == (0, 6, 12, 18, 24, 30)
    assert admissible_dts(21000) == (0, 6, 12, 18, 24, 30, 36)
    assert admissible_dts(26000) == (0, 6, 12, 18, 24, 30, 36, 42)
    assert admissible_dts(30000) == (0, 6, 12, 18, 24, 30, 36, 42, 48)
    rng = np.random.default_rng(9)
    pool = admissible_dts(2000)
    for _ in range(1000):
        assert max(pool) in sample_dts(rng, pool), "sampled batch lacks max dt"


def check_cosine_endpoints():
    for total in (2, 50, 33000):
        assert cosine_lr(0, total, 3e-4) == 3e-4
        assert abs(cosine_lr(total - 1, total, 3e-4)) <= 1e-12


CHECKS = (
    ("plan-arithmetic", check_plan_arithmetic),
    ("conv-adjoint", check_conv_adjoint),
    ("roll-equivariance", check_roll_equivariance),
    ("checkpoint-parity", check_checkpoint_parity),
    ("gradient-fd", check_gradient_fd),
    ("rmse-oracle", check_rmse_oracle),
    ("parseval", check_parseval),
    ("blur-scale", check_blur_scale),
    ("round-trips", check_round_trips),
    ("curriculum", check_curriculum),
    ("cosine-endpoints", check_cosine_endpoints),
)


def run_checks(verbose: bool = False) -> int:
    """Run every invariant check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as e:  # a failing check must not stop the others
            failures += 1
            if verbose:
                print(f"FAIL {name}: {e}")
        else:
            if verbose:
                print(f"ok   {name}")
    return failures
