"""Rollout: plan arithmetic, latent purity, checkpoint composition."""

import numpy as np
import pytest

import gridcast.autodiff as ad
import gridcast.model as gm
from gridcast.autodiff import Tensor, backward
from gridcast.errors import ConfigError, NumericsError
from gridcast.model import (
    LatentState,
    decode,
    encode,
    init_model_params,
    process,
    tiny_config,
)
from gridcast.offload import OffloadEngine
from gridcast.rollout import forecast, greedy_plan, plan_hours, rollout
from gridcast.training import add_source_encoders

RNG = np.random.default_rng(88)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    params = init_model_params(cfg, seed=21, zero_residual=False)
    rng = np.random.default_rng(4)
    state = gm.WeatherState(
        valid_time=0,
        surface=rng.standard_normal((cfg.surface_in, cfg.grid.rows, cfg.grid.cols)),
        atmos=rng.standard_normal((cfg.atmos_vars, cfg.levels, cfg.grid.rows, cfg.grid.cols)),
    )
    return cfg, params, state


class TestPlan:
    def test_every_dt_exact(self):
        for dt in range(0, 337):
            plan = greedy_plan(dt)
            assert plan == (6,) * (dt // 6) + (1,) * (dt % 6)
            assert plan_hours(plan) == dt

    def test_known_cases(self):
        assert greedy_plan(0) == ()
        assert greedy_plan(1) == (1,)
        assert greedy_plan(5) == (1,) * 5
        assert greedy_plan(6) == (6,)
        assert greedy_plan(7) == (6, 1)
        assert greedy_plan(23) == (6, 6, 6, 1, 1, 1, 1, 1)
        assert greedy_plan(120) == (6,) * 20

    def test_sixes_count_for_120(self):
        assert greedy_plan(120).count(6) == 20
        assert greedy_plan(120).count(1) == 0

    def test_bounds(self):
        with pytest.raises(ConfigError):
            greedy_plan(-1)
        with pytest.raises(ConfigError):
            greedy_plan(337)
        with pytest.raises(ConfigError):
            greedy_plan(2.5)
        assert greedy_plan(400, max_dt=500) == (6,) * 66 + (1,) * 4


class TestRollout:
    def test_empty_plan_returns_input(self, setup):
        cfg, params, state = setup
        lat = encode(state, params, cfg)
        out = rollout(lat, (), params, cfg)
        assert out is lat

    def test_composition_bitwise(self, setup):
        cfg, params, state = setup
        with ad.no_grad():
            lat = encode(state, params, cfg)
            direct = process(process(lat, params, cfg, 6), params, cfg, 6)
            rolled = rollout(lat, (6, 6), params, cfg)
        assert rolled.tokens.values.tobytes() == direct.tokens.values.tobytes()
        assert rolled.valid_time == direct.valid_time == 12

    def test_mixed_plan_valid_time(self, setup):
        cfg, params, state = setup
        with ad.no_grad():
            lat = encode(state, params, cfg)
            out = rollout(lat, greedy_plan(8), params, cfg)
        assert out.valid_time == 8

    def test_no_encode_decode_inside(self, setup):
        cfg, params, state = setup
        with ad.no_grad():
            lat = encode(state, params, cfg)
            gm.reset_call_counts()
            rollout(lat, greedy_plan(14), params, cfg)
        assert gm.CALL_COUNTS["encode"] == 0
        assert gm.CALL_COUNTS["decode"] == 0
        assert gm.CALL_COUNTS["process6"] == 2
        assert gm.CALL_COUNTS["process1"] == 2

    def test_missing_one_hour_processor_rejected_before_compute(self, setup):
        cfg, params, state = setup
        pruned = {k: v for k, v in params.items() if not k.startswith("proc1.")}
        with ad.no_grad():
            lat = encode(state, params, cfg)
        gm.reset_call_counts()
        with pytest.raises(ConfigError):
            rollout(lat, (6, 1), pruned, cfg)
        assert gm.CALL_COUNTS["process6"] == 0  # rejected before any step ran

    def test_forecast_matches_manual_composition(self, setup):
        cfg, params, state = setup
        with ad.no_grad():
            out = forecast([state], 12, params, cfg)
            manual = decode(
                process(process(encode(state, params, cfg), params, cfg, 6),
                        params, cfg, 6), params, cfg)
        assert out.surface.values.tobytes() == manual.surface.values.tobytes()
        assert out.atmos.values.tobytes() == manual.atmos.values.tobytes()
        assert out.valid_time == 12

    def test_rollout_gradients_match_uncheckpointed(self, setup):
        cfg, params, state = setup
        names = sorted(k for k in params if k.startswith("proc6."))
        leaves = [params[k] for k in names]

        lat = encode(state, params, cfg)
        z = lat.tokens
        for _ in range(3):
            z = process(LatentState(z, 0, lat.extents), params, cfg, 6).tokens
        loss = (z * z).mean()
        g_plain = backward(loss, leaves=leaves)
        plain = [g_plain[t].tobytes() for t in leaves]

        lat = encode(state, params, cfg)
        out = rollout(lat, (6, 6, 6), params, cfg)
        loss = (out.tokens * out.tokens).mean()
        g_ck = backward(loss, leaves=leaves)
        assert [g_ck[t].tobytes() for t in leaves] == plain

    def test_rollout_with_offload_engine_bitwise(self, setup):
        cfg, params, state = setup
        names = sorted(k for k in params if k.startswith("proc6."))
        leaves = [params[k] for k in names]

        def run(engine):
            lat = encode(state, params, cfg)
            out = rollout(lat, (6, 6, 6, 6), params, cfg, engine=engine)
            loss = (out.tokens * out.tokens).mean()
            grads = backward(loss, leaves=leaves)
            return (loss.values.tobytes(), [grads[t].tobytes() for t in leaves])

        plain = run(None)
        eng = OffloadEngine()
        offloaded = run(eng)
        assert plain == offloaded
        assert eng.slots == {}  # backward consumed every kept input
        eng.close()

    def test_forecast_dt_obeys_cap(self, setup):
        cfg, params, state = setup
        gm.reset_call_counts()
        with pytest.raises(ConfigError):
            forecast([state], cfg.max_dt + 1, params, cfg)
        assert gm.CALL_COUNTS["encode"] == 0  # rejected before any encoding

    @pytest.mark.parametrize("name, sources, stage", [
        ("enc.blk0.mlp.w2", ("primary",), "forecast: latent after encode"),
        ("enc_op.op1.stem_sfc.w", ("primary", "op1"), "forecast: latent after blend"),
        ("dec.head_sfc.w", ("primary",), "forecast: fields after decode"),
    ])
    def test_non_finite_forecast_names_the_stage(self, setup, name, sources, stage):
        # finite weights whose sums overflow, as the command line tests set them
        cfg, _, state = setup
        params = init_model_params(cfg, seed=4)
        add_source_encoders(params, cfg, ["op1"], seed=4)
        params[name] = Tensor(np.full(params[name].shape, 1e308))
        with ad.no_grad(), np.errstate(all="ignore"), pytest.raises(NumericsError) as err:
            forecast([state] * len(sources), 7, params, cfg, sources)
        assert str(err.value) == f"{stage} is not finite"

    def test_dt_zero_forecast_is_encode_decode(self, setup):
        cfg, params, state = setup
        with ad.no_grad():
            out = forecast([state], 0, params, cfg)
            manual = decode(encode(state, params, cfg), params, cfg)
        assert out.surface.values.tobytes() == manual.surface.values.tobytes()
