"""Model: shapes, determinism, blending, config round trip, dry-run plan."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridcast.autodiff as ad
import gridcast.model as gm
from gridcast.autodiff import Tensor, backward
from gridcast.errors import ConfigError
from gridcast.model import (
    LatentState,
    WeatherState,
    blend_latents,
    config_from_dict,
    config_to_dict,
    decode,
    desk_config,
    encode,
    init_model_params,
    load_config,
    full_scale_config,
    process,
    save_config,
    shape_plan,
    tiny_config,
)

RNG = np.random.default_rng(2024)


def random_state(cfg, t=0, seed=1):
    rng = np.random.default_rng(seed)
    g = cfg.grid
    return WeatherState(
        valid_time=t,
        surface=rng.standard_normal((cfg.surface_in, g.rows, g.cols)),
        atmos=rng.standard_normal((cfg.atmos_vars, cfg.levels, g.rows, g.cols)),
    )


@pytest.fixture(scope="module")
def tiny():
    cfg = tiny_config()
    params = init_model_params(cfg, seed=7, zero_residual=False)
    return cfg, params


class TestConfig:
    def test_desk_latent_extents(self):
        cfg = desk_config()
        assert cfg.latent_extents == (3, 5, 10)
        assert cfg.tokens == 150

    def test_full_scale_latent_extents(self):
        cfg = full_scale_config()
        assert cfg.latent_extents == (5, 90, 180)
        assert cfg.window == (5, 7, 7)
        assert cfg.hidden == 1024
        assert cfg.proc_blocks == 10

    def test_level_patch_divisibility(self):
        with pytest.raises(ConfigError):
            gm.ModelConfig(grid=gm.desk_grid(), levels=7, level_patch=4)

    def test_window_must_fit_latent(self):
        with pytest.raises(ConfigError):
            gm.ModelConfig(grid=gm.desk_grid(), window=(5, 3, 3))  # depth 3 < 5

    def test_grid_divisibility(self):
        with pytest.raises(ConfigError):
            gm.ModelConfig(grid=gm.GridSpec(rows=36, cols=80, lat_step=4.5, lon_step=4.5))

    def test_round_trip_file(self, tmp_path):
        cfg = desk_config()
        path = tmp_path / "model.cfg"
        save_config(path, cfg)
        assert load_config(path) == cfg
        text = path.read_text()
        assert "rows = 40" in text
        assert "window = 3,3,3" in text

    def test_load_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        save_config(path, desk_config())
        path.write_text(path.read_text() + "banana = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_rejects_missing_key(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("rows = 40\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg


_CONFIG_VALUES = st.one_of(
    st.integers(-3, 100).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-2, 60), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", "true", "1e400", "1e5", "x"]),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(config_to_dict(desk_config()))), _CONFIG_VALUES)
@example("window", "3,3")
@example("heads", "0")
@example("level_patch", "0")
@example("lat_step", "nan")
@example("planet_radius_km", "inf")
def test_mutated_config_file_raises_only_config_error(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("cfg") / "desk.cfg"
    save_config(path, desk_config())
    lines = [f"{key} = {value}\n" if ln.split(" = ")[0] == key else ln
             for ln in path.read_text().splitlines(keepends=True)]
    path.write_text("".join(lines))
    try:
        load_config(path)
    except ConfigError:
        pass


class TestForwardShapes:
    def test_encode_process_decode(self, tiny):
        cfg, params = tiny
        state = random_state(cfg)
        lat = encode(state, params, cfg)
        assert lat.tokens.shape == (cfg.tokens, cfg.hidden)
        assert lat.valid_time == 0
        adv = process(lat, params, cfg, 6)
        assert adv.valid_time == 6
        adv = process(adv, params, cfg, 1)
        assert adv.valid_time == 7
        out = decode(adv, params, cfg)
        g = cfg.grid
        assert out.surface.shape == (cfg.surface_out, g.rows, g.cols)
        assert out.atmos.shape == (cfg.atmos_vars, cfg.levels, g.rows, g.cols)
        assert out.valid_time == 7

    def test_encode_rejects_wrong_shapes(self, tiny):
        cfg, params = tiny
        st = random_state(cfg)
        st.surface = st.surface[:1]
        with pytest.raises(ConfigError):
            encode(st, params, cfg)

    def test_unknown_horizon_rejected(self, tiny):
        cfg, params = tiny
        lat = encode(random_state(cfg), params, cfg)
        with pytest.raises(ConfigError):
            process(lat, params, cfg, 3)

    def test_missing_processor_params_rejected(self, tiny):
        cfg, params = tiny
        lat = encode(random_state(cfg), params, cfg)
        pruned = {k: v for k, v in params.items() if not k.startswith("proc1.")}
        with pytest.raises(ConfigError):
            process(lat, pruned, cfg, 1)

    def test_unknown_source_rejected(self, tiny):
        cfg, params = tiny
        with pytest.raises(ConfigError):
            encode(random_state(cfg), params, cfg, source="ghost")

    def test_determinism_bitwise(self, tiny):
        cfg, params = tiny
        state = random_state(cfg)

        def run():
            lat = encode(state, params, cfg)
            out = decode(process(lat, params, cfg, 6), params, cfg)
            return out.surface.values.tobytes() + out.atmos.values.tobytes()

        assert run() == run()

    def test_zero_residual_init_decodes_to_zero(self):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=3, zero_residual=True)
        state = random_state(cfg)
        out = decode(encode(state, params, cfg), params, cfg)
        assert np.abs(out.surface.values).max() == 0.0
        assert np.abs(out.atmos.values).max() == 0.0

    def test_call_counts(self, tiny):
        cfg, params = tiny
        gm.reset_call_counts()
        lat = encode(random_state(cfg), params, cfg)
        process(lat, params, cfg, 6)
        assert gm.CALL_COUNTS == {"encode": 1, "process6": 1, "process1": 0, "decode": 0}


class TestLevelFolding:
    def test_fold_unfold_inverse(self):
        cfg = tiny_config()
        x = Tensor(RNG.standard_normal((cfg.atmos_vars, cfg.levels, 4, 6)))
        planes = gm._fold_levels(x, cfg)
        assert len(planes) == cfg.levels // cfg.level_patch
        assert planes[0].shape == (cfg.atmos_vars * cfg.level_patch, 4, 6)
        back = gm._unfold_levels(planes, cfg)
        np.testing.assert_array_equal(back.values, x.values)

    def test_token_plane_round_trip(self):
        cfg = tiny_config()
        d, h, w = 3, 4, 5
        planes = [Tensor(RNG.standard_normal((cfg.hidden, h, w))) for _ in range(d)]
        tok = gm._tokens_from_planes(planes, cfg)
        assert tok.shape == (d * h * w, cfg.hidden)
        back = gm._planes_from_tokens(tok, (d, h, w), cfg.hidden)
        for a, b in zip(planes, back):
            np.testing.assert_array_equal(a.values, b.values)


class TestBlend:
    def _latents(self, tiny, times=(0, 0)):
        cfg, params = tiny
        return [encode(random_state(cfg, t=t, seed=i), params, cfg)
                for i, t in enumerate(times)]

    def test_blend_convex(self, tiny):
        lats = self._latents(tiny)
        out = blend_latents(lats, np.array([0.25, 0.75]))
        want = 0.25 * lats[0].tokens.values + 0.75 * lats[1].tokens.values
        np.testing.assert_allclose(out.tokens.values, want, atol=1e-14)
        assert out.valid_time == 0

    def test_blend_rejects_bad_weights(self, tiny):
        lats = self._latents(tiny)
        with pytest.raises(ConfigError):
            blend_latents(lats, np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            blend_latents(lats, np.array([-0.1, 1.1]))

    def test_blend_rejects_non_finite_weights(self, tiny):
        lats = self._latents(tiny)
        with pytest.raises(ConfigError):
            blend_latents(lats, np.array([np.nan, np.nan]))

    def test_blend_rejects_mismatched_times(self, tiny):
        lats = self._latents(tiny, times=(0, 6))
        with pytest.raises(ConfigError):
            blend_latents(lats, np.array([0.5, 0.5]))

    def test_blend_weights_differentiable(self, tiny):
        cfg, params = tiny
        lats = self._latents(tiny)
        w = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        out = blend_latents(lats, w)
        loss = (out.tokens * out.tokens).mean()
        grads = backward(loss, leaves=[w])
        assert grads[w].shape == (2,)
        assert np.abs(grads[w]).max() > 0


class TestShapePlan:
    def test_full_scale_dry_run(self):
        plan = shape_plan(full_scale_config())
        assert plan["latent_extents"] == (5, 90, 180)
        assert plan["tokens"] == 5 * 90 * 180
        assert plan["stages"][-1]["rows"] == 90
        assert plan["stages"][-1]["cols"] == 180
        assert plan["attention_keys"] == 5 * 7 * 7
        assert plan["surface_output"] == (17, 720, 1440)
        assert plan["atmos_output"] == (5, 28, 720, 1440)
        # hundreds of millions of parameter elements, none allocated
        assert plan["param_elements"] > 2e8

    def test_param_elements_match_actual_allocation(self):
        cfg = tiny_config()
        plan = shape_plan(cfg)
        params = init_model_params(cfg, seed=0)
        actual = sum(int(np.prod(t.shape)) for t in params.values())
        assert plan["param_elements"] == actual

    def test_desk_plan(self):
        plan = shape_plan(desk_config())
        assert plan["latent_extents"] == (3, 5, 10)
        assert plan["tokens"] == 150


class TestGradients:
    def test_encoder_decoder_fd(self):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=11, zero_residual=False)
        state = random_state(cfg, seed=2)
        target_s = RNG.standard_normal((cfg.surface_out, cfg.grid.rows, cfg.grid.cols))
        target_a = RNG.standard_normal((cfg.atmos_vars, cfg.levels,
                                        cfg.grid.rows, cfg.grid.cols))

        def loss_fn():
            out = decode(encode(state, params, cfg), params, cfg)
            ds = out.surface - Tensor(target_s, copy=False)
            da = out.atmos - Tensor(target_a, copy=False)
            return (ds * ds).mean() + (da * da).mean()

        names = sorted(params)
        leaves = [params[k] for k in names]
        loss = loss_fn()
        grads = backward(loss, leaves=leaves)
        gvec = np.concatenate([grads[t].ravel() for t in leaves])
        base = [t.values.copy() for t in leaves]
        eps = 1e-5
        drng = np.random.default_rng(5)
        for _ in range(4):
            u = drng.standard_normal(gvec.size)
            u /= np.linalg.norm(u)
            parts, off = [], 0
            for b in base:
                parts.append(u[off:off + b.size].reshape(b.shape))
                off += b.size

            def feval(sign):
                for t_, b, p in zip(leaves, base, parts):
                    t_.values = np.ascontiguousarray(b + sign * eps * p)
                with ad.no_grad():
                    return loss_fn().item()

            fd = (feval(1) - feval(-1)) / (2 * eps)
            for t_, b in zip(leaves, base):
                t_.values = b
            an = float(gvec @ u)
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
