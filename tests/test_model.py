"""Model: shapes, determinism, blending, config round trip, dry-run plan."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridcast.autodiff as ad
import gridcast.attention as attention
import gridcast.model as gm
from gridcast import training
from gridcast.attention import init_block_params, natten_block
from gridcast.autodiff import Tensor, backward
from gridcast.errors import ConfigError
from gridcast.grid import GridSpec, static_fields
from gridcast.model import (
    LatentState,
    WeatherState,
    config_from_dict,
    config_to_dict,
    decode,
    desk_config,
    encode,
    encode_sources,
    init_model_params,
    load_config,
    full_scale_config,
    process,
    save_config,
    shape_plan,
    source_stream,
    tiny_config,
)
from gridcast.synthdata import generate_dataset

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

    def test_desk_file_text_and_keys(self, tmp_path):
        path = tmp_path / "desk.cfg"
        save_config(path, desk_config())
        assert path.read_text() == (
            "rows = 40\ncols = 80\nnorth_lat = 90.0\nlat_step = 4.5\nlon_step = 4.5\n"
            "south_pole_omitted = true\nplanet_radius_km = 6371.0\nsurface_in = 4\n"
            "surface_out = 6\natmos_vars = 3\nlevels = 8\nlevel_patch = 4\n"
            "stem_channels = 16\nstage_channels = 24,32,48\nhidden = 48\nheads = 4\n"
            "window = 3,3,3\nenc_blocks = 2\ndec_blocks = 2\nproc_blocks = 4\n"
            "horizons = 1,6\nmax_dt = 336\n")
        fields = [f.name for cls in (GridSpec, gm.ModelConfig)
                  for f in dataclasses.fields(cls) if f.name != "grid"]
        assert list(config_to_dict(desk_config())) == fields

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

    def test_load_rejects_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.cfg"
        save_config(path, desk_config())
        path.write_bytes(path.read_bytes()[:128] + b"\x80\xff\n")
        with pytest.raises(ConfigError, match="not UTF-8 text") as err:
            load_config(path)
        assert str(path) in str(err.value)

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

    def test_encode_builds_backward_tables_only_with_grad_and_first(self, tiny, monkeypatch):
        # a no_grad forecast never reads them; a training encode builds them
        # before the pyramid allocates, so they never sit above a freed graph
        cfg, params = tiny
        memo = {}
        monkeypatch.setattr(attention, "_BACKWARD_PLANS", memo)
        with ad.no_grad():
            encode(random_state(cfg), params, cfg)
        assert memo == {}
        down = gm._pyramid_down

        def pyramid_down(*args):
            assert len(memo) == 1
            return down(*args)
        monkeypatch.setattr(gm, "_pyramid_down", pyramid_down)
        encode(random_state(cfg), params, cfg)
        assert len(memo) == 1

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


# The per-plane design the batched pyramid replaced: Python lists of depth
# planes and one unbatched pyramid call per plane.  Kept as the oracle.

def _fold_levels(atmos, cfg):
    """(A, L, H, W) -> one (A*patch, H, W) tensor per level group."""
    a, l, h, w = atmos.shape
    g = l // cfg.level_patch
    planes = atmos.reshape(a, g, cfg.level_patch, h, w).transpose(1, 0, 2, 3, 4)
    return [planes[j].reshape(a * cfg.level_patch, h, w) for j in range(g)]


def _unfold_levels(planes, cfg):
    """Inverse of _fold_levels: list of (A*patch, H, W) -> (A, L, H, W)."""
    g = len(planes)
    h, w = planes[0].shape[-2:]
    stacked = ad.concat([pl.reshape(1, cfg.atmos_vars, cfg.level_patch, h, w)
                         for pl in planes], axis=0)
    return stacked.transpose(1, 0, 2, 3, 4).reshape(
        cfg.atmos_vars, g * cfg.level_patch, h, w)


def _tokens_from_planes(planes):
    d = len(planes)
    c, hh, ww = planes[0].shape
    stacked = ad.concat([pl.reshape(1, c, hh, ww) for pl in planes], axis=0)
    return stacked.transpose(0, 2, 3, 1).reshape(d * hh * ww, c)


def _planes_from_tokens(tokens, extents, hidden):
    d, hh, ww = extents
    grid_t = tokens.reshape(d, hh, ww, hidden).transpose(0, 3, 1, 2)
    return [grid_t[j] for j in range(d)]


def _per_plane_encode(state, params, cfg, source=gm.PRIMARY_SOURCE):
    prefix = gm.encoder_prefix(source)
    sfc = Tensor(np.concatenate([state.surface, static_fields(cfg.grid)], axis=0))
    planes = [gm._conv(sfc, params, f"{prefix}.stem_sfc")]
    planes += [gm._conv(pl, params, f"{prefix}.stem_atm")
               for pl in _fold_levels(Tensor(state.atmos), cfg)]
    tokens = _tokens_from_planes([gm._pyramid_down(pl, params, prefix) for pl in planes])
    for i in range(cfg.enc_blocks):
        tokens = natten_block(tokens, params, f"{prefix}.blk{i}", cfg.latent_extents,
                              cfg.window, cfg.heads)
    return LatentState(tokens, state.valid_time, cfg.latent_extents)


def _per_plane_decode(lat, params, cfg):
    x = lat.tokens
    for i in range(cfg.dec_blocks):
        x = natten_block(x, params, f"dec.blk{i}", lat.extents, cfg.window, cfg.heads)
    g = cfg.grid
    up_shapes = [(g.rows // 4, g.cols // 4), (g.rows // 2, g.cols // 2), (g.rows, g.cols)]
    full = [gm._pyramid_up(pl, params, up_shapes)
            for pl in _planes_from_tokens(x, lat.extents, cfg.hidden)]
    surface = gm._conv(full[0], params, "dec.head_sfc")
    atmos = _unfold_levels([gm._conv(pl, params, "dec.head_atm") for pl in full[1:]], cfg)
    return gm.DecodedFields(lat.valid_time, surface, atmos)


class TestPlaneBatch:
    """encode and decode run the pyramid once over a batch of depth planes,
    bitwise equal to one unbatched pyramid per plane."""

    def test_encode_decode_match_per_plane_oracle(self, tiny):
        cfg, params = tiny
        state = random_state(cfg, seed=4)
        lat = encode(state, params, cfg)
        want = _per_plane_encode(state, params, cfg)
        assert lat.tokens.values.tobytes() == want.tokens.values.tobytes()
        out, ref = decode(lat, params, cfg), _per_plane_decode(lat, params, cfg)
        assert out.surface.values.tobytes() == ref.surface.values.tobytes()
        assert out.atmos.values.tobytes() == ref.atmos.values.tobytes()

    def test_desk_train_step_matches_per_plane_oracle(self, monkeypatch):
        cfg = desk_config()
        ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out, cfg.atmos_vars,
                              cfg.levels, hours=12, seed=1)
        params = init_model_params(cfg, seed=1, zero_residual=False)
        names = sorted(params)

        def step():
            ad.reset_tape_stats()
            loss = training.train_step(params, cfg, ds, (0, 6, 12), 0, ds.plane_sigmas())
            stats = ad.tape_stats()
            nodes, peak = stats.nodes_created, stats.saved_bytes_peak
            grads = backward(loss, leaves=[params[k] for k in names])
            return [loss.values] + [grads[params[k]] for k in names], nodes, peak

        got, nodes, peak = step()
        monkeypatch.setattr(gm, "encode", _per_plane_encode)
        monkeypatch.setattr(training, "decode", _per_plane_decode)
        want, want_nodes, want_peak = step()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # one conv node per layer instead of one per plane, same pinned bytes
        assert (nodes, want_nodes) == (432, 664)
        assert peak == want_peak


class TestBlend:
    SOURCES = ["primary", "op1"]

    @pytest.fixture(scope="class")
    def two(self, tiny):
        cfg, params = tiny
        params = dict(params)
        training.add_source_encoders(params, cfg, ["op1"], seed=7)
        params["blend.logits"] = Tensor(np.array([0.4, -0.7]), requires_grad=True)
        return cfg, params

    def test_blend_convex(self, two):
        cfg, params = two
        states = [random_state(cfg, seed=i) for i in range(2)]
        with ad.no_grad():
            out = encode_sources(states, params, cfg, self.SOURCES)
            lats = [encode(st, params, cfg, source=s) for st, s in zip(states, self.SOURCES)]
            alone = encode_sources(states[1:], params, cfg, ["op1"])
        w = np.exp([0.4, -0.7]) / np.exp([0.4, -0.7]).sum()
        want = w[0] * lats[0].tokens.values + w[1] * lats[1].tokens.values
        np.testing.assert_allclose(out.tokens.values, want, atol=1e-14)
        assert out.valid_time == 0
        assert alone.tokens.values.tobytes() == lats[1].tokens.values.tobytes()

    def test_blend_rejects_mismatched_times(self, two):
        cfg, params = two
        states = [random_state(cfg, t=t, seed=i) for i, t in enumerate((0, 6))]
        gm.reset_call_counts()
        with pytest.raises(ConfigError, match="mismatched valid times"):
            encode_sources(states, params, cfg, self.SOURCES)
        with pytest.raises(ConfigError, match="1 states for 2 sources"):
            encode_sources(states[:1], params, cfg, self.SOURCES)
        assert gm.CALL_COUNTS["encode"] == 0

    def test_blend_rejects_bad_logits(self, two):
        cfg, params = two
        states = [random_state(cfg, seed=i) for i in range(2)]
        for logits in (None, Tensor(np.zeros(3))):
            bad = {k: v for k, v in params.items() if k != "blend.logits"}
            if logits is not None:
                bad["blend.logits"] = logits
            with ad.no_grad(), pytest.raises(ConfigError, match="blend.logits"):
                encode_sources(states, bad, cfg, self.SOURCES)

    def test_blend_weights_differentiable(self, two):
        cfg, params = two
        states = [random_state(cfg, seed=i) for i in range(2)]
        out = encode_sources(states, params, cfg, self.SOURCES)
        loss = (out.tokens * out.tokens).mean()
        logits = params["blend.logits"]
        grads = backward(loss, leaves=[logits])
        assert grads[logits].shape == (2,)
        assert np.abs(grads[logits]).max() > 0


class TestSourceStreams:
    def test_primary_and_numbered_sources(self):
        assert source_stream("primary") == 0
        assert source_stream("op1") == 1
        assert source_stream("op10") == 10

    @pytest.mark.parametrize("name", ["op0", "op01", "op", "op1x", "gfs", "OP1"])
    def test_other_names_rejected(self, name):
        with pytest.raises(ConfigError):
            source_stream(name)

    def test_layout_rejects_unnumbered_extra_source(self):
        with pytest.raises(ConfigError):
            gm.model_layout(tiny_config(), extra_sources=("gfs",))

    def test_available_sources_by_stream_number(self):
        params = dict.fromkeys(["enc.stem_sfc.w", "enc_op.op10.stem_sfc.w",
                                "enc_op.op2.stem_sfc.w", "enc_op.op2.stem_sfc.b",
                                "enc_op.op1.stem_sfc.w"])
        assert gm.available_sources(params) == ["primary", "op1", "op2", "op10"]


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
        assert plan["param_elements"] == 382_781_428

    def test_param_elements_match_actual_allocation(self):
        for cfg in (tiny_config(), desk_config()):
            plan = shape_plan(cfg)
            for extra in ((), ("op1", "op2")):
                params = init_model_params(cfg, seed=0, extra_sources=extra)
                sizes = {k: int(np.prod(t.shape)) for k, t in params.items()}
                # every extra source adds one encoder the primary's size
                enc = sum(n for k, n in sizes.items() if k.startswith("enc."))
                assert plan["param_elements"] + len(extra) * enc == sum(sizes.values())
    def test_desk_plan(self):
        plan = shape_plan(desk_config())
        assert plan["latent_extents"] == (3, 5, 10)
        assert plan["tokens"] == 150
        assert plan["param_elements"] == 620_658


# ---------------------------------------------------------------------------
# oracle: the per-module init helpers that model_layout and block_layout
# replaced, kept here to pin every draw bitwise
# ---------------------------------------------------------------------------

def _oracle_block(rng, dim, prefix, zero_residual):
    s = 1.0 / math.sqrt(dim)
    hidden = 4 * dim

    def w(shape, scale):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape), requires_grad=True)

    out_scale = 0.0 if zero_residual else s
    return {
        f"{prefix}.ln1.gain": ones(dim), f"{prefix}.ln1.bias": zeros(dim),
        f"{prefix}.attn.wq": w((dim, dim), s), f"{prefix}.attn.bq": zeros(dim),
        f"{prefix}.attn.wk": w((dim, dim), s), f"{prefix}.attn.bk": zeros(dim),
        f"{prefix}.attn.wv": w((dim, dim), s), f"{prefix}.attn.bv": zeros(dim),
        f"{prefix}.attn.wo": w((dim, dim), out_scale), f"{prefix}.attn.bo": zeros(dim),
        f"{prefix}.ln2.gain": ones(dim), f"{prefix}.ln2.bias": zeros(dim),
        f"{prefix}.mlp.w1": w((dim, hidden), s), f"{prefix}.mlp.b1": zeros(hidden),
        f"{prefix}.mlp.w2": w((hidden, dim), out_scale if zero_residual
                              else 1.0 / math.sqrt(hidden)),
        f"{prefix}.mlp.b2": zeros(dim),
    }


def _oracle_conv_w(rng, c_out, c_in, k, scale=None):
    s = scale if scale is not None else 1.0 / math.sqrt(c_in * k * k)
    return Tensor(rng.standard_normal((c_out, c_in, k, k)) * s, requires_grad=True)


def _oracle_convt_w(rng, c_in, c_out, k):
    s = 1.0 / math.sqrt(c_in * k * k)
    return Tensor(rng.standard_normal((c_in, c_out, k, k)) * s, requires_grad=True)


def _oracle_zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _oracle_res(rng, prefix, c, p):
    for j in range(2):
        p[f"{prefix}.res{j}.conv1.w"] = _oracle_conv_w(rng, c, c, 3)
        p[f"{prefix}.res{j}.conv1.b"] = _oracle_zeros(c)
        p[f"{prefix}.res{j}.conv2.w"] = _oracle_conv_w(rng, c, c, 3)
        p[f"{prefix}.res{j}.conv2.b"] = _oracle_zeros(c)


def _oracle_encoder(cfg, rng, prefix, zero_residual, p):
    sfc_in = cfg.surface_in + gm.N_STATIC_FIELDS
    atm_in = cfg.atmos_vars * cfg.level_patch
    p[f"{prefix}.stem_sfc.w"] = _oracle_conv_w(rng, cfg.stem_channels, sfc_in, 3)
    p[f"{prefix}.stem_sfc.b"] = _oracle_zeros(cfg.stem_channels)
    p[f"{prefix}.stem_atm.w"] = _oracle_conv_w(rng, cfg.stem_channels, atm_in, 3)
    p[f"{prefix}.stem_atm.b"] = _oracle_zeros(cfg.stem_channels)
    c_in = cfg.stem_channels
    for i, c_out in enumerate(cfg.stage_channels):
        p[f"{prefix}.stage{i}.down.w"] = _oracle_conv_w(rng, c_out, c_in, 3)
        p[f"{prefix}.stage{i}.down.b"] = _oracle_zeros(c_out)
        _oracle_res(rng, f"{prefix}.stage{i}", c_out, p)
        c_in = c_out
    for i in range(cfg.enc_blocks):
        p.update(_oracle_block(rng, cfg.hidden, f"{prefix}.blk{i}", zero_residual))


def _oracle_model(cfg, seed, zero_residual, extra_sources):
    rng = np.random.default_rng(seed)
    p = {}
    _oracle_encoder(cfg, rng, "enc", zero_residual, p)
    for name in extra_sources:
        _oracle_encoder(cfg, rng, f"enc_op.{name}", zero_residual, p)
    for h in cfg.horizons:
        for i in range(cfg.proc_blocks):
            p.update(_oracle_block(rng, cfg.hidden, f"proc{h}.blk{i}", zero_residual))
    for i in range(cfg.dec_blocks):
        p.update(_oracle_block(rng, cfg.hidden, f"dec.blk{i}", zero_residual))
    chans = [cfg.hidden] + list(cfg.stage_channels[-2::-1]) + [cfg.stem_channels]
    for i in range(3):
        p[f"dec.stage{i}.up.w"] = _oracle_convt_w(rng, chans[i], chans[i + 1], 4)
        p[f"dec.stage{i}.up.b"] = _oracle_zeros(chans[i + 1])
        _oracle_res(rng, f"dec.stage{i}", chans[i + 1], p)
    head_scale = 0.0 if zero_residual else None
    n_atm = cfg.atmos_vars * cfg.level_patch
    p["dec.head_sfc.w"] = _oracle_conv_w(rng, cfg.surface_out, cfg.stem_channels, 3,
                                         scale=head_scale)
    p["dec.head_sfc.b"] = _oracle_zeros(cfg.surface_out)
    p["dec.head_atm.w"] = _oracle_conv_w(rng, n_atm, cfg.stem_channels, 3, scale=head_scale)
    p["dec.head_atm.b"] = _oracle_zeros(n_atm)
    return p


def _assert_bitwise(got, want):
    assert list(got) == list(want)  # names and order
    for k in want:
        g, w = got[k], want[k]
        assert g.requires_grad and w.requires_grad, k
        assert g.values.dtype == w.values.dtype and g.shape == w.shape, k
        assert g.values.tobytes() == w.values.tobytes(), k


@pytest.mark.parametrize("make_cfg", [tiny_config, desk_config])
def test_init_bitwise_vs_per_module_helpers(make_cfg):
    cfg = make_cfg()
    for seed in (0, 1, 7):
        for zero_residual in (True, False):
            for extra in ((), ("op1", "op2")):
                _assert_bitwise(
                    init_model_params(cfg, seed, zero_residual, extra),
                    _oracle_model(cfg, seed, zero_residual, extra))
            _assert_bitwise(
                init_block_params(np.random.default_rng(seed), cfg.hidden, cfg.heads,
                                  "blk", zero_residual),
                _oracle_block(np.random.default_rng(seed), cfg.hidden, "blk",
                              zero_residual))


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
