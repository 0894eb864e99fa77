"""Attention blocks: rotary properties, geometry invariants, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridcast.attention as attention
import gridcast.autodiff as ad
from gridcast.attention import (
    attention_plan,
    attention_weights,
    init_block_params,
    natten_block,
    rotary_tables,
)
from gridcast.autodiff import Tensor, backward
from gridcast.errors import ConfigError
from gridcast.grid import neighborhood

RNG = np.random.default_rng(777)
EXT = (2, 7, 10)  # (depth, rows, cols)
WIN = (1, 3, 3)
DIM, HEADS = 24, 4


def make_params(zero_residual=False, seed=0):
    rng = np.random.default_rng(seed)
    return init_block_params(rng, DIM, HEADS, "blk", zero_residual=zero_residual)


def run_block(x_np, params, ext=EXT, win=WIN):
    return natten_block(Tensor(x_np), params, "blk", ext, win, HEADS)


def rotate(x, cos, sin):
    """Rotate the feature pairs (x[..., i], x[..., i + dh/2]) by the phases."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


class TestRotary:
    def test_tables_shape(self):
        cos, sin = rotary_tables(EXT, 6)
        t = np.prod(EXT)
        assert cos.shape == (t, 1, 3) and sin.shape == (t, 1, 3)
        np.testing.assert_allclose(cos**2 + sin**2, 1.0, atol=1e-12)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            rotary_tables(EXT, 7)

    def test_tiny_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            rotary_tables(EXT, 4)

    def test_column_band_closes_exactly(self):
        # phase at col w and col w + W must match to machine precision
        d, h, w = 1, 1, 12
        cos, sin = rotary_tables((d, h, w), 6)
        # recompute with doubled width and compare col 0 vs col w == same phase?
        # closure means angle(w-1) + step wraps to angle(0) mod 2pi: check
        # cos/sin of (w) computed directly from the integer wavenumber formula
        pc = 1  # with 6 dims -> 3 pairs -> (1,1,1) split
        k = 1.0
        ang = 2 * np.pi * np.arange(w) * k / w
        np.testing.assert_allclose(cos[:, 0, 2], np.cos(ang), atol=1e-12)
        np.testing.assert_allclose(sin[:, 0, 2], np.sin(ang), atol=1e-12)

    def test_relative_offset_property(self):
        # <rot(q, p1), rot(k, p2)> depends only on p1 - p2 along each axis
        d, h, w = 1, 1, 16
        dh = 6
        cos, sin = rotary_tables((d, h, w), dh)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((1, 1, dh))
        k = rng.standard_normal((1, 1, dh))

        def dot_at(p1, p2):
            qq = np.repeat(q, w, axis=0)
            kk = np.repeat(k, w, axis=0)
            rq = rotate(qq, cos, sin)
            rk = rotate(kk, cos, sin)
            return float((rq[p1, 0] * rk[p2, 0]).sum())

        base = dot_at(5, 2)
        shifted = dot_at(9, 6)
        wrapped = dot_at(1, (1 - 3) % w)
        assert abs(base - shifted) < 1e-12
        assert abs(base - wrapped) < 1e-12

    def test_rotation_preserves_norm(self):
        cos, sin = rotary_tables(EXT, 8)
        x = RNG.standard_normal((np.prod(EXT), 2, 8))
        y = rotate(x, cos, sin)
        np.testing.assert_allclose(
            (y**2).sum(axis=-1), (x**2).sum(axis=-1), rtol=1e-12)


class TestBlockGeometry:
    def test_output_shape_and_param_names(self):
        params = make_params()
        assert list(params) == [f"blk.{s}" for s in (
            "ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
            "attn.wv", "attn.bv", "attn.wo", "attn.bo", "ln2.gain", "ln2.bias",
            "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")]
        x = RNG.standard_normal((np.prod(EXT), DIM))
        y = run_block(x, params)
        assert y.shape == x.shape

    def test_zero_residual_init_is_identity(self):
        params = make_params(zero_residual=True)
        x = RNG.standard_normal((np.prod(EXT), DIM))
        y = run_block(x, params)
        np.testing.assert_allclose(y.values, x, atol=1e-14)

    def test_softmax_rows_sum_to_one(self):
        params = make_params()
        x = RNG.standard_normal((np.prod(EXT), DIM))
        attn = attention_weights(x, params, "blk", EXT, WIN, HEADS)
        assert attn.shape == (np.prod(EXT), HEADS, np.prod(WIN))
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_full_cardinality(self):
        params = make_params()
        x = RNG.standard_normal((np.prod(EXT), DIM))
        attn = attention_weights(x, params, "blk", EXT, WIN, HEADS)
        # every key slot carries weight; none is masked away
        assert (attn > 0).all()

    def test_longitude_roll_equivariance(self):
        params = make_params(seed=3)
        d, h, w = EXT
        x = RNG.standard_normal((d, h, w, DIM))
        y = run_block(x.reshape(-1, DIM), params).values.reshape(d, h, w, DIM)
        for shift in (1, 3, w - 2):
            xs = np.roll(x, shift, axis=2)
            ys = run_block(xs.reshape(-1, DIM), params).values.reshape(d, h, w, DIM)
            np.testing.assert_allclose(ys, np.roll(y, shift, axis=2), atol=1e-9)

    def test_locality_radius(self):
        # a perturbation at an interior token moves outputs only within the
        # attention window radius per axis (cols measured on the circle)
        params = make_params(seed=5)
        d, h, w = 1, 9, 12
        win = (1, 3, 3)
        x = RNG.standard_normal((d * h * w, DIM))
        y0 = run_block(x, params, (d, h, w), win).values
        src_r, src_c = 4, 6
        x2 = x.copy()
        x2[src_r * w + src_c] += 1.0
        y1 = run_block(x2, params, (d, h, w), win).values
        changed = np.abs(y1 - y0).max(axis=1).reshape(h, w) > 1e-12
        rr, cc = np.nonzero(changed)
        assert changed[src_r, src_c]
        assert np.abs(rr - src_r).max() <= 1  # row radius
        dc = np.minimum(np.abs(cc - src_c), w - np.abs(cc - src_c))
        assert dc.max() <= 1  # col radius on the circle

    def test_window_must_fit(self):
        params = make_params()
        x = RNG.standard_normal((np.prod(EXT), DIM))
        with pytest.raises(ConfigError):
            natten_block(Tensor(x), params, "blk", EXT, (3, 3, 3), HEADS)  # depth 2 < 3

    def test_head_divisibility_enforced(self):
        params = make_params()
        x = RNG.standard_normal((np.prod(EXT), DIM))
        with pytest.raises(ConfigError):
            natten_block(Tensor(x), params, "blk", EXT, WIN, 5)


class TestBlockGradients:
    def test_finite_difference_all_params(self):
        ext, win = (2, 4, 6), (1, 3, 3)
        dim, heads = 12, 2
        rng = np.random.default_rng(12)
        params = init_block_params(rng, dim, heads, "blk", zero_residual=False)
        x = Tensor(rng.standard_normal((np.prod(ext), dim)), requires_grad=True)
        target = rng.standard_normal((np.prod(ext), dim))

        def loss_fn(xt):
            y = natten_block(xt, params, "blk", ext, win, heads)
            diff = y - Tensor(target)
            return (diff * diff).mean()

        leaves = [x] + [params[k] for k in sorted(params)]
        y = loss_fn(x)
        grads = backward(y, leaves=leaves)
        gvec = np.concatenate([grads[t].ravel() for t in leaves])

        base = [t.values.copy() for t in leaves]
        eps = 1e-5
        drng = np.random.default_rng(99)
        for _ in range(12):
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
                    out = loss_fn(leaves[0]).item()
                return out

            fd = (feval(+1) - feval(-1)) / (2 * eps)
            for t_, b in zip(leaves, base):
                t_.values = b
            an = float(gvec @ u)
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    def test_gradients_deterministic(self):
        def run():
            rng = np.random.default_rng(31)
            params = init_block_params(rng, DIM, HEADS, "blk", zero_residual=False)
            x = Tensor(rng.standard_normal((np.prod(EXT), DIM)), requires_grad=True)
            y = natten_block(x, params, "blk", EXT, WIN, HEADS)
            loss = (y * y).mean()
            grads = backward(loss, leaves=[x])
            return grads[x].tobytes()

        assert run() == run()


# ---------------------------------------------------------------------------
# the fused primitive against the composition it replaced
# ---------------------------------------------------------------------------

DESK_EXT, DESK_WIN, DESK_DIM, DESK_HEADS = (3, 5, 10), (3, 3, 3), 48, 4


def _oracle_rotary(x, cos, sin):
    half = x.shape[-1] // 2
    x1 = x[:, :, :half]
    x2 = x[:, :, half:]
    return ad.concat([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def _oracle_attention(q, k, v, extents, window, heads):
    """Attention core from tape ops: absolute rotary, take, transposes, matmuls.

    q, k, v are (T, dim) Tensors; returns the context (T, dim) and the
    weights (T, heads, 1, K).
    """
    t, dim = q.shape
    dh = dim // heads
    table = neighborhood(extents, window)
    cos_np, sin_np = rotary_tables(extents, dh)
    cos, sin = Tensor(cos_np, copy=False), Tensor(sin_np, copy=False)
    q = _oracle_rotary(q.reshape(t, heads, dh), cos, sin)
    k = _oracle_rotary(k.reshape(t, heads, dh), cos, sin)
    k_n = ad.take(k, table).transpose(0, 2, 1, 3)
    q4 = q.reshape(t, heads, 1, dh) * (1.0 / math.sqrt(dh))
    attn = ad.softmax(ad.matmul(q4, k_n.transpose(0, 1, 3, 2)), axis=-1)
    v_n = ad.take(v.reshape(t, heads, dh), table).transpose(0, 2, 1, 3)
    return ad.matmul(attn, v_n).reshape(t, dim), attn


def _oracle_block(x, params, prefix, extents, window, heads):
    def p(name):
        return params[f"{prefix}.{name}"]

    def linear(a, w, b):
        return ad.matmul(a, p(w)) + p(b)

    hn = ad.layernorm(x, p("ln1.gain"), p("ln1.bias"))
    ctx, _ = _oracle_attention(linear(hn, "attn.wq", "attn.bq"), linear(hn, "attn.wk", "attn.bk"),
                               linear(hn, "attn.wv", "attn.bv"), extents, window, heads)
    x = x + linear(ctx, "attn.wo", "attn.bo")
    hn2 = ad.layernorm(x, p("ln2.gain"), p("ln2.bias"))
    return x + linear(ad.gelu(linear(hn2, "mlp.w1", "mlp.b1")), "mlp.w2", "mlp.b2")


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _primitive(qkv, extents, window, heads):
    plan = attention_plan(extents, window, qkv.shape[1] // (3 * heads), heads)
    return ad.neighborhood_attention(qkv, plan, heads)


def _check_primitive_against_oracle(extents, window, heads, dh, seed):
    rng = np.random.default_rng(seed)
    t, dim = int(np.prod(extents)), heads * dh
    qkv_np = rng.standard_normal((t, 3 * dim))
    seed_out = rng.standard_normal((t, dim))
    qkv = Tensor(qkv_np, requires_grad=True)
    out = _primitive(qkv, extents, window, heads)
    got = backward(out, seed=seed_out, leaves=[qkv])[qkv]
    ref_in = Tensor(qkv_np, requires_grad=True)
    ref_out, ref_attn = _oracle_attention(ref_in[:, :dim], ref_in[:, dim:2 * dim],
                                          ref_in[:, 2 * dim:], extents, window, heads)
    weights = ref_attn.values.reshape(t, heads, -1)
    ref = backward(ref_out, seed=seed_out, leaves=[ref_in])[ref_in]
    assert _rel(out.values, ref_out.values) < 1e-13
    assert _rel(got, ref) < 1e-13
    shown = ad.neighborhood_weights(qkv_np, attention_plan(extents, window, dh, heads), heads)
    assert _rel(shown, weights) < 1e-13


class TestFusedPrimitive:
    def test_desk_geometry_matches_oracle(self):
        _check_primitive_against_oracle(DESK_EXT, DESK_WIN, DESK_HEADS, DESK_DIM // DESK_HEADS, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(2, 8), st.data(),
           st.integers(1, 3), st.sampled_from([6, 8, 12]))
    def test_random_geometries_match_oracle(self, d, h, w, data, heads, dh):
        # small extents make the depth and row windows bump at both ends and
        # the column window wrap, so boundary tokens get duplicate neighbors
        window = (data.draw(st.integers(1, d)), data.draw(st.integers(1, h)),
                  data.draw(st.integers(1, w)))
        _check_primitive_against_oracle((d, h, w), window, heads, dh, d * 100 + h * 10 + w)

    def test_desk_block_matches_oracle(self):
        rng = np.random.default_rng(1)
        params = init_block_params(rng, DESK_DIM, DESK_HEADS, "blk", zero_residual=False)
        x_np = rng.standard_normal((int(np.prod(DESK_EXT)), DESK_DIM))
        seed_out = rng.standard_normal(x_np.shape)
        leaves = [params[k] for k in sorted(params)]

        def grads(block):
            x = Tensor(x_np, requires_grad=True)
            y = block(x, params, "blk", DESK_EXT, DESK_WIN, DESK_HEADS)
            g = backward(y, seed=seed_out, leaves=[x] + leaves)
            return y.values, [g[x]] + [g[p] for p in leaves]

        y, got = grads(natten_block)
        y_ref, ref = grads(_oracle_block)
        assert _rel(y, y_ref) < 1e-13
        for name, a, b in zip(["x"] + sorted(params), got, ref):
            assert _rel(a, b) < 1e-13, name

    def test_central_difference(self):
        ext, win, heads, dh = (2, 3, 5), (2, 3, 3), 2, 6
        rng = np.random.default_rng(2)
        t, dim = int(np.prod(ext)), heads * dh
        qkv = Tensor(rng.standard_normal((t, 3 * dim)), requires_grad=True)
        weight = Tensor(rng.standard_normal((t, dim)))
        g = backward((_primitive(qkv, ext, win, heads) * weight).sum(), leaves=[qkv])[qkv]
        eps = 1e-6
        for _ in range(8):
            u = rng.standard_normal(qkv.shape)
            u /= np.linalg.norm(u)
            with ad.no_grad():
                f = [(_primitive(Tensor(qkv.values + s * eps * u), ext, win, heads)
                      * weight).sum().item() for s in (1.0, -1.0)]
            fd = (f[0] - f[1]) / (2 * eps)
            an = float((g * u).sum())
            assert abs(fd - an) <= 1e-7 * max(abs(fd), abs(an), 1e-8)

    def test_inverse_table_lists_every_window_position_in_order(self):
        # bumped depth and row windows put boundary tokens in more windows
        # than a token has neighbors; backward sums over exactly these lists
        plan = attention_plan((3, 5, 6), (3, 3, 3), 6, 1)
        table, inv = plan.table, plan.backward().inverse
        t, k = table.shape
        counts = np.bincount(table.ravel(), minlength=t)
        assert counts.max() > k and inv.shape == (t, counts.max())
        for n in range(t):
            held = inv[n][inv[n] < t * k]
            assert held.tolist() == np.flatnonzero(table.ravel() == n).tolist()
            assert (inv[n][counts[n]:] == t * k).all()

    def test_only_a_recorded_forward_builds_the_backward_tables(self, monkeypatch):
        # the random geometries above stay under 9 columns, so this plan is fresh
        ext, win, heads = (2, 3, 9), (1, 3, 5), 2
        built, build = [], attention._backward_plan
        monkeypatch.setattr(attention, "_backward_plan", lambda *a: built.append(a) or build(*a))
        qkv = Tensor(RNG.standard_normal((54, 36)), requires_grad=True)
        with ad.no_grad():
            _primitive(qkv, ext, win, heads)
        assert built == []
        y = _primitive(qkv, ext, win, heads)
        assert len(built) == 1
        backward(y.sum(), leaves=[qkv])
        _primitive(qkv, ext, win, heads)
        assert len(built) == 1

    def test_bad_inputs_raise_shape_error(self):
        qkv = Tensor(RNG.standard_normal((6, 36)))
        plan = attention_plan((1, 2, 3), (1, 1, 3), 6, 2)
        with pytest.raises(ad.ShapeError):
            ad.neighborhood_attention(qkv, plan, 5)  # 36 not 3 * 5 * 6
        with pytest.raises(ad.ShapeError):
            ad.neighborhood_weights(qkv.values[:5], plan, 2)  # 5 tokens, plan has 6

    @pytest.mark.parametrize("window, head_dim", [((1, 3, 1), 6), ((1, 1, 4), 6),
                                                   ((1, 1, 3), 7), ((1, 1, 3), 4)])
    def test_bad_geometry_raises_config_error_while_the_plan_is_built(self, window, head_dim):
        with pytest.raises(ConfigError):
            attention_plan((1, 2, 3), window, head_dim, 1)

    def test_plan_is_built_once_read_only_and_sorts_nothing_in_backward(self, monkeypatch):
        plan = attention_plan(DESK_EXT, DESK_WIN, DESK_DIM // DESK_HEADS, DESK_HEADS)
        assert attention_plan(DESK_EXT, DESK_WIN, DESK_DIM // DESK_HEADS, DESK_HEADS) is plan
        for name, arr in {**plan._asdict(), **plan.backward()._asdict()}.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.flat[0] = 0
        params = init_block_params(np.random.default_rng(5), DESK_DIM, DESK_HEADS, "blk",
                                   zero_residual=False)
        x = Tensor(RNG.standard_normal((int(np.prod(DESK_EXT)), DESK_DIM)), requires_grad=True)
        y = natten_block(x, params, "blk", DESK_EXT, DESK_WIN, DESK_HEADS)

        def no_sort(*args, **kwargs):
            raise AssertionError("backward sorted an index table")
        monkeypatch.setattr(np, "argsort", no_sort)
        assert backward(y.sum(), leaves=[x])[x].shape == x.shape


class TestFusedBlock:
    def test_longitude_roll_equivariance_is_bitwise(self):
        params = init_block_params(np.random.default_rng(4), DESK_DIM, DESK_HEADS, "blk",
                                   zero_residual=False)
        d, h, w = DESK_EXT
        x = RNG.standard_normal((d, h, w, DESK_DIM))

        def run(arr):
            y = natten_block(Tensor(arr.reshape(-1, DESK_DIM)), params, "blk", DESK_EXT,
                             DESK_WIN, DESK_HEADS)
            return y.values.reshape(d, h, w, DESK_DIM)

        y = run(x)
        for shift in (1, 4, w - 1):
            assert run(np.roll(x, shift, axis=2)).tobytes() == np.roll(y, shift, axis=2).tobytes()

    def test_desk_processor_block_tape_is_smaller(self):
        # the composed block recorded 51 nodes pinning 4,918,776 B; now gelu
        # saves its derivative alone, and the wo, w1, w2 and ln-gain values
        # that nodes save are parameter slots' values, which meter nothing
        params = init_block_params(np.random.default_rng(0), DESK_DIM, DESK_HEADS, "proc6.blk0",
                                   zero_residual=False)
        x = Tensor(RNG.standard_normal((int(np.prod(DESK_EXT)), DESK_DIM)), requires_grad=True)
        ad.reset_tape_stats()
        natten_block(x, params, "proc6.blk0", DESK_EXT, DESK_WIN, DESK_HEADS)
        stats = ad.tape_stats()
        assert (stats.nodes_created, stats.saved_bytes_current) == (16, 1_224_096)
