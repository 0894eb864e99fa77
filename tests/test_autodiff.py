"""Tensor core: forward oracles, gradient checks, tape discipline."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gridcast.autodiff as ad
from gridcast.autodiff import (
    GraphError,
    ShapeError,
    Tensor,
    backward,
    checkpoint_segment,
)

RNG = np.random.default_rng(20240811)


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def fd_check(fn, tensors, rel_tol=1e-4, eps=1e-5, n_dirs=8, seed=0):
    """Directional finite differences against reverse-mode gradients.

    fn maps the tensors to a scalar Tensor.  For each random unit direction
    u over all inputs jointly, compares <grad, u> with the central
    difference (f(x+eps u) - f(x-eps u)) / 2 eps at relative tolerance.
    """
    rng = np.random.default_rng(seed)
    base = [x.values.copy() for x in tensors]
    y = fn(*tensors)
    grads = backward(y, leaves=tensors)
    gvec = np.concatenate([grads[x].ravel() for x in tensors])

    for _ in range(n_dirs):
        u = rng.standard_normal(gvec.size)
        u /= np.linalg.norm(u)
        parts = []
        off = 0
        for b in base:
            parts.append(u[off:off + b.size].reshape(b.shape))
            off += b.size

        def feval(sign):
            pts = [Tensor(b + sign * eps * p) for b, p in zip(base, parts)]
            with ad.no_grad():
                return fn(*pts).item()

        fd = (feval(+1.0) - feval(-1.0)) / (2.0 * eps)
        an = float(gvec @ u)
        assert abs(fd - an) <= rel_tol * max(abs(fd), abs(an), 1e-8), (
            f"directional derivative mismatch: fd={fd:.10g} analytic={an:.10g}")


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

@st.composite
def _geometries(draw):
    """2-D conv geometries, one stride shared by both axes."""
    s = draw(st.sampled_from((1, 2)))
    extents, kernel, stride, pads, wrap = [], [], [], [], []
    for _ in range(2):
        w = draw(st.booleans())
        e = draw(st.integers(1, 5)) * s if w else draw(st.integers(1, 9))
        p = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        k = draw(st.integers(1, 4))
        assume(w or e + p[0] + p[1] >= k)
        extents.append(e)
        kernel.append(k)
        stride.append(s)
        pads.append(p)
        wrap.append(w)
    return tuple(extents), tuple(kernel), tuple(stride), tuple(pads), tuple(wrap)


class TestForward:
    def test_add_mul_broadcast(self):
        a = t(RNG.standard_normal((3, 1, 4)))
        b = t(RNG.standard_normal((2, 4)))
        np.testing.assert_array_equal((a + b).values, a.values + b.values)
        np.testing.assert_array_equal((a * b).values, a.values * b.values)

    def test_matmul_batched(self):
        a = t(RNG.standard_normal((5, 2, 3)))
        b = t(RNG.standard_normal((5, 3, 4)))
        np.testing.assert_array_equal(ad.matmul(a, b).values, a.values @ b.values)

    def test_gelu_known_points(self):
        # gelu(0) = 0; gelu(x) -> x for large x; gelu(-x) = x*Phi(-x) symmetry
        x = t([0.0, 10.0, -10.0, 1.0])
        y = ad.gelu(x).values
        assert y[0] == 0.0
        assert abs(y[1] - 10.0) < 1e-12
        assert abs(y[2]) < 1e-12
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(y[3] - phi1) < 1e-15

    def test_softmax_rows(self):
        x = t(RNG.standard_normal((6, 9)))
        p = ad.softmax(x, axis=-1).values
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p > 0).all()
        # shift invariance along the softmax axis
        q = ad.softmax(t(x.values + 123.0), axis=-1).values
        np.testing.assert_allclose(p, q, atol=1e-12)

    def test_layernorm_moments(self):
        x = t(RNG.standard_normal((4, 16)))
        g = t(np.ones(16))
        b = t(np.zeros(16))
        y = ad.layernorm(x, g, b).values
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_take_gather(self):
        x = t(RNG.standard_normal((7, 3)))
        idx = np.array([[0, 6], [2, 2]])
        y = ad.take(x, idx)
        assert y.shape == (2, 2, 3)
        np.testing.assert_array_equal(y.values, x.values[idx])
        with pytest.raises(ShapeError):
            ad.take(x, np.array([7]))

    def test_conv2d_delta_kernel_identity(self):
        # 1x1-centered delta kernel with wrap reproduces the input
        x = t(RNG.standard_normal((2, 6, 8)))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        y = ad.conv(x, t(w), stride=1, pads=[(1, 1), (0, 0)], wrap=(False, True))
        np.testing.assert_array_equal(y.values, x.values)

    def test_conv2d_direct_summation_oracle(self):
        # wrap on the last axis, zero pad on the first
        c_in, c_out, h, wd, k = 3, 4, 5, 6, 3
        x = RNG.standard_normal((c_in, h, wd))
        w = RNG.standard_normal((c_out, c_in, k, k))
        b = RNG.standard_normal(c_out)
        y = ad.conv(t(x), t(w), t(b), stride=1, pads=[(1, 1), (0, 0)],
                    wrap=(False, True)).values
        ref = np.zeros((c_out, h, wd))
        for co in range(c_out):
            ref[co] = b[co]
            for ci in range(c_in):
                for i in range(h):
                    for j in range(wd):
                        for di in range(k):
                            for dj in range(k):
                                si = i + di - 1
                                sj = (j + dj - 1) % wd
                                if 0 <= si < h:
                                    ref[co, i, j] += w[co, ci, di, dj] * x[ci, si, sj]
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_conv2d_strided_shapes(self):
        x = t(RNG.standard_normal((1, 8, 12)))
        w = t(RNG.standard_normal((5, 1, 3, 3)))
        y = ad.conv(x, w, stride=2, pads=[(1, 1), (0, 0)], wrap=(False, True))
        assert y.shape == (5, 4, 6)

    @settings(max_examples=60, deadline=None)
    @given(_geometries(), st.integers(0, 2 ** 31))
    @example(((6, 8), (4, 4), (2, 2), ((1, 1), (0, 0)), (False, True)), 0)
    @example(((5, 5), (3, 3), (1, 1), ((1, 1), (1, 1)), (False, False)), 0)
    @example(((6, 8), (3, 3), (2, 2), ((0, 0), (0, 0)), (True, True)), 0)
    def test_conv_transpose_is_adjoint(self, key, seed):
        # <conv(x), y> == <x, conv_transpose(y)> for every geometry tested
        extents, kernel, stride, pads, wrap = key
        rng = np.random.default_rng(seed)
        c1, c2 = 3, 2
        xb = rng.standard_normal((c1,) + extents)
        wf = rng.standard_normal((c2, c1) + kernel)
        y = ad.conv(t(xb), t(wf), stride=stride, pads=pads, wrap=wrap).values
        ys = rng.standard_normal(y.shape)
        # weight for the transpose carries (C_in, C_out, *K) = (c2, c1, *K)
        xt = ad.conv_transpose(t(ys), t(wf), stride=stride, pads=pads, wrap=wrap,
                               out_extents=extents).values
        lhs = float((y * ys).sum())
        rhs = float((xb * xt).sum())
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs)), key

    def test_conv_wrap_stride_divisibility(self):
        x = t(RNG.standard_normal((1, 4, 7)))
        w = t(RNG.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            ad.conv(x, w, stride=2, pads=[(1, 1), (0, 0)], wrap=(False, True))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.matmul(t(RNG.standard_normal((2, 3))), t(RNG.standard_normal((4, 2))))
        with pytest.raises(ShapeError):
            ad.concat([], axis=0)
        with pytest.raises(ShapeError):
            t(np.ones((2, 2))).reshape(5)
        with pytest.raises(ShapeError):  # neither (C, H, W) nor (B, C, H, W)
            ad.conv(t(np.ones((1, 2, 3, 4, 5))), t(np.ones((1, 3, 3, 3))))
        with pytest.raises(ShapeError):  # convs are 2-D only
            ad.conv(t(np.ones((2, 3, 6, 8))), t(np.ones((4, 2, 3, 3, 3))))
        with pytest.raises(ShapeError):  # one stride shared by both axes
            ad.conv(t(np.ones((1, 6, 8))), t(np.ones((1, 1, 3, 3))), stride=(1, 2))


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

class TestGradients:
    def test_add_mul(self):
        a, b = t(RNG.standard_normal((3, 4))), t(RNG.standard_normal((4,)))
        fd_check(lambda x, y: ((x * y) + x).sum(), [a, b])

    def test_matmul(self):
        a, b = t(RNG.standard_normal((3, 4))), t(RNG.standard_normal((4, 2)))
        fd_check(lambda x, y: (ad.matmul(x, y) * ad.matmul(x, y)).sum(), [a, b])

    def test_gelu(self):
        x = t(RNG.standard_normal(40))
        fd_check(lambda v: (ad.gelu(v) * ad.gelu(v)).sum(), [x])

    def test_softmax(self):
        x = t(RNG.standard_normal((5, 7)))
        c = RNG.standard_normal((5, 7))
        fd_check(lambda v: (ad.softmax(v, axis=-1) * Tensor(c)).sum(), [x])

    def test_layernorm(self):
        x = t(RNG.standard_normal((3, 8)))
        g = t(RNG.standard_normal(8))
        b = t(RNG.standard_normal(8))
        c = RNG.standard_normal((3, 8))
        fd_check(lambda xx, gg, bb: (ad.layernorm(xx, gg, bb) * Tensor(c)).sum(),
                 [x, g, b])

    def test_reductions_views(self):
        x = t(RNG.standard_normal((4, 5, 2)))
        fd_check(lambda v: v.mean(axis=(0, 2)).sum(), [x])
        fd_check(lambda v: (v.transpose(2, 0, 1).reshape(8, 5) * 3.0).sum(), [x])
        fd_check(lambda v: v[1:3, ::2].sum(), [x])

    def test_concat_take(self):
        a, b = t(RNG.standard_normal((2, 3))), t(RNG.standard_normal((4, 3)))
        fd_check(lambda x, y: (ad.concat([x, y], axis=0) ** 2 if False else
                               (ad.concat([x, y], axis=0) * ad.concat([x, y], axis=0))).sum(),
                 [a, b])
        x = t(RNG.standard_normal((5, 3)))
        idx = np.array([[0, 4, 2], [2, 2, 1]])
        fd_check(lambda v: (ad.take(v, idx) * ad.take(v, idx)).sum(), [x])

    def test_conv2d(self):
        x = t(RNG.standard_normal((2, 5, 6)))
        w = t(RNG.standard_normal((3, 2, 3, 3)))
        b = t(RNG.standard_normal(3))

        def f(xx, ww, bb):
            y = ad.conv(xx, ww, bb, stride=1, pads=[(1, 1), (0, 0)], wrap=(False, True))
            return (y * y).sum()

        fd_check(f, [x, w, b])

    def test_conv2d_strided(self):
        x = t(RNG.standard_normal((2, 6, 8)))
        w = t(RNG.standard_normal((3, 2, 4, 4)))

        def f(xx, ww):
            y = ad.conv(xx, ww, stride=2, pads=[(1, 1), (0, 0)], wrap=(False, True))
            return (y * y).sum()

        fd_check(f, [x, w])

    def test_conv_transpose(self):
        x = t(RNG.standard_normal((3, 3, 4)))
        w = t(RNG.standard_normal((3, 2, 4, 4)))
        b = t(RNG.standard_normal(2))

        def f(xx, ww, bb):
            y = ad.conv_transpose(xx, ww, bb, stride=2, pads=[(1, 1), (0, 0)],
                                  wrap=(False, True), out_extents=(6, 8))
            return (y * y).sum()

        fd_check(f, [x, w, b])

    def test_disconnected_leaf_gets_zeros(self):
        a = t(RNG.standard_normal((2, 2)))
        b = t(RNG.standard_normal((3,)))
        y = (a * a).sum()
        grads = backward(y, leaves=[a, b])
        assert grads[b].shape == (3,)
        assert (grads[b] == 0).all()
        np.testing.assert_allclose(grads[a], 2 * a.values, atol=1e-14)

    def test_grad_accumulates_across_reuse(self):
        a = t(np.array([2.0]))
        y = (a * a * a).sum()  # d/da a^3 = 3a^2
        grads = backward(y)
        np.testing.assert_allclose(grads[a], [12.0], atol=1e-12)


# ---------------------------------------------------------------------------
# tape discipline
# ---------------------------------------------------------------------------

class TestTape:
    def test_backward_rejects_nonscalar_root(self):
        a = t(RNG.standard_normal((2, 2)))
        with pytest.raises(GraphError):
            backward(a * a)

    def test_backward_rejects_repeat(self):
        a = t(RNG.standard_normal(3))
        y = (a * a).sum()
        backward(y)
        with pytest.raises(GraphError):
            backward(y)

    def test_backward_rejects_shared_consumed_subgraph(self):
        a = t(RNG.standard_normal(3))
        h = a * a
        y1 = h.sum()
        y2 = (h * h).sum()
        backward(y2)
        with pytest.raises(GraphError):
            backward(y1)

    def test_swept_graph_frees_while_root_lives(self):
        # reference counting alone reclaims the interior once backward has swept it
        a = t(RNG.standard_normal(3))
        h = ad.gelu(a * a)
        interior = weakref.ref(h)
        y = (h * ad.softmax(h)).sum()
        del h
        gc.disable()
        try:
            backward(y)
            assert interior() is None
        finally:
            gc.enable()
        assert y.node.consumed  # the root itself is still alive

    def test_residual_sum_frees_the_conv_output(self):
        # a node holds its parents' slots, not their tensors, and no rule of
        # x + conv(h) reads the conv output, so it frees as soon as it is dropped
        x = t(RNG.standard_normal((2, 5, 6)))
        h = t(RNG.standard_normal((3, 5, 6)))
        w = t(RNG.standard_normal((2, 3, 3, 3)))
        gc.disable()
        try:
            c = ad.conv(h, w, pads=((1, 1), (1, 1)))
            refs = weakref.ref(c), weakref.ref(c.values)
            y = x + c
            del c
            assert all(r() is None for r in refs)
        finally:
            gc.enable()
        assert y.node is not None
        grads = backward(y.sum(), leaves=[x, h, w])
        assert grads[x].tobytes() == np.ones(x.shape).tobytes()

    def test_product_with_a_constant_keeps_only_the_constant(self):
        # each side of a product saves the other side's values only if that
        # side wants a gradient: 2 * gelu(a) pins the 2, not gelu's output
        a = t(RNG.standard_normal((4, 3)))
        ad.reset_tape_stats()
        h = ad.gelu(a)
        ref = weakref.ref(h.values)
        y = h * 2.0
        del h
        assert ref() is None
        assert ad.tape_stats().saved_bytes_current == a.nbytes + 8  # gelu's derivative, the 2
        grads = backward(y.sum(), leaves=[a])
        assert np.isfinite(grads[a]).all()

    def test_a_buffer_saved_twice_is_metered_once(self):
        # d * d saves d's values for each side; the meter counts the buffer once
        a = t(RNG.standard_normal((4, 3)))
        ad.reset_tape_stats()
        d = ad.gelu(a)
        y = d * d
        stats = ad.tape_stats()
        assert (stats.saved_current, stats.saved_bytes_current) == (2, 2 * d.nbytes)  # and gelu's
        backward(y.sum(), leaves=[a])
        assert (stats.saved_current, stats.saved_bytes_current) == (0, 0)

    def test_a_matmul_against_a_parameter_meters_no_parameter_bytes(self):
        # the node holds the parameter as its slot; only x's values are the graph's
        w = t(RNG.standard_normal((3, 5)))
        x = t(RNG.standard_normal((4, 3))).reshape(4, 3)  # an intermediate that saves nothing
        ad.reset_tape_stats()
        y = ad.matmul(x, w)
        stats = ad.tape_stats()
        assert (stats.saved_current, stats.saved_bytes_current) == (2, x.nbytes)
        backward(y.sum(), leaves=[w])
        assert (stats.saved_current, stats.saved_bytes_current, stats.saved_bytes_peak) == \
            (0, 0, x.nbytes)

    def test_no_grad_builds_no_tape(self):
        a = t(RNG.standard_normal(3))
        with ad.no_grad():
            y = (a * a).sum()
        assert y.node is None
        assert not y.requires_grad

    def test_seeded_vector_backward(self):
        a = t(RNG.standard_normal((2, 3)))
        y = a * 2.0
        seed = RNG.standard_normal((2, 3))
        grads = backward(y, seed=seed)
        np.testing.assert_allclose(grads[a], 2.0 * seed, atol=1e-14)

    def test_tensor_owns_buffer(self):
        buf = np.ones((2, 2))
        x = Tensor(buf)
        buf[0, 0] = 99.0
        assert x.values[0, 0] == 1.0
        v = Tensor(buf[:, 0])
        assert v.values.base is None


# ---------------------------------------------------------------------------
# checkpoint segments
# ---------------------------------------------------------------------------

def _mlp_segment(p1, p2):
    def seg(z):
        h = ad.gelu(ad.matmul(z, p1))
        return ad.matmul(h, p2)
    return seg


class TestCheckpoint:
    def test_bitwise_forward_and_grads(self):
        p1 = t(RNG.standard_normal((6, 6)))
        p2 = t(RNG.standard_normal((6, 6)))
        x = t(RNG.standard_normal((4, 6)))
        seg = _mlp_segment(p1, p2)

        y_plain = seg(seg(x)).sum()
        g_plain = backward(y_plain, leaves=[x, p1, p2])

        y_ck = checkpoint_segment(seg, checkpoint_segment(seg, x)).sum()
        g_ck = backward(y_ck, leaves=[x, p1, p2])

        assert y_plain.values.tobytes() == y_ck.values.tobytes()
        for k in (x, p1, p2):
            assert g_plain[k].tobytes() == g_ck[k].tobytes()

    def test_saved_count_drops(self):
        p1 = t(RNG.standard_normal((6, 6)))
        p2 = t(RNG.standard_normal((6, 6)))
        seg = _mlp_segment(p1, p2)

        ad.reset_tape_stats()
        x = t(RNG.standard_normal((4, 6)))
        y = seg(seg(seg(x)))
        plain_saved = ad.tape_stats().saved_current
        backward(y.sum())

        ad.reset_tape_stats()
        x = t(RNG.standard_normal((4, 6)))
        z = x
        for _ in range(3):
            z = checkpoint_segment(seg, z)
        ck_saved = ad.tape_stats().saved_current
        backward(z.sum())

        assert ck_saved == 3  # one pinned input per segment
        assert ck_saved < plain_saved

    def test_param_grads_route_through(self):
        p1 = t(RNG.standard_normal((5, 5)))
        p2 = t(RNG.standard_normal((5, 5)))
        x = t(RNG.standard_normal((2, 5)), grad=False)
        seg = _mlp_segment(p1, p2)
        y = checkpoint_segment(seg, x).sum()
        grads = backward(y, leaves=[p1, p2])
        assert grads[p1].shape == (5, 5)
        assert float(np.abs(grads[p1]).sum()) > 0

    def test_identity_segment(self):
        x = t(RNG.standard_normal(4))
        y = checkpoint_segment(lambda z: z, x).sum()
        grads = backward(y, leaves=[x])
        np.testing.assert_array_equal(grads[x], np.ones(4))

    def test_nonleaf_capture_rejected(self):
        p = t(RNG.standard_normal((3, 3)))
        hidden = ad.gelu(p)  # non-leaf with history
        x = t(RNG.standard_normal((2, 3)))
        y = checkpoint_segment(lambda z: ad.matmul(z, hidden), x).sum()
        with pytest.raises(GraphError):
            backward(y)

    def test_no_grad_checkpoint_passthrough(self):
        p1 = t(RNG.standard_normal((4, 4)))
        p2 = t(RNG.standard_normal((4, 4)))
        x = t(RNG.standard_normal((2, 4)))
        seg = _mlp_segment(p1, p2)
        with ad.no_grad():
            y = checkpoint_segment(seg, x)
        assert y.node is None


# ---------------------------------------------------------------------------
# determinism and property tests
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_repeat_run_bitwise(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((3, 16)), requires_grad=True)
            w = Tensor(rng.standard_normal((16, 16)), requires_grad=True)
            g = Tensor(np.ones(16), requires_grad=True)
            b = Tensor(np.zeros(16), requires_grad=True)
            y = ad.layernorm(ad.gelu(ad.matmul(x, w)), g, b)
            loss = (y * y).mean()
            grads = backward(loss, leaves=[x, w, g, b])
            return loss.values.tobytes() + b"".join(grads[k].tobytes() for k in (x, w, g, b))

        assert run() == run()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9))
def test_softmax_rows_sum_to_one(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    p = ad.softmax(Tensor(rng.standard_normal((rows, cols)) * 10), axis=-1).values
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 12))
def test_layernorm_shift_invariant(rows, d):
    rng = np.random.default_rng(rows * 1000 + d)
    x = rng.standard_normal((rows, d))
    g = Tensor(rng.standard_normal(d))
    b = Tensor(rng.standard_normal(d))
    y1 = ad.layernorm(Tensor(x), g, b).values
    y2 = ad.layernorm(Tensor(x + 7.5), g, b).values
    assert np.abs(y1 - y2).max() < 1e-9


# ---------------------------------------------------------------------------
# conv against a reference gather and np.add.at scatter
# ---------------------------------------------------------------------------

def _ref_taps(key):
    """Broadcastable per-axis tap grids and bool mask over (out..., k...).

    Straight from the conv definition: tap k of output o reads position
    o*stride + k - lead, modulo the extent on a wrapped axis (lead centres
    the taps) and masked outside it otherwise (lead is the leading pad).
    """
    extents, kernel, stride, pads, wrap = key
    n = len(extents)
    outs, grids, mask = [], [], True
    for i in range(n):
        e, k, s = extents[i], kernel[i], stride[i]
        if wrap[i]:
            o, lead = e // s, (k - 1) // 2
        else:
            o, lead = (e + sum(pads[i]) - k) // s + 1, pads[i][0]
        pos = np.arange(o)[:, None] * s + np.arange(k) - lead
        valid = np.ones(pos.shape, bool) if wrap[i] else (pos >= 0) & (pos < e)
        shape = [1] * (2 * n)
        shape[i], shape[n + i] = o, k
        outs.append(o)
        grids.append((pos % e).reshape(shape))
        mask = mask & valid.reshape(shape)
    return outs, grids, mask


def _ref_gather(xv, key):
    """(C*K, P) columns: row c*K + k holds tap k of channel c."""
    outs, grids, mask = _ref_taps(key)
    n = len(outs)
    # np.where, not * mask: a masked tap is +0.0, as a zero pad is, while
    # x * 0.0 is -0.0 for negative x
    patches = np.where(mask, xv[(slice(None),) + tuple(grids)], 0.0)  # (C, out..., k...)
    perm = (0,) + tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
    return np.ascontiguousarray(patches.transpose(perm).reshape(xv.shape[0] * math.prod(key[1]), -1))


def _ref_scatter(gcols, c_in, key):
    outs, grids, mask = _ref_taps(key)
    n = len(outs)
    vals = gcols.reshape((c_in,) + tuple(key[1]) + tuple(outs))
    perm = (0,) + tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
    vals = np.where(mask, vals.transpose(perm), 0.0)  # (C, out..., k...)
    gx = np.zeros((c_in,) + tuple(key[0]))
    ch = np.arange(c_in).reshape((c_in,) + (1,) * (2 * n))
    np.add.at(gx, (ch,) + tuple(grids), vals)  # in (c, p, k) order
    return gx


def _assert_close(got, ref, what):
    scale = max(np.abs(ref).max(initial=0.0), np.finfo(float).tiny)
    assert got.shape == ref.shape and np.abs(got - ref).max(initial=0.0) <= 1e-12 * scale, what


@settings(max_examples=60, deadline=None)
@given(_geometries(), st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 31))
@example(((40, 80), (3, 3), (1, 1), ((1, 1), (0, 0)), (False, True)), 3, False, 0)  # res block
@example(((40, 80), (3, 3), (2, 2), ((1, 1), (0, 0)), (False, True)), 3, False, 0)  # down conv
@example(((40, 80), (4, 4), (2, 2), ((1, 1), (0, 0)), (False, True)), 3, False, 0)  # up, as conv
@example(((40, 80), (4, 4), (2, 2), ((1, 1), (0, 0)), (False, True)), 3, True, 0)  # up conv
@example(((1, 2), (2, 2), (1, 1), ((0, 0), (0, 0)), (True, True)), 1, False, 0)  # kernel > wrapped extent
def test_conv_matches_reference(key, c_in, transposed, seed):
    """conv and conv_transpose against the column matrix of the conv definition.

    With cols = _ref_gather(x) and wmat = w as (C_out, C_in*K), conv is
    wmat @ cols + b; its input gradient is _ref_scatter(wmat.T @ g) and its
    weight gradient g @ cols.T.  conv_transpose is that input map, so the
    roles swap.  This catches a tap that reads the wrong cell, which the
    adjoint, finite-difference and batch tests cannot: they only compare
    the code with itself.
    """
    extents, kernel, stride, pads, wrap = key
    outs = tuple(_ref_taps(key)[0])
    rng = np.random.default_rng(seed)
    c_out = 2
    wv = rng.standard_normal((c_out, c_in) + kernel)
    wmat = wv.reshape(c_out, -1)
    big, small = rng.standard_normal((c_in,) + extents), rng.standard_normal((c_out,) + outs)
    cols = _ref_gather(big, key)
    gathered = (wmat @ cols).reshape(small.shape)
    scattered = _ref_scatter(wmat.T @ small.reshape(c_out, -1), c_in, key)
    ref_gw = small.reshape(c_out, -1) @ cols.T
    geo = dict(stride=stride, pads=pads, wrap=wrap)
    if transposed:  # small -> big, the weight read as (C_in, C_out, *K) = (c_out, c_in, *K)
        bv = rng.standard_normal(c_in)
        xt, wt, g = t(small), t(wv), big
        y = ad.conv_transpose(xt, wt, t(bv), out_extents=extents, **geo)
        ref_y, ref_gx = scattered + bv[:, None, None], gathered
    else:
        bv = rng.standard_normal(c_out)
        xt, wt, g = t(big), t(wv), small
        y = ad.conv(xt, wt, t(bv), **geo)
        ref_y, ref_gx = gathered + bv[:, None, None], scattered
    grads = backward(y, seed=g, leaves=[xt, wt])
    _assert_close(y.values, ref_y, ("output", key))
    _assert_close(grads[xt], ref_gx, ("input grad", key))
    _assert_close(grads[wt], ref_gw.reshape(wv.shape), ("weight grad", key))


def _batch_vs_loop(op, x_batch, w, b, seed, **geo):
    """op over a batch and over its entries one at a time, differentiated alike.

    Returns (batched, looped) tuples of output, input gradient, weight
    gradient and bias gradient.  The looped gradients are what backward sums
    over the B unbatched nodes, reached newest first.
    """
    runs = []
    for batched in (True, False):
        xt, wt, bt = t(x_batch), t(w), t(b)
        if batched:
            y = op(xt, wt, bt, **geo)
            grads = backward(y, seed=seed)
            gx = grads[xt]
        else:
            parts = [t(xi) for xi in x_batch]
            ys = [op(p, wt, bt, **geo) for p in parts]
            y = ad.concat([yi.reshape((1,) + yi.shape) for yi in ys])
            grads = backward(y, seed=seed)
            gx = np.stack([grads[p] for p in parts])
        runs.append((y.values, gx, grads[wt], grads[bt]))
    return runs


@settings(max_examples=40, deadline=None)
@given(_geometries(), st.integers(1, 3), st.integers(0, 2 ** 31))
@example(((6, 8), (3, 3), (2, 2), ((1, 1), (0, 0)), (False, True)), 3, 0)
def test_batched_conv_matches_unbatched_loop(key, batch, seed):
    extents, kernel, stride, pads, wrap = key
    rng = np.random.default_rng(seed)
    c1, c2 = 3, 2
    geo = dict(stride=stride, pads=pads, wrap=wrap)
    wf = rng.standard_normal((c2, c1) + kernel)
    outs = tuple(_ref_taps(key)[0])
    cases = [
        (ad.conv, rng.standard_normal((batch, c1) + extents), rng.standard_normal(c2),
         rng.standard_normal((batch, c2) + outs), geo),
        # the transpose's weight is (C_in, C_out, *K) = (c2, c1, *K)
        (ad.conv_transpose, rng.standard_normal((batch, c2) + outs), rng.standard_normal(c1),
         rng.standard_normal((batch, c1) + extents), dict(geo, out_extents=extents)),
    ]
    for op, xb, bias, gy, kw in cases:
        got, want = _batch_vs_loop(op, xb, wf, bias, gy, **kw)
        for name, a, b in zip(("output", "input grad", "weight grad", "bias grad"), got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (op.__name__, name, key)


@pytest.mark.parametrize("idx", [np.random.default_rng(3).integers(0, 5, (6, 7)),
                                 np.zeros((0, 2), dtype=np.int64)],
                         ids=["repeated", "empty"])
def test_take_backward_bitwise_vs_add_at(idx):
    # about eight rows land on each of the five; their magnitudes span 16
    # decades, so any other summation order rounds differently
    rng = np.random.default_rng(4)
    x = t(rng.standard_normal((5, 2, 3)))
    shape = idx.shape + (2, 3)
    seed = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    grads = backward(ad.take(x, idx), seed=seed, leaves=[x])
    ref = np.zeros_like(x.values)
    np.add.at(ref, idx, seed)
    assert grads[x].dtype == np.float64 and grads[x].shape == ref.shape
    assert grads[x].tobytes() == ref.tobytes()


def _erf_inputs():
    """A dense grid on [-9, 9], random magnitudes from 1e-300 to 1e3, and edges."""
    rng = np.random.default_rng(17)
    tiny = np.finfo(np.float64).tiny
    decades = rng.uniform(1.0, 10.0, 40_000) * 10.0 ** rng.integers(-300, 3, 40_000)
    edges = np.array([5e-324, tiny, 1e300, np.inf])
    return np.concatenate([np.linspace(-9.0, 9.0, 360_001), decades, -decades,
                           edges, -edges, [0.0, -0.0, np.nan]])


def test_erf_accuracy_against_math_and_scipy():
    from scipy.special import erf as scipy_erf
    x = _erf_inputs()
    got = ad.erf(x)
    finite = ~np.isnan(x)
    ref = np.array([math.erf(v) for v in x[finite]])
    err = np.abs(got[finite] - ref)
    assert err.max() <= 2.3e-16
    normal = np.abs(ref) >= 1e-300
    assert (err[normal] / np.spacing(np.abs(ref[normal]))).max() <= 4.0
    # no farther from math.erf than the scipy erf it replaced
    assert err.max() <= np.abs(scipy_erf(x[finite]) - ref).max()
    zeros = x == 0.0
    assert (got[zeros] == 0.0).all()
    assert (np.signbit(got[zeros]) == np.signbit(x[zeros])).all()
    assert np.isnan(got[~finite]).all()
    assert ad.erf(x[::3].reshape(1, -1)).ravel().tobytes() == got[::3].tobytes()


def _gelu_before_cdf_reuse(x, g):
    """gelu forward and input gradient as written before the forward kept the CDF."""
    erf = ad.erf
    inv_sqrt2, inv_sqrt2pi = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
    out = 0.5 * x * (1.0 + erf(x * inv_sqrt2))
    d = 0.5 * (1.0 + erf(x * inv_sqrt2)) + x * np.exp(-0.5 * x * x) * inv_sqrt2pi
    return out, g * d


def test_gelu_bitwise_vs_formula_without_cdf_reuse():
    rng = np.random.default_rng(6)
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny,
                      1e-20, -1e-20, 40.0, -40.0, 1e300, -1e300, np.inf, -np.inf])
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), edges,
                        rng.standard_normal(50_000) * 10.0 ** rng.integers(-12, 3, 50_000)])
    g = rng.standard_normal(x.shape)
    xt = Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore", over="ignore"):  # -inf * 0 and 1e300**2
        ref_out, ref_grad = _gelu_before_cdf_reuse(x, g)
        y = ad.gelu(xt)
        grads = backward(y, seed=g, leaves=[xt])
    assert y.values.tobytes() == ref_out.tobytes()
    assert grads[xt].tobytes() == ref_grad.tobytes()
