"""Offload engine: slot ordering, flat tape peak, bitwise gradient parity."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import gridcast.autodiff as ad
from gridcast.autodiff import Tensor, backward, checkpoint_segment
from gridcast.offload import OffloadEngine, StoreError

RNG = np.random.default_rng(5150)


def _kept(arrs):
    """An engine holding one slot per array, kept the way a forward pass does."""
    eng = OffloadEngine()
    for a in arrs:
        eng.keep(Tensor(a), lambda: None)
    return eng


def _restore(eng, slot):
    return eng.restore((), slot, lambda xv: xv)


class TestHostStore:
    """The engine's slots: written once in forward, taken newest first in backward."""

    def test_round_trip_bitwise(self):
        arrs = [RNG.standard_normal((3, 4)), RNG.standard_normal(7)]
        eng = _kept(arrs)
        got1 = _restore(eng, 1)
        got0 = _restore(eng, 0)
        assert got0.tobytes() == arrs[0].tobytes()
        assert got1.tobytes() == arrs[1].tobytes()
        assert got0.shape == (3, 4)
        assert eng.slots == {}

    def test_put_keeps_a_copy(self):
        x = Tensor(np.ones(3))
        eng = OffloadEngine()
        eng.keep(x, lambda: None)
        x.values[:] = 99.0
        assert _restore(eng, 0).tolist() == [1.0, 1.0, 1.0]

    def test_keep_copies_its_input_once(self):
        n = 1 << 22
        x = Tensor(np.ones(n // 8))
        eng = OffloadEngine()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eng.keep(x, lambda: None)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - base >= n  # the engine holds its own copy ...
        assert peak - base < n + n // 8  # ... and no second one was made

    def test_write_once(self):
        # keep numbers its own slots, so no slot is ever written twice
        eng = OffloadEngine()
        keys = [eng.keep(Tensor(np.ones(2)), lambda: None)[1] for _ in range(3)]
        assert keys == [0, 1, 2]
        assert sorted(eng.slots) == [0, 1, 2]

    def test_consume_once(self):
        eng = _kept([np.ones(2)])
        _restore(eng, 0)
        with pytest.raises(StoreError, match="already restored"):
            _restore(eng, 0)

    def test_decreasing_order_enforced(self):
        eng = _kept([np.full(2, s) for s in range(3)])
        _restore(eng, 1)
        with pytest.raises(StoreError, match="out of order"):
            _restore(eng, 2)
        assert _restore(eng, 0)[0] == 0.0

    def test_never_written(self):
        eng = _kept([np.ones(2)])
        with pytest.raises(StoreError, match="never kept"):
            _restore(eng, 3)

    def test_close_drops_unconsumed_slots(self):
        eng = _kept([np.ones(2), np.ones(2)])
        eng.close()
        assert eng.slots == {}
        with pytest.raises(StoreError, match="dropped by close"):
            _restore(eng, 1)


def _chain_fns(params, n):
    """n identical nonlinear segments z -> gelu(z @ p) + z."""
    def make(p):
        def seg(z):
            return ad.gelu(ad.matmul(z, p)) + z
        return seg
    return [make(params[i % len(params)]) for i in range(n)]


def _run_chain(fns, z, store=None):
    """The segment functions in order, each one a checkpoint segment."""
    for fn in fns:
        z = checkpoint_segment(fn, z, store=store)
    return z


class TestEngine:
    def _grads(self, n_segments, engine=None):
        rng = np.random.default_rng(99)
        p1 = Tensor(rng.standard_normal((8, 8)) * 0.3, requires_grad=True)
        p2 = Tensor(rng.standard_normal((8, 8)) * 0.3, requires_grad=True)
        z0 = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        z = _run_chain(_chain_fns([p1, p2], n_segments), z0, store=engine)
        loss = (z * z).mean()
        grads = backward(loss, leaves=[z0, p1, p2])
        return (loss.values.tobytes(),
                tuple(grads[k].tobytes() for k in (z0, p1, p2)))

    def _tape_peak(self, n_segments, engine=None):
        ad.reset_tape_stats()
        self._grads(n_segments, engine)
        return ad.tape_stats().saved_bytes_peak

    def test_gradients_bitwise_vs_plain_checkpoint(self):
        plain = self._grads(4)
        eng = OffloadEngine()
        off = self._grads(4, eng)
        assert plain == off
        assert eng.slots == {}
        eng.close()

    def test_high_water_constant_in_segment_count(self):
        # the tape's saved-bytes peak: flat under the engine, growing pinned
        offloaded, pinned = [], []
        for n in (1, 4, 16):
            eng = OffloadEngine()
            offloaded.append(self._tape_peak(n, eng))
            eng.close()
            pinned.append(self._tape_peak(n))
        assert offloaded[0] == offloaded[1] == offloaded[2]
        assert pinned[0] < pinned[1] < pinned[2]

    def test_forward_only_leaves_store_unconsumed(self):
        eng = OffloadEngine()
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)))
        z = _run_chain(_chain_fns([p], 3), z0, store=eng)
        assert z.shape == (2, 4)
        assert sorted(eng.slots) == [0, 1, 2]
        eng.close()
        assert eng.slots == {}

    def test_interior_inputs_leave_the_device(self):
        # the graph holds slots, not tensors, so the interior latents z1 and z2
        # die with the rollout, and the engine's slots hold their only copies
        eng = OffloadEngine()
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
        ad.reset_tape_stats()
        z, interior = z0, []
        for fn in _chain_fns([p], 3):
            z = checkpoint_segment(fn, z, store=eng)
            interior.append((weakref.ref(z), weakref.ref(z.values), z.values.copy()))
        interior.pop()  # z3, the result, stays with the caller
        assert all(t() is None and v() is None for t, v, _ in interior)
        assert [eng.slots[i + 1].tobytes() for i in range(2)] == \
            [want.tobytes() for _, _, want in interior]
        assert ad.tape_stats().saved_current == 0  # the tape pins no input
        assert z0.values is not None  # the caller's input stays
        eng.close()

    def test_closed_engines_leave_no_worker_thread(self):
        baseline = threading.active_count()
        for _ in range(20):
            eng = OffloadEngine()
            self._grads(2, eng)
            assert threading.active_count() == baseline  # none ever started
            eng.close()
        assert threading.active_count() == baseline

    def test_no_grad_segment_touches_no_store(self):
        eng = OffloadEngine()
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
        ad.reset_tape_stats()
        with ad.no_grad():
            z = checkpoint_segment(_chain_fns([p], 1)[0], z0, store=eng)
        assert z.node is None
        assert ad.tape_stats().nodes_created == 0
        assert eng.kept == 0 and eng.slots == {}
        eng.close()
