"""Offload engine: accounting, ordering, prefetch, bitwise gradient parity."""

import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

import gridcast.autodiff as ad
from gridcast.autodiff import Tensor, backward, checkpoint_segment
from gridcast.errors import ConfigError
from gridcast.offload import (
    ActivationArena,
    BudgetError,
    HostStore,
    OffloadEngine,
    PrefetchPipeline,
    StoreError,
    TransferWorker,
)

RNG = np.random.default_rng(5150)


class TestArena:
    def test_admit_release_highwater(self):
        a = ActivationArena(100)
        t1 = a.admit(40)
        t2 = a.admit(50)
        assert a.residency == 90 and a.high_water == 90
        a.release(t1)
        assert a.residency == 50
        t3 = a.admit(30)
        assert a.high_water == 90  # monotone
        a.release(t2)
        a.release(t3)
        assert a.residency == 0

    def test_budget_exceeded(self):
        a = ActivationArena(100)
        a.admit(80)
        with pytest.raises(BudgetError):
            a.admit(21)

    def test_double_release_rejected(self):
        a = ActivationArena(10)
        t = a.admit(5)
        a.release(t)
        with pytest.raises(ValueError):
            a.release(t)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigError):
            ActivationArena(0)


class TestHostStore:
    def test_round_trip_bitwise(self):
        store = HostStore()
        arrs = [RNG.standard_normal((3, 4)), RNG.standard_normal(7)]
        store.put(0, arrs[0])
        store.put(1, arrs[1])
        got1 = store.get(1)
        got0 = store.get(0)
        assert got0.tobytes() == arrs[0].tobytes()
        assert got1.tobytes() == arrs[1].tobytes()
        assert got0.shape == (3, 4)
        assert store.bytes_written == arrs[0].nbytes + arrs[1].nbytes

    def test_put_keeps_a_copy(self):
        store = HostStore()
        arr = np.ones(3)
        store.put(0, arr)
        arr[:] = 99.0
        assert store.get(0).tolist() == [1.0, 1.0, 1.0]

    def test_write_once(self):
        store = HostStore()
        store.put(0, np.ones(2))
        with pytest.raises(StoreError):
            store.put(0, np.ones(2))

    def test_consume_once(self):
        store = HostStore()
        store.put(0, np.ones(2))
        store.get(0)
        with pytest.raises(StoreError):
            store.get(0)

    def test_decreasing_order_enforced(self):
        store = HostStore()
        for s in range(3):
            store.put(s, np.full(2, s))
        store.get(1)
        with pytest.raises(StoreError):
            store.get(2)
        store.get(0)

    def test_never_written(self):
        store = HostStore()
        with pytest.raises(StoreError):
            store.get(3)


class _SlowStore(HostStore):
    """A host store whose writes take until arrived is set: transfer latency."""

    def __init__(self):
        super().__init__()
        self.arrived = threading.Event()

    def put(self, slot, arr):
        self.arrived.wait(timeout=10)
        super().put(slot, arr)


class TestWorker:
    def test_fifo_transfers_with_latency(self):
        store = _SlowStore()
        w = TransferWorker(store)
        arrs = [RNG.standard_normal(16) for _ in range(3)]
        puts = [w.submit_put(s, a) for s, a in enumerate(arrs)]
        # queued behind a put still in flight: the worker keeps submit order
        gets = [w.submit_get(s) for s in (2, 1, 0)]
        assert not any(f.done() for f in puts + gets)
        store.arrived.set()
        assert all(p.result(timeout=10) is None for p in puts)
        got = [g.result(timeout=10) for g in gets]
        assert [g.tobytes() for g in got] == [a.tobytes() for a in arrs[::-1]]
        assert w.transfers == 6
        w.shutdown()

    def test_one_put_copies_its_input_once(self):
        n = 1 << 22
        arr = np.ones(n // 8)
        store = HostStore()
        w = TransferWorker(store)
        w.submit_put(1, np.ones(1)).result()  # start the thread outside the window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w.submit_put(0, arr).result()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            w.shutdown()
        assert kept - base >= n  # the store holds its own copy ...
        assert peak - base < n + n // 8  # ... and no second one was made
        arr[:] = 99.0
        assert (store.get(0) == 1.0).all()

    def test_error_surfaces_on_wait(self):
        w = TransferWorker(HostStore())
        w.submit_put(0, np.ones(1)).result()
        w.submit_get(0).result()
        with pytest.raises(StoreError):
            w.submit_get(0).result()
        assert w.transfers == 3  # a failed transfer still counts
        w.shutdown()

    def test_thread_starts_on_first_submit(self):
        before = set(threading.enumerate())
        w = TransferWorker(HostStore())
        assert set(threading.enumerate()) <= before
        w.submit_put(0, np.ones(1)).result()
        (thread,) = set(threading.enumerate()) - before
        w.shutdown()
        assert not thread.is_alive()


class _RecordingWorker:
    """Stands in for TransferWorker: records every fetch, completes it at once."""

    def __init__(self):
        self.issued = []

    def submit_get(self, slot):
        self.issued.append(slot)
        done = Future()
        done.set_result(np.full(1, float(slot)))
        return done


def _issue_batches(n_segments, lookahead):
    """Slots a driven PrefetchPipeline issues at each backward-begin, newest first."""
    worker = _RecordingWorker()
    pipe = PrefetchPipeline(worker, n_segments, lookahead)
    batches = []
    for k in range(n_segments - 1, -1, -1):
        before = len(worker.issued)
        pipe.on_backward_begin(k)
        batches.append(worker.issued[before:])
        pipe.take(k)
    return batches


class TestPrefetchSchedule:
    def test_lookahead_zero_rejected(self):
        with pytest.raises(ConfigError):
            PrefetchPipeline(TransferWorker(HostStore()), 4, lookahead=0)

    def test_every_slot_issued_once(self):
        for n in (1, 2, 5, 9):
            for la in (1, 2, 3, 8):
                sched = _issue_batches(n, la)
                flat = [s for batch in sched for s in batch]
                assert sorted(flat) == list(range(n))

    def test_slot_issued_by_its_own_backward(self):
        # slot s must appear no later than the batch for backward of segment s
        n, la = 6, 2
        sched = _issue_batches(n, la)
        issued = set()
        for j, batch in enumerate(sched):
            k = n - 1 - j  # segment whose backward begins here
            issued.update(batch)
            assert k in issued

    def test_lookahead_depth(self):
        sched = _issue_batches(8, 2)
        # first batch covers newest segment plus lookahead
        assert sched[0] == [7, 6, 5]
        assert all(len(b) <= 1 for b in sched[1:])

    def test_pipeline_zero_stalls_when_driven(self):
        store = HostStore()
        w = TransferWorker(store)
        n = 5
        for s in range(n):
            store_arr = np.full(3, float(s))
            w.submit_put(s, store_arr)
        pipe = PrefetchPipeline(w, n, lookahead=2)
        for k in range(n - 1, -1, -1):
            pipe.on_backward_begin(k)
            got = pipe.take(k)
            assert got[0] == float(k)
        assert pipe.demand_stalls == 0
        w.shutdown()

    def test_demand_fetch_counted(self):
        store = HostStore()
        w = TransferWorker(store)
        for s in range(3):
            w.submit_put(s, np.full(2, float(s))).result()
        pipe = PrefetchPipeline(w, 3, lookahead=1)
        got = pipe.take(2)  # no on_backward_begin first: demand fetch
        assert got[0] == 2.0
        assert pipe.demand_stalls == 1
        w.shutdown()


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

    def test_gradients_bitwise_vs_plain_checkpoint(self):
        plain = self._grads(4)
        eng = OffloadEngine(budget_bytes=1 << 22, lookahead=2)
        off = self._grads(4, eng)
        assert plain == off
        assert eng.demand_stalls == 0
        eng.close()

    def test_high_water_constant_in_segment_count(self):
        hws = []
        for n in (1, 4, 16):
            eng = OffloadEngine(budget_bytes=1 << 22, lookahead=2)
            self._grads(n, eng)
            hws.append(eng.high_water)
            assert eng.demand_stalls == 0
            eng.close()
        assert hws[0] == hws[1] == hws[2]

    def test_latency_does_not_change_values(self, monkeypatch):
        eng = OffloadEngine(budget_bytes=1 << 22, lookahead=1)
        get = eng.store.get

        def slow_get(slot):
            time.sleep(200e-6)  # stands in for interconnect time
            return get(slot)
        monkeypatch.setattr(eng.store, "get", slow_get)
        assert self._grads(5, eng) == self._grads(5)
        assert eng.demand_stalls == 0
        eng.close()

    def test_budget_too_small(self):
        eng = OffloadEngine(budget_bytes=64)
        with pytest.raises(BudgetError):
            self._grads(2, eng)
        eng.close()

    def test_lookahead_zero_rejected(self):
        with pytest.raises(ConfigError):
            OffloadEngine(lookahead=0)

    def test_forward_only_leaves_store_unconsumed(self):
        eng = OffloadEngine(budget_bytes=1 << 22)
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)))
        with ad.no_grad():
            pass  # engine runs its own no-grad internally
        z = _run_chain(_chain_fns([p], 3), z0, store=eng)
        assert z.shape == (2, 4)
        assert not eng.backward_ran
        eng.close()

    def test_interior_inputs_leave_the_device(self):
        eng = OffloadEngine(budget_bytes=1 << 22)
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
        z = _run_chain(_chain_fns([p], 3), z0, store=eng)
        z2 = z.node.parents[0]
        z1 = z2.node.parents[0]
        assert z1.values is None and z2.values is None
        assert z0.values is not None  # the caller's input stays
        eng.close()

    def test_closed_engines_leave_no_worker_thread(self):
        baseline = threading.active_count()
        for _ in range(20):
            eng = OffloadEngine(budget_bytes=1 << 22)
            self._grads(2, eng)
            eng.close()
        assert threading.active_count() == baseline

    def test_no_grad_segment_touches_no_store(self):
        eng = OffloadEngine(budget_bytes=1 << 22)
        p = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        z0 = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
        ad.reset_tape_stats()
        with ad.no_grad():
            z = checkpoint_segment(_chain_fns([p], 1)[0], z0, store=eng)
        eng.close()
        assert z.node is None
        assert ad.tape_stats().nodes_created == 0
        assert eng.store.bytes_written == 0
        assert eng.worker.transfers == 0
        assert eng.high_water == 0
