"""Host-offloaded activation storage for long checkpointed rollouts.

autodiff.checkpoint_segment is the one segment mechanism; it keeps each
segment input in a store.  Its default store pins the input on the tape;
OffloadEngine is the other store, and the one this module provides.  Under
no_grad checkpoint_segment records no segment, so the engine stores nothing.

Forward: each segment's input latent is copied to an in-RAM host store by
a one-thread concurrent.futures executor, and its device-side buffer is
dropped once the segment has consumed it and the copy has landed.
Backward: fetches are issued ahead of need by a fixed lookahead so the
transfers overlap recompute, and the store is consumed strictly in reverse
segment order.

An ActivationArena meters device residency in bytes.  With one live segment
at a time, the arena high-water mark depends only on the segment working
set, not on how many segments the rollout has.  Gradients are bitwise
identical to plain in-memory checkpointing because transfers copy exact
bytes and recomputation replays identical operations.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

__all__ = [
    "ActivationArena",
    "BudgetError",
    "HostStore",
    "StoreError",
    "TransferWorker",
    "PrefetchPipeline",
    "OffloadEngine",
]


class BudgetError(RuntimeError):
    """An admit would exceed the arena budget with nothing left to evict."""


class StoreError(RuntimeError):
    """Host store misuse: double write, double consume, order violation."""


class ActivationArena:
    """Byte accountant for device-resident activations.

    admit() returns a token; release() retires it.  residency and
    high_water are exact byte counts.  The arena does not own memory, it
    meters it; callers decide what the bytes are.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ConfigError(f"arena budget must be positive, got {budget_bytes}")
        self.budget = int(budget_bytes)
        self.residency = 0
        self.high_water = 0
        self._live: set[int] = set()
        self._sizes: dict[int, int] = {}
        self._next = 0

    def admit(self, nbytes: int) -> int:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("admit: negative size")
        if self.residency + nbytes > self.budget:
            raise BudgetError(
                f"admit of {nbytes} bytes exceeds budget {self.budget} "
                f"(residency {self.residency})")
        self.residency += nbytes
        self.high_water = max(self.high_water, self.residency)
        token = self._next
        self._next += 1
        self._live.add(token)
        self._sizes[token] = nbytes
        return token

    def release(self, token: int) -> None:
        if token not in self._live:
            raise ValueError(f"release: unknown or already released token {token}")
        self._live.remove(token)
        self.residency -= self._sizes.pop(token)


class HostStore:
    """Write-once, consume-once slot store for offloaded activations, in host RAM.

    Slots are indexed 0..n-1, written in increasing order during forward and
    consumed in strictly decreasing order during backward, mirroring how a
    reversed tape walks its segments.  Each slot holds its own copy of the
    array it was given.
    """

    def __init__(self):
        self._slots: dict[int, np.ndarray] = {}
        self._written: set[int] = set()
        self._consumed_floor: int | None = None
        self.bytes_written = 0

    def put(self, slot: int, arr: np.ndarray) -> None:
        if slot in self._written:
            raise StoreError(f"slot {slot} already written")
        self._written.add(slot)
        self._slots[slot] = arr.copy()
        self.bytes_written += arr.nbytes

    def get(self, slot: int) -> np.ndarray:
        if slot not in self._written:
            raise StoreError(f"slot {slot} was never written")
        if slot not in self._slots:
            raise StoreError(f"slot {slot} already consumed")
        if self._consumed_floor is not None and slot >= self._consumed_floor:
            raise StoreError(
                f"slot {slot} consumed out of order; slots must be taken in "
                f"decreasing order (last was {self._consumed_floor})")
        self._consumed_floor = slot
        return self._slots.pop(slot)


class TransferWorker:
    """One background thread running the store's writes and reads in submit order.

    Each submit returns a concurrent.futures.Future: result() waits for the
    transfer and re-raises its error.  The thread starts on the first submit
    and shutdown() joins it.
    """

    def __init__(self, store: HostStore):
        self.store = store
        self.transfers = 0
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="gridcast-offload")

    def _count(self, transfer, *args):
        try:
            return transfer(*args)
        finally:
            self.transfers += 1

    def submit_put(self, slot: int, arr: np.ndarray) -> Future:
        # no snapshot: the Future holds arr, and Tensor values are immutable
        return self._pool.submit(self._count, self.store.put, slot, arr)

    def submit_get(self, slot: int) -> Future:
        return self._pool.submit(self._count, self.store.get, slot)

    def shutdown(self) -> None:
        self._pool.shutdown()


class PrefetchPipeline:
    """Issues store fetches ahead of backward progress.

    on_backward_begin(k) keeps every slot down to k - lookahead in flight.
    take(k) waits for slot k.  A take for a slot that was never issued is a
    demand fetch: it is counted as a stall, issued on the spot, and waited
    for.  With lookahead >= 1 and begin() called per segment, stalls are
    structurally zero.
    """

    def __init__(self, worker: TransferWorker, n_segments: int, lookahead: int = 2):
        if lookahead < 1:
            raise ConfigError(f"prefetch lookahead must be >= 1, got {lookahead}")
        self.worker = worker
        self.n = int(n_segments)
        self.lookahead = int(lookahead)
        self._pending: dict[int, Future] = {}
        self._next_to_issue = self.n - 1
        self.demand_stalls = 0
        self.blocked_waits = 0

    def on_backward_begin(self, k: int) -> None:
        floor = max(0, k - self.lookahead)
        while self._next_to_issue >= floor:
            s = self._next_to_issue
            self._pending[s] = self.worker.submit_get(s)
            self._next_to_issue -= 1

    def take(self, k: int) -> np.ndarray:
        fetch = self._pending.pop(k, None)
        if fetch is None:
            self.demand_stalls += 1
            fetch = self.worker.submit_get(k)
        if not fetch.done():
            self.blocked_waits += 1
        return fetch.result()


class OffloadEngine:
    """Host-offload segment store for one rollout.

    Pass it as checkpoint_segment's store (rollout's engine= argument does):
    each segment input is copied out to the host store in forward and
    fetched back ahead of need for the recompute in backward, with every
    tensor metered by the arena.
    """

    def __init__(self, budget_bytes: int = 1 << 30, lookahead: int = 2):
        if lookahead < 1:
            raise ConfigError(f"prefetch lookahead must be >= 1, got {lookahead}")
        self.arena = ActivationArena(budget_bytes)
        self.store = HostStore()
        self.worker = TransferWorker(self.store)
        self.lookahead = lookahead
        self.pipeline: PrefetchPipeline | None = None
        self.slots_written = 0
        self.backward_ran = False

    # -- segment store (the protocol is autodiff.checkpoint_segment's) --------

    def keep(self, x: ad.Tensor, forward):
        slot = self.slots_written
        token = self.arena.admit(x.values.nbytes)
        write = self.worker.submit_put(slot, x.values)
        self.slots_written += 1
        try:
            y = self._metered(forward, x.values)
            # the input leaves the device once its host copy is durable
            write.result()
        finally:
            self.arena.release(token)
        if slot > 0:
            x.values = None  # interior latent owned by the engine
        return (), slot, y

    def restore(self, saved, slot: int, replay):
        self.backward_ran = True
        if self.pipeline is None:
            self.pipeline = PrefetchPipeline(self.worker, self.slots_written,
                                             self.lookahead)
        self.pipeline.on_backward_begin(slot)
        xv = self.pipeline.take(slot)
        token = self.arena.admit(xv.nbytes)
        try:
            return self._metered(lambda: replay(xv), xv)
        finally:
            self.arena.release(token)

    def _metered(self, run, covered: np.ndarray):
        """run() with every tensor it creates admitted to the arena until it returns.

        The segment input's wrapper shares the covered buffer, whose token
        the caller already holds, so it is not admitted twice.
        """
        tokens = []

        def observer(t: ad.Tensor):
            if t.values is not covered:
                tokens.append(self.arena.admit(t.values.nbytes))

        ad.set_alloc_observer(observer)
        try:
            return run()
        finally:
            ad.set_alloc_observer(None)
            for tok in tokens:
                self.arena.release(tok)

    # -- reporting ----------------------------------------------------------

    @property
    def demand_stalls(self) -> int:
        return 0 if self.pipeline is None else self.pipeline.demand_stalls

    @property
    def blocked_waits(self) -> int:
        return 0 if self.pipeline is None else self.pipeline.blocked_waits

    @property
    def high_water(self) -> int:
        return self.arena.high_water

    def close(self):
        self.worker.shutdown()
