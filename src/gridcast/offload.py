"""Offloaded segment inputs for long checkpointed rollouts.

autodiff.checkpoint_segment is the one segment mechanism; it keeps each
segment input in a store.  Its default store pins the input on the tape;
OffloadEngine is the other store, and the one this module provides.  Under
no_grad checkpoint_segment records no segment, so the engine stores nothing.

Forward: each segment's input latent is copied into a slot of the engine,
and an interior input's tensor drops its buffer once the segment has
consumed it, so the tape pins nothing per segment.  Backward: the slots are
consumed in strictly decreasing order, the order in which a reversed tape
walks its segments.  The work is synchronous: the copy of a latent is far
cheaper than handing it to another thread.

The tape's saved-bytes peak (autodiff.tape_stats) therefore depends only on
the segment working set, not on how many segments the rollout has.
Gradients are bitwise identical to plain checkpointing because the slots
hold exact copies and recomputation replays identical operations.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["StoreError", "OffloadEngine"]


class StoreError(RuntimeError):
    """Store misuse: a slot restored twice, out of order, or never kept."""


class OffloadEngine:
    """Segment store for one rollout: one slot per segment input.

    Pass it as checkpoint_segment's store (rollout's engine= argument does).
    slots maps slot number to the kept copy; a slot leaves it when backward
    restores it, and close() drops whatever a forward-only run left.
    """

    def __init__(self):
        self.slots: dict[int, np.ndarray] = {}
        self.kept = 0
        self._last_restored: int | None = None

    # -- segment store (the protocol is autodiff.checkpoint_segment's) --------

    def keep(self, x: ad.Tensor, forward):
        slot = self.kept
        self.slots[slot] = x.values.copy()
        self.kept += 1
        y = forward()
        if slot > 0:
            x.values = None  # interior latent owned by the engine
        return (), slot, y

    def restore(self, saved, slot: int, replay):
        if not 0 <= slot < self.kept:
            raise StoreError(f"slot {slot} was never kept")
        if slot not in self.slots:
            raise StoreError(f"slot {slot} already restored or dropped by close()")
        last = self._last_restored
        if last is not None and slot > last:
            raise StoreError(
                f"slot {slot} restored out of order; slots must be taken in "
                f"strictly decreasing order (last was {last})")
        self._last_restored = slot
        return replay(self.slots.pop(slot))

    def close(self):
        self.slots.clear()
