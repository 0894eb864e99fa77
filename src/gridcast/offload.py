"""A stub: gridcast has no offload engine.

autodiff.checkpoint_segment pins each segment input on its tape node, and
that is the only segment store.  This module stays because the benchmark
harness (perfbench/tracing.py) imports it and wraps OffloadEngine.close.
"""

__all__ = ["OffloadEngine"]


class OffloadEngine:
    """Nothing builds one; close() does nothing."""

    def close(self):
        pass
