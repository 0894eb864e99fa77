"""Summary statistics of one benchmark run and its result line.

Pure functions over op outcomes, kept apart from the workloads so that the
test next to this file can pin them down without running gridcast.
"""

from __future__ import annotations

import json
import math
import statistics
import time

# A tail percentile needs at least this many samples beyond it; below
# MIN_TAIL_SAMPLES samples there is no such percentile worth the name.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


class OpLog:
    """Outcome of every op attempted in a timed loop.

    An op that raises, or whose output check reports a problem, is counted
    as failed and its latency enters the statistics as +inf: a failure
    misses every latency limit, so it can only push a percentile up.
    """

    def __init__(self):
        self.latencies: list[float] = []  # seconds; inf for a failed op
        self.failures: list[str] = []
        self.check_s = 0.0  # time spent in the benchmark's own checks

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, op, check):
        """Time op(); then check(output) untimed. Returns the output or None.

        check returns a list of problems; any problem fails the op.
        """
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as e:  # the op failed: record it and go on
            self.latencies.append(math.inf)
            self.failures.append(f"{type(e).__name__}: {e}")
            return None
        elapsed = time.perf_counter() - t0
        t1 = time.perf_counter()
        problems = check(out)
        self.check_s += time.perf_counter() - t1
        if problems:
            self.latencies.append(math.inf)
            self.failures.append("; ".join(problems))
            return None
        self.latencies.append(elapsed)
        return out


def tail(samples):
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns {"value", "percentile", "samples"}, or None with fewer than
    MIN_TAIL_SAMPLES samples. With n >= 40 the rank n-10 lies above the
    middle, so the tail is never below the median of the same samples.
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return None
    rank = n - TAIL_BEYOND  # 1-based
    return {"value": sorted(samples)[rank - 1],
            "percentile": 100.0 * rank / n, "samples": n}


def end_to_end(log: OpLog, loop_wall_s: float, setup_s: float,
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, as {name: (value, unit)}.

    ops_per_s counts completed ops over the loop's wall time, less the time
    the benchmark spent checking outputs between ops.
    """
    completed = log.attempted - log.failed
    busy = loop_wall_s - log.check_s
    lat_ms = [x * 1e3 for x in log.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / busy if busy > 0 else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _finite_or_none(v):
    v = float(v)
    return v if math.isfinite(v) else None


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The run's last stdout line: one JSON object, fixed keys."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": _finite_or_none(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    })
