"""Run one gridcast benchmark workload and print its result line.

    python3 perfbench/run.py --workload forecast-day --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

It imports gridcast from the src/ directory of the checkout that holds this
file, and exits 2, printing no result, when there is none. Each workload
runs in its own fresh process as a closed loop with one client: the next op
starts when the previous one has ended. "--workload all" runs every
workload that way, one child process each, and prints each child's info and
result line prefixed with the workload's name.

--trace 0 prints the end-to-end metrics; --trace 1 wraps gridcast's public
functions, prints the per-layer metrics, writes the spans to
perfbench/out/<workload>/trace.json, and then replays the same ops untraced
to measure the tracing overhead. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it, starting
"info:", carries the machine-speed probe and other context.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads: with the offload worker that makes
# at most two busy threads, the core count of the reference machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import summary  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("forecast-day", "forecast-14d", "train")
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one gridcast benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=lambda s: int(s) % (1 << 32), required=True,
                   help="workload seed, taken modulo 2**32")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds of ops until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_probe(reps: int = 7) -> float:
    """Median ms of a fixed numpy computation that does not use gridcast.

    It moves with the machine, not with the program, so a shift between two
    sets of runs that the probe shows too is the machine's.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) / 16.0
    idx = rng.integers(0, 4096, size=1 << 17)
    vals = rng.standard_normal(1 << 17)
    x = rng.standard_normal(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a)
        acc = np.zeros(4096)
        np.add.at(acc, idx, vals)
        np.exp(np.sin(x))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_ops(wl, log, ops, tracer=None) -> list:
    """Run ops in order into log; returns each op's fingerprint (None if failed)."""
    prints = []
    for op in ops:
        if tracer is None:
            def body(op=op):
                return wl.op(op)
        else:
            def body(op=op):
                tracer.begin_op(len(tracer.counts))
                try:
                    return tracer.call("bench.op", wl.op, (op,))
                finally:
                    tracer.end_op()
        res = log.run(body, lambda r, op=op: wl.check(op, r))
        prints.append(None if res is None else wl.fingerprint(res))
    return prints


def measure(wl, seconds: float, tracer=None):
    """Whole rounds of ops until `seconds` have passed."""
    log = summary.OpLog()
    ops, prints = [], []
    t0 = time.perf_counter()
    while True:
        batch = wl.round()
        ops += batch
        prints += run_ops(wl, log, batch, tracer)
        if time.perf_counter() - t0 >= seconds:
            return log, ops, prints, time.perf_counter() - t0


def blas_build() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_all(args) -> int:
    """Every workload in a fresh child process; returns 0 when all succeed."""
    rc = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines()[-2:]:
            print(f"{name} {line}")
        rc = rc or proc.returncode
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "gridcast", "__init__.py")):
        print(f"perfbench: no gridcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gridcast
    if os.path.dirname(os.path.dirname(os.path.abspath(gridcast.__file__))) != SRC:
        print(f"perfbench: imported gridcast from {gridcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    gen_s = wl.generate_inputs()
    wl.load_inputs()
    problems = wl.warm_up()
    # from process start to the first timed op, counting input generation
    # once (its median) and leaving out the benchmark's own checks
    setup_s = (time.perf_counter() - T_START - sum(gen_s) + statistics.median(gen_s)
               - wl.warm_check_s)
    # every timed loop starts from the same collector state, with set-up's
    # garbage gone; the loop itself leaves collection to the interpreter
    gc.collect()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        log, ops, prints, loop_s = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": log.attempted, "loop_s": loop_s,
            "input_generation_s": gen_s, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "blas": blas_build(), "nproc": os.cpu_count()}
    if tracer is not None:
        # the same ops again, untraced, for the tracing overhead
        wl.reset()
        plain = summary.OpLog()
        t0 = time.perf_counter()
        replay = run_ops(wl, plain, ops)
        plain_busy = time.perf_counter() - t0 - plain.check_s
        traced_busy = loop_s - log.check_s
        overhead_pct = 100.0 * (traced_busy / plain_busy - 1.0)
        info["traced_ops_per_s"] = len(ops) / traced_busy
        info["untraced_ops_per_s"] = len(ops) / plain_busy
        problems += plain.failures
        if replay != prints:
            problems.append("traced and untraced replays of the same ops differ")
    problems += wl.run_checks()
    info["probe_ms"] = machine_probe()
    info["notes"] = wl.notes

    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_pct"] = (overhead_pct, "%")
        tracer.write(wl.path("trace.json"))
    else:
        metrics = summary.end_to_end(log, loop_s, setup_s, peak_rss_mb)
        info["latency_tail_ms"] = summary.tail([x * 1e3 for x in log.latencies])
    for msg in (log.failures + problems)[:10]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print("info: " + json.dumps(info))
    correct = log.failed == 0 and not problems
    print(summary.result_line(correct, log.attempted, log.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
