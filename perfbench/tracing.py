"""Spans and counts at gridcast's layer boundaries, recorded from outside.

The tracer replaces public functions at the module attributes their
callers look up, so a function that another module imports by name is
wrapped there too (cli and training import encode by name, so encode is
wrapped in gridcast.cli and gridcast.training as well as gridcast.model).
Each call records one span (name, op, start, end, parent) in memory;
uninstall() puts every attribute back. Span names are "<layer>.<function>"
and the layer is the gridcast module that defines the function.

Per op the tracer also reads the program's own counters: model.CALL_COUNTS,
autodiff.tape_stats() and the offload engine's store, worker and arena.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from gridcast import (attention, autodiff, cli, evaluation, model, offload,
                      rollout, serialization, synthdata, training)

LAYERS = ("autodiff", "grid", "attention", "model", "rollout", "offload",
          "synthdata", "serialization", "training", "evaluation", "cli")


def _process_name(args, kwargs):
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    return f"model.process{horizon}"


# (owner, attribute, span name): every lookup site of a traced function.
SITES = (
    [(autodiff, "conv", "autodiff.conv"),
     (autodiff, "conv_transpose", "autodiff.conv_transpose")]
    + [(m, "backward", "autodiff.backward") for m in (autodiff, training, cli)]
    + [(model, "static_fields", "grid.static_fields"),
       (attention, "neighborhood", "grid.neighborhood"),
       (evaluation, "latitude_weights", "grid.latitude_weights")]
    + [(m, "natten_block", "attention.natten_block") for m in (attention, model)]
    + [(m, "encode", "model.encode") for m in (model, cli, training, rollout)]
    + [(m, "decode", "model.decode") for m in (model, cli, training, rollout)]
    + [(m, "process", _process_name) for m in (model, cli, training, rollout)]
    + [(m, "blend_latents", "model.blend_latents") for m in (model, cli, training)]
    + [(m, "load_config", "model.load_config") for m in (model, cli)]
    + [(m, "rollout", "rollout.rollout") for m in (rollout, cli)]
    + [(offload.OffloadEngine, "run_segments", "offload.OffloadEngine.run_segments")]
    + [(m, "load_dataset_file", "synthdata.load_dataset_file") for m in (synthdata, cli)]
    + [(synthdata.WeatherDataset, a, f"synthdata.WeatherDataset.{a}")
       for a in ("input_state", "truth_fields", "plane_sigmas")]
    + [(m, "load_params_file", "serialization.load_params_file")
       for m in (serialization, cli)]
    + [(m, "save_params_file", "serialization.save_params_file")
       for m in (serialization, cli, training)]
    + [(m, "train", "training.train") for m in (training, cli)]
    + [(training, "train_step", "training.train_step"),
       (training, "clip_gradients", "training.clip_gradients"),
       (training.Adam, "step", "training.Adam.step"),
       (evaluation, "latitude_rmse", "evaluation.latitude_rmse"),
       (cli, "main", "cli.main")]
)

# per-call medians over every call of the span
PER_CALL_MS = {
    "model.encode_ms": "model.encode",
    "model.decode_ms": "model.decode",
    "model.process6_ms": "model.process6",
    "model.process1_ms": "model.process1",
    "attention.natten_block_ms": "attention.natten_block",
}

# per-op medians of the time summed over the named spans
PER_OP_MS = {
    "synthdata.load_dataset_ms": ("synthdata.load_dataset_file",),
    "serialization.load_params_ms": ("serialization.load_params_file",),
    "serialization.save_params_ms": ("serialization.save_params_file",),
    "autodiff.conv_ms": ("autodiff.conv",),
    "autodiff.conv_transpose_ms": ("autodiff.conv_transpose",),
    "rollout.rollout_ms": ("rollout.rollout",),
    "offload.run_segments_ms": ("offload.OffloadEngine.run_segments",),
    "training.train_step_ms": ("training.train_step",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "training.optimizer_ms": ("training.clip_gradients", "training.Adam.step"),
    "evaluation.latitude_rmse_ms": ("evaluation.latitude_rmse",),
}

# per-op medians of the program's own counters
PER_OP_COUNTS = {
    "offload.bytes_written": "B",
    "offload.transfers": "count",
    "offload.high_water_bytes": "B",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_saved_peak_mb": "MiB",
    "model.encode_calls": "count",
    "model.process6_calls": "count",
    "model.process1_calls": "count",
    "model.decode_calls": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, op, start, end, parent index]
        self.counts: list[dict] = []  # per op: {counter: value}
        self._stack: list[int] = []
        self._op = -1
        self._calls_before: dict = {}
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        if callable(name):
            name = name(args, kwargs)
        rec = [name, self._op, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def begin_op(self, i: int) -> None:
        self._op = i
        self.counts.append(defaultdict(float))
        autodiff.reset_tape_stats()
        self._calls_before = dict(model.CALL_COUNTS)

    def end_op(self) -> None:
        c = self.counts[self._op]
        st = autodiff.tape_stats()
        c["autodiff.tape_nodes"] += st.nodes_created
        c["autodiff.tape_saved_peak_mb"] += st.saved_bytes_peak / 2**20
        for k, v in model.CALL_COUNTS.items():
            c[f"model.{k}_calls"] += v - self._calls_before.get(k, 0)
        self._op = -1

    def _engine_closed(self, engine) -> None:
        # after close the worker thread has been joined: the counts are final
        if self._op >= 0:
            c = self.counts[self._op]
            c["offload.bytes_written"] += engine.store.bytes_written
            c["offload.transfers"] += engine.worker.transfers
            c["offload.high_water_bytes"] += engine.high_water

    # -- installation -------------------------------------------------------

    def _wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in SITES:
            fn = owner.__dict__.get(attr)
            if fn is None:  # the program no longer has this site
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name))
        close = offload.OffloadEngine.close
        tracer = self

        def traced_close(engine):
            close(engine)
            tracer._engine_closed(engine)
        self._restore.append((offload.OffloadEngine, "close", close))
        offload.OffloadEngine.close = traced_close

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, medians over ops."""
        n_ops = len(self.counts)
        child = [0.0] * len(self.spans)
        for name, op, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name = [defaultdict(float) for _ in range(n_ops)]
        self_ms = [defaultdict(float) for _ in range(n_ops)]
        call_ms = defaultdict(list)
        for i, (name, op, t0, t1, parent) in enumerate(self.spans):
            if op < 0:
                continue
            by_name[op][name] += (t1 - t0) * 1e3
            self_ms[op][name.split(".")[0]] += (t1 - t0 - child[i]) * 1e3
            call_ms[name].append((t1 - t0) * 1e3)

        def per_op(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for metric, name in PER_CALL_MS.items():
            out[metric] = (per_op(call_ms[name]), "ms")
        for metric, names in PER_OP_MS.items():
            out[metric] = (per_op([sum(d[n] for n in names) for d in by_name]), "ms")
        for metric, unit in PER_OP_COUNTS.items():
            out[metric] = (per_op([c[metric] for c in self.counts]), unit)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (per_op([d[layer] for d in self_ms]), "ms")
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"span_fields": ["name", "op", "start_s", "end_s", "parent"],
                       "spans": self.spans,
                       "op_counts": [dict(c) for c in self.counts]}, f)
