"""Mutated input files through every command that reads them.

A params, forecast, config or report file of the tiny config loses, renames,
reshapes or poisons a tensor or key, is truncated, or is swapped for a file of
another kind.  Each command that reads it then either exits 0 with finite
outputs and strict JSON, or exits 1 with exactly one `error: io|config|data:`
line: a bad input never passes for a numerical failure or a bug.
"""

import csv
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from gridcast.cli import main
from gridcast.model import init_model_params, save_config, tiny_config
from gridcast.serialization import dump_params, load_params, load_params_file

NAMED = re.compile(r"error: (io|config|data): \S")
KINDS = ("drop", "rename", "reshape", "poison", "truncate", "swap")
POISONS = (float("nan"), float("inf"), -float("inf"))


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid tiny-config files, one of each kind, as {kind: path}."""
    d = tmp_path_factory.mktemp("good")
    paths = {"config": d / "tiny.cfg", "params": d / "params.lmtw", "data": d / "data.wmd3",
             "forecast": d / "fc.lmtw", "report": d / "report.json"}
    save_config(paths["config"], tiny_config())
    paths["params"].write_bytes(dump_params(
        {k: v.values for k, v in init_model_params(tiny_config(), seed=4).items()}))
    for argv in (["gen-data", "--spec", paths["config"], "--hours", "12", "--seed", "3",
                  "--sources", "1", "--out", paths["data"]],
                 ["forecast", "--config", paths["config"], "--params", paths["params"],
                  "--init", paths["data"], "--init-hour", "0", "--dt", "6",
                  "--out", paths["forecast"]],
                 ["evaluate", "--forecast", paths["forecast"], "--truth", paths["data"],
                  "--wavelength-km", "12000", "--out", paths["report"]]):
        with redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0
    return paths


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _finite_leaves(doc):
    if isinstance(doc, dict):
        return all(_finite_leaves(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_leaves(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def check_outputs(out: Path) -> None:
    """Every file a successful command wrote is finite; every JSON is strict."""
    for p in sorted(out.rglob("*")):
        if p.suffix == ".lmtw":
            assert all(np.isfinite(a).all() for a in load_params_file(p).values()), p
        elif p.suffix == ".json":
            assert _finite_leaves(strict_json(p)), p
        elif p.suffix == ".csv":
            rows = list(csv.DictReader(p.open()))
            assert rows and all(math.isfinite(float(r["loss"])) for r in rows), p


def run(argv) -> str:
    """One command: exit 0 with finite, strict outputs, or 1 with one named error line.

    Returns the outcome, "ok" or the error's category.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = [str(a).replace("{out}", tmp) for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == [], (argv, lines)
            check_outputs(out)
            return "ok"
        assert rc == 1 and len(lines) == 1 and NAMED.match(lines[0]), (argv, lines)
        return NAMED.match(lines[0])[1]


def commands(good, role: str, path: Path) -> list[list]:
    """The commands that read a file of this role, with path in its place."""
    files = {**good, role: path}
    forecast = ["forecast", "--config", files["config"], "--params", files["params"],
                "--init", good["data"], "--init-hour", "0", "--dt", "7",
                "--out", "{out}/fc.lmtw"]
    train = ["train", "--config", files["config"], "--data", good["data"], "--stage",
             "pretrain", "--steps", "1", "--out", "{out}/run"]
    return {
        "config": [forecast, train],  # train from a seeded init
        "params": [forecast, train + ["--params", files["params"]]],
        "forecast": [["evaluate", "--forecast", path, "--truth", good["data"],
                      "--wavelength-km", "12000", "--out", "{out}/e.json"]],
        "report": [["scorecard", "--a", path, "--b", good["report"], "--out", "{out}/s.json"],
                   ["scorecard", "--a", good["report"], "--b", path]],
    }[role]


def mutate_container(data, raw: bytes, kind: str) -> bytes:
    blobs = dict(load_params(raw))
    name = data.draw(st.sampled_from(sorted(blobs)))
    if kind == "drop":
        del blobs[name]
    elif kind == "rename":
        blobs[data.draw(st.sampled_from([name + "x", name.upper(), name.split(".")[0]]))] = \
            blobs.pop(name)
    elif kind == "reshape":
        shape = data.draw(st.lists(st.integers(0, 5), max_size=4))
        blobs[name] = np.resize(blobs[name], shape) if blobs[name].size else np.zeros(shape)
    else:
        a = np.array(blobs[name])
        if a.size:
            a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(st.sampled_from(POISONS))
        blobs[name] = a
    return dump_params(blobs)


def mutate_config(data, raw: bytes, kind: str) -> bytes:
    lines = raw.decode().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    key, val = (s.strip() for s in lines[i].split("=", 1))
    if kind == "drop":
        del lines[i]
    elif kind == "rename":
        lines[i] = f"{data.draw(st.sampled_from([key + 'x', key.upper(), '']))} = {val}"
    elif kind == "reshape":
        lines[i] = f"{key} = {data.draw(st.sampled_from(['3', '3,3', '3,3,3,3', '']))}"
    else:
        lines[i] = f"{key} = {data.draw(st.sampled_from(['nan', 'inf', '-1', '0', 'x']))}"
    return "\n".join(lines).encode() + b"\n"


def mutate_report(data, raw: bytes, kind: str) -> bytes:
    doc = json.loads(raw)
    key = data.draw(st.sampled_from(sorted(doc)))
    inner = doc[key] if isinstance(doc[key], dict) and doc[key] else None
    if inner is not None and data.draw(st.booleans()):
        doc, key = inner, data.draw(st.sampled_from(sorted(inner)))  # one plane's entry
    if kind == "drop":
        del doc[key]
    elif kind == "rename":
        doc[key + "x"] = doc.pop(key)
    elif kind == "reshape":
        doc[key] = data.draw(st.sampled_from([[doc[key]], {"x": doc[key]}, [], None]))
    else:
        doc[key] = data.draw(st.sampled_from(POISONS + (-1.0, 0.0, "x", True)))
    return json.dumps(doc).encode()  # poisons write NaN and Infinity, which are not JSON


MUTATORS = {"config": mutate_config, "params": mutate_container,
            "forecast": mutate_container, "report": mutate_report}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_mutated_input_exits_clean_or_names_its_error(good, data):
    role = data.draw(st.sampled_from(sorted(MUTATORS)))
    kind = data.draw(st.sampled_from(KINDS))
    raw = good[role].read_bytes()
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "swap":
        raw = good[data.draw(st.sampled_from(sorted(set(good) - {role})))].read_bytes()
    else:
        raw = MUTATORS[role](data, raw, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / good[role].name
        path.write_bytes(raw)
        for argv in commands(good, role, path):
            event(f"{role} {kind}: {argv[0]} {run(argv)}")
