"""The benchmark's tracer still fits the program it wraps.

perfbench/tracing.py wraps gridcast functions at the module attributes their
callers look up, and wraps the offload stub's OffloadEngine.close. This test
imports it against src/, installs and uninstalls it, and checks that every
site it wraps today is still there and is put back; a change that drops the
offload stub, OffloadEngine.close or a traced site fails here before the
harness breaks at import or silently stops timing a layer.
"""

import importlib.util
from pathlib import Path

import gridcast

ROOT = Path(__file__).resolve().parents[1]

# SITES entries the tracer skips because the program no longer defines them:
# the names moved into model.encode_sources, rollout.forecast and the stub
STALE = {
    ("gridcast.cli", "backward"), ("gridcast.cli", "encode"), ("gridcast.cli", "decode"),
    ("gridcast.cli", "process"), ("gridcast.cli", "rollout"), ("gridcast.cli", "blend_latents"),
    ("gridcast.training", "encode"), ("gridcast.training", "blend_latents"),
    ("gridcast.rollout", "encode"), ("gridcast.model", "blend_latents"),
    ("gridcast.offload.OffloadEngine", "run_segments"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _name(owner):
    """A module's or a class's dotted name."""
    return f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) \
        else owner.__name__


def test_tracer_installs_on_every_site_and_uninstalls_cleanly():
    assert Path(gridcast.__file__).resolve().parent == ROOT / "src" / "gridcast"
    tracing = _tracing()
    engine = tracing.offload.OffloadEngine
    sites = [(owner, attr) for owner, attr, _ in tracing.SITES] + [(engine, "close")]
    before = {(id(owner), attr): owner.__dict__.get(attr) for owner, attr in sites}
    skipped = {(_name(owner), attr) for owner, attr, _ in tracing.SITES
               if owner.__dict__.get(attr) is None}
    assert skipped == STALE

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in sites:
            fn = before[(id(owner), attr)]
            if fn is not None:
                assert owner.__dict__[attr] is not fn, f"{_name(owner)}.{attr} not wrapped"
        engine().close()  # the wrapped stub runs; outside an op nothing is counted
    finally:
        tracer.uninstall()
    assert tracer.counts == []
    for owner, attr in sites:
        assert owner.__dict__.get(attr) is before[(id(owner), attr)], \
            f"{_name(owner)}.{attr} not restored"

