"""The benchmark's span tracer wraps entry points it looks up by name: every
SPANS entry in its owner's own `__dict__`, plus the `CenterIndex.track_dist`
attribute it reads to name the center-index update span. A refactor that
moves or renames one of them must fail here, not only in the benchmark's
smoke test."""

import importlib
from pathlib import Path

import dynkmeans

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _owner(mod_name, owner_name):
    mod = importlib.import_module(f"dynkmeans.{mod_name}")
    return mod if owner_name is None else getattr(mod, owner_name)


def test_tracer_installs_and_uninstalls_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    sites = [site for spans in tracer.SPANS.values() for site in spans]
    before = {site: _owner(*site[:2]).__dict__[site[2]] for site in sites}
    tr = tracer.Tracer()
    tr.install(dynkmeans)
    try:
        for (mod_name, owner_name, attr), fn in before.items():
            wrapped = _owner(mod_name, owner_name).__dict__[attr]
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    finally:
        tr.uninstall()
    for (mod_name, owner_name, attr), fn in before.items():
        assert _owner(mod_name, owner_name).__dict__[attr] is fn
    assert hasattr(dynkmeans.CenterIndex, "track_dist")
