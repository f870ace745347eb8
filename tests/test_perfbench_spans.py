"""Every span of the benchmark's tracer still names a package callable.

`perfbench/tracing.py` wraps package functions by "module:attribute"
name and reports a name that no longer resolves as an absent layer, so a
renamed function silently drops its span.  This reads the tracer's span
table without installing it and resolves each site as the tracer does.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(site):
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_resolves_to_a_callable_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    absent = [name for name, sites in tracing.SPANS.items()
              if not any(callable(_resolve(site)) for site in sites)]
    assert absent == []
