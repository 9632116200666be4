"""The benchmark tracer (bench/tracing.py) wraps sympoisson functions by name.

A refactor that drops, renames or moves one of them fails here, and not only
in a traced benchmark run.  The tracer module is read, never changed.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from sympoisson import registry


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_its_owners_own_dict():
    tracing = _tracing()
    for mod_name, path, _ in tracing.WRAPPED:
        owner, attr = tracing._resolve(importlib.import_module(f"sympoisson.{mod_name}"), path)
        assert callable(vars(owner).get(attr)), f"{mod_name}.{path}"


def test_every_chart_entry_keeps_its_builder_in_a_build_field():
    for ident, entry in registry.CHART_ENTRIES.items():
        assert "build" in {f.name for f in dataclasses.fields(entry)}, ident
        assert callable(entry.build), ident
