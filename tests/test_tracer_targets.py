"""The benchmark tracer's targets still name library functions.

``benchmark/spans.py`` wraps the functions listed in ``TARGETS`` by module
attribute; a renamed or removed one would make a traced benchmark run crash.
The file is loaded here read-only, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves_to_a_callable():
    spans = _load_spans()
    for modname, fname, layer in spans.TARGETS:
        fn = getattr(importlib.import_module(modname), fname, None)
        assert callable(fn), f"{modname}.{fname}"
        assert layer in spans.LAYERS


def test_every_counter_names_a_target():
    spans = _load_spans()
    names = {fname for _, fname, _ in spans.TARGETS}
    assert set(spans.COUNTERS) <= names
