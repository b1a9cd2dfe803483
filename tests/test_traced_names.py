"""The names the benchmark's tracer wraps must exist in solk.

perfbench/spans.py lists, per module, the functions (``FUNCTIONS``) and the
methods (``METHODS``) that ``Tracer.install`` looks up with ``getattr`` and
the class ``__dict__``; a name removed from solk but still listed there
breaks every traced benchmark run.  The file is loaded here read-only, so
the check follows the list as it changes.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves_on_solk():
    spans = _load_spans()
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"solk.{layer}"), name, None))
    ]
    for layer, (cls_name, methods) in spans.METHODS.items():
        cls = getattr(importlib.import_module(f"solk.{layer}"), cls_name)
        missing += [f"{layer}.{cls_name}.{m}" for m in methods if m not in cls.__dict__]
    assert missing == []
