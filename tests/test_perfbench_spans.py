"""The benchmark's spans still name functions that exist.

perfbench times a layer by replacing a module-level name in timeguard;
a renamed or deleted function is only reported as missing there, and its
per-layer metrics read 0.  This guard fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = sorted(
    {(module, attr) for module, attr, *_ in tracing.LAYER_SPANS + tracing.PROVIDER_SPANS}
    | set(tracing.STAMP_NAMES)
)


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_span_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
