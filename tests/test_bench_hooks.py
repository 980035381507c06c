"""The functions the benchmark's tracer hooks by name must exist.

bench/tracing.py wraps each (module, attribute path) in SPANS and COUNTS;
a rename in sarxid would otherwise surface only in a traced bench run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTS]
)
def test_traced_names_resolve_to_callables(module, path):
    # resolved as Tracer.install does: attributes down to the owner, then its own __dict__
    holder = importlib.import_module(module)
    *owner, attr = path.split(".")
    for part in owner:
        holder = getattr(holder, part)
    assert attr in holder.__dict__, "%s has no %s" % (module, path)
    assert callable(holder.__dict__[attr])
