"""The benchmark's tracer wraps library functions by module attribute name.

Installing and removing it here makes a refactor that drops or renames one of
those bindings fail the test suite, not a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_binding():
    tracing = load_tracing()
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, _ in tracing.WRAPPED:
            assert getattr(module, attr).__wrapped__ is not None
    finally:
        tracer.remove()
    assert [getattr(module, attr) for module, attr, _ in tracing.WRAPPED] == originals
