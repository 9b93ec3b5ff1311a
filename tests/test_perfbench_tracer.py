"""The benchmark's tracer wraps names the package still binds.

`Tracer.wrap` skips a name its module no longer has, so a renamed or moved
function would silently read as a zero layer metric.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, counts=None):
        self.wrapped.append((module, attr))


def test_every_wrapped_name_exists():
    rec = _Recorder()
    _load_tracer().instrument(rec)
    assert rec.wrapped
    missing = [f"{module.__name__}.{attr}" for module, attr in rec.wrapped
               if not callable(getattr(module, attr, None))]
    assert missing == []
