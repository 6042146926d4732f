"""The benchmark's tracing hooks still find the package attributes they wrap."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_name_existing_attributes():
    tracing = _load_tracing()
    hooks = tracing.TRACED + tracing.COUNT_ONLY
    for owner, attr, _name in hooks:
        assert attr in owner.__dict__, (owner.__name__, attr)
    before = [owner.__dict__[attr] for owner, attr, _name in hooks]
    with tracing.Recorder("count"):
        pass
    assert [owner.__dict__[attr] for owner, attr, _name in hooks] == before
