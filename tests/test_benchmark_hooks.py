"""The benchmark's tracing hooks still find the package attributes they wrap,
its coalition sweep still reproduces the recorded optima, and its exact-small
cases still pass its correctness gate."""

import importlib.util
import json
import sys
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


def _load_cases(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", TRACING.with_name("cases.py"))
    cases = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, cases)   # for its dataclasses
    spec.loader.exec_module(cases)
    return cases


def test_coalition_sweep_reproduces_the_benchmark_reference(monkeypatch):
    cases = _load_cases(monkeypatch)
    case = cases.build_inputs("coalition-sweep", 1)[0]
    cases.run_case("coalition-sweep", case)
    reference = json.loads(cases.REFERENCE.read_text())
    assert cases.optima("coalition-sweep", case) == reference["coalition-sweep"][0]


def test_exact_small_passes_the_benchmark_gate(monkeypatch):
    """Every exact-small case on the held-out seed's relabelled maps: exact
    == enumeration, valid plans, and the recorded optima."""
    cases = _load_cases(monkeypatch)
    inputs = cases.build_inputs("exact-small", 7919)
    assert len(inputs) == 28
    for case in inputs:
        cases.run_case("exact-small", case)
        assert cases.check_case("exact-small", case).problems == [], case.index
