"""The benchmark's tracing hooks still find the package attributes they wrap,
its coalition sweep still reproduces the recorded optima, its exact-small
and coalition-sweep cases still pass its correctness gate, and its attention
rollouts still end where they did."""

import importlib.util
import json
import sys
from pathlib import Path

from cpdptw import env

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
    """The recorded optima, with every leg of the sweep priced in one
    ``LegCosts``."""
    cases = _load_cases(monkeypatch)
    case = cases.build_inputs("coalition-sweep", 1)[0]
    made = []
    init = env.LegCosts.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(env.LegCosts, "__init__", counted)
    cases.run_case("coalition-sweep", case)
    assert len(made) == 1
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


# Coalition-sweep fingerprints ((d, r, repr(cost), core verdict) per cell) at
# the held-out seed 7919, by case index, as recorded with one branch and bound
# per distinct vehicle list.
COALITION_SWEEP_CELLS = {
    0: ((1, 1, '12.749992111611945', None),
        (1, 2, '9.554176480285943', None),
        (2, 1, '12.749992111611945', None),
        (2, 2, '9.554176480285943', None)),
    1: ((1, 1, '10.71765088319175', None),
        (1, 2, '6.083385785877239', None),
        (2, 1, '10.71765088319175', None),
        (2, 2, '6.083385785877239', None)),
    2: ((1, 1, 'inf', None),
        (1, 2, '4.587365145918222', None),
        (2, 1, 'inf', None),
        (2, 2, '4.587365145918222', None)),
    3: ((1, 1, '7.241257345374355', None),
        (1, 2, '7.241257345374355', None),
        (2, 1, '7.241257345374355', None),
        (2, 2, '7.241257345374355', None)),
    4: ((1, 1, '8.397671844555845', None),
        (1, 2, '7.753929803943804', None),
        (2, 1, '8.397671844555845', None),
        (2, 2, '7.753929803943804', None)),
    5: ((1, 1, '11.345509663795434', None),
        (1, 2, '6.626498297907286', None),
        (2, 1, '11.345509663795434', None),
        (2, 2, '6.626498297907286', None)),
    6: ((1, 1, '7.190446963208565', True),
        (1, 2, '7.190446963208565', True),
        (2, 1, '7.190446963208565', True),
        (2, 2, '7.190446963208565', True)),
    7: ((1, 1, '5.685185556602372', None),
        (1, 2, '5.685185556602372', None),
        (2, 1, '5.685185556602372', None),
        (2, 2, '5.685185556602372', None)),
    8: ((1, 1, '12.745442614409853', None),
        (1, 2, '7.6828903039869285', None),
        (2, 1, '12.745442614409853', None),
        (2, 2, '7.6828903039869285', None)),
}


def test_coalition_sweep_passes_the_benchmark_gate(monkeypatch):
    """Every coalition-sweep case at the held-out seed: no failed cell, every
    coalition cost of every cell at its reference optimum, and the cells'
    costs and core verdicts as recorded."""
    cases = _load_cases(monkeypatch)
    inputs = cases.build_inputs("coalition-sweep", 7919)
    assert [case.index for case in inputs] == list(COALITION_SWEEP_CELLS)
    for case in inputs:
        cases.run_case("coalition-sweep", case)
        verdict = cases.check_case("coalition-sweep", case)
        assert verdict.problems == [], case.index
        assert verdict.fingerprint == COALITION_SWEEP_CELLS[case.index], case.index


# Rollout fingerprints (steps, complete, repr(total)) of the attention cases
# with N <= 30 at the held-out seed 7919, by case index, as recorded with the
# per-(node, head) encoder loop.  An ulp-level change in the encoder can flip
# a near-tie argmax and end an episode elsewhere.
ATTENTION_ROLLOUTS = {
    2: (20, False, "21.408198476642227"),
    3: (11, False, "8.282463972010973"),
    6: (45, False, "31.71397756777344"),
    7: (45, True, "47.79441558167962"),
    10: (41, False, "42.51730356644079"),
    11: (45, False, "61.25701021347064"),
    14: (99, False, "51.5982801783538"),
    15: (88, True, "70.28456962110243"),
    18: (62, False, "58.94740750511091"),
    19: (61, False, "67.09131131036138"),
    22: (129, True, "91.20886519030084"),
    23: (128, False, "79.60632664082371"),
}


def test_attention_rollouts_keep_their_fingerprints(monkeypatch):
    cases = _load_cases(monkeypatch)
    picked = [c for c in cases.build_inputs("rollout", 7919)
              if c.spec.scorer == "attention" and c.spec.n <= 30]
    assert [c.index for c in picked] == list(ATTENTION_ROLLOUTS)
    for case in picked:
        cases.run_case("rollout", case)
        verdict = cases.check_case("rollout", case)
        assert verdict.problems == [], case.index
        assert verdict.fingerprint == ATTENTION_ROLLOUTS[case.index], case.index
