"""Spans and call counts recorded around the package's public functions.

The wrappers are installed on the module attributes through which the
package itself makes the calls (``cpdptw.env.leg_energy`` is what
``LegCosts`` calls, ``cpdptw.coalition.solve_exact`` what the sweep calls),
so nothing under ``src/`` changes.  Two modes:

* ``trace`` records one span per call -- name, start, end, parent, case and
  phase -- kept in memory and written out when the run ends;
* ``count`` only counts calls.  It also wraps the two leg-table lookups
  (``LegCosts.time_min`` / ``energy_kj``) and ``ModeGraph.travel_min``,
  which are called millions of times: a span on each would double a
  heuristic solve and distort the split between layers.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from cpdptw import coalition, energy, env, instance, network, policy, solver

# (owner, attribute, span name); a name may be installed at several call sites
TRACED = (
    (instance, "generate", "instance.generate"),
    (network, "build_networks", "network.build_networks"),
    (policy, "edge_features", "network.edge_features"),
    (env, "leg_energy", "energy.leg_energy"),
    (energy, "induced_velocity", "energy.induced_velocity"),
    (env, "reset", "env.reset"),
    (env, "feasible_mask", "env.feasible_mask"),
    (env, "step", "env.step"),
    (env, "episode_cost", "env.episode_cost"),
    (solver, "episode_cost", "env.episode_cost"),
    (env, "rollout", "env.rollout"),
    (solver, "solve_exact", "solver.solve_exact"),
    (solver, "solve_enumerate", "solver.solve_enumerate"),
    (solver, "solve_heuristic", "solver.solve_heuristic"),
    (solver, "validate", "solver.validate"),
    (coalition, "solve_exact", "solver.solve_exact"),
    (coalition, "solve_heuristic", "solver.solve_heuristic"),
    (policy, "encode", "policy.encode"),
    (policy, "init_embeddings", "policy.init_embeddings"),
    (policy, "gat_layer", "policy.gat_layer"),
    (policy, "decode_scores", "policy.decode_scores"),
    (coalition, "coalition_sweep", "coalition.coalition_sweep"),
    (coalition, "check_convexity", "coalition.check_convexity"),
    (coalition, "core_check", "coalition.core_check"),
)
COUNT_ONLY = (
    (env.LegCosts, "time_min", "env.legcosts.time_min"),
    (env.LegCosts, "energy_kj", "env.legcosts.energy_kj"),
    (network.ModeGraph, "travel_min", "network.travel_min"),
)
# solver entry points also add their report's work counter
NODES = {"solver.solve_exact", "solver.solve_enumerate", "solver.solve_heuristic"}
# calls the coalition module makes into the solver
SOLVER_CALLS_FROM_SWEEP = {(coalition, "solve_exact"), (coalition, "solve_heuristic")}


class Recorder:
    """In-memory spans and counters of one pass.

    ``phase`` is "setup", "case" or "gate"; counters only advance in the
    "case" phase, and spans carry their phase so set-up and gate time can be
    told apart from case time.
    """

    def __init__(self, mode):
        if mode not in ("trace", "count"):
            raise ValueError(f"mode: trace|count, got {mode!r}")
        self.mode = mode
        self.spans = []          # [name, start, end, parent, case, phase]
        self.stack = []
        self.counts = Counter()
        self._discard = Counter()
        self.case = -1
        self.phase = "setup"
        self._saved = []

    def set_phase(self, phase, case=-1):
        self.phase = phase
        self.case = case

    def _tally(self, name, result, sweep_call, nodes_key):
        sink = self.counts if self.phase == "case" else self._discard
        sink[name] += 1
        if sweep_call:
            sink["coalition.solver_calls"] += 1
        if nodes_key is not None:
            sink[nodes_key] += result.nodes_expanded

    def _wrap(self, name, fn, sweep_call):
        rec = self
        nodes_key = name + ".nodes" if name in NODES else None

        if self.mode == "count":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                rec._tally(name, result, sweep_call, nodes_key)
                return result
            return wrapper

        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          rec.case, rec.phase])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            rec._tally(name, result, sweep_call, nodes_key)
            return result
        return wrapper

    def __enter__(self):
        targets = TRACED + (COUNT_ONLY if self.mode == "count" else ())
        for owner, attr, name in targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr,
                    self._wrap(name, fn, (owner, attr) in SOLVER_CALLS_FROM_SWEEP))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    @contextmanager
    def case_span(self, index):
        """One root span per case: the benchmark's own share of the time."""
        self.set_phase("case", index)
        idx = len(self.spans)
        self.spans.append(["bench.case", 0.0, 0.0, -1, index, "case"])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1] = start
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
            self.set_phase("setup")


def summarize(spans):
    """Inclusive time per (phase, name) and self time per (phase, module).

    Self time is a span's duration minus the part its direct children cover
    (children never overlap: there is one thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _case, _phase in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    for i, (name, start, end, _parent, _case, phase) in enumerate(spans):
        dur = end - start
        inclusive[(phase, name)] += dur
        self_time[(phase, name.split(".", 1)[0])] += dur - child[i]
    return inclusive, self_time


def span_cost_s(calls=20000):
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None
    wrapped = Recorder("trace")._wrap("probe", noop, False)
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    mid = time.perf_counter()
    for _ in range(calls):
        noop()
    return max((mid - start) - (time.perf_counter() - mid), 0.0) / calls
