"""The four workloads: their inputs, one closed-loop case, and the gate.

Every workload has a fixed list of case specifications.  The workload seed
does not pick other instances; it presents the same ones differently: the
map may be mirrored top to bottom and, where that leaves the work unchanged,
the customers are relabelled by a seeded permutation.  Both keep every
distance, so the search effort of a case barely depends on the seed, while
the coordinates and labels the program sees do.  The solvers' costs are
heavy-tailed over fresh random instances (one small criterion-2 case can
take 20 s), so fresh instances per seed would make the run-to-run spread
far wider than any useful regression bound.

All package functions are looked up through their modules at call time, so
the wrappers that ``tracing`` installs see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cpdptw import coalition, env, instance, network, policy, solver
from cpdptw.energy import PhysicsConfig, WindState

WORKLOADS = ("exact-small", "heuristic-mid", "rollout", "coalition-sweep")
REFERENCE = Path(__file__).with_name("reference.json")

CALM = WindState()
EAST = WindState(speed=12.0, course=0.0, model="constant")
WEST = WindState(speed=12.0, course=math.pi, model="constant")
STRATEGIES = ("paired", "uav-prior", "adr-prior")


@dataclass(frozen=True)
class Spec:
    """What one case is, before the seed's relabelling."""

    case_seed: int          # generator seed of the instance
    n: int                  # customer pairs
    n_depots: int
    n_uav: int
    n_adr: int
    wind: str = "none"      # none | east | west | turbulent
    rho: float = 0.0        # aerial blocking probability
    scorer: str = ""        # rollout only: greedy | attention
    strategy: str = "paired"


@dataclass
class Case:
    index: int
    spec: Spec
    inst: object
    fleet: object
    nets: object
    physics: object
    weights: object = None
    out: dict = field(default_factory=dict)


def _exact_small():
    # the criterion-2 mix, cases 0..27: N = 1 + s%4, 1 + s%2 depots,
    # 1 + s%2 UAVs plus one ADR
    return [Spec(s, 1 + s % 4, 1 + s % 2, 1 + s % 2, 1) for s in range(28)]


def _heuristic_mid():
    # criterion 8's instance (8 UAVs + 3 ADRs) under an east wind, and
    # shorter N = 15-18 cases with round(0.4 N) UAVs + round(0.15 N) ADRs,
    # two of which cannot place every pair.  Each pass stays near 10 s, so
    # a run times whole passes, not one.  Larger N does not fit: one N = 22
    # solve takes 5-9 s, one N = 25 solve 14-23 s.
    return [Spec(3, 20, 2, 8, 3, wind="east"),
            Spec(3, 15, 2, 6, 2),
            Spec(2, 16, 2, 6, 2, wind="west"),
            Spec(1, 15, 2, 6, 2, wind="east"),
            Spec(2, 18, 2, 7, 3)]


def _rollout():
    # N x fleet x scorer x rho in full; strategy and wind cycle over them.
    # Small fleets (3N/20 UAVs + N/10 ADRs) dead-end under the greedy
    # scorer, large ones (N + N/2) mostly complete.
    specs = []
    for n in (10, 20, 30, 40):
        for large in (False, True):
            for scorer in ("greedy", "attention"):
                for rho in (0.0, 0.3):
                    j = len(specs)
                    n_uav, n_adr = (n, n // 2) if large \
                        else (max(1, 3 * n // 20), max(1, n // 10))
                    specs.append(Spec(100 + j, n, 2, n_uav, n_adr,
                                      wind=("none", "east", "turbulent")[(j // 3) % 3],
                                      rho=rho, scorer=scorer,
                                      strategy=STRATEGIES[j % 3]))
    return specs


def _coalition_sweep():
    # 2 UAVs x 2 ADRs.  N = 4 for generator seeds 0..7 (seed 6 is the one
    # whose singletons are all feasible, so core_check runs there), plus the
    # N = 5 instance of seed 3; the other N = 5 seeds below 8 take 2-24 s
    # per sweep, longer than a pass.
    return [Spec(s, 4, 2, 2, 2) for s in range(8)] + [Spec(3, 5, 2, 2, 2)]


SPECS = {"exact-small": _exact_small, "heuristic-mid": _heuristic_mid,
         "rollout": _rollout, "coalition-sweep": _coalition_sweep}
# Relabelling changes the work of everything but the enumeration: the
# heuristic's multi-start orders and local search follow the labels (up to
# 2x in time), the B&B branches in label order (+-5% nodes), and rollout's
# aerial blocking and turbulence are drawn per labelled pair (+-5% mean
# cost).  Only exact-small, whose time is the enumeration's, relabels; the
# other workloads only mirror the map.
RELABEL = {"exact-small": True, "heuristic-mid": False, "rollout": False,
           "coalition-sweep": False}


def relabel(inst, rng, permute=True):
    """The same instance with customers permuted and maybe mirrored in y."""
    n = inst.n_customers
    perm = rng.permutation(n) if permute else np.arange(n)
    mirror = bool(rng.integers(2))
    top = inst.area_km

    def place(loc):
        return (loc[0], top - loc[1]) if mirror else loc

    customers = [dataclasses.replace(inst.customers[int(p)], id=i,
                                     pickup_loc=place(inst.customers[int(p)].pickup_loc),
                                     delivery_loc=place(inst.customers[int(p)].delivery_loc))
                 for i, p in enumerate(perm)]
    depots = [dataclasses.replace(d, id=2 * n + k, loc=place(d.loc))
              for k, d in enumerate(inst.depots)]
    return dataclasses.replace(inst, customers=customers, depots=depots).validate()


def _wind(spec):
    if spec.wind == "turbulent":
        return WindState(speed=12.0, course=0.0, model="turbulent",
                         seed=spec.case_seed)
    return {"none": CALM, "east": EAST, "west": WEST}[spec.wind]


def build_inputs(workload, seed):
    """Instances, fleets, networks and weight sets of one pass (set-up)."""
    cases = []
    for k, spec in enumerate(SPECS[workload]()):
        base = instance.generate(n_customers=spec.n, n_depots=spec.n_depots,
                                 seed=spec.case_seed)
        inst = relabel(base, np.random.default_rng([seed % 2**32, k]), RELABEL[workload])
        fleet = instance.default_fleet(spec.n_uav, spec.n_adr,
                                       inst.depot_nodes()[0])
        nets = network.build_networks(
            inst, network.AdjacencySpec(rho=spec.rho, seed=spec.case_seed))
        physics = PhysicsConfig(wind=dataclasses.replace(_wind(spec)))
        weights = policy.random_weights(spec.case_seed) \
            if spec.scorer == "attention" else None
        cases.append(Case(k, spec, inst, fleet, nets, physics, weights))
    return cases


# ---------------------------------------------------------------------------
# one case (the timed region)


def run_case(workload, case):
    """Run one case to completion; fills ``case.out`` with the reports."""
    c = case
    if workload == "exact-small":
        c.out = {"exact": solver.solve_exact(c.inst, c.fleet, c.nets, c.physics),
                 "enum": solver.solve_enumerate(c.inst, c.fleet, c.nets, c.physics),
                 "heur": solver.solve_heuristic(c.inst, c.fleet, c.nets, c.physics,
                                                seed=c.spec.case_seed)}
    elif workload == "heuristic-mid":
        c.out = {"heur": solver.solve_heuristic(c.inst, c.fleet, c.nets, c.physics,
                                                seed=c.spec.case_seed)}
    elif workload == "rollout":
        scorer = policy.attention_scorer(c.weights) \
            if c.spec.scorer == "attention" else env.greedy_nearest
        c.out = {"sol": env.rollout(scorer, c.inst, c.fleet,
                                    strategy=c.spec.strategy,
                                    seed=c.spec.case_seed,
                                    nets=c.nets, physics=c.physics)}
    elif workload == "coalition-sweep":
        c.out = {"sweep": coalition.coalition_sweep(c.inst, c.fleet, nets=c.nets,
                                                    physics=c.physics)}
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the gate (outside the timed region)


@dataclass
class Verdict:
    complete: bool              # ended with a complete, valid plan
    total: float                # Solution.total of that plan (nan otherwise)
    problems: list              # gate violations; any makes the case failed
    fingerprint: tuple          # deterministic outputs, compared across passes
    gap: float | None = None    # exact-small: heuristic over optimum


def _breakdown_problems(tag, sol):
    parts = sum(v for k, v in sol.breakdown.items() if k != "total")
    out = []
    if abs(parts - sol.total) > 1e-9:
        out.append(f"{tag}: cost terms sum to {parts!r}, total is {sol.total!r}")
    if sol.breakdown["total"] != sol.total:
        out.append(f"{tag}: breakdown total differs from Solution.total")
    return out


def _plan_problems(tag, report_or_sol, case):
    sol = getattr(report_or_sol, "solution", report_or_sol)
    if sol is None:
        return []
    out = _breakdown_problems(tag, sol)
    if sol.complete:
        out += [f"{tag}: {p}" for p in solver.validate(
            sol, case.inst, case.fleet, case.nets, case.physics)]
    return out


def optima(workload, case):
    """The case's proven optima, which every correct solver reproduces on
    every workload seed (mirroring and relabelling keep each distance):
    exact-small's optimum and every coalition cost of every sweep cell.
    Infeasible is None.  Other workloads have none."""
    def value(x):
        return x if math.isfinite(x) else None
    o = case.out
    if workload == "exact-small":
        ex = o["exact"]
        return {"optimum": ex.solution.total if ex.feasible else None}
    if workload == "coalition-sweep":
        out = {}
        for cell in o["sweep"].cells:
            if not cell.failed:
                for coalition, cost in cell.table.costs.items():
                    out[f"{cell.d}x{cell.r} {coalition.label()}"] = value(cost)
        return out
    return None


_reference = {}


def _reference_problems(workload, case):
    """Optima that differ from ``reference.json`` (relative tolerance 1e-9)."""
    got = optima(workload, case)
    if got is None:
        return []
    if not _reference:
        _reference.update(json.loads(REFERENCE.read_text()))
    want = _reference[workload][case.index]
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key, "missing"), want.get(key, "missing")
        same = a == b or (isinstance(a, float) and isinstance(b, float)
                          and abs(a - b) <= 1e-9 * max(1.0, abs(b)))
        if not same:
            out.append(f"{key} is {a!r}, the reference optimum is {b!r}")
    return out


def check_case(workload, case):
    """Correctness gate for one finished case."""
    o = case.out
    problems = _reference_problems(workload, case)
    if workload == "exact-small":
        ex, en, he = o["exact"], o["enum"], o["heur"]
        for tag, rep in (("exact", ex), ("enum", en), ("heur", he)):
            problems += _plan_problems(tag, rep, case)
        if ex.feasible != en.feasible or ex.feasible != he.feasible:
            problems.append(f"feasibility differs: exact {ex.feasible}, "
                            f"enum {en.feasible}, heur {he.feasible}")
        gap = None
        if ex.feasible and en.feasible:
            if ex.solution.total != en.solution.total:
                problems.append(f"exact {ex.solution.total!r} != "
                                f"enumeration {en.solution.total!r}")
            if not ex.proven_optimal:
                problems.append("exact search stopped before proving optimality")
            if he.feasible:
                if he.solution.total < ex.solution.total - 1e-9:
                    problems.append(f"heuristic {he.solution.total!r} below "
                                    f"optimum {ex.solution.total!r}")
                gap = (he.solution.total - ex.solution.total) / ex.solution.total
        done = ex.feasible and ex.solution.complete
        total = ex.solution.total if done else math.nan
        fp = (ex.nodes_expanded, en.nodes_expanded, he.nodes_expanded,
              repr(total), repr(he.solution.total if he.feasible else None))
        return Verdict(done, total, problems, fp, gap)
    if workload == "heuristic-mid":
        he = o["heur"]
        problems += _plan_problems("heur", he, case)
        done = he.feasible and he.solution.complete
        total = he.solution.total if done else math.nan
        return Verdict(done, total, problems, (he.nodes_expanded, repr(total)))
    if workload == "rollout":
        sol = o["sol"]
        problems += _plan_problems("rollout", sol, case)
        served = {v.node for r in sol.routes for v in r.visits
                  if not case.inst.is_depot(v.node)}
        if sol.complete != (len(served) == 2 * case.inst.n_customers):
            problems.append("complete flag disagrees with the served nodes")
        steps = sum(len(r.visits) for r in sol.routes)
        return Verdict(sol.complete, sol.total if sol.complete else math.nan,
                       problems, (steps, sol.complete, repr(sol.total)))
    if workload == "coalition-sweep":
        sweep = o["sweep"]
        problems += [f"cell ({c.d}, {c.r}) failed: {c.error}"
                     for c in sweep.cells if c.failed]
        grand = sweep.cell(sweep.m, sweep.n).cost
        done = not problems and math.isfinite(grand)
        fp = tuple((c.d, c.r, repr(c.cost), c.core_nonempty) for c in sweep.cells)
        return Verdict(done, grand if done else math.nan, problems, fp)
    raise ValueError(f"unknown workload {workload!r}")
