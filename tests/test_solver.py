"""Exact solver (route tables plus DP) against the branch and bound,
insertion heuristic, validation."""

import dataclasses
import logging
import math
import random
import re

import numpy as np
import pytest

from cpdptw import env, instance, solver
from cpdptw.energy import PhysicsConfig, WindState
from cpdptw.instance import Customer, Depot, FleetSpec, Instance, Vehicle
from cpdptw.network import AdjacencySpec, build_networks
from cpdptw.solver import (SolverLimits, gap, solve_enumerate, solve_exact,
                           solve_heuristic, validate)
from branch_and_bound import solve_bnb
from conftest import make_case


def _recipe_case(seed):
    """One cell of the seeded benchmark family used across solver tests."""
    n = 1 + seed % 4
    inst = instance.generate(n_customers=n, n_depots=1 + seed % 2, seed=seed)
    nv = 2 + seed % 2
    fleet = instance.default_fleet(nv - 1, 1, inst.depot_nodes()[0])
    return inst, fleet


# -- exact vs branch and bound ---------------------------------------------------


def test_exact_equals_enumeration_on_seed_slice():
    """The route-table DP and the branch and bound (``branch_and_bound``)
    return the same optimum, bitwise, and the same plan, route by route."""
    for seed in range(40):
        inst, fleet = _recipe_case(seed)
        ex = solve_exact(inst, fleet)
        bnb = solve_bnb(inst, fleet)
        assert ex.feasible == bnb.feasible, seed
        if ex.feasible:
            assert ex.solution.total == bnb.solution.total, seed
            assert ex.proven_optimal
            assert [r.visits for r in bnb.solution.routes] == \
                [r.visits for r in ex.solution.routes], seed
        # equal vehicles share one route table: with 1 or 2 equal UAVs
        # (plus the ADR) the walks expand the same nodes
        other = instance.default_fleet(4 - len(fleet.vehicles), 1,
                                       inst.depot_nodes()[0])
        assert solve_exact(inst, other).nodes_expanded == \
            ex.nodes_expanded, seed


def _exact_equals_enumeration(n):
    """The route-table DP and the branch and bound on seeds 0-7 at ``n``
    pairs: the same optimum, bitwise, and the same plan; returns the number
    of feasible seeds."""
    feasible = 0
    for seed in range(8):
        inst = instance.generate(n_customers=n, n_depots=1 + seed % 2,
                                 seed=seed)
        fleet = instance.default_fleet(1 + seed % 2, 1, inst.depot_nodes()[0])
        ex = solve_exact(inst, fleet)
        bnb = solve_bnb(inst, fleet)
        assert ex.proven_optimal, seed
        assert ex.feasible == bnb.feasible, seed
        if ex.feasible:
            feasible += 1
            assert ex.solution.total == bnb.solution.total, seed
            assert [r.visits for r in bnb.solution.routes] == \
                [r.visits for r in ex.solution.routes], seed
    return feasible


def test_exact_equals_enumeration_at_five_pairs():
    assert _exact_equals_enumeration(5) == 5


def test_exact_equals_enumeration_at_six_pairs():
    assert _exact_equals_enumeration(6) == 4


def test_solver_plans_replay_through_the_simulator():
    """Stepping the simulator along a solver's routes rebuilds its Visit
    trails exactly: both run the same transition."""
    plans = 0
    for seed in range(16):
        inst, fleet = _recipe_case(seed)
        for report in (solve_exact(inst, fleet), solve_heuristic(inst, fleet)):
            if not report.feasible:
                continue
            s = env.reset(inst, fleet)
            for k, route in enumerate(report.solution.routes):
                for v in route.visits[1:]:
                    s = env.step(s, (k, v.node))
            assert s.visits == [r.visits for r in report.solution.routes], seed
            plans += 1
    assert plans >= 16


def test_exact_finds_early_recharge_optimum():
    """Seed 1 needs a voluntary mid-route recharge; the bound must allow it."""
    inst, fleet = _recipe_case(1)
    report = solve_exact(inst, fleet)
    assert report.feasible
    assert report.solution.total == pytest.approx(4.3483967851784, abs=1e-9)
    depot_stops = [v.node for r in report.solution.routes for v in r.visits[1:-1]
                   if inst.is_depot(v.node)]
    assert depot_stops, "optimum routes through a mid-route recharge"


def test_single_customer_route_shape():
    inst, fleet = make_case(n=1, seed=0, n_uav=1, n_adr=0)
    report = solve_exact(inst, fleet)
    assert report.feasible and report.proven_optimal
    nodes = report.solution.vehicle_nodes(0)
    d = inst.depot_nodes()[0]
    assert nodes == [d, 0, 1, d]
    assert validate(report.solution, inst, fleet) == []


def test_exact_reports_infeasible_when_demand_exceeds_capacity():
    customers = [Customer(0, (1.0, 1.0), (2.0, 2.0), 0.0, 60.0, 0.0, 60.0, 50.0)]
    inst = Instance(customers, [Depot(2, (0.0, 0.0))], area_km=5.0)
    fleet = instance.default_fleet(1, 1, 2)   # capacities 5 and 10
    report = solve_exact(inst, fleet)
    assert not report.feasible and report.solution is None
    heur = solve_heuristic(inst, fleet)
    assert not heur.feasible
    with pytest.raises(AttributeError):   # read from the solution only
        heur.feasible = True


def test_exact_solutions_validate_and_decompose():
    for seed in (0, 3, 5, 9):
        inst, fleet = _recipe_case(seed)
        report = solve_exact(inst, fleet)
        if not report.feasible:
            continue
        assert validate(report.solution, inst, fleet) == []
        recomputed = env.episode_cost(report.solution, inst)
        assert report.solution.total == pytest.approx(recomputed["total"],
                                                      abs=1e-9)


# -- move generator ----------------------------------------------------------------


def _advance_moves(ctx, k, rs, candidates):
    """Reference move generator: the moves of one route state
    ``(pos, clock, battery, load, carried)``, every leg priced by
    ``env.advance``, in ``solver._moves``'s order (candidates, then the
    direct move before the recharge stops in depot order)."""
    veh = ctx.fleet.vehicles[k]
    legs = ctx.legs
    pos, clock, batt, load, carried = rs
    n_cust = legs.n_cust
    floor = ctx.floor[k] - 1e-12
    alpha, w3e, w3l = ctx.alpha[k], ctx.w3e, ctx.w3l
    stops = [] if pos >= legs.ncust2 else None
    out = []
    for c in candidates:
        pickup = c < n_cust
        if pickup:
            if load + legs.demand[c] > veh.capacity + 1e-9:
                continue
            carried2 = carried | {c}
        else:
            carried2 = carried - {c - n_cust}
        t, arrival, dep, e_arr, _, load2, wait, late = env.advance(
            legs, veh, pos, clock, batt, load, c)
        if pickup and arrival > legs.win_l[c] + 1e-9:
            continue
        if e_arr >= floor:
            out.append(((None, c), (c, dep, e_arr, load2, carried2),
                        alpha * t + (w3e * wait if pickup else w3l * late)))
        if stops is None:
            stops = []
            for d in ctx.depots:
                t_d, _, dep_d, e_d, _, _, _, _ = env.advance(
                    legs, veh, pos, clock, batt, load, d)
                if e_d >= floor:
                    stops.append((d, dep_d, alpha * t_d))
        for d, dep_d, cost_d in stops:
            t, arrival, dep, e_arr, _, load2, wait, late = env.advance(
                legs, veh, d, dep_d, veh.battery, load, c)
            if (pickup and arrival > legs.win_l[c] + 1e-9) or e_arr < floor:
                continue
            out.append(((d, c), (c, dep, e_arr, load2, carried2),
                        cost_d + (alpha * t + (w3e * wait if pickup
                                               else w3l * late))))
    return out


def _advance_end_moves(ctx, k, rs):
    """Reference for ``solver._end_moves``: the ways to close one route
    state as ``(depot_or_None, added_cost)``, the ride home priced by
    ``env.advance``, in depot order."""
    pos, clock, batt, load, carried = rs
    if carried:
        return []
    if pos >= ctx.legs.ncust2:
        return [(None, 0.0)]
    out = []
    for d in ctx.depots:
        t_d, _, _, e_d, _, _, _, _ = env.advance(
            ctx.legs, ctx.fleet.vehicles[k], pos, clock, batt, load, d)
        if e_d >= ctx.floor[k] - 1e-12:
            out.append((d, ctx.alpha[k] * t_d))
    return out


def _bits(moves):
    """Moves with every float as its repr, for bit-for-bit comparison."""
    return [(i, move, rs[0], repr(rs[1]), repr(rs[2]), repr(rs[3]), rs[4],
             repr(dc)) for i, move, rs, dc in moves]


def _trie_nodes(node, prefix=()):
    """Every live node under a label-trie node, with its prefix."""
    yield node, prefix
    for c, child in node.children.items():
        if child is not solver._DEAD:
            yield from _trie_nodes(child, prefix + (c,))


def test_batched_moves_match_advance_per_label():
    """On every multi-label node of a heuristic's label tries, the batched
    generator gives the ``advance`` reference's moves, label by label, bit
    for bit and in order, and prices exactly the legs the reference does;
    the batched end moves give the reference's closings, depot by depot
    and label by label."""
    inst = instance.generate(n_customers=7, n_depots=2, seed=4)
    fleet = instance.default_fleet(2, 1, inst.depot_nodes()[0])
    # a small battery forces recharge stops and battery dead ends
    fleet.vehicles.append(dataclasses.replace(fleet.vehicles[0], battery=3.5))
    east = PhysicsConfig(wind=WindState(speed=12.0, course=0.0,
                                        model="constant"))
    nets = build_networks(inst)
    ctx = solver._make_ctx(inst, fleet, nets, east)
    solver._construct(ctx, "cheapest", range(inst.n_customers))
    n = inst.n_customers
    checked = composites = closed = 0
    for kind, root in ctx.roots.items():
        for node, prefix in _trie_nodes(root):
            labels = [(clock, batt) for _, clock, batt, _ in node.labels]
            if len(labels) < 2:
                continue
            candidates = sorted([p + n for p in node.carried]
                                + [p for p in range(n) if p not in prefix])
            fresh = [solver._make_ctx(inst, fleet, nets, east)
                     for _ in range(2)]
            got = solver._moves(fresh[0], kind, node.pos, node.load,
                                node.carried, labels, candidates)
            want = [(i, *move)
                    for c in candidates
                    for i, (clock, batt) in enumerate(labels)
                    for move in _advance_moves(
                        fresh[1], kind, (node.pos, clock, batt, node.load,
                                         node.carried), (c,))]
            assert _bits(got) == _bits(want), (kind, prefix)
            assert fresh[0].legs._time == fresh[1].legs._time
            assert fresh[0].legs._energy == fresh[1].legs._energy
            ends = solver._end_moves(fresh[0], kind, node.pos, node.load,
                                     node.carried, labels)
            want = [(i, d, repr(dc)) for i, (clock, batt) in enumerate(labels)
                    for d, dc in _advance_end_moves(
                        fresh[1], kind, (node.pos, clock, batt, node.load,
                                         node.carried))]
            assert [(i, d, repr(dc)) for i, d, dc in ends] == \
                [end for d in ctx.depots for end in want if end[1] == d], \
                (kind, prefix)
            checked += 1
            closed += bool(ends)
            composites += sum(move[0] is not None for _, move, _, _ in got)
    assert checked >= 10 and composites > 0 and closed > 0, \
        (checked, composites, closed)


# -- dominance pruning -------------------------------------------------------------


def _unpruned_route_table(ctx, k):
    """The reference for ``solver._route_table``: the same walk through
    ``_advance_moves``/``_advance_end_moves`` without dominance pruning."""
    n_cust = ctx.legs.n_cust
    table = {}

    def walk(rs, served, cost, trail):
        candidates = sorted([p + n_cust for p in rs[4]]
                            + [p for p in range(n_cust) if not served >> p & 1])
        for move, rs2, dcost in _advance_moves(ctx, k, rs, candidates):
            c = move[1]
            trail.append(move)
            walk(rs2, served | (1 << c) if c < n_cust else served,
                 cost + dcost, trail)
            trail.pop()
        for d, dcost in _advance_end_moves(ctx, k, rs):
            total = cost + dcost
            if served not in table or total < table[served][0]:
                table[served] = (total, list(trail), d)

    walk(ctx.fresh(k), 0, 0.0, [])
    return table


# Dominance grid cases: (generator seed, N, depots, window profile,
# alpha3_early, alpha3_late, charge-rate factor, battery factor, UAVs, rho,
# wind).  Both factors scale every vehicle's default; a charge rate of 0 is
# an instant recharge.  The pinned cases catch a rule without its margin
# (an early weight equal to the ADR's travel weight, 0.1, trades waiting
# one for one with riding, so partial routes tie to the last bit) and one
# without its battery term.
_STRESS_PINNED = [(1231, 4, 2, "uniform", 0.1, 0.05, 0.0, 0.6, 1, 0.0, "none"),
                  (1350, 4, 2, "tight", 2.0, 3.0, 1.0, 1.0, 1, 0.0, "none")]


def _stress_grid(size):
    """``size`` seeded draws over the grid's values, then the pinned cases."""
    rng = random.Random(0)
    for seed in range(size):
        yield (seed, rng.choice((1, 2, 3, 3, 4, 4)), rng.choice((1, 2)),
               rng.choice(("uniform", "poisson-peak", "tight")),
               rng.choice((0.01, 0.1, 2.0, 50.0)), rng.choice((0.0, 0.05, 3.0)),
               rng.choice((1.0, 0.0, 0.05)), rng.choice((1.0, 0.6)),
               rng.choice((1, 2)), rng.choice((0.0, 0.3, 0.7)),
               rng.choice(("none", "east", "turbulent")))
    yield from _STRESS_PINNED


def _stress_case(seed, n, depots, profile, early, late, rate, battery, n_uav,
                 rho, wind):
    inst = instance.generate(n, n_depots=depots, window_profile=profile,
                             seed=seed)
    inst = dataclasses.replace(inst, cost_weights=dataclasses.replace(
        inst.cost_weights, alpha3_early=early, alpha3_late=late))
    fleet = instance.default_fleet(n_uav, 1, inst.depot_nodes()[0])
    fleet = FleetSpec([dataclasses.replace(v, battery=v.battery * battery,
                                           charge_rate=v.charge_rate * rate)
                       for v in fleet.vehicles])
    nets = build_networks(inst, AdjacencySpec(rho=rho, seed=seed))
    wind = {"none": WindState(),
            "east": WindState(speed=12.0, course=0.0, model="constant"),
            "turbulent": WindState(speed=12.0, course=0.0, model="turbulent",
                                   seed=seed)}[wind]
    return inst, fleet, nets, PhysicsConfig(wind=wind)


def test_dominance_keeps_every_table_entry_and_plan():
    """Route tables equal the unpruned walk's entry for entry, and the
    exact solver and the branch and bound return the plan the unpruned
    tables give, visit for visit, on a seeded grid of N = 1-4."""
    feasible = dominated = 0
    for spec in _stress_grid(150):
        seed = spec[0]
        inst, fleet, nets, physics = _stress_case(*spec)
        ctx = solver._make_ctx(inst, fleet, nets, physics)
        tables = {}
        for k, kind in enumerate(ctx.kind):
            if kind in tables:
                continue
            tables[kind] = _unpruned_route_table(ctx, k)
            table, _, dropped = solver._route_table(ctx, k)
            dominated += dropped
            assert {s: (repr(c), mv, d) for s, (c, mv, d) in table.items()} \
                == {s: (repr(c), mv, d) for s, (c, mv, d)
                    in tables[kind].items()}, (seed, k)
        want = solver._partition(ctx, [tables[kind] for kind in ctx.kind],
                                 0, 0.0)
        for report in (solve_exact(inst, fleet, nets, physics),
                       solve_bnb(inst, fleet, nets, physics)):
            assert report.feasible == want.feasible, seed
            if want.feasible:
                assert [r.visits for r in report.solution.routes] == \
                    [r.visits for r in want.solution.routes], seed
        feasible += want.feasible
    assert feasible >= 75 and dominated > 0


def _full_level_partition(tables, n_cust):
    """Reference for ``solver._partition``'s plan: the same DP with vehicle
    0's level, too, over every pair set.  Returns the plan as ``(moves,
    end_depot)`` per vehicle, or None."""
    best = {0: (0.0, 0)}
    levels = [None] * len(tables)
    for k in reversed(range(len(tables))):
        level = {}
        for t, (cost_t, _, _) in tables[k].items():
            for r, (cost_r, _) in best.items():
                if t & r:
                    continue
                cost = cost_t + cost_r
                if t | r not in level or cost < level[t | r][0]:
                    level[t | r] = (cost, t)
        levels[k] = best = level
    s = (1 << n_cust) - 1
    if s not in best:
        return None
    plan = []
    for k, table in enumerate(tables):
        t = levels[k][s][1]
        plan.append(table[t][1:])
        s ^= t
    return plan


def test_partition_reads_only_the_full_set_at_vehicle_zero():
    """The DP that prices only the full pair set at vehicle 0 returns the
    full-level DP's plan, visit for visit and bit for bit in total."""
    feasible = 0
    for spec in _stress_grid(150):
        inst, fleet, nets, physics = _stress_case(*spec)
        ctx = solver._make_ctx(inst, fleet, nets, physics)
        tables = {}
        for k, kind in enumerate(ctx.kind):
            if kind not in tables:
                tables[kind] = solver._route_table(ctx, k)[0]
        tables = [tables[kind] for kind in ctx.kind]
        got = solver._partition(ctx, tables, 0, 0.0)
        want = solver._report(ctx, _full_level_partition(
            tables, inst.n_customers), 0, 0.0, True)
        assert got.feasible == want.feasible, spec
        if want.feasible:
            assert [r.visits for r in got.solution.routes] == \
                [r.visits for r in want.solution.routes], spec
            assert repr(got.solution.total) == repr(want.solution.total)
        feasible += want.feasible
    assert feasible >= 75


def test_exact_solvers_log_their_effort(caplog):
    inst, fleet = _recipe_case(3)
    lines = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cpdptw.solver"):
            ex = solve_exact(inst, fleet)
            en = solve_enumerate(inst, fleet)
        lines.append([r.getMessage() for r in caplog.records
                      if r.name == "cpdptw.solver"])
    assert lines[0] == lines[1]         # deterministic counts only
    ctx = solver._make_ctx(inst, fleet, None, None)
    walks = [solver._route_table(ctx, k) for k in sorted(set(ctx.kind))]
    nodes = sum(walk[1] for walk in walks)
    dominated = sum(walk[2] for walk in walks)
    assert dominated > 0
    assert ex.nodes_expanded == en.nodes_expanded == nodes
    line = (f"exact search: 2 route tables, {nodes} walk nodes, "
            f"{dominated} partial routes dominated")
    assert lines[0] == [line, line]


# -- limits ------------------------------------------------------------------------


def test_limits_validation():
    with pytest.raises(ValueError, match="max_nodes_expanded"):
        SolverLimits(max_nodes_expanded=0).validate()
    with pytest.raises(ValueError, match="time_budget"):
        SolverLimits(time_budget=-1.0).validate()


@pytest.mark.parametrize("limits, name", [
    (dict(max_nodes_expanded=True), "max_nodes_expanded"),
    (dict(max_nodes_expanded=2.5), "max_nodes_expanded"),
    (dict(max_nodes_expanded="100"), "max_nodes_expanded"),
    (dict(time_budget=True), "time_budget"),
    (dict(time_budget="5"), "time_budget"),
    (dict(time_budget=math.nan), "time_budget"),
], ids=["nodes-bool", "nodes-float", "nodes-str", "time-bool", "time-str",
        "time-nan"])
def test_limits_reject_wrong_types(limits, name):
    with pytest.raises(ValueError, match=name):
        SolverLimits(**limits).validate()


def test_limits_accept_numpy_numbers():
    limits = SolverLimits(max_nodes_expanded=np.int64(5),
                          time_budget=np.float64(0.5))
    assert limits.validate() is limits
    assert SolverLimits(max_nodes_expanded=5, time_budget=2).validate()


def _cut_short(caplog, inst, fleet, limits):
    """``solve_exact`` under ``limits``, with its INFO lines."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="cpdptw.solver"):
        report = solve_exact(inst, fleet, limits=limits)
    return report, [r.getMessage() for r in caplog.records
                    if r.name == "cpdptw.solver" and r.levelno == logging.INFO]


def _is_heuristic_plan(report, inst, fleet):
    heur = solve_heuristic(inst, fleet)
    assert report.feasible and not report.proven_optimal
    assert validate(report.solution, inst, fleet) == []
    assert [r.visits for r in report.solution.routes] == \
        [r.visits for r in heur.solution.routes]
    return True


def test_node_budget_drops_optimality_proof(caplog):
    """A walk cut short has no table to partition: the plan is the
    heuristic's, unproven, and one INFO line says which limit cut it."""
    inst, fleet = _recipe_case(3)
    capped, info = _cut_short(caplog, inst, fleet,
                              SolverLimits(max_nodes_expanded=1))
    assert _is_heuristic_plan(capped, inst, fleet)
    assert capped.nodes_expanded <= 2   # the node that trips the budget counts
    assert info == [f"exact search cut short by max_nodes_expanded after "
                    f"{capped.nodes_expanded} walk nodes: the plan is the "
                    f"heuristic's, not proven optimal"]
    full = solve_exact(inst, fleet)
    assert full.proven_optimal
    assert full.wall_time >= 0.0


def test_time_budget_reads_the_clock_every_256_walk_nodes(caplog,
                                                          monkeypatch):
    """Under a clock that gains a second per reading, a 2.5 s budget holds
    at the walk's start and at node 256, and is spent at node 512."""
    inst, fleet = make_case(n=5, seed=0)      # its first walk has 2779 nodes
    ticks = iter(range(1, 1000))
    monkeypatch.setattr(solver, "_time", type("Clock", (), {
        "perf_counter": staticmethod(lambda: float(next(ticks)))}))
    cut, info = _cut_short(caplog, inst, fleet, SolverLimits(time_budget=2.5))
    assert _is_heuristic_plan(cut, inst, fleet)
    assert cut.nodes_expanded == 512
    assert info == ["exact search cut short by time_budget after 512 walk "
                    "nodes: the plan is the heuristic's, not proven optimal"]


def test_time_budget_binds_the_dp(caplog, monkeypatch):
    """The clock jumps past the budget once the walks are done: the DP reads
    it and falls back to the heuristic with every walk node counted."""
    inst, fleet = _recipe_case(3)
    full = solve_exact(inst, fleet)
    now = [0.0]
    partition = solver._partition

    def late(*args):
        now[0] = 10.0
        return partition(*args)
    monkeypatch.setattr(solver, "_partition", late)
    monkeypatch.setattr(solver, "_time", type("Clock", (), {
        "perf_counter": staticmethod(lambda: now[0])}))
    cut, info = _cut_short(caplog, inst, fleet, SolverLimits(time_budget=5.0))
    assert _is_heuristic_plan(cut, inst, fleet)
    assert cut.nodes_expanded == full.nodes_expanded
    assert info == [f"exact search cut short by time_budget after "
                    f"{full.nodes_expanded} walk nodes: the plan is the "
                    f"heuristic's, not proven optimal"]


def test_budgets_above_the_walk_keep_the_proof(caplog):
    inst, fleet = _recipe_case(3)
    full = solve_exact(inst, fleet)
    roomy, info = _cut_short(caplog, inst, fleet, SolverLimits(
        max_nodes_expanded=full.nodes_expanded, time_budget=60.0))
    assert roomy.proven_optimal and info == []
    assert roomy.nodes_expanded == full.nodes_expanded
    assert [r.visits for r in roomy.solution.routes] == \
        [r.visits for r in full.solution.routes]


# -- heuristic ----------------------------------------------------------------------


def test_heuristic_never_beats_exact_and_stays_close():
    gaps = []
    for seed in range(24):
        inst, fleet = _recipe_case(seed)
        ex = solve_exact(inst, fleet)
        he = solve_heuristic(inst, fleet)
        if not ex.feasible:
            continue
        assert he.feasible, f"heuristic infeasible on solvable seed {seed}"
        assert he.solution.total >= ex.solution.total - 1e-9, seed
        assert validate(he.solution, inst, fleet) == []
        gaps.append((he.solution.total - ex.solution.total) /
                    ex.solution.total)
    assert gaps and float(np.mean(gaps)) <= 0.15


def test_heuristic_survives_single_pass_dead_end():
    """Construction order that strands global-cheapest insertion (multi-start)."""
    inst = instance.generate(n_customers=3, n_depots=1, seed=14)
    fleet = instance.default_fleet(1, 1, inst.depot_nodes()[0])
    he = solve_heuristic(inst, fleet)
    assert he.feasible
    ex = solve_exact(inst, fleet)
    assert ex.solution.total == pytest.approx(8.84296000844693, abs=1e-9)
    assert he.solution.total >= ex.solution.total - 1e-9


def test_heuristic_is_deterministic_per_seed():
    inst, fleet = make_case(n=4, seed=1, n_uav=2, n_adr=1)
    a = solve_heuristic(inst, fleet, seed=5)
    b = solve_heuristic(inst, fleet, seed=5)
    assert a.feasible and a.solution.total == b.solution.total
    assert [v.node for r in a.solution.routes for v in r.visits] == \
        [v.node for r in b.solution.routes for v in r.visits]


# Recorded before the heuristic priced candidates through its label trie:
# the trie must reproduce the earlier per-sequence sweep bit for bit.
HEURISTIC_PINS = {
    # criterion 8's instance under the east wind
    "n20-east": ((20, 3), (8, 3), "east", 115, "32.320817723705474", [
        [40, 13, 33, 19, 41, 2, 39, 22, 40, 0, 20, 40],
        [40], [40], [40], [40], [40], [40], [40],
        [40, 14, 34, 9, 29, 41, 1, 21, 5, 25, 15, 41, 3, 23, 35, 40],
        [40, 16, 36, 40, 10, 30, 8, 40, 6, 28, 26, 4, 24, 17, 40, 37, 40],
        [40, 7, 27, 41, 18, 38, 11, 40, 31, 12, 32, 41]]),
    # calm air; no start places every pair
    "n18-infeasible": ((18, 2), (7, 3), "none", 93, None, None),
    "n40": ((40, 3), (13, 5), "none", 216, "58.643432815121834", [
        [80, 27, 67, 37, 77, 14, 54, 81],
        [80, 4, 44, 25, 65, 13, 16, 53, 56, 81],
        [80, 15, 0, 40, 10, 50, 55, 80],
        [80], [80], [80], [80], [80], [80], [80], [80], [80], [80],
        [80, 34, 74, 81, 38, 2, 78, 80, 42, 9, 49, 29, 81, 69, 81],
        [80, 1, 35, 75, 41, 17, 81, 57, 81, 18, 58, 8, 81, 48, 33, 73, 81],
        [80, 7, 47, 80, 19, 59, 80, 32, 72, 24, 64, 5, 45, 80],
        [80, 22, 30, 70, 81, 39, 79, 21, 62, 80, 20, 60, 61, 36, 31, 71, 81,
         76, 81],
        [80, 6, 46, 28, 68, 80, 23, 26, 63, 11, 81, 51, 12, 66, 3, 81, 52,
         43, 81]]),
}


@pytest.mark.parametrize("name", sorted(HEURISTIC_PINS))
def test_heuristic_is_pinned_bit_for_bit(name):
    (n, seed), (n_uav, n_adr), wind, nodes, total, trail = HEURISTIC_PINS[name]
    inst = instance.generate(n_customers=n, n_depots=2, seed=seed)
    fleet = instance.default_fleet(n_uav, n_adr, inst.depot_nodes()[0])
    physics = PhysicsConfig(wind=WindState(speed=12.0, course=0.0,
                                           model="constant")) \
        if wind == "east" else None
    report = solve_heuristic(inst, fleet, physics=physics)
    assert report.nodes_expanded == nodes
    if total is None:
        assert not report.feasible and report.solution is None
        return
    assert report.feasible
    assert repr(report.solution.total) == total
    assert [[v.node for v in r.visits]
            for r in report.solution.routes] == trail


def _memo_free_sweep(ctx, k, seq):
    """Pareto sweep over ``seq`` from the depot, sharing nothing."""
    states = [(0.0, ctx.fresh(k), [])]
    for c in seq:
        states = solver._prune_states([
            (cost + dc, rs2, moves + [move])
            for cost, rs, moves in states
            for move, rs2, dc in _advance_moves(ctx, k, rs, (c,))])
        if not states:
            return math.inf, None, None
    best = None
    for cost, rs, moves in states:
        for d, dcost in _advance_end_moves(ctx, k, rs):
            key = (cost + dcost, rs[1], -1 if d is None else d)
            if best is None or key < best[0]:
                best = (key, moves, d)
    if best is None:
        return math.inf, None, None
    return best[0][0], best[1], best[2]


def test_label_trie_matches_memo_free_sweep_in_any_order():
    inst = instance.generate(n_customers=7, n_depots=2, seed=4)
    depot = inst.depot_nodes()[0]
    fleet = instance.default_fleet(2, 1, depot)
    # a small battery forces recharge stops and battery dead ends
    fleet.vehicles.append(dataclasses.replace(fleet.vehicles[0], battery=3.5))
    n = inst.n_customers
    rng = random.Random(0)
    seqs = []
    for _ in range(40):
        pairs = rng.sample(range(n), rng.randint(1, 3))
        seq = []
        for p in pairs:             # insert like the heuristic does
            i = rng.randint(0, len(seq))
            j = rng.randint(i, len(seq))
            seq = seq[:i] + [p] + seq[i:j] + [p + n] + seq[j:]
        seqs += [seq[:cut] for cut in range(len(seq) + 1)]
    jobs = [(k, s) for k in range(len(fleet.vehicles)) for s in seqs]
    ctx = solver._make_ctx(inst, fleet, None, None)
    expected = [_memo_free_sweep(ctx, k, s) for k, s in jobs]
    kinds = {"feasible": 0, "infeasible": 0, "recharge": 0}
    for plan in expected:
        kinds["infeasible" if math.isinf(plan[0]) else "feasible"] += 1
        kinds["recharge"] += any(d is not None for d, _ in plan[1] or [])
    assert min(kinds.values()) > 0, kinds

    forward = solver._make_ctx(inst, fleet, None, None)
    assert [solver._seq_eval(forward, k, s) for k, s in jobs] == expected
    assert [solver._seq_cost(forward, k, s) for k, s in jobs] == \
        [plan[0] for plan in expected]
    lookups, extensions, dead_hits, labels = forward.trie_stats
    assert extensions < lookups and dead_hits > 0 and labels > extensions

    order = list(range(len(jobs)))
    rng.shuffle(order)
    shuffled = solver._make_ctx(inst, fleet, None, None)
    got = {i: solver._seq_eval(shuffled, *jobs[i]) for i in order}
    assert [got[i] for i in range(len(jobs))] == expected
    assert shuffled.trie_stats[1] == extensions   # same prefixes, any order


def test_heuristic_logs_deterministic_trie_counts(caplog, monkeypatch):
    """The trie line repeats exactly across solves; its extensions and
    labels are the move generator's calls and labels, and its legs priced
    are the distinct legs looked up."""
    inst, fleet = make_case(n=4, seed=1, n_uav=2, n_adr=1)
    batches, legs = [], set()
    moves, time_min, energy_kj = solver._moves, env.LegCosts.time_min, \
        env.LegCosts.energy_kj

    def counted_moves(ctx, k, pos, load, carried, labels, candidates):
        batches.append(len(labels))
        return moves(ctx, k, pos, load, carried, labels, candidates)

    def counted_time(self, vehicle, i, j, half=False):
        if i != j:
            legs.add(("t", vehicle.mode, vehicle.max_speed, half, i, j))
        return time_min(self, vehicle, i, j, half)

    def counted_energy(self, vehicle, i, j, load, half=False):
        if i != j:
            legs.add(("e", vehicle.mode, vehicle.max_speed, half, load, i, j))
        return energy_kj(self, vehicle, i, j, load, half)

    monkeypatch.setattr(solver, "_moves", counted_moves)
    monkeypatch.setattr(env.LegCosts, "time_min", counted_time)
    monkeypatch.setattr(env.LegCosts, "energy_kj", counted_energy)
    lines = []
    for _ in range(2):
        batches.clear()
        legs.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cpdptw.solver"):
            solve_heuristic(inst, fleet)
        lines.append([r.getMessage() for r in caplog.records
                      if r.name == "cpdptw.solver"])
    assert lines[0] == lines[1]         # deterministic counts only
    (line,) = lines[0]
    lookups, extensions, dead, labels, priced = map(int, re.fullmatch(
        r"heuristic label trie: (\d+) lookups, (\d+) prefix extensions, "
        r"(\d+) dead-prefix hits, (\d+) labels extended, (\d+) legs priced",
        line).groups())
    assert extensions == len(batches) and labels == sum(batches)
    assert labels > extensions and dead > 0 and lookups > extensions
    assert priced == len(legs)


# -- validation ---------------------------------------------------------------------


@pytest.mark.parametrize("other_n", [3, 4])
@pytest.mark.parametrize("entry", ["solve_exact", "solve_heuristic", "reset"])
def test_networks_of_another_instance_are_rejected(entry, other_n):
    inst, fleet = make_case(n=3, seed=1)
    other, _ = make_case(n=other_n, seed=5)
    nets = build_networks(other)
    run = {"solve_exact": solve_exact, "solve_heuristic": solve_heuristic,
           "reset": env.reset}[entry]
    with pytest.raises(ValueError, match="another instance"):
        run(inst, fleet, nets)


def test_validate_flags_tampered_solutions():
    inst, fleet = make_case(n=2, seed=1, n_uav=1, n_adr=1)
    report = solve_exact(inst, fleet)
    sol = report.solution
    assert validate(sol, inst, fleet) == []

    # shift one mid-route arrival: timing and energy bookkeeping both break
    k = next(i for i, r in enumerate(sol.routes) if len(r.visits) > 2)
    broken = dataclasses.replace(sol)
    broken.routes = [dataclasses.replace(r, visits=list(r.visits))
                     for r in sol.routes]
    v = broken.routes[k].visits[1]
    broken.routes[k].visits[1] = dataclasses.replace(v, arrival=v.arrival + 5.0)
    msgs = validate(broken, inst, fleet)
    assert any("arrival" in m for m in msgs)

    # drop a whole route: its customers are reported unserved
    empty = dataclasses.replace(sol)
    empty.routes = [dataclasses.replace(r, visits=[r.visits[0], r.visits[-1]]
                                        if inst.is_depot(r.visits[-1].node)
                                        else [r.visits[0]])
                    for r in sol.routes]
    msgs = validate(empty, inst, fleet)
    assert any("never served" in m for m in msgs)


def test_validate_checks_the_plan_against_the_fleet():
    inst = instance.generate(n_customers=3, n_depots=1, seed=25)
    depot = inst.depot_nodes()[0]
    three = instance.default_fleet(3, 0, depot)
    one = instance.default_fleet(1, 0, depot)
    sol = solve_exact(inst, three).solution
    assert validate(sol, inst, three) == []
    # two routes of the three-UAV plan cost less than one UAV's optimum
    assert sol.total < solve_exact(inst, one).solution.total
    assert "3 routes for a fleet of 1 vehicles" in validate(sol, inst, one)

    mixed = instance.default_fleet(2, 1, depot)
    msgs = validate(sol, inst, mixed)
    assert msgs == ["vehicle 2: route is driven by another vehicle than the "
                    "fleet's vehicle 2"]

    k = next(i for i, r in enumerate(sol.routes) if len(r.visits) > 2)
    for field, value in (("departure", 3.0), ("battery_after", 1.0)):
        late = dataclasses.replace(sol)
        late.routes = [dataclasses.replace(r, visits=list(r.visits))
                       for r in sol.routes]
        late.routes[k].visits[0] = dataclasses.replace(
            late.routes[k].visits[0], **{field: value})
        msgs = validate(late, inst, three)
        assert any("must start fresh" in m for m in msgs), field


def test_every_entry_point_rejects_out_of_range_physics():
    """Solvers, validate and reset all check the physics they price with."""
    inst, fleet = make_case(n=2, seed=1)
    nets = build_networks(inst)
    plan = solve_exact(inst, fleet, nets).solution
    gale = PhysicsConfig(wind=WindState(speed=40.0, model="constant"))
    negative = PhysicsConfig(payload_kg_per_unit=-5.0)
    for physics, msg in ((gale, "wind speed"), (negative, "payload_kg_per_unit")):
        for solve in (solve_exact, solve_enumerate, solve_heuristic):
            with pytest.raises(ValueError, match=msg):
                solve(inst, fleet, nets, physics)
        with pytest.raises(ValueError, match=msg):
            validate(plan, inst, fleet, nets, physics)
        with pytest.raises(ValueError, match=msg):
            env.reset(inst, fleet, nets, physics)


def test_validate_flags_route_not_anchored_at_depot():
    inst, fleet = make_case(n=1, seed=0, n_uav=1, n_adr=0)
    sol = solve_exact(inst, fleet).solution
    headless = dataclasses.replace(sol)
    headless.routes = [dataclasses.replace(r, visits=r.visits[1:])
                       for r in sol.routes]
    msgs = validate(headless, inst, fleet)
    assert any("start at a depot" in m for m in msgs)


# -- gap ----------------------------------------------------------------------------


def test_gap_arithmetic():
    assert gap([11.0], 10.0) == pytest.approx(0.1)
    assert gap([10.0, 12.0], [10.0, 10.0]) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="gap"):
        gap([1.0, 2.0], [1.0, 2.0, 3.0])
