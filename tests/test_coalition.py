"""Cooperative-game layer: characteristic tables, checks, core, sweeps."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from cpdptw import coalition, env, instance, network, solver, toy
from cpdptw.coalition import (Coalition, CoalitionTable, agent_label,
                              build_table, check_convexity,
                              check_subadditivity, coalition_sweep, core_check,
                              sweep_summary, sweep_to_csv)
from cpdptw.energy import PhysicsConfig, WindState
from cpdptw.instance import FleetSpec
from branch_and_bound import solve_bnb


# -- random tables -----------------------------------------------------------------
#
# Costs are 0.1-multiples and monotone (supersets never get cheaper).  Under
# monotonicity every core allocation is componentwise non-negative (the
# grand-coalition residual of each agent is bounded below by a superset
# difference), and with 0.1-multiple data every vertex of the core polytope
# lies on 0.05-multiples, so a 0.01-step grid over [0, C(grand)] is a
# complete search — an independent oracle for core emptiness.


def _proper_subsets(tbl, s):
    for t in tbl.subsets():
        if 0 < t.size < s.size and t.uavs <= s.uavs and t.adrs <= s.adrs:
            yield t


def _random_monotone_table(rng, n_uav, n_adr):
    tbl = CoalitionTable(uav_ids=tuple(range(n_uav)),
                         adr_ids=tuple(range(n_adr)))
    for s in sorted((s for s in tbl.subsets() if s.size > 0),
                    key=lambda s: (s.size, sorted(s.uavs), sorted(s.adrs))):
        if s.size == 1:
            cost = int(rng.integers(5, 31)) / 10.0          # 0.5 .. 3.0
        else:
            floor_ = max(tbl.costs[t] for t in _proper_subsets(tbl, s))
            cost = floor_ + int(rng.integers(0, 21)) / 10.0  # + 0.0 .. 2.0
        tbl.costs[s] = cost
    return tbl


def _random_free_table(rng, n_uav, n_adr):
    """Arbitrary positive 0.1-multiple costs (not necessarily monotone)."""
    tbl = CoalitionTable(uav_ids=tuple(range(n_uav)),
                         adr_ids=tuple(range(n_adr)))
    for s in tbl.subsets():
        if s.size > 0:
            tbl.costs[s] = int(rng.integers(1, 61)) / 10.0
    return tbl


def _grid_core_oracle(tbl, step=0.01, tol=1e-9):
    """Exhaustive 0.01-grid search for a core allocation (2-3 agents)."""
    agents = tbl.agents()
    grand = tbl.cost(tbl.grand())
    idx = {a: i for i, a in enumerate(agents)}
    constraints = []
    for s in tbl.subsets():
        if 0 < s.size < len(agents):
            member = np.zeros(len(agents), dtype=bool)
            for m in s.members():
                member[idx[m]] = True
            constraints.append((member, tbl.cost(s)))
    axis = np.arange(int(round(grand / step)) + 1) * step
    if len(agents) == 2:
        shares = [axis, grand - axis]
        ok = shares[1] >= -tol
    elif len(agents) == 3:
        shares = [axis[:, None], axis[None, :], None]
        shares[2] = grand - shares[0] - shares[1]
        ok = shares[2] >= -tol
    else:
        raise NotImplementedError("oracle covers 2-3 agents")
    for member, cost in constraints:
        total = sum(s for s, m in zip(shares, member) if m)
        ok = ok & (total <= cost + tol)
    return bool(np.any(ok))


def _assert_core_allocation_valid(tbl, allocation, tol=1e-6):
    total = sum(allocation.values())
    assert total == pytest.approx(tbl.cost(tbl.grand()), abs=tol)
    for s in tbl.subsets():
        if s.size == 0 or s == tbl.grand():
            continue
        share = sum(allocation[agent_label(m, i)] for m, i in s.members())
        assert share <= tbl.cost(s) + tol, s.label()


# -- reference example ----------------------------------------------------------


def test_reference_table_values():
    tbl = toy.toy_characteristic()
    want = {
        "{D1}": 6.7993384, "{D2}": 5.4000349, "{R1}": 14.1214756,
        "{D1,D2}": 6.3213456, "{D1,R1}": 20.9208140, "{D2,R1}": 19.5215105,
        "{D1,D2,R1}": 13.4012237,
    }
    got = {s.label(): tbl.cost(s) for s in tbl.subsets() if s.size > 0}
    assert set(got) == set(want)
    for label, value in want.items():
        assert got[label] == pytest.approx(value, abs=1e-6), label


def test_reference_table_checks_and_core():
    tbl = toy.toy_characteristic()
    assert tbl.subadditive is True and tbl.sub_witness is None
    assert tbl.convex is True
    assert tbl.core["nonempty"]
    alloc = tbl.core["allocation"]
    assert set(alloc) == {"D1", "D2", "R1"}
    _assert_core_allocation_valid(tbl, alloc)
    assert _grid_core_oracle(tbl)   # independent confirmation


def test_pairwise_coalitions_price_by_cheapest_split():
    """No published joint plan for {D1,R1}: its cost is the sum of solos."""
    tbl = toy.toy_characteristic()
    d1 = tbl.cost(Coalition.of(uavs=[0]))
    r1 = tbl.cost(Coalition.of(adrs=[0]))
    assert tbl.cost(Coalition.of(uavs=[0], adrs=[0])) == \
        pytest.approx(d1 + r1, abs=1e-9)


# -- coalition helpers -------------------------------------------------------------


def test_coalition_set_algebra_and_labels():
    a = Coalition.of(uavs=[0], adrs=[0])
    b = Coalition.of(uavs=[1])
    assert a.isdisjoint(b)
    u = a.union(b)
    assert u.size == 3 and u.label() == "{D1,D2,R1}"
    assert u.intersection(a) == a
    assert a.members() == (("UAV", 0), ("ADR", 0))
    assert agent_label("UAV", 1) == "D2" and agent_label("ADR", 0) == "R1"
    assert Coalition.of().label() == "{}"


def test_table_cost_lookup_errors():
    tbl = CoalitionTable(uav_ids=(0,), adr_ids=())
    assert tbl.cost(Coalition.of()) == 0.0
    with pytest.raises(ValueError, match="incomplete"):
        tbl.cost(Coalition.of(uavs=[0]))


def test_table_rejects_out_of_pool_ids():
    inst = instance.generate(n_customers=1, seed=0)
    pool = instance.default_fleet(1, 1, inst.depot_nodes()[0])
    tbl = build_table(inst, pool, cost_fn=lambda uavs, adrs: 1.0)
    with pytest.raises(ValueError, match="incomplete"):
        tbl.cost(Coalition.of(uavs=[5]))


def test_table_takes_cheapest_partition():
    def cost_fn(uavs, adrs):
        return 5.0 if len(uavs) == 2 else 1.0
    inst = instance.generate(n_customers=1, seed=0)
    pool = instance.default_fleet(2, 1, inst.depot_nodes()[0])
    tbl = build_table(inst, pool, cost_fn=cost_fn)
    assert tbl.cost(Coalition.of(uavs=[0, 1])) == pytest.approx(2.0)  # split wins


def _uav_pair(depot):
    """A default UAV, one whose 0.5 kJ battery cannot serve alone, an ADR."""
    uav, adr = instance.default_fleet(1, 1, depot).vehicles
    return uav, dataclasses.replace(uav, battery=0.5), adr


def _count_walks(monkeypatch):
    """Vehicles whose route table is walked, in order; a call to
    ``solve_exact`` or ``solve_heuristic`` from the coalition module fails
    the test."""
    walks = []
    walk = solver._route_table

    def counted(ctx, k, budget):
        walks.append(ctx.fleet.vehicles[k])
        return walk(ctx, k, budget)

    def no_search(*args, **kwargs):
        raise AssertionError("the coalition module called a solver")
    monkeypatch.setattr(solver, "_route_table", counted)
    monkeypatch.setattr(coalition, "solve_exact", no_search)
    monkeypatch.setattr(coalition, "solve_heuristic", no_search)
    return walks


@pytest.mark.parametrize("equal, walks", [(True, 2), (False, 3)])
def test_equal_vehicles_share_one_route_table(monkeypatch, equal, walks):
    inst = instance.generate(2, n_depots=1, seed=5)
    uav, weak, adr = _uav_pair(inst.depot_nodes()[0])
    walked = _count_walks(monkeypatch)
    build_table(inst, [uav, uav if equal else weak, adr])
    assert len(walked) == walks


def _sweep_case(n, seed):
    """N pairs on two depots and a 2x2 default fleet."""
    inst = instance.generate(n, n_depots=2, seed=seed)
    return inst, instance.default_fleet(2, 2, inst.depot_nodes()[0])


def _infeasible_corner():
    """N=4 and a 2x2 default fleet; cells with one ADR serve no full plan."""
    return _sweep_case(4, 2)


# (solver_choice, N, generator seed, modes walked): the default prices N = 4
# exactly; the heuristic walks no table
_SWEEP_CHOICES = [(None, 4, 2, ["UAV", "ADR"]),
                  ("exact", 6, 0, ["UAV", "ADR"]),
                  ("heuristic", 6, 0, [])]


@pytest.mark.parametrize("choice, n, seed, modes", _SWEEP_CHOICES,
                         ids=["default", "exact", "heuristic"])
def test_sweep_walks_each_distinct_vehicle_once(monkeypatch, choice, n, seed,
                                                modes):
    inst, pool = _sweep_case(n, seed)
    walked = _count_walks(monkeypatch)
    sweep = coalition_sweep(inst, pool, solver_choice=choice)
    assert not any(cell.failed for cell in sweep.cells)
    assert [v.mode for v in walked] == modes


def test_sweep_builds_the_networks_once(monkeypatch):
    builds = []
    for module in (coalition, solver):
        def counted(inst, *args, _build=module.build_networks, **kwargs):
            builds.append(inst)
            return _build(inst, *args, **kwargs)
        monkeypatch.setattr(module, "build_networks", counted)
    inst, pool = _infeasible_corner()
    for choice in (None, "heuristic"):
        builds.clear()
        coalition_sweep(inst, pool, solver_choice=choice)
        assert builds == [inst], choice
        builds.clear()
        build_table(inst, pool, solver_choice=choice)
        assert builds == [inst], choice
    builds.clear()
    coalition_sweep(inst, pool, cost_fn=lambda uavs, adrs: 1.0)
    assert builds == []


@pytest.mark.parametrize("choice, n, seed, modes", _SWEEP_CHOICES,
                         ids=["default", "exact", "heuristic"])
def test_sweep_prices_its_legs_in_one_table(monkeypatch, choice, n, seed,
                                            modes):
    """Every joint cost of a sweep or a table shares one LegCosts."""
    made = []
    init = env.LegCosts.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(env.LegCosts, "__init__", counted)
    inst, pool = _sweep_case(n, seed)
    sweep = coalition_sweep(inst, pool, solver_choice=choice)
    assert len(made) == 1 and not any(cell.failed for cell in sweep.cells)
    made.clear()
    build_table(inst, pool, solver_choice=choice)
    assert len(made) == 1


def test_exact_sweep_equals_solve_exact_per_coalition():
    """Above the exact limit the sweep's shared tables price every
    coalition bit for bit as ``solve_exact`` on its own vehicles does."""
    inst, pool = _sweep_case(6, 0)
    assert 2 * inst.n_customers > solver.EXACT_NODE_LIMIT
    nets = network.build_networks(inst)
    uavs, adrs = pool.vehicles[:2], pool.vehicles[2:]

    def alone(uav_ids, adr_ids):
        fleet = FleetSpec([uavs[i] for i in sorted(uav_ids)]
                          + [adrs[j] for j in sorted(adr_ids)])
        rep = solver.solve_exact(inst, fleet, nets=nets)
        return rep.solution.total if rep.feasible else math.inf

    got = coalition_sweep(inst, pool, solver_choice="exact", nets=nets)
    want = coalition_sweep(inst, pool, nets=nets, cost_fn=alone)
    assert any(math.isfinite(cell.cost) for cell in want.cells)
    for g, w in zip(got.cells, want.cells):
        assert (g.d, g.r, g.failed) == (w.d, w.r, False)
        assert g.table.costs == w.table.costs, (g.d, g.r)
        # repr: an infeasible cell's gain is nan on both sides
        assert repr((g.cost, g.gain, g.core_nonempty)) == \
            repr((w.cost, w.gain, w.core_nonempty))


@pytest.mark.parametrize("run", [build_table, coalition_sweep])
def test_unknown_solver_choice_is_rejected(run):
    inst, pool = _infeasible_corner()
    with pytest.raises(ValueError, match=r"exact\|heuristic.*'exakt'"):
        run(inst, pool, solver_choice="exakt")


# (n_customers, n_depots, rho, wind, generator seed): every combination of
# depots, density and wind over N = 1-5, on seeds with feasible coalitions
_DP_CASES = [(1, 1, 0.0, "calm", 0), (1, 2, 0.3, "east", 1),
             (2, 2, 0.0, "calm", 1), (2, 1, 0.3, "east", 1),
             (3, 2, 0.0, "east", 0), (3, 1, 0.3, "calm", 2),
             (4, 2, 0.3, "calm", 2), (4, 1, 0.0, "east", 1),
             (5, 1, 0.3, "calm", 2), (5, 1, 0.0, "east", 2)]


@pytest.mark.parametrize("n, depots, rho, wind, seed", _DP_CASES)
def test_route_table_joint_costs_equal_branch_and_bound(monkeypatch, n, depots,
                                                         rho, wind, seed):
    inst = instance.generate(n, n_depots=depots, seed=seed)
    nets = network.build_networks(inst, network.AdjacencySpec(rho=rho, seed=seed))
    physics = PhysicsConfig(wind={"calm": WindState(), "east": WindState(
        speed=12.0, course=0.0, model="constant")}[wind])
    uav, weak, adr = _uav_pair(inst.depot_nodes()[0])
    far_adr = dataclasses.replace(adr, start_depot=inst.depot_nodes()[-1])
    reports = []
    partition = solver._partition

    def kept(ctx, tables, nodes, t0, budget):
        reports.append((ctx.fleet, partition(ctx, tables, nodes, t0, budget)))
        return reports[-1][1]
    monkeypatch.setattr(solver, "_partition", kept)
    build_table(inst, [uav, weak, adr, far_adr], nets=nets, physics=physics)
    assert len(reports) == (11 if depots == 1 else 15)
    assert any(rep.feasible for _, rep in reports)
    for fleet, rep in reports:
        exact = solve_bnb(inst, fleet, nets, physics)
        assert rep.feasible == exact.feasible
        if rep.feasible:
            assert rep.solution.total == exact.solution.total
            assert solver.validate(rep.solution, inst, fleet, nets,
                                   physics) == []


def test_unequal_vehicles_are_each_priced_as_they_are():
    inst = instance.generate(2, n_depots=1, seed=5)
    uav, weak, adr = _uav_pair(inst.depot_nodes()[0])
    tbl = build_table(inst, [uav, weak, adr])
    for vehicle, single in ((uav, Coalition.of(uavs=[0])),
                            (weak, Coalition.of(uavs=[1])),
                            (adr, Coalition.of(adrs=[0]))):
        alone = solve_bnb(inst, FleetSpec([vehicle]))
        want = alone.solution.total if alone.feasible else math.inf
        assert tbl.cost(single) == pytest.approx(want, abs=1e-9), single.label()
    assert math.isfinite(tbl.cost(Coalition.of(uavs=[0])))
    assert math.isinf(tbl.cost(Coalition.of(uavs=[1])))

    # reversing the pool swaps the UAV labels and nothing else
    rev = build_table(inst, [adr, weak, uav])
    swap = {0: 1, 1: 0}
    for s in tbl.subsets():
        t = Coalition.of(uavs=[swap[i] for i in s.uavs], adrs=s.adrs)
        assert rev.cost(t) == pytest.approx(tbl.cost(s), abs=1e-9), s.label()


def test_build_table_solver_backend_on_single_customer():
    inst = instance.generate(n_customers=1, seed=3)
    pool = instance.default_fleet(1, 1, inst.depot_nodes()[0])
    tbl = build_table(inst, pool)
    uav_only = solve_bnb(inst, FleetSpec([pool.vehicles[0]]))
    assert uav_only.feasible
    assert tbl.cost(Coalition.of(uavs=[0])) == \
        pytest.approx(uav_only.solution.total, abs=1e-9)
    grand = tbl.cost(tbl.grand())
    singles = tbl.cost(Coalition.of(uavs=[0])) + tbl.cost(Coalition.of(adrs=[0]))
    assert grand <= singles + 1e-9


# -- theorems ----------------------------------------------------------------------


def _two_agent_table(c1, c2, c12):
    tbl = CoalitionTable(uav_ids=(0,), adr_ids=(0,))
    tbl.costs[Coalition.of(uavs=[0])] = c1
    tbl.costs[Coalition.of(adrs=[0])] = c2
    tbl.costs[Coalition.of(uavs=[0], adrs=[0])] = c12
    return tbl


def test_super_additive_pair_has_empty_core():
    tbl = _two_agent_table(2.0, 3.0, 6.0)   # C(12) > C(1) + C(2)
    holds, witness = check_subadditivity(tbl)
    assert not holds and witness is not None
    s1, s2 = witness
    assert tbl.cost(s1.union(s2)) > tbl.cost(s1) + tbl.cost(s2)
    result = core_check(tbl)
    assert result == {"nonempty": False, "allocation": None}
    assert not _grid_core_oracle(tbl)


def test_sub_additive_pair_has_core_on_the_boundary():
    tbl = _two_agent_table(2.0, 3.0, 5.0)   # exactly additive
    assert check_subadditivity(tbl)[0]
    result = core_check(tbl)
    assert result["nonempty"]
    _assert_core_allocation_valid(tbl, result["allocation"])


def test_core_check_requires_finite_costs():
    tbl = _two_agent_table(1.0, 2.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        core_check(tbl)


def test_convexity_witness_identifies_violating_pair():
    rng = np.random.default_rng(11)
    seen_fail = False
    for _ in range(60):
        tbl = _random_free_table(rng, 2, 1)
        holds, witness = check_convexity(tbl)
        if holds:
            continue
        seen_fail = True
        s1, s2 = witness
        ci = tbl.cost(s1.intersection(s2))
        assert tbl.cost(s1.union(s2)) > tbl.cost(s1) + tbl.cost(s2) - ci + 1e-9
    assert seen_fail


def test_convex_tables_always_have_nonempty_cores():
    rng = np.random.default_rng(2)
    convex_seen = 0
    for trial in range(120):
        n_uav, n_adr = (1, 1) if trial % 3 else (2, 1)
        tbl = _random_monotone_table(rng, n_uav, n_adr)
        if check_convexity(tbl)[0]:
            convex_seen += 1
            assert core_check(tbl)["nonempty"], trial
    assert convex_seen >= 10


def test_core_check_agrees_with_grid_oracle():
    rng = np.random.default_rng(7)
    verdicts = {True: 0, False: 0}
    for trial in range(120):
        if trial % 2:
            tbl = _random_monotone_table(rng, 1, 1)
        else:
            tbl = _random_monotone_table(rng, *((2, 1) if trial % 4 else (1, 2)))
        result = core_check(tbl)
        oracle = _grid_core_oracle(tbl)
        assert result["nonempty"] == oracle, \
            f"trial {trial}: simplex {result['nonempty']} grid {oracle}"
        verdicts[result["nonempty"]] += 1
        if result["nonempty"]:
            _assert_core_allocation_valid(tbl, result["allocation"])
    assert verdicts[True] >= 10 and verdicts[False] >= 10


def test_core_check_agrees_with_reference_lp_solver():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(13)
    for trial in range(60):
        tbl = _random_free_table(rng, *((1, 1) if trial % 2 else (2, 1)))
        agents = tbl.agents()
        idx = {a: i for i, a in enumerate(agents)}
        a_ub, b_ub = [], []
        for s in tbl.subsets():
            if 0 < s.size < len(agents):
                row = np.zeros(len(agents))
                for m in s.members():
                    row[idx[m]] = 1.0
                a_ub.append(row)
                b_ub.append(tbl.cost(s))
        res = scipy_opt.linprog(
            np.zeros(len(agents)), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
            A_eq=np.ones((1, len(agents))), b_eq=[tbl.cost(tbl.grand())],
            bounds=[(None, None)] * len(agents), method="highs")
        assert core_check(tbl)["nonempty"] == res.success, trial


# -- sweep -------------------------------------------------------------------------


def test_sweep_over_reference_costs(tmp_path):
    inst, fleet = toy.build_toy_instance()
    sweep = coalition_sweep(inst, fleet, cost_fn=toy.toy_cost_fn(inst))
    assert (sweep.m, sweep.n) == (2, 1)
    assert len(sweep.cells) == 2
    full = sweep.cell(2, 1)
    assert not full.failed
    assert full.cost == pytest.approx(13.4012237, abs=1e-6)
    singles = 6.7993384 + 5.4000349 + 14.1214756
    assert full.gain == pytest.approx(singles - 13.4012237, abs=1e-6)
    assert full.core_nonempty is True

    path = tmp_path / "sweep.csv"
    sweep_to_csv(sweep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d,r,C,gain,core_nonempty"
    assert len(lines) == 3
    text = sweep_summary(sweep)
    assert "coalition sweep over 2 UAV(s) x 1 ADR(s)" in text
    assert "core nonempty" in text


def test_sweep_logs_its_pricing(caplog):
    inst, pool = _infeasible_corner()
    uav, adr = pool.vehicles[0], pool.vehicles[2]
    ctx = solver._make_ctx(inst, FleetSpec([uav, adr]), None, None)
    walks = [solver._route_table(ctx, k) for k in (0, 1)]
    nodes = sum(walk[1] for walk in walks)
    dominated = sum(walk[2] for walk in walks)
    assert dominated > 0
    with caplog.at_level(logging.DEBUG, logger="cpdptw.coalition"):
        coalition_sweep(inst, pool)
        coalition_sweep(inst, pool, solver_choice="heuristic")
        coalition_sweep(*toy.build_toy_instance(),
                        cost_fn=lambda uavs, adrs: 1.0)
    # 8 distinct vehicle lists priced; 3 + 7 + 7 + 15 lookups in the cells
    assert [r.getMessage() for r in caplog.records
            if r.name == "cpdptw.coalition"] == [
        f"coalition sweep 2x2: 2 route tables walked ({nodes} nodes, "
        f"{dominated} partial routes dominated); joint costs: 8 by DP, 0 by a "
        f"solver, 0 by cost_fn, 24 from the memo",
        "coalition sweep 2x2: 0 route tables walked (0 nodes, 0 partial "
        "routes dominated); joint costs: 0 by DP, 8 by a solver, 0 by "
        "cost_fn, 24 from the memo",
        "coalition sweep 2x1: 0 route tables walked (0 nodes, 0 partial "
        "routes dominated); joint costs: 0 by DP, 0 by a solver, 7 by "
        "cost_fn, 3 from the memo"]


def test_summary_names_infeasible_cells(tmp_path):
    inst, pool = _infeasible_corner()
    sweep = coalition_sweep(inst, pool)
    text = sweep_summary(sweep)
    assert "  d=1 r=1: infeasible, no coalition of {D1,R1} serves every " \
        "pair" in text
    assert "  d=2 r=1: infeasible, no coalition of {D1,D2,R1} serves every " \
        "pair" in text
    assert "C=inf" not in text and "nan" not in text
    assert "  d=2 r=2: C=" in text
    path = tmp_path / "sweep.csv"
    sweep_to_csv(sweep, path)
    assert path.read_text().splitlines()[1] == "1,1,inf,nan,"


def test_sweep_requires_both_modes():
    inst, _ = toy.build_toy_instance()
    uav_only = instance.default_fleet(2, 0, toy.DEPOT_NODE)
    with pytest.raises(ValueError, match="each mode"):
        coalition_sweep(inst, uav_only, cost_fn=lambda u, a: 1.0)
