"""Acceptance gate: every shipped guarantee exercised at its stated tolerance.

Each test prints one ``PASS`` line describing what was measured, so a
verbose run reads as a checklist.  These tests are intentionally heavier
than the per-module suites (hundreds of solver instances, a thousand
simulator episodes) and together take on the order of a minute.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cpdptw import cli, env, instance, policy, solver, toy
from cpdptw.coalition import (Coalition, CoalitionTable, agent_label,
                              check_convexity, check_subadditivity, core_check)
from cpdptw.energy import (AdrParams, PhysicsConfig, UavParams, WindState,
                           adr_power, angle_of_attack, effective_airspeed,
                           induced_velocity)
from cpdptw.instance import Instance
from cpdptw.network import AdjacencySpec, build_networks
from branch_and_bound import solve_bnb


# ---------------------------------------------------------------------------
# 1. worked-example fidelity


def test_criterion_1_worked_example_fidelity(capsys):
    start = time.perf_counter()
    rc = cli.main(["toy"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0
    assert elapsed < 1.0, f"toy report took {elapsed:.2f}s"

    got = toy.headline_costs()
    published = {"solo_adr": 14.08, "solo_uav1": 6.80, "solo_uav2": 5.41,
                 "separate": 26.29, "cooperative": 13.38}
    for key, want in published.items():
        assert got[key] == pytest.approx(want, abs=0.05), key
    # both known inconsistencies in the reference figures are called out
    assert "20.04" in out and "14.08 + 6.33 = 20.41" in out
    assert "final-leg delay of 5.9" in out and "0.19" in out
    with capsys.disabled():
        print(f"\nPASS criterion 1: five headline figures within +/-0.05, "
              f"both reference inconsistencies documented, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2-3. exact solver vs an independent branch and bound; heuristic quality


def _sweep_case(seed):
    inst = instance.generate(n_customers=1 + seed % 4, n_depots=1 + seed % 2,
                             seed=seed)
    n_vehicles = 2 + seed % 2
    fleet = instance.default_fleet(n_vehicles - 1, 1, inst.depot_nodes()[0])
    return inst, fleet


@pytest.fixture(scope="module")
def solver_sweep():
    cases = []
    start = time.perf_counter()
    for seed in range(200):
        inst, fleet = _sweep_case(seed)
        exact = solver.solve_exact(inst, fleet)
        bnb = solve_bnb(inst, fleet)
        cases.append((seed, inst, fleet, exact, bnb))
    return cases, time.perf_counter() - start


def test_criterion_2_exact_matches_enumeration(solver_sweep, capsys):
    cases, elapsed = solver_sweep
    feasible = 0
    for seed, _, _, exact, bnb in cases:
        assert exact.feasible == bnb.feasible, f"seed {seed}"
        if exact.feasible:
            feasible += 1
            assert exact.solution.total == bnb.solution.total, f"seed {seed}"
            assert exact.proven_optimal, f"seed {seed}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nPASS criterion 2: exact == branch and bound on 200 instances "
              f"({feasible} feasible), {elapsed:.1f}s < 60s")


def test_criterion_3_heuristic_quality(solver_sweep, capsys):
    cases, _ = solver_sweep
    gaps = []
    for seed, inst, fleet, exact, _ in cases:
        heur = solver.solve_heuristic(inst, fleet, seed=seed)
        assert heur.feasible == exact.feasible, f"seed {seed}"
        if not exact.feasible:
            continue
        best, got = exact.solution.total, heur.solution.total
        assert got >= best - 1e-9, f"seed {seed}: heuristic beat the optimum"
        gaps.append((got - best) / best)
    mean_gap = float(np.mean(gaps))
    assert mean_gap <= 0.15
    with capsys.disabled():
        print(f"\nPASS criterion 3: heuristic >= exact on all {len(gaps)} "
              f"feasible instances, mean gap {100 * mean_gap:.4f}% <= 15%")


# ---------------------------------------------------------------------------
# 4. cooperative-game checks against an independent grid oracle


def _proper_subsets(tbl, s):
    for t in tbl.subsets():
        if 0 < t.size < s.size and t.uavs <= s.uavs and t.adrs <= s.adrs:
            yield t


def _random_monotone_table(rng, n_uav, n_adr):
    """Random 0.1-multiple costs where supersets never get cheaper.

    Monotonicity forces every core allocation componentwise non-negative,
    and 0.1-multiple data puts every core-polytope vertex on 0.05-multiples,
    so the 0.01-step grid below is a complete search.
    """
    tbl = CoalitionTable(uav_ids=tuple(range(n_uav)),
                         adr_ids=tuple(range(n_adr)))
    for s in sorted((s for s in tbl.subsets() if s.size > 0),
                    key=lambda s: (s.size, sorted(s.uavs), sorted(s.adrs))):
        if s.size == 1:
            cost = int(rng.integers(5, 31)) / 10.0
        else:
            floor_ = max(tbl.costs[t] for t in _proper_subsets(tbl, s))
            cost = floor_ + int(rng.integers(0, 21)) / 10.0
        tbl.costs[s] = cost
    return tbl


def _grid_core_oracle(tbl, step=0.01, tol=1e-9):
    """Exhaustive grid search for a core allocation of a 2-3 agent table."""
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


def _allocation_in_core(tbl, allocation, tol=1e-6):
    assert sum(allocation.values()) == pytest.approx(tbl.cost(tbl.grand()),
                                                     abs=tol)
    for s in tbl.subsets():
        if s.size == 0 or s == tbl.grand():
            continue
        share = sum(allocation[agent_label(m, i)] for m, i in s.members())
        assert share <= tbl.cost(s) + tol, s.label()


def test_criterion_4_coalition_theory(capsys):
    # (a) the worked example is sub-additive with a nonempty core
    tbl = toy.toy_characteristic()
    assert check_subadditivity(tbl)[0]
    verdict = core_check(tbl)
    assert verdict["nonempty"] and verdict["allocation"] is not None
    _allocation_in_core(tbl, verdict["allocation"])
    assert _grid_core_oracle(tbl)

    # (b) a super-additive pair C(12) > C(1) + C(2) has an empty core
    bad = CoalitionTable(uav_ids=(0,), adr_ids=(0,))
    bad.costs[Coalition.of(uavs=[0])] = 2.0
    bad.costs[Coalition.of(adrs=[0])] = 3.0
    bad.costs[Coalition.of(uavs=[0], adrs=[0])] = 6.0
    ok, witness = check_subadditivity(bad)
    assert not ok and witness is not None
    assert core_check(bad) == {"nonempty": False, "allocation": None}
    assert not _grid_core_oracle(bad)

    # (c) the analytic core check agrees with the grid oracle on every table
    shapes = [(1, 1), (2, 1), (1, 2)]
    verdicts = {True: 0, False: 0}
    for t in range(150):
        rng = np.random.default_rng(5000 + t)
        table = _random_monotone_table(rng, *shapes[t % len(shapes)])
        analytic = core_check(table)
        assert analytic["nonempty"] == _grid_core_oracle(table), f"table {t}"
        verdicts[analytic["nonempty"]] += 1
        if analytic["nonempty"]:
            _allocation_in_core(table, analytic["allocation"])
    assert verdicts[True] >= 10 and verdicts[False] >= 10

    # (d) whenever convexity holds the core is nonempty
    convex_seen = 0
    for t in range(100):
        rng = np.random.default_rng(6000 + t)
        table = _random_monotone_table(rng, *shapes[t % len(shapes)])
        if check_convexity(table)[0]:
            convex_seen += 1
            assert core_check(table)["nonempty"], f"table {t}"
    assert convex_seen >= 5
    with capsys.disabled():
        print(f"\nPASS criterion 4: worked-example core nonempty, constructed "
              f"pair core empty, grid oracle agreement on 150/150 tables "
              f"({verdicts[True]} nonempty / {verdicts[False]} empty), "
              f"convex => nonempty on {convex_seen}/100 convex tables")


# ---------------------------------------------------------------------------
# 5. simulator invariants over 1000 greedy episodes


def test_criterion_5_simulator_invariants(capsys):
    strategies = ("paired", "uav-prior", "adr-prior")
    complete = 0
    steps_total = 0
    for i in range(1000):
        inst = instance.generate(n_customers=2 + i % 5, n_depots=1 + i % 3,
                                 seed=i)
        fleet = instance.default_fleet(1 + i % 2, 1 + (i // 2) % 2,
                                       inst.depot_nodes()[0])
        strategy = strategies[i % 3]

        # manual episode mirroring the rollout loop, asserting every action
        state = env.reset(inst, fleet)
        expected_load = [0.0] * len(fleet.vehicles)
        picked_by = {}
        trail = [[v.start_depot] for v in fleet.vehicles]
        steps = 0
        while state.t < state.step_limit():
            mask = env.feasible_mask(state)
            if not mask.any():
                break
            scores = env.greedy_nearest(state, mask)
            k, node = env._select(scores, mask, state, strategy)
            assert mask[k, node], f"episode {i}: masked action chosen"
            state = env.step(state, (k, node))
            trail[k].append(node)
            steps += 1
            if inst.is_pickup(node):
                picked_by[node] = k
                expected_load[k] += inst.node_demand(node)
            elif inst.is_delivery(node):
                assert picked_by.get(inst.pair_of(node)) == k, \
                    f"episode {i}: delivery before/without its pickup"
                expected_load[k] += inst.node_demand(node)
            for v in range(len(fleet.vehicles)):
                assert state.load[v] == expected_load[v], \
                    f"episode {i}: load drifted"
        steps_total += steps

        # the public rollout must follow the same trajectory and decompose
        sol = env.rollout(env.greedy_nearest, inst, fleet,
                          strategy=strategy, seed=i)
        assert [[v.node for v in r.visits] for r in sol.routes] == trail, \
            f"episode {i}: rollout left the manual trajectory"
        parts = sum(v for kname, v in sol.breakdown.items() if kname != "total")
        assert abs(parts - sol.total) <= 1e-9
        assert sol.breakdown["total"] == sol.total
        served = {v.node for r in sol.routes for v in r.visits
                  if inst.is_pickup(v.node) or inst.is_delivery(v.node)}
        assert sol.complete == (len(served) == 2 * inst.n_customers)
        complete += int(sol.complete)
        for route in sol.routes:
            seen = set()
            for visit in route.visits:
                if inst.is_delivery(visit.node):
                    assert inst.pair_of(visit.node) in seen, \
                        f"episode {i}: precedence violated"
                seen.add(visit.node)
            if sol.complete:
                assert route.visits[-1].load_after == 0.0
    assert complete == 525  # deterministic episode mix
    with capsys.disabled():
        print(f"\nPASS criterion 5: 1000 episodes ({steps_total} steps), zero "
              f"mask violations, exact load conservation, decomposition "
              f"<= 1e-9, precedence holds; {complete} complete")


# ---------------------------------------------------------------------------
# 6. energy-model identities


def test_criterion_6_energy_identities(capsys):
    grid_points = 0
    for mass in (2.0, 3.0, 5.0):
        for drag in (0.8, 1.2):
            for area in (0.03, 0.07):
                p = UavParams(masses_kg=[mass], drag_coeffs=[drag],
                              proj_areas_m2=[area])
                hover_sq = p.total_mass * 9.81 / (
                    2.0 * p.n_rotors * p.air_density * p.disc_area_m2)
                for v_a in np.linspace(0.0, 30.0, 10):
                    alpha = angle_of_attack(p, v_a)
                    v_i = induced_velocity(p, v_a)
                    rhs = hover_sq / math.hypot(v_a * math.cos(alpha),
                                                v_a * math.sin(alpha) + v_i)
                    assert abs(v_i - rhs) <= 1e-9
                    grid_points += 1
                assert induced_velocity(p, 0.0) \
                    == pytest.approx(math.sqrt(hover_sq), abs=1e-9)
    assert grid_points >= 100

    adr = AdrParams()
    for v in (0.5, 2.0, 8.3, 12.0):
        assert adr_power(adr, 2.0 * v) == 2.0 * adr_power(adr, v)
        assert adr_power(adr, 3.0 * v) == pytest.approx(
            3.0 * adr_power(adr, v), rel=1e-12)

    calm = WindState()
    rng = np.random.default_rng(7)
    for _ in range(50):
        v_g = float(rng.uniform(0.5, 30.0))
        chi = float(rng.uniform(0.0, 2.0 * math.pi))
        assert effective_airspeed(v_g, chi, calm, formula="vector") \
            == pytest.approx(v_g, abs=1e-9)
        assert effective_airspeed(v_g, chi, calm, formula="verbatim") \
            == pytest.approx(math.sqrt(2.0) * v_g, abs=1e-9)
    with capsys.disabled():
        print(f"\nPASS criterion 6: fixed-point residual <= 1e-9 on "
              f"{grid_points} grid points, hover closed form, exact ground "
              f"linearity, zero-wind identities (vector and verbatim)")


# ---------------------------------------------------------------------------
# 7. scorer invariants across 100 weight sets x 10 instances


def _swap_first_two_customers(inst):
    c = inst.customers
    swapped = Instance(
        [replace(c[1], id=0), replace(c[0], id=1)]
        + [c[k] for k in range(2, len(c))],
        list(inst.depots), service_time=inst.service_time,
        cost_weights=inst.cost_weights, seed=inst.seed, area_km=inst.area_km)
    swapped.validate()
    n = inst.n_customers
    perm = {j: j for j in range(inst.n_nodes)}
    perm[0], perm[1] = 1, 0
    perm[n], perm[n + 1] = n + 1, n
    return swapped, np.array([perm[j] for j in range(inst.n_nodes)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_7_scorer_invariants(capsys):
    cases = []
    for i in range(10):
        inst = instance.generate(n_customers=2 + i % 3, n_depots=1 + i % 2,
                                 seed=100 + i)
        fleet = instance.default_fleet(1 + i % 2, 1, inst.depot_nodes()[0])
        state = env.reset(inst, fleet)
        mask = env.feasible_mask(state)
        assert mask.any()
        swapped, perm = _swap_first_two_customers(inst)
        state_p = env.reset(swapped, fleet)
        mask_p = env.feasible_mask(state_p)
        # relabeling sanity: the permuted instance induces the permuted mask
        assert (mask_p[:, perm] == mask).all()
        cases.append((state, mask, state_p, mask_p, perm))

    checked = 0
    for ws in range(100):
        scorer = policy.attention_scorer(policy.random_weights(ws))
        for state, mask, state_p, mask_p, perm in cases:
            P = scorer(state, mask)
            assert np.isfinite(P).all()
            assert abs(P.sum() - 1.0) <= 1e-9
            assert (P[~mask] == 0.0).all()

            P_p = scorer(state_p, mask_p)
            assert np.isfinite(P_p).all()
            assert np.allclose(P_p[:, perm], P, atol=1e-9)
            k, j = np.unravel_index(int(np.argmax(P)), P.shape)
            kp, jp = np.unravel_index(int(np.argmax(P_p)), P_p.shape)
            if int((P >= P[k, j] - 1e-12).sum()) == 1:
                assert (kp, int(perm[jp])) == (k, j)
            else:  # tied maximum: the argmax set maps through the relabeling
                assert P_p[kp, jp] == pytest.approx(P[k, j], abs=1e-9)
            checked += 1
    assert checked == 1000
    with capsys.disabled():
        print(f"\nPASS criterion 7: {checked} weight-set x instance pairs — "
              f"distributions sum to 1 +/- 1e-9, masked pairs exactly 0, "
              f"argmax equivariant under relabeling, no NaN/Inf")


# ---------------------------------------------------------------------------
# 8. wind-direction sensitivity end to end


def test_criterion_8_wind_direction_sensitivity(capsys):
    inst = instance.generate(n_customers=20, n_depots=2, seed=3)
    fleet = instance.default_fleet(8, 3, inst.depot_nodes()[0])
    uav_energy = {}
    for name, course in (("east", 0.0), ("west", math.pi)):
        physics = PhysicsConfig(wind=WindState(speed=12.0, course=course,
                                               model="constant"))
        report = solver.solve_heuristic(inst, fleet, physics=physics)
        assert report.feasible and report.solution is not None
        assert report.solution.complete
        assert not solver.validate(report.solution, inst, fleet,
                                   physics=physics)
        uav_energy[name] = sum(
            prev.battery_after - visit.battery_arrival
            for route in report.solution.routes if route.vehicle.mode == "UAV"
            for prev, visit in zip(route.visits, route.visits[1:]))
    assert uav_energy["east"] == pytest.approx(10.365396, abs=5e-6)
    assert uav_energy["west"] == pytest.approx(11.566014, abs=5e-6)
    assert abs(uav_energy["east"] - uav_energy["west"]) > 1e-6
    with capsys.disabled():
        print(f"\nPASS criterion 8: complete feasible plans under opposing "
              f"12 m/s winds; flight energy {uav_energy['east']:.4f} kJ east "
              f"vs {uav_energy['west']:.4f} kJ west")
