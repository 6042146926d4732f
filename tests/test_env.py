"""Simulator: reset, masking rules, transitions, costs, rollouts, writers."""

import csv
import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

from cpdptw import env, instance, toy
from cpdptw.energy import PhysicsConfig, WindState
from cpdptw.instance import Customer, Depot, FleetSpec, Instance, Vehicle
from cpdptw.network import AdjacencySpec, build_networks
from cpdptw.policy import attention_scorer, random_weights
from conftest import make_case


def _toy_state(zeta=120.0, mu=10.0):
    inst, fleet = toy.build_toy_instance()
    nets = build_networks(inst, AdjacencySpec(zeta=zeta, mu=mu))
    return inst, fleet, env.reset(inst, fleet, nets)


# -- reset --------------------------------------------------------------------


def test_reset_initial_state():
    inst, fleet, s = _toy_state()
    assert s.pos.tolist() == [toy.DEPOT_NODE] * 3
    assert s.clock.tolist() == [0.0] * 3
    assert s.load.tolist() == [0.0] * 3
    assert s.battery.tolist() == [v.battery for v in fleet.vehicles]
    assert not s.visited.any()
    assert all(len(c) == 0 for c in s.carrying)
    assert [len(v) for v in s.visits] == [1, 1, 1]
    assert s.step_limit() == env.STEP_LIMIT_FACTOR * 2 * inst.n_customers
    assert not s.all_served() and s.all_parked() and not s.terminal()


def test_reset_twice_is_identical():
    _, _, a = _toy_state()
    _, _, b = _toy_state()
    assert a.pos.tolist() == b.pos.tolist()
    assert a.battery.tolist() == b.battery.tolist()


# -- masking rules --------------------------------------------------------------


def test_mask_rule_visited_nodes_close():
    _, _, s = _toy_state()
    assert env.feasible_mask(s)[0, 0]
    s2 = env.step(s, (0, 0))
    assert s2.visited[0]
    assert not env.feasible_mask(s2)[:, 0].any()


def test_mask_rule_hard_pickup_window():
    """A pickup whose deadline cannot be met from the depot is masked."""
    customers = [Customer(0, (4.0, 4.0), (4.5, 4.5), 0.0, 1.0, 10.0, 30.0, 1.0)]
    inst = Instance(customers, [Depot(2, (0.0, 0.0))], service_time=0.0,
                    area_km=5.0)
    fleet = FleetSpec([Vehicle("UAV", 50.0, 5.0, 1e6, 1e6, 0.0, 2)])
    s = env.reset(inst, fleet)
    # dist ~5.66 km at 3 km/min ~ 1.9 min > late 1.0
    assert not env.feasible_mask(s)[0, 0]


def test_mask_rule_capacity():
    _, _, s = _toy_state()
    s = env.step(s, (2, 0))          # robot (capacity 5) picks A: load 4
    mask = env.feasible_mask(s)
    assert not mask[2, 2]            # C has demand 2.5: 6.5 > 5
    assert mask[2, 1]                # B has demand 1: fits
    assert mask[0, 2]                # drones (capacity 10) unaffected


def test_mask_rule_neighborhood():
    # spatial radius excludes the far pickup; temporal is mute from a depot
    _, _, s = _toy_state(zeta=120.0, mu=3.0)
    mask = env.feasible_mask(s)
    assert mask[0, 0] and mask[0, 1]     # dist sqrt(5) ~ 2.24 <= 3
    assert not mask[0, 2]                # dist 5.0 > 3
    # with both thresholds tiny nothing is admissible at all
    _, _, tight = _toy_state(zeta=1e-6, mu=0.05)
    assert not env.feasible_mask(tight).any()


def test_mask_rule_delivery_requires_carrier():
    inst, _, s = _toy_state()
    n = inst.n_customers
    assert not env.feasible_mask(s)[:, n:2 * n].any()   # nothing on board yet
    s = env.step(s, (0, 0))
    mask = env.feasible_mask(s)
    assert mask[0, 0 + n]
    assert not mask[1, 0 + n] and not mask[2, 0 + n]


def test_mask_no_depot_hopping():
    inst = instance.generate(n_customers=2, n_depots=3, seed=0)
    fleet = instance.default_fleet(1, 1, inst.depot_nodes()[0])
    s = env.reset(inst, fleet)
    mask = env.feasible_mask(s)
    for d in inst.depot_nodes():
        assert not mask[:, d].any()


def test_mask_battery_blocks_unreachable_pickup():
    customers = [Customer(0, (2.0, 0.0), (2.5, 0.0), 0.0, 500.0, 0.0, 500.0, 1.0)]
    inst = Instance(customers, [Depot(2, (0.0, 0.0))], service_time=0.0,
                    area_km=5.0)
    weak = FleetSpec([Vehicle("UAV", 20.0, 5.0, 0.5, 0.65, 0.0, 2)])
    strong = FleetSpec([Vehicle("UAV", 20.0, 5.0, 6.5, 0.65, 0.0, 2)])
    assert not env.feasible_mask(env.reset(inst, weak))[0, 0]
    assert env.feasible_mask(env.reset(inst, strong))[0, 0]


def test_mask_depot_return_requires_reserve():
    _, _, s = _toy_state()
    s = env.step(s, (0, 0))
    mask = env.feasible_mask(s)
    assert mask[0, toy.DEPOT_NODE]   # huge toy battery: return always fine
    assert bool(s.carrying[0]) and not s.inst.is_depot(int(s.pos[0]))


# -- transitions ----------------------------------------------------------------


def test_step_pickup_waits_for_window_open():
    """Depot -> P_A: arrive sqrt(5) early, hold for the opening, then load."""
    _, _, s = _toy_state()
    s2 = env.step(s, (2, 0))         # robot at 1 unit/min
    v = s2.visits[2][-1]
    assert v.arrival == pytest.approx(math.sqrt(5.0), abs=1e-9)   # 2.236
    assert v.departure == pytest.approx(3.0)                       # e_A = 3
    assert s2.load[2] == pytest.approx(4.0)
    assert s2.carrying[2] == {0}
    assert s2.clock[2] == v.departure


def test_step_delivery_adds_tardiness_fields():
    inst, _, s = _toy_state()
    s = env.step(s, (2, 0))
    s = env.step(s, (2, 0 + inst.n_customers))
    v = s.visits[2][-1]
    # P_A (1,2) -> D_A (4,5): 3*sqrt(2) at 1 km/min after leaving at 3.0
    assert v.arrival == pytest.approx(3.0 + 3.0 * math.sqrt(2.0))
    assert v.departure == v.arrival    # zero service time in the example
    assert s.load[2] == pytest.approx(0.0)
    assert s.carrying[2] == set()


def test_step_depot_recharges_at_half_speed():
    inst = instance.generate(n_customers=1, n_depots=1, seed=0)
    fleet = instance.default_fleet(1, 0, inst.depot_nodes()[0])
    s0 = env.reset(inst, fleet)
    s = env.step(s0, (0, 0))
    veh = fleet.vehicles[0]
    d = inst.depot_nodes()[0]
    t_full = s.legs.time_min(veh, int(s.pos[0]), d, half=False)
    s2 = env.step(s, (0, d))
    v = s2.visits[0][-1]
    assert v.arrival == pytest.approx(float(s.clock[0]) + 2.0 * t_full)
    assert s2.battery[0] == pytest.approx(veh.battery)    # recharged to full
    expected_recharge = (veh.battery - v.battery_arrival) / veh.charge_rate
    assert v.departure == pytest.approx(v.arrival + expected_recharge)


def test_step_same_node_raises():
    _, _, s = _toy_state()
    with pytest.raises(ValueError, match="already at node"):
        env.step(s, (0, toy.DEPOT_NODE))


def test_step_leaves_input_state_unchanged():
    _, _, s = _toy_state()
    before = s.clock.copy()
    env.step(s, (0, 0))
    assert np.array_equal(s.clock, before)
    assert not s.visited.any()


def test_battery_dip_flag_sets_once():
    customers = [Customer(0, (3.0, 0.0), (3.5, 0.0), 0.0, 500.0, 0.0, 500.0, 1.0)]
    inst = Instance(customers, [Depot(2, (0.0, 0.0))], service_time=0.0,
                    area_km=5.0)
    # floor at 90 percent (5.85 kJ): the 3 km leg burns ~0.81 kJ and dips
    fleet = FleetSpec([Vehicle("UAV", 20.0, 5.0, 6.5, 0.65, 0.9, 2)])
    s = env.step(env.reset(inst, fleet), (0, 0))
    assert s.visits[0][-1].battery_arrival < 0.9 * 6.5
    s = env.step(s, (0, 1))          # a second dip, at the delivery
    assert s.visits[0][-1].battery_arrival < 0.9 * 6.5
    sol = env.Solution(routes=[env.Route(fleet.vehicles[0], s.visits[0])],
                       breakdown={}, total=0.0, complete=False)
    cost = env.episode_cost(sol, inst)
    assert cost["battery_penalty"] == inst.cost_weights.lambda_battery


# -- cost decomposition -----------------------------------------------------------


def _manual_breakdown(sol, inst):
    w = inst.cost_weights
    uav = adr = early = late = dips = 0.0
    for route in sol.routes:
        vs = route.visits
        ride = sum(b.arrival - a.departure for a, b in zip(vs, vs[1:]))
        if route.vehicle.mode == "UAV":
            uav += ride
        else:
            adr += ride
        floor = route.vehicle.battery_floor * route.vehicle.battery
        if any(min(v.battery_arrival, v.battery_after) < floor - 1e-9
               for v in vs[1:]):
            dips += 1
        for v in vs[1:]:
            if inst.is_pickup(v.node):
                early += max(inst.node_window(v.node)[0] - v.arrival, 0.0)
            elif inst.is_delivery(v.node):
                late += max(v.arrival - inst.node_window(v.node)[1], 0.0)
    return {"travel_uav": w.alpha1 * uav, "travel_adr": w.alpha2 * adr,
            "early_penalty": w.alpha3_early * early,
            "delay_penalty": w.alpha3_late * late,
            "battery_penalty": w.lambda_battery * dips}


def test_episode_cost_decomposition_matches_visit_log():
    for seed in range(4):
        inst, fleet = make_case(n=3, n_depots=2, seed=seed, n_uav=1, n_adr=1)
        sol = env.rollout(env.greedy_nearest, inst, fleet, seed=seed)
        manual = _manual_breakdown(sol, inst)
        for key, val in manual.items():
            assert sol.breakdown[key] == pytest.approx(val, abs=1e-12)
        assert sol.total == pytest.approx(sum(manual.values()), abs=1e-9)
        keys = set(sol.breakdown)
        assert keys == {"travel_uav", "travel_adr", "early_penalty",
                        "delay_penalty", "battery_penalty", "total"}


# -- rollout ----------------------------------------------------------------------


def test_rollout_deterministic_and_complete():
    inst, fleet = make_case(n=3, seed=1, n_uav=2, n_adr=1)
    a = env.rollout(env.greedy_nearest, inst, fleet, seed=7)
    b = env.rollout(env.greedy_nearest, inst, fleet, seed=7)
    assert a.total == b.total
    assert [v.node for r in a.routes for v in r.visits] == \
        [v.node for r in b.routes for v in r.visits]
    if a.complete:
        served = {v.node for r in a.routes for v in r.visits
                  if not inst.is_depot(v.node)}
        assert served == set(range(2 * inst.n_customers))
        for r in a.routes:
            assert inst.is_depot(r.visits[-1].node)


def test_rollout_strategies():
    inst, fleet = make_case(n=2, seed=0, n_uav=1, n_adr=1)
    for strategy in ("paired", "uav-prior", "adr-prior"):
        sol = env.rollout(env.greedy_nearest, inst, fleet, strategy=strategy)
        assert sol.total >= 0.0
    with pytest.raises(ValueError, match="strategy"):
        env.rollout(env.greedy_nearest, inst, fleet, strategy="alphabetical")
    # also when the fleet is stuck from the start and no step is ever chosen
    inst = instance.generate(3, n_depots=1, seed=0)
    fleet = instance.default_fleet(1, 1, inst.depot_nodes()[0])
    stuck = FleetSpec([dataclasses.replace(v, battery=1e-6)
                       for v in fleet.vehicles])
    assert not env.feasible_mask(env.reset(inst, stuck)).any()
    with pytest.raises(ValueError, match="strategy"):
        env.rollout(env.greedy_nearest, inst, stuck, strategy="alphabetical")


def test_rollout_logs_once_why_it_ended(caplog):
    inst, fleet = make_case(n=3, seed=1, n_uav=2, n_adr=1)
    stuck = FleetSpec([dataclasses.replace(v, battery=1e-6)
                       for v in fleet.vehicles])
    with caplog.at_level(logging.DEBUG, logger="cpdptw.env"):
        done = env.rollout(env.greedy_nearest, inst, fleet, seed=7)
        dead = env.rollout(env.greedy_nearest, inst, stuck, seed=7)
    steps = sum(len(r.visits) - 1 for r in done.routes)
    assert done.complete and not dead.complete
    assert [r.getMessage() for r in caplog.records] == [
        f"rollout ended (terminal) after {steps} steps with 0 of 3 pairs "
        "unserved",
        "rollout ended (dead end) after 0 steps with 3 of 3 pairs unserved"]


def test_rollout_rejects_policy_that_ignores_mask():
    inst, fleet = make_case(n=2, seed=0)

    def rogue(state, mask):
        return np.where(mask, -np.inf, 1.0)   # prefers masked pairs only

    with pytest.raises(RuntimeError, match="masked"):
        env.rollout(rogue, inst, fleet)


def _blocked_case():
    """N=20 at rho=0.3: 251 of the 780 customer pairs are blocked in the air."""
    inst = instance.generate(n_customers=20, n_depots=2, seed=2)
    fleet = instance.default_fleet(6, 4, inst.depot_nodes()[0])
    return inst, fleet, build_networks(inst, AdjacencySpec(rho=0.3, seed=2))


# scorer -> (repr(total), steps, visit trails); greedy rides 7 blocked UAV
# legs, attention 8
BLOCKED_ROLLOUT_PINS = {
    "greedy": ("62.95851568728157", 53, [
        [40, 8, 11, 28, 13, 10, 33, 0, 31, 30, 20, 40], [40, 19, 39, 40],
        [40, 17, 37, 6, 26, 12, 32, 40], [40, 1, 21, 4, 24, 41],
        [40, 9, 29, 41], [40, 3, 23, 41], [40, 16, 36, 2, 22, 40],
        [40, 18, 38, 41, 14, 41, 34, 40], [40, 7, 27, 40],
        [40, 5, 25, 40, 15, 35, 40]]),
    "attention": ("72.97872682893768", 53, [
        [40, 0, 20, 40], [40, 1, 6, 10, 21, 19, 26, 39, 40, 30, 40],
        [40, 3, 8, 9, 23, 17, 37, 40, 11, 28, 29, 31, 4, 24, 40, 12, 32, 40],
        [40, 13, 33, 40], [40], [40], [40, 2, 22, 5, 25, 40, 14, 41, 34, 40],
        [40, 7, 27, 16, 36, 40, 15, 35, 40], [40, 18, 38, 40], [40]]),
}


@pytest.mark.parametrize("scorer", sorted(BLOCKED_ROLLOUT_PINS))
def test_rollout_with_blocked_aerial_pairs_is_pinned(scorer):
    total, steps, trail = BLOCKED_ROLLOUT_PINS[scorer]
    inst, fleet, nets = _blocked_case()
    policy = env.greedy_nearest if scorer == "greedy" \
        else attention_scorer(random_weights(2))
    sol = env.rollout(policy, inst, fleet, seed=2, nets=nets,
                      physics=PhysicsConfig())
    assert sol.complete
    assert repr(sol.total) == total
    assert sum(len(r.visits) - 1 for r in sol.routes) == steps
    assert [[v.node for v in r.visits] for r in sol.routes] == trail


def _trails(sol):
    return [[v.node for v in r.visits] for r in sol.routes]


def _full_mask_trails(policy, inst, fleet, strategy, nets, physics):
    """The rollout loop with a full ``feasible_mask`` every step: the reference."""
    s = env.reset(inst, fleet, nets, physics)
    while not s.terminal() and s.t < s.step_limit():
        mask = env.feasible_mask(s)
        if not mask.any():
            break
        k, j = env._select(policy(s, mask), mask, s, strategy)
        s = env.step(s, (int(k), int(j)))
    return [[v.node for v in vs] for vs in s.visits]


def _greedy_episodes():
    """Criterion-5-style episodes: N = 2-6, 1-3 depots, all three strategies."""
    for n, depots, strategy, seed in itertools.product(
            range(2, 7), (1, 2, 3), ("paired", "uav-prior", "adr-prior"),
            range(3)):
        inst = instance.generate(n_customers=n, n_depots=depots, seed=seed)
        fleet = instance.default_fleet(1 + seed % 2, 1 + (n + depots) % 2,
                                       inst.depot_nodes()[0])
        yield env.greedy_nearest, inst, fleet, strategy, build_networks(inst)


def _attention_episodes():
    """Attention episodes at rho = 0.3 with N <= 20."""
    policy = attention_scorer(random_weights(4))
    for n, strategy in itertools.product((5, 12, 20),
                                         ("paired", "uav-prior", "adr-prior")):
        inst = instance.generate(n_customers=n, n_depots=2, seed=n)
        fleet = instance.default_fleet(n // 4 + 1, n // 5 + 1,
                                       inst.depot_nodes()[0])
        yield policy, inst, fleet, strategy, build_networks(
            inst, AdjacencySpec(rho=0.3, seed=n))


@pytest.mark.parametrize("episodes", [_greedy_episodes, _attention_episodes],
                         ids=["greedy", "attention"])
def test_incremental_mask_equals_full_mask_at_every_step(episodes):
    steps = 0
    for policy, inst, fleet, strategy, nets in episodes():
        def checked(state, mask):
            nonlocal steps
            assert (mask == env.feasible_mask(state)).all(), \
                f"kept mask differs from the full mask at step {state.t}"
            steps += 1
            return policy(state, mask)

        sol = env.rollout(checked, inst, fleet, strategy=strategy, nets=nets,
                          physics=PhysicsConfig())
        # a kept mask that empties too early would end the episode short
        assert _trails(sol) == _full_mask_trails(
            policy, inst, fleet, strategy, nets, PhysicsConfig())
    assert steps > 0


def test_policy_writing_into_its_mask_cannot_corrupt_the_rollout():
    inst, fleet, nets = _blocked_case()

    def vandal(state, mask):
        scores = env.greedy_nearest(state, mask)
        mask[:] = False
        return scores

    got = env.rollout(vandal, inst, fleet, seed=2, nets=nets,
                      physics=PhysicsConfig())
    want = env.rollout(env.greedy_nearest, inst, fleet, seed=2, nets=nets,
                       physics=PhysicsConfig())
    assert _trails(got) == _trails(want)


# (i, j) -> detour, then on the first UAV: calm i->j minutes and kJ at load
# 1; east wind j->i half-speed minutes and kJ empty, and i->j kJ at load 1
BLOCKED_LEG_PINS = {
    (0, 1): ([0, 5, 1], "2.4744951491854126", "0.7985705958013434",
             "4.948990298370825", "2.062218482942604", "0.13097035854927708"),
    (0, 2): ([0, 18, 2], "2.286355618337778", "0.7378540907428308",
             "4.572711236675556", "1.4439174933961223", "0.3636218519999209"),
    (0, 4): ([0, 33, 4], "2.0569195406919096", "0.6638103387135333",
             "4.113839081383819", "0.8006057171347087", "1.247710710315179"),
    (0, 7): ([0, 18, 7], "2.0489294948093915", "0.6612317861942515",
             "4.097858989618783", "1.087542811876503", "0.8138425441342299"),
}


def test_blocked_legs_are_priced_along_the_detour_bit_for_bit():
    inst, fleet, nets = _blocked_case()
    uav = fleet.vehicles[0]
    calm = env.LegCosts(inst, nets, PhysicsConfig())
    east = env.LegCosts(inst, nets, PhysicsConfig(
        wind=WindState(speed=12.0, course=0.0, model="constant")))
    for (i, j), (path, t, e, t_back, e_back, e_wind) in BLOCKED_LEG_PINS.items():
        assert nets.aerial.path_to(i, j) == path
        assert repr(calm.time_min(uav, i, j)) == t
        assert repr(calm.energy_kj(uav, i, j, 1.0)) == e
        assert repr(east.time_min(uav, j, i, half=True)) == t_back
        assert repr(east.energy_kj(uav, j, i, 0.0, half=True)) == e_back
        assert repr(east.energy_kj(uav, i, j, 1.0)) == e_wind


def test_greedy_nearest_prefers_customers_over_depots():
    _, _, s = _toy_state()
    mask = env.feasible_mask(s)
    scores = env.greedy_nearest(s, mask)
    assert scores.shape == mask.shape
    assert np.isneginf(scores[~mask]).all()
    k, j = np.unravel_index(int(np.argmax(np.where(mask, scores, -np.inf))),
                            mask.shape)
    assert not s.inst.is_depot(int(j))


# -- solution files ----------------------------------------------------------------


def test_solution_csv_schema(tmp_path):
    inst, fleet = make_case(n=2, seed=3)
    sol = env.rollout(env.greedy_nearest, inst, fleet, seed=3)
    path = tmp_path / "solution.csv"
    env.save_solution_csv(sol, inst, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"vehicle", "node", "kind", "arrival",
                                     "departure", "battery", "load"}
    assert len(rows) == sum(len(r.visits) for r in sol.routes)
    for row in rows:
        assert row["kind"] in ("pickup", "delivery", "depot")
        float(row["arrival"]), float(row["battery"])   # parse cleanly


def test_solution_text_writer(tmp_path):
    inst, fleet = make_case(n=2, seed=3)
    sol = env.rollout(env.greedy_nearest, inst, fleet, seed=3)
    path = tmp_path / "solution.txt"
    env.save_solution_text(sol, inst, path)
    text = path.read_text()
    assert f"total cost {sol.total:.4f}" in text
    assert "vehicle 0" in text
    for key in ("travel_uav", "delay_penalty"):
        assert key in text
