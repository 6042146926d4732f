"""Three-customer showcase with hand-checkable route costs.

One robot and two drones share a single depot at the origin.  Costs here
use the compact open-route convention of the worked example this package
reproduces: a vehicle starts at the depot, drives its route without
service times, waiting or a return leg, and pays its total travel time
plus ``beta`` times every minute of delivery lateness.  Speeds are one
map unit per minute for the robot and three for the drones, so the five
headline figures can be checked with a pocket calculator:

    robot alone        14.1215      (reference 14.08)
    drone 1 alone       6.7993      (reference  6.80)
    drone 2 alone       5.4000      (reference  5.41)
    all separate       26.3208      (reference 26.29)
    cooperative split  13.4012      (reference 13.38)

The cooperative split reproduces the published accounting verbatim: drone 1
serves customer A directly, the robot serves customer B, and drone 2 is
credited with its full solo route.  The characteristic table built from
these replays powers the coalition checks (sub-additivity, convexity, core).
"""

from __future__ import annotations

import math

from .coalition import build_table, check_convexity, check_subadditivity, core_check
from .instance import Customer, Depot, FleetSpec, Instance, Vehicle

TOY_BETA = 5.0
DEPOT_NODE = 6

# units (km) per minute
SPEEDS = {"R": 1.0, "D1": 3.0, "D2": 3.0}

# customer nodes: pickups 0..2 (A, B, C), deliveries 3..5
ROUTES = {
    "R": [0, 1, 3, 2, 4, 5],
    "D1": [0, 3, 1, 4, 2, 5],
    "D2": [0, 1, 3, 4, 2, 5],
}

# route plan per coalition; missing coalitions have no published plan
PLANS = {
    frozenset({"R"}): (("R", ROUTES["R"]),),
    frozenset({"D1"}): (("D1", ROUTES["D1"]),),
    frozenset({"D2"}): (("D2", ROUTES["D2"]),),
    frozenset({"D1", "D2"}): (("D1", [0, 1, 3, 4]), ("D2", [2, 5])),
    frozenset({"R", "D1", "D2"}): (("D1", [0, 3]), ("R", [1, 4]),
                                   ("D2", ROUTES["D2"])),
}

REFERENCE = {
    "solo_adr": 14.08,
    "solo_uav1": 6.80,
    "solo_uav2": 5.41,
    "separate": 26.29,
    "cooperative": 13.38,
    "grouped_uavs": 6.33,
}


def build_toy_instance():
    """The 3-customer, 1-depot instance with its 2-drone/1-robot fleet.

    Windows are shared by pickup and delivery of a customer; service time is
    zero.  Fleet batteries are effectively unlimited so that simulator runs
    on this instance exercise routing rather than energy management.
    """
    customers = [
        Customer(0, (1.0, 2.0), (4.0, 5.0), 3.0, 10.0, 3.0, 10.0, 4.0),
        Customer(1, (2.0, 1.0), (5.0, 3.0), 5.0, 12.0, 5.0, 12.0, 1.0),
        Customer(2, (3.0, 4.0), (6.0, 2.0), 5.0, 13.0, 5.0, 13.0, 2.5),
    ]
    depots = [Depot(DEPOT_NODE, (0.0, 0.0))]
    inst = Instance(customers, depots, service_time=0.0, area_km=10.0, seed=0)
    inst.validate()
    # 3 units/min = 50 m/s; 1 unit/min = 1000/60 m/s
    fleet = FleetSpec([
        Vehicle("UAV", 50.0, 10.0, 1e6, 1e6, 0.0, DEPOT_NODE),
        Vehicle("UAV", 50.0, 10.0, 1e6, 1e6, 0.0, DEPOT_NODE),
        Vehicle("ADR", 1000.0 / 60.0, 5.0, 1e6, 1e6, 0.0, DEPOT_NODE),
    ])
    fleet.validate(inst)
    return inst, fleet


def replay_route(inst, route, speed, beta=TOY_BETA):
    """Open-route cost: travel time plus beta per minute of delivery lateness.

    The vehicle leaves the depot at time zero, never waits and never
    returns; pickups before their window are allowed under this pricing.
    """
    if not speed > 0:
        raise ValueError(f"speed: must be > 0, got {speed!r}")
    clock = 0.0
    travel = 0.0
    delay = 0.0
    arrivals = []
    prev = DEPOT_NODE
    for node in route:
        leg = inst.euclidean_km(prev, node) / speed
        clock += leg
        travel += leg
        arrivals.append(clock)
        if inst.is_delivery(node):
            delay += max(0.0, clock - inst.node_window(node)[1])
        prev = node
    return {"travel": travel, "delay": delay,
            "cost": travel + beta * delay, "arrivals": arrivals}


def plan_cost(inst, players, beta=TOY_BETA):
    """Total replay cost of a coalition's published plan (+inf if none)."""
    plan = PLANS.get(frozenset(players))
    if plan is None:
        return math.inf
    return sum(replay_route(inst, route, SPEEDS[who], beta)["cost"]
               for who, route in plan)


def headline_costs():
    """The five headline figures plus the mode-grouped variants."""
    inst, _ = build_toy_instance()
    solo = {who: plan_cost(inst, {who}) for who in ("R", "D1", "D2")}
    grouped = plan_cost(inst, {"D1", "D2"})
    return {
        "solo_adr": solo["R"],
        "solo_uav1": solo["D1"],
        "solo_uav2": solo["D2"],
        "separate": solo["R"] + solo["D1"] + solo["D2"],
        "cooperative": plan_cost(inst, {"R", "D1", "D2"}),
        "grouped_uavs": grouped,
        "grouped_total": solo["R"] + grouped,
    }


_AGENT_NAMES = {("UAV", 0): "D1", ("UAV", 1): "D2", ("ADR", 0): "R"}


def toy_cost_fn(inst, beta=TOY_BETA):
    """Joint-cost hook for the coalition machinery, driven by the replays."""
    def cost_fn(uavs, adrs):
        players = {_AGENT_NAMES[("UAV", i)] for i in uavs} \
            | {_AGENT_NAMES[("ADR", j)] for j in adrs}
        return plan_cost(inst, players, beta)
    return cost_fn


def toy_characteristic():
    """Characteristic table of the example, with all checks filled in."""
    inst, fleet = build_toy_instance()
    tbl = build_table(inst, fleet, cost_fn=toy_cost_fn(inst))
    check_subadditivity(tbl)
    check_convexity(tbl)
    core_check(tbl)
    return tbl


def report():
    """Replay table next to the reference figures, plus the coalition checks."""
    values = headline_costs()
    rows = [
        ("robot alone (C_R)", "solo_adr"),
        ("drone 1 alone (C_D1)", "solo_uav1"),
        ("drone 2 alone (C_D2)", "solo_uav2"),
        ("all separate", "separate"),
        ("cooperative split", "cooperative"),
        ("drones grouped (C_D1D2)", "grouped_uavs"),
    ]
    lines = ["three-customer example: open-route replay costs "
             f"(beta = {TOY_BETA:g} per late minute)",
             f"  {'setting':<26}{'computed':>10}{'reference':>11}"]
    for title, key in rows:
        lines.append(f"  {title:<26}{values[key]:>10.4f}{REFERENCE[key]:>11.2f}")
    lines.append(f"  {'grouped total':<26}{values['grouped_total']:>10.4f}"
                 f"{'':>11}")
    lines.append("  (the reference prints 20.04 for the grouped total, "
                 "inconsistent with its own parts: 14.08 + 6.33 = 20.41)")
    lines.append("  (the reference also prints a final-leg delay of 5.9 on "
                 "the robot route; replaying it arrives at 13.19 against a "
                 "deadline of 13, a delay of 0.19, which is what its own "
                 "total 14.08 = 13.19 + 5 x 0.19 uses)")
    tbl = toy_characteristic()
    lines.append("characteristic values:")
    for coalition in tbl.subsets():
        if coalition.size == 0:
            continue
        c = tbl.cost(coalition)
        lines.append(f"  C({coalition.label()}) = {c:.4f}")
    lines.append(f"sub-additive: {'yes' if tbl.subadditive else 'no'}")
    lines.append(f"convex: {'yes' if tbl.convex else 'no'}")
    if tbl.core["nonempty"]:
        shares = ", ".join(f"{k}={v:.4f}"
                           for k, v in sorted(tbl.core["allocation"].items()))
        lines.append(f"core: nonempty ({shares})")
    else:
        lines.append("core: empty")
    return "\n".join(lines)
