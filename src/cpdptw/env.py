"""MDP simulator: state, feasibility masking, transitions, cost accounting.

The simulator advances one (vehicle, node) decision at a time.  Each step
moves the chosen vehicle along its network's direct edge (or, for a blocked
aerial pair, the shortest detour through other nodes), spends battery, waits
for hard pickup windows to open, serves the node and updates the clock.
Vehicles ride at max speed between customers and at half speed when heading
to a depot; recharging is linear in the missing charge.

Masking enforces, per candidate (vehicle k at node i, target j):

1. visited customer nodes are closed;
2. battery reach: the leg must end with enough charge to still make the
   energy-nearest depot at half speed with the reserve floor intact, and a
   pickup must leave its whole pair serviceable (deliver directly, or top up
   at a depot first);
3. capacity: a pickup may not overflow the vehicle;
4. customers outside both the temporal and the spatial neighborhood of the
   vehicle's position are closed (depots always qualify);
5. a delivery opens only for the vehicle currently carrying its pickup.

An episode ends when every customer is served and every vehicle is parked at
a depot; if no action is feasible before that (or after 10*(2N) steps), the
rollout is flagged incomplete.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import PhysicsConfig, leg_energy
from .network import AdjacencySpec, build_networks

STEP_LIMIT_FACTOR = 10

LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# leg pricing


class LegCosts:
    """Lazy per-leg (time, energy) tables shared by simulator and solvers.

    Time depends on (mode, speed); energy additionally on the carried load
    and on the half-speed depot-run flag.  Legs follow the shortest path of
    the mode's graph, so blocked aerial pairs are priced along their detour,
    edge by edge (each edge carries its own wind heading).

    Also holds the flat per-node tables (demand, windows) that ``advance``
    reads, so the transition skips instance method calls.  Raises
    ``ValueError`` when ``nets`` were built for another instance or
    ``physics`` is out of range.
    """

    def __init__(self, inst, nets, physics):
        physics.validate()
        xy = [inst.node_xy(v) for v in range(inst.n_nodes)]
        if nets.aerial.xy != xy or nets.ground.xy != xy:
            raise ValueError("networks were built for another instance: "
                             "their node coordinates differ from the instance's")
        self.inst = inst
        self.nets = nets
        self.physics = physics
        self._time = {}     # (mode, speed, half) -> {(i, j): minutes}
        self._energy = {}   # (mode, speed, half, load_r) -> {(i, j): kJ}
        self.n_cust = inst.n_customers
        self.ncust2 = 2 * inst.n_customers
        nodes = range(inst.n_nodes)
        self.demand = [inst.node_demand(v) for v in nodes]
        self.win_e = [inst.node_window(v)[0] for v in nodes]
        self.win_l = [inst.node_window(v)[1] for v in nodes]

    def _speed(self, vehicle, half):
        return vehicle.max_speed / 2.0 if half else vehicle.max_speed

    def time_min(self, vehicle, i, j, half=False):
        if i == j:
            return 0.0
        key = (vehicle.mode, vehicle.max_speed, half)
        table = self._time.get(key)
        if table is None:
            table = self._time[key] = {}
        hit = table.get((i, j))
        if hit is None:
            hit = self.nets.graph(vehicle.mode).travel_min(
                i, j, self._speed(vehicle, half))
            table[(i, j)] = hit
        return hit

    def energy_kj(self, vehicle, i, j, load, half=False):
        if i == j:
            return 0.0
        key = (vehicle.mode, vehicle.max_speed, half, load)
        table = self._energy.get(key)
        if table is None:
            table = self._energy[key] = {}
        hit = table.get((i, j))
        if hit is None:
            hit = self._price_leg(vehicle, i, j, load, half)
            table[(i, j)] = hit
        return hit

    def _price_leg(self, vehicle, i, j, load, half):
        ph = self.physics
        g = self.nets.graph(vehicle.mode)
        path = g.path_to(i, j)
        if path is None:
            return math.inf
        speed = self._speed(vehicle, half)
        payload = load * ph.payload_kg_per_unit
        params = ph.uav if vehicle.mode == "UAV" else ph.adr
        total = 0.0
        for a, b in zip(path, path[1:]):
            (xa, ya), (xb, yb) = g.xy[a], g.xy[b]
            course = math.atan2(yb - ya, xb - xa)
            total += leg_energy(vehicle.mode, g.dist[a][b], speed, payload,
                                ph.wind, params, course=course,
                                formula=ph.wind_formula, leg_key=(a, b))
        return total

    def priced(self):
        """Entries priced so far: leg times plus leg energies."""
        return (sum(map(len, self._time.values()))
                + sum(map(len, self._energy.values())))

    def depot_reserve_kj(self, vehicle, node, load):
        """Cheapest half-speed escape to any depot from ``node``."""
        return min(self.energy_kj(vehicle, node, d, load, half=True)
                   for d in self.inst.depot_nodes())


# ---------------------------------------------------------------------------
# state


@dataclass
class Visit:
    node: int
    arrival: float
    departure: float
    battery_after: float
    load_after: float
    battery_arrival: float = 0.0


@dataclass
class Route:
    vehicle: object                 # instance.Vehicle
    visits: list[Visit] = field(default_factory=list)


@dataclass
class Solution:
    routes: list[Route]
    breakdown: dict
    total: float
    complete: bool = True

    def vehicle_nodes(self, k):
        return [v.node for v in self.routes[k].visits]


@dataclass
class SimState:
    inst: object
    fleet: object
    nets: object
    physics: object
    legs: LegCosts
    pos: np.ndarray          # node index per vehicle
    clock: np.ndarray        # min
    load: np.ndarray         # units
    battery: np.ndarray      # kJ
    visited: np.ndarray      # bool per node (customers only meaningful)
    carrying: list           # per vehicle: set of customer ids on board
    t: int = 0
    visits: list = None      # per vehicle: list of Visit

    def copy(self):
        return SimState(
            self.inst, self.fleet, self.nets, self.physics, self.legs,
            self.pos.copy(), self.clock.copy(), self.load.copy(),
            self.battery.copy(), self.visited.copy(),
            [set(c) for c in self.carrying], self.t,
            [list(v) for v in self.visits])

    def all_served(self):
        n = self.inst.n_customers
        return bool(self.visited[:2 * n].all())

    def all_parked(self):
        return all(self.inst.is_depot(p) for p in self.pos)

    def terminal(self):
        return self.all_served() and self.all_parked()

    def step_limit(self):
        return STEP_LIMIT_FACTOR * 2 * self.inst.n_customers


def reset(inst, fleet, nets=None, physics=None):
    """Fresh state: everyone at their start depot, full battery, empty."""
    inst.validate()
    fleet.validate(inst)
    if nets is None:
        nets = build_networks(inst)
    if physics is None:
        physics = PhysicsConfig()
    nv = len(fleet.vehicles)
    n = inst.n_nodes
    pos = np.array([v.start_depot for v in fleet.vehicles], dtype=int)
    battery = np.array([v.battery for v in fleet.vehicles], dtype=float)
    state = SimState(
        inst=inst, fleet=fleet, nets=nets, physics=physics,
        legs=LegCosts(inst, nets, physics),
        pos=pos, clock=np.zeros(nv), load=np.zeros(nv), battery=battery,
        visited=np.zeros(n, dtype=bool),
        carrying=[set() for _ in range(nv)], t=0,
        visits=[[Visit(int(v.start_depot), 0.0, 0.0, v.battery, 0.0, v.battery)]
                for v in fleet.vehicles])
    return state


# ---------------------------------------------------------------------------
# masking


def _pair_serviceable(s, k, j, battery_at_j, load_after_pickup):
    """Once picked up at j, can the parcel still be brought home?

    Either deliver directly and keep the depot reserve, or reach some depot
    with the reserve intact and finish the round trip on a full charge.
    """
    veh = s.fleet.vehicles[k]
    legs = s.legs
    dest = j + legs.n_cust
    floor = veh.battery_floor * veh.battery
    load_after_drop = load_after_pickup - legs.demand[j]
    # direct: j -> delivery -> nearest depot
    direct = (battery_at_j
              - legs.energy_kj(veh, j, dest, load_after_pickup)
              - legs.depot_reserve_kj(veh, dest, load_after_drop))
    if direct >= floor - 1e-12:
        return True
    # recharge first: j -> depot d (reserve intact), then d -> delivery -> depot
    for d in s.inst.depot_nodes():
        if battery_at_j - legs.energy_kj(veh, j, d, load_after_pickup, half=True) \
                < floor - 1e-12:
            continue
        rt = (veh.battery
              - legs.energy_kj(veh, d, dest, load_after_pickup)
              - legs.depot_reserve_kj(veh, dest, load_after_drop))
        if rt >= floor - 1e-12:
            return True
    return False


def _mask_row(s, k, row):
    """Fill the zeroed ``row`` with the nodes vehicle k may go to next.

    Reads only vehicle k's state and ``s.visited``, so after a step (k, j)
    every other row changes at most in column j.
    """
    legs = s.legs
    n_cust, ncust2 = legs.n_cust, legs.ncust2
    veh = s.fleet.vehicles[k]
    i = int(s.pos[k])
    e, u, tau = float(s.battery[k]), float(s.load[k]), float(s.clock[k])
    floor = veh.battery_floor * veh.battery
    at_depot = i >= ncust2
    near = (s.nets.temporal[i] | s.nets.spatial[i]).tolist()
    visited = s.visited.tolist()
    carrying = s.carrying[k]
    for j in range(len(row)):
        if j == i:
            continue
        if j >= ncust2:                 # depot
            if at_depot:
                continue                # no depot hopping
            cost = legs.energy_kj(veh, i, j, u, half=True)
            row[j] = e - cost >= floor - 1e-12
            continue
        if visited[j]:
            continue                    # rule 1
        if not near[j]:
            continue                    # rule 4 (depots exempt above)
        if j < n_cust:                  # pickup
            q = legs.demand[j]
            if u + q > veh.capacity + 1e-9:
                continue                # rule 3: capacity
            t_leg = legs.time_min(veh, i, j)
            if tau + t_leg > legs.win_l[j] + 1e-9:
                continue                # rule 2: hard pickup window
            e_after = e - legs.energy_kj(veh, i, j, u)
            if e_after < -1e-12:
                continue
            row[j] = _pair_serviceable(s, k, j, e_after, u + q)
        else:                           # delivery
            if (j - n_cust) not in carrying:
                continue                # rule 5
            e_after = e - legs.energy_kj(veh, i, j, u)
            if e_after < -1e-12:
                continue
            drop = u - abs(legs.demand[j])
            row[j] = (e_after - legs.depot_reserve_kj(veh, j, drop)
                      >= floor - 1e-12)


def feasible_mask(s):
    """Boolean (n_vehicles, n_nodes) matrix of admissible assignments."""
    mask = np.zeros((len(s.fleet.vehicles), s.inst.n_nodes), dtype=bool)
    for k in range(mask.shape[0]):
        _mask_row(s, k, mask[k])
    return mask


# ---------------------------------------------------------------------------
# transition


def advance(legs, veh, pos, clock, batt, load, node):
    """The one (vehicle, node) transition, shared by simulator and solvers.

    ``veh`` leaves ``pos`` at ``clock`` with ``batt`` kJ and ``load`` units on
    board and rides to ``node`` (at half speed when it is a depot).  At a
    depot it recharges fully; at a pickup it waits for the window to open;
    at a customer it then serves for the instance's service time.  Returns
    ``(t_leg, arrival, departure, battery_arrival, battery_after,
    load_after, wait, late)``, where ``wait`` is the idle time before a
    pickup window opens and ``late`` the tardiness of a delivery (both zero
    elsewhere).  Pure: feasibility is left to the caller.  The solvers'
    move generator (``solver._moves``) repeats this arithmetic inline, with
    each leg looked up once for a whole batch of route labels.
    """
    half = node >= legs.ncust2
    t_leg = legs.time_min(veh, pos, node, half)
    arrival = clock + t_leg
    e_arr = batt - legs.energy_kj(veh, pos, node, load, half)
    if half:
        recharge = (max(veh.battery - e_arr, 0.0) / veh.charge_rate
                    if veh.charge_rate > 0 else 0.0)
        return (t_leg, arrival, arrival + recharge, e_arr, veh.battery, load,
                0.0, 0.0)
    load_after = load + legs.demand[node]     # negative demand at deliveries
    service = legs.inst.service_time
    if node < legs.n_cust:
        early = legs.win_e[node]
        return (t_leg, arrival, max(arrival, early) + service, e_arr, e_arr,
                load_after, max(early - arrival, 0.0), 0.0)
    return (t_leg, arrival, arrival + service, e_arr, e_arr, load_after,
            0.0, max(arrival - legs.win_l[node], 0.0))


def step(s, action):
    """Apply (vehicle, node); returns the successor state (input unchanged)."""
    k, j = action
    s = s.copy()
    inst = s.inst
    veh = s.fleet.vehicles[k]
    i = int(s.pos[k])
    if i == j:
        raise ValueError(f"vehicle {k} is already at node {j}")
    kind = inst.node_kind(j)
    _, arrival, departure, battery_arr, battery_after, load_after, _, _ = \
        advance(s.legs, veh, i, float(s.clock[k]), float(s.battery[k]),
                float(s.load[k]), j)
    if kind != "depot":
        if kind == "pickup":
            s.carrying[k].add(j)
        else:
            s.carrying[k].discard(j - inst.n_customers)
        s.visited[j] = True
    s.pos[k] = j
    s.clock[k] = departure
    s.load[k] = load_after
    s.battery[k] = battery_after
    s.t += 1
    s.visits[k].append(Visit(int(j), arrival, departure, battery_after,
                             load_after, battery_arr))
    return s


def _solution_from_state(s, complete):
    routes = [Route(vehicle=s.fleet.vehicles[k], visits=list(s.visits[k]))
              for k in range(len(s.fleet.vehicles))]
    sol = Solution(routes=routes, breakdown={}, total=0.0, complete=complete)
    sol.breakdown = episode_cost(sol, s.inst)
    sol.total = sol.breakdown["total"]
    return sol


# ---------------------------------------------------------------------------
# cost


def episode_cost(sol, inst):
    """Weighted cost breakdown recomputed from the visit log alone.

    travel_* are the alpha-weighted riding minutes (waiting and recharging
    excluded), early counts pickup arrivals ahead of their window, delay
    counts delivery arrivals past theirs, battery charges lambda once per
    vehicle that dipped under its reserve floor.
    """
    w = inst.cost_weights
    travel_uav = travel_adr = early = delay = dips = 0.0
    for route in sol.routes:
        veh = route.vehicle
        vs = route.visits
        ride = sum(vs[x + 1].arrival - vs[x].departure for x in range(len(vs) - 1))
        if veh.mode == "UAV":
            travel_uav += ride
        else:
            travel_adr += ride
        floor = veh.battery_floor * veh.battery
        if any(min(v.battery_arrival, v.battery_after) < floor - 1e-9
               for v in vs[1:]):
            dips += 1.0
        for v in vs[1:]:
            kind = inst.node_kind(v.node)
            if kind == "pickup":
                early += max(inst.node_window(v.node)[0] - v.arrival, 0.0)
            elif kind == "delivery":
                delay += max(v.arrival - inst.node_window(v.node)[1], 0.0)
    out = {
        "travel_uav": w.alpha1 * travel_uav,
        "travel_adr": w.alpha2 * travel_adr,
        "early_penalty": w.alpha3_early * early,
        "delay_penalty": w.alpha3_late * delay,
        "battery_penalty": w.lambda_battery * dips,
    }
    out["total"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# rollout


def greedy_nearest(state, mask):
    """Baseline scorer: prefer the closest admissible customer; keep depots
    as a last resort so vehicles do not loiter on recharges."""
    inst = state.inst
    scores = np.full(mask.shape, -np.inf)
    for k in range(mask.shape[0]):
        veh = state.fleet.vehicles[k]
        i = int(state.pos[k])
        for j in np.nonzero(mask[k])[0]:
            half = inst.is_depot(int(j))
            t = state.legs.time_min(veh, i, int(j), half=half)
            scores[k, j] = -t - (1e6 if half else 0.0)
    return scores


def _check_strategy(strategy):
    if strategy not in ("paired", "uav-prior", "adr-prior"):
        raise ValueError(f"strategy: paired|uav-prior|adr-prior, got {strategy!r}")


def _select(scores, mask, state, strategy):
    _check_strategy(strategy)
    masked = np.where(mask, scores, -np.inf)
    modes = np.array([v.mode for v in state.fleet.vehicles])
    if strategy in ("uav-prior", "adr-prior"):
        want = "UAV" if strategy == "uav-prior" else "ADR"
        rows = modes == want
        if mask[rows].any():
            sub = np.where(rows[:, None], masked, -np.inf)
            flat = int(np.argmax(sub))
            return np.unravel_index(flat, mask.shape)
    flat = int(np.argmax(masked))
    return np.unravel_index(flat, mask.shape)


def _finish(s, reason):
    n = s.legs.n_cust
    LOG.debug("rollout ended (%s) after %d steps with %d of %d pairs unserved",
              reason, s.t, n - int(s.visited[n:2 * n].sum()), n)
    return _solution_from_state(s, complete=reason == "terminal")


def rollout(policy, inst, fleet, strategy="paired", seed=0,
            nets=None, physics=None):
    """Run ``policy`` to termination and return its Solution.

    ``policy(state, mask) -> score matrix``; the highest-scoring unmasked
    pair is executed each step (mode-restricted first under the *-prior
    strategies).  The policy gets a copy of the mask.  Deterministic for
    fixed (policy, seed, strategy).
    """
    _check_strategy(strategy)
    if nets is None:
        nets = build_networks(inst, AdjacencySpec(seed=seed))
    if physics is None:
        physics = PhysicsConfig()
        physics.wind.seed = seed
    s = reset(inst, fleet, nets, physics)
    limit = s.step_limit()
    mask = feasible_mask(s)
    while True:
        if s.terminal():
            return _finish(s, "terminal")
        if s.t >= limit:
            return _finish(s, "step limit")
        if not mask.any():
            return _finish(s, "dead end")
        scores = policy(s, mask.copy())
        k, j = _select(scores, mask, s, strategy)
        if not mask[k, j]:
            raise RuntimeError("policy selected a masked pair")
        k, j = int(k), int(j)
        s = step(s, (k, j))
        # only vehicle k and visited[j] changed: close j, refill row k
        if j < s.legs.ncust2:
            mask[:, j] = False
        mask[k] = False
        _mask_row(s, k, mask[k])


# ---------------------------------------------------------------------------
# solution files


def solution_rows(sol, inst):
    rows = []
    for k, route in enumerate(sol.routes):
        for v in route.visits:
            rows.append({
                "vehicle": k, "node": v.node, "kind": inst.node_kind(v.node),
                "arrival": v.arrival, "departure": v.departure,
                "battery": v.battery_after, "load": v.load_after,
            })
    return rows


def save_solution_csv(sol, inst, path):
    fields = ["vehicle", "node", "kind", "arrival", "departure", "battery", "load"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in solution_rows(sol, inst):
            w.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v)
                        for k, v in row.items()})


def format_solution(sol, inst):
    lines = []
    status = "complete" if sol.complete else "INCOMPLETE"
    lines.append(f"solution ({status})  total cost {sol.total:.4f}")
    for name, val in sol.breakdown.items():
        if name != "total":
            lines.append(f"  {name:16s} {val:.4f}")
    for k, route in enumerate(sol.routes):
        veh = route.vehicle
        lines.append(f"vehicle {k} [{veh.mode}]")
        for v in route.visits:
            lines.append(
                f"  {inst.node_kind(v.node):8s} node {v.node:3d}  "
                f"arr {v.arrival:8.3f}  dep {v.departure:8.3f}  "
                f"bat {v.battery_after:7.3f}  load {v.load_after:5.1f}")
    return "\n".join(lines) + "\n"


def save_solution_text(sol, inst, path):
    with open(path, "w") as fh:
        fh.write(format_solution(sol, inst))
