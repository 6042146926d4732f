"""Exact and construct-and-improve solvers.

The exact solver, ``solve_exact``, rests on one fact: every vehicle starts
fresh and no two routes interact, so the optimum is a set partition of the
customer pairs over the vehicles' cheapest closed routes.  It builds a
table of each distinct vehicle's closed routes once, level by level of
labels, then partitions the pairs over the tables by dynamic programming.
Node and time budgets bind both; a search cut short falls back to the
heuristic's plan, unproven; ``solve_enumerate`` has no limits.
The move generator (``_moves``) takes a batch of labels -- the clocks and
batteries of partial routes at one position with one load and carried
set -- and looks each leg up once for the batch: a route table passes the
labels of a key, the heuristic's Pareto sweep those of a prefix.

A table drops a partial route that another one at the same position,
load, carried and served sets provably beats for every completion
(``_dominated``): no later clock, no less battery, and a cost lower by
more than the early-waiting weight times the clock gap plus the recharge
time the battery gap could add.  The rule relies on legs whose time and
energy do not depend on the clock, on vehicles that never idle by choice,
and on weights ``>= 0``.  It changes no table entry.  The heuristic keeps
its own Pareto filter (``_prune_states``).  The moves are:

* a *direct* move serves the next customer straight away;
* a *composite* move (depot, customer) tops the battery up first — offered
  for every candidate customer that recharging could still help (so early
  voluntary recharges are searched too), but never from a depot and never
  when the customer is blocked by capacity or a closed window;
* an *end* move returns the (empty) vehicle to a depot at half speed.

Because the simulator forbids depot-to-depot hops, at most one recharge can
sit between consecutive customers, so this move set covers every route the
simulator itself could execute.

Battery must clear the reserve floor at every visit, pickups respect their
hard windows (waiting for openings), deliveries may be late at a price.
Routes are priced with the same weighted terms as the simulator's cost
accounting, so solver totals and episode costs agree.
"""

from __future__ import annotations

import logging
import math
import numbers
import random
import time as _time
from dataclasses import dataclass

import numpy as np

from .energy import PhysicsConfig
from .env import LegCosts, Route, Solution, Visit, advance, episode_cost
from .network import build_networks

LOG = logging.getLogger(__name__)

_EPS = 1e-9

# exact search is affordable up to this many customer nodes (2N)
EXACT_NODE_LIMIT = 10


@dataclass
class SolverLimits:
    max_nodes_expanded: int | None = None
    time_budget: float | None = None       # seconds

    def validate(self):
        for name, kind, what in (
                ("max_nodes_expanded", numbers.Integral, "integer"),
                ("time_budget", numbers.Real, "number of seconds")):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not
                                      isinstance(value, kind) or not value > 0):
                raise ValueError(
                    f"{name}: must be a positive {what}, got {value!r}")
        return self


@dataclass
class SolveReport:
    solution: Solution | None
    proven_optimal: bool
    nodes_expanded: int
    wall_time: float

    @property
    def feasible(self):
        return self.solution is not None


# ---------------------------------------------------------------------------
# shared route mechanics
#
# A route state is the light tuple (pos, clock, battery, load, carried)
# with `carried` a frozenset of customer ids.  The search tracks only the
# move plan — (depot-or-None, customer) steps plus a closing depot — and
# the Visit trail is rebuilt once, for the winning plan, by `_replay`.


class _Ctx:
    def __init__(self, inst, fleet, legs):
        self.inst = inst
        self.fleet = fleet
        self.legs = legs
        w = inst.cost_weights
        self.alpha = [w.alpha1 if v.mode == "UAV" else w.alpha2
                      for v in fleet.vehicles]
        self.w3e = w.alpha3_early
        self.w3l = w.alpha3_late
        self.depots = inst.depot_nodes()
        self.floor = [v.battery_floor * v.battery for v in fleet.vehicles]
        # one fresh label at the home depot, the root of the heuristic's
        # label trie and of a route table: vehicles with equal fields
        # price every sequence identically, so they share one root
        roots = {v: _Prefix(v.start_depot, 0.0, frozenset(),
                            [(0.0, 0.0, v.battery, None)])
                 for v in fleet.vehicles}
        self.roots = [roots[v] for v in fleet.vehicles]
        # lookups, extensions, dead hits, labels extended
        self.trie_stats = [0, 0, 0, 0]


def _moves(ctx, k, pos, load, carried, labels, candidates):
    """Feasible ``(i, move, new_rs, added_cost)`` from a batch of labels.

    Every label ``labels[i] = (clock, battery)`` stands at ``pos`` with
    ``load`` on board and the customer ids ``carried``.  A move is
    (depot-or-None, customer): serve the customer straight away, or
    recharge at the depot first.  Every customer also comes in composite
    variants: stopping early -- before the battery actually blocks -- is
    sometimes the only way to keep a later leg alive.  No composite is
    offered from a depot (the battery is already full there and
    depot-to-depot hops are not legal moves), nor for a customer that
    capacity or its pickup deadline already rules out.

    Moves come in candidate order, then label order, each direct move
    before its composites in ``ctx.depots`` order.  Each leg is looked up
    once for the batch, and a depot stop or a depot-to-customer leg only
    when some label reaches it; the clock and battery arithmetic is
    ``env.advance``'s, operation for operation.
    """
    veh = ctx.fleet.vehicles[k]
    legs = ctx.legs
    n_cust = legs.n_cust
    floor = ctx.floor[k] - 1e-12
    alpha, w3e, w3l = ctx.alpha[k], ctx.w3e, ctx.w3l
    service = legs.inst.service_time
    full, rate = veh.battery, veh.charge_rate
    depots = ctx.depots
    # per label, its reachable recharge stops (depot index, departure,
    # cost); from a depot there are none
    stops = [()] * len(labels) if pos >= legs.ncust2 else [None] * len(labels)
    to_depot = None         # (t, energy) of the leg pos -> each depot
    out = []
    for c in candidates:
        pickup = c < n_cust
        if pickup:
            if load + legs.demand[c] > veh.capacity + _EPS:
                continue
            carried2 = carried | {c}
            early = legs.win_e[c]
        else:
            carried2 = carried - {c - n_cust}
        close = legs.win_l[c]
        load2 = load + legs.demand[c]
        t = legs.time_min(veh, pos, c)
        e = legs.energy_kj(veh, pos, c, load)
        travel = alpha * t
        via = [None] * len(depots)      # (t, energy) of depot -> c legs
        for i, (clock, batt) in enumerate(labels):
            arrival = clock + t
            if pickup:
                if arrival > close + _EPS:
                    continue
                dep = max(arrival, early) + service
                pen = w3e * max(early - arrival, 0.0)
            else:
                dep = arrival + service
                pen = w3l * max(arrival - close, 0.0)
            e_arr = batt - e
            if e_arr >= floor:
                out.append((i, (None, c), (c, dep, e_arr, load2, carried2),
                            travel + pen))
            label_stops = stops[i]
            if label_stops is None:
                if to_depot is None:
                    to_depot = [(legs.time_min(veh, pos, d, True),
                                 legs.energy_kj(veh, pos, d, load, True))
                                for d in depots]
                label_stops = stops[i] = []
                for di, (t_d, e_d) in enumerate(to_depot):
                    e_d = batt - e_d
                    if e_d >= floor:
                        recharge = (max(full - e_d, 0.0) / rate
                                    if rate > 0 else 0.0)
                        label_stops.append((di, clock + t_d + recharge,
                                            alpha * t_d))
            for di, dep_d, cost_d in label_stops:
                leg = via[di]
                if leg is None:
                    d = depots[di]
                    leg = via[di] = (legs.time_min(veh, d, c),
                                     legs.energy_kj(veh, d, c, load))
                t2, e2 = leg
                arrival = dep_d + t2
                if pickup:
                    if arrival > close + _EPS:
                        continue
                    dep = max(arrival, early) + service
                    pen = w3e * max(early - arrival, 0.0)
                else:
                    dep = arrival + service
                    pen = w3l * max(arrival - close, 0.0)
                e_arr = full - e2
                if e_arr < floor:
                    continue
                out.append((i, (depots[di], c),
                            (c, dep, e_arr, load2, carried2),
                            cost_d + (alpha * t2 + pen)))
    return out


def _end_moves(ctx, k, pos, load, carried, labels):
    """Ways to close the route, as ``(i, closing_depot_or_None, added_cost)``
    for a batch of labels ``labels[i] = (clock, battery)`` (see ``_moves``).

    None means the vehicle already stands at a depot (fresh route); else
    the empty vehicle rides back to a depot at half speed.  Moves come in
    depot order, then label order.  Each depot's energy is looked up once
    for the batch, and its time only when some label reaches the depot.
    Only the last leg's cost and reachability matter here, so this prices
    the leg directly rather than through ``advance``.
    """
    if carried:
        return []
    legs = ctx.legs
    if pos >= legs.ncust2:
        return [(i, None, 0.0) for i in range(len(labels))]
    veh = ctx.fleet.vehicles[k]
    floor = ctx.floor[k] - 1e-12
    out = []
    for d in ctx.depots:
        e = legs.energy_kj(veh, pos, d, load, True)
        cost = None
        for i, (_, batt) in enumerate(labels):
            if batt - e >= floor:
                if cost is None:
                    cost = ctx.alpha[k] * legs.time_min(veh, pos, d, True)
                out.append((i, d, cost))
    return out


def _dominated(label, kept, w3e, rate):
    """True when a label of ``kept`` beats ``label`` for every completion.

    Labels ``(cost, clock, battery, chain)`` share a key: what the rest of
    a route depends on besides clock and battery (position, float load,
    carried and served sets).  ``w3e`` and ``rate`` are the early-waiting
    weight and the charge rate.  A label A dominates a label B when
    ``clock_A <= clock_B``, ``batt_A >= batt_B`` and

        cost_A + w3e * (clock_B - clock_A + (batt_A - batt_B) / rate)
            < cost_B - _EPS

    (no battery term when ``rate == 0``).  Exact, because every completion
    feasible for B is feasible for A at no more cost than this slack:

    * legs cost the same time and energy at any clock (turbulence is keyed
      per leg, energy by leg and load), so A keeps at least B's battery and
      passes every floor, capacity and end check B passes;
    * a vehicle never idles by choice, so A is never later than B: it meets
      every pickup deadline B meets, and its lateness (``w3l >= 0``) is no
      larger;
    * A waits longer for a pickup window only by the clock gap, and each
      such wait closes the gap by as much; the gap grows only at the first
      recharge, where A, with more battery, charges ``(batt_A - batt_B) /
      rate`` minutes less (after it both batteries are full), so A's extra
      waiting over the whole completion is at most the bracket above;
    * travel is priced the same, and every weight is ``>= 0``.
    """
    cost, clock, batt, _ = label
    bar = cost - _EPS
    for cost_a, clock_a, batt_a, _ in kept:
        if clock_a <= clock and batt_a >= batt:
            slack = clock - clock_a
            if rate > 0:
                slack += (batt_a - batt) / rate
            if cost_a + w3e * slack < bar:
                return True
    return False


def _undominated(labels, w3e, rate):
    """The labels of one key that no other label of it dominates (see
    ``_dominated``): none of them leads to a table entry, whichever label
    dominates it.  The rule is transitive and a dominator sorts before its
    label by ``(clock, -battery, cost)``, so each label in that order is
    checked against the labels kept before it."""
    if len(labels) < 2:
        return labels
    kept = []
    for label in sorted(labels, key=lambda a: (a[1], -a[2], a[0])):
        if not _dominated(label, kept, w3e, rate):
            kept.append(label)
    return kept


def _unchain(chain):
    """The move list of a parent-linked ``(move, parent)`` chain."""
    moves = []
    while chain is not None:
        moves.append(chain[0])
        chain = chain[1]
    moves.reverse()
    return moves


def _order(moves, end):
    """Sort key of the closed route ``(moves, end_depot)`` in the order a
    depth-first walk through ``_moves`` and ``_end_moves`` meets it: by
    customer, a direct move before composites in (ascending) depot order,
    and a route's closing after every extension of it."""
    return [(c, -1 if d is None else d) for d, c in moves] + \
        [(math.inf, -1 if end is None else end)]


def _replay(ctx, k, moves, end_depot):
    """Rebuild the Visit trail of a finished plan for vehicle ``k``."""
    veh = ctx.fleet.vehicles[k]
    pos, clock, batt, load = veh.start_depot, 0.0, veh.battery, 0.0
    visits = [Visit(int(pos), 0.0, 0.0, batt, 0.0, batt)]
    seq = [node for move in moves for node in move if node is not None]
    for node in seq + ([] if end_depot is None else [end_depot]):
        _, arrival, clock, e_arr, batt, load, _, _ = advance(
            ctx.legs, veh, pos, clock, batt, load, node)
        visits.append(Visit(int(node), arrival, clock, batt, load, e_arr))
        pos = node
    return visits


def _report(ctx, plan, nodes, t0, proven):
    """SolveReport of a ``(moves, end_depot)`` plan per vehicle (None when
    infeasible); the total is the replayed plan's episode cost."""
    wall = _time.perf_counter() - t0
    sol = None
    if plan is not None:
        routes = [Route(vehicle=ctx.fleet.vehicles[k],
                        visits=_replay(ctx, k, mv, end))
                  for k, (mv, end) in enumerate(plan)]
        sol = Solution(routes=routes, breakdown={}, total=0.0, complete=True)
        sol.breakdown = episode_cost(sol, ctx.inst)
        sol.total = sol.breakdown["total"]
    return SolveReport(solution=sol, proven_optimal=proven,
                       nodes_expanded=nodes, wall_time=wall)


def _make_ctx(inst, fleet, nets, physics, legs=None):
    """Search context; ``legs`` reuses a ``LegCosts`` of the same instance,
    networks and physics (``nets`` and ``physics`` are then ignored)."""
    inst.validate()
    fleet.validate(inst)
    return _Ctx(inst, fleet, _legs(inst, nets, physics) if legs is None
                else legs)


def _legs(inst, nets, physics):
    """``LegCosts`` on ``nets`` (default: built) under ``physics``."""
    return LegCosts(inst, build_networks(inst) if nets is None else nets,
                    PhysicsConfig() if physics is None else physics)


# ---------------------------------------------------------------------------
# exact search: route tables and a set-partition DP


class _Cut(Exception):
    """The exact search ran out of budget; ``args`` are the name of the
    limit and the labels extended over all tables."""


class _Budget:
    """The ``SolverLimits`` of one exact search.  ``nodes`` counts the
    labels extended by the tables finished so far; a table calls
    ``check(n)`` when its own count reaches ``n``, the value the last call
    returned.  ``check`` raises ``_Cut`` when the node limit is passed or
    the time budget is spent, and else returns the table's count at the
    label past the limit or at the next multiple of 256 labels over all
    tables, where the clock is read again."""

    def __init__(self, limits, t0):
        self.cap = limits.max_nodes_expanded
        self.seconds = limits.time_budget
        self.t0 = t0
        self.nodes = 0

    def check(self, n=0):
        total = self.nodes + n
        if self.cap is not None and total > self.cap:
            raise _Cut("max_nodes_expanded", total)
        if self.seconds is not None and \
                _time.perf_counter() - self.t0 > self.seconds:
            raise _Cut("time_budget", total)
        due = math.inf if self.cap is None else self.cap + 1
        if self.seconds is not None:
            due = min(due, (total // 256 + 1) * 256)
        return due - self.nodes


def _route_table(ctx, k, budget=None):
    """Every closed route of vehicle ``k``, cheapest per served pair set.

    Labels ``(cost, clock, battery, chain)`` of partial routes, ``chain``
    the parent-linked move list, are grouped by key: position, float load,
    carried and served sets.  A key fixes the number of visits (twice the
    served pairs less the carried ones), so levels of equal visits are
    built in turn and every label of a key exists before any is extended.
    A key's undominated labels go to ``_moves`` as one batch, offered the
    carried deliveries and unserved pickups, and to ``_end_moves``.
    Returns ``(table, nodes, dominated)``: ``table`` maps the bitmask of
    served pairs to ``(cost, moves, end_depot)``, the cheapest route, ties
    going to the smaller ``_order``; ``nodes`` counts the labels extended
    and ``dominated`` those dropped.  A ``budget`` (``_Budget``) is
    checked per label and may end the search with ``_Cut``.
    """
    n_cust = ctx.legs.n_cust
    w3e, rate = ctx.w3e, ctx.fleet.vehicles[k].charge_rate
    root = ctx.roots[k]
    level = {(root.pos, root.load, root.carried, 0): root.labels}
    table = {}
    nodes = dominated = 0
    due = math.inf if budget is None else budget.check()
    while level:
        nxt = {}
        for (pos, load, carried, served), found in level.items():
            labels = _undominated(found, w3e, rate)
            dominated += len(found) - len(labels)
            nodes += len(labels)
            while nodes >= due:
                due = budget.check(due)
            batch = [(clock, batt) for _, clock, batt, _ in labels]
            candidates = sorted([p + n_cust for p in carried]
                                + [p for p in range(n_cust)
                                   if not served >> p & 1])
            for i, move, rs2, dcost in _moves(ctx, k, pos, load, carried,
                                              batch, candidates):
                cost, _, _, chain = labels[i]
                c, clock, batt, load2, carried2 = rs2
                key = (c, load2, carried2,
                       served | 1 << c if c < n_cust else served)
                nxt.setdefault(key, []).append(
                    (cost + dcost, clock, batt, (move, chain)))
            for i, d, dcost in _end_moves(ctx, k, pos, load, carried, batch):
                cost, _, _, chain = labels[i]
                total = cost + dcost
                old = table.get(served)
                if old is None or total < old[0] or total == old[0] and \
                        _order(_unchain(chain), d) < \
                        _order(_unchain(old[1]), old[2]):
                    table[served] = (total, chain, d)
        level = nxt
    if budget is not None:
        budget.nodes += nodes
    return ({s: (cost, _unchain(chain), d)
             for s, (cost, chain, d) in table.items()}, nodes, dominated)


def _partition(ctx, tables, nodes, t0, budget=None):
    """Cheapest set partition of the customer pairs over the route tables
    ``tables[k]`` of vehicle ``k`` (see ``_route_table``), as a report.

    A DP from the last vehicle to the first takes, for every pair set S, the
    cheapest split of S into a route of vehicle k and a set the later
    vehicles serve, on a cost tie the one whose vehicle-k route has the
    smaller ``_order``.  Vehicle 0 needs only the full pair set, so for
    each of its routes it reads the one set that completes it.  The
    winning plan is replayed, so its total is the simulator's episode
    cost.  ``nodes`` is the report's work count; a ``budget`` has its
    clock read every 256 routes of a level (see ``_Budget``).
    """
    nv = len(tables)
    full = (1 << ctx.legs.n_cust) - 1
    # levels[k][S] = (cost, T): vehicles k.. serve pair set S at ``cost``,
    # vehicle k taking its table's route for T
    best = {0: (0.0, 0)}
    levels = [None] * nv
    for k in reversed(range(nv)):
        level = {}
        for i, (t, (cost_t, _, _)) in enumerate(tables[k].items()):
            if budget is not None and not i % 256:
                budget.check()
            if k:
                rests = best.items()
            else:
                rest = best.get(full ^ t)
                rests = () if rest is None else ((full ^ t, rest),)
            for r, (cost_r, _) in rests:
                if t & r:
                    continue
                cost = cost_t + cost_r
                s = t | r
                old = level.get(s)
                if old is None or cost < old[0] or cost == old[0] and \
                        _order(*tables[k][t][1:]) < \
                        _order(*tables[k][old[1]][1:]):
                    level[s] = (cost, t)
        levels[k] = best = level
    s = full
    plan = None
    if s in best:
        plan = []
        for k in range(nv):
            t = levels[k][s][1]
            _, moves, end = tables[k][t]
            plan.append((moves, end))
            s ^= t
    return _report(ctx, plan, nodes, t0, True)


def _by_tables(ctx, limits, store):
    """Route tables plus the set-partition DP under ``limits`` (see
    ``solve_exact``).  ``store`` maps a vehicle to its ``_route_table``
    on ``ctx``'s legs; only the vehicles missing from it get one built
    (and added), and the report and DEBUG line count those builds."""
    t0 = _time.perf_counter()
    budget = None if limits == SolverLimits() else _Budget(limits, t0)
    built = []
    try:
        for k, vehicle in enumerate(ctx.fleet.vehicles):
            if vehicle not in store:
                store[vehicle] = _route_table(ctx, k, budget)
                built.append(store[vehicle])
        nodes = sum(b[1] for b in built)
        LOG.debug("exact search: %d route tables, %d labels extended, %d "
                  "labels dominated", len(built), nodes,
                  sum(b[2] for b in built))
        return _partition(ctx, [store[v][0] for v in ctx.fleet.vehicles],
                          nodes, t0, budget)
    except _Cut as cut:
        limit, nodes = cut.args
        LOG.info("exact search cut short by %s after %d labels extended: the "
                 "plan is the heuristic's, not proven optimal", limit, nodes)
        return _report(ctx, _heuristic_plan(ctx, 0)[0], nodes, t0, False)


def solve_exact(inst, fleet, nets=None, physics=None, limits=None):
    """Proven optimum by route tables and a set-partition DP.

    Every vehicle starts fresh from its depot and no two routes interact,
    so the optimum is a set partition of the customer pairs over the
    vehicles' cheapest closed routes (Balinski & Quandt 1964).  Each
    distinct vehicle's routes go once into a table, built level by level
    of labels without the provably dominated ones (``_route_table``), and
    ``_partition`` picks the cheapest partition; cost ties go to the route
    a depth-first walk meets first (``_order``).  ``nodes_expanded``
    counts the labels extended; vehicles with equal fields share one
    table.  One DEBUG line on ``cpdptw.solver`` gives the tables and the
    labels extended and dominated.

    ``limits`` bind the search: ``max_nodes_expanded`` counts the labels
    extended over all tables, and the ``time_budget`` clock is read every
    256 labels and every 256 routes of a DP level.  The DP needs complete
    tables, so a search cut short returns the heuristic's plan (seed 0,
    priced with the same leg costs) with ``proven_optimal=False``, and one
    INFO line on ``cpdptw.solver`` names the limit that cut it.
    """
    limits = (limits or SolverLimits()).validate()
    return _by_tables(_make_ctx(inst, fleet, nets, physics), limits, {})


def solve_enumerate(inst, fleet, nets=None, physics=None):
    """``solve_exact`` without limits: the same route tables and DP."""
    return _by_tables(_make_ctx(inst, fleet, nets, physics), SolverLimits(), {})


# ---------------------------------------------------------------------------
# heuristic


def _prune_states(states):
    """Pareto filter on (cost, clock, battery); deterministic keep order."""
    states.sort(key=lambda s: (s[0], s[1][1], -s[1][2]))
    kept = []
    for item in states:
        rs = item[1]
        cost, clock, batt = item[0] + 1e-12, rs[1] + 1e-12, rs[2] - 1e-12
        for kp in kept:
            if kp[0] <= cost and kp[1][1] <= clock and kp[1][2] >= batt:
                break
        else:
            kept.append(item)
    return kept


class _Prefix:
    """Trie node: the Pareto labels of one vehicle after a customer prefix.

    Every label of a prefix stands at the same node with the same load and
    the same carried set, so the node holds those once; a label is
    ``(cost, clock, battery, chain)`` with ``chain`` the parent-linked move
    list.  ``children`` maps the next customer to its node, and ``end``
    caches the cheapest closing ``(cost, chain, end_depot)`` once asked.
    """

    __slots__ = ("pos", "load", "carried", "labels", "children", "end")

    def __init__(self, pos, load, carried, labels):
        self.pos = pos
        self.load = load
        self.carried = carried
        self.labels = labels
        self.children = {}
        self.end = None


# the one node of every prefix that has no feasible realization
_DEAD = _Prefix(None, None, None, [])
_DEAD.end = (math.inf, None, None)


def _extend(ctx, k, node, c):
    """The child of ``node`` for customer ``c``: one Pareto sweep step,
    with all of the node's labels moved as one batch."""
    labels = node.labels
    ctx.trie_stats[3] += len(labels)
    states = _prune_states([
        (labels[i][0] + dc, rs2, (move, labels[i][3]))
        for i, move, rs2, dc in _moves(
            ctx, k, node.pos, node.load, node.carried,
            [(clock, batt) for _, clock, batt, _ in labels], (c,))])
    if not states:
        return _DEAD
    pos, _, _, load, carried = states[0][1]
    return _Prefix(pos, load, carried,
                   [(cost, rs[1], rs[2], chain) for cost, rs, chain in states])


def _closed(ctx, k, node):
    """``(cost, chain, end_depot)`` of the cheapest way to end the route
    after ``node``'s prefix (cost inf when none); memoised on the node.
    All of the node's labels close as one batch, so each closing leg is
    looked up once per node; ties go to the earlier clock, then the lower
    depot."""
    if node.end is None:
        labels = node.labels
        best = None
        for i, d, dcost in _end_moves(
                ctx, k, node.pos, node.load, node.carried,
                [(clock, batt) for _, clock, batt, _ in labels]):
            cost, clock, _, chain = labels[i]
            key = (cost + dcost, clock, -1 if d is None else d)
            if best is None or key < best[0]:
                best = (key, chain, d)
        node.end = (math.inf, None, None) if best is None \
            else (best[0][0], best[1], best[2])
    return node.end


def _walk(ctx, k, node, seq):
    """The node reached from ``node`` along ``seq``, pricing each prefix
    no earlier walk has reached; ``_DEAD`` as soon as one is infeasible."""
    stats = ctx.trie_stats
    for c in seq:
        stats[0] += 1
        child = node.children.get(c)
        if child is None:
            stats[1] += 1
            child = node.children[c] = _extend(ctx, k, node, c)
        elif child is _DEAD:
            stats[2] += 1
        if child is _DEAD:
            return _DEAD
        node = child
    return node


def _seq_eval(ctx, k, seq):
    """Price a fixed customer sequence, choosing recharge stops optimally.

    Before each customer the vehicle either rides straight or tops up at
    one reachable depot first; a small Pareto sweep over (cost, clock,
    battery) keeps every undominated realization, because an early recharge
    can be what saves a later leg.  The sweep's labels after each prefix
    stay in a trie that lives as long as ``ctx`` (one per distinct
    vehicle), so a sequence pays only for the suffix no earlier call has
    priced, and every sequence through an infeasible prefix stops at one
    shared dead node.  Returns (cost, moves, end_depot) of the cheapest
    full realization or (inf, None, None).
    """
    cost, chain, end = _closed(ctx, k, _walk(ctx, k, ctx.roots[k], seq))
    if math.isinf(cost):
        return math.inf, None, None
    return cost, _unchain(chain), end


def _seq_cost(ctx, k, seq):
    return _closed(ctx, k, _walk(ctx, k, ctx.roots[k], seq))[0]


def _insertions(ctx, k, seq, pickup, delivery):
    """Feasible insertions of a pair into vehicle ``k``'s ``seq``.

    Yields ``(cost, new_seq)`` for pickup slot i and delivery slot j >= i,
    in (i, j) order.  The walk shares every prefix between slots, and a
    dead prefix ends the delivery slots that would extend it.
    """
    n = len(seq)
    head = ctx.roots[k]                   # after seq[:i]
    for i in range(n + 1):
        mid = _walk(ctx, k, head, (pickup,))     # after seq[:i] + pickup
        for j in range(i, n + 1):              # mid: ... + seq[i:j]
            if mid is _DEAD:
                break
            tail = _walk(ctx, k, mid, (delivery,))
            if tail is not _DEAD:
                cost = _closed(ctx, k, _walk(ctx, k, tail, seq[j:]))[0]
                if not math.isinf(cost):
                    yield cost, seq[:i] + [pickup] + seq[i:j] + [delivery] \
                        + seq[j:]
            if j < n:
                mid = _walk(ctx, k, mid, (seq[j],))
        if i < n:
            head = _walk(ctx, k, head, (seq[i],))
            if head is _DEAD:
                return


def _insertion_best2(ctx, seqs, pair):
    """Best insertion of ``pair`` plus the runner-up cost delta.

    Returns ``(best, second_delta)`` where ``best`` is
    ``(delta, vehicle, new_seq)`` or None and ``second_delta`` is the delta
    of the second-cheapest feasible slot (inf when there is at most one).
    """
    inst = ctx.inst
    pickup, delivery = pair, pair + inst.n_customers
    best = None
    second = math.inf
    for k in range(len(seqs)):
        base = _seq_cost(ctx, k, seqs[k])
        if math.isinf(base):
            continue
        for c, cand in _insertions(ctx, k, seqs[k], pickup, delivery):
            delta = c - base
            if best is None or delta < best[0] - 1e-12:
                second = best[0] if best is not None else math.inf
                best = (delta, k, cand)
            elif delta < second:
                second = delta
    return best, second


def _total(ctx, seqs):
    return sum(_seq_cost(ctx, k, seqs[k]) for k in range(len(seqs)))


def _improve(ctx, seqs):
    """First-improvement local search: pair relocate, pair exchange between
    routes, whole-route mode swap.  Deterministic sweep order."""
    inst = ctx.inst
    nv = len(seqs)
    improved = True
    while improved:
        improved = False
        current = _total(ctx, seqs)
        # relocate one pair anywhere
        for p in range(inst.n_customers):
            k_from = next(k for k in range(nv) if p in seqs[k])
            stripped = [c for c in seqs[k_from] if c not in (p, p + inst.n_customers)]
            trial = [list(s) for s in seqs]
            trial[k_from] = stripped
            best = _insertion_best2(ctx, trial, p)[0]
            if best is None:
                continue
            trial[best[1]] = best[2]
            t = _total(ctx, trial)
            if t < current - 1e-9:
                seqs[:] = trial
                improved = True
                break
        if improved:
            continue
        # exchange two pairs across routes
        pairs = [(p, next(k for k in range(nv) if p in seqs[k]))
                 for p in range(inst.n_customers)]
        for ia in range(len(pairs)):
            for ib in range(ia + 1, len(pairs)):
                (pa, ka), (pb, kb) = pairs[ia], pairs[ib]
                if ka == kb:
                    continue
                trial = [list(s) for s in seqs]
                trial[ka] = [c for c in trial[ka] if c not in (pa, pa + inst.n_customers)]
                trial[kb] = [c for c in trial[kb] if c not in (pb, pb + inst.n_customers)]
                # a moves into kb, b moves into ka, each at its best slot
                ok = True
                for p, k_to in ((pa, kb), (pb, ka)):
                    best = None
                    base = _seq_cost(ctx, k_to, trial[k_to])
                    if math.isinf(base):
                        ok = False
                        break
                    for c, cand in _insertions(ctx, k_to, trial[k_to], p,
                                               p + inst.n_customers):
                        if best is None or c < best[0] - 1e-12:
                            best = (c, cand)
                    if best is None:
                        ok = False
                        break
                    trial[k_to] = best[1]
                if not ok:
                    continue
                t = _total(ctx, trial)
                if t < current - 1e-9:
                    seqs[:] = trial
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        # swap the full sequences of two vehicles with different modes
        for ka in range(nv):
            for kb in range(ka + 1, nv):
                if ctx.fleet.vehicles[ka].mode == ctx.fleet.vehicles[kb].mode:
                    continue
                trial = [list(s) for s in seqs]
                trial[ka], trial[kb] = trial[kb], trial[ka]
                t = _total(ctx, trial)
                if t < current - 1e-9:
                    seqs[:] = trial
                    improved = True
                    break
            if improved:
                break
    return seqs


def _construct(ctx, rule, order):
    """One greedy construction pass; returns ``(seqs, insertions)``.

    ``rule`` picks which unrouted pair goes next:

    * ``"cheapest"`` — the pair with the globally cheapest insertion delta;
    * ``"regret"``   — the pair that would lose the most if postponed
      (largest gap between its best and second-best slot, with pairs that
      have a single feasible slot taking absolute priority);
    * ``"sequence"`` — pairs strictly in the given ``order``, each at its
      own cheapest slot.

    ``seqs`` is None when some pair could not be placed anywhere.
    """
    seqs = [[] for _ in ctx.fleet.vehicles]
    steps = 0
    if rule == "sequence":
        for p in order:
            best = _insertion_best2(ctx, seqs, p)[0]
            if best is None:
                return None, steps
            seqs[best[1]] = best[2]
            steps += 1
        return seqs, steps
    unrouted = list(order)
    while unrouted:
        chosen = None
        for p in unrouted:
            best, second = _insertion_best2(ctx, seqs, p)
            if best is None:
                continue
            key = best[0] if rule == "cheapest" else best[0] - second
            if chosen is None or key < chosen[0] - 1e-12:
                chosen = (key, best, p)
        if chosen is None:
            return None, steps
        _, (_, k, new_seq), p = chosen
        seqs[k] = new_seq
        unrouted.remove(p)
        steps += 1
    return seqs, steps


def _log_trie(ctx):
    LOG.debug("heuristic label trie: %d lookups, %d prefix extensions, "
              "%d dead-prefix hits, %d labels extended, %d legs priced",
              *ctx.trie_stats, ctx.legs.priced())


def solve_heuristic(inst, fleet, nets=None, physics=None, seed=0):
    """Cheapest pair insertion followed by first-improvement local search.

    Construction is multi-start: a globally-cheapest pass, a regret pass,
    fixed priority orders (largest demand first, tightest pickup deadline
    first) and a few seeded shuffles.  The cheapest feasible construction
    is then polished by local search; infeasible is reported only when
    every start dead-ends.

    Every candidate sequence of every start, every local-search trial and
    the final route rebuild are priced through one label trie per
    distinct vehicle (see ``_seq_eval``), which lives for this call: a
    candidate pays only for the suffix no earlier candidate has priced.
    The trie's lookup, extension and dead-prefix counts, the labels its
    extensions moved and the legs priced (entries of the ``LegCosts``
    tables) are logged at DEBUG on ``cpdptw.solver``.
    """
    ctx = _make_ctx(inst, fleet, nets, physics)
    t0 = _time.perf_counter()
    plan, steps = _heuristic_plan(ctx, seed)
    return _report(ctx, plan, steps, t0, False)


def _heuristic_plan(ctx, seed):
    """``(plan, insertions)`` of ``solve_heuristic`` on ``ctx``; the plan
    is None when every start dead-ends."""
    inst = ctx.inst
    by_demand = sorted(range(inst.n_customers),
                       key=lambda p: -inst.customers[p].demand)
    by_deadline = sorted(range(inst.n_customers),
                         key=lambda p: inst.node_window(p)[1])
    rng = random.Random(seed)
    starts = [("cheapest", by_demand), ("regret", by_demand),
              ("sequence", by_demand), ("sequence", by_deadline)]
    for _ in range(4):
        shuffled = list(range(inst.n_customers))
        rng.shuffle(shuffled)
        starts.append(("sequence", shuffled))
    best_seqs, best_total, steps = None, math.inf, 0
    for rule, order in starts:
        seqs_i, s = _construct(ctx, rule, order)
        steps += s
        if seqs_i is None:
            continue
        tot = _total(ctx, seqs_i)
        if tot < best_total - 1e-12:
            best_total, best_seqs = tot, seqs_i
    plan = None
    if best_seqs is not None:
        _improve(ctx, best_seqs)
        plan = [_seq_eval(ctx, k, seq)[1:] for k, seq in enumerate(best_seqs)]
    _log_trie(ctx)
    return plan, steps


# ---------------------------------------------------------------------------
# validation and the optimality-gap metric


def validate(sol, inst, fleet, nets=None, physics=None):
    """Replay a Solution against the instance; returns violation strings."""
    legs = _legs(inst, nets, physics)
    out = []
    tol = 1e-6
    seen = {}
    pickup_times = {}
    delivery_times = {}
    if len(sol.routes) != len(fleet.vehicles):
        out.append(f"{len(sol.routes)} routes for a fleet of "
                   f"{len(fleet.vehicles)} vehicles")
    for k, route in enumerate(sol.routes):
        veh = route.vehicle
        vs = route.visits
        if k < len(fleet.vehicles) and veh != fleet.vehicles[k]:
            out.append(f"vehicle {k}: route is driven by another vehicle "
                       f"than the fleet's vehicle {k}")
        if not vs or not inst.is_depot(vs[0].node):
            out.append(f"vehicle {k}: route must start at a depot")
            continue
        first = vs[0]
        if first.node != veh.start_depot or abs(first.departure) > tol \
                or abs(first.battery_after - veh.battery) > tol:
            out.append(f"vehicle {k}: route must start fresh at home depot "
                       f"{veh.start_depot}: full battery, departure 0")
        if not inst.is_depot(vs[-1].node):
            out.append(f"vehicle {k}: route must end at a depot")
        carried = set()
        load = 0.0
        for idx in range(1, len(vs)):
            prev, v = vs[idx - 1], vs[idx]
            node = v.node
            kind = inst.node_kind(node)
            replayed = advance(legs, veh, prev.node, prev.departure,
                               prev.battery_after, load, node)[1:5]
            for what, got, want in zip(
                    ("arrival", "departure", "battery on arrival",
                     "battery after"),
                    (v.arrival, v.departure, v.battery_arrival,
                     v.battery_after), replayed):
                if abs(got - want) > tol:
                    out.append(f"vehicle {k} visit {idx}: {what} {got:.6f} "
                               f"!= replayed {want:.6f}")
            if v.battery_arrival < -tol:
                out.append(f"vehicle {k} visit {idx}: battery negative "
                           f"({v.battery_arrival:.6f} kJ) at node {node}")
            if kind == "depot":
                if v.battery_arrival < veh.battery_floor * veh.battery - tol:
                    out.append(f"vehicle {k} visit {idx}: depot reached below "
                               f"reserve floor ({v.battery_arrival:.6f} kJ)")
            if kind == "pickup":
                e, l = inst.node_window(node)
                if v.arrival > l + tol:
                    out.append(f"vehicle {k}: pickup {node} visited at "
                               f"{v.arrival:.3f} after window close {l}")
                if node in seen:
                    out.append(f"node {node}: served more than once")
                seen[node] = k
                carried.add(node)
                load += inst.node_demand(node)
                pickup_times[node] = v.departure
                if load > veh.capacity + tol:
                    out.append(f"vehicle {k}: capacity exceeded at node {node} "
                               f"({load:.3f} > {veh.capacity})")
            elif kind == "delivery":
                p = inst.pair_of(node)
                if node in seen:
                    out.append(f"node {node}: served more than once")
                seen[node] = k
                if p not in carried:
                    out.append(f"vehicle {k}: delivery {node} without carrying "
                               f"its pickup {p}")
                carried.discard(p)
                load += inst.node_demand(node)
                delivery_times[node] = v.arrival
            if abs(v.load_after - load) > tol:
                out.append(f"vehicle {k} visit {idx}: recorded load {v.load_after} "
                           f"!= recomputed {load}")
        if carried:
            out.append(f"vehicle {k}: ends still carrying {sorted(carried)}")
    for p in range(inst.n_customers):
        d = p + inst.n_customers
        if p not in seen:
            out.append(f"pickup {p}: never served")
        if d not in seen:
            out.append(f"delivery {d}: never served")
        if p in seen and d in seen and seen[p] != seen[d]:
            out.append(f"customer {p}: pickup and delivery on different vehicles")
        if p in pickup_times and d in delivery_times and \
                pickup_times[p] > delivery_times[d] + tol:
            out.append(f"customer {p}: delivery precedes pickup")
    return out


def gap(costs, baseline):
    """Mean relative regret (cost - baseline) / baseline.

    ``baseline`` may be one value or a list matching ``costs``.
    """
    costs = [float(c) for c in np.atleast_1d(costs)]
    bases = [float(b) for b in np.atleast_1d(baseline)]
    if len(bases) == 1:
        bases = bases * len(costs)
    if len(bases) != len(costs):
        raise ValueError(f"gap: {len(costs)} costs vs {len(bases)} baselines")
    for b in bases:
        if not b > 0:
            raise ValueError(f"gap: baseline must be > 0, got {b}")
    return float(np.mean([(c - b) / b for c, b in zip(costs, bases)]))
