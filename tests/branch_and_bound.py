"""Branch and bound over (vehicle, next-node) decisions: the reference the
tests hold ``solver.solve_exact`` (route tables plus a set-partition DP)
against.

It searches the same moves (``solver._moves``/``_end_moves``) with another
algorithm: one depth-first search over the whole fleet, vehicle after
vehicle, cut by an admissible bound.  The bound adds, for every unserved
customer node, the cheapest alpha-weighted arc that could ever enter it
(over the vehicles still available), plus the active vehicle's cheapest
depot return -- admissible, since every unserved node must still be
entered once.  A partial plan that one of the newest eight earlier ones
with the same vehicle, position, load, carried and served sets provably
beats is skipped before it counts as a node (``solver._dominated``), so
the first minimum-cost plan in search order is the one returned.
"""

import math
import time

import numpy as np

from cpdptw import solver

# how many of the newest labels of a key the dominance check scans
_DOMINANCE_SCAN = 8


def fresh(ctx, k):
    """The route state ``(pos, clock, battery, load, carried)`` of vehicle
    ``k`` at the start: home depot, full battery, empty."""
    v = ctx.fleet.vehicles[k]
    return (v.start_depot, 0.0, v.battery, 0.0, frozenset())


def _dominated(store, key, cost, clock, batt, w3e, rate):
    """True when one of the newest labels of ``key`` in ``store`` beats
    this one (``solver._dominated``); else the label is stored."""
    label = (cost, clock, batt, None)
    labels = store.setdefault(key, [])
    if solver._dominated(label, labels, w3e, rate):
        return True
    labels.append(label)
    if len(labels) > _DOMINANCE_SCAN:
        del labels[0]
    return False


class _Search:
    def __init__(self, ctx):
        self.ctx = ctx
        self.nv = len(ctx.fleet.vehicles)
        self.best_cost = math.inf
        self.best_plan = None
        self.nodes = 0
        self.labels = {}        # _dominated's store
        self.t0 = time.perf_counter()
        self._prepare_bound()

    def _prepare_bound(self):
        """suffix_in[k][v]: cheapest alpha-weighted entering arc of node v
        over vehicles k.., a lower bound on the cost of ever serving v."""
        ctx = self.ctx
        inst = ctx.inst
        nn = inst.n_nodes
        ncust = 2 * inst.n_customers
        per_vehicle = np.full((self.nv, nn), math.inf)
        half_ret = np.zeros((self.nv, nn))
        for k, veh in enumerate(ctx.fleet.vehicles):
            for v in range(ncust):
                best = min(ctx.legs.time_min(veh, u, v)
                           for u in range(nn) if u != v)
                per_vehicle[k, v] = ctx.alpha[k] * best
            for v in range(nn):
                half_ret[k, v] = ctx.alpha[k] * min(
                    ctx.legs.time_min(veh, v, d, half=True)
                    for d in ctx.depots)
        self.suffix_in = np.minimum.accumulate(per_vehicle[::-1], axis=0)[::-1]
        self.half_ret = half_ret

    def _bound(self, k, rs, unserved):
        ctx = self.ctx
        total = 0.0
        row = self.suffix_in[min(k, self.nv - 1)]
        for v in unserved:
            total += row[v]
        if rs is not None and rs[0] < ctx.legs.ncust2:
            # The active vehicle's final leg back to a depot departs either
            # from where it stands or from one of the still-unserved
            # customers, whichever its route ends on.
            ret = self.half_ret[k][rs[0]]
            for v in unserved:
                r = self.half_ret[k][v]
                if r < ret:
                    ret = r
            total += ret
        return max(total - 1e-9, 0.0)

    def run(self):
        self._vehicle(0, frozenset(), 0.0, [])
        return self

    def _vehicle(self, k, served, cost, plans):
        ctx = self.ctx
        if k == self.nv:
            if len(served) == ctx.legs.ncust2 and cost < self.best_cost:
                self.best_cost = cost
                self.best_plan = [(list(mv), end) for mv, end in plans]
            return
        unserved = [v for v in range(ctx.legs.ncust2) if v not in served]
        if cost + self._bound(k, None, unserved) >= self.best_cost:
            return
        self._route(k, fresh(ctx, k), served, cost, plans, [])

    def _route(self, k, rs, served, cost, plans, trail):
        ctx = self.ctx
        pos, clock, batt, load, carried = rs
        if _dominated(self.labels, (k, pos, load, carried, served), cost,
                      clock, batt, ctx.w3e, ctx.fleet.vehicles[k].charge_rate):
            return
        self.nodes += 1
        unserved = [v for v in range(ctx.legs.ncust2) if v not in served]
        if cost + self._bound(k, rs, unserved) >= self.best_cost:
            return
        n_cust = ctx.legs.n_cust
        candidates = sorted([p + n_cust for p in carried]
                            + [p for p in range(n_cust)
                               if p not in served and p not in carried])
        label = ((clock, batt),)
        for _, move, rs2, dcost in solver._moves(ctx, k, pos, load, carried,
                                                 label, candidates):
            trail.append(move)
            self._route(k, rs2, served | {move[1]}, cost + dcost, plans, trail)
            trail.pop()
        for _, d, dcost in solver._end_moves(ctx, k, pos, load, carried,
                                             label):
            plans.append((trail, d))
            self._vehicle(k + 1, served, cost + dcost, plans)
            plans.pop()


def solve_bnb(inst, fleet, nets=None, physics=None):
    """The branch and bound's proven optimum as a ``SolveReport``."""
    ctx = solver._make_ctx(inst, fleet, nets, physics)
    search = _Search(ctx).run()
    return solver._report(ctx, search.best_plan, search.nodes, search.t0,
                          True)
