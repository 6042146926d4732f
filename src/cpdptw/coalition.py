"""Cooperative-game analysis of mixed drone/robot fleets.

The characteristic cost of a coalition is the cheapest way to serve every
customer using only that coalition's vehicles, improved by splitting the
coalition into two disjoint parts and letting each part work alone:

    C(S) = min( min over proper bipartitions S1 ∪ S2 = S of C(S1) + C(S2),
                routing cost of S operating jointly ).

The table is built bottom-up over subset size, so both parts of every
bipartition are priced before the coalition itself.  Coalitions that cannot
cover the demand at all get +inf, which drops them out of every min.  On
top of the resulting table the module checks sub-additivity and convexity
(with explicit witnesses on failure) and decides core non-emptiness as an
LP feasibility problem solved by a small phase-1 simplex: find shares x
with sum(x) = C(grand) and sum over S of x_i <= C(S) for every proper
subset (cost-share convention -- an allocation is blocked only when some
coalition could do strictly better on its own).

``coalition_sweep`` evaluates a whole m-by-n fleet grid and reports, per
cell, the cooperative cost, the gain over everyone working alone, and the
core verdict -- ready to plot as a contour matrix.  Every coalition is
priced with its own vehicles; coalitions whose vehicles have equal fields
share one joint cost.  Exact joint costs run ``solve_exact``'s search over
route tables shared by the whole sweep: vehicles start fresh and their
routes never interact, so a coalition's optimum is a set partition of the
pairs over its vehicles' tables, and each distinct vehicle's table is
walked once for everything that shares the memo -- every cell of a sweep.
"""

from __future__ import annotations

import csv
import logging
import math
import time as _time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import solver
from .instance import FleetSpec
from .network import build_networks
# solve_exact and solve_heuristic stay bound for perfbench/tracing.py to wrap
from .solver import EXACT_NODE_LIMIT, SolverLimits, solve_exact, solve_heuristic

LOG = logging.getLogger(__name__)

# build_table's memo also holds, under keys no joint cost uses, the one
# LegCosts of every joint cost (``_LEGS``), the route tables of the exact
# ones (``_TABLES``, the store of ``solver._by_tables``) and the counts
# the sweep logs (``_COUNTS``)
_LEGS = "leg costs"
_TABLES = "route tables"
_COUNTS = "counts"


@dataclass(frozen=True)
class Coalition:
    """A subset of the fleet: UAV agent ids and ADR agent ids (disjoint pools)."""

    uavs: frozenset = frozenset()
    adrs: frozenset = frozenset()

    @staticmethod
    def of(uavs=(), adrs=()):
        return Coalition(frozenset(uavs), frozenset(adrs))

    @property
    def size(self):
        return len(self.uavs) + len(self.adrs)

    def members(self):
        """Stable (mode, id) listing: UAVs first, then ADRs, each sorted."""
        return tuple(("UAV", i) for i in sorted(self.uavs)) \
            + tuple(("ADR", i) for i in sorted(self.adrs))

    def union(self, other):
        return Coalition(self.uavs | other.uavs, self.adrs | other.adrs)

    def intersection(self, other):
        return Coalition(self.uavs & other.uavs, self.adrs & other.adrs)

    def isdisjoint(self, other):
        return self.uavs.isdisjoint(other.uavs) and self.adrs.isdisjoint(other.adrs)

    def label(self):
        parts = [f"D{i + 1}" for i in sorted(self.uavs)]
        parts += [f"R{j + 1}" for j in sorted(self.adrs)]
        return "{" + ",".join(parts) + "}" if parts else "{}"


def agent_label(mode, idx):
    return ("D" if mode == "UAV" else "R") + str(idx + 1)


def _subsets(members):
    for k in range(len(members) + 1):
        for combo in combinations(members, k):
            uavs = frozenset(i for m, i in combo if m == "UAV")
            adrs = frozenset(i for m, i in combo if m == "ADR")
            yield Coalition(uavs, adrs)


@dataclass
class CoalitionTable:
    """Characteristic costs over every subset of a fixed agent pool."""

    uav_ids: tuple
    adr_ids: tuple
    costs: dict = field(default_factory=dict)   # Coalition -> float
    subadditive: bool | None = None
    sub_witness: tuple | None = None
    convex: bool | None = None
    conv_witness: tuple | None = None
    core: dict | None = None

    def grand(self):
        return Coalition(frozenset(self.uav_ids), frozenset(self.adr_ids))

    def agents(self):
        return self.grand().members()

    def subsets(self):
        return _subsets(self.agents())

    def cost(self, coalition):
        if coalition.size == 0:
            return 0.0
        try:
            return self.costs[coalition]
        except KeyError:
            raise ValueError(
                f"coalition table incomplete: missing C({coalition.label()})")


# ---------------------------------------------------------------------------
# characteristic function


def _solver_cost(inst, vehicles, nets, physics, solver_choice, memo):
    """Joint routing cost of an explicit vehicle list (inf when infeasible).

    No ``solver_choice`` means exact when 2N <= ``EXACT_NODE_LIMIT``, else
    the heuristic.  Exact is ``solve_exact``'s search without limits over
    the route tables kept in ``memo``, each walked the first time its
    vehicle appears; the heuristic is ``solve_heuristic``'s plan (seed 0).
    Both price their legs with the one ``LegCosts`` kept in ``memo``.
    """
    exact = solver_choice == "exact" or (
        solver_choice is None and 2 * inst.n_customers <= EXACT_NODE_LIMIT)
    ctx = solver._make_ctx(inst, FleetSpec(vehicles), nets, physics,
                           memo.get(_LEGS))
    memo[_LEGS] = ctx.legs
    if exact:
        memo[_COUNTS]["dp"] += 1
        report = solver._by_tables(ctx, SolverLimits(),
                                   memo.setdefault(_TABLES, {}))
    else:
        memo[_COUNTS]["solver"] += 1
        t0 = _time.perf_counter()
        plan = solver._heuristic_plan(ctx, 0)[0]
        report = solver._report(ctx, plan, 0, t0, False)
    return report.solution.total if report.feasible else math.inf


def _check_choice(solver_choice):
    if solver_choice not in (None, "exact", "heuristic"):
        raise ValueError("solver_choice: expected exact|heuristic or None, "
                         f"got {solver_choice!r}")


def _split_pool(fleet_pool):
    vehicles = list(fleet_pool.vehicles) if isinstance(fleet_pool, FleetSpec) \
        else list(fleet_pool)
    return ([v for v in vehicles if v.mode == "UAV"],
            [v for v in vehicles if v.mode == "ADR"])


def _bipartitions(coalition):
    """Proper unordered bipartitions (S1, S2), S1 holding the first member."""
    members = coalition.members()
    for side1 in _subsets(members):
        side2 = Coalition(coalition.uavs - side1.uavs, coalition.adrs - side1.adrs)
        if side2.size and members[0] in side1.members():
            yield side1, side2


def build_table(inst, fleet_pool, nets=None, physics=None, solver_choice=None,
                cache=None, cost_fn=None):
    """Characteristic table over every subset of the pool's vehicles.

    UAV id i is the i-th UAV of ``fleet_pool``, ADR id j its j-th ADR.
    Coalitions are priced smallest first, so both parts of every
    bipartition are already in the table.  The joint cost of a coalition
    comes from ``cost_fn(uav_ids, adr_ids)`` when given (frozensets; +inf
    for coalitions it does not define), else from the solver on the
    coalition's vehicles (see ``_solver_cost``; ``solver_choice`` is None,
    "exact" or "heuristic").  ``cache`` memoises joint costs on what they
    depend on: the ids for ``cost_fn``, the vehicles for the solver.  It
    also keeps the exact pricing's route tables and the leg costs.  Tables
    over the same inputs may share it.  Without ``nets`` the solver's
    networks are built once, here.
    """
    _check_choice(solver_choice)
    if nets is None and cost_fn is None:
        nets = build_networks(inst)
    uav_pool, adr_pool = _split_pool(fleet_pool)
    tbl = CoalitionTable(uav_ids=tuple(range(len(uav_pool))),
                         adr_ids=tuple(range(len(adr_pool))))
    memo = cache if cache is not None else {}
    counts = memo.setdefault(_COUNTS, Counter())
    for coalition in tbl.subsets():
        if coalition.size == 0:
            continue
        if cost_fn is not None:
            key = (coalition.uavs, coalition.adrs)
        else:
            vehicles = [uav_pool[i] for i in sorted(coalition.uavs)] \
                + [adr_pool[j] for j in sorted(coalition.adrs)]
            key = tuple(vehicles)
        if key in memo:
            counts["memo"] += 1
        elif cost_fn is not None:
            memo[key] = cost_fn(*key)
            counts["cost_fn"] += 1
        else:
            memo[key] = _solver_cost(inst, vehicles, nets, physics,
                                     solver_choice, memo)
        best = memo[key]
        for side1, side2 in _bipartitions(coalition):
            part = tbl.costs[side1] + tbl.costs[side2]
            if part < best:
                best = part
        tbl.costs[coalition] = best
    return tbl


# ---------------------------------------------------------------------------
# game-theoretic checks


def check_subadditivity(tbl, tol=1e-9):
    """True iff C(S1 ∪ S2) <= C(S1) + C(S2) for all disjoint nonempty pairs."""
    subsets = [s for s in tbl.subsets() if s.size > 0]
    for s1, s2 in combinations(subsets, 2):
        if not s1.isdisjoint(s2):
            continue
        if tbl.cost(s1.union(s2)) > tbl.cost(s1) + tbl.cost(s2) + tol:
            tbl.subadditive, tbl.sub_witness = False, (s1, s2)
            return False, (s1, s2)
    tbl.subadditive, tbl.sub_witness = True, None
    return True, None


def check_convexity(tbl, tol=1e-9):
    """True iff C(S1 ∪ S2) <= C(S1) + C(S2) - C(S1 ∩ S2) for all pairs.

    Infeasible (+inf) intersections make the right side -inf, so any pair
    whose parts are feasible while their intersection is not counts as a
    violation; pairs with an infeasible part are vacuous.
    """
    subsets = [s for s in tbl.subsets() if s.size > 0]
    for s1, s2 in combinations(subsets, 2):
        c1, c2 = tbl.cost(s1), tbl.cost(s2)
        ci = tbl.cost(s1.intersection(s2))
        cu = tbl.cost(s1.union(s2))
        if math.isinf(ci):
            if math.isinf(c1) or math.isinf(c2):
                continue
            tbl.convex, tbl.conv_witness = False, (s1, s2)
            return False, (s1, s2)
        if cu > c1 + c2 - ci + tol:
            tbl.convex, tbl.conv_witness = False, (s1, s2)
            return False, (s1, s2)
    tbl.convex, tbl.conv_witness = True, None
    return True, None


# ---------------------------------------------------------------------------
# core membership via phase-1 simplex


def _phase1_feasible(a_ub, b_ub, a_eq, b_eq, tol=1e-9):
    """Find free x with a_ub @ x <= b_ub and a_eq @ x == b_eq, else None.

    Phase-1 simplex over the split x = p - q with slacks and artificials;
    Bland's rule keeps it finite.  A residual stuck between ``tol`` and 1e-6
    is reported as numerical degeneracy instead of being rounded either way.
    """
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    n = a_eq.shape[1]
    if a_ub.size == 0:
        a_ub = a_ub.reshape(0, n)
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    rows = np.vstack([a_ub, a_eq])
    rhs = np.concatenate([np.asarray(b_ub, dtype=float).reshape(-1),
                          np.asarray(b_eq, dtype=float).reshape(-1)])
    tab = np.hstack([rows, -rows,
                     np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    flip = rhs < 0
    tab[flip] *= -1.0
    rhs = np.abs(rhs)
    art_rows = [r for r in range(m) if r >= m_ub or flip[r]]
    art = np.zeros((m, len(art_rows)))
    for c, r in enumerate(art_rows):
        art[r, c] = 1.0
    tab = np.hstack([tab, art])
    ncols = tab.shape[1]
    art0 = 2 * n + m_ub
    basis = np.empty(m, dtype=int)
    nxt = 0
    for r in range(m):
        if r < m_ub and not flip[r]:
            basis[r] = 2 * n + r
        else:
            basis[r] = art0 + nxt
            nxt += 1
    obj = np.zeros(ncols)
    obj[art0:] = 1.0
    red = obj - obj[basis] @ tab
    for _ in range(20000):
        entering = -1
        for j in range(ncols):
            if red[j] < -1e-12:
                entering = j
                break
        if entering < 0:
            break
        cols = np.flatnonzero(tab[:, entering] > 1e-12)
        if cols.size == 0:
            raise RuntimeError("phase-1 simplex: unbounded pivot column")
        ratios = rhs[cols] / tab[cols, entering]
        best = ratios.min()
        ties = cols[ratios <= best + 1e-12]
        leaving = ties[np.argmin(basis[ties])]
        pivot = tab[leaving, entering]
        tab[leaving] /= pivot
        rhs[leaving] /= pivot
        for r in range(m):
            if r != leaving and tab[r, entering] != 0.0:
                f = tab[r, entering]
                tab[r] -= f * tab[leaving]
                rhs[r] -= f * rhs[leaving]
        f = red[entering]
        red -= f * tab[leaving]
        basis[leaving] = entering
    else:
        raise RuntimeError("phase-1 simplex: iteration limit reached")
    residual = float(sum(rhs[r] for r in range(m) if basis[r] >= art0))
    if residual > 1e-6:
        return None
    if residual > tol:
        try:
            cond = float(np.linalg.cond(np.vstack([a_ub, a_eq])))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise RuntimeError(
            f"phase-1 simplex: near-degenerate residual {residual:.3e} "
            f"(constraint matrix condition estimate {cond:.3e})")
    full = np.zeros(ncols)
    full[basis] = rhs
    return full[:n] - full[n:2 * n]


def core_check(tbl, tol=1e-9):
    """Core non-emptiness of the cost game, with one allocation as witness.

    Feasibility system: shares x with sum(x) = C(grand) and, for every
    nonempty proper subset S, sum over S of x_i <= C(S).  Returns
    ``{"nonempty": bool, "allocation": {agent: share} | None}`` and stores
    the result on the table.
    """
    agents = tbl.agents()
    subsets = [s for s in tbl.subsets() if s.size > 0]
    for s in subsets:
        if math.isinf(tbl.cost(s)):
            raise ValueError(
                f"core_check requires finite costs; C({s.label()}) is not")
    grand = tbl.grand()
    index = {agent: i for i, agent in enumerate(agents)}
    a_ub, b_ub = [], []
    for s in subsets:
        if s == grand:
            continue
        row = np.zeros(len(agents))
        for member in s.members():
            row[index[member]] = 1.0
        a_ub.append(row)
        b_ub.append(tbl.cost(s))
    x = _phase1_feasible(
        np.array(a_ub) if a_ub else np.zeros((0, len(agents))),
        np.array(b_ub), np.ones((1, len(agents))), [tbl.cost(grand)], tol=tol)
    if x is None:
        result = {"nonempty": False, "allocation": None}
    else:
        for row, bound in zip(a_ub, b_ub):
            if row @ x > bound + 1e-6:
                raise RuntimeError("core allocation failed verification "
                                   f"(violation {row @ x - bound:.3e})")
        result = {"nonempty": True,
                  "allocation": {agent_label(m, i): float(x[index[(m, i)]])
                                 for (m, i) in agents}}
    tbl.core = result
    return result


# ---------------------------------------------------------------------------
# fleet-size sweep


@dataclass
class SweepCell:
    d: int
    r: int
    cost: float = math.nan
    gain: float = math.nan
    core_nonempty: bool | None = None
    failed: bool = False
    error: str = ""
    table: CoalitionTable | None = None


@dataclass
class SweepResult:
    m: int
    n: int
    cells: list

    def cell(self, d, r):
        for c in self.cells:
            if c.d == d and c.r == r:
                return c
        raise KeyError((d, r))


def coalition_sweep(inst, fleet_pool, solver_choice=None, nets=None,
                    physics=None, cost_fn=None):
    """Gain matrix over every sub-fleet of d <= m UAVs and r <= n ADRs.

    Per cell: the grand-coalition cost of the (d, r) sub-fleet, the gain of
    cooperating over everyone working alone (sum of singleton costs minus
    the grand cost), and the core verdict of that cell's table.  Solver
    failures mark the cell failed without aborting the sweep.  The cells
    share one memo of joint costs and route tables, and without ``nets``
    one build of the networks; the memo's counts go to one DEBUG line on
    the ``cpdptw.coalition`` logger.
    """
    _check_choice(solver_choice)
    uav_pool, adr_pool = _split_pool(fleet_pool)
    m, n = len(uav_pool), len(adr_pool)
    if m < 1 or n < 1:
        raise ValueError(f"sweep needs at least one vehicle of each mode, "
                         f"got {m} UAVs and {n} ADRs")
    if nets is None and cost_fn is None:
        nets = build_networks(inst)
    cache = {}
    cells = []
    for d in range(1, m + 1):
        for r in range(1, n + 1):
            cell = SweepCell(d=d, r=r)
            try:
                pool = uav_pool[:d] + adr_pool[:r]
                tbl = build_table(inst, pool, nets=nets, physics=physics,
                                  solver_choice=solver_choice, cache=cache,
                                  cost_fn=cost_fn)
                check_subadditivity(tbl)
                check_convexity(tbl)
                grand_cost = tbl.cost(tbl.grand())
                singles = sum(tbl.cost(Coalition.of(uavs=[i])) for i in range(d)) \
                    + sum(tbl.cost(Coalition.of(adrs=[j])) for j in range(r))
                cell.cost = grand_cost
                cell.gain = singles - grand_cost
                if all(math.isfinite(tbl.cost(s))
                       for s in tbl.subsets() if s.size > 0):
                    cell.core_nonempty = core_check(tbl)["nonempty"]
                cell.table = tbl
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                cell.failed = True
                cell.error = str(exc)
            cells.append(cell)
    counts = cache.setdefault(_COUNTS, Counter())
    walks = cache.get(_TABLES, {}).values()
    LOG.debug("coalition sweep %dx%d: %d route tables walked (%d nodes, "
              "%d partial routes dominated); joint costs: %d by DP, %d by a "
              "solver, %d by cost_fn, %d from the memo", m, n, len(walks),
              sum(w[1] for w in walks), sum(w[2] for w in walks),
              counts["dp"], counts["solver"], counts["cost_fn"], counts["memo"])
    return SweepResult(m=m, n=n, cells=cells)


def sweep_to_csv(sweep, path):
    """Plot-ready matrix: one row per (d, r) cell, schema version 1."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["d", "r", "C", "gain", "core_nonempty"])
        for cell in sweep.cells:
            if cell.failed:
                out.writerow([cell.d, cell.r, "", "", "failed"])
            else:
                out.writerow([cell.d, cell.r, f"{cell.cost:.6f}",
                              f"{cell.gain:.6f}",
                              {True: "true", False: "false", None: ""}
                              [cell.core_nonempty]])


def sweep_summary(sweep):
    """Human-readable recap naming any sub-additivity/convexity witnesses."""
    lines = [f"coalition sweep over {sweep.m} UAV(s) x {sweep.n} ADR(s)"]
    for cell in sweep.cells:
        if cell.failed:
            lines.append(f"  d={cell.d} r={cell.r}: FAILED ({cell.error})")
            continue
        if math.isinf(cell.cost):
            grand = Coalition.of(range(cell.d), range(cell.r))
            lines.append(f"  d={cell.d} r={cell.r}: infeasible, no coalition "
                         f"of {grand.label()} serves every pair")
            continue
        verdict = {True: "nonempty", False: "empty", None: "not checked"}
        lines.append(f"  d={cell.d} r={cell.r}: C={cell.cost:.4f} "
                     f"gain={cell.gain:.4f} core {verdict[cell.core_nonempty]}")
        tbl = cell.table
        if tbl is not None and tbl.subadditive is False:
            s1, s2 = tbl.sub_witness
            lines.append(f"    sub-additivity fails at {s1.label()} + {s2.label()}")
        if tbl is not None and tbl.convex is False:
            s1, s2 = tbl.conv_witness
            lines.append(f"    convexity fails at {s1.label()} vs {s2.label()}")
    return "\n".join(lines)
