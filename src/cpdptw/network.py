"""Dual aerial/ground travel networks.

Drones and sidewalk robots see the same node set (the instance's pickups,
deliveries and depots) through two overlaid graphs built from one dense
matrix of straight-line lengths.  The ground graph is never blocked.  The
aerial graph loses direct customer-to-customer edges to obstacles with
probability ``rho``; a blocked pair must then route through other nodes.
Depot-anchored edges are never blocked, so every node stays reachable at any
density.

The lengths are Euclidean, so an unblocked pair's shortest path is its
direct edge.  Only a blocked pair needs a search: a Dijkstra from its source,
run on first use.  Travel time is sum(length / vehicle speed) along the path.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdjacencySpec:
    """Spatio-temporal neighborhood thresholds and aerial obstacle density."""

    zeta: float = 120.0   # min: |l_i - l_j| <= zeta makes nodes temporal neighbors
    mu: float = 10.0      # km: distance <= mu makes nodes spatial neighbors
    rho: float = 0.0      # probability a direct aerial customer-pair edge is blocked
    seed: int = 0

    def validate(self):
        if not self.zeta > 0:
            raise ValueError(f"zeta: must be > 0, got {self.zeta!r}")
        if not self.mu > 0:
            raise ValueError(f"mu: must be > 0, got {self.mu!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho: must be in [0, 1], got {self.rho!r}")
        return self


class ModeGraph:
    """One travel mode over the instance's nodes.

    ``xy[i]`` is node i's (x_km, y_km) and ``dist[i][j]`` the length of the
    direct edge i -> j in metres, ``inf`` when it is blocked.  Immutable
    once built; the shortest-path tree of a source with a blocked pair is
    cached on first use.
    """

    def __init__(self, mode, xy, dist):
        self.mode = mode
        self.xy = xy
        self.dist = dist
        self._trees = {}

    def _tree(self, src):
        """Dijkstra from ``src`` over the dense rows: (dist_m, parent) lists."""
        hit = self._trees.get(src)
        if hit is not None:
            return hit
        n = len(self.dist)
        dist = [math.inf] * n
        parent = [None] * n
        dist[src] = 0.0
        heap = [(0.0, src)]           # (distance, node): index breaks ties
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue              # stale entry: u was settled nearer
            for v, length in enumerate(self.dist[u]):   # ascending node order
                nd = d + length
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        self._trees[src] = (dist, parent)
        return dist, parent

    def path_to(self, src, dst):
        """Node list src..dst, the direct edge unless it is blocked; None
        when ``dst`` is unreachable."""
        if src == dst:
            return [src]
        if self.dist[src][dst] < math.inf:
            return [src, dst]
        parent = self._tree(src)[1]
        if parent[dst] is None:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def distance_m(self, src, dst):
        d = self.dist[src][dst]
        return d if d < math.inf else self._tree(src)[0][dst]

    def travel_min(self, src, dst, speed_mps):
        """Minutes along the shortest path at ``speed_mps``."""
        path = self.path_to(src, dst)
        if path is None:
            return math.inf
        total_s = 0.0
        for a, b in zip(path, path[1:]):
            total_s += self.dist[a][b] / speed_mps
        return total_s / 60.0


def apply_density(g, spec, customers):
    """Block direct aerial edges between ``customers`` (node indices) with
    probability ``spec.rho``.

    Blocking is symmetric, independent per unordered pair and reproducible
    for a fixed seed.  Ground graphs and depot-anchored edges are untouched.
    Returns a graph with its own copy of the matrix (``g`` itself when
    nothing can be blocked).
    """
    spec.validate()
    if g.mode != "UAV" or spec.rho == 0.0:
        return g
    rng = np.random.default_rng(spec.seed)
    dist = [list(row) for row in g.dist]
    for i, j in itertools.combinations(sorted(customers), 2):
        if rng.random() < spec.rho:
            dist[i][j] = dist[j][i] = math.inf
    return ModeGraph(g.mode, g.xy, dist)


def temporal_adjacency(inst, spec):
    """Symmetric boolean matrix: |l_i - l_j| <= zeta over all nodes.

    Depots have unbounded windows and are never temporal neighbors of
    anything (the action mask admits them unconditionally instead).
    """
    n = inst.n_nodes
    late = np.array([inst.node_window(k)[1] for k in range(n)])
    finite = np.flatnonzero(np.isfinite(late))
    a = np.zeros((n, n), dtype=bool)
    lf = late[finite]
    a[np.ix_(finite, finite)] = np.abs(lf[:, None] - lf[None, :]) <= spec.zeta
    np.fill_diagonal(a, False)
    return a


def spatial_adjacency(inst, spec):
    """Symmetric boolean matrix: Euclidean distance <= mu, all nodes."""
    xy = inst.coords()
    d = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
    a = d <= spec.mu
    np.fill_diagonal(a, False)
    return a


# Default cruise speeds (m/s) used for edge features when no explicit speed
# is supplied; instances with bespoke fleets can pass their own.
_MODE_SPEED = {"UAV": 20.0, "ADR": 8.3}


def edge_features(inst, g, mode, spec=None, speed_mps=None):
    """Relative-slack features e_ij = |e_i - l_j - t_ij| (minutes), as a
    (2N, 2N) matrix over the customer nodes.

    NaN on the diagonal, outside the temporal neighborhood (when ``spec``
    is given) and where ``g`` has no path.  Only blocked pairs inside the
    kept entries are searched for a detour.
    """
    v = _MODE_SPEED[mode] if speed_mps is None else speed_mps
    if not v > 0:
        raise ValueError(f"speed for mode {mode}: must be > 0, got {v!r}")
    nc = 2 * inst.n_customers
    keep = ~np.eye(nc, dtype=bool)
    if spec is not None:
        keep &= temporal_adjacency(inst, spec)[:nc, :nc]
    d = np.array(g.dist)[:nc, :nc]
    for i, j in zip(*np.nonzero(keep & np.isinf(d))):
        d[i, j] = g.distance_m(int(i), int(j))
    early, late = np.array([inst.node_window(k) for k in range(nc)]).T
    slack = np.abs(early[:, None] - late[None, :] - d / (v * 60.0))
    slack[~keep | np.isinf(d)] = np.nan
    return slack


# -- construction from instances ---------------------------------------------


def _straight_line_m(xy):
    """Dense matrix of straight-line lengths in metres, 0 on the diagonal;
    coincident nodes still get a 1e-9 m edge."""
    return [[0.0 if i == j else math.hypot(xi - xj, yi - yj) * 1000.0 or 1e-9
             for j, (xj, yj) in enumerate(xy)]
            for i, (xi, yi) in enumerate(xy)]


@dataclass
class DualNetwork:
    """Aerial + ground graphs plus the adjacency structure built from one spec."""

    aerial: ModeGraph
    ground: ModeGraph
    spec: AdjacencySpec
    temporal: np.ndarray = field(repr=False)
    spatial: np.ndarray = field(repr=False)

    def graph(self, mode):
        if mode == "UAV":
            return self.aerial
        if mode == "ADR":
            return self.ground
        raise ValueError(f"unknown mode {mode!r}")


def build_networks(inst, spec=None):
    """Both modes over one straight-line matrix, with aerial density applied."""
    spec = (spec or AdjacencySpec()).validate()
    xy = [inst.node_xy(k) for k in range(inst.n_nodes)]
    ground = ModeGraph("ADR", xy, _straight_line_m(xy))
    aerial = apply_density(ModeGraph("UAV", xy, ground.dist), spec,
                           range(2 * inst.n_customers))
    return DualNetwork(aerial=aerial, ground=ground, spec=spec,
                       temporal=temporal_adjacency(inst, spec),
                       spatial=spatial_adjacency(inst, spec))
