"""Dual-mode graphs: blocked-pair detours, density, adjacency, edge features."""

import itertools
import math

import numpy as np
import pytest

from cpdptw import instance, toy
from cpdptw.network import (AdjacencySpec, ModeGraph, apply_density,
                            build_networks, edge_features, spatial_adjacency,
                            temporal_adjacency)

INF = math.inf


def _grid_graph():
    """4-node square with one diagonal shortcut; no edge into 0, none 0 -> 3."""
    xy = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    dist = [[0.0, 1000.0, 1500.0, INF],
            [INF, 0.0, 1000.0, INF],
            [INF, 1000.0, 0.0, 1000.0],
            [INF, INF, 1000.0, 0.0]]
    return ModeGraph("ADR", xy, dist)


# -- shortest paths -----------------------------------------------------------


def test_shortest_path_prefers_the_shorter_route():
    g = _grid_graph()
    assert g.path_to(0, 2) == [0, 2]
    assert g.distance_m(0, 2) == 1500.0
    # 0 -> 3 is blocked: the diagonal + one hop beats going round the square
    assert g.path_to(0, 3) == [0, 2, 3]
    assert g.distance_m(0, 3) == 2500.0
    assert g.travel_min(0, 3, 20.0) == (1500.0 / 20.0 + 1000.0 / 20.0) / 60.0


def test_shortest_path_unreachable_and_unknown():
    g = _grid_graph()
    assert g.path_to(3, 0) is None                 # no edges into 0
    assert g.distance_m(3, 0) == INF
    assert g.travel_min(3, 0, 20.0) == INF
    with pytest.raises(IndexError):
        g.path_to(0, 99)


def _floyd_warshall(dist):
    n = len(dist)
    d = [list(row) for row in dist]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def test_dijkstra_matches_floyd_warshall_on_blocked_instances():
    for rho, seed in itertools.product((0.3, 1.0), range(6)):
        inst = instance.generate(n_customers=3 + seed, n_depots=1 + seed % 2,
                                 seed=seed)
        nets = build_networks(inst, AdjacencySpec(rho=rho, seed=seed))
        g = nets.aerial
        ref = _floyd_warshall(g.dist)
        n = inst.n_nodes
        blocked = 0
        for i, j in itertools.product(range(n), repeat=2):
            path = g.path_to(i, j)
            assert path[0] == i and path[-1] == j
            assert g.distance_m(i, j) == pytest.approx(ref[i][j], rel=1e-12)
            if g.dist[i][j] < INF:
                assert path == ([i] if i == j else [i, j]), (seed, i, j)
                continue
            blocked += 1
            along = 0.0                 # the detour's length, summed in order
            for a, b in zip(path, path[1:]):
                along += g.dist[a][b]
            assert g.distance_m(i, j) == along, (seed, i, j)
        assert blocked > 0, seed


def test_only_blocked_sources_search_and_only_on_first_use():
    inst = instance.generate(n_customers=8, n_depots=2, seed=3)
    nets = build_networks(inst, AdjacencySpec(rho=0.3, seed=3))
    g = nets.aerial
    assert not g._trees and not nets.ground._trees
    n = inst.n_nodes
    for i, j in itertools.product(range(n), repeat=2):
        g.travel_min(i, j, 20.0)
        nets.ground.travel_min(i, j, 8.3)
    assert not nets.ground._trees
    assert set(g._trees) == {i for i in range(n) if INF in g.dist[i]}


# -- aerial density -----------------------------------------------------------


def _toy_networks(rho=0.0, seed=0, zeta=120.0, mu=10.0):
    inst, _ = toy.build_toy_instance()
    return inst, build_networks(inst, AdjacencySpec(zeta=zeta, mu=mu,
                                                    rho=rho, seed=seed))


def test_apply_density_zero_is_identity():
    _, nets = _toy_networks(rho=0.0)
    assert nets.aerial.dist is nets.ground.dist      # one shared matrix
    assert not any(INF in row for row in nets.aerial.dist)


def test_apply_density_one_blocks_every_customer_pair():
    inst, nets = _toy_networks(rho=1.0)
    nc = 2 * inst.n_customers
    for i, j in itertools.permutations(range(nc), 2):
        assert nets.aerial.dist[i][j] == INF
        # still reachable through the depot hub
        assert nets.aerial.path_to(i, j) == [i, toy.DEPOT_NODE, j]
    # depot-anchored edges survive
    assert INF not in nets.aerial.dist[toy.DEPOT_NODE]
    # ground graph is never touched
    assert not any(INF in row for row in nets.ground.dist)


def test_apply_density_is_seed_reproducible_and_symmetric():
    inst, _ = toy.build_toy_instance()
    spec = AdjacencySpec(rho=0.5, seed=42)
    base = build_networks(inst).aerial
    before = [list(row) for row in base.dist]
    customers = range(2 * inst.n_customers)
    a = apply_density(base, spec, customers)
    b = apply_density(build_networks(inst).aerial, spec, customers)
    assert a.dist == b.dist
    assert base.dist == before                       # the base is copied
    nc = 2 * inst.n_customers
    assert any(a.dist[i][j] == INF
               for i, j in itertools.combinations(range(nc), 2))
    for i, j in itertools.combinations(range(nc), 2):
        assert a.dist[i][j] == a.dist[j][i]


# -- adjacency ----------------------------------------------------------------


def test_temporal_adjacency_on_reference_lates():
    # customer lates 10, 12, 13: every pair within 3 minutes of each other
    inst, _ = toy.build_toy_instance()
    adj = temporal_adjacency(inst, AdjacencySpec(zeta=3.0))
    assert adj[0, 1] and adj[1, 2] and adj[0, 2]
    tight = temporal_adjacency(inst, AdjacencySpec(zeta=2.9))
    assert tight[0, 1] and tight[1, 2] and not tight[0, 2]


def test_temporal_adjacency_shape_and_depot_rows():
    inst, _ = toy.build_toy_instance()
    adj = temporal_adjacency(inst, AdjacencySpec(zeta=1000.0))
    assert adj.shape == (inst.n_nodes, inst.n_nodes)
    assert not adj.diagonal().any()
    assert np.array_equal(adj, adj.T)
    assert not adj[toy.DEPOT_NODE].any() and not adj[:, toy.DEPOT_NODE].any()


def test_spatial_adjacency_thresholds_toy_distances():
    inst, _ = toy.build_toy_instance()
    # dist(P_A, P_B) = sqrt(2)
    near = spatial_adjacency(inst, AdjacencySpec(mu=1.5))
    far = spatial_adjacency(inst, AdjacencySpec(mu=1.4))
    assert near[0, 1] and not far[0, 1]
    assert np.array_equal(near, near.T)
    assert not near.diagonal().any()


# -- edge features ------------------------------------------------------------


def test_edge_features_reference_values():
    """Slack of toy pair A->B: |3 - 12 - sqrt(2)/v| for each mode speed."""
    inst, _ = toy.build_toy_instance()
    nets = build_networks(inst)
    adr = edge_features(inst, nets.ground, "ADR", speed_mps=1000.0 / 60.0)
    uav = edge_features(inst, nets.aerial, "UAV", speed_mps=50.0)
    assert adr[0, 1] == pytest.approx(10.414, abs=5e-4)
    assert uav[0, 1] == pytest.approx(9.471, abs=5e-4)
    assert adr[0, 1] == pytest.approx(abs(3.0 - 12.0 - math.sqrt(2.0)))
    assert uav[0, 1] == pytest.approx(abs(3.0 - 12.0 - math.sqrt(2.0) / 3.0))


def test_edge_features_respect_temporal_neighborhood():
    inst, _ = toy.build_toy_instance()
    nets = build_networks(inst)
    spec = AdjacencySpec(zeta=2.9)
    feats = edge_features(inst, nets.ground, "ADR", spec=spec)
    pairs = set(zip(*np.nonzero(~np.isnan(feats))))
    assert (0, 2) not in pairs and (2, 0) not in pairs
    assert (0, 1) in pairs and (1, 0) in pairs
    # without a spec every ordered customer pair is present
    all_feats = edge_features(inst, nets.ground, "ADR")
    nc = 2 * inst.n_customers
    assert all_feats.shape == (nc, nc)
    present = all_feats[~np.isnan(all_feats)]
    assert present.size == nc * (nc - 1)
    assert np.all(present >= 0.0)
    assert np.isnan(all_feats.diagonal()).all()


def test_edge_features_match_pairwise_slacks_on_blocked_graphs():
    """Every entry equals the pairwise slack along the shortest path, bit
    for bit, and only sources with a kept blocked pair are searched."""
    for seed in range(4):
        inst = instance.generate(6, n_depots=2, seed=seed)
        spec = AdjacencySpec(rho=0.6, zeta=40.0, seed=seed)
        nets = build_networks(inst, spec)
        g = nets.aerial
        slack = edge_features(inst, g, "UAV", spec=spec, speed_mps=12.0)
        nc = 2 * inst.n_customers
        adj = temporal_adjacency(inst, spec)
        kept = {(i, j) for i in range(nc) for j in range(nc)
                if i != j and adj[i, j]}
        assert set(g._trees) == {i for i, j in kept if g.dist[i][j] == INF}
        for i, j in itertools.product(range(nc), repeat=2):
            d = g.distance_m(i, j)
            if (i, j) not in kept or d == INF:
                assert np.isnan(slack[i, j]), (seed, i, j)
            else:
                e_i, l_j = inst.node_window(i)[0], inst.node_window(j)[1]
                assert slack[i, j] == abs(e_i - l_j - d / (12.0 * 60.0))


def test_edge_features_rejects_bad_speed():
    inst, _ = toy.build_toy_instance()
    nets = build_networks(inst)
    with pytest.raises(ValueError, match="speed"):
        edge_features(inst, nets.ground, "ADR", speed_mps=0.0)


# -- spec validation and construction -----------------------------------------


def test_adjacency_spec_validation():
    AdjacencySpec().validate()
    with pytest.raises(ValueError, match="zeta"):
        AdjacencySpec(zeta=-1.0).validate()
    with pytest.raises(ValueError, match="mu"):
        AdjacencySpec(mu=-0.1).validate()
    with pytest.raises(ValueError, match="rho"):
        AdjacencySpec(rho=1.5).validate()


def test_build_networks_distances_match_euclidean():
    inst = instance.generate(n_customers=3, n_depots=2, seed=4)
    nets = build_networks(inst)
    for mode in ("UAV", "ADR"):
        dist = nets.graph(mode).dist
        for i in range(inst.n_nodes):
            assert dist[i][i] == 0.0
            for j in range(inst.n_nodes):
                if i != j:
                    assert dist[i][j] == inst.euclidean_km(i, j) * 1000.0
    with pytest.raises(ValueError, match="mode"):
        nets.graph("BOAT")


def test_coincident_nodes_keep_a_tiny_edge():
    inst, _ = toy.build_toy_instance()
    inst.customers[1].pickup_loc = inst.customers[0].pickup_loc
    nets = build_networks(inst)
    assert nets.ground.dist[0][1] == nets.ground.dist[1][0] == 1e-9
    assert nets.ground.path_to(0, 1) == [0, 1]
