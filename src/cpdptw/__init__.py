"""Electric pickup-and-delivery with time windows for mixed UAV/ADR fleets.

Modules: ``instance`` (problem data + generator), ``network`` (dual-mode
graphs and adjacency), ``energy`` (flight/drive power models with wind),
``env`` (masked MDP simulator), ``solver`` (exact route tables plus a
set-partition DP, and insertion heuristic), ``policy`` (inference-only
attention scorer), ``coalition`` (cooperative-game analysis), ``toy``
(hand-checkable example) and ``cli`` (batch entry point).
"""

from .coalition import (Coalition, CoalitionTable, check_convexity,
                        check_subadditivity, coalition_sweep, core_check)
from .energy import (AdrParams, PhysicsConfig, UavParams, WindState,
                     adr_power, effective_airspeed, leg_energy, uav_power)
from .env import (Solution, episode_cost, feasible_mask, greedy_nearest,
                  reset, rollout, step)
from .instance import (CostWeights, Customer, Depot, FleetSpec, Instance,
                       Vehicle, default_fleet, generate, load, save)
from .network import (AdjacencySpec, DualNetwork, apply_density,
                      build_networks, edge_features, spatial_adjacency,
                      temporal_adjacency)
from .policy import (WeightSet, attention_scorer, decode_scores, encode,
                     gat_layer, init_embeddings, load_weights, random_weights,
                     save_weights)
from .solver import (SolveReport, SolverLimits, gap, solve_enumerate,
                     solve_exact, solve_heuristic, validate)
from .toy import build_toy_instance, headline_costs, replay_route

__version__ = "0.1.0"

__all__ = [
    "AdjacencySpec", "AdrParams", "Coalition", "CoalitionTable",
    "CostWeights", "Customer", "Depot", "DualNetwork", "FleetSpec",
    "Instance", "PhysicsConfig", "SolveReport", "SolverLimits", "Solution",
    "UavParams", "Vehicle", "WeightSet", "WindState", "adr_power",
    "apply_density", "attention_scorer", "build_networks",
    "build_toy_instance", "check_convexity",
    "check_subadditivity", "coalition_sweep", "core_check", "decode_scores",
    "default_fleet", "edge_features", "effective_airspeed", "encode",
    "episode_cost", "feasible_mask", "gap", "gat_layer", "generate",
    "greedy_nearest", "headline_costs", "init_embeddings", "leg_energy",
    "load", "load_weights", "random_weights", "replay_route", "reset",
    "rollout", "save", "save_weights", "solve_enumerate",
    "solve_exact", "solve_heuristic", "spatial_adjacency", "step",
    "temporal_adjacency", "uav_power", "validate",
]
