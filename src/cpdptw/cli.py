"""Batch command-line entry point.

Subcommands: ``gen`` (write an instance file), ``solve`` (exact and/or
heuristic routing), ``rollout`` (simulator episode under a scorer),
``coalition`` (fleet-size sweep with core checks) and ``toy`` (the
three-customer showcase).  Everything is driven by an optional scenario
YAML plus overriding flags; every run is seeded and produces byte-identical
CSV artifacts for identical inputs.  Timestamps appear only in the log
file, never in data outputs.  The ``CPDPTW_LOG`` environment variable sets
log verbosity (DEBUG/INFO/WARNING/ERROR).  Failures exit nonzero with one
machine-parseable JSON error line on stderr.

Scenario keys (all optional unless noted): ``seed`` (required in a file),
``instance`` (path to an instance YAML, or the literal ``toy``),
``generate`` (args for the instance generator when no file is given),
``fleet`` (path to a YAML with a fleet section, or ``{n_uav, n_adr}``),
``adjacency`` (zeta/mu/rho/seed), ``physics`` (uav/adr/wind/wind_formula/
payload_kg_per_unit), ``weights`` (cost weights), ``solver``
(choice/max_nodes/time_budget), ``strategy``, ``scorer``
(``greedy`` or a weights file), ``out``.  An unknown key, at the top or in
any of these mappings, is an error; so is a count or seed that is not a
YAML integer, and so are solver limits on a run that uses no exact search.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import yaml

from . import coalition as coalition_mod
from . import env
from . import instance as instance_mod
from . import policy as policy_mod
from . import solver as solver_mod
from . import toy as toy_mod
from .energy import AdrParams, PhysicsConfig, UavParams, WindState
from .network import AdjacencySpec, build_networks

LOG = logging.getLogger("cpdptw")

SOLVER_KEYS = ("choice", "max_nodes", "time_budget")
GENERATE_KEYS = ("n_customers", "n_depots", "area_km", "window_profile")
# the keys a scenario may use, per mapping it may hold
SCENARIO_KEYS = {
    "": ("seed", "instance", "generate", "fleet", "adjacency", "physics",
         "weights", "solver", "strategy", "scorer", "out"),
    "instance": GENERATE_KEYS,
    "generate": GENERATE_KEYS,
    "fleet": ("n_uav", "n_adr", "start_depot"),
    "adjacency": ("zeta", "mu", "rho", "seed"),
    "physics": ("uav", "adr", "wind", "wind_formula", "payload_kg_per_unit"),
    "physics.uav": tuple(f.name for f in dataclasses.fields(UavParams)),
    "physics.adr": tuple(f.name for f in dataclasses.fields(AdrParams)),
    "physics.wind": ("model", "speed", "course", "seed"),
    "weights": tuple(f.name for f in dataclasses.fields(
        instance_mod.CostWeights)),
    "solver": SOLVER_KEYS,
}
# the keys that must hold a YAML integer, per mapping
INTEGER_KEYS = {
    "": ("seed",),
    "instance": ("n_customers", "n_depots"),
    "generate": ("n_customers", "n_depots"),
    "fleet": ("n_uav", "n_adr", "start_depot"),
    "adjacency": ("seed",),
    "physics.wind": ("seed",),
}

WIND_PRESETS = {
    "none": {"model": "none", "speed": 0.0, "course": 0.0},
    "eastward": {"model": "constant", "speed": 12.0, "course": 0.0},
    "westward": {"model": "constant", "speed": 12.0, "course": math.pi},
    "turbulent": {"model": "turbulent", "speed": 12.0, "course": 0.0},
}


# ---------------------------------------------------------------------------
# scenario plumbing


def _setup_logging(out_dir):
    level_name = os.environ.get("CPDPTW_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    root = logging.getLogger("cpdptw")
    root.setLevel(level)
    root.handlers.clear()
    stream = logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(stream)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        file_h = logging.FileHandler(out_dir / "run.log")
        file_h.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"))
        root.addHandler(file_h)


def load_scenario(path):
    """Parse and sanity-check a scenario file (seed and referenced files)."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"scenario file not found: {path}")
    with open(p) as fh:
        scn = yaml.safe_load(fh) or {}
    if not isinstance(scn, dict):
        raise ValueError(f"scenario {path}: expected a mapping at top level")
    if "seed" not in scn:
        raise ValueError(f"scenario {path}: 'seed' is mandatory")
    for key in ("instance", "fleet", "scorer"):
        val = scn.get(key)
        if isinstance(val, str) and val not in ("toy", "greedy") \
                and not Path(val).exists():
            raise ValueError(f"scenario {path}: {key} file not found: {val}")
    solver_cfg = scn.get("solver")
    if isinstance(solver_cfg, str):
        scn["solver"] = {"choice": solver_cfg}
    for where, allowed in SCENARIO_KEYS.items():
        section = scn
        for part in where.split(".") if where else ():
            section = section.get(part) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue
        unknown = sorted(set(section) - set(allowed))
        if unknown:
            raise ValueError(
                f"scenario {path}: unknown {where or 'scenario'} "
                f"key(s) {unknown}; expected {'|'.join(allowed)}")
        for key in INTEGER_KEYS.get(where, ()):
            val = section.get(key, 0)
            if isinstance(val, bool) or not isinstance(val, int):
                name = f"{where}.{key}" if where else key
                raise ValueError(
                    f"scenario {path}: {name} must be an integer, got {val!r}")
    if isinstance(scn.get("solver"), dict):
        choice = scn["solver"].get("choice")
        if choice is not None and choice not in ("exact", "heuristic", "both"):
            raise ValueError(
                f"scenario {path}: solver choice must be "
                f"exact|heuristic|both, got {choice!r}")
    return scn


def _resolve(args):
    scn = load_scenario(args.scenario) if args.scenario else {}
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(scn.get("seed", 0))
    out = args.out or scn.get("out")
    out_dir = Path(out) if out else None
    return scn, seed, out_dir


def _build_instance(scn, seed):
    """Instance + optional fleet from the scenario (file, toy, or generator)."""
    source = scn.get("instance")
    if source == "toy":
        return toy_mod.build_toy_instance()
    if isinstance(source, str):
        inst = instance_mod.load(source)
        fleet = instance_mod.load_fleet(source)
        return inst, fleet
    # `instance:` may carry generator arguments inline; `generate:` is the
    # long-hand spelling of the same thing.
    g = source if isinstance(source, dict) else (scn.get("generate", {}) or {})
    inst = instance_mod.generate(
        n_customers=int(g.get("n_customers", 10)),
        n_depots=int(g.get("n_depots", 1)),
        area_km=float(g.get("area_km", 5.0)),
        window_profile=g.get("window_profile", "uniform"),
        seed=seed)
    return inst, None


def _build_fleet(scn, inst, preset):
    if preset is not None:
        return preset
    spec = scn.get("fleet")
    if isinstance(spec, str):
        fleet = instance_mod.load_fleet(spec)
        if fleet is None:
            raise ValueError(f"fleet file {spec}: no fleet section found")
    elif isinstance(spec, dict):
        fleet = instance_mod.default_fleet(
            int(spec.get("n_uav", 2)), int(spec.get("n_adr", 2)),
            int(spec.get("start_depot", inst.depot_nodes()[0])))
    else:
        fleet = instance_mod.default_fleet(2, 2, inst.depot_nodes()[0])
    fleet.validate(inst)
    return fleet


def _build_physics(scn, wind_flag, seed):
    cfg = scn.get("physics", {}) or {}
    wind_cfg = dict(cfg.get("wind", {}) or {})
    if wind_flag is not None:
        wind_cfg.update(WIND_PRESETS[wind_flag])
    wind = WindState(speed=float(wind_cfg.get("speed", 0.0)),
                     course=float(wind_cfg.get("course", 0.0)),
                     model=wind_cfg.get("model", "none"),
                     seed=int(wind_cfg.get("seed", seed)))
    phys = PhysicsConfig(
        uav=UavParams(**(cfg.get("uav", {}) or {})),
        adr=AdrParams(**(cfg.get("adr", {}) or {})),
        wind=wind,
        wind_formula=cfg.get("wind_formula", "vector"),
        payload_kg_per_unit=float(cfg.get("payload_kg_per_unit", 0.02)))
    phys.validate()
    return phys


def _build_networks(scn, inst):
    adj = scn.get("adjacency", {}) or {}
    spec = AdjacencySpec(zeta=float(adj.get("zeta", 120.0)),
                         mu=float(adj.get("mu", 10.0)),
                         rho=float(adj.get("rho", 0.0)),
                         seed=int(adj.get("seed", 0)))
    return build_networks(inst, spec)


def _apply_cost_weights(scn, inst):
    w = scn.get("weights")
    if w:
        inst.cost_weights = instance_mod.CostWeights(**w)
        inst.cost_weights.validate()


def _prepare(args, *, need_networks=True):
    scn, seed, out_dir = _resolve(args)
    _setup_logging(out_dir)
    LOG.info("seed=%d", seed)
    inst, fleet_preset = _build_instance(scn, seed)
    _apply_cost_weights(scn, inst)
    fleet = _build_fleet(scn, inst, fleet_preset)
    physics = _build_physics(scn, args.wind, seed)
    nets = _build_networks(scn, inst) if need_networks else None
    return scn, seed, out_dir, inst, fleet, physics, nets


def _ensure_out(out_dir):
    out = out_dir if out_dir is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_assignments(sol, inst, path):
    """Plot-ready map: which mode/vehicle served each request."""
    rows = []
    for k, route in enumerate(sol.routes):
        for v in route.visits:
            if inst.is_pickup(v.node):
                rows.append((v.node, route.vehicle.mode, k))
    rows.sort()
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["request", "mode", "vehicle"])
        out.writerows(rows)


def _print_breakdown(tag, sol):
    print(f"{tag}: total {sol.total:.4f}"
          + ("" if sol.complete else "  [INCOMPLETE]"))
    for name, value in sol.breakdown.items():
        if name != "total":
            print(f"  {name:16s} {value:.4f}")


def _write_solution(sol, inst, out, stem):
    env.save_solution_csv(sol, inst, out / f"{stem}.csv")
    env.save_solution_text(sol, inst, out / f"{stem}.txt")
    _write_assignments(sol, inst, out / f"{stem}_assignments.csv")
    LOG.info("wrote %s.{csv,txt} and assignments", out / stem)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    scn, seed, out_dir = _resolve(args)
    _setup_logging(out_dir)
    LOG.info("generate: seed=%d", seed)
    inst, fleet = _build_instance(scn, seed)
    _apply_cost_weights(scn, inst)
    if fleet is None and "fleet" in scn:
        fleet = _build_fleet(scn, inst, None)
    out = _ensure_out(out_dir)
    path = out / "instance.yaml"
    instance_mod.save(inst, path, fleet=fleet)
    print(f"wrote {path}")
    return 0


def _solver_limits(scn):
    cfg = scn.get("solver", {}) or {}
    return solver_mod.SolverLimits(
        max_nodes_expanded=cfg.get("max_nodes"),
        time_budget=cfg.get("time_budget"))


def _reject_limits(scn, why):
    """Solver limits bind only the exact search: refuse runs without one."""
    cfg = scn.get("solver", {}) or {}
    given = [k for k in ("max_nodes", "time_budget") if cfg.get(k) is not None]
    if given:
        raise ValueError(f"solver {'/'.join(given)} bind only the exact "
                         f"search, and {why}")


def cmd_solve(args):
    scn, seed, out_dir, inst, fleet, physics, nets = _prepare(args)
    choice = args.solver or (scn.get("solver", {}) or {}).get("choice")
    if choice is None:
        choice = "both" if 2 * inst.n_customers <= solver_mod.EXACT_NODE_LIMIT \
            else "heuristic"
        LOG.info("solver choice defaulted to %s", choice)
    if choice == "heuristic":
        _reject_limits(scn, "this run solves with the heuristic only")
    limits = _solver_limits(scn)
    out = _ensure_out(out_dir)
    reports = {}
    if choice in ("exact", "both"):
        reports["exact"] = solver_mod.solve_exact(
            inst, fleet, nets=nets, physics=physics, limits=limits)
    if choice in ("heuristic", "both"):
        reports["heuristic"] = solver_mod.solve_heuristic(
            inst, fleet, nets=nets, physics=physics, seed=seed)
    best = None
    for tag, rep in sorted(reports.items()):
        if not rep.feasible:
            print(f"{tag}: infeasible (nodes expanded {rep.nodes_expanded})")
            continue
        _print_breakdown(tag, rep.solution)
        print(f"  {'proven optimal':16s} {str(rep.proven_optimal).lower()}")
        problems = solver_mod.validate(rep.solution, inst, fleet,
                                       nets=nets, physics=physics)
        if problems:
            raise RuntimeError(f"{tag} solution failed validation: {problems[0]}")
        _write_solution(rep.solution, inst, out, f"solution_{tag}")
        if best is None or rep.solution.total < best:
            best = rep.solution.total
    if best is not None:
        for tag, rep in sorted(reports.items()):
            if rep.feasible and best > 0:
                rel = solver_mod.gap([rep.solution.total], best)
                print(f"{tag} gap vs best-known: {100.0 * rel:.2f}%")
    return 0


def cmd_rollout(args):
    scn, seed, out_dir, inst, fleet, physics, nets = _prepare(args)
    scorer_spec = args.scorer or scn.get("scorer", "greedy")
    if scorer_spec == "greedy":
        scorer = env.greedy_nearest
    else:
        weights = policy_mod.load_weights(scorer_spec)
        scorer = policy_mod.attention_scorer(weights)
    strategy = args.strategy or scn.get("strategy", "paired")
    sol = env.rollout(scorer, inst, fleet, strategy=strategy, seed=seed,
                      nets=nets, physics=physics)
    _print_breakdown(f"rollout[{strategy}]", sol)
    out = _ensure_out(out_dir)
    _write_solution(sol, inst, out, "solution_rollout")
    return 0


def cmd_coalition(args):
    for flag, value in (("--m", args.m), ("--n", args.n)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    scn, seed, out_dir, inst, fleet, physics, nets = _prepare(args)
    _reject_limits(scn, "a coalition sweep runs its solvers without limits")
    uavs = [v for v in fleet.vehicles if v.mode == "UAV"]
    adrs = [v for v in fleet.vehicles if v.mode == "ADR"]
    m = args.m if args.m is not None else max(1, len(uavs))
    n = args.n if args.n is not None else max(1, len(adrs))
    depot = inst.depot_nodes()[0]
    defaults = instance_mod.default_fleet(1, 1, depot).vehicles
    while len(uavs) < m:
        uavs.append(defaults[0])
    while len(adrs) < n:
        adrs.append(defaults[1])
    pool = uavs[:m] + adrs[:n]
    choice = args.solver or (scn.get("solver", {}) or {}).get("choice")
    if choice == "both":
        choice = None
    sweep = coalition_mod.coalition_sweep(
        inst, pool, solver_choice=choice, nets=nets, physics=physics)
    out = _ensure_out(out_dir)
    coalition_mod.sweep_to_csv(sweep, out / "coalition.csv")
    summary = coalition_mod.sweep_summary(sweep)
    (out / "coalition.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_toy(args):
    scn, _, out_dir = _resolve(args)
    unread = sorted(set(scn) - {"seed", "out"})
    if unread:
        raise ValueError(f"scenario {args.scenario}: toy reads only seed|out, "
                         f"not {unread}")
    _setup_logging(out_dir)
    LOG.info("three-customer worked example")
    print(toy_mod.report())
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_FLAGS = {
    "--scenario": dict(metavar="FILE", help="scenario YAML driving the run"),
    "--seed": dict(type=int, help="override the scenario seed (default 0 bare)"),
    "--solver": dict(choices=["exact", "heuristic", "both"],
                     help="which solver(s) to run"),
    "--strategy": dict(choices=["paired", "uav-prior", "adr-prior"],
                       help="decoding strategy for rollouts"),
    "--wind": dict(choices=list(WIND_PRESETS),
                   help="wind preset (12 m/s for the directional and "
                        "turbulent ones)"),
    "--scorer": dict(metavar="GREEDY|WEIGHTS.npz",
                     help="'greedy' or a path to an attention weight file"),
    "--m": dict(type=int, help="max number of UAVs in the sweep"),
    "--n": dict(type=int, help="max number of ADRs in the sweep"),
    "--out": dict(metavar="DIR",
                  help="output directory for artifacts and run.log"),
}
# each subcommand parses only the flags it reads
_RUN = ("--scenario", "--seed", "--out")
_COMMANDS = {
    "gen": ("generate an instance file", _RUN),
    "solve": ("run the exact and/or heuristic solver",
              _RUN + ("--solver", "--wind")),
    "rollout": ("simulate one episode under a scorer",
                _RUN + ("--strategy", "--wind", "--scorer")),
    "coalition": ("fleet-size sweep with core checks",
                  _RUN + ("--solver", "--wind", "--m", "--n")),
    "toy": ("replay the three-customer example", ("--scenario", "--out")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpdptw",
        description="electric pickup-and-delivery with drones and sidewalk "
                    "robots: instances, solvers, simulator, coalitions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (what, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=what)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "rollout": cmd_rollout,
    "coalition": cmd_coalition,
    "toy": cmd_toy,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except Exception as exc:  # noqa: BLE001 - single choke point for the CLI
        LOG.debug("command failed", exc_info=True)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
