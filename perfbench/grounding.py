"""Re-measure the ROADMAP "Grounding and baseline" figures.

    python3 perfbench/grounding.py

Prints, and writes to ``perfbench/results/grounding.json``:

* the criterion-2 split: ``solve_exact`` against ``solve_enumerate`` over
  the 200 acceptance cases (seconds and nodes);
* ``solve_heuristic`` on ``generate(seed=3, n_depots=2)`` at N = 10, 20 and
  40 with 4, 8 and 18 vehicles, half of them ADRs, plus criterion 8's
  N = 20 case with 8 UAVs + 3 ADRs;
* the encoder (``policy.encode``) at N = 10, 20 and 40, median of 5 calls,
  and one greedy rollout at N = 40.

Takes about three minutes on a 2-core machine.  Unlike ``run.py`` it uses
the generator's instances as they are, without relabelling.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def criterion2_split():
    from cpdptw import instance, solver
    exact_s = enum_s = 0.0
    exact_nodes = enum_nodes = 0
    for s in range(200):
        inst = instance.generate(n_customers=1 + s % 4, n_depots=1 + s % 2, seed=s)
        fleet = instance.default_fleet(1 + s % 2, 1, inst.depot_nodes()[0])
        ex, t = _timed(solver.solve_exact, inst, fleet)
        exact_s += t
        exact_nodes += ex.nodes_expanded
        en, t = _timed(solver.solve_enumerate, inst, fleet)
        enum_s += t
        enum_nodes += en.nodes_expanded
    return {"cases": 200, "solve_exact_s": exact_s, "solve_exact_nodes": exact_nodes,
            "solve_enumerate_s": enum_s, "solve_enumerate_nodes": enum_nodes}


def heuristic_sizes():
    from cpdptw import instance, network, solver
    rows = []
    for n, n_uav, n_adr in ((10, 2, 2), (20, 4, 4), (20, 8, 3), (40, 9, 9)):
        inst = instance.generate(n_customers=n, n_depots=2, seed=3)
        fleet = instance.default_fleet(n_uav, n_adr, inst.depot_nodes()[0])
        nets = network.build_networks(inst)
        rep, t = _timed(solver.solve_heuristic, inst, fleet, nets=nets)
        rows.append({"n": n, "uav": n_uav, "adr": n_adr, "seconds": t,
                     "insertions": rep.nodes_expanded, "feasible": rep.feasible})
    return rows


def encoder_sizes():
    from cpdptw import env, instance, network, policy
    weights = policy.random_weights(0)
    rows = []
    for n in (10, 20, 40):
        inst = instance.generate(n_customers=n, n_depots=2, seed=3)
        times = []
        for _ in range(5):
            nets = network.build_networks(inst)     # fresh path caches per call
            times.append(_timed(policy.encode, inst, nets, weights)[1])
        rows.append({"n": n, "encode_median_s": statistics.median(times)})
    inst = instance.generate(n_customers=40, n_depots=2, seed=3)
    fleet = instance.default_fleet(9, 9, inst.depot_nodes()[0])
    sol, t = _timed(env.rollout, env.greedy_nearest, inst, fleet)
    rows.append({"greedy_rollout_n40_s": t, "complete": sol.complete})
    return rows


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"     # one thread, as in run.py
    sys.path.insert(0, str(SRC))
    out = {"criterion2": criterion2_split(), "heuristic": heuristic_sizes(),
           "encoder": encoder_sizes()}
    print(json.dumps(out, indent=1))
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "grounding.json").write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
