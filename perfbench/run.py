"""cpdptw benchmark: one workload (or all four), closed loop, one client.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 10 --trace 0

``--trace 0`` times the cases with no instrumentation and prints the
end-to-end metrics, with times scaled to a reference machine pace that the
run samples between cases (see ``pace``).  ``--trace 1`` alternates
untraced passes with traced ones (a span per call into the package's public
functions) twice, then runs one count-only pass (which also counts the hot
leg-table lookups), and prints the per-layer metrics and the tracing
overhead.  ``--workload all`` runs the four workloads in turn in this one
process.  Every case goes through the correctness gate outside the
timed region; any violation, or any deterministic counter that differs from
an earlier pass or run of the same code, makes the run fail (exit 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit.  Full results, run metadata and
the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5      # before the first pass; two more before each later one


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import cpdptw from this checkout's src/ only."""
    if not (SRC / "cpdptw" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'cpdptw'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cpdptw
    import cpdptw.cli  # noqa: F401  (and the standard modules it loads)
    if Path(cpdptw.__file__).resolve().parent != (SRC / "cpdptw").resolve():
        _die(f"imported cpdptw from {cpdptw.__file__}, not from {SRC}")


def _time_import():
    """Seconds to import the package from scratch.

    numpy and yaml stay loaded, so this is the package's own import.  The
    modules the benchmark already holds are put back afterwards."""
    def ours():
        return [m for m in sys.modules if m.split(".")[0] == "cpdptw"]
    saved = {m: sys.modules.pop(m) for m in ours()}
    start = time.perf_counter()
    import cpdptw  # noqa: F401
    import cpdptw.cli  # noqa: F401  (what a CLI user pays for at start)
    elapsed = time.perf_counter() - start
    for m in ours():
        del sys.modules[m]
    sys.modules.update(saved)
    gc.collect()    # free the copy now, so peak memory does not grow per pass
    return elapsed


# ---------------------------------------------------------------------------
# run metadata


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the BLAS numpy loaded (OpenBLAS), else the env hint."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def code_hash():
    """Digest of the package and benchmark sources: identifies 'same code'."""
    h = hashlib.sha256()
    for path in sorted(SRC.joinpath("cpdptw").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(seed):
    import numpy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": _blas_threads(), "git_revision": _git_revision(),
            "code_hash": code_hash(), "seed": seed,
            "loadavg_before": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# passes


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gate(cases_mod, workload, case, rec=None):
    """Gate one case; exceptions from the checks count as violations."""
    if rec is not None:
        rec.set_phase("gate", case.index)
    try:
        return cases_mod.check_case(workload, case)
    except Exception as exc:  # a broken output must not stop the run
        return cases_mod.Verdict(False, math.nan,
                                 [f"gate raised {type(exc).__name__}: {exc}"], ())
    finally:
        if rec is not None:
            rec.set_phase("setup")


def run_pass(cases_mod, workload, cases, rec=None, pace=None):
    """Closed loop over one pass; returns per-case (seconds, verdict).

    With ``pace``, the machine's pace is sampled after each case, outside
    its timed region."""
    out = []
    for case in cases:
        error = None
        start = time.perf_counter()
        try:
            if rec is None:
                cases_mod.run_case(workload, case)
            else:
                with rec.case_span(case.index):
                    cases_mod.run_case(workload, case)
        except Exception as exc:  # counted as a failed case, run continues
            error = f"case raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            verdict = _gate(cases_mod, workload, case, rec)
        else:
            verdict = cases_mod.Verdict(False, math.nan, [error], ())
        case.out = {}           # drop the reports before the next case
        out.append((elapsed, verdict))
        if pace is not None:
            pace.after(elapsed)
    return out


def _compare_fingerprints(first, later, label):
    bad = []
    for k, ((_, a), (_, b)) in enumerate(zip(first, later)):
        if a.fingerprint != b.fingerprint:
            bad.append(f"case {k}: {label} differs from pass 1: "
                       f"{b.fingerprint} vs {a.fingerprint}")
    return bad


def _stored_counters(workload, seed, counters):
    """Compare with (or record) the counters of an earlier run of this code."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"counters-{workload}-seed{seed}-{code_hash()}.json"
    stored = {}
    if path.is_file():
        try:
            stored = json.loads(path.read_text())
        except ValueError:
            stored = {}
    bad = []
    for key, value in json.loads(json.dumps(counters)).items():
        if key in stored and stored[key] != value:
            bad.append(f"counter {key} = {value}, an earlier run of this code "
                       f"recorded {stored[key]}")
        stored.setdefault(key, value)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return bad


# ---------------------------------------------------------------------------
# metrics


def _quality(results):
    attempted = len(results)
    failed = sum(1 for _, v in results if v.problems)
    complete = [v for _, v in results if v.complete and not v.problems]
    costs = [v.total for v in complete]
    gaps = [v.gap for _, v in results if v.gap is not None]
    return {
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "complete_frac": len(complete) / attempted,
        "mean_cost": statistics.fmean(costs) if costs else 0.0,
        "heur_gap_pct": 100.0 * statistics.fmean(gaps) if gaps else None,
    }


def end_to_end(setup_s, results, first, busy, factor, peak_rss):
    """``results`` holds every timed case; quality comes from pass 1.

    Times are scaled to the reference pace by ``factor`` (see ``pace``).
    ``peak_rss`` is None when an earlier workload ran in this process: its
    high-water mark would stand in for this one's."""
    times = [t for t, _ in results]
    q = _quality(first)
    m = {
        "setup_s": (setup_s / factor, "s"),
        "cases_per_s": (len(times) / busy * factor, "1/s"),
        "mean_cost": (q["mean_cost"], "cost"),
        "complete_frac": (q["complete_frac"], "frac"),
    }
    if peak_rss is not None:
        m["peak_rss_mb"] = (peak_rss, "MB")
    # printed, not in the JSON line: the median case is one or two case
    # types, so it moves with machine drift twice as much as the rate
    extra = {"case_p50_ms": (1000.0 * statistics.median(times), "ms"),
             "pace_factor": (factor, "ratio"),
             "wall.setup_s": (setup_s, "s"),
             "wall.cases_per_s": (len(times) / busy, "1/s")}
    if q["heur_gap_pct"] is not None:
        extra["heur_gap_pct"] = (q["heur_gap_pct"], "%")
    if len(times) >= 100:
        extra["case_p90_ms"] = (1000.0 * statistics.quantiles(times, n=10)[-1], "ms")
        extra["case_p90_samples"] = (len(times), "count")
    return m, extra


def per_layer(tracing, spans, counts, untraced_s, traced_s):
    inclusive, self_time = tracing.summarize(spans)

    def s(name, phase="case"):
        return inclusive.get((phase, name), 0.0)

    c = counts.get
    case_s = s("bench.case")
    exact_s = s("solver.solve_exact")
    energy_lookups = c("env.legcosts.energy_kj", 0)
    m = {
        "solver.solve_enumerate.s": (s("solver.solve_enumerate"), "s"),
        "solver.solve_enumerate.nodes": (c("solver.solve_enumerate.nodes", 0), "count"),
        "solver.solve_exact.s": (exact_s, "s"),
        "solver.solve_exact.nodes": (c("solver.solve_exact.nodes", 0), "count"),
        "solver.bnb_nodes_per_s": (c("solver.solve_exact.nodes", 0) / exact_s
                                   if exact_s > 0 else 0.0, "1/s"),
        "solver.solve_heuristic.s": (s("solver.solve_heuristic"), "s"),
        "solver.solve_heuristic.insertions": (c("solver.solve_heuristic.nodes", 0), "count"),
        "solver.validate.s": (s("solver.validate", "gate"), "s"),
        "env.legcosts.time_min.calls": (c("env.legcosts.time_min", 0), "count"),
        "env.legcosts.energy_kj.calls": (energy_lookups, "count"),
        "env.legcosts.miss_ratio": (c("energy.leg_energy", 0) / energy_lookups
                                    if energy_lookups else 0.0, "ratio"),
        "env.feasible_mask.calls": (c("env.feasible_mask", 0), "count"),
        "env.feasible_mask.s": (s("env.feasible_mask"), "s"),
        "env.step.calls": (c("env.step", 0), "count"),
        "env.step.s": (s("env.step"), "s"),
        "env.reset.s": (s("env.reset"), "s"),
        "env.episode_cost.s": (s("env.episode_cost"), "s"),
        "policy.encode.calls": (c("policy.encode", 0), "count"),
        "policy.encode.s": (s("policy.encode"), "s"),
        "policy.gat_layer.s": (s("policy.gat_layer"), "s"),
        "policy.init_embeddings.s": (s("policy.init_embeddings"), "s"),
        "network.edge_features.s": (s("network.edge_features"), "s"),
        "policy.decode_scores.calls": (c("policy.decode_scores", 0), "count"),
        "policy.decode_scores.s": (s("policy.decode_scores"), "s"),
        "network.build_networks.s": (s("network.build_networks", "setup"), "s"),
        "network.travel_min.calls": (c("network.travel_min", 0), "count"),
        "energy.leg_energy.calls": (c("energy.leg_energy", 0), "count"),
        "energy.leg_energy.s": (s("energy.leg_energy"), "s"),
        "energy.leg_energy.share_pct": (100.0 * s("energy.leg_energy") / case_s
                                        if case_s > 0 else 0.0, "%"),
        "energy.induced_velocity.calls": (c("energy.induced_velocity", 0), "count"),
        "coalition.coalition_sweep.s": (s("coalition.coalition_sweep"), "s"),
        "coalition.solver_calls": (c("coalition.solver_calls", 0), "count"),
        "coalition.core_check.calls": (c("coalition.core_check", 0), "count"),
        "coalition.core_check.s": (s("coalition.core_check"), "s"),
        "coalition.check_convexity.s": (s("coalition.check_convexity"), "s"),
    }
    for module in ("instance", "network", "energy", "env", "solver", "policy",
                   "coalition", "bench"):
        m[f"layer.{module}.self_s"] = (self_time.get(("setup", module), 0.0)
                                       + self_time.get(("case", module), 0.0), "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    case_spans = sum(1 for span in spans if span[5] == "case")
    m["trace.case_spans"] = (case_spans, "count")
    # the measured overhead is smaller than a shared machine's drift; case
    # spans times the cost of one traced call is a steadier estimate
    cost = tracing.span_cost_s()
    m["trace.span_cost_us"] = (1e6 * cost, "us")
    m["trace.estimated_overhead_pct"] = (
        100.0 * case_spans * cost / (untraced_s / 2), "%")
    return m


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload, seed, seconds, trace, rss):
    import cases as cases_mod
    import pace as pacing
    import tracing

    meta = metadata(seed)
    imports, builds = [], []
    pace = pacing.Pace()

    def setup():
        """One set-up: a fresh package import and one pass's inputs."""
        imports.append(_time_import())
        start = time.perf_counter()
        inputs = cases_mod.build_inputs(workload, seed)
        builds.append(time.perf_counter() - start)
        pace.after(imports[-1] + builds[-1])
        return inputs

    for _ in range(SETUP_REPEATS):
        inputs = setup()
    problems = []

    if not trace:
        results = run_pass(cases_mod, workload, inputs, pace=pace)
        first = list(results)
        last = busy = sum(t for t, _ in results)
        passes = 1
        # whole passes only, so every pass weighs its heavy cases equally;
        # stop at the pass count that lands closest to --seconds
        while busy + last / 2 < seconds:
            # set-up samples spread over the run: the machine's speed drifts
            # over seconds, and a median of samples bunched at the start
            # follows that drift more than cases_per_s does
            setup()
            more = run_pass(cases_mod, workload, setup(), pace=pace)
            problems += _compare_fingerprints(first, more, f"pass {passes + 1}")
            results += more
            last = sum(t for t, _ in more)
            busy += last
            passes += 1
        setup_s = statistics.median(imports) + statistics.median(builds)
        factor = pace.factor()
        metrics, extra = end_to_end(setup_s, results, first, busy, factor,
                                    _peak_rss_mb() if rss else None)
        record = {"passes": passes, "busy_s": busy, "pace_chunks": pace.chunks}
        counters = {}
    else:
        # untraced and traced passes alternate twice (machine speed drifts over
        # tens of seconds); spans come from the first traced pass
        first = run_pass(cases_mod, workload, inputs)
        results = list(first)
        untraced_s, traced_s = [sum(t for t, _ in first)], []
        recorders = []
        for rep in range(2):
            if rep:
                again = run_pass(cases_mod, workload,
                                 cases_mod.build_inputs(workload, seed))
                untraced_s.append(sum(t for t, _ in again))
                results += again
                problems += _compare_fingerprints(first, again, "second untraced pass")
            with tracing.Recorder("trace") as traced:
                got = run_pass(cases_mod, workload,
                               cases_mod.build_inputs(workload, seed), traced)
            traced_s.append(sum(t for t, _ in got))
            results += got
            problems += _compare_fingerprints(first, got, f"traced pass {rep + 1}")
            recorders.append(traced)
        with tracing.Recorder("count") as counted:
            got = run_pass(cases_mod, workload,
                           cases_mod.build_inputs(workload, seed), counted)
        results += got
        problems += _compare_fingerprints(first, got, "count pass")
        for rec in recorders:
            for key in sorted(rec.counts):
                if rec.counts[key] != counted.counts[key]:
                    problems.append(f"counter {key}: traced pass {rec.counts[key]}, "
                                    f"count pass {counted.counts[key]}")
        counters = dict(counted.counts)
        traced = recorders[0]
        metrics = per_layer(tracing, traced.spans, counted.counts,
                            sum(untraced_s), sum(traced_s))
        extra = {}
        record = {"untraced_s": untraced_s, "traced_s": traced_s}
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "case", "phase"],
             "spans": traced.spans}))

    fingerprints = {f"case{k}": list(v.fingerprint) for k, (_, v) in enumerate(first)}
    problems += _stored_counters(workload, seed, {**fingerprints, **counters})
    for k, (_, v) in enumerate(results):
        problems += [f"case {k % len(first)}: {p}" for p in v.problems]
    meta["loadavg_after"] = list(os.getloadavg())
    attempted = len(results)
    failed = sum(1 for _, v in results if v.problems)
    if problems and failed == 0:
        failed = 1   # a counter mismatch fails the run even if every case passed
    quality = _quality(results)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": meta, "setup_imports_s": imports, "setup_builds_s": builds,
        "quality": quality, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "cases": [{"seconds": t, "complete": v.complete, "total": v.total,
                   "fingerprint": list(v.fingerprint)} for t, v in results],
        "counters": counters,
    })
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return record, attempted, failed


def _print_block(record):
    w = record["workload"]
    meta = record["meta"]
    print(f"# {w}  seed={record['seed']} trace={record['trace']} "
          f"nproc={meta['nproc']} cpu={meta['cpu_model']!r} "
          f"python={meta['python']} numpy={meta['numpy']} "
          f"blas_threads={meta['blas_threads']} rev={meta['git_revision'][:12]} "
          f"code={meta['code_hash']} load={meta['loadavg_before'][0]:.2f}"
          f"->{meta['loadavg_after'][0]:.2f}")
    for table in ("metrics", "extra"):
        for name, m in record[table].items():
            print(f"{w:16s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    q = record["quality"]
    print(f"{w:16s} {'fail_frac':36s} {q['fail_frac']:>16.6g} frac "
          f"({q['failed']} of {q['attempted']} cases)")
    if record["trace"] == 0 and "peak_rss_mb" not in record["metrics"]:
        print(f"{w:16s} {'peak_rss_mb':36s} {'not measured':>16s} "
              f"(an earlier workload ran in this process)")
    for p in record["problems"][:20]:
        print(f"{w:16s} FAIL {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        _die(f"--seconds must be > 0, got {args.seconds}")

    # one client, one thread: keep the BLAS pool from adding threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy  # noqa: F401  (loaded before the package: see _time_import)
    import yaml  # noqa: F401
    _import_package()
    sys.path.insert(0, str(HERE))
    from cases import WORKLOADS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in WORKLOADS:
            _die(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)} or all")

    total_attempted = total_failed = 0
    summary = {}
    for k, name in enumerate(names):
        record, attempted, failed = run_workload(name, args.seed, args.seconds,
                                                 args.trace, rss=k == 0)
        _print_block(record)
        total_attempted += attempted
        total_failed += failed
        prefix = "" if len(names) == 1 else name + "/"
        for k, m in record["metrics"].items():
            summary[prefix + k] = {"value": m["value"], "unit": m["unit"]}
    correct = total_failed == 0
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
