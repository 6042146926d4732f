"""End-to-end tests for the command-line entry point.

Every test drives ``cli.main(argv)`` in-process and checks exit codes,
stdout, the JSON error contract on stderr, and the files written to the
output directory.
"""

import csv
import json
import logging
import math
import re

import pytest
import yaml

from cpdptw import cli, instance, policy


def _write_scenario(tmp_path, name="scn.yaml", **body):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return path


def _tiny_solve_scenario(tmp_path):
    """Two customers, one UAV + one ADR, known feasible (exact cost 4.1256)."""
    return _write_scenario(
        tmp_path,
        seed=3,
        generate={"n_customers": 2, "n_depots": 1},
        fleet={"n_uav": 1, "n_adr": 1},
        solver="both")


def _last_json_error(capsys):
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert err_lines, "expected a JSON error line on stderr"
    return json.loads(err_lines[-1])


# ---------------------------------------------------------------------------
# toy


def test_toy_exits_zero_and_prints_reference_figures(capsys):
    rc = cli.main(["toy"])
    out = capsys.readouterr().out
    assert rc == 0
    for figure in ("14.08", "6.80", "5.41", "26.29", "13.38"):
        assert figure in out


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_instance_and_fleet(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=5,
                          generate={"n_customers": 3, "n_depots": 1},
                          fleet={"n_uav": 1, "n_adr": 1})
    out_dir = tmp_path / "out"
    rc = cli.main(["gen", "--scenario", str(scn), "--out", str(out_dir)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    path = out_dir / "instance.yaml"
    assert path.exists()
    inst = instance.load(path)
    assert inst.n_customers == 3
    fleet = instance.load_fleet(path)
    assert fleet is not None
    assert [v.mode for v in fleet.vehicles] == ["UAV", "ADR"]


def test_gen_without_scenario_uses_defaults(tmp_path):
    rc = cli.main(["gen", "--out", str(tmp_path / "d")])
    assert rc == 0
    inst = instance.load(tmp_path / "d" / "instance.yaml")
    assert inst.n_customers == 10
    assert len(inst.depot_nodes()) == 1


def test_gen_seed_flag_overrides_scenario_seed(tmp_path):
    scn = _write_scenario(tmp_path, seed=5, generate={"n_customers": 3})
    out_dir = tmp_path / "o"
    rc = cli.main(["gen", "--scenario", str(scn), "--seed", "7",
                   "--out", str(out_dir)])
    assert rc == 0
    got = instance.load(out_dir / "instance.yaml")
    want = instance.generate(n_customers=3, seed=7)
    assert got.coords() == pytest.approx(want.coords(), abs=1e-12)


def test_gen_rerun_is_byte_identical(tmp_path):
    scn = _write_scenario(tmp_path, seed=5, generate={"n_customers": 3})
    for tag in ("a", "b"):
        assert cli.main(["gen", "--scenario", str(scn),
                         "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "a" / "instance.yaml").read_bytes() \
        == (tmp_path / "b" / "instance.yaml").read_bytes()


# ---------------------------------------------------------------------------
# solve


def test_solve_both_writes_artifacts_and_gap(tmp_path, capsys):
    scn = _tiny_solve_scenario(tmp_path)
    out_dir = tmp_path / "run"
    rc = cli.main(["solve", "--scenario", str(scn), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact: total 4.1256" in out
    assert "heuristic: total" in out
    assert "proven optimal" in out and "true" in out
    assert "gap vs best-known" in out
    for tag in ("exact", "heuristic"):
        for suffix in (".csv", ".txt", "_assignments.csv"):
            assert (out_dir / f"solution_{tag}{suffix}").exists()
    with open(out_dir / "solution_exact.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"vehicle", "node", "kind", "arrival",
                            "departure", "battery", "load"}
    assert len(rows) >= 3
    with open(out_dir / "solution_exact_assignments.csv") as fh:
        assign = list(csv.DictReader(fh))
    assert set(assign[0]) == {"request", "mode", "vehicle"}
    assert sorted(int(r["request"]) for r in assign) == [0, 1]


def test_solve_rerun_is_byte_identical(tmp_path):
    scn = _tiny_solve_scenario(tmp_path)
    for tag in ("a", "b"):
        assert cli.main(["solve", "--scenario", str(scn),
                         "--out", str(tmp_path / tag)]) == 0
    for name in ("solution_exact.csv", "solution_exact_assignments.csv",
                 "solution_heuristic.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_solve_reports_infeasible_without_crashing(tmp_path, capsys):
    # seed 0 with a single UAV + ADR admits no feasible plan for 2 customers
    scn = _write_scenario(tmp_path, seed=0,
                          generate={"n_customers": 2, "n_depots": 1},
                          fleet={"n_uav": 1, "n_adr": 1},
                          solver="exact")
    rc = cli.main(["solve", "--scenario", str(scn),
                   "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact: infeasible" in out


def test_solve_solver_flag_overrides_scenario(tmp_path, capsys):
    scn = _tiny_solve_scenario(tmp_path)
    rc = cli.main(["solve", "--scenario", str(scn), "--solver", "heuristic",
                   "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heuristic: total" in out
    assert "exact:" not in out
    assert not (tmp_path / "o" / "solution_exact.csv").exists()


# ---------------------------------------------------------------------------
# rollout


def test_rollout_greedy_writes_solution(tmp_path, capsys):
    scn = _tiny_solve_scenario(tmp_path)
    out_dir = tmp_path / "roll"
    rc = cli.main(["rollout", "--scenario", str(scn), "--strategy", "paired",
                   "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rollout[paired]: total" in out
    for suffix in (".csv", ".txt", "_assignments.csv"):
        assert (out_dir / f"solution_rollout{suffix}").exists()


def test_rollout_accepts_weights_file_scorer(tmp_path, capsys):
    scn = _tiny_solve_scenario(tmp_path)
    wpath = tmp_path / "weights.npz"
    policy.save_weights(policy.random_weights(0), wpath)
    rc = cli.main(["rollout", "--scenario", str(scn), "--scorer", str(wpath),
                   "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rollout[" in out
    assert (tmp_path / "o" / "solution_rollout.csv").exists()


@pytest.mark.parametrize("wind", ["none", "eastward", "westward", "turbulent"])
def test_rollout_wind_presets_run_clean(tmp_path, capsys, wind):
    scn = _tiny_solve_scenario(tmp_path)
    rc = cli.main(["rollout", "--scenario", str(scn), "--wind", wind,
                   "--out", str(tmp_path / wind)])
    assert rc == 0
    assert "rollout[" in capsys.readouterr().out


def test_rollout_unknown_strategy_is_json_error(tmp_path, capsys):
    scn = _tiny_solve_scenario(tmp_path)
    scn.write_text(scn.read_text() + "strategy: zigzag\n")
    rc = cli.main(["rollout", "--scenario", str(scn),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "strategy" in _last_json_error(capsys)["message"]


# ---------------------------------------------------------------------------
# coalition


def test_coalition_toy_sweep_artifacts(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=0, instance="toy")
    out_dir = tmp_path / "co"
    rc = cli.main(["coalition", "--scenario", str(scn),
                   "--m", "2", "--n", "1", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "coalition sweep over 2 UAV(s) x 1 ADR(s)" in out
    assert "core nonempty" in out
    assert (out_dir / "coalition.txt").read_text().strip() == out.strip()
    with open(out_dir / "coalition.csv") as fh:
        text = fh.read()
    assert text.splitlines()[0] == "d,r,C,gain,core_nonempty"
    with open(out_dir / "coalition.csv") as fh:
        rows = {(r["d"], r["r"]): r for r in csv.DictReader(fh)}
    assert set(rows) == {("1", "1"), ("2", "1")}
    # solver-backed sweep: frozen regression values for the exact optimum
    full = rows[("2", "1")]
    assert float(full["C"]) == pytest.approx(2.730052, abs=1e-4)
    assert float(full["gain"]) == pytest.approx(9.762019, abs=1e-4)
    assert full["core_nonempty"] == "true"
    small = rows[("1", "1")]
    assert float(small["C"]) == pytest.approx(2.730052, abs=1e-4)
    assert float(small["gain"]) == pytest.approx(4.881009, abs=1e-4)
    # spare capacity never raises the optimum: larger pools cost no more
    assert float(full["C"]) <= float(small["C"]) + 1e-9


# ---------------------------------------------------------------------------
# error contract: exit 1 + one JSON line on stderr


def test_missing_scenario_file_is_json_error(tmp_path, capsys):
    rc = cli.main(["solve", "--scenario", str(tmp_path / "nope.yaml")])
    assert rc == 1
    err = _last_json_error(capsys)
    assert err["error"] == "ValueError"
    assert "scenario file not found" in err["message"]


def test_scenario_without_seed_is_json_error(tmp_path, capsys):
    scn = _write_scenario(tmp_path, generate={"n_customers": 2})
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    assert "'seed' is mandatory" in _last_json_error(capsys)["message"]


def test_scenario_non_mapping_is_json_error(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    rc = cli.main(["solve", "--scenario", str(path)])
    assert rc == 1
    assert "expected a mapping" in _last_json_error(capsys)["message"]


def test_scenario_bad_solver_choice_is_json_error(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=1, solver="banana")
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert "solver choice must be" in msg and "banana" in msg


def test_scenario_unknown_solver_key_is_json_error(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=1,
                          solver={"choice": "exact", "gap_target": 0.01})
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert "unknown solver key" in msg and "gap_target" in msg


@pytest.mark.parametrize("body, where, key, allowed", [
    ({"wieghts": {"alpha1": 100.0}}, "scenario", "wieghts", "weights"),
    ({"generate": {"n_customer": 3}}, "generate", "n_customer", "n_customers"),
    ({"instance": {"n_depot": 2}}, "instance", "n_depot", "n_depots"),
    ({"fleet": {"n_uavs": 2}}, "fleet", "n_uavs", "n_uav"),
    ({"adjacency": {"rhoo": 0.5}}, "adjacency", "rhoo", "zeta|mu|rho|seed"),
    ({"physics": {"wnd": {"speed": 3.0}}}, "physics", "wnd", "wind_formula"),
    ({"physics": {"wind": {"sped": 12.0}}}, "physics.wind", "sped",
     "model|speed|course|seed"),
    ({"physics": {"uav": {"mas": 1.0}}}, "physics.uav", "mas",
     "masses_kg|n_rotors"),
    ({"physics": {"adr": {"fricton": 0.1}}}, "physics.adr", "fricton",
     "friction"),
    ({"weights": {"alpah1": 1.0}}, "weights", "alpah1", "alpha1"),
])
def test_scenario_unknown_key_is_json_error(tmp_path, capsys, body, where,
                                            key, allowed):
    scn = _write_scenario(tmp_path, seed=1, **body)
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert f"unknown {where} key(s) ['{key}']" in msg
    assert allowed in msg


@pytest.mark.parametrize("body, name, val", [
    ({"seed": 1.5}, "seed", "1.5"),
    ({"generate": {"n_customers": 2.5}}, "generate.n_customers", "2.5"),
    ({"generate": {"n_depots": "2"}}, "generate.n_depots", "'2'"),
    ({"instance": {"n_customers": 3.0}}, "instance.n_customers", "3.0"),
    ({"fleet": {"n_uav": 1.9}}, "fleet.n_uav", "1.9"),
    ({"fleet": {"n_adr": True}}, "fleet.n_adr", "True"),
    ({"fleet": {"start_depot": 6.5}}, "fleet.start_depot", "6.5"),
    ({"adjacency": {"seed": 3.7}}, "adjacency.seed", "3.7"),
    ({"physics": {"wind": {"seed": 0.5}}}, "physics.wind.seed", "0.5"),
])
def test_scenario_non_integer_count_or_seed_is_json_error(tmp_path, capsys,
                                                          body, name, val):
    scn = _write_scenario(tmp_path, **{"seed": 1, **body})
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert f"{name} must be an integer, got {val}" in msg


@pytest.mark.parametrize("solver_cfg, flag", [
    ({"choice": "heuristic", "max_nodes": 1000}, []),
    ({"choice": "both", "time_budget": 5.0}, ["--solver", "heuristic"]),
    ({"max_nodes": 1000, "time_budget": 5.0}, []),   # N = 6 defaults to it
])
def test_solve_rejects_limits_the_heuristic_ignores(tmp_path, capsys,
                                                    solver_cfg, flag):
    scn = _write_scenario(tmp_path, seed=3, generate={"n_customers": 6},
                          solver=solver_cfg)
    rc = cli.main(["solve", "--scenario", str(scn),
                   "--out", str(tmp_path / "o")] + flag)
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert "bind only the exact search" in msg
    for key in ("max_nodes", "time_budget"):
        assert (key in msg) == (key in solver_cfg)
    assert not (tmp_path / "o" / "solution_heuristic.csv").exists()


def test_solve_keeps_limits_when_the_exact_search_runs(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=3,
                          generate={"n_customers": 2, "n_depots": 1},
                          fleet={"n_uav": 1, "n_adr": 1},
                          solver={"choice": "both", "max_nodes": 100000})
    rc = cli.main(["solve", "--scenario", str(scn),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "exact: total" in capsys.readouterr().out


@pytest.mark.parametrize("max_nodes", [True, 2.5])
def test_solve_rejects_a_node_limit_that_is_no_integer(tmp_path, capsys,
                                                       max_nodes):
    scn = _write_scenario(tmp_path, seed=3,
                          generate={"n_customers": 2, "n_depots": 1},
                          fleet={"n_uav": 1, "n_adr": 1},
                          solver={"choice": "exact", "max_nodes": max_nodes})
    rc = cli.main(["solve", "--scenario", str(scn),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert "max_nodes_expanded: must be a positive integer" in msg
    assert repr(max_nodes) in msg
    assert not (tmp_path / "o" / "solution_exact.csv").exists()


def test_coalition_rejects_solver_limits(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=1,
                          generate={"n_customers": 1, "n_depots": 1},
                          solver={"choice": "exact", "time_budget": 5.0})
    rc = cli.main(["coalition", "--scenario", str(scn), "--m", "1",
                   "--n", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    msg = _last_json_error(capsys)["message"]
    assert "time_budget bind only the exact search" in msg
    assert not (tmp_path / "o" / "coalition.csv").exists()


@pytest.mark.parametrize("flag", ["--m", "--n"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_coalition_rejects_sweep_sizes_below_one(tmp_path, capsys, flag, value):
    scn = _write_scenario(tmp_path, seed=1,
                          generate={"n_customers": 1, "n_depots": 1},
                          fleet={"n_uav": 2, "n_adr": 2})
    sizes = {"--m": "1", "--n": "1", flag: value}
    rc = cli.main(["coalition", "--scenario", str(scn), "--m", sizes["--m"],
                   "--n", sizes["--n"], "--out", str(tmp_path / "o")])
    assert rc == 1
    assert _last_json_error(capsys)["message"] == \
        f"{flag} must be >= 1, got {value}"
    assert not (tmp_path / "o" / "coalition.csv").exists()


def test_scenario_missing_instance_file_is_json_error(tmp_path, capsys):
    scn = _write_scenario(tmp_path, seed=1,
                          instance=str(tmp_path / "ghost.yaml"))
    rc = cli.main(["solve", "--scenario", str(scn)])
    assert rc == 1
    assert "instance file not found" in _last_json_error(capsys)["message"]


# ---------------------------------------------------------------------------
# logging


def test_log_file_gets_timestamped_lines(tmp_path, monkeypatch):
    monkeypatch.setenv("CPDPTW_LOG", "INFO")
    scn = _write_scenario(tmp_path, seed=5, generate={"n_customers": 3})
    out_dir = tmp_path / "logged"
    try:
        rc = cli.main(["gen", "--scenario", str(scn), "--out", str(out_dir)])
        assert rc == 0
        text = (out_dir / "run.log").read_text()
        assert "INFO cpdptw" in text
        assert re.search(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}", text)
    finally:
        for handler in logging.getLogger("cpdptw").handlers:
            handler.close()
        logging.getLogger("cpdptw").handlers.clear()


def test_data_outputs_carry_no_timestamps(tmp_path, monkeypatch):
    monkeypatch.setenv("CPDPTW_LOG", "INFO")
    scn = _tiny_solve_scenario(tmp_path)
    try:
        for tag in ("a", "b"):
            assert cli.main(["solve", "--scenario", str(scn),
                             "--out", str(tmp_path / tag)]) == 0
    finally:
        for handler in logging.getLogger("cpdptw").handlers:
            handler.close()
        logging.getLogger("cpdptw").handlers.clear()
    assert (tmp_path / "a" / "solution_exact.csv").read_bytes() \
        == (tmp_path / "b" / "solution_exact.csv").read_bytes()
    # logs themselves differ (timestamps), proving the split is real
    assert (tmp_path / "a" / "run.log").exists()
