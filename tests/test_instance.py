"""Instance model: generation, persistence, helpers, validation."""

import math

import numpy as np
import pytest

from cpdptw import instance
from cpdptw.instance import (ADR_DEFAULTS, UAV_DEFAULTS, CostWeights, Customer,
                             Depot, FleetSpec, Instance, Vehicle, default_fleet,
                             generate, load, load_fleet, save)


# -- generation ---------------------------------------------------------------


def test_generate_is_deterministic():
    a = generate(n_customers=4, n_depots=2, seed=7)
    b = generate(n_customers=4, n_depots=2, seed=7)
    assert a.coords().tolist() == b.coords().tolist()
    for ca, cb in zip(a.customers, b.customers):
        assert ca == cb
    c = generate(n_customers=4, n_depots=2, seed=8)
    assert a.coords().tolist() != c.coords().tolist()


def test_generate_counts_and_box():
    inst = generate(n_customers=5, n_depots=3, area_km=2.5, seed=1)
    assert inst.n_customers == 5
    assert len(inst.depots) == 3
    assert inst.n_nodes == 2 * 5 + 3
    xy = inst.coords()
    assert xy.shape == (13, 2)
    assert np.all(xy >= 0.0) and np.all(xy <= 2.5)
    inst.validate()


def test_generate_window_profiles():
    uni = generate(n_customers=40, window_profile="uniform", seed=3)
    for c in uni.customers:
        assert c.late - c.early == pytest.approx(15.0)
        assert 30.0 <= c.delivery_early - c.early <= 60.0
        assert c.delivery_late - c.delivery_early == pytest.approx(15.0)

    tight = generate(n_customers=40, window_profile="tight", seed=3)
    for c in tight.customers:
        assert 10.0 <= c.delivery_early - c.early <= 25.0

    peak = generate(n_customers=40, window_profile="poisson-peak", seed=3)
    opens = [c.early for c in peak.customers]
    assert all(b > a for a, b in zip(opens, opens[1:]))  # cumulative arrivals


def test_generate_demands_are_integral_units():
    inst = generate(n_customers=30, seed=11)
    for c in inst.customers:
        assert 1.0 <= c.demand <= 10.0
        assert c.demand == int(c.demand)


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_customers"):
        generate(n_customers=0)
    with pytest.raises(ValueError, match="n_depots"):
        generate(n_customers=1, n_depots=0)
    with pytest.raises(ValueError, match="area_km"):
        generate(n_customers=1, area_km=0.0)
    with pytest.raises(ValueError, match="window_profile"):
        generate(n_customers=1, window_profile="bimodal")


# -- node helpers -------------------------------------------------------------


def test_node_roles_partition_the_index_range():
    inst = generate(n_customers=3, n_depots=2, seed=0)
    n = inst.n_customers
    for i in range(inst.n_nodes):
        kinds = (inst.is_pickup(i), inst.is_delivery(i), inst.is_depot(i))
        assert sum(kinds) == 1
    assert [inst.node_kind(i) for i in range(inst.n_nodes)] == \
        ["pickup"] * n + ["delivery"] * n + ["depot"] * 2
    assert inst.depot_nodes() == [6, 7]


def test_pair_of_links_pickup_and_delivery():
    inst = generate(n_customers=3, seed=0)
    n = inst.n_customers
    for i in range(n):
        assert inst.pair_of(i) == i + n
        assert inst.pair_of(i + n) == i


def test_node_demand_signs_and_conservation():
    inst = generate(n_customers=4, seed=2)
    n = inst.n_customers
    for i in range(n):
        q = inst.node_demand(i)
        assert q > 0
        assert inst.node_demand(i + n) == -q
    for d in inst.depot_nodes():
        assert inst.node_demand(d) == 0.0


def test_node_window_depot_is_unbounded():
    inst = generate(n_customers=2, seed=0)
    for d in inst.depot_nodes():
        early, late = inst.node_window(d)
        assert early == 0.0 and late == math.inf
    c = inst.customers[0]
    assert inst.node_window(0) == (c.early, c.late)
    assert inst.node_window(0 + 2) == (c.delivery_early, c.delivery_late)


def test_euclidean_is_symmetric_and_matches_coords():
    inst = generate(n_customers=3, n_depots=2, seed=5)
    xy = inst.coords()
    for i in range(inst.n_nodes):
        for j in range(inst.n_nodes):
            d = inst.euclidean_km(i, j)
            assert d == pytest.approx(float(np.linalg.norm(xy[i] - xy[j])))
            assert d == inst.euclidean_km(j, i)


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    inst = generate(n_customers=4, n_depots=2, window_profile="tight", seed=9)
    fleet = default_fleet(2, 1, inst.depot_nodes()[1])
    path = tmp_path / "case.yaml"
    save(inst, path, fleet=fleet)

    back = load(path)
    assert back.n_customers == inst.n_customers
    assert back.service_time == inst.service_time
    assert back.area_km == inst.area_km
    assert np.max(np.abs(back.coords() - inst.coords())) <= 1e-12
    for ca, cb in zip(inst.customers, back.customers):
        for field in ("early", "late", "delivery_early", "delivery_late", "demand"):
            assert abs(getattr(ca, field) - getattr(cb, field)) <= 1e-12
    assert back.cost_weights == inst.cost_weights

    fleet_back = load_fleet(path)
    assert len(fleet_back.vehicles) == 3
    for va, vb in zip(fleet.vehicles, fleet_back.vehicles):
        assert va == vb


def test_load_reports_missing_fields(tmp_path):
    inst = generate(n_customers=1, seed=0)
    path = tmp_path / "case.yaml"
    save(inst, path)
    import yaml
    doc = yaml.safe_load(path.read_text())
    doc.pop("customers")
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises((ValueError, KeyError), match="customers"):
        load(path)


def test_load_rejects_unknown_format_version(tmp_path):
    inst = generate(n_customers=1, seed=0)
    path = tmp_path / "case.yaml"
    save(inst, path)
    import yaml
    doc = yaml.safe_load(path.read_text())
    doc["format_version"] = 99
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="format_version|version"):
        load(path)


def test_load_rejects_depot_without_recharge(tmp_path):
    inst = generate(n_customers=1, n_depots=2, seed=0)
    path = tmp_path / "case.yaml"
    save(inst, path)
    import yaml
    doc = yaml.safe_load(path.read_text())
    doc["depots"][1]["recharge"] = False
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="depot 1: recharge"):
        load(path)


def test_load_fleet_returns_none_when_absent(tmp_path):
    inst = generate(n_customers=1, seed=0)
    path = tmp_path / "case.yaml"
    save(inst, path)  # no fleet
    assert load_fleet(path) is None


# -- validation ---------------------------------------------------------------


def _customer(**kw):
    base = dict(id=0, pickup_loc=(1.0, 1.0), delivery_loc=(2.0, 2.0),
                early=0.0, late=10.0, delivery_early=5.0, delivery_late=20.0,
                demand=3.0)
    base.update(kw)
    return Customer(**base)


def test_validate_flags_bad_windows_and_demand():
    depot = [Depot(2, (0.0, 0.0))]
    with pytest.raises(ValueError, match="early"):
        Instance([_customer(early=10.0, late=10.0)], depot).validate()
    with pytest.raises(ValueError, match="delivery"):
        Instance([_customer(delivery_early=20.0, delivery_late=5.0)],
                 depot).validate()
    with pytest.raises(ValueError, match="demand"):
        Instance([_customer(demand=0.0)], depot).validate()


def test_validate_flags_positional_ids_and_area():
    with pytest.raises(ValueError, match="id"):
        Instance([_customer(id=5)], [Depot(2, (0.0, 0.0))]).validate()
    with pytest.raises(ValueError, match="depot"):
        Instance([_customer()], [Depot(9, (0.0, 0.0))]).validate()
    with pytest.raises(ValueError, match="area"):
        Instance([_customer(pickup_loc=(99.0, 0.0))],
                 [Depot(2, (0.0, 0.0))]).validate()


def test_vehicle_validation_names_the_field():
    with pytest.raises(ValueError, match="mode"):
        Vehicle("BLIMP", 10.0, 5.0, 6.5, 0.65, 0.3, 2).validate(0)
    with pytest.raises(ValueError, match="max_speed"):
        Vehicle("UAV", 0.0, 5.0, 6.5, 0.65, 0.3, 2).validate(0)
    with pytest.raises(ValueError, match="capacity"):
        Vehicle("UAV", 10.0, 0.0, 6.5, 0.65, 0.3, 2).validate(0)
    with pytest.raises(ValueError, match="battery_floor"):
        Vehicle("UAV", 10.0, 5.0, 6.5, 0.65, 1.0, 2).validate(0)
    with pytest.raises(ValueError, match="charge_rate"):
        Vehicle("UAV", 10.0, 5.0, 6.5, -1.0, 0.3, 2).validate(0)


def test_fleet_validation():
    inst = generate(n_customers=1, seed=0)
    with pytest.raises(ValueError, match="at least one vehicle"):
        FleetSpec([]).validate(inst)
    bad = FleetSpec([Vehicle("UAV", 10.0, 5.0, 6.5, 0.65, 0.3, 0)])
    with pytest.raises(ValueError, match="depot"):
        bad.validate(inst)


# -- defaults -----------------------------------------------------------------


def test_reference_vehicle_defaults():
    assert UAV_DEFAULTS["max_speed"] == 20.0
    assert UAV_DEFAULTS["capacity"] == 5.0
    assert UAV_DEFAULTS["battery"] == 6.5
    assert UAV_DEFAULTS["battery_floor"] == 0.30
    assert ADR_DEFAULTS["max_speed"] == 8.3
    assert ADR_DEFAULTS["capacity"] == 10.0
    assert ADR_DEFAULTS["battery_floor"] == 0.20


def test_default_fleet_composition():
    inst = generate(n_customers=1, n_depots=2, seed=0)
    fleet = default_fleet(2, 1, inst.depot_nodes()[0])
    modes = [v.mode for v in fleet.vehicles]
    assert modes == ["UAV", "UAV", "ADR"]
    assert all(v.start_depot == inst.depot_nodes()[0] for v in fleet.vehicles)
    fleet.validate(inst)


def test_cost_weight_defaults():
    w = CostWeights()
    assert (w.alpha1, w.alpha2) == (0.6, 0.1)
    assert (w.alpha3_early, w.alpha3_late) == (0.01, 0.05)
    assert w.lambda_battery == 1.0
