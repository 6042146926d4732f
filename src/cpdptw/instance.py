"""Problem instances for electric pickup-and-delivery routing.

An instance couples N paired customers (pickup node i, delivery node i+N),
a set of recharge depots, a fixed per-stop service time and the cost weights
of the objective.  Node indexing convention used throughout the package:

    pickups     0 .. N-1
    deliveries  N .. 2N-1      (delivery of customer i is node i+N)
    depots      2N .. 2N+D-1

Units are km, minutes, kJ and abstract load units everywhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

FORMAT_VERSION = 1

# Fleet defaults: drone (UAV) and sidewalk robot (ADR).
UAV_DEFAULTS = dict(
    mode="UAV",
    max_speed=20.0,       # m/s
    capacity=5.0,         # load units
    battery=6.5,          # kJ
    charge_rate=0.65,     # kJ/min (full charge in ~10 min)
    battery_floor=0.30,   # fraction of capacity kept in reserve
)
ADR_DEFAULTS = dict(
    mode="ADR",
    max_speed=8.3,
    capacity=10.0,
    battery=4.5,
    charge_rate=0.225,
    battery_floor=0.20,
)


@dataclass
class CostWeights:
    """Weights of the routing objective (monetary units per min / per event)."""

    alpha1: float = 0.6          # UAV travel time
    alpha2: float = 0.1          # ADR travel time
    alpha3_early: float = 0.01   # early-pickup waiting
    alpha3_late: float = 0.05    # late-delivery tardiness
    lambda_battery: float = 1.0  # one-off penalty per vehicle below its floor

    def validate(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and v >= 0):
                raise ValueError(f"cost_weights.{f.name}: must be a number >= 0, got {v!r}")


@dataclass
class Customer:
    """One pickup/delivery pair.

    ``early``/``late`` bound the (hard) pickup window; ``delivery_early``/
    ``delivery_late`` bound the (soft, penalized) delivery window.
    """

    id: int
    pickup_loc: tuple[float, float]
    delivery_loc: tuple[float, float]
    early: float
    late: float
    delivery_early: float
    delivery_late: float
    demand: float


@dataclass
class Depot:
    id: int
    loc: tuple[float, float]
    recharge: bool = True


@dataclass
class Vehicle:
    mode: str                  # "UAV" | "ADR"
    max_speed: float           # m/s
    capacity: float            # load units
    battery: float             # kJ
    charge_rate: float         # kJ/min
    battery_floor: float       # fraction of battery kept as reserve
    start_depot: int           # node index of the home depot

    def validate(self, idx=None):
        where = "vehicle" if idx is None else f"vehicle {idx}"
        if self.mode not in ("UAV", "ADR"):
            raise ValueError(f"{where}.mode: expected 'UAV' or 'ADR', got {self.mode!r}")
        if not self.capacity > 0:
            raise ValueError(f"{where}.capacity: must be > 0, got {self.capacity!r}")
        if not self.battery > 0:
            raise ValueError(f"{where}.battery: must be > 0, got {self.battery!r}")
        if not (0 <= self.battery_floor < 1):
            raise ValueError(
                f"{where}.battery_floor: must be in [0, 1), got {self.battery_floor!r}")
        if not self.max_speed > 0:
            raise ValueError(f"{where}.max_speed: must be > 0, got {self.max_speed!r}")
        if self.charge_rate < 0:
            raise ValueError(f"{where}.charge_rate: must be >= 0, got {self.charge_rate!r}")


@dataclass
class FleetSpec:
    vehicles: list[Vehicle]

    def validate(self, inst=None):
        if not self.vehicles:
            raise ValueError("fleet.vehicles: must contain at least one vehicle")
        for k, v in enumerate(self.vehicles):
            v.validate(k)
            if inst is not None and not inst.is_depot(v.start_depot):
                raise ValueError(
                    f"vehicle {k}.start_depot: {v.start_depot} is not a depot node "
                    f"(depots are {inst.depot_nodes()})")

    def __len__(self):
        return len(self.vehicles)


def default_fleet(n_uav, n_adr, start_depot):
    """Fleet of ``n_uav`` drones and ``n_adr`` robots, all based at one depot."""
    vs = [Vehicle(start_depot=start_depot, **UAV_DEFAULTS) for _ in range(n_uav)]
    vs += [Vehicle(start_depot=start_depot, **ADR_DEFAULTS) for _ in range(n_adr)]
    return FleetSpec(vs)


@dataclass
class Instance:
    customers: list[Customer]
    depots: list[Depot]
    service_time: float = 2.0
    cost_weights: CostWeights = field(default_factory=CostWeights)
    seed: int = 0
    area_km: float = 5.0

    # ----- node-index helpers ------------------------------------------------

    @property
    def n_customers(self):
        return len(self.customers)

    @property
    def n_nodes(self):
        return 2 * len(self.customers) + len(self.depots)

    def depot_nodes(self):
        n = self.n_customers
        return list(range(2 * n, 2 * n + len(self.depots)))

    def is_pickup(self, node):
        return 0 <= node < self.n_customers

    def is_delivery(self, node):
        return self.n_customers <= node < 2 * self.n_customers

    def is_depot(self, node):
        return 2 * self.n_customers <= node < self.n_nodes

    def node_kind(self, node):
        if self.is_pickup(node):
            return "pickup"
        if self.is_delivery(node):
            return "delivery"
        if self.is_depot(node):
            return "depot"
        raise IndexError(f"node {node} out of range (0..{self.n_nodes - 1})")

    def pair_of(self, node):
        """Delivery node of a pickup and vice versa."""
        n = self.n_customers
        if self.is_pickup(node):
            return node + n
        if self.is_delivery(node):
            return node - n
        raise ValueError(f"node {node} is a depot; it has no paired node")

    def node_xy(self, node):
        n = self.n_customers
        if self.is_pickup(node):
            return self.customers[node].pickup_loc
        if self.is_delivery(node):
            return self.customers[node - n].delivery_loc
        if self.is_depot(node):
            return self.depots[node - 2 * n].loc
        raise IndexError(f"node {node} out of range (0..{self.n_nodes - 1})")

    def node_demand(self, node):
        n = self.n_customers
        if self.is_pickup(node):
            return self.customers[node].demand
        if self.is_delivery(node):
            return -self.customers[node - n].demand
        return 0.0

    def node_window(self, node):
        """(early, late) of a node; depots are unconstrained."""
        n = self.n_customers
        if self.is_pickup(node):
            c = self.customers[node]
            return (c.early, c.late)
        if self.is_delivery(node):
            c = self.customers[node - n]
            return (c.delivery_early, c.delivery_late)
        return (0.0, math.inf)

    def coords(self):
        """(2N+D, 2) array of node coordinates in node-index order."""
        return np.array([self.node_xy(k) for k in range(self.n_nodes)], dtype=float)

    def euclidean_km(self, i, j):
        (xi, yi), (xj, yj) = self.node_xy(i), self.node_xy(j)
        return math.hypot(xi - xj, yi - yj)

    # ----- validation ---------------------------------------------------------

    def validate(self):
        if not self.depots:
            raise ValueError("depots: at least one depot is required")
        if not self.customers:
            raise ValueError("customers: at least one customer is required")
        if not self.area_km > 0:
            raise ValueError(f"area_km: must be > 0, got {self.area_km!r}")
        if self.service_time < 0:
            raise ValueError(f"service_time: must be >= 0, got {self.service_time!r}")
        self.cost_weights.validate()
        for k, c in enumerate(self.customers):
            if c.id != k:
                raise ValueError(f"customer {k}: id must equal its position, got {c.id}")
            if not c.early < c.late:
                raise ValueError(
                    f"customer {k}: early ({c.early}) must be < late ({c.late})")
            if not c.delivery_early < c.delivery_late:
                raise ValueError(
                    f"customer {k}: delivery_early ({c.delivery_early}) must be < "
                    f"delivery_late ({c.delivery_late})")
            if not c.demand > 0:
                raise ValueError(f"customer {k}: demand must be > 0, got {c.demand}")
            for name, (x, y) in (("pickup_loc", c.pickup_loc),
                                 ("delivery_loc", c.delivery_loc)):
                if not (0 <= x <= self.area_km and 0 <= y <= self.area_km):
                    raise ValueError(
                        f"customer {k}: {name} ({x}, {y}) outside area box "
                        f"[0, {self.area_km}]^2")
        n = self.n_customers
        for k, d in enumerate(self.depots):
            if d.id != 2 * n + k:
                raise ValueError(
                    f"depot {k}: id must be {2 * n + k} (2N + position), got {d.id}")
            if d.recharge is not True:
                raise ValueError(
                    f"depot {k}: recharge must be true (every depot recharges "
                    f"in the simulator and the solvers), got {d.recharge!r}")
            x, y = d.loc
            if not (0 <= x <= self.area_km and 0 <= y <= self.area_km):
                raise ValueError(
                    f"depot {k}: loc ({x}, {y}) outside area box [0, {self.area_km}]^2")
        return self


# ----- generation --------------------------------------------------------------


def generate(n_customers, n_depots=1, area_km=5.0, window_profile="uniform", seed=0):
    """Sample a random instance.

    Coordinates are uniform over the [0, area_km]^2 box, demands are uniform
    integers in [1, 10].  Pickup windows follow ``window_profile``:

    * ``uniform`` — open times U[0, 120] min, width 15 min;
    * ``poisson-peak`` — open times are arrivals of a Poisson stream at rate
      n/120 per min (a crude evening-peak demand burst), width 15 min;
    * ``tight`` — like uniform, but the delivery window trails the pickup
      window by only U[10, 25] min instead of the usual U[30, 60].

    Deterministic for a fixed argument tuple.
    """
    if n_customers < 1:
        raise ValueError(f"n_customers: must be >= 1, got {n_customers}")
    if n_depots < 1:
        raise ValueError(f"n_depots: must be >= 1, got {n_depots}")
    if not area_km > 0:
        raise ValueError(f"area_km: must be > 0, got {area_km}")
    if window_profile not in ("uniform", "poisson-peak", "tight"):
        raise ValueError(
            f"window_profile: expected uniform|poisson-peak|tight, got {window_profile!r}")

    rng = np.random.default_rng(seed)
    n = n_customers
    pick = rng.uniform(0.0, area_km, size=(n, 2))
    drop = rng.uniform(0.0, area_km, size=(n, 2))
    demand = rng.integers(1, 11, size=n)

    width = 15.0
    if window_profile == "poisson-peak":
        opens = np.cumsum(rng.exponential(120.0 / n, size=n))
    else:
        opens = rng.uniform(0.0, 120.0, size=n)
    if window_profile == "tight":
        offset = rng.uniform(10.0, 25.0, size=n)
    else:
        offset = rng.uniform(30.0, 60.0, size=n)

    customers = []
    for i in range(n):
        e = float(opens[i])
        customers.append(Customer(
            id=i,
            pickup_loc=(float(pick[i, 0]), float(pick[i, 1])),
            delivery_loc=(float(drop[i, 0]), float(drop[i, 1])),
            early=e, late=e + width,
            delivery_early=e + float(offset[i]),
            delivery_late=e + width + float(offset[i]),
            demand=float(demand[i]),
        ))
    dloc = rng.uniform(0.0, area_km, size=(n_depots, 2))
    depots = [Depot(id=2 * n + k, loc=(float(dloc[k, 0]), float(dloc[k, 1])))
              for k in range(n_depots)]
    return Instance(customers=customers, depots=depots, seed=seed,
                    area_km=float(area_km)).validate()


# ----- serialization ------------------------------------------------------------


def save(inst, path, fleet=None):
    """Write an instance (and optionally a fleet) as a YAML document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "area_km": inst.area_km,
        "service_time": inst.service_time,
        "seed": inst.seed,
        "cost_weights": dataclasses.asdict(inst.cost_weights),
        "customers": [{
            "id": c.id,
            "pickup_loc": [c.pickup_loc[0], c.pickup_loc[1]],
            "delivery_loc": [c.delivery_loc[0], c.delivery_loc[1]],
            "early": c.early, "late": c.late,
            "delivery_early": c.delivery_early, "delivery_late": c.delivery_late,
            "demand": c.demand,
        } for c in inst.customers],
        "depots": [{"id": d.id, "loc": [d.loc[0], d.loc[1]], "recharge": d.recharge}
                   for d in inst.depots],
    }
    if fleet is not None:
        doc["fleet"] = [dataclasses.asdict(v) for v in fleet.vehicles]
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def _require(doc, key, ctx="instance file"):
    if key not in doc:
        raise ValueError(f"{ctx}: missing required field '{key}'")
    return doc[key]


def load(path):
    """Read an instance written by :func:`save`; raises on malformed fields."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance file: top level must be a mapping")
    ver = _require(doc, "format_version")
    if ver != FORMAT_VERSION:
        raise ValueError(f"format_version: expected {FORMAT_VERSION}, got {ver!r}")
    try:
        cw = CostWeights(**_require(doc, "cost_weights"))
    except TypeError as exc:
        raise ValueError(f"cost_weights: {exc}") from None
    customers = []
    for k, raw in enumerate(_require(doc, "customers")):
        try:
            customers.append(Customer(
                id=raw["id"],
                pickup_loc=tuple(raw["pickup_loc"]),
                delivery_loc=tuple(raw["delivery_loc"]),
                early=raw["early"], late=raw["late"],
                delivery_early=raw["delivery_early"],
                delivery_late=raw["delivery_late"],
                demand=raw["demand"],
            ))
        except KeyError as exc:
            raise ValueError(f"customer {k}: missing field {exc}") from None
    depots = []
    for k, raw in enumerate(_require(doc, "depots")):
        try:
            depots.append(Depot(id=raw["id"], loc=tuple(raw["loc"]),
                                recharge=raw.get("recharge", True)))
        except KeyError as exc:
            raise ValueError(f"depot {k}: missing field {exc}") from None
    inst = Instance(
        customers=customers,
        depots=depots,
        service_time=_require(doc, "service_time"),
        cost_weights=cw,
        seed=doc.get("seed", 0),
        area_km=_require(doc, "area_km"),
    )
    return inst.validate()


def load_fleet(path):
    """Read the optional fleet section of an instance file (None if absent)."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "fleet" not in doc:
        return None
    vs = []
    for k, raw in enumerate(doc["fleet"]):
        try:
            vs.append(Vehicle(**raw))
        except TypeError as exc:
            raise ValueError(f"vehicle {k}: {exc}") from None
    fleet = FleetSpec(vs)
    fleet.validate()
    return fleet
