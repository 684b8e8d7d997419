"""Distribution-network data model: buses, branches, devices, validation.

Networks are radial feeders (a tree rooted at the substation bus) carrying
optional diesel generators, PV arrays, and energy-storage units at named
buses.  A ``Network`` validates itself when it is built, however it is built,
and is then immutable and safe to share between any number of concurrent
evaluators.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from ._documents import number_problem, object_fields, python_numbers, read_document
from .scenarios import HOURS

__all__ = [
    "Bus",
    "Branch",
    "DgSpec",
    "PvSpec",
    "EssSpec",
    "Network",
    "RadialOrder",
    "NetworkError",
    "load_network",
    "network_from_dict",
    "builtin_ieee69",
    "radial_order",
]


class NetworkError(ValueError):
    """Raised for malformed or inconsistent network data."""


@dataclass(frozen=True, eq=False)
class Bus:
    id: int
    p_load: float = 0.0  # kW
    q_load: float = 0.0  # kvar


@dataclass(frozen=True, eq=False)
class Branch:
    from_bus: int
    to_bus: int
    r: float  # ohm
    x: float  # ohm
    s_max: float = 10000.0  # kVA
    at_repair: float = 2.0  # h/yr
    at_restoration: float = 0.5  # h/yr


@dataclass(frozen=True, eq=False)
class DgSpec:
    bus: int
    p_min: float = 0.0  # kW
    p_max: float = 500.0  # kW
    marginal_cost: float = 0.08  # $/kWh


@dataclass(frozen=True, eq=False)
class PvSpec:
    bus: int
    capacity: float  # kW
    marginal_cost: float = 0.0  # $/kWh


@dataclass(frozen=True, eq=False)
class EssSpec:
    bus: int
    w_min: float  # kWh
    w_max: float  # kWh
    p_charge_max: float  # kW
    p_discharge_max: float  # kW
    eff_charge: float = 0.9
    eff_discharge: float = 0.9
    w_initial: float = 0.0  # kWh


@dataclass(frozen=True, eq=False)
class Network:
    """A radial feeder and its devices.  Building one (directly, by
    ``dataclasses.replace`` or from a document) stores its item lists as
    tuples and validates it, raising NetworkError; the walk that proves the
    tree is kept as ``order``."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    dgs: tuple[DgSpec, ...] = ()
    pvs: tuple[PvSpec, ...] = ()
    esss: tuple[EssSpec, ...] = ()
    substation_bus: int = 1
    v_min: float = 0.95
    v_max: float = 1.05
    base_kv: float = 12.66
    base_mva: float = 10.0

    def __post_init__(self):
        for name in ("buses", "branches", "dgs", "pvs", "esss"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _validate(self)

    @cached_property
    def order(self) -> RadialOrder:
        """The feeder's depth-first pre-order from its substation."""
        return radial_order(self)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self, bus_id: int) -> int:
        """Position of a bus id in the ``buses`` tuple (ids are 1..N)."""
        return bus_id - 1


# The least w_max of a storage unit, as a share of one rated hour's energy.
# The energy penalty squares each hour's overshoot divided by w_max.  In the
# decision box the overshoot after hour t is at most t rated hours, so at the
# default weight (1e6) the worst in-box day adds at most
# 1e6 * 1e12 * (1² + ... + 24²), about 5e21, per unit.
_MIN_W_MAX_PER_RATED_HOUR = 1e-6


def _validate(net: Network) -> None:
    n = len(net.buses)
    if n == 0:
        raise NetworkError("network has no buses")

    items = [("network", net)]
    items += [(f"bus {b.id}", b) for b in net.buses]
    items += [(f"branch ({br.from_bus},{br.to_bus})", br) for br in net.branches]
    for kind, devices in (("DG", net.dgs), ("PV", net.pvs), ("ESS", net.esss)):
        items += [(f"{kind} at bus {dev.bus}", dev) for dev in devices]
    for what, item in items:
        try:
            python_numbers(item)
        except ValueError as exc:
            raise NetworkError(f"{what}: {exc}") from None

    ids = [b.id for b in net.buses]
    if sorted(ids) != list(range(1, n + 1)):
        raise NetworkError(f"bus ids must be unique and contiguous 1..{n}, got {sorted(ids)[:8]}...")
    if ids != list(range(1, n + 1)):
        raise NetworkError("buses must be listed in id order")

    for b in net.buses:
        if b.p_load < 0:
            raise NetworkError(f"bus {b.id}: negative active load {b.p_load}")

    id_set = set(ids)
    if net.substation_bus not in id_set:
        raise NetworkError(f"unknown substation bus {net.substation_bus}")
    if not net.v_min < net.v_max:
        raise NetworkError(f"voltage bounds inverted: v_min={net.v_min} >= v_max={net.v_max}")
    if net.base_kv <= 0 or net.base_mva <= 0:
        raise NetworkError("per-unit bases must be positive")

    if len(net.branches) != n - 1:
        raise NetworkError(f"radial network needs {n - 1} branches for {n} buses, got {len(net.branches)}")

    for br in net.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in id_set:
                raise NetworkError(f"branch ({br.from_bus},{br.to_bus}) references unknown bus {end}")
        if br.r < 0 or br.x < 0:
            raise NetworkError(f"branch ({br.from_bus},{br.to_bus}): negative impedance")
        if br.r == 0 and br.x == 0:
            raise NetworkError(f"zero-impedance branch ({br.from_bus},{br.to_bus}): r = x = 0")
        if br.s_max <= 0:
            raise NetworkError(f"branch ({br.from_bus},{br.to_bus}): s_max must be positive")
        if br.at_repair < 0 or br.at_restoration < 0:
            raise NetworkError(f"branch ({br.from_bus},{br.to_bus}): negative reliability time")
    net.order  # the walk proves the branches form a tree that spans every bus

    for dg in net.dgs:
        if dg.bus not in id_set:
            raise NetworkError(f"DG references unknown bus {dg.bus}")
        if not 0 <= dg.p_min <= dg.p_max:
            raise NetworkError(f"DG at bus {dg.bus}: invalid bounds [{dg.p_min}, {dg.p_max}]")
        if dg.marginal_cost < 0:
            raise NetworkError(f"DG at bus {dg.bus}: negative marginal cost")
    for pv in net.pvs:
        if pv.bus not in id_set:
            raise NetworkError(f"PV references unknown bus {pv.bus}")
        if pv.capacity <= 0:
            raise NetworkError(f"PV at bus {pv.bus}: capacity must be positive")
        if pv.marginal_cost < 0:
            raise NetworkError(f"PV at bus {pv.bus}: negative marginal cost")
    # the cost objective adds the devices' own cost of the day to the grid's
    hourly_cost = [dg.p_max * dg.marginal_cost for dg in net.dgs] + [pv.capacity * pv.marginal_cost for pv in net.pvs]
    if number_problem(HOURS * sum(hourly_cost)):
        raise NetworkError(f"the DGs' and PVs' cost of {HOURS} hours at full output must be finite")
    for ess in net.esss:
        if ess.bus not in id_set:
            raise NetworkError(f"ESS references unknown bus {ess.bus}")
        if not 0 <= ess.w_min <= ess.w_initial <= ess.w_max:
            raise NetworkError(
                f"ESS at bus {ess.bus}: need 0 <= w_min <= w_initial <= w_max, "
                f"got ({ess.w_min}, {ess.w_initial}, {ess.w_max})"
            )
        if ess.p_charge_max <= 0 or ess.p_discharge_max <= 0:
            raise NetworkError(f"ESS at bus {ess.bus}: power ratings must be positive")
        if ess.w_max == 0:  # the energy overshoot is normalized by w_max
            raise NetworkError(f"ESS at bus {ess.bus}: w_max must be positive")
        if not (0 < ess.eff_charge <= 1 and 0 < ess.eff_discharge <= 1):
            raise NetworkError(f"ESS at bus {ess.bus}: efficiencies must be in (0, 1]")
        # a rated hour's energy: eff_charge * p_charge_max <= p_charge_max is
        # finite, but dividing by a tiny discharge efficiency may overflow
        rated_hour = max(ess.eff_charge * ess.p_charge_max, ess.p_discharge_max / ess.eff_discharge)
        if number_problem(rated_hour):
            raise NetworkError(f"ESS at bus {ess.bus}: p_discharge_max / eff_discharge must be finite")
        if number_problem(ess.w_max + HOURS * rated_hour):  # the most a day's energy balance reaches
            raise NetworkError(f"ESS at bus {ess.bus}: w_max + {HOURS} rated hours' energy must be finite")
        if ess.w_max < _MIN_W_MAX_PER_RATED_HOUR * rated_hour:
            raise NetworkError(
                f"ESS at bus {ess.bus}: w_max must be at least {_MIN_W_MAX_PER_RATED_HOUR:g} of one rated "
                f"hour's energy ({rated_hour:.6g} kWh), got {ess.w_max!r}"
            )


# -- serialization ------------------------------------------------------------

# document key -> the class of each item in its list
_ITEMS = {"buses": Bus, "branches": Branch, "dgs": DgSpec, "pvs": PvSpec, "esss": EssSpec}


def network_from_dict(doc: dict) -> Network:
    """Build and validate a Network from a document whose keys are Network's
    fields, each list item an object of its class's fields."""
    try:
        doc = {**object_fields(Network, doc)}
        for key, cls in _ITEMS.items():
            items = doc.get(key, [])
            if not isinstance(items, list):
                raise ValueError(f"{key} must be a list, got {reprlib.repr(items)}")
            doc[key] = [cls(**object_fields(cls, item, f"{key}[{i}]")) for i, item in enumerate(items)]
    except ValueError as exc:
        raise NetworkError(str(exc)) from None
    return Network(**doc)


def load_network(path) -> Network:
    """Load and validate a network from a JSON document.

    ``path`` names a ``.json`` document following the network schema, read
    through ``network_from_dict``.  Raises ``NetworkError("network <path>:
    <reason>")`` on any read, parse or validation failure.
    """
    return read_document(path, "network", network_from_dict, NetworkError)


def builtin_ieee69() -> Network:
    """The 69-bus radial test feeder retrofitted with 3 PV+ESS units and 4 DGs.

    PV arrays (1,500 kW each) with co-located storage sit at buses 14, 30
    and 69; diesel generators at buses 40, 51, 59 and 67.  Line and load
    data are the classic 69-bus capacitor-placement feeder, shipped as a
    versioned data file.
    """
    data = resources.files("dnems.data").joinpath("ieee69.json").read_text()
    return network_from_dict(json.loads(data))


# -- radial ordering ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadialOrder:
    """Depth-first pre-order of a radial feeder from its substation, each
    bus's children in branch-list order.

    Row k is bus position ``bus[k]``, fed by branch ``branch[k]`` from the bus
    of row ``parent[k]``; its subtree is the rows ``[k, end[k])``.  Row 0 is
    the substation, whose ``branch`` and ``parent`` are -1.  ``row`` maps each
    bus position back to its row.
    """

    bus: tuple[int, ...]
    branch: tuple[int, ...]
    parent: tuple[int, ...]
    end: tuple[int, ...]
    row: tuple[int, ...]

    def path(self, bus_id: int) -> tuple[int, ...]:
        """Branch indices from the substation to bus ``bus_id``, root first."""
        path = []
        k = self.row[bus_id - 1]
        while k > 0:
            path.append(self.branch[k])
            k = self.parent[k]
        return tuple(reversed(path))


def radial_order(net: Network) -> RadialOrder:
    """Walk the feeder depth-first from the substation.  NetworkError if a
    branch leads back to a bus already reached (a cycle) or a bus is never
    reached.  A built Network has made this walk once and keeps it as
    ``net.order``; validation walks only after it has checked bus ids 1..N
    and the branch ends."""
    adj: list[list[tuple[int, int]]] = [[] for _ in net.buses]  # (branch, far bus) per bus
    for k, br in enumerate(net.branches):
        adj[br.from_bus - 1].append((k, br.to_bus - 1))
        adj[br.to_bus - 1].append((k, br.from_bus - 1))
    row = [-1] * len(net.buses)
    bus: list[int] = []
    branch: list[int] = []
    parent: list[int] = []
    stack = [(net.bus_index(net.substation_bus), -1, -1)]  # (bus, feeding branch, parent row)
    while stack:
        u, b, p = stack.pop()
        if row[u] >= 0:
            br = net.branches[b]
            raise NetworkError(f"branch ({br.from_bus},{br.to_bus}) closes a cycle")
        row[u] = k = len(bus)
        bus.append(u)
        branch.append(b)
        parent.append(p)
        stack.extend((v, c, k) for c, v in reversed(adj[u]) if c != b)
    if len(bus) < len(row):
        raise NetworkError(f"bus {row.index(-1) + 1} is not connected to the substation")
    size = [1] * len(bus)
    for k in range(len(bus) - 1, 0, -1):
        size[parent[k]] += size[k]
    end = tuple(k + s for k, s in enumerate(size))
    return RadialOrder(bus=tuple(bus), branch=tuple(branch), parent=tuple(parent), end=end, row=tuple(row))
