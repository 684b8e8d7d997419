import json
import re
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dnems
from dnems.network import (
    Branch,
    Bus,
    DgSpec,
    EssSpec,
    Network,
    NetworkError,
    PvSpec,
    builtin_ieee69,
    load_network,
    network_from_dict,
    radial_order,
)
from dnems.objectives import ScheduleEvaluator, decision_bounds
from dnems.powerflow import _TOUR_MIN_BUSES, _SweepModel, _TourProduct
from dnems.scenarios import default_forecast, deterministic_set, generate, reduce
from oracles import random_radial_network, tree_oracle, union_find_tree


class TestBuiltin:
    def test_size(self, ieee69):
        assert ieee69.n_bus == 69
        assert len(ieee69.branches) == 68

    def test_device_placement(self, ieee69):
        assert sorted(p.bus for p in ieee69.pvs) == [14, 30, 69]
        assert sorted(d.bus for d in ieee69.dgs) == [40, 51, 59, 67]
        assert sorted(e.bus for e in ieee69.esss) == [14, 30, 69]

    def test_pv_capacity(self, ieee69):
        assert all(p.capacity == 1500.0 for p in ieee69.pvs)

    def test_total_load(self, ieee69):
        assert sum(b.p_load for b in ieee69.buses) == pytest.approx(3801.89)
        assert sum(b.q_load for b in ieee69.buses) == pytest.approx(2694.10)


class TestLoadNetwork:
    def test_three_bus_roundtrip(self, tmp_path, chain3):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(asdict(chain3)))
        net = load_network(path)
        assert net.n_bus == 3
        assert len(net.branches) == 2
        assert asdict(net) == asdict(chain3)

    def test_roundtrip_with_devices(self, tmp_path, ieee69):
        path = tmp_path / "net69.json"
        path.write_text(json.dumps(asdict(ieee69)))
        assert asdict(load_network(path)) == asdict(ieee69)

    def test_cycle_rejected(self, tmp_path):
        doc = {
            "buses": [{"id": i} for i in (1, 2, 3)],
            "branches": [
                {"from_bus": 1, "to_bus": 2, "r": 0.1, "x": 0.1},
                {"from_bus": 2, "to_bus": 3, "r": 0.1, "x": 0.1},
                {"from_bus": 3, "to_bus": 1, "r": 0.1, "x": 0.1},
            ],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkError, match="branches"):
            load_network(path)

    def test_cycle_named_when_count_matches(self, tmp_path):
        # right branch count but one edge closes a loop and bus 4 dangles
        doc = {
            "buses": [{"id": i} for i in (1, 2, 3, 4)],
            "branches": [
                {"from_bus": 1, "to_bus": 2, "r": 0.1, "x": 0.1},
                {"from_bus": 2, "to_bus": 3, "r": 0.1, "x": 0.1},
                {"from_bus": 3, "to_bus": 1, "r": 0.1, "x": 0.1},
            ],
        }
        path = tmp_path / "cycle4.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkError, match=r"\(3,1\) closes a cycle"):
            load_network(path)

    def test_unknown_device_bus(self, tmp_path):
        doc = {
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [{"from_bus": 1, "to_bus": 2, "r": 0.1, "x": 0.1}],
            "esss": [
                {
                    "bus": 99,
                    "w_min": 0.0,
                    "w_max": 100.0,
                    "p_charge_max": 10.0,
                    "p_discharge_max": 10.0,
                    "w_initial": 50.0,
                }
            ],
        }
        path = tmp_path / "bad_ess.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkError, match="unknown bus 99"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(NetworkError, match=f"^network {re.escape(str(path))}: No such file or directory$"):
            load_network(path)

    def test_unknown_key_rejected(self, ieee69):
        doc = {**asdict(ieee69), "substation": 5}
        with pytest.raises(NetworkError, match=r"^unknown keys \['substation'\]$"):
            network_from_dict(doc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(NetworkError, match=f"^network {re.escape(str(path))}: invalid JSON: "):
            load_network(path)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(NetworkError, match=f"^network {re.escape(str(tmp_path))}: Is a directory$"):
            load_network(tmp_path)


class TestValidation:
    def test_noncontiguous_ids(self):
        with pytest.raises(NetworkError, match="contiguous"):
            Network([Bus(id=1), Bus(id=3)], [Branch(1, 3, 0.1, 0.1)])

    def test_negative_load(self):
        with pytest.raises(NetworkError, match="negative active load"):
            Network([Bus(id=1), Bus(id=2, p_load=-5)], [Branch(1, 2, 0.1, 0.1)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), pytest.param(10**400, id="int-too-large-for-a-float")])
    @pytest.mark.parametrize("field", ["p_load", "q_load"])
    def test_nonfinite_load(self, field, value):
        with pytest.raises(NetworkError, match=f"bus 2: {field} must be finite"):
            Network([Bus(id=1), Bus(id=2, **{field: value})], [Branch(1, 2, 0.1, 0.1)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["r", "x"])
    def test_nonfinite_impedance(self, field, value):
        impedance = {"r": 0.1, "x": 0.1, field: value}
        with pytest.raises(NetworkError, match=rf"branch \(1,2\): {field} must be finite"):
            Network([Bus(id=1), Bus(id=2)], [Branch(1, 2, **impedance)])

    def test_nonnumeric_field(self):
        with pytest.raises(NetworkError, match="p_load must be a number"):
            Network([Bus(id=1), Bus(id=2, p_load="ten")], [Branch(1, 2, 0.1, 0.1)])

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"buses": [Bus(id=1.0), Bus(id=2)]}, "bus 1.0: id must be an integer, got 1.0"),
            ({"buses": [Bus(id=True), Bus(id=2)]}, "bus True: id must be an integer, got True"),
            ({"branches": [Branch(1.0, 2.0, 0.1, 0.1)]}, r"branch \(1.0,2.0\): from_bus must be an integer, got 1.0"),
            ({"branches": [Branch(1, True, 0.1, 0.1)]}, r"branch \(1,True\): to_bus must be an integer, got True"),
            ({"dgs": [DgSpec(bus=2.0)]}, "DG at bus 2.0: bus must be an integer, got 2.0"),
            ({"substation_bus": True}, "network: substation_bus must be an integer, got True"),
        ],
        ids=["float-id", "bool-id", "float-end", "bool-end", "float-device-bus", "bool-substation"],
    )
    def test_nonint_bus_reference(self, edit, message):
        parts = {"buses": [Bus(id=1), Bus(id=2)], "branches": [Branch(1, 2, 0.1, 0.1)], **edit}
        with pytest.raises(NetworkError, match=f"^{message}$"):
            Network(**parts)

    def test_inverted_voltage_bounds(self):
        with pytest.raises(NetworkError, match="voltage bounds"):
            Network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], v_min=1.1, v_max=0.9)

    def test_ess_energy_ordering(self):
        ess = EssSpec(bus=2, w_min=50.0, w_max=100.0, p_charge_max=10.0, p_discharge_max=10.0, w_initial=10.0)
        with pytest.raises(NetworkError, match="w_min <= w_initial"):
            Network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], esss=[ess])

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"w_min": 0.0, "w_initial": 0.0, "w_max": 0.0}, "w_max must be positive"),
            ({"eff_discharge": 5e-324}, "p_discharge_max / eff_discharge must be finite"),
            ({"p_discharge_max": 1e308, "eff_discharge": 0.5}, "p_discharge_max / eff_discharge must be finite"),
            ({"w_initial": 0.0, "w_max": 1e-300},
             "w_max must be at least 1e-06 of one rated hour's energy (11.1111 kWh), got 1e-300"),
            ({"p_charge_max": 1e308, "eff_charge": 1.0, "w_max": 1e303}, "w_max + 24 rated hours' energy must be finite"),
            ({"p_charge_max": 7e306, "w_max": 1e308, "w_initial": 1e308}, "w_max + 24 rated hours' energy must be finite"),
        ],
        ids=["zero-capacity", "subnormal-efficiency", "overflowing-rating", "tiny-capacity",
             "overflowing-day", "overflowing-day-full-store"],
    )
    def test_ess_energy_not_finite(self, edit, message):
        # the energy overshoot divides by w_max and a discharged hour by eff_discharge, and a
        # day at the rated power must keep the energy balance finite
        ess = EssSpec(**{"bus": 2, "w_min": 0.0, "w_max": 100.0, "p_charge_max": 10.0,
                         "p_discharge_max": 10.0, "w_initial": 50.0, **edit})
        with pytest.raises(NetworkError, match=f"^ESS at bus 2: {re.escape(message)}$"):
            Network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], esss=[ess])

    @pytest.mark.parametrize(
        "devices",
        [{"dgs": [DgSpec(bus=2, p_max=1e300, marginal_cost=1e300)]},
         {"dgs": [DgSpec(bus=2, p_max=1e300, marginal_cost=1e7)] * 2},
         {"pvs": [PvSpec(bus=2, capacity=1e300, marginal_cost=1e7)]}],
        ids=["one-dg", "two-dgs", "pv"],
    )
    def test_device_day_cost_not_finite(self, devices):
        # the cost objective adds each DG's and PV's cost of the day at full output
        with pytest.raises(NetworkError, match="^the DGs' and PVs' cost of 24 hours at full output must be finite$"):
            Network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], **devices)

    @pytest.mark.parametrize(
        "loads, times",
        [((1e300,), ((1e10, 0.5),)), ((0.0, 0.0), ((1e308, 0.5), (1e308, 0.5)))],
        ids=["huge-load-times-repair-time", "overflowing-path-time"],
    )
    def test_load_times_outage_hours_not_finite(self, loads, times):
        # ENS weights each bus's unserved load by the repair and restoration
        # hours along its path: 1e300 kW over 1e10 h overflows, and a path of
        # infinite hours makes even a zero load NaN
        buses = [Bus(1)] + [Bus(k + 2, p_load=p) for k, p in enumerate(loads)]
        branches = [Branch(k + 1, k + 2, 0.1, 0.1, at_repair=r, at_restoration=h) for k, (r, h) in enumerate(times)]
        message = "^the total load times the branches' total repair and restoration hours must be finite$"
        with pytest.raises(NetworkError, match=message):
            Network(buses, branches)

    def test_random_radial_nets_validate(self, rng):
        for _ in range(25):
            net = random_radial_network(rng, int(rng.integers(2, 16)))
            assert len(net.branches) == net.n_bus - 1


# the three ways to build a network from the built-in one, each given the same edit of its fields
_BUILDERS = {
    "Network": lambda net, edit: dnems.Network(**{**{f.name: getattr(net, f.name) for f in fields(net)}, **edit}),
    "replace": lambda net, edit: replace(net, **edit),
    "network_from_dict": lambda net, edit: network_from_dict(json.loads(json.dumps({
        **asdict(net), **{k: [asdict(item) for item in v] if isinstance(v, tuple) else v for k, v in edit.items()}
    }))),
}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda net: {"branches": (replace(net.branches[0], to_bus=70), *net.branches[1:])},
         "branch (1,70) references unknown bus 70"),
        (lambda net: {"esss": (replace(net.esss[0], w_min=0.0, w_initial=0.0, w_max=0.0), *net.esss[1:])},
         "ESS at bus 14: w_max must be positive"),
        (lambda net: {"buses": (net.buses[0], replace(net.buses[1], p_load=-100.0), *net.buses[2:])},
         "bus 2: negative active load -100.0"),
        (lambda net: {"substation_bus": 70}, "unknown substation bus 70"),
        (lambda net: {"branches": (*net.branches[:-1], Branch(1, 68, 0.1, 0.1))}, "branch (1,68) closes a cycle"),
    ],
    ids=["unknown-branch-end", "zero-capacity-storage", "negative-load", "unknown-substation", "cycle"],
)
@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_every_builder_validates(ieee69, builder, edit, message):
    with pytest.raises(NetworkError, match=f"^{re.escape(message)}$"):
        _BUILDERS[builder](ieee69, edit(ieee69))


class TestRadialOrder:
    def test_chain(self, chain3):
        ro = radial_order(chain3)
        assert (ro.bus, ro.branch, ro.parent) == ((0, 1, 2), (-1, 0, 1), (-1, 0, 1))
        assert (ro.end, ro.row) == ((3, 3, 3), (0, 1, 2))
        assert ro.path(3) == (0, 1)
        assert ro.path(2) == (0,)
        assert ro.path(1) == ()

    def test_star(self):
        net = Network(
            [Bus(id=1), Bus(id=2, p_load=10), Bus(id=3, p_load=10)],
            [Branch(1, 2, 0.1, 0.1), Branch(1, 3, 0.1, 0.1)],
        )
        ro = radial_order(net)
        assert (ro.bus, ro.parent, ro.end) == ((0, 1, 2), (-1, 0, 0), (3, 2, 3))
        assert ro.path(2) == (0,)
        assert ro.path(3) == (1,)

    def test_parent_before_child(self, ieee69, rng):
        nets = [ieee69] + [random_radial_network(rng, int(rng.integers(3, 16))) for _ in range(10)]
        for net in nets:
            ro = radial_order(net)
            assert ro.bus[0] == net.bus_index(net.substation_bus) and ro.end[0] == net.n_bus
            for k in range(1, net.n_bus):
                p = ro.parent[k]
                assert p < k < ro.end[k] <= ro.end[p]  # each subtree nests in its parent's
                assert ro.row[ro.bus[k]] == k
                assert ro.path(ro.bus[k] + 1) == ro.path(ro.bus[p] + 1) + (ro.branch[k],)
                br = net.branches[ro.branch[k]]
                assert {br.from_bus, br.to_bus} == {ro.bus[p] + 1, ro.bus[k] + 1}

    def test_one_walk_per_network(self, monkeypatch):
        # validation walks the tree once and the sweep model and the ENS path times reuse it
        walks = []
        monkeypatch.setattr(dnems.network, "radial_order", lambda net: walks.append(net) or radial_order(net))
        net = builtin_ieee69()
        lo, _ = decision_bounds(net)
        ScheduleEvaluator(net).evaluate(lo[None], _SETS[0])
        assert walks == [net]
        assert _SweepModel(net).order is net.order

    def test_69_paths_reach_substation(self, ieee69):
        ro = radial_order(ieee69)
        for bus in ieee69.buses:
            path = ro.path(bus.id)
            if bus.id == ieee69.substation_bus:
                assert path == ()
                continue
            first = ieee69.branches[path[0]]
            assert ieee69.substation_bus in (first.from_bus, first.to_bus)


def _shuffled_tree(rng, parents, substation: int) -> Network:
    """Network on buses 1..n whose bus i + 2 hangs off bus
    parents[i] + 1, with random impedances and reliability times, its
    branches in random order and random orientation."""
    branches = []
    for i, par in enumerate(parents):
        ends = (par + 1, i + 2) if rng.random() < 0.5 else (i + 2, par + 1)
        r, x, repair, restoration = rng.uniform(0.01, 1.0, 4)
        branches.append(
            Branch(*ends, r=float(r), x=float(x), at_repair=float(repair), at_restoration=float(restoration))
        )
    return Network(
        buses=tuple(Bus(id=i + 1) for i in range(len(parents) + 1)),
        branches=tuple(branches[k] for k in rng.permutation(len(branches))),
        substation_bus=substation,
    )


# mostly small feeders (dense product), one in ten from _TOUR_MIN_BUSES (tour product)
feeder_sizes = st.integers(0, 9).flatmap(lambda k: st.integers(200, 260) if k == 0 else st.integers(2, 40))


class TestTreeOracle:
    """One depth-first walk builds every tree array that a union-find, a
    breadth-first walk, the tour's own walk and the dense walk-up built."""

    @settings(max_examples=120, deadline=None)
    @given(shape=st.sampled_from(["random", "chain", "star"]), n=feeder_sizes, seed=st.integers(0, 2**32 - 1))
    def test_arrays_equal_oracle(self, shape, n, seed):
        rng = np.random.default_rng(seed)
        parents = {
            "random": [int(rng.integers(0, i + 1)) for i in range(n - 1)],
            "chain": list(range(n - 1)),
            "star": [0] * (n - 1),
        }[shape]
        net = _shuffled_tree(rng, parents, substation=int(rng.integers(1, n + 1)))
        loaded = rng.random(n) < rng.random()
        buses = tuple(Bus(id=b.id, p_load=100.0 * loaded[k]) for k, b in enumerate(net.buses))
        net = replace(net, buses=buses)
        ref = tree_oracle(net)
        mdl = _SweepModel(net)
        assert isinstance(mdl.product, _TourProduct) == (n >= _TOUR_MIN_BUSES)
        product = ref["tour" if n >= _TOUR_MIN_BUSES else "dense"]
        if n < _TOUR_MIN_BUSES:  # the dense product keeps the rows of the loaded buses
            nonslack, dlf = product["nonslack"], product["dlf"]
            live = loaded[nonslack]
            product = {
                "nonslack": nonslack,
                "buses": nonslack[live],
                "dlf": dlf[np.ix_(live, live)],
                "dlf_cols": dlf[:, live],
                "path": product["path"][:, live],
            }
        want = {"parent": ref["parent"], "child": ref["child"], "path_time": ref["path_time"], **product}
        got = {
            "parent": mdl.parent,
            "child": mdl.child,
            "path_time": ScheduleEvaluator(net).path_time,
            **{name: getattr(mdl.product, name) for name in product},
        }
        for name, value in got.items():
            assert value.dtype == want[name].dtype and value.shape == want[name].shape, name
            assert value.tobytes() == want[name].tobytes(), name

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), rewired=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_accepts_what_union_find_accepts(self, n, rewired, seed):
        # a random tree with up to three branches given random ends: n - 1
        # branches that may close cycles, hang in islands or loop on one bus
        rng = np.random.default_rng(seed)
        tree = _shuffled_tree(rng, [int(rng.integers(0, i + 1)) for i in range(n - 1)], int(rng.integers(1, n + 1)))
        branches = list(tree.branches)
        for k in rng.choice(n - 1, size=min(rewired, n - 1), replace=False):
            branches[k] = replace(branches[k], from_bus=int(rng.integers(1, n + 1)), to_bus=int(rng.integers(1, n + 1)))
        try:
            union_find_tree(SimpleNamespace(buses=tree.buses, branches=branches, substation_bus=tree.substation_bus))
            expected = True
        except NetworkError:
            expected = False
        try:
            replace(tree, branches=tuple(branches))
            accepted = True
        except NetworkError as exc:
            assert "closes a cycle" in str(exc) or "not connected to the substation" in str(exc), str(exc)
            accepted = False
        assert accepted == expected


# a device field's boundary values: zero, the smallest positive float, ordinary ones and a huge one
_EDGES = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 10.0, 1e300])
# an efficiency's boundary values: (0, 1] and either side of it
_EFFICIENCIES = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1.0 + 2**-52])
# what a document might hold in place of a number
_JUNK = st.sampled_from([True, None, "1", 10**400, float("nan"), [1.0]])


@st.composite
def _bounds(draw, count: int) -> list[float]:
    """``count`` boundary values, most often in order, so that equal bounds
    (w_min = w_initial = w_max included) come up often."""
    values = [draw(_EDGES) for _ in range(count)]
    return sorted(values) if draw(st.integers(0, 3)) else values


@st.composite
def _network_documents(draw):
    """A 2-4 bus feeder document with moderate loads and lines, whose DG, PV
    and storage fields take boundary values; now and then one item is spoiled."""
    n = draw(st.integers(2, 4))
    bus = st.integers(1, n)
    doc = {
        "buses": [{"id": 1}] + [{"id": i, "p_load": 50.0, "q_load": 10.0} for i in range(2, n + 1)],
        "branches": [{"from_bus": draw(st.integers(1, i - 1)), "to_bus": i, "r": 0.1, "x": 0.1} for i in range(2, n + 1)],
        "dgs": [],
        "pvs": [],
        "esss": [],
    }
    for _ in range(draw(st.integers(0, 2))):
        p_min, p_max = draw(_bounds(2))
        doc["dgs"].append({"bus": draw(bus), "p_min": p_min, "p_max": p_max, "marginal_cost": draw(_EDGES)})
    for _ in range(draw(st.integers(0, 1))):
        doc["pvs"].append({"bus": draw(bus), "capacity": draw(_EDGES), "marginal_cost": draw(_EDGES)})
    for _ in range(draw(st.integers(0, 2))):
        w_min, w_initial, w_max = draw(_bounds(3))
        doc["esss"].append({
            "bus": draw(bus), "w_min": w_min, "w_initial": w_initial, "w_max": w_max,
            "p_charge_max": draw(_EDGES), "p_discharge_max": draw(_EDGES),
            "eff_charge": draw(_EFFICIENCIES), "eff_discharge": draw(_EFFICIENCIES),
        })
    spoil = draw(st.sampled_from([None] * 7 + ["junk", "drop", "unknown"]))
    if spoil:
        items = [item for key in ("buses", "branches", "dgs", "pvs", "esss") for item in doc[key]]
        item = items[draw(st.integers(0, len(items) - 1))]
        key = draw(st.sampled_from(sorted(item)))
        if spoil == "junk":
            item[key] = draw(_JUNK)
        elif spoil == "drop":
            del item[key]
        else:
            item["bogus"] = 1.0
    return doc


class TestDocumentGenerator:
    """Every network document is either rejected with a NetworkError or
    accepted and gives finite objectives for any schedule in its box."""

    @settings(max_examples=600, deadline=None)
    @given(doc=_network_documents(), seed=st.integers(0, 2**32 - 1))
    def test_accepted_is_finite_and_rejected_is_network_error(self, doc, seed):
        try:
            net = network_from_dict(doc)
        except NetworkError:
            return
        lo, hi = decision_bounds(net)
        rng = np.random.default_rng(seed)
        block = np.vstack([lo, hi, lo + rng.random((4, len(lo))) * (hi - lo)])
        with np.errstate(over="raise", invalid="raise"):
            for sset in _SETS:
                for f in ScheduleEvaluator(net).evaluate(block, sset):
                    assert np.isfinite([f.f1, f.f2, f.penalty]).all(), (f, doc)


_SETS = (deterministic_set(default_forecast()), reduce(generate(default_forecast(), n=6, seed=5), 3))
