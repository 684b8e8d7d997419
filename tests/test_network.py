import json

import pytest

from dnems.network import (
    Branch,
    Bus,
    EssSpec,
    NetworkError,
    load_network,
    make_network,
    network_from_dict,
    network_to_dict,
    radial_order,
    save_network,
)
from oracles import random_radial_network


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
        save_network(chain3, path)
        net = load_network(path)
        assert net.n_bus == 3
        assert len(net.branches) == 2
        assert network_to_dict(net) == network_to_dict(chain3)

    def test_roundtrip_with_devices(self, tmp_path, ieee69):
        path = tmp_path / "net69.json"
        save_network(ieee69, path)
        assert network_to_dict(load_network(path)) == network_to_dict(ieee69)

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
        with pytest.raises(NetworkError, match="no such file"):
            load_network(tmp_path / "nope.json")

    def test_unknown_key_rejected(self, ieee69):
        doc = {**network_to_dict(ieee69), "substation": 5}
        with pytest.raises(NetworkError, match=r"unknown network keys: \['substation'\]"):
            network_from_dict(doc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(NetworkError, match="invalid JSON"):
            load_network(path)

    def test_csv_pair(self, tmp_path):
        (tmp_path / "buses.csv").write_text("id,p_load,q_load\n1,0,0\n2,100,50\n3,40,10\n")
        (tmp_path / "branches.csv").write_text(
            "from_bus,to_bus,r,x,s_max\n1,2,0.1,0.1,5000\n2,3,0.2,0.1,5000\n"
        )
        net = load_network(tmp_path)
        assert net.n_bus == 3
        assert net.branches[0].s_max == 5000.0
        assert net.buses[1].p_load == 100.0

    @pytest.mark.parametrize(
        "branches, message",
        [
            ("from_bus,to_bus,x\n1,2,0.1\n2,3,0.1\n", "line 2: missing column 'r'"),
            ("from_bus,to_bus,r,x\n1,2,0.1,0.1\n2,3,0.2\n", "line 3: too few fields"),
            ("from_bus,to_bus,r,x\n1,2,0.1,0.1,9\n2,3,0.2,0.1\n", "line 2: too many fields"),
            ("from_bus,to_bus,r,x\n1,2,0.1,0.1\n2,3,abc,0.1\n", "line 3: could not convert string to float: 'abc'"),
        ],
        ids=["missing-column", "short-row", "long-row", "non-numeric"],
    )
    def test_malformed_csv_pair(self, tmp_path, branches, message):
        (tmp_path / "buses.csv").write_text("id,p_load,q_load\n1,0,0\n2,100,50\n3,40,10\n")
        (tmp_path / "branches.csv").write_text(branches)
        with pytest.raises(NetworkError) as err:
            load_network(tmp_path)
        assert str(err.value) == f"{tmp_path / 'branches.csv'}, {message}"


class TestValidation:
    def test_noncontiguous_ids(self):
        with pytest.raises(NetworkError, match="contiguous"):
            make_network([Bus(id=1), Bus(id=3)], [Branch(1, 3, 0.1, 0.1)])

    def test_negative_load(self):
        with pytest.raises(NetworkError, match="negative active load"):
            make_network([Bus(id=1), Bus(id=2, p_load=-5)], [Branch(1, 2, 0.1, 0.1)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["p_load", "q_load"])
    def test_nonfinite_load(self, field, value):
        with pytest.raises(NetworkError, match=f"bus 2: {field} must be finite"):
            make_network([Bus(id=1), Bus(id=2, **{field: value})], [Branch(1, 2, 0.1, 0.1)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["r", "x"])
    def test_nonfinite_impedance(self, field, value):
        impedance = {"r": 0.1, "x": 0.1, field: value}
        with pytest.raises(NetworkError, match=rf"branch \(1,2\): {field} must be finite"):
            make_network([Bus(id=1), Bus(id=2)], [Branch(1, 2, **impedance)])

    def test_nonnumeric_field(self):
        with pytest.raises(NetworkError, match="p_load must be a number"):
            make_network([Bus(id=1), Bus(id=2, p_load="ten")], [Branch(1, 2, 0.1, 0.1)])

    def test_inverted_voltage_bounds(self):
        with pytest.raises(NetworkError, match="voltage bounds"):
            make_network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], v_min=1.1, v_max=0.9)

    def test_ess_energy_ordering(self):
        ess = EssSpec(bus=2, w_min=50.0, w_max=100.0, p_charge_max=10.0, p_discharge_max=10.0, w_initial=10.0)
        with pytest.raises(NetworkError, match="w_min <= w_initial"):
            make_network([Bus(id=1), Bus(id=2)], [Branch(1, 2, 0.1, 0.1)], esss=[ess])

    def test_random_radial_nets_validate(self, rng):
        for _ in range(25):
            net = random_radial_network(rng, int(rng.integers(2, 16)))
            assert len(net.branches) == net.n_bus - 1


class TestRadialOrder:
    def test_chain(self, chain3):
        ro = radial_order(chain3)
        assert ro.order == (0, 1)
        assert ro.path(3) == (0, 1)
        assert ro.path(2) == (0,)
        assert ro.path(1) == ()

    def test_star(self):
        net = make_network(
            [Bus(id=1), Bus(id=2, p_load=10), Bus(id=3, p_load=10)],
            [Branch(1, 2, 0.1, 0.1), Branch(1, 3, 0.1, 0.1)],
        )
        ro = radial_order(net)
        assert ro.path(2) == (0,)
        assert ro.path(3) == (1,)

    def test_parent_before_child(self, ieee69, rng):
        nets = [ieee69] + [random_radial_network(rng, int(rng.integers(3, 16))) for _ in range(10)]
        for net in nets:
            ro = radial_order(net)
            pos = {b: i for i, b in enumerate(ro.order)}
            for bus in net.buses:
                path = ro.path(bus.id)
                assert list(path) == sorted(path, key=pos.__getitem__)

    def test_69_paths_reach_substation(self, ieee69):
        ro = radial_order(ieee69)
        for bus in ieee69.buses:
            path = ro.path(bus.id)
            if bus.id == ieee69.substation_bus:
                assert path == ()
                continue
            first = ieee69.branches[path[0]]
            assert ieee69.substation_bus in (first.from_bus, first.to_bus)
