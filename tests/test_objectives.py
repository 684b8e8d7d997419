import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dnems.objectives
from dnems.network import (
    _MIN_W_MAX_PER_RATED_HOUR,
    Branch,
    Bus,
    DgSpec,
    EssSpec,
    Network,
    NetworkError,
    builtin_ieee69,
)
from dnems.objectives import (
    DEFAULT_PENALTY_WEIGHTS,
    DecisionVector,
    ScheduleEvaluator,
    _energy_balance,
    decision_bounds,
    ess_trajectory,
    merge_penalty_weights,
    profit_analysis,
)
from dnems.powerflow import solve_batch
from dnems.scenarios import ScenarioSet, default_forecast, deterministic_set, generate, reduce
from oracles import ens_oracle


def spec(**kw):
    base = dict(bus=2, w_min=100.0, w_max=1000.0, p_charge_max=200.0,
                p_discharge_max=200.0, eff_charge=0.9, eff_discharge=0.9, w_initial=500.0)
    base.update(kw)
    return EssSpec(**base)


def evaluate(net, x, sset):
    return ScheduleEvaluator(net).evaluate(x, sset)


def breakdown(net, x, s):
    return ScheduleEvaluator(net).breakdown(x, s)


def flat_scenario(load=1.0, pv=0.0, price=0.1):
    return ScenarioSet(
        load_factor=np.full((1, 24), load),
        pv_factor=np.full((1, 24), pv),
        price=np.full((1, 24), price),
        probabilities=[1.0],
    )


def stacked(ssets, probabilities):
    """One set holding the scenarios of ``ssets`` with new probabilities."""
    return ScenarioSet(
        *(np.concatenate([getattr(s, name) for s in ssets]) for name in ("load_factor", "pv_factor", "price")),
        probabilities,
    )


def scenario(sset, i):
    """Scenario ``i`` of a set, alone in a set of its own."""
    return ScenarioSet(sset.load_factor[i : i + 1], sset.pv_factor[i : i + 1], sset.price[i : i + 1], [1.0])


class TestEssTrajectory:
    def test_charge_hand_value(self):
        power = np.zeros((1, 24))
        power[0, 0] = 100.0  # charge 100 kW for one hour at 0.9 efficiency
        traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), power), [spec()])
        assert traj.energy[0, 0] == 500.0
        assert traj.energy[0, 1] == pytest.approx(590.0)

    def test_charge_then_discharge(self):
        power = np.zeros((1, 24))
        power[0, 0] = 100.0
        power[0, 1] = -90.0  # deliver 90 kW for one hour at 0.9 efficiency
        traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), power), [spec()])
        assert traj.energy[0, 1] == pytest.approx(590.0)
        assert traj.energy[0, 2] == pytest.approx(490.0)

    def test_idle_constant(self):
        traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), np.zeros((1, 24))), [spec()])
        assert np.allclose(traj.energy, 500.0)
        assert traj.feasible
        assert np.all(traj.violations == 0)

    def test_overshoot_flagged(self):
        power = np.full((1, 24), 200.0)  # charge flat out all day
        traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), power), [spec()])
        assert not traj.feasible
        # 500 + 180/h crosses 1000 kWh during hour 3
        assert traj.violations[0, 2] == pytest.approx(40.0)

    def test_nan_power_is_not_feasible(self):
        power = np.zeros((1, 24))
        power[0, 5] = np.nan
        traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), power), [spec()])
        assert not traj.feasible

    def test_recompute_identical(self, rng):
        for _ in range(20):
            power = rng.uniform(-200, 200, size=(2, 24))
            x = DecisionVector(np.zeros((0, 24)), power)
            specs = [spec(), spec(w_initial=300.0)]
            a = ess_trajectory(x, specs)
            b = ess_trajectory(x, specs)
            assert np.array_equal(a.energy, b.energy)
            assert np.array_equal(a.violations, b.violations)

    def test_dimension_mismatch(self):
        x = DecisionVector(np.zeros((0, 24)), np.zeros((2, 24)))
        with pytest.raises(ValueError, match="does not match"):
            ess_trajectory(x, [spec()])


_ESS_SPECS = st.builds(
    EssSpec,
    bus=st.just(2),
    w_min=st.floats(0.0, 500.0),
    w_max=st.floats(500.0, 5000.0),
    p_charge_max=st.floats(1.0, 1000.0),
    p_discharge_max=st.floats(1.0, 1000.0),
    eff_charge=st.floats(0.5, 1.0),
    eff_discharge=st.floats(0.5, 1.0),
    w_initial=st.floats(0.0, 5000.0),
)


@st.composite
def _specs_and_block(draw):
    specs = draw(st.lists(_ESS_SPECS, min_size=1, max_size=4))
    k = draw(st.integers(1, 5))
    return specs, draw(arrays(float, (k, len(specs), 24), elements=st.floats(-2000.0, 2000.0)))


class TestStorageRecurrence:
    @settings(max_examples=60, deadline=None)
    @given(case=_specs_and_block())
    def test_block_equals_rows_and_recurrence(self, case):
        specs, power = case
        energy, viol = _energy_balance(power, specs)
        for row, e, v in zip(power, energy, viol):
            traj = ess_trajectory(DecisionVector(np.zeros((0, 24)), row), specs)
            assert np.array_equal(traj.energy, e) and np.array_equal(traj.violations, v)
            for j, spec in enumerate(specs):
                assert e[j, 0] == spec.w_initial
                for t in range(24):
                    p = float(row[j, t])
                    step = spec.eff_charge * max(p, 0.0) - max(-p, 0.0) / spec.eff_discharge
                    assert e[j, t + 1] == e[j, t] + step


class TestPenalty:
    def test_evaluator_merges_partial_weights(self, two_bus):
        ev = ScheduleEvaluator(two_bus, weights={"voltage": 5.0})
        assert ev.weights == {**DEFAULT_PENALTY_WEIGHTS, "voltage": 5.0}
        assert type(merge_penalty_weights({"flow": 3})["flow"]) is float
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        assert ev.evaluate(x, flat_scenario()).penalty == 0.0

    def test_unknown_weight_rejected(self, two_bus):
        with pytest.raises(ValueError, match="unknown penalty weight 'volt'"):
            ScheduleEvaluator(two_bus, weights={"volt": 1.0})
        with pytest.raises(ValueError, match="unknown penalty weight 'rate'"):  # the decision box holds instead
            ScheduleEvaluator(two_bus, weights={"rate": 1.0})

    @pytest.mark.parametrize("name", sorted(DEFAULT_PENALTY_WEIGHTS))
    def test_evaluator_rejects_negative_weight(self, two_bus, name):
        with pytest.raises(ValueError, match=f"penalty weight '{name}' must be >= 0"):
            ScheduleEvaluator(two_bus, weights={name: -1.0})
        assert merge_penalty_weights({name: 0.0})[name] == 0.0

    def test_integer_weights_equal_float_weights(self):
        # integer weights are valid config values; the 1.8x-load set pushes
        # voltages out of band, so the network penalty of every row is nonzero
        sset = _SETS["heavy"]
        lower, upper = decision_bounds(_NET)
        x = np.stack([lower, upper, (lower + upper) / 2])
        ints = {"convergence": 1, "voltage": 1000, "flow": 1000}
        a = ScheduleEvaluator(_NET, weights=ints).per_scenario(x, sset)
        b = ScheduleEvaluator(_NET, weights={n: float(v) for n, v in ints.items()}).per_scenario(x, sset)
        assert np.array_equal(a.penalty, b.penalty) and np.all(a.penalty > 0)

    def test_smallest_storage_keeps_penalty_finite(self):
        # three units at the least w_max validation accepts, charging (row 1)
        # or discharging (row 0) at their rate every hour of the day
        units = []
        for unit in _NET.esss:
            rated_hour = max(unit.eff_charge * unit.p_charge_max, unit.p_discharge_max / unit.eff_discharge)
            units.append(replace(unit, w_min=0.0, w_initial=0.0, w_max=_MIN_W_MAX_PER_RATED_HOUR * rated_hour))
        net = Network(_NET.buses, _NET.branches, _NET.dgs, _NET.pvs, units)
        with pytest.raises(NetworkError, match="w_max must be at least"):
            Network(_NET.buses, _NET.branches, esss=[replace(units[0], w_max=np.nextafter(units[0].w_max, 0))])
        lower, upper = decision_bounds(net)
        with np.errstate(over="raise"):
            fs = ScheduleEvaluator(net).evaluate(np.stack([lower, upper]), _SETS["deterministic"])
        for f in fs:
            assert np.isfinite([f.f1, f.f2, f.penalty]).all() and f.penalty > 0

    @pytest.mark.parametrize("name", sorted(DEFAULT_PENALTY_WEIGHTS))
    def test_evaluator_rejects_infinite_weight(self, two_bus, name):
        # inf times a zero overshoot would make every clean candidate's penalty NaN
        with pytest.raises(ValueError, match=f"penalty weight '{name}' must be finite"):
            ScheduleEvaluator(two_bus, weights={name: float("inf")})
        with pytest.raises(ValueError, match=f"penalty weight '{name}' must be finite, got a number too large"):
            merge_penalty_weights({name: 10**400})


def rated_two_bus(v_min=0.5):
    """Two-bus feeder whose 120 kW load exceeds its 100 kVA branch rating."""
    return Network(
        [Bus(id=1), Bus(id=2, p_load=120.0)],
        [Branch(1, 2, 0.01, 0.01, s_max=100.0)],
        v_min=v_min,
        v_max=1.5,
    )


def idle_penalty(net, sset, **weights):
    """Per-scenario penalty of a device-free feeder's only schedule."""
    x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
    return ScheduleEvaluator(net, weights).per_scenario(x, sset).penalty


class TestNetworkPenalty:
    """Every hour of a flat day adds the same network penalty: each weight
    times its squared overshoot, a flow's over the branch rating, plus the
    convergence weight for a power flow that did not converge."""

    W = DEFAULT_PENALTY_WEIGHTS

    def test_feasible_empty(self, ieee69):
        x = DecisionVector(np.zeros((4, 24)), np.zeros((3, 24)))
        assert ScheduleEvaluator(ieee69).evaluate(x, flat_scenario(load=0.2)).penalty == 0.0

    def test_voltage_excess_arithmetic(self, two_bus):
        # 9000 kW sags bus 2 below a band raised to 0.99999 pu
        net = replace(two_bus, v_min=0.99999)
        sol = solve_batch(net, np.array([0.0, -9000.0]), np.zeros(2))
        assert sol.converged
        expected = max(0.0, net.v_min - sol.v[1])
        assert expected > 0
        penalty = idle_penalty(net, flat_scenario(load=9000.0 / 150.0))
        assert penalty[0] == pytest.approx(24 * self.W["voltage"] * expected**2)

    def test_flow_excess_arithmetic(self):
        net = rated_two_bus()
        sol = solve_batch(net, np.array([0.0, -120.0]), np.zeros(2))
        expected = sol.s_flow[0] - 100.0
        assert expected > 0
        penalty = idle_penalty(net, flat_scenario())
        assert penalty[0] == pytest.approx(24 * self.W["flow"] * (expected / 100.0) ** 2)

    def test_nonconvergence_costs_its_weight(self, two_bus):
        # 100 MW collapses bus 2, far out of band and over the rating
        load = 1e8 / 150.0
        sol = solve_batch(two_bus, np.array([0.0, -150.0 * load]), np.zeros(2))
        assert not sol.converged
        sset = flat_scenario(load=load)
        assert idle_penalty(two_bus, sset, voltage=0.0, flow=0.0)[0] == 24 * self.W["convergence"]
        volt, flow = two_bus.v_min - sol.v[1], (sol.s_flow[0] - 10000.0) / 10000.0
        hour = self.W["convergence"] + self.W["voltage"] * volt**2 + self.W["flow"] * flow**2
        assert idle_penalty(two_bus, sset)[0] == pytest.approx(24 * hour)

    def test_batch_columns_match_single(self):
        net = rated_two_bus(v_min=0.9999)
        loads = (50.0, 120.0, 4000.0)  # clean, flow overshoot, flow and voltage overshoot
        sets = [flat_scenario(load=k / 120.0) for k in loads]
        block = idle_penalty(net, stacked(sets, [1 / 3] * 3))
        assert block.tolist() == [idle_penalty(net, sset)[0] for sset in sets]
        volt, flow = [], []
        for sset in sets:
            sol = solve_batch(net, np.array([0.0, -120.0 * sset.load_factor[0, 0]]), np.zeros(2))
            volt.append(max(0.0, net.v_min - sol.v[1]))
            flow.append(max(0.0, sol.s_flow[0] - 100.0))
        assert flow[0] == 0.0 < flow[1] and volt[1] == 0.0 < volt[2]
        hand = [24 * (self.W["voltage"] * v**2 + self.W["flow"] * (f / 100.0) ** 2) for v, f in zip(volt, flow)]
        assert block[0] == 0.0 and block.tolist() == pytest.approx(hand)


def dg_test_network():
    """Near-lossless feeder with one 150 kW load and a DG at the load bus."""
    return Network(
        buses=[Bus(id=1), Bus(id=2, p_load=150.0, q_load=0.0)],
        branches=[Branch(1, 2, r=1e-5, x=1e-5)],
        dgs=[DgSpec(bus=2, p_min=0.0, p_max=500.0, marginal_cost=0.08)],
        v_min=0.5,
        v_max=1.5,
    )


class TestEvaluateScenario:
    def test_hour_cost_hand_value(self):
        # 100 kW from the grid at 0.10 plus 50 kW of DG at 0.08 -> 14.00 $/h
        net = dg_test_network()
        x = DecisionVector(np.full((1, 24), 50.0), np.zeros((0, 24)))
        bd = breakdown(net, x, flat_scenario(price=0.1))
        hour_cost = bd.grid_cost[0] + bd.dg_cost[0]
        assert bd.p_slack[0] == pytest.approx(100.0, abs=0.01)
        assert hour_cost == pytest.approx(14.0, abs=1e-3)
        assert bd.cost_s == pytest.approx(24 * 14.0, abs=0.05)

    def test_dg_at_substation_bus(self):
        # 300 kW of DG at the substation bus against the 150 kW load: the
        # grid takes 150 kW back, billed at -0.10, and the DG costs 0.08
        net = replace(dg_test_network(), dgs=(DgSpec(bus=1, p_min=300.0, p_max=300.0, marginal_cost=0.08),))
        x = DecisionVector(np.full((1, 24), 300.0), np.zeros((0, 24)))
        bd = breakdown(net, x, flat_scenario(price=0.1))
        assert bd.p_slack == pytest.approx(np.full(24, -150.0), abs=0.01)
        assert bd.dg_cost == pytest.approx(np.full(24, 24.0))
        assert bd.cost_s == pytest.approx(24 * (24.0 - 15.0), abs=0.05)

    def test_empty_system(self):
        net = Network(
            [Bus(id=1), Bus(id=2, p_load=0.0)],
            [Branch(1, 2, 0.01, 0.01)],
            v_min=0.5,
            v_max=1.5,
        )
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        bd = breakdown(net, x, flat_scenario())
        assert bd.cost_s == pytest.approx(0.0, abs=1e-9)
        assert bd.penalty == 0.0
        assert bd.converged_hours == 24

    def test_dimension_mismatch(self):
        net = dg_test_network()
        x = DecisionVector(np.zeros((3, 24)), np.zeros((0, 24)))
        with pytest.raises(ValueError, match="does not match"):
            breakdown(net, x, flat_scenario())

    def test_breakdown_takes_one_scenario(self, two_bus):
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        pair = stacked([flat_scenario(), flat_scenario(load=0.5)], [0.5, 0.5])
        with pytest.raises(ValueError, match="one-scenario set, got 2"):
            breakdown(two_bus, x, pair)

    def test_power_balance_residual(self, ieee69):
        # converged hours satisfy slack + PV + DG + ESS = loss + demand
        fc = default_forecast()
        s = deterministic_set(fc)
        rng = np.random.default_rng(0)
        x = DecisionVector(
            rng.uniform(0, 500, size=(4, 24)), rng.uniform(-750, 750, size=(3, 24))
        )
        bd = breakdown(ieee69, x, s)
        assert bd.converged_hours == 24
        demand = sum(b.p_load for b in ieee69.buses) * s.load_factor[0]
        dg = x.dg_power.sum(axis=0)
        ess = x.ess_power.sum(axis=0)  # positive = charging, i.e. extra demand
        residual = bd.p_slack + bd.pv_injection + dg - ess - bd.p_loss - demand
        assert np.max(np.abs(residual)) <= 10 * 1e-6 * ieee69.base_mva * 1000


class TestEns:
    def test_hand_value(self, two_bus):
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        # 100 kW net at bus 2, one branch with 2.0 + 0.5 h/yr
        s = flat_scenario(load=100.0 / 150.0)
        assert breakdown(two_bus, x, s).ens_s == pytest.approx(250.0, abs=1e-9)

    def test_local_dg_floors_at_zero(self):
        net = dg_test_network()
        x = DecisionVector(np.full((1, 24), 500.0), np.zeros((0, 24)))
        assert breakdown(net, x, flat_scenario()).ens_s == 0.0

    def test_repair_time_linearity(self, two_bus):
        doubled = Network(
            buses=list(two_bus.buses),
            branches=[
                Branch(b.from_bus, b.to_bus, b.r, b.x, b.s_max, b.at_repair * 2, b.at_restoration * 2)
                for b in two_bus.branches
            ],
            v_min=two_bus.v_min,
            v_max=two_bus.v_max,
        )
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        s = flat_scenario()
        assert breakdown(doubled, x, s).ens_s == pytest.approx(2 * breakdown(two_bus, x, s).ens_s)
        # cost is blind to reliability times (the mirror of price-blind ENS)
        assert evaluate(doubled, x, s).f1 == evaluate(two_bus, x, s).f1

    def test_discharge_offsets_load(self, ieee69):
        idle = DecisionVector(np.zeros((4, 24)), np.zeros((3, 24)))
        discharging = DecisionVector(np.zeros((4, 24)), np.full((3, 24), -20.0))
        s = deterministic_set(default_forecast())
        assert breakdown(ieee69, discharging, s).ens_s <= breakdown(ieee69, idle, s).ens_s


class TestEvaluateSet:
    def test_singleton_equals_scenario(self, ieee69, rng):
        fc = default_forecast()
        x = DecisionVector(rng.uniform(0, 300, (4, 24)), rng.uniform(-200, 200, (3, 24)))
        ev = ScheduleEvaluator(ieee69)
        for load in (1.0, 1.8):  # 1.8 pushes voltages out of band: nonzero penalty
            sset = ScenarioSet(fc.load_factor[None] * load, fc.pv_factor[None], fc.price[None], [1.0])
            f = ev.evaluate(x, sset)
            out = ev.per_scenario(x, sset)
            bd = ev.breakdown(x, sset)
            assert (bd.cost_s, bd.ens_s, bd.penalty) == (out.cost[0], out.ens[0], out.penalty[0])
            assert (f.f1, f.f2, f.penalty) == (bd.cost_s, bd.ens_s, bd.penalty)
            assert (bd.penalty > 0) == (load > 1.0)
            hourly = bd.grid_cost.sum() + bd.dg_cost.sum() + bd.pv_cost.sum()
            assert hourly == pytest.approx(bd.cost_s, rel=1e-12)

    def test_export_credit(self):
        # 250 kW of DG against a 150 kW load exports 100 kW every hour
        net = dg_test_network()
        x = DecisionVector(np.full((1, 24), 250.0), np.zeros((0, 24)))
        s = flat_scenario(price=0.1)
        credited = ScheduleEvaluator(net).breakdown(x, s)
        zeroed = ScheduleEvaluator(net, export_credit=False).breakdown(x, s)
        assert np.all(credited.p_slack < 0)
        assert np.array_equal(credited.grid_cost, 0.1 * credited.p_slack)
        assert np.all(zeroed.grid_cost == 0.0)
        assert zeroed.cost_s == pytest.approx(24 * 250.0 * 0.08)
        assert credited.cost_s < zeroed.cost_s

    def test_weighted_mean(self, two_bus):
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        s1 = flat_scenario(load=0.5)
        s2 = flat_scenario(load=1.0)
        pair = stacked([s1, s2], [0.5, 0.5])
        f = evaluate(two_bus, x, pair)
        a = breakdown(two_bus, x, s1)
        b = breakdown(two_bus, x, s2)
        assert f.f1 == pytest.approx(0.5 * a.cost_s + 0.5 * b.cost_s)
        assert f.f2 == pytest.approx(0.5 * a.ens_s + 0.5 * b.ens_s)
        with pytest.raises(ValueError, match="sum to"):  # weights must be a distribution
            stacked([s1, s2], [0.5, 0.4])

    def test_duplicate_split_invariance(self, two_bus):
        # splitting a scenario's mass across identical copies changes nothing
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        s = flat_scenario()
        split = stacked([s, s], [0.25, 0.75])
        a, b = evaluate(two_bus, x, s), evaluate(two_bus, x, split)
        assert a.f1 == pytest.approx(b.f1, rel=1e-12)
        assert a.f2 == pytest.approx(b.f2, rel=1e-12)

    def test_objective_separation(self, ieee69, rng):
        x = DecisionVector(rng.uniform(0, 300, (4, 24)), np.zeros((3, 24)))
        fc = default_forecast()
        base = deterministic_set(fc)
        pricier = ScenarioSet(base.load_factor, base.pv_factor, base.price * 1.7, [1.0])
        f_base = evaluate(ieee69, x, base)
        f_pricier = evaluate(ieee69, x, pricier)
        assert f_pricier.f2 == f_base.f2  # reliability blind to prices
        assert f_pricier.f1 != f_base.f1


def _block_sets():
    fc = default_forecast()
    s = deterministic_set(fc)
    return {
        "deterministic": deterministic_set(fc),
        "ten_scenarios": reduce(generate(fc, n=40, seed=5), 10),
        # 1.8x load pushes voltages out of band: every candidate is penalized
        "heavy": ScenarioSet(s.load_factor * 1.8, s.pv_factor, s.price, [1.0]),
    }


_NET = builtin_ieee69()
_SETS = _block_sets()


class TestBlock:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
        set_name=st.sampled_from(sorted(_SETS)),
        export_credit=st.booleans(),
    )
    def test_block_equals_rows(self, k, seed, set_name, export_credit):
        sset = _SETS[set_name]
        lower, upper = decision_bounds(_NET)
        positions = lower + np.random.default_rng(seed).random((k, lower.size)) * (upper - lower)
        ev = ScheduleEvaluator(_NET, export_credit=export_credit)
        block = ev.evaluate(positions, sset)
        rows = [
            ev.evaluate(DecisionVector.from_flat(x, len(_NET.dgs), len(_NET.esss)), sset) for x in positions
        ]
        assert [(f.f1, f.f2, f.penalty) for f in block] == [(f.f1, f.f2, f.penalty) for f in rows]
        if set_name == "heavy":
            assert all(f.penalty > 0 for f in block)

    def test_per_scenario_block_shapes(self):
        sset = _SETS["ten_scenarios"]
        lower, upper = decision_bounds(_NET)
        positions = np.stack([lower, upper, (lower + upper) / 2])
        ev = ScheduleEvaluator(_NET)
        out = ev.per_scenario(positions, sset)
        assert out.cost.shape == out.ens.shape == out.penalty.shape == (3, len(sset))
        one = ev.per_scenario(DecisionVector.from_flat(positions[1], len(_NET.dgs), len(_NET.esss)), sset)
        assert np.array_equal(one.cost, out.cost[1]) and np.array_equal(one.penalty, out.penalty[1])

    def test_block_width_checked(self):
        lower, _ = decision_bounds(_NET)
        with pytest.raises(ValueError, match="block shape"):
            ScheduleEvaluator(_NET).evaluate(np.zeros((2, lower.size + 1)), _SETS["deterministic"])


def _repeating_set(seed: int, n_s: int, load: float) -> ScenarioSet:
    """A set whose scenarios draw each hour's (load, PV) factors from three
    levels, the last one repeating the first's, so grid states repeat across
    scenarios; prices all differ."""
    rng = np.random.default_rng(seed)
    fc = default_forecast()
    levels = np.array([0.9, 1.0, 1.1])
    loads = fc.load_factor * load * levels[rng.integers(3, size=(n_s, 24))]
    pvs = fc.pv_factor * levels[rng.integers(3, size=(n_s, 24))]
    loads[-1], pvs[-1] = loads[0], pvs[0]
    probs = rng.random(n_s) + 0.1
    probs /= probs.sum()
    return ScenarioSet(loads, pvs, fc.price * rng.uniform(0.5, 1.5, (n_s, 24)), probs)


def _one_column_per_hour(sset: ScenarioSet) -> ScenarioSet:
    """The same set with every scenario-hour its own state, as if no two
    were alike."""
    plain = ScenarioSet(sset.load_factor, sset.pv_factor, sset.price, sset.probabilities)
    plain.__dict__["grid_states"] = (
        np.tile(np.arange(24), len(sset)),
        sset.load_factor.ravel(),
        sset.pv_factor.ravel(),
        np.arange(24 * len(sset)),
    )
    return plain


class TestGridStates:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_s=st.integers(2, 8),
        load=st.sampled_from([1.0, 1.8]),
        export_credit=st.booleans(),
    )
    def test_set_equals_stacked_scenarios(self, seed, n_s, load, export_credit):
        # a scenario-hour solved as a shared state, at any column of a padded
        # block, gives the bits it gets in a column of its own
        sset = _repeating_set(seed, n_s, load)
        assert len(sset.grid_states[0]) < n_s * 24
        lower, upper = decision_bounds(_NET)
        flat = lower + np.random.default_rng(seed).random(lower.size) * (upper - lower)
        x = DecisionVector.from_flat(flat, len(_NET.dgs), len(_NET.esss))
        ev = ScheduleEvaluator(_NET, export_credit=export_credit)
        out = ev.per_scenario(x, sset)
        ref = ev.per_scenario(x, _one_column_per_hour(sset))
        for name in ("cost", "ens", "penalty"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name
        # against each scenario alone: every sum over buses runs per grid
        # state, so all three totals keep their bits
        bds = [ev.breakdown(x, scenario(sset, i)) for i in range(n_s)]
        assert out.cost.tolist() == [bd.cost_s for bd in bds]
        assert out.ens.tolist() == [bd.ens_s for bd in bds]
        assert out.penalty.tolist() == [bd.penalty for bd in bds]
        if load > 1.0:  # 1.8x load pushes voltages out of band
            assert all(bd.penalty > 0 for bd in bds)

    def test_columns_sent_to_solver(self, monkeypatch):
        widths = []

        def spy(net, p, q):
            widths.append(p[0].size)
            return solve_batch(net, p, q)

        solve_batch = dnems.objectives.solve_batch
        monkeypatch.setattr(dnems.objectives, "solve_batch", spy)
        fc = default_forecast()
        # two scenarios that differ in one hour's load: 25 states
        bumped = fc.load_factor.copy()
        bumped[5] *= 1.1
        pair = ScenarioSet(np.stack([fc.load_factor, bumped]), [fc.pv_factor] * 2, [fc.price] * 2, [0.5, 0.5])
        reduced = _SETS["ten_scenarios"]
        lower, upper = decision_bounds(_NET)
        positions = lower + np.random.default_rng(1).random((30, lower.size)) * (upper - lower)
        ev = ScheduleEvaluator(_NET)
        # exactly the set's u states per candidate: solve_batch pads its own
        for sset, per_candidate in (
            (pair, 25),
            (reduced, len(reduced.grid_states[0])),
            (_SETS["deterministic"], 24),
        ):
            widths.clear()
            ev.evaluate(positions, sset)
            assert sum(widths) == 30 * per_candidate
            assert all(w % per_candidate == 0 for w in widths)
        assert len(pair.grid_states[0]) == 25
        assert len(reduced.grid_states[0]) < 10 * 24


# the built-in feeder with its first PV+storage pair and two of its DGs on
# its most heavily loaded bus, whose net load then changes sign hour by hour
_SHARED_BUS = 61
_SHARED_NET = replace(
    _NET,
    pvs=(replace(_NET.pvs[0], bus=_SHARED_BUS), *_NET.pvs[1:]),
    esss=(replace(_NET.esss[0], bus=_SHARED_BUS), *_NET.esss[1:]),
    dgs=(replace(_NET.dgs[0], bus=_SHARED_BUS), *_NET.dgs[1:3], replace(_NET.dgs[3], bus=_SHARED_BUS)),
)


class TestEnsOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        set_name=st.sampled_from(["deterministic", "ten_scenarios", "repeating"]),
        shared=st.booleans(),
    )
    def test_block_equals_all_bus_formulation(self, k, seed, set_name, shared):
        # the net load the power-flow injections are built from gives the
        # bits of every bus's unserved load computed per candidate
        net = _SHARED_NET if shared else _NET
        sset = _repeating_set(seed, 6, 1.0) if set_name == "repeating" else _SETS[set_name]
        ev = ScheduleEvaluator(net)
        lower, upper = decision_bounds(net)
        positions = lower + np.random.default_rng(seed).random((k, lower.size)) * (upper - lower)
        positions[0] = lower  # every storage unit discharges at full rate
        dg, ess = ev._block(positions)
        # ... which on bus 69 is more than the bus's load
        assert ev.ess_idx[-1] == _NET.bus_index(69)
        assert np.all(-ess[0, -1] > ev.p_load[ev.ess_idx[-1]] * sset.load_factor.max())
        if shared:
            shared_row = _NET.bus_index(_SHARED_BUS)
            assert ev.pv_idx[0] == ev.ess_idx[0] == shared_row and list(ev.dg_idx).count(shared_row) == 2
        got = ev.per_scenario(positions, sset).ens
        assert got.tobytes() == ens_oracle(ev, dg, ess, sset).tobytes()


class TestDecisionBounds:
    def test_shapes_and_values(self, ieee69):
        lower, upper = decision_bounds(ieee69)
        assert lower.shape == upper.shape == ((4 + 3) * 24,)
        assert np.all(lower[: 4 * 24] == 0.0)
        assert np.all(upper[: 4 * 24] == 500.0)
        assert np.all(lower[4 * 24 :] == -750.0)
        assert np.all(upper[4 * 24 :] == 750.0)

    def test_flatten_roundtrip(self, rng):
        x = DecisionVector(rng.normal(size=(4, 24)), rng.normal(size=(3, 24)))
        back = DecisionVector.from_flat(x.flatten(), 4, 3)
        assert np.array_equal(back.dg_power, x.dg_power)
        assert np.array_equal(back.ess_power, x.ess_power)


# the built-in feeder with its first storage unit (bus 14) charging at most
# 500 kW and discharging at most 750 kW, so the two sides of its box differ
_BOX_NET = replace(_NET, esss=(replace(_NET.esss[0], p_charge_max=500.0), *_NET.esss[1:]))


def _outside(index, hour, value):
    """An in-box schedule of ``_BOX_NET`` with one device-hour set to ``value``;
    devices are indexed DGs first, then storage units."""
    lower, upper = decision_bounds(_BOX_NET)
    flat = (lower + upper) / 2
    flat[index * 24 + hour] = value
    return flat


class TestDecisionBox:
    # (flat schedule, the device-hour's part of the message); DG 2 is at bus
    # 51 with [0, 500] kW, and the first storage unit is device 4
    CASES = {
        "dg-below-p_min": (_outside(1, 7, -1.0), "DG at bus 51, hour 7: -1.0 outside [0.0, 500.0]"),
        "dg-above-p_max": (_outside(1, 7, 500.5), "DG at bus 51, hour 7: 500.5 outside [0.0, 500.0]"),
        "dg-nan": (_outside(1, 7, np.nan), "DG at bus 51, hour 7: nan outside [0.0, 500.0]"),
        "ess-above-charge": (_outside(4, 23, 501.0), "ESS at bus 14, hour 23: 501.0 outside [-750.0, 500.0]"),
        "ess-below-discharge": (_outside(4, 0, -751.0), "ESS at bus 14, hour 0: -751.0 outside [-750.0, 500.0]"),
        "ess-nan": (_outside(4, 0, np.nan), "ESS at bus 14, hour 0: nan outside [-750.0, 500.0]"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_decision_vector_rejected(self, case):
        flat, message = self.CASES[case]
        x = DecisionVector.from_flat(flat, len(_BOX_NET.dgs), len(_BOX_NET.esss))
        ev, sset = ScheduleEvaluator(_BOX_NET), _SETS["deterministic"]
        for entry in (ev.evaluate, ev.per_scenario, ev.breakdown):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry(x, sset)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_row_rejected(self, case):
        flat, message = self.CASES[case]
        lower, upper = decision_bounds(_BOX_NET)
        ev, sset = ScheduleEvaluator(_BOX_NET), _SETS["ten_scenarios"]
        for entry in (ev.evaluate, ev.per_scenario):
            with pytest.raises(ValueError, match=f"^{re.escape('block row 2: ' + message)}$"):
                entry(np.stack([lower, upper, flat, flat]), sset)

    def test_rows_on_the_bounds_keep_their_values(self):
        # each row touches a bound in every device-hour: the box is closed,
        # and the values are those of the evaluator before it checked the box
        lower, upper = decision_bounds(_BOX_NET)
        mixed = np.where(np.arange(lower.size) % 2 == 0, lower, upper)
        block = np.stack([lower, upper, mixed])
        ev, sset = ScheduleEvaluator(_BOX_NET), _SETS["deterministic"]
        got = [(f.f1, f.f2, f.penalty) for f in ev.evaluate(block, sset)]
        before = [
            (-127.75693374098225, 96335.495, 945734605.5932597),
            (7326.204550742423, 92295.83250000002, 444053750.00000006),
            (3607.043566486271, 94296.40750000002, 12481934.233189883),
        ]
        assert got == [pytest.approx(f, rel=1e-12) for f in before]
        for row, f in zip(block, got):
            one = ev.evaluate(DecisionVector.from_flat(row, len(_BOX_NET.dgs), len(_BOX_NET.esss)), sset)
            assert (one.f1, one.f2, one.penalty) == f


class TestProfit:
    def test_defaults_match_source_constants(self):
        report = profit_analysis(toc_old=100.0, toc_new=90.0)
        assert report.c_npv == 1.07
        assert report.investment == 9_751_200.0

    def test_linear_cumulative(self):
        report = profit_analysis(toc_old=200.0, toc_new=100.0, investment=1000.0, years=5, c_npv=1.0)
        assert report.annual_delta_toc == pytest.approx(36_500.0)
        assert np.allclose(report.cumulative, 36_500.0 * np.arange(1, 6))
        assert report.payback_year == 1
        assert report.net_profit == pytest.approx(5 * 36_500.0 - 1000.0)

    def test_no_payback(self):
        report = profit_analysis(toc_old=100.0, toc_new=100.0, investment=1.0, years=3)
        assert report.payback_year is None
        assert report.net_profit == pytest.approx(-1.0)

    def test_payback_boundary(self):
        # cumulative hits the investment exactly at year 4
        report = profit_analysis(toc_old=1.0, toc_new=0.0, investment=4 * 1.07 * 365.0, years=10)
        assert report.payback_year == 4

    def test_bad_years(self):
        with pytest.raises(ValueError, match="years"):
            profit_analysis(100.0, 90.0, years=0)
