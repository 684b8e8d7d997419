import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dnems.objectives
from dnems.network import Branch, Bus, DgSpec, EssSpec, builtin_ieee69, make_network
from dnems.objectives import (
    DEFAULT_PENALTY_WEIGHTS,
    DecisionVector,
    ScheduleEvaluator,
    decision_bounds,
    ess_trajectory,
    merge_penalty_weights,
    profit_analysis,
)
from dnems.scenarios import Scenario, ScenarioSet, default_forecast, deterministic_set, generate, reduce


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
    return Scenario(
        load_factor=np.full(24, load),
        pv_factor=np.full(24, pv),
        price=np.full(24, price),
        probability=1.0,
    )


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


class TestPenalty:
    def test_rate_overshoot_value(self, two_bus):
        # one hour of charging past the rate limit, energy band far away:
        # the rate term is the whole penalty, quadratic in the overshoot
        unit = spec(w_min=0.0, w_max=1e5, w_initial=5e4)
        net = make_network(two_bus.buses, two_bus.branches, esss=[unit], v_min=0.5, v_max=1.5)
        ev = ScheduleEvaluator(net)
        sset = ScenarioSet((flat_scenario(),))
        delta = 20.0

        def pen(charge):
            power = np.zeros((1, 24))
            power[0, 7] = charge
            return ev.evaluate(DecisionVector(np.zeros((0, 24)), power), sset).penalty

        expected = ev.weights["rate"] * (delta / unit.p_charge_max) ** 2
        assert pen(unit.p_charge_max + delta) == pytest.approx(expected, rel=1e-12)
        assert pen(unit.p_charge_max + 2 * delta) == pytest.approx(4 * expected, rel=1e-12)
        assert pen(unit.p_charge_max) == 0.0

    def test_evaluator_merges_partial_weights(self, two_bus):
        ev = ScheduleEvaluator(two_bus, weights={"voltage": 5.0})
        assert ev.weights == {**DEFAULT_PENALTY_WEIGHTS, "voltage": 5.0}
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        assert ev.evaluate(x, ScenarioSet((flat_scenario(),))).penalty == 0.0

    def test_unknown_weight_rejected(self, two_bus):
        with pytest.raises(ValueError, match="unknown penalty weight 'volt'"):
            ScheduleEvaluator(two_bus, weights={"volt": 1.0})

    @pytest.mark.parametrize("name", sorted(DEFAULT_PENALTY_WEIGHTS))
    def test_evaluator_rejects_negative_weight(self, two_bus, name):
        with pytest.raises(ValueError, match=f"penalty weight '{name}' must be >= 0"):
            ScheduleEvaluator(two_bus, weights={name: -1.0})
        assert merge_penalty_weights({name: 0.0})[name] == 0.0


def dg_test_network():
    """Near-lossless feeder with one 150 kW load and a DG at the load bus."""
    return make_network(
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

    def test_empty_system(self):
        net = make_network(
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

    def test_power_balance_residual(self, ieee69):
        # converged hours satisfy slack + PV + DG + ESS = loss + demand
        fc = default_forecast()
        s = deterministic_set(fc).scenarios[0]
        rng = np.random.default_rng(0)
        x = DecisionVector(
            rng.uniform(0, 500, size=(4, 24)), rng.uniform(-750, 750, size=(3, 24))
        )
        bd = breakdown(ieee69, x, s)
        assert bd.converged_hours == 24
        demand = sum(b.p_load for b in ieee69.buses) * s.load_factor
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
        doubled = make_network(
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
        sset = ScenarioSet((Scenario(s.load_factor, s.pv_factor, s.price, 1.0),))
        assert evaluate(doubled, x, sset).f1 == evaluate(two_bus, x, sset).f1

    def test_discharge_offsets_load(self, ieee69):
        idle = DecisionVector(np.zeros((4, 24)), np.zeros((3, 24)))
        discharging = DecisionVector(np.zeros((4, 24)), np.full((3, 24), -20.0))
        s = deterministic_set(default_forecast()).scenarios[0]
        assert breakdown(ieee69, discharging, s).ens_s <= breakdown(ieee69, idle, s).ens_s


class TestEvaluateSet:
    def test_singleton_equals_scenario(self, ieee69, rng):
        fc = default_forecast()
        x = DecisionVector(rng.uniform(0, 300, (4, 24)), rng.uniform(-200, 200, (3, 24)))
        ev = ScheduleEvaluator(ieee69)
        for load in (1.0, 1.8):  # 1.8 pushes voltages out of band: nonzero penalty
            s = Scenario(fc.load_factor * load, fc.pv_factor, fc.price, 1.0)
            sset = ScenarioSet((s,))
            f = ev.evaluate(x, sset)
            out = ev.per_scenario(x, sset)
            bd = ev.breakdown(x, s)
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
        pair = ScenarioSet(
            (
                Scenario(s1.load_factor, s1.pv_factor, s1.price, 0.5),
                Scenario(s2.load_factor, s2.pv_factor, s2.price, 0.5),
            )
        )
        f = evaluate(two_bus, x, pair)
        a = breakdown(two_bus, x, s1)
        b = breakdown(two_bus, x, s2)
        assert f.f1 == pytest.approx(0.5 * a.cost_s + 0.5 * b.cost_s)
        assert f.f2 == pytest.approx(0.5 * a.ens_s + 0.5 * b.ens_s)
        with pytest.raises(ValueError, match="sum to"):  # weights must be a distribution
            ScenarioSet((pair.scenarios[0], Scenario(s2.load_factor, s2.pv_factor, s2.price, 0.4)))

    def test_duplicate_split_invariance(self, two_bus):
        # splitting a scenario's mass across identical copies changes nothing
        x = DecisionVector(np.zeros((0, 24)), np.zeros((0, 24)))
        s = flat_scenario()
        whole = ScenarioSet((Scenario(s.load_factor, s.pv_factor, s.price, 1.0),))
        split = ScenarioSet(
            (
                Scenario(s.load_factor, s.pv_factor, s.price, 0.25),
                Scenario(s.load_factor, s.pv_factor, s.price, 0.75),
            )
        )
        a, b = evaluate(two_bus, x, whole), evaluate(two_bus, x, split)
        assert a.f1 == pytest.approx(b.f1, rel=1e-12)
        assert a.f2 == pytest.approx(b.f2, rel=1e-12)

    def test_objective_separation(self, ieee69, rng):
        x = DecisionVector(rng.uniform(0, 300, (4, 24)), np.zeros((3, 24)))
        fc = default_forecast()
        base = deterministic_set(fc).scenarios[0]
        pricier = Scenario(base.load_factor, base.pv_factor, base.price * 1.7, 1.0)
        f_base = evaluate(ieee69, x, ScenarioSet((base,)))
        f_pricier = evaluate(ieee69, x, ScenarioSet((pricier,)))
        assert f_pricier.f2 == f_base.f2  # reliability blind to prices
        assert f_pricier.f1 != f_base.f1


def _block_sets():
    fc = default_forecast()
    s = deterministic_set(fc).scenarios[0]
    return {
        "deterministic": deterministic_set(fc),
        "ten_scenarios": reduce(generate(fc, n=40, seed=5), 10),
        # 1.8x load pushes voltages out of band: every candidate is penalized
        "heavy": ScenarioSet((Scenario(s.load_factor * 1.8, s.pv_factor, s.price, 1.0),)),
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
    return ScenarioSet(
        tuple(Scenario(lf, pf, fc.price * rng.uniform(0.5, 1.5, 24), p) for lf, pf, p in zip(loads, pvs, probs))
    )


def _one_column_per_hour(sset: ScenarioSet) -> ScenarioSet:
    """The same set with every scenario-hour its own state, as if no two
    were alike."""
    arr = sset.arrays
    plain = ScenarioSet(sset.scenarios)
    plain.__dict__["arrays"] = dataclasses.replace(
        arr,
        state_hour=np.tile(np.arange(24), len(sset)),
        state_load=arr.load_factor.ravel(),
        state_pv=arr.pv_factor.ravel(),
        state_of=None,
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
        assert len(sset.arrays.state_hour) < n_s * 24
        lower, upper = decision_bounds(_NET)
        flat = lower + np.random.default_rng(seed).random(lower.size) * (upper - lower)
        x = DecisionVector.from_flat(flat, len(_NET.dgs), len(_NET.esss))
        ev = ScheduleEvaluator(_NET, export_credit=export_credit)
        out = ev.per_scenario(x, sset)
        ref = ev.per_scenario(x, _one_column_per_hour(sset))
        for name in ("cost", "ens", "penalty"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name
        # against each scenario alone: cost sums over hours only, so its bits
        # match; ENS and penalty also sum over buses, whose order numpy picks
        # by the number of scenarios
        bds = [ev.breakdown(x, s) for s in sset]
        assert out.cost.tolist() == [bd.cost_s for bd in bds]
        assert out.ens == pytest.approx([bd.ens_s for bd in bds], rel=1e-12)
        assert out.penalty == pytest.approx([bd.penalty for bd in bds], rel=1e-12)
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
        # two scenarios that differ in one hour's load: 25 states, padded to 28
        bumped = fc.load_factor.copy()
        bumped[5] *= 1.1
        pair = ScenarioSet(
            (Scenario(fc.load_factor, fc.pv_factor, fc.price, 0.5), Scenario(bumped, fc.pv_factor, fc.price, 0.5))
        )
        reduced = _SETS["ten_scenarios"]
        lower, upper = decision_bounds(_NET)
        positions = lower + np.random.default_rng(1).random((30, lower.size)) * (upper - lower)
        ev = ScheduleEvaluator(_NET)
        for sset, per_candidate in (
            (pair, 28),
            (reduced, -(-len(reduced.arrays.state_hour) // 4) * 4),
            (_SETS["deterministic"], 24),
        ):
            widths.clear()
            ev.evaluate(positions, sset)
            assert sum(widths) == 30 * per_candidate
            assert all(w % per_candidate == 0 and w % 4 == 0 for w in widths)
        assert len(pair.arrays.state_hour) == 25
        assert len(reduced.arrays.state_hour) < 10 * 24


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
