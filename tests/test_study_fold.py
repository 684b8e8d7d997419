"""The study's fold of its task results into a report, on synthetic results:
the best run of each mode, the order of the report's best runs, the
statistics rows and the bcs."""

from types import SimpleNamespace

import numpy as np

from dnems.objectives import DecisionVector, ObjectiveVector, ScenarioOutcomes
from dnems.study import StudyConfig, _Found, _fold, _plan, _render

DET_MULTI = StudyConfig(mode="deterministic", objective="multi", repeats=2)
STOCH_COST = StudyConfig(mode="stochastic", objective="cost", scenario_counts=(4, 8), repeats=2)


def found(f1, f2, penalty=0.0, tag=0, cost_s=None):
    """A successful run with the objectives ``(f1, f2, penalty)`` and the
    cost ``cost_s`` (``f1`` if not given) under the forecast; ``tag`` fills
    its schedule's DG row, so a test can tell it apart."""
    x = DecisionVector(np.full((1, 24), float(tag)), np.zeros((1, 24)))
    outcomes = ScenarioOutcomes(np.array([f1]), np.array([f2]), np.array([penalty]), np.array([1.0]))
    breakdown = SimpleNamespace(p_slack=np.zeros(24), cost_s=f1 if cost_s is None else cost_s)
    return _Found(x, ObjectiveVector(f1, f2, penalty), outcomes, breakdown, None, 0.0)


def fold(cfg, outcome, bare=None):
    """The report of ``cfg`` whose runs return ``outcome(task)`` and whose
    bare-feeder run returns ``bare`` (a success by default)."""
    tasks = _plan(cfg)
    bare = found(10.0, 0.0) if bare is None else bare
    return _fold(cfg, tasks, [bare if t.bare else outcome(t) for t in tasks])


def tag(report, mode):
    return report.best[mode]["x"].dg_power[0, 0]


class TestFold:
    def test_best_run_is_first_of_equals_in_task_order_across_settings(self):
        # s4/repeat0 is worse; s4/repeat1, s8/repeat0 and s8/repeat1 tie
        runs = {("s4", 0): found(2.0, 1.0, tag=1), ("s4", 1): found(1.0, 1.0, tag=2),
                ("s8", 0): found(1.0, 1.0, tag=3), ("s8", 1): found(1.0, 1.0, tag=4)}
        report = fold(STOCH_COST, lambda t: runs[t.label, t.rep])
        assert tag(report, "cost") == 2
        assert [(r.setting, r.repeat) for r in report.runs] == list(runs)

    def test_best_keys_follow_each_modes_first_success(self):
        # cost fails at repeat 0 and multi always: ens succeeds first, so its
        # schedule, not cost's, is the histograms' source
        def outcome(t):
            if t.mode == "multi" or (t.mode == "cost" and t.rep == 0):
                return "no run"
            return found(3.0, 5.0) if t.mode == "cost" else found(7.0, 1.0)

        report = fold(DET_MULTI, outcome)
        assert list(report.best) == ["ens", "cost"]
        assert report.archive is None
        left, right, _ = map(float, _render(report)["histogram_f1.csv"].splitlines()[1].split(","))
        assert left < 7.0 < right

    def test_group_with_fewer_than_two_successes_has_no_stats_rows(self):
        report = fold(STOCH_COST, lambda t: "no run" if (t.label, t.rep) == ("s8", 1) else found(1.0, 2.0))
        assert [(r["setting"], r["metric"]) for r in report.stats_rows] == [("s4", "cost"), ("s4", "ens")]
        assert len(report.errors) == 1

    def test_bcs_none_without_a_success_of_each_mode(self):
        assert fold(DET_MULTI, lambda t: found(1.0, 2.0)).bcs is not None
        assert fold(DET_MULTI, lambda t: "no run" if t.mode == "ens" else found(1.0, 2.0)).bcs is None

    def test_equal_penalty_and_own_metric_go_to_the_lower_other_metric(self):
        # both repeats cost 1.0 with no penalty; the later has the lower ENS
        report = fold(DET_MULTI, lambda t: found(1.0, 5.0 - 3.0 * t.rep, tag=t.rep))
        assert tag(report, "cost") == 1
        assert report.best["cost"]["f2"] == 2.0
        ev = {r["metric"]: r["ev"] for r in report.stats_rows if r["objective_mode"] == "cost"}
        assert ev == {"cost": 1.0, "ens": 2.0}

    def test_profit_compares_the_two_breakdowns(self):
        # each side is a run's cost under the forecast: the bare run's search
        # objective (10.0) is not its breakdown's cost (12.0)
        report = fold(DET_MULTI, lambda t: found(4.0, 1.0, cost_s=5.0), bare=found(10.0, 0.0, cost_s=12.0))
        assert report.profit.annual_delta_toc == DET_MULTI.c_npv * 365.0 * (12.0 - 5.0)
