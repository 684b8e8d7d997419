import json

import numpy as np
import pytest

from dnems.cli import main
from dnems.network import builtin_ieee69, network_to_dict
from dnems.objectives import ScheduleEvaluator
from dnems.optimizer import HybridConfig
from dnems.study import ConfigError, StudyConfig, emit_artifacts, run_study

TINY_OPT = {"population": 12, "iterations": 6}


def tiny_config(**kw):
    base = dict(
        mode="deterministic",
        objective="cost",
        repeats=2,
        optimizer=HybridConfig(**TINY_OPT),
        seed=11,
    )
    base.update(kw)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def det_multi_report():
    cfg = StudyConfig(
        mode="deterministic",
        objective="multi",
        repeats=2,
        optimizer=HybridConfig(population=16, iterations=10),
        seed=23,
    )
    return run_study(cfg), cfg


class TestConfig:
    def test_defaults_valid(self):
        cfg = StudyConfig()
        assert cfg.scenario_counts == (30, 60, 90, 120)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            StudyConfig(mode="fuzzy")

    def test_bad_objective(self):
        with pytest.raises(ConfigError, match="objective"):
            StudyConfig(objective="loss")

    def test_bad_repeats(self):
        with pytest.raises(ConfigError, match="repeats"):
            StudyConfig(repeats=0)

    @pytest.mark.parametrize("levels", [1, 2, 4])
    def test_bad_levels(self, levels):
        with pytest.raises(ConfigError, match="levels must be odd and >= 3"):
            StudyConfig(levels=levels)

    def test_bad_oversample(self):
        with pytest.raises(ConfigError, match="oversample must be >= 1"):
            StudyConfig(oversample=0)

    def test_from_json(self, tmp_path):
        doc = {
            "mode": "stochastic",
            "objective": "ens",
            "scenario_counts": [5, 10],
            "repeats": 3,
            "optimizer": {"population": 8, "iterations": 4},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = StudyConfig.from_json(path)
        assert cfg.mode == "stochastic"
        assert cfg.scenario_counts == (5, 10)
        assert cfg.optimizer.population == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"modee": "det"}))
        with pytest.raises(ConfigError, match="unknown config key"):
            StudyConfig.from_json(path)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            StudyConfig.from_json(tmp_path / "missing.json")


class TestRunStudy:
    def test_deterministic_single_scenario(self, det_multi_report):
        report, _ = det_multi_report
        for rec in report.best.values():
            sset = rec["sset"]
            assert len(sset) == 1
            assert sset.scenarios[0].probability == 1.0

    def test_multi_produces_all_blocks(self, det_multi_report):
        report, _ = det_multi_report
        assert set(report.best) == {"cost", "ens", "multi"}
        assert set(report.schedules) == {"cost", "ens", "bcs"}
        assert report.bcs is not None
        assert report.archive is not None and len(report.archive) >= 1
        assert report.profit is not None

    def test_stats_rows_relations(self, det_multi_report):
        report, _ = det_multi_report
        assert report.stats_rows
        for row in report.stats_rows:
            assert row["ci95"] == pytest.approx(1.96 * row["sd"] / np.sqrt(row["n"]))
            if row["mean"] != 0:
                assert row["re"] == pytest.approx(row["ci95"] / abs(row["mean"]))

    def test_errors_empty_on_success(self, det_multi_report):
        report, _ = det_multi_report
        assert report.errors == []

    def test_stochastic_counts(self):
        cfg = tiny_config(mode="stochastic", scenario_counts=(4, 6), repeats=2)
        report = run_study(cfg)
        labels = {r.setting for r in report.runs}
        assert labels == {"s4", "s6"}
        assert len(report.runs) == 4

    def test_unknown_network_path(self):
        with pytest.raises(ConfigError):
            run_study(tiny_config(network="/nonexistent/net.json"))

    def test_partial_penalty_weights_merge_over_defaults(self):
        opt = HybridConfig(**TINY_OPT, penalty_weights={"voltage": 1e6})
        report = run_study(tiny_config(repeats=1, optimizer=opt))
        assert report.errors == []
        assert len(report.runs) == 1


class TestEmitArtifacts:
    def test_files_written(self, det_multi_report, tmp_path):
        report, _ = det_multi_report
        manifest = emit_artifacts(report, tmp_path / "out")
        names = set(manifest["files"])
        assert {
            "pareto_front.csv",
            "schedules_cost.csv",
            "schedules_ens.csv",
            "schedules_bcs.csv",
            "stats.csv",
            "histogram_f1.csv",
            "histogram_f2.csv",
            "profit.csv",
        } <= names
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_histogram_normalized(self, det_multi_report, tmp_path):
        report, _ = det_multi_report
        emit_artifacts(report, tmp_path / "h")
        for name in ("histogram_f1.csv", "histogram_f2.csv"):
            rows = (tmp_path / "h" / name).read_text().strip().split("\n")[1:]
            mass = 0.0
            for row in rows:
                left, right, density = (float(v) for v in row.split(","))
                mass += (right - left) * density
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_profit_rows(self, det_multi_report, tmp_path):
        report, _ = det_multi_report
        emit_artifacts(report, tmp_path / "p")
        rows = (tmp_path / "p" / "profit.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 20
        cumulative = [float(r.split(",")[1]) for r in rows]
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))

    def test_schedule_shape(self, det_multi_report, tmp_path):
        report, _ = det_multi_report
        emit_artifacts(report, tmp_path / "s")
        lines = (tmp_path / "s" / "schedules_bcs.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "hour"
        assert header[-1] == "p_slack_kw"
        assert len(lines) == 25  # header + 24 hours
        assert len([c for c in header if c.startswith("dg_")]) == 4
        assert len([c for c in header if c.startswith("ess_")]) == 3

    def test_empty_archive_header_only(self, det_multi_report, tmp_path):
        report, _ = det_multi_report
        bare = type(report)(
            config=report.config,
            runs=[],
            stats_rows=[],
            best={},
            schedules={},
            archive=None,
            bcs=None,
            profit=None,
            errors=[],
            timings={},
        )
        emit_artifacts(bare, tmp_path / "e")
        assert (tmp_path / "e" / "pareto_front.csv").read_text() == "f1,f2,psi1,psi2,y\n"

    def test_byte_determinism(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "a"))
        emit_artifacts(run_study(cfg), tmp_path / "a")
        emit_artifacts(run_study(cfg), tmp_path / "b")
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "--mode",
                "det",
                "--objective",
                "cost",
                "--repeats",
                "2",
                "--seed",
                "4",
                "--population",
                "12",
                "--iterations",
                "5",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stats.csv" in out
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["--scenarios", "abc", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_network_exit_one(self, tmp_path, capsys):
        code = main(
            ["--network", "/no/such/net.json", "--mode", "det", "--repeats", "1",
             "--population", "8", "--iterations", "2", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_runtime_failure_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(
            ["--mode", "det", "--objective", "cost", "--repeats", "1",
             "--population", "8", "--iterations", "2", "--out", str(blocker)]
        )
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights, message",
        [({"volt": 1.0}, "unknown penalty weight 'volt'"), ({"flow": -1.0}, "'flow' must be >= 0")],
    )
    def test_bad_penalty_weights_exit_one(self, tmp_path, capsys, weights, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"repeats": 1, "optimizer": {"population": 8, "iterations": 2, "penalty_weights": weights}}
        ))
        code = main(["--config", str(cfg_path), "--mode", "det", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_forecast_missing_key_exit_one(self, tmp_path, capsys):
        doc = {"load_factor": [1.0] * 24, "pv_factor": [0.0] * 24}
        forecast = tmp_path / "forecast.json"
        forecast.write_text(json.dumps(doc))
        code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                     "--population", "8", "--iterations", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing key 'price'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"levels": 4}, "levels must be odd"),
            ({"oversample": 0}, "oversample must be >= 1"),
            ({"optimizer": {"archive_capacity": 0}}, "archive_capacity must be >= 1"),
            ({"optimizer": {"c1": -1.0}}, "c1 must be >= 0"),
            ({"optimizer": {"mu_low": -0.1}}, "mu_low must be >= 0"),
            ({"optimizer": {"seed": 3}}, "top-level 'seed'"),
            ({"optimizer": {"objective_weights": [1.0, 0.0]}}, "top-level 'weights'"),
        ],
    )
    def test_bad_config_value_exit_one(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"repeats": 1, **doc}))
        code = main(["--config", str(cfg_path), "--mode", "stoch", "--scenarios", "4",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["buses"][4].update(p_load=float("nan")), "bus 5: p_load must be finite"),
            (lambda doc: doc["branches"][2].update(x=float("inf")), "x must be finite"),
            (lambda doc: doc["branches"][2].update(r=0.0, x=0.0), "zero-impedance branch"),
        ],
    )
    def test_bad_network_exit_one(self, tmp_path, capsys, edit, message):
        doc = network_to_dict(builtin_ieee69())
        edit(doc)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code = main(["--network", str(path), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_nonfinite_forecast_exit_one(self, tmp_path, capsys):
        doc = {"load_factor": [1.0] * 24, "pv_factor": [0.0] * 24, "price": [0.1] * 23 + [float("nan")]}
        forecast = tmp_path / "forecast.json"
        forecast.write_text(json.dumps(doc))
        code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "price entries must be finite" in capsys.readouterr().err

    def test_no_successful_repeat_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing(self, x, sset):
            raise KeyError("flow")

        monkeypatch.setattr(ScheduleEvaluator, "evaluate", failing)
        out = tmp_path / "o"
        code = main(["--mode", "det", "--objective", "multi", "--repeats", "2",
                     "--population", "4", "--iterations", "1", "--out", str(out)])
        assert code == 2
        assert "no repeat succeeded" in capsys.readouterr().err
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["runs"] == 0
        assert len(summary["errors"]) == 6
        assert all(len(e) < 200 for e in summary["errors"])
        assert "KeyError: 'flow'" in summary["errors"][0]

    def test_config_file_with_overrides(self, tmp_path):
        doc = {"mode": "deterministic", "objective": "cost", "repeats": 1,
               "optimizer": {"population": 8, "iterations": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["--config", str(cfg_path), "--seed", "9", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["optimizer"]["population"] == 8
