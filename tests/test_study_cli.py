import json
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from dnems.cli import _config_from_args, build_parser, main
from dnems.network import builtin_ieee69
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

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            StudyConfig(seed=-1)

    @pytest.mark.parametrize(
        "opt, top",
        [({"seed": 3}, "seed"), ({"objective_weights": (1.0, 0.0)}, "weights")],
        ids=["seed", "objective_weights"],
    )
    def test_optimizer_setting_a_study_overrides_rejected(self, opt, top):
        # the study sets these for each run; a config holding them would not
        # read back from its manifest
        key = next(iter(opt))
        with pytest.raises(ConfigError, match=f"optimizer.{key} has no effect in a study; set the top-level '{top}'"):
            StudyConfig(optimizer=HybridConfig(**opt))

    def test_duplicate_scenario_counts_rejected(self):
        # two settings of one count would share a label and merge in stats.csv
        with pytest.raises(ConfigError, match="scenario counts must be distinct, got 8 more than once"):
            StudyConfig(scenario_counts=(4, 8, 8))

    def test_deterministic_vary_scenarios_rejected(self):
        # one scenario and one optimizer seed: every repeat would be the same run
        with pytest.raises(ConfigError, match="vary 'scenarios' needs mode 'stochastic'"):
            StudyConfig(mode="deterministic", vary="scenarios")
        StudyConfig(mode="stochastic", vary="scenarios")
        StudyConfig(mode="deterministic", vary="optimizer")

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
        with pytest.raises(ConfigError, match=r"^config .*cfg\.json: unknown keys \['modee'\]$"):
            StudyConfig.from_json(path)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError, match="^config .*missing\\.json: No such file or directory$"):
            StudyConfig.from_json(tmp_path / "missing.json")


class TestRunStudy:
    def test_deterministic_single_scenario(self, det_multi_report):
        report, _ = det_multi_report
        for rec in report.best.values():
            assert rec["outcomes"].probabilities.tolist() == [1.0]

    def test_multi_produces_all_blocks(self, det_multi_report):
        report, _ = det_multi_report
        assert set(report.best) == {"cost", "ens", "multi"}
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
        for name, entry in manifest["files"].items():
            assert entry["bytes"] == (tmp_path / "out" / name).stat().st_size, name

    @pytest.mark.parametrize(
        "change, error, match",
        [
            # the front's scores need weights that are not both zero
            (lambda r: {"config": {**r.config, "weights": [0, 0]}}, ValueError, "^weights must be two finite numbers"),
            # the manifest, rendered last, cannot hold a numpy integer
            (lambda r: {"config": {**r.config, "seed": np.int64(3)}}, TypeError, "not JSON serializable"),
            # nor a number that JSON lacks
            (lambda r: {"best": {**r.best, "cost": {**r.best["cost"], "penalty": float("inf")}}},
             ValueError, "not JSON compliant"),
        ],
        ids=["front", "manifest", "nonfinite"],
    )
    def test_unrenderable_report_writes_nothing(self, det_multi_report, tmp_path, change, error, match):
        # rendering fails before anything is written or the stale profit.csv removed
        report, _ = det_multi_report
        broken = replace(report, **change(report))
        out = tmp_path / "o"
        out.mkdir()
        (out / "profit.csv").write_text("stale")
        (out / "notes.txt").write_text("kept")
        with pytest.raises(error, match=match):
            emit_artifacts(broken, out)
        assert {p.name: p.read_text() for p in out.iterdir()} == {"profit.csv": "stale", "notes.txt": "kept"}

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
            archive=None,
            bcs=None,
            profit=None,
            errors=[],
            timings={},
        )
        emit_artifacts(bare, tmp_path / "e")
        assert (tmp_path / "e" / "pareto_front.csv").read_text() == "f1,f2,psi1,psi2,y\n"

    def test_front_highest_y_is_bcs(self, tmp_path):
        # y is weighted by the study's weights, as the best compromise is
        cfg = tiny_config(objective="multi", repeats=1, weights=(0.95, 0.05),
                          optimizer=HybridConfig(population=20, iterations=6))
        manifest = emit_artifacts(run_study(cfg), tmp_path / "w")
        rows = [[float(v) for v in line.split(",")]
                for line in (tmp_path / "w" / "pareto_front.csv").read_text().splitlines()[1:]]
        assert len(rows) > 1
        top = max(rows, key=lambda r: r[4])
        bcs = manifest["summary"]["best"]["multi"]
        assert top[:2] == [float(f"{bcs['f1']:.10g}"), float(f"{bcs['f2']:.10g}")]

    def test_stale_artifacts_removed(self, tmp_path):
        out = tmp_path / "o"
        (out / "notes.txt").parent.mkdir()
        (out / "notes.txt").write_text("kept")
        emit_artifacts(run_study(tiny_config(objective="multi", repeats=1)), out)
        assert {"profit.csv", "schedules_cost.csv", "schedules_bcs.csv"} <= {p.name for p in out.iterdir()}
        manifest = emit_artifacts(run_study(tiny_config(objective="ens", repeats=1)), out)
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"], "manifest.json", "notes.txt"])
        assert "schedules_ens.csv" in manifest["files"] and "profit.csv" not in manifest["files"]

    def test_byte_determinism(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "a"))
        emit_artifacts(run_study(cfg), tmp_path / "a")
        emit_artifacts(run_study(cfg), tmp_path / "b")
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


    def test_manifest_config_round_trip(self, tmp_path):
        cfg = tiny_config(
            out_dir=str(tmp_path / "a"),
            weights=(0.3, 0.7),
            optimizer=HybridConfig(**TINY_OPT, penalty_weights={"voltage": 2e6}),
            export_credit=False,
        )
        emit_artifacts(run_study(cfg), tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert StudyConfig.from_dict(manifest["config"]) == cfg

    @pytest.mark.parametrize(
        "integer, real",
        [(np.int64, float), (int, np.float32), (int, lambda v: Fraction(str(v)))],
        ids=["int64", "float32", "fraction"],
    )
    def test_numbers_stored_as_python_numbers(self, tmp_path, integer, real):
        # a study runs and emits with numpy and Fraction settings, and its
        # manifest reads back equal
        cfg = tiny_config(
            repeats=integer(1),
            seed=integer(3),
            profit_years=integer(5),
            investment=real(0.5),
            c_npv=real(1.07),
            optimizer=HybridConfig(
                population=integer(4),
                iterations=integer(2),
                archive_capacity=integer(10),
                c1=real(1.5),
                mu_low=real(0.4),
                penalty_weights={"voltage": real(2e6)},
            ),
        )
        manifest = emit_artifacts(run_study(cfg), tmp_path / "n")
        assert manifest == json.loads((tmp_path / "n" / "manifest.json").read_text())
        assert StudyConfig.from_dict(manifest["config"]) == cfg


# the flag that names each kind of document, and the file name the failure table writes
_DOCUMENT_FLAGS = {"config": ("--config", "study.json"), "network": ("--network", "net.json"),
                   "forecast": ("--forecast", "forecast.json")}

# failure -> (how it makes the file at a path for each kind, the start of the reason printed)
_DOCUMENT_FAILURES = {
    "missing": (lambda path, kind: None, "No such file or directory"),
    "directory": (lambda path, kind: path.mkdir(), "Is a directory"),
    "not-utf8": (lambda path, kind: path.write_bytes(b"\xff\xfe{\x00}\x00"), "not UTF-8 text: "),
    "malformed": (lambda path, kind: path.write_text("{load_factor: []}"), "invalid JSON: Expecting property name"),
    "overlong": (lambda path, kind: path.write_text('{"seed": ' + "1" * 5000 + "}"), "invalid JSON: Exceeds the limit"),
    "too-deep": (lambda path, kind: path.write_text("[" * 100_000 + "]" * 100_000),
                 "invalid JSON: maximum recursion depth exceeded"),
    "not-object": (lambda path, kind: path.write_text("[]"), "the document must be an object, got []"),
    "unknown-key": (lambda path, kind: path.write_text('{"bogus": 1}'), "unknown keys ['bogus']"),
    "nested-unknown-key": (lambda path, kind: path.write_text(json.dumps(_NESTED[kind][0])), None),
}
# kind -> a document with an unknown key one object down, and the reason printed; a forecast nests no object
_NESTED = {
    "config": ({"optimizer": {"popsize": 8}}, "optimizer: unknown keys ['popsize']"),
    "network": ({"buses": [{"id": 1, "pload": 0.0}], "branches": []}, "buses[0]: unknown keys ['pload']"),
}


def _document_failure(tmp_path, capsys, kind: str, failure: str) -> str:
    """Run the CLI on a ``kind`` document that fails as ``failure`` and check
    that it exits 1 with one line naming the kind and the path once, and no
    Python internals; return that line."""
    flag, name = _DOCUMENT_FLAGS[kind]
    make, reason = _DOCUMENT_FAILURES[failure]
    path = tmp_path / name
    make(path, kind)
    code = main([flag, str(path), "--mode", "det", "--repeats", "1",
                 "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {kind} {path}: {reason or _NESTED[kind][1]}"), err
    assert len(err.splitlines()) == 1 and err.count(str(path)) == 1, err
    assert not any(text in err for text in ("__init__()", "list indices", "KeyError")), err
    assert not (tmp_path / "o").exists()
    return err


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
        run = tmp_path / "run"
        assert out.splitlines() == [f"wrote {run}/{p.name}" for p in sorted(run.iterdir())]
        assert (run / "manifest.json").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["--scenarios", "abc", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--population", "3"], "config error: population must be even and >= 2"),
            (["--iterations", "0"], "config error: iterations must be >= 1"),
            (["--seed", "-1"], "config error: seed must be >= 0, got -1"),
            # an empty value is an error, not the default
            (["--scenarios", ""], "config error: bad --scenarios value ''"),
            (["--weights", ""], "config error: bad --weights value ''"),
            (["--out", ""], "config error: out_dir must not be empty"),
            (["--network", ""], "config error: network must not be empty"),
            (["--forecast", ""], "config error: forecast must not be empty"),
        ],
        ids=["population", "iterations", "seed", "empty-scenarios", "empty-weights", "empty-out", "empty-network",
             "empty-forecast"],
    )
    def test_bad_flag_exit_one(self, tmp_path, capsys, monkeypatch, flags, line):
        monkeypatch.chdir(tmp_path)  # where an empty path points
        code = main(["--mode", "det", "--repeats", "1", "--population", "4", "--iterations", "1",
                     "--out", str(tmp_path / "o"), *flags])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--repeats", "x"], "argument --repeats: invalid int value: 'x'"),
            (["--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
            (["--population", ""], "argument --population: invalid int value: ''"),
            (["--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
            (["--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_malformed_flag_exit_one(self, tmp_path, capsys, flags, message):
        # argparse's own message, but the exit code of any other bad value
        code = main(["--out", str(tmp_path / "o"), *flags])
        assert code == 1
        assert f"dnems: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: dnems" in capsys.readouterr().out

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
        [
            ({"volt": 1.0}, "unknown penalty weight 'volt'"),
            ({"flow": -1.0}, "'flow' must be >= 0"),
            ({"rate": 1.0}, "unknown penalty weight 'rate'"),
        ],
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
            ({"optimizer": 5}, "optimizer must be an object"),
            ({"optimizer": {"population": 4.0}}, "population must be an integer"),
            ({"weights": [1]}, "weights must be two finite numbers"),
            ({"weights": [1, 1, 1]}, "weights must be two finite numbers"),
            ({"weights": ["1", 1]}, "weights must be two finite numbers"),
            ({"weights": [float("nan"), 1]}, "weights must be two finite numbers"),
            ({"export_credit": "no"}, "export_credit must be true or false"),
            ({"network": 5}, "network must be a string"),
            ({"forecast": 5}, "forecast must be a path string"),
            ({"levels": 7.0}, "levels must be an integer"),
            ({"repeats": True}, "repeats must be an integer"),
            ({"scenario_counts": [4.0]}, "scenario_counts must be a list of integers"),
            ({"investment": "5"}, "investment must be a number"),
            ({"c_npv": float("nan")}, "c_npv must be finite"),
            ({"profit_years": 0}, "profit_years must be >= 1"),
            ({"optimizer": {"c1": float("inf")}}, "c1 must be finite"),
            ({"optimizer": {"c2": float("inf")}}, "c2 must be finite"),
            ({"optimizer": {"mu_high": float("inf")}}, "mu_high must be finite"),
            ({"optimizer": {"mu_low": float("inf")}}, "mu_low must be finite"),
            ({"optimizer": {"penalty_weights": {"flow": float("inf")}}}, "penalty weight 'flow' must be finite"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
            ({"out_dir": ""}, "out_dir must not be empty"),
            ({"network": ""}, "network must not be empty"),
            ({"forecast": ""}, "forecast must not be empty"),
            ({"weights": [float("inf"), 1]}, "weights must be two finite numbers"),
            ({"optimizer": {"c1": True}}, "c1 must be a number, got True"),
            ({"optimizer": {"mu_high": True}}, "mu_high must be a number, got True"),
            ({"optimizer": {"penalty_weights": {"voltage": True}}}, "penalty weight 'voltage' must be a number"),
            ({"optimizer": {"penalty_weights": False}}, "penalty weights must be an object"),
            ({"optimizer": {"penalty_weights": 0}}, "penalty weights must be an object"),
            ({"optimizer": {"penalty_weights": ""}}, "penalty weights must be an object"),
            ({"optimizer": {"penalty_weights": []}}, "penalty weights must be an object"),
            ({"optimizer": {"penalty_weights": [["flow", 3]]}}, "penalty weights must be an object"),
            ({"investment": -1.0}, "investment must be >= 0, got -1.0"),
            ({"c_npv": 0.0}, "c_npv must be > 0, got 0.0"),
            # an int too large for a float is not finite
            ({"investment": 10**400}, "investment must be finite"),
            ({"c_npv": 10**400}, "c_npv must be finite"),
            ({"weights": [10**400, 1]}, "weights must be two finite numbers"),
            ({"optimizer": {"penalty_weights": {"flow": 10**400}}}, "penalty weight 'flow' must be finite"),
            ({"optimizer": {"c1": 10**400}}, "c1 must be finite"),
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
            (lambda doc: doc.update(substation=5), "unknown keys ['substation']"),
            (lambda doc: doc["buses"][0].update(id=1.0), "bus 1.0: id must be an integer, got 1.0"),
            (lambda doc: doc["buses"][0].update(id=True), "bus True: id must be an integer, got True"),
            (lambda doc: doc["branches"][0].update(from_bus=1.0, to_bus=2.0), "from_bus must be an integer, got 1.0"),
            (lambda doc: doc["dgs"][0].update(bus=40.0), "DG at bus 40.0: bus must be an integer, got 40.0"),
            (lambda doc: doc["buses"][4].update(p_load=True), "bus 5: p_load must be a number, got True"),
            (lambda doc: doc["branches"][2].update(r=True), "r must be a number, got True"),
            (lambda doc: doc["dgs"][0].update(p_max=True), "p_max must be a number, got True"),
            (lambda doc: doc["dgs"][0].update(marginal_cost=-0.5), "DG at bus 40: negative marginal cost"),
            (lambda doc: doc["esss"][0].update(eff_charge=True), "eff_charge must be a number, got True"),
            (lambda doc: doc.update(v_min=True), "network: v_min must be a number, got True"),
            (lambda doc: doc["buses"][4].update(p_load=10**400), "bus 5: p_load must be finite, got a number too large"),
            (lambda doc: doc.update(v_max=10**400), "network: v_max must be finite, got a number too large"),
            (lambda doc: doc["esss"][0].update(w_min=0.0, w_initial=0.0, w_max=0.0), "ESS at bus 14: w_max must be positive"),
            (lambda doc: doc["esss"][0].update(eff_discharge=5e-324),
             "ESS at bus 14: p_discharge_max / eff_discharge must be finite"),
            (lambda doc: doc["esss"][0].update(w_min=0.0, w_initial=0.0, w_max=1e-300),
             "ESS at bus 14: w_max must be at least 1e-06 of one rated hour's energy (833.333 kWh), got 1e-300"),
            (lambda doc: doc["esss"][0].update(p_charge_max=1e308, eff_charge=1.0, w_max=1e303),
             "ESS at bus 14: w_max + 24 rated hours' energy must be finite"),
            (lambda doc: doc["branches"][0].update(at_repair=1e305),
             "the total load times the branches' total repair and restoration hours must be finite"),
        ],
    )
    def test_bad_network_exit_one(self, tmp_path, capsys, edit, message):
        doc = asdict(builtin_ieee69())
        edit(doc)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code = main(["--network", str(path), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_nonfinite_forecast_exit_one(self, tmp_path, capsys):
        for last in (float("nan"), 10**400):  # an int too large for a float is not finite
            doc = {"load_factor": [1.0] * 24, "pv_factor": [0.0] * 24, "price": [0.1] * 23 + [last]}
            forecast = tmp_path / "forecast.json"
            forecast.write_text(json.dumps(doc))
            code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                         "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
            assert code == 1
            assert "price entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sigma_load": None}, "sigma_load must be a number"),
            ({"sigma_pv": True}, "sigma_pv must be a number"),
            ({"load_factor": {}}, "load_factor must be a list of numbers"),
            ({"pv_factor": ["0"] * 24}, "pv_factor must be a list of numbers"),
            ({"price": 0.1}, "price must be a list of numbers"),
            ({"load_factor": [1.0]}, "load_factor must have 24 hourly entries"),
            ({"sigma_loads": 0.3}, "unknown keys ['sigma_loads']"),
            ({"load_factor": [1.0] * 3 + [-0.5] + [1.0] * 20}, "load_factor must be nonnegative"),
            ({"sigma_load": 10**400}, "sigma_load must be finite, got a number too large for a float"),
        ],
    )
    def test_mistyped_forecast_exit_one(self, tmp_path, capsys, change, message):
        doc = {"load_factor": [1.0] * 24, "pv_factor": [0.0] * 24, "price": [0.1] * 24, **change}
        forecast = tmp_path / "forecast.json"
        forecast.write_text(json.dumps(doc))
        code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: forecast {forecast}: {message}" in err
        assert err.count(str(forecast)) == 1

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

    def test_duplicate_scenarios_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--mode", "stoch", "--scenarios", "4,4", "--repeats", "2",
                     "--population", "4", "--iterations", "1", "--out", str(out)])
        assert code == 1
        assert "config error: scenario counts must be distinct, got 4 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_vary_scenarios_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--mode", "det", "--objective", "cost", "--repeats", "3", "--vary", "scenarios",
                     "--population", "4", "--iterations", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: vary 'scenarios' needs mode 'stochastic'")
        assert not out.exists()

    def test_directory_network_exit_one(self, tmp_path, capsys):
        code = main(["--network", str(tmp_path), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: network {tmp_path}: Is a directory\n"
        assert not (tmp_path / "o").exists()

    def test_malformed_forecast_json_named(self, tmp_path, capsys):
        forecast = tmp_path / "forecast.json"
        forecast.write_text("{load_factor: []}")
        code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config error: forecast {forecast}: invalid JSON: Expecting property name" in capsys.readouterr().err

    def test_missing_forecast_named(self, tmp_path, capsys):
        forecast = tmp_path / "missing.json"
        code = main(["--forecast", str(forecast), "--mode", "det", "--repeats", "1",
                     "--population", "4", "--iterations", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: forecast {forecast}: No such file or directory\n"

    @pytest.mark.parametrize(
        "kind, failure",
        [(kind, failure) for failure in _DOCUMENT_FAILURES for kind in _DOCUMENT_FLAGS
         # the two tests below hold these rows
         if failure not in ("not-utf8", "overlong") and (failure != "nested-unknown-key" or kind in _NESTED)],
    )
    def test_document_failure_exit_one(self, tmp_path, capsys, kind, failure):
        _document_failure(tmp_path, capsys, kind, failure)

    @pytest.mark.parametrize("kind", ["network", "forecast", "config"], ids=["network-json", "forecast", "config"])
    def test_not_utf8_exit_one(self, tmp_path, capsys, kind):
        assert "can't decode byte 0xff in position 0" in _document_failure(tmp_path, capsys, kind, "not-utf8")

    @pytest.mark.parametrize("kind", ["config", "network", "forecast"])
    def test_overlong_integer_literal_exit_one(self, tmp_path, capsys, kind):
        # json refuses an integer literal over 4,300 digits with a plain ValueError
        assert "4300 digits" in _document_failure(tmp_path, capsys, kind, "overlong")

    def test_fixed_output_dg(self, tmp_path):
        # p_min == p_max is a valid DG: it runs at that output every hour
        doc = asdict(builtin_ieee69())
        doc["dgs"][0].update(p_min=200.0, p_max=200.0)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["--network", str(path), "--mode", "det", "--objective", "cost", "--repeats", "2",
                     "--population", "4", "--iterations", "2", "--out", str(out)])
        assert code == 0
        header, *rows = (out / "schedules_cost.csv").read_text().splitlines()
        column = header.split(",").index("dg_1_kw")
        assert [row.split(",")[column] for row in rows] == ["200.0"] * 24

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


class TestFlags:
    """Each flag sets its StudyConfig field over a --config file and leaves
    every other field as the file has it."""

    FILE = {"mode": "stochastic", "objective": "ens", "scenario_counts": [5], "repeats": 3, "seed": 2,
            "out_dir": "file_out", "network": "file_net.json", "weights": [0.3, 0.7],
            "forecast": "file_forecast.json", "vary": "optimizer",
            "optimizer": {"population": 8, "iterations": 3, "archive_capacity": 7}}
    FILE_OPT = HybridConfig(population=8, iterations=3, archive_capacity=7)

    CASES = [
        ("--mode", "det", "mode", "deterministic"),
        ("--objective", "cost", "objective", "cost"),
        ("--scenarios", "30,60", "scenario_counts", (30, 60)),
        ("--repeats", "4", "repeats", 4),
        ("--seed", "9", "seed", 9),
        ("--out", "flag_out", "out_dir", "flag_out"),
        ("--network", "flag_net.json", "network", "flag_net.json"),
        ("--weights", "1,2", "weights", (1.0, 2.0)),
        ("--forecast", "flag_forecast.json", "forecast", "flag_forecast.json"),
        ("--population", "6", "optimizer", replace(FILE_OPT, population=6)),
        ("--iterations", "2", "optimizer", replace(FILE_OPT, iterations=2)),
        ("--vary", "both", "vary", "both"),
    ]

    @pytest.mark.parametrize("flag, value, field, expected", CASES, ids=[case[0] for case in CASES])
    def test_flag_sets_its_field(self, tmp_path, flag, value, field, expected):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.FILE))
        base = StudyConfig.from_json(cfg_path)
        assert getattr(base, field) != expected
        cfg = _config_from_args(build_parser().parse_args(["--config", str(cfg_path), flag, value]))
        assert cfg == replace(base, **{field: expected})

    def test_help_names_renamed_flags(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--scenarios SCENARIOS" in out and "--out OUT" in out

    def test_device_free_feeder(self, tmp_path, capsys):
        # nothing to optimize: the decision vector has no entries
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "buses": [{"id": 1}, {"id": 2, "p_load": 100.0, "q_load": 50.0}, {"id": 3, "p_load": 40.0, "q_load": 10.0}],
            "branches": [{"from_bus": 1, "to_bus": 2, "r": 0.1, "x": 0.1, "s_max": 5000.0},
                         {"from_bus": 2, "to_bus": 3, "r": 0.2, "x": 0.1, "s_max": 5000.0}],
        }))
        out = tmp_path / "o"
        code = main(["--network", str(net), "--mode", "det", "--objective", "cost", "--repeats", "1",
                     "--population", "2", "--iterations", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        header, *rows = (out / "schedules_cost.csv").read_text().splitlines()
        assert header == "hour,p_slack_kw" and len(rows) == 24
