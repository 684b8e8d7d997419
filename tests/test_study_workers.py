"""A study's optimizations run in worker processes; its report and artifacts
must not depend on how many workers ran them, nor on how they were started."""

import ctypes
import json
import os
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from dnems import study
from dnems.cli import main
from dnems.network import builtin_ieee69
from dnems.objectives import ScheduleEvaluator
from dnems.optimizer import HybridConfig
from dnems.study import StudyConfig, emit_artifacts, run_study


def workers(monkeypatch, n):
    monkeypatch.setattr(study, "_worker_count", lambda n_tasks: min(n, n_tasks))


def artifacts(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def study_artifacts(cfg, out):
    report = run_study(cfg)
    emit_artifacts(report, out)
    return report, artifacts(out)


DET_MULTI = StudyConfig(
    mode="deterministic", objective="multi", repeats=2, seed=7, optimizer=HybridConfig(population=8, iterations=3)
)
STOCH_COST = StudyConfig(
    mode="stochastic",
    objective="cost",
    scenario_counts=(4, 8),
    repeats=2,
    seed=1,
    optimizer=HybridConfig(population=4, iterations=2),
)
# every mode's EV rows, the bare run, and repeats that share their optimizer seed
STOCH_MULTI_VARY = replace(STOCH_COST, objective="multi", repeats=3, vary="scenarios")


class LockedFailure(RuntimeError):
    """A failure that does not pickle."""

    def __init__(self):
        super().__init__("bare feeder failed")
        self.lock = threading.Lock()


def fail_on_wide_sets(monkeypatch):
    """Every evaluation on a set of more than four scenarios raises."""
    evaluate = ScheduleEvaluator.evaluate

    def failing(self, x, sset):
        if len(sset) > 4:
            raise KeyError("flow")
        return evaluate(self, x, sset)

    monkeypatch.setattr(ScheduleEvaluator, "evaluate", failing)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


class TestWorkerCount:
    def test_tasks_run_in_worker_processes(self, monkeypatch):
        workers(monkeypatch, 2)
        monkeypatch.setattr(study._TaskRunner, "__call__", lambda self, task: (os.getpid(), task))
        runner = study._TaskRunner(builtin_ieee69(), StudyConfig(), None)
        results = study._run_tasks(runner, list(range(6)))
        assert [task for _, task in results] == list(range(6))
        assert os.getpid() not in {pid for pid, _ in results}

    @pytest.mark.parametrize("n", [1, 2])
    def test_workers_use_one_blas_thread(self, n, monkeypatch):
        if not os.path.exists("/proc/self/maps") or blas_threads() is None:
            pytest.skip("numpy does not use an OpenBLAS here")
        workers(monkeypatch, n)
        monkeypatch.setattr(study._TaskRunner, "__call__", lambda self, task: blas_threads())
        runner = study._TaskRunner(builtin_ieee69(), StudyConfig(), None)
        assert study._run_tasks(runner, [0, 1]) == [1, 1]

    def test_one_worker_runs_in_a_child(self, monkeypatch):
        if study._START_METHOD is None:
            pytest.skip("tasks run in-process here")
        workers(monkeypatch, 1)
        monkeypatch.setattr(study._TaskRunner, "__call__", lambda self, task: (os.getpid(), task))
        results = study._run_tasks(study._TaskRunner(None, None, None), [0, 1])
        assert [task for _, task in results] == [0, 1]
        assert len({pid for pid, _ in results}) == 1
        assert results[0][0] != os.getpid()

    def test_no_start_method_runs_in_process(self, monkeypatch):
        # off Linux there is no start method, and every task runs in the
        # study process whatever the worker count
        monkeypatch.setattr(study, "_START_METHOD", None)
        workers(monkeypatch, 2)
        monkeypatch.setattr(study._TaskRunner, "__call__", lambda self, task: (os.getpid(), task))
        results = study._run_tasks(study._TaskRunner(None, None, None), [0, 1])
        assert results == [(os.getpid(), 0), (os.getpid(), 1)]

    def test_study_process_builds_no_evaluator(self, monkeypatch):
        # the tasks evaluate their own schedules, so with workers the study
        # process only plans and folds
        if study._START_METHOD is None:
            pytest.skip("tasks run in-process here")
        built = []

        def counting(*args, **kwargs):
            built.append(os.getpid())
            return ScheduleEvaluator(*args, **kwargs)

        monkeypatch.setattr(study, "ScheduleEvaluator", counting)
        workers(monkeypatch, 2)
        report = run_study(DET_MULTI)
        assert len(report.runs) == 6 and report.profit is not None
        assert built == []

    @pytest.mark.parametrize("cfg", [STOCH_COST, DET_MULTI], ids=["stoch", "det"])
    def test_tasks_draw_their_own_sets(self, cfg, monkeypatch, tmp_path):
        # the study process plans without drawing; a stochastic task draws
        # its set where it runs, and a deterministic study draws none
        if study._START_METHOD is None:
            pytest.skip("tasks run in-process here")
        log = tmp_path / "draws"
        log.touch()
        make_scenarios = study._make_scenarios

        def recording(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return make_scenarios(*args)

        monkeypatch.setattr(study, "_make_scenarios", recording)
        workers(monkeypatch, 2)
        report = run_study(cfg)
        assert report.runs and not report.errors
        pids = [int(line) for line in log.read_text().split()]
        assert os.getpid() not in pids
        assert len(pids) == (len(report.runs) if cfg.mode == "stochastic" else 0)

    def test_never_more_workers_than_tasks(self):
        assert study._worker_count(1) == 1
        assert 1 <= study._worker_count(1000) <= os.cpu_count()


# In a fresh process, the number of blocks that glibc maps with mmap to hold
# a 4 MB array, then a 16 MB one after the worker set-up's malloc tuning.
# Freeing the first raises glibc's own threshold to 4 MB, not to 16.
MAPPED_BLOCKS = """
import ctypes, numpy as np
from dnems.study import _reuse_freed_arrays
class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Info
def mapped_by_allocation(n_bytes):
    before = mallinfo2().hblks
    block = np.ones(n_bytes // 8)
    return mallinfo2().hblks - before
first = mapped_by_allocation(4 << 20)
_reuse_freed_arrays()
print(first, mapped_by_allocation(16 << 20))
"""


def test_worker_heap_serves_large_arrays():
    # a worker serves blocks of up to 32 MB from the heap, whatever its
    # parent freed before the fork
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("no glibc mallinfo2 here")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", MAPPED_BLOCKS], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0"]


def test_cli_leaves_its_own_malloc_alone(monkeypatch, tmp_path):
    # only the workers tune malloc, even when the CLI's study has one worker
    if study._START_METHOD is None:
        pytest.skip("tasks run in-process here")
    log = tmp_path / "malloc"
    log.touch()
    reuse_freed_arrays = study._reuse_freed_arrays

    def recording():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        reuse_freed_arrays()

    monkeypatch.setattr(study, "_reuse_freed_arrays", recording)
    workers(monkeypatch, 1)
    code = main(["--mode", "det", "--objective", "ens", "--repeats", "1", "--population", "4",
                 "--iterations", "1", "--out", str(tmp_path / "out")])
    assert code == 0
    pids = [int(line) for line in log.read_text().split()]
    assert pids and os.getpid() not in pids


class TestNoStartMethod:
    """Off Linux there is no start method, and the tasks run in the study
    process: that path must write the same bytes as the workers."""

    @pytest.mark.parametrize("cfg", [DET_MULTI, STOCH_MULTI_VARY], ids=["det-multi", "stoch-multi-vary"])
    def test_in_process_matches_workers(self, cfg, monkeypatch, tmp_path):
        if study._START_METHOD is None:
            pytest.skip("no worker processes here")
        workers(monkeypatch, 2)
        _, files_workers = study_artifacts(cfg, tmp_path / "workers")
        monkeypatch.setattr(study, "_START_METHOD", None)
        monkeypatch.setattr(study, "_run_in_worker", None)  # nothing may reach a worker
        report, files_in_process = study_artifacts(cfg, tmp_path / "in_process")
        assert files_in_process == files_workers
        assert report.errors == []


class TestDecisionBox:
    @pytest.mark.parametrize("n", [1, 2])
    def test_search_stays_in_an_asymmetric_box(self, n, monkeypatch, tmp_path):
        # the evaluator rejects a position outside decision_bounds, so a
        # study with no failed repeat handed it none, on either side of a
        # storage unit that charges at most 500 kW and discharges 750 kW
        net = builtin_ieee69()
        net = replace(net, esss=(replace(net.esss[0], p_charge_max=500.0), *net.esss[1:]))
        path = tmp_path / "net.json"
        path.write_text(json.dumps(asdict(net)))
        cfg = replace(DET_MULTI, network=str(path), optimizer=HybridConfig(population=10, iterations=6))
        workers(monkeypatch, n)
        report = run_study(cfg)
        assert report.errors == [] and report.runs


class TestByteIdentity:
    @pytest.mark.parametrize(
        "cfg", [DET_MULTI, STOCH_COST, STOCH_MULTI_VARY], ids=["det-multi", "stoch-cost", "stoch-multi-vary"]
    )
    def test_two_workers_match_one(self, cfg, monkeypatch, tmp_path):
        workers(monkeypatch, 1)
        one, files_one = study_artifacts(cfg, tmp_path / "one")
        workers(monkeypatch, 2)
        two, files_two = study_artifacts(cfg, tmp_path / "two")
        assert "manifest.json" in files_one and "pareto_front.csv" in files_one
        assert files_two == files_one
        assert two.runs == one.runs and two.errors == one.errors == []
        assert two.stats_rows == one.stats_rows

    def test_failed_repeats_match(self, monkeypatch, tmp_path, capsys):
        fail_on_wide_sets(monkeypatch)
        argv = ["--mode", "stoch", "--objective", "multi", "--scenarios", "4,8", "--repeats", "2",
                "--seed", "1", "--population", "4", "--iterations", "2"]
        outcomes = []
        for n in (1, 2):
            workers(monkeypatch, n)
            out = tmp_path / "out"  # the manifest names it
            report = run_study(replace(STOCH_COST, objective="multi"))
            code = main(argv + ["--out", str(out)])
            err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("done in")]
            outcomes.append((report.runs, report.errors, code, err, artifacts(out)))
        assert outcomes[1] == outcomes[0]
        runs, errors, code, _, _ = outcomes[0]
        assert code == 0
        assert [(r.setting, r.objective_mode, r.repeat) for r in runs] == [
            ("s4", mode, rep) for rep in (0, 1) for mode in ("cost", "ens", "multi")
        ]
        assert [e.split(":")[0] for e in errors] == [
            f"s8/{mode}/repeat{rep}" for rep in (0, 1) for mode in ("cost", "ens", "multi")
        ]
        assert all("KeyError: 'flow'" in e for e in errors)

    def test_no_successful_repeat_exit_code_matches(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ScheduleEvaluator, "evaluate", lambda self, x, sset: {}["flow"])
        outcomes = []
        for n in (1, 2):
            workers(monkeypatch, n)
            out = tmp_path / "out"  # the manifest names it
            code = main(["--mode", "det", "--objective", "cost", "--repeats", "2",
                         "--population", "4", "--iterations", "1", "--out", str(out)])
            outcomes.append((code, capsys.readouterr().err, artifacts(out)))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][0] == 2

    @pytest.mark.parametrize("start", [study._START_METHOD, None], ids=["workers", "in-process"])
    def test_failed_breakdown_is_a_failed_repeat(self, start, monkeypatch, tmp_path, capsys):
        # a failure after the search, while the task breaks its schedule
        # down, is worded like any other and fails that repeat only
        def failing(self, x, sset):
            raise ValueError("breakdown failed")

        monkeypatch.setattr(ScheduleEvaluator, "breakdown", failing)
        monkeypatch.setattr(study, "_START_METHOD", start)
        workers(monkeypatch, 2)
        argv = ["--mode", "det", "--objective", "ens", "--repeats", "2", "--population", "2", "--iterations", "1"]
        report = run_study(StudyConfig(mode="deterministic", objective="ens", repeats=2,
                                       optimizer=HybridConfig(population=2, iterations=1)))
        assert report.runs == []
        assert report.errors == [f"det/ens/repeat{rep}: ValueError: breakdown failed" for rep in (0, 1)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "runtime failure: no repeat succeeded" in capsys.readouterr().err
        manifest = json.loads(artifacts(tmp_path / "out")["manifest.json"])
        assert manifest["summary"]["errors"] == report.errors

    def test_failed_baseline_raises_the_same(self, monkeypatch):
        evaluate = ScheduleEvaluator.evaluate

        def bare_fails(self, x, sset):
            if not self.net.esss:
                raise KeyError("flow")
            return evaluate(self, x, sset)

        monkeypatch.setattr(ScheduleEvaluator, "evaluate", bare_fails)
        raised = []
        for n in (1, 2):
            workers(monkeypatch, n)
            with pytest.raises(Exception) as err:
                run_study(DET_MULTI)
            raised.append((type(err.value), str(err.value)))
        assert raised[1] == raised[0]
        assert raised[0][0] is RuntimeError
        assert raised[0][1] == "KeyError: 'flow'"

    def test_unpicklable_baseline_failure_keeps_its_message(self, monkeypatch):
        # a failure that holds a lock cannot cross the worker boundary as an
        # exception; its text can
        run = study.hybrid_run

        def bare_fails(cfg, space, evaluate):
            if space.dimension == 96:  # four DGs over 24 hours, no storage
                raise LockedFailure()
            return run(cfg, space, evaluate)

        monkeypatch.setattr(study, "hybrid_run", bare_fails)
        for n in (1, 2):
            workers(monkeypatch, n)
            with pytest.raises(RuntimeError) as err:
                run_study(DET_MULTI)
            assert type(err.value) is RuntimeError and str(err.value) == "LockedFailure: bare feeder failed"

    def test_spawned_workers_match_in_process(self, monkeypatch, tmp_path):
        cfg = StudyConfig(
            mode="deterministic", objective="multi", repeats=1, seed=3, optimizer=HybridConfig(population=4, iterations=2)
        )
        workers(monkeypatch, 1)
        _, files_one = study_artifacts(cfg, tmp_path / "one")
        workers(monkeypatch, 2)
        monkeypatch.setattr(study, "_START_METHOD", "spawn")
        _, files_spawn = study_artifacts(cfg, tmp_path / "spawn")
        assert files_spawn == files_one
