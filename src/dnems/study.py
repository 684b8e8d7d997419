"""Batch study driver: deterministic and stochastic energy-management runs,
repeat statistics over scenario-set sizes, and all result artifacts.

A study optimizes the built-in (or user) network under a forecast profile.
``cost`` and ``ens`` objectives run single-criterion searches; ``multi`` runs
both plus a two-objective search whose archive yields the best-compromise
schedule.  Every output file is a deterministic function of (config, seed).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ._documents import number_problem, object_fields, python_numbers, read_document
from .network import Network, builtin_ieee69, load_network
from .objectives import (
    DEFAULT_C_NPV,
    DEFAULT_INVESTMENT,
    DecisionVector,
    EvaluationBreakdown,
    ObjectiveVector,
    ProfitReport,
    ScenarioOutcomes,
    ScheduleEvaluator,
    merge_penalty_weights,
    profit_analysis,
)
from .optimizer import HybridConfig, SearchSpace, hybrid_run
from .pareto import ParetoArchive, _check_weights, _scores, best_compromise
from .scenarios import (
    ForecastProfile,
    RunStatistics,
    ScenarioSet,
    default_forecast,
    deterministic_set,
    generate,
    load_forecast,
    reduce as reduce_scenarios,
)

__all__ = ["StudyConfig", "StudyReport", "ConfigError", "run_study", "emit_artifacts"]

_MODE_WEIGHTS = {"cost": (1.0, 0.0), "ens": (0.0, 1.0)}

# the values StudyConfig.mode, .objective and .vary take
_MODES = ("deterministic", "stochastic")
_OBJECTIVES = ("cost", "ens", "multi")
_VARY = ("both", "scenarios", "optimizer")


def _is_str(value) -> bool:
    return isinstance(value, str)


# config field -> (type check, what the field takes); python_numbers checks the int and float fields
_FIELD_TYPES = {
    **dict.fromkeys(("network", "mode", "objective", "out_dir", "vary"), (_is_str, "a string")),
    "forecast": (lambda v: v is None or _is_str(v), "a path string or null"),
    "export_credit": (lambda v: isinstance(v, bool), "true or false"),
    "optimizer": (lambda v: isinstance(v, HybridConfig), "an object of optimizer settings"),
    "scenario_counts": (
        lambda v: isinstance(v, (list, tuple)) and not any(number_problem(c, integer=True) for c in v),
        "a list of integers",
    ),
}


class ConfigError(ValueError):
    """Invalid study configuration."""


# optimizer settings that a study sets for each run -> the top-level key they come from
_PER_RUN = {"seed": "seed", "objective_weights": "weights"}


def _per_run_error(key: str) -> ConfigError:
    return ConfigError(f"optimizer.{key} has no effect in a study; set the top-level {_PER_RUN[key]!r}")


@dataclass(frozen=True)
class StudyConfig:
    network: str = "builtin"  # "builtin" or a path accepted by load_network
    forecast: str | None = None  # path, or None for the packaged default
    mode: str = "deterministic"  # one of _MODES
    objective: str = "multi"  # one of _OBJECTIVES
    scenario_counts: tuple[int, ...] = (30, 60, 90, 120)
    repeats: int = 20
    weights: tuple[float, float] = (0.5, 0.5)
    optimizer: HybridConfig = field(default_factory=HybridConfig)
    out_dir: str = "out"
    seed: int = 0
    oversample: int = 2  # raw draws per kept scenario before reduction
    levels: int = 7
    vary: str = "both"  # one of _VARY
    profit_years: int = 20
    investment: float = DEFAULT_INVESTMENT
    c_npv: float = DEFAULT_C_NPV
    export_credit: bool = True

    def __post_init__(self):
        # numpy and other numbers are kept as Python ones, which the manifest's JSON takes
        try:
            python_numbers(self)
            _check_weights(self.weights)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, (ok, kind) in _FIELD_TYPES.items():
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        object.__setattr__(self, "scenario_counts", tuple(map(int, self.scenario_counts)))
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        for name in ("network", "forecast", "out_dir"):  # an empty path would name the working directory
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be {'|'.join(_MODES)}, got {self.mode!r}")
        if self.objective not in _OBJECTIVES:
            raise ConfigError(f"objective must be {'|'.join(_OBJECTIVES)}, got {self.objective!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.scenario_counts or min(self.scenario_counts) < 1:
            raise ConfigError("scenario counts must all be >= 1")
        repeated = next((c for c in self.scenario_counts if self.scenario_counts.count(c) > 1), None)
        if repeated is not None:
            raise ConfigError(f"scenario counts must be distinct, got {repeated} more than once")
        if self.levels < 3 or self.levels % 2 == 0:
            raise ConfigError(f"levels must be odd and >= 3, got {self.levels}")
        if self.oversample < 1:
            raise ConfigError(f"oversample must be >= 1, got {self.oversample}")
        if self.vary not in _VARY:
            raise ConfigError(f"vary must be {'|'.join(_VARY)}, got {self.vary!r}")
        if self.mode == "deterministic" and self.vary == "scenarios":
            raise ConfigError(
                "vary 'scenarios' needs mode 'stochastic': a deterministic study has one scenario, "
                "so its repeats would all be the same run"
            )
        if self.profit_years < 1:
            raise ConfigError(f"profit_years must be >= 1, got {self.profit_years}")
        if self.investment < 0:
            raise ConfigError(f"investment must be >= 0, got {self.investment}")
        if self.c_npv <= 0:
            raise ConfigError(f"c_npv must be > 0, got {self.c_npv}")
        for key in _PER_RUN:
            if getattr(self.optimizer, key) != getattr(HybridConfig, key):
                raise _per_run_error(key)
        try:
            merge_penalty_weights(self.optimizer.penalty_weights)
        except ValueError as exc:
            raise ConfigError(f"optimizer penalty weights: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        return read_document(path, "config", cls.from_dict, ConfigError)

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        try:
            opt = object_fields(HybridConfig, object_fields(cls, doc).get("optimizer", {}), "optimizer")
            for key in _PER_RUN:
                if key in opt:
                    raise _per_run_error(key)
            return cls(**{**doc, "optimizer": HybridConfig(**opt)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class RunRecord:
    setting: str
    objective_mode: str
    repeat: int
    f1: float
    f2: float
    penalty: float


@dataclass
class StudyReport:
    config: dict
    runs: list[RunRecord]
    stats_rows: list[dict]  # setting x mode x metric summary rows
    # mode -> its best run's {"f1", "f2", "penalty", "x": DecisionVector, "outcomes": ScenarioOutcomes on the
    # run's scenario set, "breakdown": EvaluationBreakdown under the forecast}
    best: dict
    archive: ParetoArchive | None
    bcs: dict | None  # multi-mode cross-run summary
    profit: ProfitReport | None
    errors: list[str]
    timings: dict  # wall-clock seconds: "total_s", and "profit_s" (the bare run's own) with a profit; not artifacts


def _sub_seed(master: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(master), *[int(k) for k in keys]]).generate_state(1)[0])


def _load_inputs(cfg: StudyConfig) -> tuple[Network, ForecastProfile]:
    try:
        net = builtin_ieee69() if cfg.network == "builtin" else load_network(cfg.network)
        forecast = default_forecast() if cfg.forecast is None else load_forecast(cfg.forecast)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return net, forecast


def _make_scenarios(cfg: StudyConfig, forecast: ForecastProfile, count: int, seed: int) -> ScenarioSet:
    raw = generate(forecast, n=count * cfg.oversample, seed=seed, levels=cfg.levels)
    return reduce_scenarios(raw, min(count, len(raw)))


def _rank(mode: str, f: ObjectiveVector) -> tuple[float, float, float]:
    """Sort key of a mode's schedules, lowest first: the penalty, the mode's
    own metric (ENS for ``ens``, cost otherwise), then the other metric."""
    own, other = (f.f2, f.f1) if mode == "ens" else (f.f1, f.f2)
    return f.penalty, own, other


def _select(archive: ParetoArchive, mode: str, weights) -> tuple[np.ndarray, ObjectiveVector]:
    if mode == "multi":
        entry = best_compromise(archive, weights)
    else:
        entry = min(archive.entries, key=lambda e: _rank(mode, e.f))
    return entry.x, entry.f


@dataclass(frozen=True)
class _Task:
    """One independent optimization of a study: ``mode`` from the optimizer
    seed ``seed``, on the reduced set of ``count`` scenarios drawn from the
    sub-seed ``scenario_seed``, or with no such seed on the forecast's
    one-scenario set.  The task's runner draws the set.  A ``bare`` task is
    the cost run on the feeder stripped of PV and storage, which the profit
    projection needs."""

    label: str
    rep: int
    mode: str
    seed: int
    count: int = 1
    scenario_seed: int | None = None
    bare: bool = False


@dataclass(frozen=True)
class _Found:
    """What a successful task sends back: the selected schedule and its
    objectives, its outcomes under each scenario of the set it was optimized
    on and its hourly breakdown under the forecast, the archive of a
    ``multi`` run, and the task's wall time."""

    x: DecisionVector
    f: ObjectiveVector
    outcomes: ScenarioOutcomes
    breakdown: EvaluationBreakdown
    archive: ParetoArchive | None
    seconds: float


@dataclass(frozen=True)
class _TaskRunner:
    """Runs a study's tasks against its network and forecast: draws each
    task's scenario set, optimizes on it, and breaks the schedule down under
    the forecast's one-scenario set."""

    net: Network
    cfg: StudyConfig
    forecast: ForecastProfile
    _evaluators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def forecast_set(self) -> ScenarioSet:
        return deterministic_set(self.forecast)

    def scenarios(self, task: _Task) -> ScenarioSet:
        """The task's scenario set, drawn afresh for a stochastic task."""
        if task.scenario_seed is None:
            return self.forecast_set
        return _make_scenarios(self.cfg, self.forecast, task.count, task.scenario_seed)

    def evaluator(self, bare: bool) -> ScheduleEvaluator:
        """The feeder's evaluator, or the bare feeder's, built once per process."""
        if bare not in self._evaluators:
            net = replace(self.net, pvs=(), esss=()) if bare else self.net
            self._evaluators[bare] = ScheduleEvaluator(net, self.cfg.optimizer.penalty_weights, self.cfg.export_credit)
        return self._evaluators[bare]

    def __call__(self, task: _Task) -> _Found | str:
        """The task's result, or the text of whatever failure ended it,
        ``"<Type>: <message>"``, which always pickles."""
        t0 = time.perf_counter()
        try:
            sset = self.scenarios(task)
            evaluator = self.evaluator(task.bare)
            run_weights = tuple(_MODE_WEIGHTS.get(task.mode, self.cfg.weights))
            opt_cfg = replace(self.cfg.optimizer, seed=task.seed, objective_weights=run_weights)
            space = SearchSpace(evaluator.lower, evaluator.upper)
            archive, _log = hybrid_run(opt_cfg, space, lambda positions: evaluator.evaluate(positions, sset))
            x, f = _select(archive, task.mode, self.cfg.weights)
            x = DecisionVector.from_flat(x, len(evaluator.net.dgs), len(evaluator.net.esss))
            outcomes = evaluator.per_scenario(x, sset)
            breakdown = evaluator.breakdown(x, self.forecast_set)
        except Exception as exc:  # noqa: BLE001 - folded into the report by the study
            return f"{type(exc).__name__}: {exc}"
        kept = archive if task.mode == "multi" else None
        return _Found(x, f, outcomes, breakdown, kept, time.perf_counter() - t0)


# Start method of the worker processes.  None, off Linux, runs every task in
# the study process instead.
_START_METHOD = "fork" if sys.platform.startswith("linux") else None

_worker_runner: _TaskRunner | None = None  # set in each worker process


def _init_worker(runner: _TaskRunner) -> None:
    global _worker_runner
    _one_blas_thread()
    _reuse_freed_arrays()
    _worker_runner = runner


def _run_in_worker(task: _Task):
    return _worker_runner(task)


# thread-count setters of the OpenBLAS builds that numpy ships or links
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Run this process's OpenBLAS, if numpy loaded one, on one thread.

    The workers already occupy every CPU.  A forked worker keeps the
    parent's BLAS thread count, and BLAS threads on top of the workers
    contend for the same cores: on a 2-core host acceptance criterion 8
    took 362 s with two threads per worker against 70 s with one.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


# glibc's mallopt parameters, and the ceiling of its own dynamic mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def _reuse_freed_arrays() -> None:
    """Serve this process's allocations of up to 32 MB from glibc's heap.

    glibc maps every block above its mmap threshold afresh and unmaps it on
    free, so each such power-flow temporary faults its pages in again on
    every call.  The threshold starts at 128 kB and rises only once the
    process frees a larger mapped block, so a forked worker's speed would
    hang on what its parent happened to free before the fork.  Setting it
    fixes the threshold, and the heap's trim threshold beside it (glibc
    keeps the two at a 1:2 ratio).

    Only the workers call it; the study process, and so the caller of
    ``run_study`` or the ``dnems`` command, keeps its malloc as it is.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:  # not glibc
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _worker_count(n_tasks: int) -> int:
    """One worker process per CPU this process may run on, at most one per task."""
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _run_tasks(runner: _TaskRunner, tasks: list[_Task]) -> list:
    """Results of ``tasks`` in task order, from worker processes, even from
    one, or from ``runner`` in-process where there is no start method."""
    if _START_METHOD is None:
        return list(map(runner, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=_worker_count(len(tasks)),
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_init_worker,
        initargs=(runner,),
    ) as pool:
        return list(pool.map(_run_in_worker, tasks))


def _modes(cfg: StudyConfig) -> list[str]:
    return [cfg.objective] if cfg.objective != "multi" else list(_OBJECTIVES)


def _settings(cfg: StudyConfig) -> list[tuple[str, int]]:
    """(label, scenario count) of each setting; a deterministic study has one."""
    if cfg.mode == "deterministic":
        return [("det", 1)]
    return [(f"s{c}", c) for c in cfg.scenario_counts]


def _plan(cfg: StudyConfig) -> list[_Task]:
    """The study's tasks, in the order the report lists them: one per
    (setting, repeat, mode), and the bare-feeder cost run last when a profit
    is to be projected.  Planning draws no scenarios; each task carries the
    sub-seed of its set."""
    modes = _modes(cfg)
    tasks: list[_Task] = []
    for s_idx, (label, count) in enumerate(_settings(cfg)):
        for rep in range(cfg.repeats):
            scen_rep = rep if cfg.vary in ("both", "scenarios") else 0
            opt_rep = rep if cfg.vary in ("both", "optimizer") else 0
            scenario_seed = None if cfg.mode == "deterministic" else _sub_seed(cfg.seed, 1, s_idx, scen_rep)
            for m_idx, mode in enumerate(modes):
                seed = _sub_seed(cfg.seed, 2, s_idx, opt_rep, m_idx)
                tasks.append(_Task(label, rep, mode, seed, count, scenario_seed))
    if "cost" in modes:
        tasks.append(_Task("bare", 0, "cost", _sub_seed(cfg.seed, 3), bare=True))
    return tasks


# the columns of stats.csv, and the keys of each StudyReport.stats_rows row
_STATS_COLUMNS = ("setting", "n_scenarios", "objective_mode", "metric", "n", "mean", "sd", "ci95", "ev", "re")


def _fold(cfg: StudyConfig, tasks: list[_Task], results: list) -> StudyReport:
    """The study's report from its tasks and their results, in task order:
    one walk files each success under its (setting, mode) group, and the
    statistics, best runs, bcs, front and profit are read from the groups."""
    runs: list[RunRecord] = []
    errors: list[str] = []
    groups: dict[tuple[str, str], list[_Found]] = {}  # in the order of each group's first success
    bare = None
    for task, out in zip(tasks, results):
        if task.bare:
            bare = out
        elif isinstance(out, str):
            errors.append(f"{task.label}/{task.mode}/repeat{task.rep}: {out}")
        else:
            runs.append(RunRecord(task.label, task.mode, task.rep, out.f.f1, out.f.f2, out.f.penalty))
            groups.setdefault((task.label, task.mode), []).append(out)

    stats_rows: list[dict] = []
    for label, count in _settings(cfg):
        for mode in _modes(cfg):
            found = groups.get((label, mode), [])
            if len(found) < 2:
                continue
            ev = min(found, key=lambda out: _rank(mode, out.f)).f
            for metric, attr in (("cost", "f1"), ("ens", "f2")):
                st = RunStatistics.from_samples([getattr(out.f, attr) for out in found], ev=getattr(ev, attr))
                values = (label, count, mode, metric, st.n, st.mean, st.sd, st.ci95_halfwidth, st.ev, st.re)
                stats_rows.append(dict(zip(_STATS_COLUMNS, values)))

    by_mode: dict[str, list[_Found]] = {}  # each mode's successes in task order: settings are the outer loop
    for (_, mode), found in groups.items():
        by_mode.setdefault(mode, []).extend(found)
    # the first of equals of each mode is its best run
    best_runs = {mode: min(found, key=lambda out: _rank(mode, out.f)) for mode, found in by_mode.items()}
    best = {
        mode: {"f1": out.f.f1, "f2": out.f.f2, "penalty": out.f.penalty, "x": out.x, "outcomes": out.outcomes,
               "breakdown": out.breakdown}
        for mode, out in best_runs.items()
    }

    bcs = None
    if cfg.objective == "multi" and all(m in best_runs for m in _OBJECTIVES):
        bcs = {
            key: {"f1": best_runs[mode].f.f1, "f2": best_runs[mode].f.f2}
            for key, mode in (("cost_run", "cost"), ("ens_run", "ens"), ("bcs", "multi"))
        }

    profit = None
    timings: dict = {}
    if "cost" in best_runs:
        # the cost of the retrofitted system under the forecast against the
        # bare feeder's, projected over the horizon
        if isinstance(bare, str):
            raise RuntimeError(bare)
        profit = profit_analysis(
            toc_old=bare.breakdown.cost_s,
            toc_new=best_runs["cost"].breakdown.cost_s,
            investment=cfg.investment,
            years=cfg.profit_years,
            c_npv=cfg.c_npv,
        )
        timings["profit_s"] = bare.seconds  # the bare task's own wall time

    config = asdict(cfg)
    for key in _PER_RUN:  # each run sets its own from the top-level keys
        del config["optimizer"][key]
    return StudyReport(
        config=config,
        runs=runs,
        stats_rows=stats_rows,
        best=best,
        archive=best_runs["multi"].archive if "multi" in best_runs else None,
        bcs=bcs,
        profit=profit,
        errors=errors,
        timings=timings,
    )


def run_study(cfg: StudyConfig) -> StudyReport:
    """Execute the configured study and return its full report.

    Stochastic mode sweeps every scenario-count setting with ``repeats``
    independent runs (fresh scenario and optimizer sub-seeds per repeat);
    deterministic mode optimizes the zero-deviation singleton scenario.

    The study is planned here; the tasks, which depend only on their seeds,
    then draw their scenario sets and run in worker processes (see
    ``_run_tasks``), and their results are folded back in task order, so the
    report does not depend on how many workers ran them.
    """
    t0 = time.perf_counter()
    net, forecast = _load_inputs(cfg)
    tasks = _plan(cfg)
    report = _fold(cfg, tasks, _run_tasks(_TaskRunner(net, cfg, forecast), tasks))
    report.timings["total_s"] = time.perf_counter() - t0
    return report


# -- artifact emission --------------------------------------------------------


def _fd_histogram(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freedman-Diaconis bin edges and probability-weighted densities."""
    values = np.asarray(values, dtype=float)
    if values.size == 1 or np.ptp(values) == 0:
        center = float(values[0])
        width = max(abs(center) * 1e-6, 1e-9)
        edges = np.array([center - width / 2, center + width / 2])
    else:
        q75, q25 = np.percentile(values, [75, 25])
        iqr = q75 - q25
        h = 2 * iqr / values.size ** (1 / 3)
        if h <= 0:
            h = np.ptp(values) / max(1, int(np.sqrt(values.size)))
        nbins = max(1, int(np.ceil(np.ptp(values) / h)))
        edges = np.linspace(values.min(), values.max(), nbins + 1)
    density, edges = np.histogram(values, bins=edges, weights=weights, density=True)
    return edges, density


def _csv(header, rows: list[list]) -> str:
    def fmt(x):
        if isinstance(x, float):
            return repr(x)  # shortest round-trip representation
        return str(x)

    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _front_csv(front: ParetoArchive | None, weights) -> str:
    """CSV text of each front entry's objectives, memberships and normalized
    score ``y = score / sum of scores`` under ``weights`` (``pareto._scores``)."""
    rows = []
    if front is not None:
        psi, score = _scores(front.entries, weights)
        for e, (m1, m2), y in zip(front.entries, psi, score / score.sum()):
            rows.append([f"{v:.10g}" for v in (e.f.f1, e.f.f2, m1, m2, y)])
    return _csv(["f1", "f2", "psi1", "psi2", "y"], rows)


# mode -> the file of its best schedule
_SCHEDULE_FILES = {"cost": "schedules_cost.csv", "ens": "schedules_ens.csv", "multi": "schedules_bcs.csv"}
_OPTIONAL_ARTIFACTS = frozenset({"profit.csv", *_SCHEDULE_FILES.values()})


def _render(report: StudyReport) -> dict[str, str]:
    """Every artifact of ``report`` but the manifest, as text by file name."""
    texts = {"pareto_front.csv": _front_csv(report.archive, report.config["weights"])}

    for mode, rec in report.best.items():
        dg, ess, p_slack = rec["x"].dg_power, rec["x"].ess_power, rec["breakdown"].p_slack
        header = (
            ["hour"]
            + [f"dg_{j + 1}_kw" for j in range(dg.shape[0])]
            + [f"ess_{k + 1}_kw" for k in range(ess.shape[0])]
            + ["p_slack_kw"]
        )
        rows = [[t, *dg[:, t].tolist(), *ess[:, t].tolist(), float(p_slack[t])] for t in range(dg.shape[1])]
        texts[_SCHEDULE_FILES[mode]] = _csv(header, rows)

    texts["stats.csv"] = _csv(_STATS_COLUMNS, [[r[k] for k in _STATS_COLUMNS] for r in report.stats_rows])

    source = report.best.get("multi") or next(iter(report.best.values()), None)
    for metric, column in (("f1", "cost"), ("f2", "ens")):
        rows = []
        if source is not None:
            outcomes: ScenarioOutcomes = source["outcomes"]
            edges, density = _fd_histogram(getattr(outcomes, column), outcomes.probabilities)
            rows = [[float(edges[i]), float(edges[i + 1]), float(density[i])] for i in range(len(density))]
        texts[f"histogram_{metric}.csv"] = _csv(["bin_left", "bin_right", "density"], rows)

    if report.profit is not None:
        pr = report.profit
        rows = [[year, c, pr.investment, c - pr.investment] for year, c in enumerate(pr.cumulative, start=1)]
        texts["profit.csv"] = _csv(["year", "cumulative", "investment", "net"], rows)
    return texts


def emit_artifacts(report: StudyReport, out_dir) -> dict:
    """Write every study artifact under ``out_dir`` and return the manifest
    as its file reads back.

    Every file, the manifest included, is rendered before the first is
    written, so a report that cannot be rendered raises and leaves
    ``out_dir`` as it was.  A manifest value of NaN or infinity cannot be
    rendered: JSON has no such numbers.  The optional files this study does
    not make are then removed: an earlier study's copies in the same
    directory would be stale.
    """
    data = {name: text.encode() for name, text in _render(report).items()}
    manifest = {
        "config": report.config,
        "files": {name: {"bytes": len(blob)} for name, blob in data.items()},
        "summary": {
            "runs": len(report.runs),
            "errors": report.errors,
            "bcs": report.bcs,
            "profit": asdict(report.profit) if report.profit else None,
            "best": {
                m: {"f1": rec["f1"], "f2": rec["f2"], "penalty": rec["penalty"]}
                for m, rec in sorted(report.best.items())
            },
        },
    }
    manifest_blob = json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False).encode()

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    for name, blob in {**data, "manifest.json": manifest_blob}.items():
        try:
            (out / name).write_bytes(blob)
        except OSError as exc:
            raise OSError(f"failed writing {out / name}: {exc}") from exc
    for name in _OPTIONAL_ARTIFACTS.difference(data):
        (out / name).unlink(missing_ok=True)
    return json.loads(manifest_blob)
