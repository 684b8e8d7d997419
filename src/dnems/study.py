"""Batch study driver: deterministic and stochastic energy-management runs,
repeat statistics over scenario-set sizes, and all result artifacts.

A study optimizes the built-in (or user) network under a forecast profile.
``cost`` and ``ens`` objectives run single-criterion searches; ``multi`` runs
both plus a two-objective search whose archive yields the best-compromise
schedule.  Every output file is a deterministic function of (config, seed).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .network import Network, builtin_ieee69, load_network
from .objectives import (
    DEFAULT_C_NPV,
    DEFAULT_INVESTMENT,
    DecisionVector,
    ObjectiveVector,
    ProfitReport,
    ScenarioOutcomes,
    ScheduleEvaluator,
    decision_bounds,
    merge_penalty_weights,
    profit_analysis,
)
from .optimizer import HybridConfig, SearchSpace, hybrid_run
from .pareto import ParetoArchive, best_compromise
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


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass(frozen=True)
class StudyConfig:
    network: str = "builtin"  # "builtin" or a path accepted by load_network
    forecast: str | None = None  # path, or None for the packaged default
    mode: str = "deterministic"  # "deterministic" | "stochastic"
    objective: str = "multi"  # "cost" | "ens" | "multi"
    scenario_counts: tuple[int, ...] = (30, 60, 90, 120)
    repeats: int = 20
    weights: tuple[float, float] = (0.5, 0.5)
    optimizer: HybridConfig = field(default_factory=HybridConfig)
    out_dir: str = "out"
    seed: int = 0
    oversample: int = 2  # raw draws per kept scenario before reduction
    levels: int = 7
    vary: str = "both"  # "both" | "scenarios" | "optimizer"
    profit_years: int = 20
    investment: float = DEFAULT_INVESTMENT
    c_npv: float = DEFAULT_C_NPV
    export_credit: bool = True

    def __post_init__(self):
        if self.mode not in ("deterministic", "stochastic"):
            raise ConfigError(f"mode must be deterministic|stochastic, got {self.mode!r}")
        if self.objective not in ("cost", "ens", "multi"):
            raise ConfigError(f"objective must be cost|ens|multi, got {self.objective!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.scenario_counts or min(self.scenario_counts) < 1:
            raise ConfigError("scenario counts must all be >= 1")
        if self.levels < 3 or self.levels % 2 == 0:
            raise ConfigError(f"levels must be odd and >= 3, got {self.levels}")
        if self.oversample < 1:
            raise ConfigError(f"oversample must be >= 1, got {self.oversample}")
        if self.vary not in ("both", "scenarios", "optimizer"):
            raise ConfigError(f"vary must be both|scenarios|optimizer, got {self.vary!r}")
        if min(self.weights) < 0 or max(self.weights) <= 0:
            raise ConfigError("weights must be nonnegative and not both zero")
        try:
            merge_penalty_weights(self.optimizer.penalty_weights)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"optimizer penalty weights: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        doc = dict(doc)
        opt = doc.pop("optimizer", {})
        # a study derives these per run, from the top-level keys named here
        for key, top in (("seed", "seed"), ("objective_weights", "weights")):
            if isinstance(opt, dict) and key in opt:
                raise ConfigError(f"optimizer.{key} has no effect in a study; set the top-level {top!r}")
        try:
            optimizer = HybridConfig(**opt) if isinstance(opt, dict) else opt
            known = {k for k in cls.__dataclass_fields__}
            unknown = set(doc) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            if "scenario_counts" in doc:
                doc["scenario_counts"] = tuple(int(c) for c in doc["scenario_counts"])
            if "weights" in doc:
                doc["weights"] = tuple(float(w) for w in doc["weights"])
            return cls(optimizer=optimizer, **doc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


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
    best: dict  # mode -> {"f1", "f2", "x": DecisionVector, "outcomes": ScenarioOutcomes}
    schedules: dict  # kind -> {"dg": (n_dg,24), "ess": (n_ess,24), "p_slack": (24,)}
    archive: ParetoArchive | None
    bcs: dict | None  # multi-mode cross-run summary
    profit: ProfitReport | None
    errors: list[str]
    timings: dict  # wall-clock seconds; not part of the deterministic artifacts


def _sub_seed(master: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(master), *[int(k) for k in keys]]).generate_state(1)[0])


def _load_inputs(cfg: StudyConfig) -> tuple[Network, ForecastProfile]:
    try:
        net = builtin_ieee69() if cfg.network == "builtin" else load_network(cfg.network)
        forecast = default_forecast() if cfg.forecast is None else load_forecast(cfg.forecast)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return net, forecast


def _make_scenarios(cfg: StudyConfig, forecast: ForecastProfile, count: int, seed: int) -> ScenarioSet:
    raw = generate(forecast, n=count * cfg.oversample, seed=seed, levels=cfg.levels)
    return reduce_scenarios(raw, min(count, len(raw)))


def _select(archive: ParetoArchive, mode: str, weights) -> tuple[DecisionVector | np.ndarray, ObjectiveVector]:
    if mode == "multi":
        entry = best_compromise(archive, weights)
        return entry.x, entry.f
    feasible = [e for e in archive.entries if e.f.penalty == 0] or archive.entries
    key = (lambda e: (e.f.f1, e.f.f2)) if mode == "cost" else (lambda e: (e.f.f2, e.f.f1))
    entry = min(feasible, key=key)
    return entry.x, entry.f


def _optimize(
    net: Network,
    evaluator: ScheduleEvaluator,
    sset: ScenarioSet,
    opt_cfg: HybridConfig,
    mode: str,
    weights,
) -> tuple[ParetoArchive, list]:
    lower, upper = decision_bounds(net)
    space = SearchSpace(lower, upper)

    def objective(positions: np.ndarray) -> list[ObjectiveVector]:
        return evaluator.evaluate(positions, sset)

    run_weights = _MODE_WEIGHTS.get(mode, weights)
    cfg = replace(opt_cfg, objective_weights=tuple(run_weights))
    return hybrid_run(cfg, space, objective)


def run_study(cfg: StudyConfig) -> StudyReport:
    """Execute the configured study and return its full report.

    Stochastic mode sweeps every scenario-count setting with ``repeats``
    independent runs (fresh scenario and optimizer sub-seeds per repeat);
    deterministic mode optimizes the zero-deviation singleton scenario.
    """
    t0 = time.perf_counter()
    net, forecast = _load_inputs(cfg)
    evaluator = ScheduleEvaluator(
        net, weights=cfg.optimizer.penalty_weights, export_credit=cfg.export_credit
    )
    n_dg, n_ess = len(net.dgs), len(net.esss)
    modes = [cfg.objective] if cfg.objective != "multi" else ["cost", "ens", "multi"]

    det_set = deterministic_set(forecast)
    if cfg.mode == "deterministic":
        settings = [("det", 0)]
    else:
        settings = [(f"s{c}", c) for c in cfg.scenario_counts]

    runs: list[RunRecord] = []
    stats_rows: list[dict] = []
    best: dict = {}
    errors: list[str] = []
    archive_for_front: ParetoArchive | None = None
    timings: dict = {}

    for s_idx, (label, count) in enumerate(settings):
        per_mode: dict[str, list[tuple[float, float, float]]] = {m: [] for m in modes}
        for rep in range(cfg.repeats):
            scen_rep = rep if cfg.vary in ("both", "scenarios") else 0
            opt_rep = rep if cfg.vary in ("both", "optimizer") else 0
            if cfg.mode == "deterministic":
                sset = det_set
            else:
                sset = _make_scenarios(cfg, forecast, count, _sub_seed(cfg.seed, 1, s_idx, scen_rep))
            for m_idx, mode in enumerate(modes):
                opt_seed = _sub_seed(cfg.seed, 2, s_idx, opt_rep, m_idx)
                try:
                    archive, _log = _optimize(
                        net, evaluator, sset, replace(cfg.optimizer, seed=opt_seed), mode, cfg.weights
                    )
                    x, f = _select(archive, mode, cfg.weights)
                except Exception as exc:  # noqa: BLE001 - aborted repeat is reported, not fatal
                    errors.append(f"{label}/{mode}/repeat{rep}: {exc}")
                    continue
                runs.append(RunRecord(label, mode, rep, f.f1, f.f2, f.penalty))
                per_mode[mode].append((f.f1, f.f2, f.penalty))
                metric = f.f2 if mode == "ens" else f.f1
                prev = best.get(mode)
                if prev is None or (f.penalty, metric) < (prev["penalty"], prev["metric"]):
                    xvec = DecisionVector.from_flat(np.asarray(x), n_dg, n_ess)
                    best[mode] = {
                        "f1": f.f1,
                        "f2": f.f2,
                        "penalty": f.penalty,
                        "metric": metric,
                        "x": xvec,
                        "sset": sset,
                    }
                    if mode == "multi":
                        archive_for_front = archive

        for mode in modes:
            recs = per_mode[mode]
            if len(recs) < 2:
                continue
            f1s = [r[0] for r in recs]
            f2s = [r[1] for r in recs]
            ev_f1, ev_f2, _ = min(recs, key=lambda r: (r[2], r[1] if mode == "ens" else r[0]))
            for metric, samples, ev in (("cost", f1s, ev_f1), ("ens", f2s, ev_f2)):
                st = RunStatistics.from_samples(samples, ev=ev)
                stats_rows.append(
                    {
                        "setting": label,
                        "n_scenarios": count if cfg.mode == "stochastic" else 1,
                        "objective_mode": mode,
                        "metric": metric,
                        "n": st.n,
                        "mean": st.mean,
                        "sd": st.sd,
                        "ci95": st.ci95_halfwidth,
                        "ev": st.ev,
                        "re": st.re,
                    }
                )

    timings["optimization_s"] = time.perf_counter() - t0

    # outcome distributions of each best schedule under its scenario set
    for mode, rec in best.items():
        rec["outcomes"] = evaluator.per_scenario(rec["x"], rec["sset"])

    # hourly schedules of each best solution under the forecast scenario
    schedules: dict = {}
    breakdowns: dict = {}
    kind_of = {"cost": "cost", "ens": "ens", "multi": "bcs"}
    for mode, rec in best.items():
        bd = breakdowns[mode] = evaluator.breakdown(rec["x"], det_set.scenarios[0])
        schedules[kind_of[mode]] = {
            "dg": rec["x"].dg_power,
            "ess": rec["x"].ess_power,
            "p_slack": bd.p_slack,
        }

    bcs = None
    if cfg.objective == "multi" and all(m in best for m in ("cost", "ens", "multi")):
        bcs = {
            "cost_run": {"f1": best["cost"]["f1"], "f2": best["cost"]["f2"]},
            "ens_run": {"f1": best["ens"]["f1"], "f2": best["ens"]["f2"]},
            "bcs": {"f1": best["multi"]["f1"], "f2": best["multi"]["f2"]},
        }

    profit = None
    if "cost" in best:
        t1 = time.perf_counter()
        profit = _profit_from_baseline(cfg, net, det_set, breakdowns["cost"].cost_s)
        timings["profit_s"] = time.perf_counter() - t1

    timings["total_s"] = time.perf_counter() - t0
    return StudyReport(
        config=_config_dict(cfg),
        runs=runs,
        stats_rows=stats_rows,
        best=best,
        schedules=schedules,
        archive=archive_for_front,
        bcs=bcs,
        profit=profit,
        errors=errors,
        timings=timings,
    )


def _profit_from_baseline(cfg, net, det_set, toc_new: float) -> ProfitReport:
    """Compare the deterministic cost ``toc_new`` of the retrofitted system
    against the same feeder stripped of PV and storage, then project over
    the horizon."""
    bare = replace(net, pvs=(), esss=())
    bare_eval = ScheduleEvaluator(
        bare, weights=cfg.optimizer.penalty_weights, export_credit=cfg.export_credit
    )
    opt_seed = _sub_seed(cfg.seed, 3)
    archive, _ = _optimize(
        bare, bare_eval, det_set, replace(cfg.optimizer, seed=opt_seed), "cost", cfg.weights
    )
    _, f_old = _select(archive, "cost", cfg.weights)
    return profit_analysis(
        toc_old=f_old.f1,
        toc_new=toc_new,
        investment=cfg.investment,
        years=cfg.profit_years,
        c_npv=cfg.c_npv,
    )


def _config_dict(cfg: StudyConfig) -> dict:
    doc = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__ if k != "optimizer"}
    doc["scenario_counts"] = list(cfg.scenario_counts)
    doc["weights"] = list(cfg.weights)
    doc["optimizer"] = {
        k: getattr(cfg.optimizer, k) for k in cfg.optimizer.__dataclass_fields__
    }
    doc["optimizer"]["objective_weights"] = list(cfg.optimizer.objective_weights)
    return doc


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    def fmt(x):
        if isinstance(x, float):
            return repr(x)  # shortest round-trip representation
        return str(x)

    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def emit_artifacts(report: StudyReport, out_dir) -> dict:
    """Write every study artifact under ``out_dir`` and return the manifest."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    written: list[str] = []

    def emit(name: str, writer) -> None:
        path = out / name
        try:
            writer(path)
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc
        written.append(name)

    if report.archive is not None:
        emit("pareto_front.csv", report.archive.to_csv)
    else:
        emit("pareto_front.csv", lambda p: p.write_text("f1,f2,psi1,psi2,y\n"))

    for kind, sched in sorted(report.schedules.items()):
        dg, ess, p_slack = sched["dg"], sched["ess"], sched["p_slack"]
        header = (
            ["hour"]
            + [f"dg_{j + 1}_kw" for j in range(dg.shape[0])]
            + [f"ess_{k + 1}_kw" for k in range(ess.shape[0])]
            + ["p_slack_kw"]
        )
        rows = [
            [t, *dg[:, t].tolist(), *ess[:, t].tolist(), float(p_slack[t])]
            for t in range(dg.shape[1])
        ]
        emit(f"schedules_{kind}.csv", lambda p, h=header, r=rows: _write_csv(p, h, r))

    header = ["setting", "n_scenarios", "objective_mode", "metric", "n", "mean", "sd", "ci95", "ev", "re"]
    rows = [[r[k] for k in header] for r in report.stats_rows]
    emit("stats.csv", lambda p: _write_csv(p, header, rows))

    for metric, column in (("f1", "cost"), ("f2", "ens")):
        source = report.best.get("multi") or next(iter(report.best.values()), None)
        if source is None:
            emit(f"histogram_{metric}.csv", lambda p: p.write_text("bin_left,bin_right,density\n"))
            continue
        outcomes: ScenarioOutcomes = source["outcomes"]
        values = getattr(outcomes, column)
        edges, density = _fd_histogram(values, outcomes.probabilities)
        rows = [[float(edges[i]), float(edges[i + 1]), float(density[i])] for i in range(len(density))]
        emit(f"histogram_{metric}.csv", lambda p, r=rows: _write_csv(p, ["bin_left", "bin_right", "density"], r))

    if report.profit is not None:
        pr = report.profit
        rows = [
            [y + 1, float(pr.cumulative[y]), pr.investment, float(pr.cumulative[y] - pr.investment)]
            for y in range(len(pr.cumulative))
        ]
        emit("profit.csv", lambda p: _write_csv(p, ["year", "cumulative", "investment", "net"], rows))

    manifest = {
        "config": report.config,
        "files": {},
        "summary": {
            "runs": len(report.runs),
            "errors": report.errors,
            "bcs": report.bcs,
            "profit": report.profit.to_dict() if report.profit else None,
            "best": {
                m: {"f1": rec["f1"], "f2": rec["f2"], "penalty": rec["penalty"]}
                for m, rec in sorted(report.best.items())
            },
        },
    }
    for name in written:
        manifest["files"][name] = {"bytes": (out / name).stat().st_size}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
