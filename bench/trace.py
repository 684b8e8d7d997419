"""Span tracing of the program's layers from outside the program.

``Tracer.installed()`` replaces each traced entry point with a wrapper that
records a span (name, start, end, parent) and a small note of work done, then
puts the originals back.  Names are wrapped where the caller looks them up:
``dnems.study`` and ``dnems.objectives`` bind their imports at module level,
so the study's calls go through those modules' attributes, not the defining
modules'.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

HOURS = 24

# span name prefix -> layer used for self-time shares
LAYERS = ("powerflow", "objectives", "scenarios", "pareto", "optimizer", "network", "study")


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace the program's public entry points while the block runs."""
        import dnems.objectives
        import dnems.optimizer
        import dnems.study
        from dnems.objectives import ScheduleEvaluator
        from dnems.pareto import ParetoArchive

        def hybrid(fn):
            def run(cfg, space, evaluator):
                return fn(cfg, space, self.wrap("objectives.evaluate", evaluator))

            return self.wrap("optimizer.hybrid_run", run, lambda a, k, out: {"iterations": len(out[1])})

        targets = [
            (dnems.objectives, "solve_batch", lambda f: self.wrap("powerflow.solve_batch", f, _solve_note)),
            (dnems.study, "generate", lambda f: self.wrap("scenarios.generate", f, _generate_note)),
            (dnems.study, "reduce_scenarios", lambda f: self.wrap("scenarios.reduce", f, _reduce_note)),
            (dnems.study, "hybrid_run", hybrid),
            (dnems.study, "best_compromise", lambda f: self.wrap("pareto.best_compromise", f)),
            (dnems.study, "builtin_ieee69", lambda f: self.wrap("network.load", f)),
            (dnems.study, "load_network", lambda f: self.wrap("network.load", f)),
            (ScheduleEvaluator, "per_scenario", lambda f: self.wrap("objectives.per_scenario", f, _per_scenario_note)),
            (ScheduleEvaluator, "breakdown", lambda f: self.wrap("objectives.breakdown", f)),
            (ParetoArchive, "insert", lambda f: self.wrap("pareto.insert", f, lambda a, k, out: {"kept": bool(out)})),
            (dnems.optimizer, "gwo_step", lambda f: self.wrap("optimizer.step", f)),
            (dnems.optimizer, "pso_step", lambda f: self.wrap("optimizer.step", f)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, make in targets:
                setattr(owner, attr, make(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def _solve_note(args, kwargs, out):
    cols = int(out.converged.size)
    return {"columns": cols, "sweeps": int(out.iterations), "nonconverged": cols - int(out.converged.sum())}


def _generate_note(args, kwargs, out):
    return {"draws": int(kwargs.get("n", args[1] if len(args) > 1 else 0)), "kept": len(out)}


def _reduce_note(args, kwargs, out):
    return {"deleted": len(args[0]) - len(out)}


def _per_scenario_note(args, kwargs, out):
    return {"scenarios": int(out.cost.size)}


def summarize(spans, roots) -> dict:
    """Per-layer metrics over the span trees under ``roots`` (span indices)."""
    keep = set()
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    todo = list(roots)
    while todo:
        i = todo.pop()
        keep.add(i)
        todo.extend(children[i])

    dur = {i: spans[i][2] - spans[i][1] for i in keep}
    self_s = {i: dur[i] - sum(dur[c] for c in children[i]) for i in keep}
    by_name = defaultdict(list)
    for i in sorted(keep):
        by_name[spans[i][0]].append(i)

    def total(name, table=dur):
        return sum(table[i] for i in by_name[name])

    def notes(name, key):
        return sum(spans[i][4][key] for i in by_name[name])

    solves = by_name["powerflow.solve_batch"]
    pf_self = total("powerflow.solve_batch", self_s)
    columns = notes("powerflow.solve_batch", "columns")
    column_sweeps = sum(spans[i][4]["columns"] * spans[i][4]["sweeps"] for i in solves)
    breakdowns = by_name["objectives.breakdown"]
    # useful work: per_scenario calls made for the search and outcome tables,
    # plus one scenario-day per breakdown; breakdown's inner per_scenario
    # re-solves a day that breakdown already solved
    useful_days = sum(
        spans[i][4]["scenarios"]
        for i in by_name["objectives.per_scenario"]
        if spans[i][3] < 0 or spans[spans[i][3]][0] != "objectives.breakdown"
    ) + len(breakdowns)
    scenario_hours = useful_days * HOURS
    inserts = by_name["pareto.insert"]
    deleted = notes("scenarios.reduce", "deleted")
    draws = notes("scenarios.generate", "draws")
    hybrid = by_name["optimizer.hybrid_run"]
    optimizer_self = sum(
        dur[i] - sum(dur[c] for c in children[i] if spans[c][0] != "optimizer.step") for i in hybrid
    )

    layer_self = defaultdict(float)
    for i in keep:
        layer_self[spans[i][0].split(".", 1)[0]] += self_s[i]
    busy = sum(layer_self.values())

    out = {
        "powerflow.solve_batch.calls": len(solves),
        "powerflow.solve_batch.columns": columns,
        "powerflow.solve_batch.sweeps": notes("powerflow.solve_batch", "sweeps"),
        "powerflow.solve_batch.column_sweeps": column_sweeps,
        "powerflow.solve_batch.self_s": pf_self,
        "powerflow.solve_batch.nonconverged_columns": notes("powerflow.solve_batch", "nonconverged"),
        "powerflow.us_per_call": 1e6 * pf_self / max(len(solves), 1),
        "powerflow.us_per_column_sweep": 1e6 * pf_self / max(column_sweeps, 1),
        "objectives.per_scenario.calls": len(by_name["objectives.per_scenario"]),
        "objectives.per_scenario.self_s": total("objectives.per_scenario", self_s),
        "objectives.breakdown.calls": len(breakdowns),
        "objectives.scenario_hours": scenario_hours,
        "objectives.columns_per_scenario_hour": columns / max(scenario_hours, 1),
        "scenarios.generate.s": total("scenarios.generate"),
        "scenarios.generate.draws": draws,
        "scenarios.generate.kept": notes("scenarios.generate", "kept"),
        "scenarios.generate.kept_ratio": notes("scenarios.generate", "kept") / max(draws, 1),
        "scenarios.reduce.s": total("scenarios.reduce"),
        "scenarios.reduce.deleted": deleted,
        "scenarios.reduce.us_per_deletion": 1e6 * total("scenarios.reduce") / max(deleted, 1),
        "pareto.insert.calls": len(inserts),
        "pareto.insert.s": total("pareto.insert"),
        "pareto.insert.kept_ratio": sum(spans[i][4]["kept"] for i in inserts) / max(len(inserts), 1),
        "pareto.best_compromise.s": total("pareto.best_compromise"),
        "optimizer.hybrid_run.calls": len(hybrid),
        "optimizer.hybrid_run.iterations": sum(spans[i][4]["iterations"] for i in hybrid),
        "optimizer.hybrid_run.evaluations": len(by_name["objectives.evaluate"]),
        "optimizer.self_s": optimizer_self,
        "optimizer.step_s": total("optimizer.step"),
        "study.emit_artifacts_s": total("study.emit_artifacts"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / busy if busy else 0.0
    return out
