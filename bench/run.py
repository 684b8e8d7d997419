#!/usr/bin/env python3
"""Study-level benchmark of dnems: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload case1-det-ieee69 --seed 1 --seconds 24 --trace 0

A run generates the workload's inputs from the seed, times several cold
set-ups in fresh interpreters, checks the fixed-input oracle, then runs
studies (``run_study`` + ``emit_artifacts``) one at a time, a closed loop,
for the given seconds.  ``--trace 0`` runs untraced studies and reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced studies and
reports the per-layer metrics of the traced ones and the tracing overhead.  The
last line of standard output is the result object; the environment, the
per-study figures and the spans go to ``.bench_out/<workload>-s<seed>/``.
"""

import os

# One BLAS thread: with two on a two-core host the deterministic study burns
# twice the CPU and its wall time spreads far wider between processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


class HarnessError(RuntimeError):
    """The run cannot produce a result (missing program, failed set-up)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the harness self-test")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    load_before = os.getloadavg()
    if not (SRC / "dnems" / "__init__.py").is_file():
        raise HarnessError(f"no program source under {SRC}; run from the repository root")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    # relative paths keep the artifacts (manifest included) identical between checkouts
    work = Path(".bench_out") / f"{args.workload}-s{args.seed}{'-toy' if args.toy else ''}"
    doc = workloads.study_config(args.workload, args.seed, work / "inputs", toy=args.toy)
    doc["out_dir"] = str(work / "artifacts")
    config_path = work / "inputs" / "study.json"
    config_path.write_text(json.dumps(doc, indent=1, sort_keys=True))

    probes = [setup_probe(config_path) for _ in range(1 if args.toy else SETUP_PROBES)]

    import dnems
    import oracle
    import trace
    from dnems.study import StudyConfig, emit_artifacts, run_study

    if Path(dnems.__file__).resolve().parent != (SRC / "dnems").resolve():
        raise HarnessError(f"imported dnems from {dnems.__file__}, not from {SRC}")
    cfg = StudyConfig.from_dict(doc)
    checks = Checks(work / "artifacts.sha256", tree_digest(work / "inputs", SRC / "dnems"))

    def study(run_fn=run_study, emit_fn=emit_artifacts):
        """One study; returns (manifest, report, seconds)."""
        t0 = time.perf_counter()
        report = run_fn(cfg)
        manifest = emit_fn(report, cfg.out_dir)
        elapsed = time.perf_counter() - t0
        checks.study(report, manifest, Path(cfg.out_dir))
        return manifest, report, elapsed

    def traced_pass():
        """The oracle, then one study, every layer traced; returns (per-layer
        metrics, report, study seconds)."""
        tracer = trace.Tracer()
        with tracer.installed():
            checks.oracle(tracer.wrap("bench.oracle", oracle.check)())
            first = len(tracer.spans)
            manifest, report, elapsed = study(
                tracer.wrap("study.run_study", run_study), tracer.wrap("study.emit_artifacts", emit_artifacts)
            )
        roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
        layers = trace.summarize(tracer.spans, roots)
        shares = trace.summarize(tracer.spans, [i for i in roots if i >= first])
        layers.update({k: v for k, v in shares.items() if k.endswith(".self_share")})
        layers["study.profit_s"] = report.timings.get("profit_s", 0.0)
        layers["study.artifact_bytes"] = sum(f["bytes"] for f in manifest["files"].values()) + (
            Path(cfg.out_dir) / "manifest.json"
        ).stat().st_size
        tracer.dump(work / "spans.json")
        return layers, report, elapsed

    start = time.perf_counter()
    if args.trace:
        def step(k):
            # traced and untraced studies alternate; each traced study is
            # compared with the untraced one right after it, which ran under
            # the same host load, for the tracing overhead
            return study() + (False,) if k % 2 else traced_pass() + (True,)

        steps = loop(args.seconds, start, step, reserve=1)
        if steps[-1][3]:
            steps.append(step(len(steps)))
        passes = [s[0] for s in steps if s[3]]
        metrics = {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
        metrics.update(
            {
                "setup.import_s": statistics.median(p["import_s"] for p in probes),
                "network.load_s": statistics.median(p["load_s"] for p in probes),
                "network.n_bus": probes[0]["n_bus"],
                "powerflow.first_solve_s": statistics.median(p["first_solve_s"] for p in probes),
                "trace.overhead_ratio": statistics.median(t[2] / u[2] for t, u in zip(steps[::2], steps[1::2])),
            }
        )
    else:
        checks.oracle(oracle.check())
        peak_rss_mb = []

        def step(k):
            out = study() + (False,)
            if k == 0:
                peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            return out

        steps = loop(args.seconds, start, step)
        best = steps[0][1].best["cost"]  # identical in every study, as the digest check shows
        metrics = {
            "study_s": statistics.median(s[2] for s in steps),
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb[0],
            "ok_runs_ratio": (checks.attempted - checks.failed) / checks.attempted,
            "best_cost_usd_day": best["f1"],
            "best_cost_penalty": best["penalty"],  # recorded in result.json, not a metric
        }
    records = [{"study_s": s[2], "traced": s[3]} for s in steps]

    units = {m["name"]: m["unit"] for m in _declared(args.trace)}
    env = environment(load_before)
    (work / "result.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
             "setup_probes": probes, "studies": records, "problems": checks.problems, "metrics": metrics},
            indent=1,
        )
    )
    print(json.dumps({"environment": env}), file=sys.stderr)
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def loop(seconds: float, start: float, step, reserve: int = 0) -> list:
    """Closed loop: run ``step(k)`` for k = 0, 1, ... one at a time, once,
    then while the next one and ``reserve`` more of the same length are
    expected to finish within ``seconds`` of ``start``."""
    out, times = [], []
    while not times or time.perf_counter() - start + (1 + reserve) * statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        times.append(time.perf_counter() - t0)
    return out


def setup_probe(config_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{proc.stderr.strip()}")
    stages = json.loads(proc.stdout.strip().splitlines()[-1])
    stages["wall_s"] = wall
    return stages


class Checks:
    """Correctness checks, counted as operations attempted and failed.

    Per study: each optimisation repeat (failed when it lands in
    ``report.errors``), mutual non-dominance of the reported front, and the
    artifact digest, which must match the first study of this (workload,
    seed) in this checkout.  Per run: the fixed-input oracle.
    """

    def __init__(self, digest_path: Path, source: str):
        self.digest_path = digest_path
        self.source = source  # digest of the inputs and the program
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _count(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def oracle(self, problems: list[str]) -> None:
        self._count(not problems, "; ".join(problems))

    def study(self, report, manifest, out_dir: Path) -> None:
        import oracle

        self.attempted += len(report.runs)
        for error in report.errors:
            self._count(False, f"repeat failed: {error}")
        ok = report.archive is None or oracle.front_is_nondominated(report.archive)
        self._count(ok, "reported Pareto front holds a dominated entry")
        digest = artifacts_digest(out_dir, manifest)
        recorded = self.digest_path.read_text().split() if self.digest_path.exists() else []
        if recorded[:1] != [self.source]:
            recorded = [self.source, digest]
            self.digest_path.write_text(" ".join(recorded) + "\n")
        self._count(recorded[1] == digest, f"artifacts sha256 {digest} differs from the first study's {recorded[1]}")


def artifacts_digest(out_dir: Path, manifest: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(manifest["files"]) + ["manifest.json"]:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return h.hexdigest()


def tree_digest(*dirs: Path) -> str:
    """Digest of every file under ``dirs``: what a study's artifacts depend on."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _declared(trace_mode: int) -> list[dict]:
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace_mode else "end_to_end"]


def environment(load_before) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


if __name__ == "__main__":
    sys.exit(main())
