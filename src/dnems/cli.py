"""Batch command-line front end.

Exit codes: 0 on success (and for ``--help``), 1 for configuration
problems, a malformed or unknown flag included, 2 for runtime failures
during the study itself, including a study in which no repeat succeeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .study import ConfigError, StudyConfig, emit_artifacts, run_study

_MODE_ALIASES = {"det": "deterministic", "stoch": "stochastic"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnems",
        description="Energy-management studies on radial distribution networks "
        "with DG, PV, and storage.",
    )
    parser.add_argument("--config", help="JSON study configuration (flags override it)")
    parser.add_argument("--mode", choices=["det", "stoch"], help="deterministic or stochastic study")
    parser.add_argument("--objective", choices=["cost", "ens", "multi"])
    parser.add_argument("--scenarios", help="comma-separated scenario counts, e.g. 30,60,90,120")
    parser.add_argument("--repeats", type=int, help="independent runs per setting")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--network", help="'builtin' or a path to a network file")
    parser.add_argument("--weights", help="objective weights w1,w2 for the compromise selection")
    parser.add_argument("--forecast", help="path to a forecast profile JSON")
    parser.add_argument("--population", type=int, help="optimizer population size")
    parser.add_argument("--iterations", type=int, help="optimizer iterations")
    parser.add_argument("--vary", choices=["both", "scenarios", "optimizer"],
                        help="what changes between repeats")
    return parser


def _config_from_args(args) -> StudyConfig:
    base = StudyConfig.from_json(args.config) if args.config is not None else StudyConfig()

    overrides: dict = {}
    if args.mode:
        overrides["mode"] = _MODE_ALIASES[args.mode]
    if args.objective:
        overrides["objective"] = args.objective
    if args.scenarios is not None:
        try:
            overrides["scenario_counts"] = tuple(int(c) for c in args.scenarios.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --scenarios value {args.scenarios!r}") from exc
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.network is not None:
        overrides["network"] = args.network
    if args.forecast is not None:
        overrides["forecast"] = args.forecast
    if args.weights is not None:
        try:
            w1, w2 = (float(w) for w in args.weights.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --weights value {args.weights!r}") from exc
        overrides["weights"] = (w1, w2)
    if args.vary:
        overrides["vary"] = args.vary

    if args.population is not None or args.iterations is not None:
        opt_overrides = {
            k: v
            for k, v in (("population", args.population), ("iterations", args.iterations))
            if v is not None
        }
        try:
            overrides["optimizer"] = replace(base.optimizer, **opt_overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return replace(base, **overrides)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or its error
        return 1 if exc.code else 0
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_study(cfg)
        manifest = emit_artifacts(report, cfg.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    for name in sorted(manifest["files"]):
        print(f"wrote {cfg.out_dir}/{name}")
    if report.errors:
        print(f"{len(report.errors)} repeat(s) failed; see manifest summary", file=sys.stderr)
    if not report.runs:
        print("runtime failure: no repeat succeeded", file=sys.stderr)
        return 2
    print(f"done in {report.timings['total_s']:.1f}s ({len(report.runs)} runs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
