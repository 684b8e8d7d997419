"""Batch command-line front end.

Exit codes: 0 on success (and for ``--help``), 1 for configuration
problems, a malformed or unknown flag included, 2 for runtime failures
during the study itself, including a study in which no repeat succeeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .study import _OBJECTIVES, _VARY, ConfigError, StudyConfig, emit_artifacts, run_study

_MODE_ALIASES = {"det": "deterministic", "stoch": "stochastic"}


def build_parser() -> argparse.ArgumentParser:
    """The flags; each one's ``dest`` is the StudyConfig field it sets (the
    optimizer's for ``--population`` and ``--iterations``)."""
    parser = argparse.ArgumentParser(
        prog="dnems",
        description="Energy-management studies on radial distribution networks "
        "with DG, PV, and storage.",
    )
    parser.add_argument("--config", help="JSON study configuration (flags override it)")
    parser.add_argument("--mode", choices=_MODE_ALIASES.keys(), help="deterministic or stochastic study")
    parser.add_argument("--objective", choices=_OBJECTIVES)
    parser.add_argument("--scenarios", dest="scenario_counts", metavar="SCENARIOS",
                        help="comma-separated scenario counts, e.g. 30,60,90,120")
    parser.add_argument("--repeats", type=int, help="independent runs per setting")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    parser.add_argument("--network", help="'builtin' or a path to a network file")
    parser.add_argument("--weights", help="objective weights w1,w2 for the compromise selection")
    parser.add_argument("--forecast", help="path to a forecast profile JSON")
    parser.add_argument("--population", type=int, help="optimizer population size")
    parser.add_argument("--iterations", type=int, help="optimizer iterations")
    parser.add_argument("--vary", choices=_VARY, help="what changes between repeats")
    return parser


def _numbers(flag: str, text: str, kind, count: int | None = None) -> tuple:
    """The comma-separated ``kind`` values of ``text``, exactly ``count`` of
    them if given; ConfigError naming ``flag`` otherwise."""
    try:
        values = tuple(map(kind, text.split(",")))
        if count not in (None, len(values)):
            raise ValueError(f"{len(values)} values, not {count}")
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {text!r}") from exc
    return values


# field -> how its flag's text becomes the field's value (the rest are taken as parsed)
_CONVERT = {
    "mode": _MODE_ALIASES.get,
    "scenario_counts": lambda text: _numbers("--scenarios", text, int),
    "weights": lambda text: _numbers("--weights", text, float, count=2),
}


def _config_from_args(args) -> StudyConfig:
    base = StudyConfig.from_json(args.config) if args.config is not None else StudyConfig()
    fields = {
        name: _CONVERT.get(name, lambda v: v)(value)
        for name, value in vars(args).items()
        if value is not None and name != "config"
    }
    optimizer = {name: fields.pop(name) for name in ("population", "iterations") if name in fields}
    if optimizer:
        try:
            fields["optimizer"] = replace(base.optimizer, **optimizer)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return replace(base, **fields)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or its error
        return 1 if exc.code else 0
    try:
        cfg = _config_from_args(args)
        report = run_study(cfg)
        manifest = emit_artifacts(report, cfg.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    for name in sorted([*manifest["files"], "manifest.json"]):
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
