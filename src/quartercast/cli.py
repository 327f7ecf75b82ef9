"""Command-line interface.

Subcommands: synth (emit a synthetic dataset), forecast (one model,
forecasts out), backtest (evaluation report), compare (two reports, a
report against expert forecasts, or a report against its own horizon 1).
Each takes --config <json file>, which is checked against SETTINGS before
any command runs: an unknown key or a value of the wrong kind exits 2 and
names the key.  Each also takes the flags it reads (``_COMMANDS``), which
override the config; any other flag exits 2.  Exit codes: 0 success,
2 validation error, 3 insufficient data, 4 nonconvergence.

Only the data modules are imported here; model code is looked up through
the package when a command runs it, so ``synth``, ``--help`` and a bad
config load no fitting code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import quartercast

from .errors import InsufficientDataError, NonconvergenceError, QuartercastError, ValidationError
from .fiscal import parse_quarter, quarter_add
from .io import (
    REPORT_FORMATS,
    load_expert_forecasts_csv,
    load_indicator_csv,
    load_revenue_csv,
    read_report,
    with_indicators,
    write_indicator_csv,
    write_report,
    write_revenue_csv,
)
from .rows import FeatureConfig, IndicatorConfig
from .synth import SynthSpec, generate_synthetic


def _quarter(value):
    """The FiscalQuarter a label such as "2013Q1" names, else None."""
    try:
        return parse_quarter(value) if isinstance(value, str) else None
    except ValidationError:
        return None


def _one_of(*choices):
    listed = f"{', '.join(map(repr, choices[:-1]))} or {choices[-1]!r}"
    return (lambda v: v in choices), "{!r} must be " + listed


_PATH = (lambda v: isinstance(v, str) and v != ""), "{!r} must be a non-empty file path"
_FLAG = (lambda v: isinstance(v, bool)), "{!r} must be true or false"
_RANGE = (
    (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_quarter, v))),
    '{!r} must be a [start, end] pair of quarters such as "2013Q1"',
)

# Every top-level config key any command reads: its check, and what the error
# says a value must be.  One file serves all four commands, so the table is global.
SETTINGS = {
    **dict.fromkeys(("revenue_csv", "indicators_csv", "out", "indicators_out",
                     "report", "baseline_report", "candidate_report", "expert_csv"), _PATH),
    **dict.fromkeys(("macro_at_origin", "macro_at_target",
                     "lag_includes_origin", "model1_include_average"), _FLAG),
    **dict.fromkeys(("synth", "forest"), ((lambda v: isinstance(v, dict)), "section {!r} must be an object")),
    "indicators": ((lambda v: isinstance(v, list)), "section {!r} must be a list"),
    "train_range": _RANGE,
    "test_range": _RANGE,
    "macro_source": _one_of("indicator", "revenue"),
    "output_format": _one_of(*REPORT_FORMATS),
    "model": _one_of("m1", "m2", "m3"),
    "mode": _one_of("models", "horizons", "expert"),
    "seed": ((lambda v: True), "{!r} must be a nonnegative integer"),  # checked, and named, by ForestParams or SynthSpec
}


def _check(key: str, value):
    """value, which must pass the check SETTINGS gives for key."""
    check, what = SETTINGS[key]
    if not check(value):
        raise ValidationError(f"config {what.format(key)}, got {value!r}")
    return value


def _reject_unknown(where: str, keys, known) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ValidationError(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected some of {', '.join(sorted(known))}"
        )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"config file {path} must hold a JSON object, got {cfg!r}")
    _reject_unknown(f"config file {path}", cfg, SETTINGS)
    for key, value in cfg.items():
        _check(key, value)
    if "seed" in cfg.get("forest", {}):
        raise ValidationError(
            "config section 'forest' must not set 'seed': the forest is seeded by the top-level 'seed' (or --seed)"
        )
    return cfg


def _parse_range(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing {key!r}")
    return tuple(map(_quarter, _check(key, cfg[key])))


def _build(cls, section: str, settings: dict):
    """cls(**settings), with unknown keys and bad values named as config errors."""
    _reject_unknown(f"config section {section!r}", settings, [f.name for f in fields(cls)])
    try:
        return cls(**settings)
    except TypeError as exc:
        raise ValidationError(f"config section {section!r}: {exc}") from None
    except ValidationError as exc:
        raise type(exc)(f"config section {section!r}: {exc}") from None


def _forest_params(args, cfg: dict) -> quartercast.ForestParams:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValidationError("models m2 and m3 require a seed")
    quartercast.forest.resolve_threads()  # reject a malformed QUARTERCAST_THREADS before any fitting
    return _build(quartercast.ForestParams, "forest", {**cfg.get("forest", {}), "seed": seed})


def _indicator(k: int, item) -> IndicatorConfig:
    where = f"config section 'indicators' item {k}"
    if not isinstance(item, dict) or "id" not in item:
        raise ValidationError(f"{where} must be an object with an 'id', got {item!r}")
    _reject_unknown(where, item, ("id", "geos"))
    geos = item.get("geos")
    if geos is not None and not (isinstance(geos, list) and all(isinstance(g, str) for g in geos)):
        raise ValidationError(f"{where}: 'geos' must be a list of geography names, got {geos!r}")
    try:
        return IndicatorConfig(indicator_id=item["id"], geos=None if geos is None else tuple(geos))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _feature_config(cfg: dict) -> FeatureConfig:
    return FeatureConfig(
        indicators=tuple(_indicator(k, item) for k, item in enumerate(cfg.get("indicators", []))),
        macro_at_origin=cfg.get("macro_at_origin", True),
        macro_at_target=cfg.get("macro_at_target", True),
        macro_source=cfg.get("macro_source", "indicator"),
        lag_includes_origin=cfg.get("lag_includes_origin", True),
    )


def _load_dataset(cfg: dict):
    if "revenue_csv" not in cfg:
        raise ValidationError("config is missing 'revenue_csv'")
    dataset = load_revenue_csv(cfg["revenue_csv"])
    if "indicators_csv" in cfg:
        dataset = with_indicators(dataset, load_indicator_csv(cfg["indicators_csv"]))
    return dataset


def _needed(args, cfg: dict, flag: str, key: str, command: str):
    """The value given as --flag, else cfg[key]; ``command`` cannot run without one."""
    value = getattr(args, flag) or cfg.get(key)
    if value is None:
        raise ValidationError(f"{command} needs --{flag} (or {key!r} in the config)")
    return value


def _cmd_synth(args, cfg: dict) -> int:
    synth = dict(cfg.get("synth", {}))
    seed = args.seed if args.seed is not None else synth.get("seed", cfg.get("seed"))
    if seed is not None:
        synth["seed"] = seed
    if "start" in synth:  # a start that names no quarter is left for SynthSpec to name
        synth["start"] = _quarter(synth["start"]) or synth["start"]
    spec = _build(SynthSpec, "synth", synth)
    out = _needed(args, cfg, "out", "out", "synth")
    indicators_out = cfg.get("indicators_out", f"{Path(out).with_suffix('')}_indicators.csv")
    dataset = generate_synthetic(spec)
    write_revenue_csv(dataset, out)
    write_indicator_csv(dataset.indicators, indicators_out)
    print(f"wrote {out} and {indicators_out}")
    return 0


def _cmd_forecast(args, cfg: dict) -> int:
    """Final-origin forecasts: horizon 1 (m1) or 1..4 (m2/m3) past history end."""
    model = _needed(args, cfg, "model", "model", "forecast")
    out = _needed(args, cfg, "out", "out", "forecast")
    dataset = _load_dataset(cfg)
    config = quartercast.model_config(model, _feature_config(cfg))
    if model == "m1":
        origin = dataset.total.end
        results = quartercast.model1_run(dataset, [origin], cfg.get("model1_include_average", True))
        rows = [
            (geo, quarter_add(origin, 1), 1, result.forecast, result.chosen)
            for (geo, _), result in results.items()
        ]
    else:
        run = quartercast.final_origin_forecasts(
            dataset, _parse_range(cfg, "train_range"), _forest_params(args, cfg), config
        )
        rows = [(geo, target, h, fc, model) for (geo, target, h), fc in sorted(run.predictions.items())]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geo", "fiscal_year", "fiscal_quarter", "horizon", "forecast", "source"])
        for geo, target, h, fc, source in rows:
            writer.writerow([geo, target.year, target.quarter, h, repr(float(fc)), source])
    print(f"wrote {out}")
    return 0


def _cmd_backtest(args, cfg: dict) -> int:
    model = _needed(args, cfg, "model", "model", "backtest")
    out = _needed(args, cfg, "out", "out", "backtest")
    dataset = _load_dataset(cfg)
    report = quartercast.backtest(
        dataset, model, _parse_range(cfg, "train_range"), _parse_range(cfg, "test_range"),
        config=_feature_config(cfg),
        forest_params=_forest_params(args, cfg) if model in ("m2", "m3") else None,
        include_average=cfg.get("model1_include_average", True),
    )
    write_report(report, cfg.get("output_format", "json"), out)
    print(f"wrote {out}")
    return 0


def _cmd_compare(args, cfg: dict) -> int:
    mode = args.mode or cfg.get("mode")
    out = _needed(args, cfg, "out", "out", "compare")
    needs = f"compare --mode {mode}"
    if mode == "models":
        baseline = read_report(_needed(args, cfg, "baseline", "baseline_report", needs))
        candidate = read_report(_needed(args, cfg, "candidate", "candidate_report", needs))
        table = quartercast.compare_reports(baseline, candidate)
    elif mode == "horizons":
        table = quartercast.compare_horizons(read_report(_needed(args, cfg, "report", "report", needs)))
    elif mode == "expert":
        report = read_report(_needed(args, cfg, "report", "report", needs))
        expert = load_expert_forecasts_csv(_needed(args, cfg, "expert", "expert_csv", needs))
        table = quartercast.compare_expert(report, expert)
    else:
        raise ValidationError(f"compare mode must be models, horizons or expert, got {mode!r}")
    write_report(table, cfg.get("output_format", "json"), out)
    print(f"wrote {out}")
    return 0


# Each command's handler and the flags it reads, beside --config.
_COMMANDS = {
    "synth": (_cmd_synth, ("seed", "out")),
    "forecast": (_cmd_forecast, ("model", "seed", "out")),
    "backtest": (_cmd_backtest, ("model", "seed", "out")),
    "compare": (_cmd_compare, ("mode", "out", "baseline", "candidate", "report", "expert")),
}
_FLAG_HELP = {"model": "m1, m2 or m3", "out": "output file path", "mode": "models, horizons or expert"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quartercast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # so "--mode" is not read as "--model"
        p.add_argument("--config", default=None, help="JSON configuration file")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int if flag == "seed" else str, default=None, help=_FLAG_HELP.get(flag))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuartercastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
