"""Command-line interface.

Subcommands: synth (emit a synthetic dataset), forecast (one model,
forecasts out), backtest (evaluation report), compare (two reports, a
report against expert forecasts, or a report against its own horizon 1).
Each takes --config <json file>; --model, --seed and --out override the
config.  Exit codes: 0 success, 2 validation error, 3 insufficient data,
4 nonconvergence.

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
    return cfg


def _parse_range(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing {key!r}")
    value = cfg[key]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"config {key!r} must be a [start, end] pair, got {value!r}")
    lo, hi = value
    return parse_quarter(str(lo)), parse_quarter(str(hi))


def _build(cls, section: str, settings: dict):
    """cls(**settings), with unknown keys and bad values named as config errors."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(settings) - known)
    if unknown:
        raise ValidationError(
            f"config section {section!r} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected some of {', '.join(sorted(known))}"
        )
    try:
        return cls(**settings)
    except TypeError as exc:
        raise ValidationError(f"config section {section!r}: {exc}") from None
    except ValidationError as exc:
        raise type(exc)(f"config section {section!r}: {exc}") from None


def _section(cfg: dict, key: str, kind: type, default):
    """cfg[key] (or default), which must be a ``kind``: a JSON object or list."""
    value = cfg.get(key, default)
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ValidationError(f"config section {key!r} must be {what}, got {value!r}")
    return value


def _forest_params(cfg: dict, seed) -> quartercast.ForestParams:
    forest = dict(_section(cfg, "forest", dict, {}))
    if seed is None:
        raise ValidationError("models m2 and m3 require a seed")
    forest["seed"] = seed
    quartercast.forest.resolve_threads()  # reject a malformed QUARTERCAST_THREADS before any fitting
    return _build(quartercast.ForestParams, "forest", forest)


def _indicator(k: int, item) -> IndicatorConfig:
    where = f"config section 'indicators' item {k}"
    if not isinstance(item, dict) or "id" not in item:
        raise ValidationError(f"{where} must be an object with an 'id', got {item!r}")
    geos = item.get("geos")
    if geos is not None and not (isinstance(geos, list) and all(isinstance(g, str) for g in geos)):
        raise ValidationError(f"{where}: 'geos' must be a list of geography names, got {geos!r}")
    try:
        return IndicatorConfig(indicator_id=item["id"], geos=None if geos is None else tuple(geos))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _flag(cfg: dict, key: str) -> bool:
    """cfg[key] (default true), which must be a JSON boolean."""
    value = cfg.get(key, True)
    if not isinstance(value, bool):
        raise ValidationError(f"config {key!r} must be true or false, got {value!r}")
    return value


def _feature_config(cfg: dict) -> FeatureConfig:
    indicators = tuple(_indicator(k, item) for k, item in enumerate(_section(cfg, "indicators", list, [])))
    return FeatureConfig(
        indicators=indicators,
        macro_at_origin=_flag(cfg, "macro_at_origin"),
        macro_at_target=_flag(cfg, "macro_at_target"),
        macro_source=str(cfg.get("macro_source", "indicator")),
        lag_includes_origin=_flag(cfg, "lag_includes_origin"),
    )


def _path(cfg: dict, key: str, given: str | None = None) -> str | None:
    """The file path given on the command line, else cfg[key] (None when unset),
    which must be a non-empty string."""
    value = given or cfg.get(key)
    if value is not None and not (isinstance(value, str) and value):
        raise ValidationError(f"config {key!r} must be a non-empty file path, got {value!r}")
    return value


def _load_dataset(cfg: dict):
    if "revenue_csv" not in cfg:
        raise ValidationError("config is missing 'revenue_csv'")
    revenue_csv, indicators_csv = cfg["revenue_csv"], cfg.get("indicators_csv")
    if not isinstance(revenue_csv, str):
        raise ValidationError(f"config 'revenue_csv' must be a file path, got {revenue_csv!r}")
    if indicators_csv is not None and not isinstance(indicators_csv, str):
        raise ValidationError(f"config 'indicators_csv' must be a file path or null, got {indicators_csv!r}")
    dataset = load_revenue_csv(revenue_csv)
    if indicators_csv:
        dataset = with_indicators(dataset, load_indicator_csv(indicators_csv))
    return dataset


def _cmd_synth(args, cfg: dict) -> int:
    synth_cfg = dict(_section(cfg, "synth", dict, {}))
    if args.seed is not None:
        synth_cfg["seed"] = args.seed
    if "start" in synth_cfg:
        synth_cfg["start"] = parse_quarter(str(synth_cfg["start"]))
    spec = _build(SynthSpec, "synth", synth_cfg)
    out = _out(args, cfg, "synth")
    indicators_out = _path(cfg, "indicators_out") or str(Path(out).with_suffix("")) + "_indicators.csv"
    dataset = generate_synthetic(spec)
    write_revenue_csv(dataset, out)
    write_indicator_csv(dataset.indicators, indicators_out)
    print(f"wrote {out} and {indicators_out}")
    return 0


def _out(args, cfg: dict, command: str) -> str:
    out = _path(cfg, "out", args.out)
    if out is None:
        raise ValidationError(f"{command} needs --out (or 'out' in the config)")
    return out


def _output_format(cfg: dict) -> str:
    fmt = cfg.get("output_format", "json")
    if fmt not in REPORT_FORMATS:
        raise ValidationError(f"config 'output_format' must be 'json' or 'csv', got {fmt!r}")
    return fmt


def _cmd_forecast(args, cfg: dict) -> int:
    """Final-origin forecasts: horizon 1 (m1) or 1..4 (m2/m3) past history end."""
    model = args.model or cfg.get("model")
    if model is None:
        raise ValidationError("forecast needs --model (or 'model' in the config)")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    out = _out(args, cfg, "forecast")
    dataset = _load_dataset(cfg)
    config = quartercast.model_config(model, _feature_config(cfg))
    if model == "m1":
        origin = dataset.total.end
        results = quartercast.model1_run(dataset, [origin], _flag(cfg, "model1_include_average"))
        rows = [
            (geo, quarter_add(origin, 1), 1, result.forecast, result.chosen)
            for (geo, _), result in results.items()
        ]
    else:
        run = quartercast.final_origin_forecasts(
            dataset, _parse_range(cfg, "train_range"), _forest_params(cfg, seed), config
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
    model = args.model or cfg.get("model")
    if model is None:
        raise ValidationError("backtest needs --model (or 'model' in the config)")
    out, fmt = _out(args, cfg, "backtest"), _output_format(cfg)
    dataset = _load_dataset(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    report = quartercast.backtest(
        dataset, model, _parse_range(cfg, "train_range"), _parse_range(cfg, "test_range"),
        config=_feature_config(cfg),
        forest_params=_forest_params(cfg, seed) if model in ("m2", "m3") else None,
        include_average=_flag(cfg, "model1_include_average"),
    )
    write_report(report, fmt, out)
    print(f"wrote {out}")
    return 0


def _cmd_compare(args, cfg: dict) -> int:
    mode = args.mode or cfg.get("mode")
    out, fmt = _out(args, cfg, "compare"), _output_format(cfg)
    if mode == "models":
        baseline = _path(cfg, "baseline_report", args.baseline)
        candidate = _path(cfg, "candidate_report", args.candidate)
        if not baseline or not candidate:
            raise ValidationError("compare --mode models needs --baseline and --candidate")
        table = quartercast.compare_reports(read_report(baseline), read_report(candidate))
    elif mode == "horizons":
        report = _path(cfg, "report", args.report)
        if not report:
            raise ValidationError("compare --mode horizons needs --report")
        table = quartercast.compare_horizons(read_report(report))
    elif mode == "expert":
        report = _path(cfg, "report", args.report)
        expert = _path(cfg, "expert_csv", args.expert)
        if not report or not expert:
            raise ValidationError("compare --mode expert needs --report and --expert")
        table = quartercast.compare_expert(read_report(report), load_expert_forecasts_csv(expert))
    else:
        raise ValidationError(f"compare mode must be models, horizons or expert, got {mode!r}")
    write_report(table, fmt, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quartercast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("synth", _cmd_synth),
        ("forecast", _cmd_forecast),
        ("backtest", _cmd_backtest),
        ("compare", _cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--model", default=None, help="m1, m2 or m3")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output file path")
        if name == "compare":
            p.add_argument("--mode", default=None, help="models, horizons or expert")
            p.add_argument("--baseline", default=None)
            p.add_argument("--candidate", default=None)
            p.add_argument("--report", default=None)
            p.add_argument("--expert", default=None)
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
