"""Command-line interface.

Subcommands: synth (emit a synthetic dataset), forecast (one model,
forecasts out), backtest (evaluation report), compare (two reports, a
report against expert forecasts, or a report against its own horizon 1).
Each takes --config <json file>; --model, --seed and --out override the
config.  Exit codes: 0 success, 2 validation error, 3 insufficient data,
4 nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import InsufficientDataError, NonconvergenceError, QuartercastError, ValidationError
from .features import FeatureConfig, IndicatorConfig
from .fiscal import parse_quarter, quarter_add
from .forest import ForestParams, resolve_threads
from .io import (
    load_expert_forecasts_csv,
    load_indicator_csv,
    load_revenue_csv,
    read_report,
    with_indicators,
    write_indicator_csv,
    write_report,
    write_revenue_csv,
)
from .pipeline import (
    backtest,
    compare_expert,
    compare_horizons,
    compare_reports,
    final_origin_forecasts,
    model1_forecast,
)
from .synth import SynthSpec, generate_synthetic


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None


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


def _forest_params(cfg: dict, seed) -> ForestParams:
    forest = dict(cfg.get("forest", {}))
    if seed is None:
        raise ValidationError("models m2 and m3 require a seed")
    forest["seed"] = int(seed)
    resolve_threads()  # reject a malformed QUARTERCAST_THREADS before any fitting
    return _build(ForestParams, "forest", forest)


def _feature_config(cfg: dict) -> FeatureConfig:
    indicators = tuple(
        IndicatorConfig(
            indicator_id=str(item["id"]),
            geos=tuple(item["geos"]) if item.get("geos") else None,
        )
        for item in cfg.get("indicators", [])
    )
    return FeatureConfig(
        indicators=indicators,
        macro_at_origin=bool(cfg.get("macro_at_origin", True)),
        macro_at_target=bool(cfg.get("macro_at_target", True)),
        macro_source=str(cfg.get("macro_source", "indicator")),
        lag_includes_origin=bool(cfg.get("lag_includes_origin", True)),
    )


def _load_dataset(cfg: dict):
    if "revenue_csv" not in cfg:
        raise ValidationError("config is missing 'revenue_csv'")
    dataset = load_revenue_csv(cfg["revenue_csv"])
    if cfg.get("indicators_csv"):
        dataset = with_indicators(dataset, load_indicator_csv(cfg["indicators_csv"]))
    return dataset


def _cmd_synth(args, cfg: dict) -> int:
    synth_cfg = dict(cfg.get("synth", {}))
    if args.seed is not None:
        synth_cfg["seed"] = args.seed
    if "start" in synth_cfg:
        synth_cfg["start"] = parse_quarter(str(synth_cfg["start"]))
    spec = _build(SynthSpec, "synth", synth_cfg)
    dataset = generate_synthetic(spec)
    out = args.out or cfg.get("out")
    if out is None:
        raise ValidationError("synth needs --out (or 'out' in the config)")
    write_revenue_csv(dataset, out)
    indicators_out = cfg.get("indicators_out") or str(Path(out).with_suffix("")) + "_indicators.csv"
    write_indicator_csv(dataset.indicators, indicators_out)
    print(f"wrote {out} and {indicators_out}")
    return 0


def _run_model_forecasts(cfg: dict, model: str, seed):
    """Final-origin forecasts: horizon 1 (m1) or 1..4 (m2/m3) past history end."""
    dataset = _load_dataset(cfg)
    config = _feature_config(cfg)
    origin = dataset.total.end
    rows = []
    if model == "m1":
        for geo in dataset.series_ids():
            result = model1_forecast(
                dataset.series_for(geo), origin, bool(cfg.get("model1_include_average", True))
            )
            rows.append((geo, quarter_add(origin, 1), 1, result.forecast, result.chosen))
    elif model in ("m2", "m3"):
        train_range = _parse_range(cfg, "train_range")
        params = _forest_params(cfg, seed)
        if model == "m3" and not config.indicators:
            raise ValidationError("model m3 requires at least one configured indicator")
        if model == "m2":
            config = FeatureConfig(
                indicators=(),
                lag_includes_origin=config.lag_includes_origin,
            )
        run = final_origin_forecasts(dataset, train_range, params, config)
        for (geo, target, h), fc in sorted(run.predictions.items()):
            rows.append((geo, target, h, fc, model))
    else:
        raise ValidationError(f"unknown model {model!r}, expected m1, m2 or m3")
    return rows


def _cmd_forecast(args, cfg: dict) -> int:
    model = args.model or cfg.get("model")
    if model is None:
        raise ValidationError("forecast needs --model (or 'model' in the config)")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    rows = _run_model_forecasts(cfg, model, seed)
    out = args.out or cfg.get("out")
    if out is None:
        raise ValidationError("forecast needs --out (or 'out' in the config)")
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
    dataset = _load_dataset(cfg)
    train_range = _parse_range(cfg, "train_range")
    test_range = _parse_range(cfg, "test_range")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    config = _feature_config(cfg)
    params = None
    if model in ("m2", "m3"):
        params = _forest_params(cfg, seed)
    if model == "m2":
        config = FeatureConfig(indicators=(), lag_includes_origin=config.lag_includes_origin)
    report = backtest(
        dataset,
        model,
        train_range,
        test_range,
        forest_params=params,
        config=config,
        include_average=bool(cfg.get("model1_include_average", True)),
    )
    out = args.out or cfg.get("out")
    if out is None:
        raise ValidationError("backtest needs --out (or 'out' in the config)")
    write_report(report, cfg.get("output_format", "json"), out)
    print(f"wrote {out}")
    return 0


def _cmd_compare(args, cfg: dict) -> int:
    mode = args.mode or cfg.get("mode")
    if mode == "models":
        baseline = args.baseline or cfg.get("baseline_report")
        candidate = args.candidate or cfg.get("candidate_report")
        if not baseline or not candidate:
            raise ValidationError("compare --mode models needs --baseline and --candidate")
        table = compare_reports(read_report(baseline), read_report(candidate))
    elif mode == "horizons":
        report = args.report or cfg.get("report")
        if not report:
            raise ValidationError("compare --mode horizons needs --report")
        table = compare_horizons(read_report(report))
    elif mode == "expert":
        report = args.report or cfg.get("report")
        expert = args.expert or cfg.get("expert_csv")
        if not report or not expert:
            raise ValidationError("compare --mode expert needs --report and --expert")
        table = compare_expert(read_report(report), load_expert_forecasts_csv(expert))
    else:
        raise ValidationError(f"compare mode must be models, horizons or expert, got {mode!r}")
    out = args.out or cfg.get("out")
    if out is None:
        raise ValidationError("compare needs --out (or 'out' in the config)")
    write_report(table, cfg.get("output_format", "json"), out)
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuartercastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
