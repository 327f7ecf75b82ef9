"""Demo: macro indicator features (Model 3 vs Model 2).

The synthetic generator links revenue to a common indicator level, so the
indicator's year-over-year growth is genuinely informative.  Model 3 adds
that growth (at the origin and, via ARIMA-forecast indicator values, at
the target quarter) to the feature set; the table compares the two models
per horizon on the worldwide aggregate.

Runtime: several seconds.
"""

from quartercast import (
    FeatureConfig,
    ForecastCache,
    ForestParams,
    IndicatorConfig,
    SynthSpec,
    TOTAL_ID,
    backtest,
    compare_reports,
    generate_synthetic,
    parse_quarter,
)


def main():
    spec = SynthSpec(
        n_geos=3, n_quarters=28, noise_scale=0.5, indicator_linkage=1.0, seed=2718
    )
    dataset = generate_synthetic(spec)
    train = (parse_quarter("2013Q1"), parse_quarter("2014Q4"))
    test = (parse_quarter("2015Q1"), parse_quarter("2015Q4"))
    params = ForestParams(n_trees=200, seed=9)
    cache = ForecastCache()  # both models share every window fit

    print("backtesting model 2...")
    report_m2 = backtest(dataset, "m2", train, test, forest_params=params, cache=cache)
    print("backtesting model 3 (indicator growth features enabled)...")
    config = FeatureConfig(indicators=(IndicatorConfig(spec.indicator_id),))
    report_m3 = backtest(
        dataset, "m3", train, test, forest_params=params, config=config, cache=cache
    )

    print(f"\n{TOTAL_ID} MAPE by horizon:")
    print("model      h=1      h=2      h=3      h=4")
    for label, rep in (("model 2", report_m2), ("model 3", report_m3)):
        cells = [rep.mape_for(TOTAL_ID, h) for h in (1, 2, 3, 4)]
        print(f"{label:<8}" + "".join(f" {v:8.3f}" for v in cells))

    table = compare_reports(report_m2, report_m3)
    print("\nmodel 3 relative to model 2 (positive = indicator features helped):")
    print("geo      " + "  ".join(f"{c:>10}" for c in table.col_labels))
    for geo, row in zip(table.row_labels, table.cells):
        cells = ["       n/a" if v is None else f"{v:10.2f}" for v in row]
        print(f"{geo:<8} " + "  ".join(cells))


if __name__ == "__main__":
    main()
