"""Demo: forest regression over forecast features, backtested (Models 1 vs 2).

Generates a small multi-geography dataset, backtests the trailing-MAPE
selector and the global regression forest over the final fiscal year, and
prints the per-horizon MAPE table plus the relative-performance table
(positive cells mean the forest improved on the selector).

Runtime: several seconds; every 16-quarter window refit is real.
"""

from quartercast import (
    ForecastCache,
    ForestParams,
    SynthSpec,
    backtest,
    compare_reports,
    generate_synthetic,
    parse_quarter,
)


def main():
    spec = SynthSpec(n_geos=3, n_quarters=26, noise_scale=1.0, seed=314)
    dataset = generate_synthetic(spec)
    train = (parse_quarter("2012Q3"), parse_quarter("2014Q2"))
    test = (parse_quarter("2014Q3"), parse_quarter("2015Q2"))
    cache = ForecastCache()  # shared so each rolling window is fit once

    print("backtesting model 1 (horizon 1)...")
    report_m1 = backtest(dataset, "m1", train, test, cache=cache)
    print("backtesting model 2 (horizons 1-4)...")
    report_m2 = backtest(
        dataset, "m2", train, test, forest_params=ForestParams(n_trees=200, seed=1), cache=cache
    )

    print("\nper-horizon MAPE, model 2:")
    print("geo         h=1      h=2      h=3      h=4")
    for geo in report_m2.geos:
        cells = [report_m2.mape_for(geo, h) for h in (1, 2, 3, 4)]
        print(f"{geo:<8}" + "".join(f" {v:8.3f}" for v in cells))

    table = compare_reports(report_m1, report_m2)
    print("\nmodel 2 relative to model 1 at horizon 1 ((x - y) / x * 100):")
    for geo, row in zip(table.row_labels, table.cells):
        cell = "n/a" if row[0] is None else f"{row[0]:.2f}"
        print(f"{geo:<8} {cell}")


if __name__ == "__main__":
    main()
