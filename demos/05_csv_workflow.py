"""Demo: the file-based workflow end to end via the command line interface.

Everything the CLI does is driven by a JSON config plus CSV inputs:
  quartercast synth    --config cfg.json --out revenue.csv
  quartercast backtest --config cfg.json --model m1 --out m1.json
  quartercast compare  --mode models --baseline m1.json --candidate m2.json
  quartercast forecast --config cfg.json --model m2 --out m2_forecast.csv
This script runs those commands in-process inside a temp directory and
shows the artifacts they produce.  ``forecast --model m1`` fits the
Model-1 windows of every series in one run.

Runtime: several seconds.
"""

import json
import tempfile
from pathlib import Path

from quartercast.cli import main as cli


def run(args):
    print(f"$ quartercast {' '.join(args)}")
    rc = cli(args)
    assert rc == 0, f"exit code {rc}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        revenue = tmp / "revenue.csv"
        config = {
            "synth": {"n_geos": 2, "n_quarters": 24, "noise_scale": 0.8, "seed": 11},
            "revenue_csv": str(revenue),
            "train_range": ["2013Q1", "2013Q4"],
            "test_range": ["2014Q1", "2014Q4"],
            "seed": 3,
            "forest": {"n_trees": 60},
        }
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(config, indent=2))

        run(["synth", "--config", str(cfg), "--out", str(revenue)])
        run(["backtest", "--config", str(cfg), "--model", "m1", "--out", str(tmp / "m1.json")])
        run(["backtest", "--config", str(cfg), "--model", "m2", "--out", str(tmp / "m2.json")])
        run(
            [
                "compare", "--mode", "models",
                "--baseline", str(tmp / "m1.json"),
                "--candidate", str(tmp / "m2.json"),
                "--out", str(tmp / "m2_vs_m1.json"),
            ]
        )
        run(["compare", "--mode", "horizons", "--report", str(tmp / "m2.json"),
             "--out", str(tmp / "horizons.json")])

        for model in ("m1", "m2"):
            run(["forecast", "--config", str(cfg), "--model", model,
                 "--out", str(tmp / f"{model}_forecast.csv")])

        table = json.loads((tmp / "m2_vs_m1.json").read_text())
        print("\nmodel 2 vs model 1 at horizon 1:")
        for label, row in zip(table["row_labels"], table["cells"]):
            cell = "n/a" if row[0] is None else f"{row[0]:.2f}"
            print(f"  {label:<8} {cell}")

        horizons = json.loads((tmp / "horizons.json").read_text())
        print("\nmodel 2, horizons 2-4 relative to horizon 1:")
        print("  geo      " + "  ".join(f"{c:>10}" for c in horizons["col_labels"]))
        for label, row in zip(horizons["row_labels"], horizons["cells"]):
            cells = ["       n/a" if v is None else f"{v:10.2f}" for v in row]
            print(f"  {label:<8} " + "  ".join(cells))

        for model in ("m1", "m2"):
            print(f"\n{model} forecasts past the end of history:")
            print((tmp / f"{model}_forecast.csv").read_text().rstrip())


if __name__ == "__main__":
    main()
