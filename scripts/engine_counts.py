"""Count the lockstep search engine's work in one job of each benchmark workload.

    python3 scripts/engine_counts.py --seed 1 m1-backtest m2m3-backtest
    python3 scripts/engine_counts.py --size smoke --seed 1 m1-backtest m2m3-backtest forest-sweep
    python3 scripts/engine_counts.py --check
    python3 scripts/engine_counts.py --split --seed 1 m1-backtest m2m3-backtest

Run from anywhere in a source checkout; the program is imported from
``src/`` and the workloads from ``perfbench/workloads.py``, whose inputs
are made in a temporary directory.  For each workload it runs one
job on a fresh cache and prints one line:

- runs: calls of ``_optim.nelder_mead_batch`` (one lockstep run each);
- passes: calls of ``_optim._centroid``, which every pass of a run makes once;
- calls and rows of the ARIMA (``arima._CssObjective``) and ETS
  (``ets._SseObjective``) objectives: how often each is called and how
  many points it scores in all.

The counts depend only on the program, the workload, its size and the
seed, not on the machine, so two commits can be compared run for run.
``--check`` runs every workload and seed that ``ENGINE_COUNTS.json`` (at
the repository root) lists, at full size, and exits 1 when any count
differs from the file's; a change that moves a count on purpose updates
the file from the printed lines.

``--split`` also prints, after the counts, one line per run of each job:
its objective (``arima`` or ``ets``), its members and passes, and the
seconds spent in the objective and in the kernel (the run's time less
its objective calls), with the microseconds per pass of each.  These
timings depend on the machine; they are printed apart from the counts,
and ``--check`` never compares them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from quartercast import _optim, arima, ets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("runs", "passes", "arima_calls", "arima_rows", "ets_calls", "ets_rows")
COUNTS_FILE = ROOT / "ENGINE_COUNTS.json"


def split_run(runs, run):
    """``_optim.nelder_mead_batch`` timed: each call appends [objective, members, passes, objective_s, kernel_s] to runs."""

    def timed(f, start, dims, *args, **kwargs):
        split = [type(f).__module__.rpartition(".")[2], len(dims), 0, 0.0, 0.0]
        runs.append(split)

        def objective(members, X):
            began = time.perf_counter()
            values = f(members, X)
            split[3] += time.perf_counter() - began
            return values

        began = time.perf_counter()
        result = run(objective, start, dims, *args, **kwargs)
        split[4] = time.perf_counter() - began - split[3]
        return result

    return timed


def counted_job(workload, runs=None) -> dict:
    """The counts of one job of ``workload``, its inputs already made.

    With a list ``runs``, each lockstep run of the job also appends its
    split (see split_run) to it.
    """
    counts = dict.fromkeys(COUNTS, 0)
    batch = _optim.nelder_mead_batch if runs is None else split_run(runs, _optim.nelder_mead_batch)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def objective(prefix, original):
        def call(self, members, X):
            counts[f"{prefix}_calls"] += 1
            counts[f"{prefix}_rows"] += len(members)
            return original(self, members, X)

        return call

    def passes(original):
        def wrapper(*args):
            counts["passes"] += 1
            if runs:
                runs[-1][2] += 1
            return original(*args)

        return wrapper

    with mock.patch.object(_optim, "nelder_mead_batch", counting("runs", batch)), \
            mock.patch.object(_optim, "_centroid", passes(_optim._centroid)), \
            mock.patch.object(arima._CssObjective, "__call__", objective("arima", arima._CssObjective.__call__)), \
            mock.patch.object(ets._SseObjective, "__call__", objective("ets", ets._SseObjective.__call__)):
        workload.load()
        workload.run()
    return counts


def measured(name: str, size: str, seed: int, runs=None) -> dict:
    """The counts of one job of workload ``name``, its inputs made in a temporary directory."""
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[name](size, seed, Path(workdir))
        workload.make_inputs()
        return counted_job(workload, runs)


def print_splits(splits) -> None:
    """The split of every run: (workload, seed, runs) per job."""
    print(f"\n{'workload':<16} {'seed':>4} {'run':>3} {'objective':>9} {'members':>7} {'passes':>6} "
          f"{'objective_s':>11} {'kernel_s':>8} {'obj_us/pass':>11} {'kern_us/pass':>12}")
    for name, seed, runs in splits:
        for k, (objective, members, passes, objective_s, kernel_s) in enumerate(runs):
            per_pass = 1e6 / max(passes, 1)
            print(f"{name:<16} {seed:>4} {k:>3} {objective:>9} {members:>7} {passes:>6} "
                  f"{objective_s:>11.3f} {kernel_s:>8.3f} {objective_s * per_pass:>11.1f} {kernel_s * per_pass:>12.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(sorted(WORKLOADS)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--check", action="store_true", help=f"compare full-size counts with {COUNTS_FILE.name}")
    parser.add_argument("--split", action="store_true",
                        help="also print each run's members, passes and objective and kernel seconds")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(sorted(WORKLOADS))}")
    if args.check:
        jobs = [(name, int(seed), counts) for name, seeds in json.loads(COUNTS_FILE.read_text()).items()
                for seed, counts in seeds.items()]
        size = "full"
    elif args.workloads:
        jobs, size = [(name, args.seed, None) for name in args.workloads], args.size
    else:
        parser.error("name at least one workload, or give --check")

    print(f"{'workload':<16} {'seed':>4} " + " ".join(f"{name:>11}" for name in COUNTS))
    differences, splits = [], []
    for name, seed, expected in jobs:
        runs = [] if args.split else None
        counts = measured(name, size, seed, runs)
        print(f"{name:<16} {seed:>4} " + " ".join(f"{counts[k]:>11}" for k in COUNTS))
        if expected is not None and expected != counts:
            differences.append(f"{name} seed {seed}: {COUNTS_FILE.name} has {expected}")
        if runs is not None:
            splits.append((name, seed, runs))
    if splits:
        print_splits(splits)
    for line in differences:
        print(line, file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
