"""quartercast benchmark: one workload, timed end to end, its outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (interpreter start, import, input generation, writing the
inputs) runs several times in fresh processes and is timed from outside.
One job process then runs the workload's job in a closed loop for S
seconds, checks every job's outputs, and repeats the job with
``QUARTERCAST_THREADS=1``.  With ``--trace 1`` it also runs one traced job
and this prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it name every metric with its unit, the sha256 of every
output, and the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARNESS = HERE / "harness.py"
WORKLOADS = ("m1-backtest", "m2m3-backtest", "forest-sweep")
THREADS_ENV_VAR = "QUARTERCAST_THREADS"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
DEADLINE_S = 170  # a run ends within 180 s even when the job process is killed
RESULTS = HERE / "work" / "results"
# Ratios printed with their bases in a traced run: (label, numerator, base).
RATIOS = (
    ("cache hits / requests", "features.cache.hits", "features.cache.requests"),
    ("ARIMA optimizer cap hits / calls", "_optim.nelder_mead.arima.cap_hits", "_optim.nelder_mead.arima.calls"),
    ("ETS optimizer cap hits / calls", "_optim.nelder_mead.ets.cap_hits", "_optim.nelder_mead.ets.calls"),
    ("ARIMA orders failed / attempted", "arima.fit_arima.failed", "arima.fit_arima.calls"),
    ("ETS specs failed / attempted", "ets.fit_ets.failed", "ets.fit_ets.calls"),
    ("forest workers / nproc", "forest.workers", "env.nproc"),
)


class ChildFailed(Exception):
    pass


def _run_name(args) -> str:
    size = "" if args.size == "full" else f"-{args.size}"
    return f"{args.workload}{size}-seed{args.seed}"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop(THREADS_ENV_VAR, None)
    return env


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quartercast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _harness(role: str, args, workdir: Path, timeout: float, extra=()) -> float:
    """Run one child process to its end; returns its lifetime in seconds.

    A watchdog kills the child at ``timeout``.  Waiting without a timeout
    blocks in waitpid, so the lifetime is exact; ``Popen.wait(timeout)``
    would poll in steps of up to 50 ms.
    """
    cmd = [
        sys.executable, str(HARNESS), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--workdir", str(workdir), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=sys.stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        limit = f" at its {timeout:.0f} s limit" if elapsed >= timeout else ""
        raise ChildFailed(f"{role} process exited with code {code}{limit}")
    return elapsed


def measure(args, workdir: Path) -> dict:
    """Run the set-ups and the job process; returns the job process's record plus set-up times."""
    started = time.perf_counter()
    setups = [
        _harness("setup", args, workdir, SETUP_TIMEOUT_S)
        for _ in range(1 if args.trace else SETUP_REPEATS)
    ]
    result_path = workdir / "result.json"
    extra = ["--seconds", str(args.seconds), "--result", str(result_path)]
    if args.trace:
        extra += ["--spans", str(RESULTS / f"{_run_name(args)}-spans.jsonl")]
    _harness("jobs", args, workdir, DEADLINE_S - (time.perf_counter() - started), extra)
    record = json.loads(result_path.read_text())
    record["setup_s"] = setups
    return record


def end_to_end(record: dict) -> dict:
    jobs = record["jobs"]
    attempted = record["attempted"]
    return {
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "wall_s": (statistics.median(j["wall_s"] for j in jobs), "s"),
        "cpu_s": (statistics.median(j["cpu_s"] for j in jobs), "s"),
        "forecasts_per_s": (statistics.median(j["forecasts"] / j["wall_s"] for j in jobs), "1/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - len(record["failed"])) / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "quartercast" / "__init__.py").is_file():
        print(f"error: no quartercast sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env_record = {
        "nproc": os.cpu_count(),
        "QUARTERCAST_THREADS": os.environ.get(THREADS_ENV_VAR, "unset"),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }
    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        record = measure(args, workdir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_record.update(record["env"])
    metrics = record["traced"] if args.trace else end_to_end(record)
    attempted, failed = record["attempted"], len(record["failed"])

    jobs = record["jobs"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(jobs)} timed job(s) in {sum(j['wall_s'] for j in jobs):.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if args.trace:
        values = {name: value for name, (value, _) in metrics.items()}
        for label, numerator, base in RATIOS:
            print(f"  {label}: {values[numerator]}/{values[base]}")
        wall = values["trace.wall_s"]
        shares = ", ".join(
            f"{name.split('.')[1]} {value / wall:.3f}"
            for name, value in values.items() if name.startswith("layer.")
        )
        print(f"  layer self time / traced wall: {shares}")
    print(f"  error_rate = failed / attempted operations = {failed}/{attempted}")
    for name in record["failed"]:
        print(f"  FAILED: {name}")
    for name, digest in record["checksums"].items():
        print(f"  sha256 {digest}  {name}")
    print("env " + json.dumps(env_record, sort_keys=True))

    (RESULTS / f"{_run_name(args)}-trace{args.trace}.json").write_text(
        json.dumps({"env": env_record, "record": record}, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
