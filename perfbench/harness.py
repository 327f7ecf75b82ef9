"""The benchmark's child processes.

``harness.py setup`` is one set-up: interpreter start, import, input
generation and writing the inputs.  ``run.py`` times it from outside.

``harness.py jobs`` is the job process.  It runs the workload's job as a
closed loop (one client; each job starts after the previous one ends)
until ``--seconds`` have passed, then, given ``--spans``, one traced job
whose spans it writes there, then one repeat with ``QUARTERCAST_THREADS=1``.
After every job it checks the outputs and hashes them; every job must
produce the same hashes.  It writes what it measured to ``--result`` as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path



class Operations:
    """Attempted and failed operations: public calls a job makes, and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is the largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_job(workload, cache=None):
    """(result or None, wall_s, cpu_s) of one job."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result = workload.run(cache)
    except Exception:
        traceback.print_exc()
        result = None
    return result, time.perf_counter() - t0, _cpu_s() - cpu0


def _verify(workload, result, tag: str, ops: Operations) -> dict[str, str] | None:
    """Count the job's calls, run its output checks, and hash its artifacts."""
    if result is None:
        ops.record(f"{tag}: job raised", False)
        return None
    ops.attempted += result.calls
    try:
        checks, artifacts = workload.check(result)
    except Exception:
        traceback.print_exc()
        ops.record(f"{tag}: checks raised", False)
        return None
    for name, ok in checks:
        ops.record(f"{tag}: {name}", ok)
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}


def _job(workload, tag: str, ops: Operations, cache=None, tracer=None) -> dict:
    """Run, check and hash one job.

    Only its figures, checksums and cache outlive this call, so no job's
    outputs are alive while the next job runs.
    """
    if tracer is not None:
        tracer.install()
    try:
        result, wall, cpu = _timed_job(workload, cache)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "tag": tag,
        "wall_s": wall,
        "cpu_s": cpu,
        "forecasts": result.forecasts if result else 0,
        "checksums": _verify(workload, result, tag, ops),
        "cache": result.cache if result else None,
    }


def run_jobs(workload, seconds: float, spans_path: Path | None) -> dict:
    """Timed jobs, then one traced job when ``spans_path`` is given, then the repeat."""
    from quartercast.forest import THREADS_ENV_VAR, resolve_threads

    ops = Operations()
    # The timed jobs run at the program's default worker count.
    os.environ.pop(THREADS_ENV_VAR, None)
    workers = resolve_threads()
    workload.load()

    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(_job(workload, f"timed job {len(timed) + 1}", ops))
    peak_rss_mb = _peak_rss_mb()
    later = timed[1:]

    traced = None
    if spans_path is not None:
        from spans import Recorder, Tracer, layer_metrics, write_spans

        recorder = Recorder(f"{workload.name}-seed{workload.seed}-traced")
        job = _job(workload, "traced job", ops, tracer=Tracer(recorder))
        later.append(job)
        write_spans(recorder.spans, spans_path)
        untraced = statistics.median(j["wall_s"] for j in timed)
        metrics = layer_metrics(recorder.spans, job["wall_s"], untraced)
        traced = {name: [value, unit] for name, (value, unit) in metrics.items()}

    # The determinism repeat.  Backtests take their window fits from the
    # first timed job's cache, so the repeat costs little besides what the
    # thread count reaches today (forest training); forest-sweep has no
    # cache and repeats in full.
    os.environ[THREADS_ENV_VAR] = "1"
    try:
        later.append(_job(workload, f"{THREADS_ENV_VAR}=1 repeat", ops, cache=timed[0]["cache"]))
    finally:
        os.environ.pop(THREADS_ENV_VAR, None)

    reference = timed[0]["checksums"]
    for job in later:
        ops.record(
            f"{job['tag']}: checksums equal the first timed job's",
            reference is not None and job["checksums"] == reference,
        )

    import numpy

    return {
        "jobs": [{key: j[key] for key in ("wall_s", "cpu_s", "forecasts")} for j in timed],
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "checksums": reference or {},
        "traced": traced,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "resolved_workers": workers,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "jobs"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, help="run one traced job and write its spans here")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed, args.workdir)
    if args.role == "setup":
        workload.make_inputs()
        return 0
    out = run_jobs(workload, args.seconds, args.spans)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
