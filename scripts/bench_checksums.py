"""Check the benchmark's output checksums against perfbench/README.md.

    python3 scripts/bench_checksums.py --seed 1 2 --seconds 1 m1-backtest m2m3-backtest

For each seed and workload, runs ``perfbench/run.py --trace 0`` in one
temporary copy of ``src/`` and ``perfbench/`` (the checkout is only read),
then compares the sha256 of every output with the first 16 hex digits that
the "Output checksums" tables of ``perfbench/README.md`` give for the seed.
Exits 1 when a run fails or reports a failed operation, or when an output's
checksum differs from the table or is missing.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def expected_checksums(readme: str) -> dict:
    """{workload: {seed: {output file: first 16 hex digits}}} from the README's checksum tables."""
    section = readme.split("### Output checksums", 1)[1]
    tables: dict = {}
    workload = files = None
    for line in section.splitlines():
        heading = re.fullmatch(r"\*\*([\w-]+)\*\*", line.strip())
        if heading:
            workload, files = heading.group(1), None
            tables[workload] = {}
        elif line.startswith("| seed |"):
            files = re.findall(r"`([^`]+)`", line)
        elif workload and files and re.match(r"\| \d+ \|", line):
            seed, *digests = [cell.strip() for cell in line.strip("|").split("|")]
            tables[workload][int(seed)] = dict(zip(files, digests))
    return tables


def run_workload(workdir: Path, workload: str, seed: int, seconds: float):
    """(correct, {output file: sha256}) of one run.py run in workdir."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=workdir, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return False, {}
    lines = proc.stdout.splitlines()
    digests = dict(
        reversed(match.groups())
        for match in (re.fullmatch(r"\s*sha256 ([0-9a-f]{64})  (\S+)", line) for line in lines)
        if match
    )
    return json.loads(lines[-1])["correct"], digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    tables = expected_checksums((ROOT / "perfbench" / "README.md").read_text(encoding="utf-8"))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, workdir / name, ignore=shutil.ignore_patterns("work", "__pycache__"))
        for seed in args.seed:
            for workload in args.workloads:
                expected = tables.get(workload, {}).get(seed)
                if not expected:
                    print(f"{workload}: perfbench/README.md has no checksums for seed {seed}")
                    bad += 1
                    continue
                correct, digests = run_workload(workdir, workload, seed, args.seconds)
                if not correct:
                    print(f"{workload} seed {seed}: the run failed")
                    bad += 1
                for output, prefix in expected.items():
                    got = digests.get(output, "missing")
                    ok = got.startswith(prefix)
                    bad += not ok
                    print(f"{workload} seed {seed} {output}: {got[:16]} {'==' if ok else '!='} {prefix}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
