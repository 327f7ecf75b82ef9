"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic against hand-built spans, checks that the
tracer puts every original function back, then runs each workload at its
smallest size through run.py (traced, and forest-sweep untraced too) and
checks the result line against BENCHMARK.json.  Finally it runs run.py in
a directory that holds only BENCHMARK.json and this directory, where it
must fail without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import Recorder, Span, Tracer, layer_metrics, self_times, summarize  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def test_self_time_arithmetic() -> None:
    recorder = Recorder("hand-built")
    recorder.spans = [
        Span("pipeline.backtest", 0.0, 10.0, None, "r"),  # 0
        Span("arima.auto_select", 1.0, 3.0, 0, "r"),  # 1
        Span("ets.auto_select_ets", 2.0, 5.0, 0, "r"),  # 2: overlaps 1
        Span("_optim.nelder_mead.arima", 6.0, 7.0, 0, "r"),  # 3
        Span("arima.fit_arima", 1.5, 2.5, 1, "r"),  # 4
        Span("stl.stlf_forecast", 9.5, 11.0, 0, "r"),  # 5: runs past its parent
    ]
    recorder.rollup("arima.objective", 3, 0.25, 40)  # 6
    got = self_times(recorder.spans)
    # Parent: 10 minus the union [1,5] + [6,7] + [9.5,10] of its children.
    want = [4.5, 1.0, 3.0, 0.75, 1.0, 1.5, 0.25]
    check(all(close(g, w) for g, w in zip(got, want)) and len(got) == len(want),
          f"self times of hand-built spans: {got}")
    stats = summarize(recorder.spans)
    check(stats["arima.objective"].calls == 40, "a rollup span counts the calls it stands for")
    metrics = layer_metrics(recorder.spans, 10.0, 9.0)
    check(close(metrics["layer.arima.self_s"][0], 1.0 + 1.0 + 0.25), "layer self time sums its spans")
    check(close(metrics["layer._optim.self_s"][0], 0.75), "optimizer self time excludes its objective")
    check(close(metrics["trace.overhead_s"][0], 1.0), "tracing overhead is traced minus untraced wall")


def test_tracer_restores_originals() -> None:
    import quartercast as qc
    from quartercast import arima, ets, features, forest, pipeline

    def bindings():
        return {
            "quartercast.backtest": qc.backtest,
            "features.auto_select": features.auto_select,
            "arima.auto_select": arima.auto_select,
            "arima.nelder_mead": arima.nelder_mead,
            "ets.nelder_mead": ets.nelder_mead,
            "forest.train_forest": forest.train_forest,
            "pipeline.model1_forecast": pipeline.model1_forecast,
            "ForecastCache.get": features.ForecastCache.get,
        }

    before = bindings()
    tracer = Tracer(Recorder("restore"))
    tracer.install()
    during = bindings()
    tracer.uninstall()
    check(all(during[name] is not before[name] for name in before),
          "install wraps every binding a caller looks up")
    check(bindings() == before, "uninstall restores every original")


def _run(args, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in (w["name"] for w in spec["workloads"]):
        code, out = _run(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "smoke"])
        result = _result(out)
        check(code == 0 and result is not None, f"{name}: traced smoke run exits 0 with a result")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: correct, no failed operations")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == per_layer, f"{name}: traced metrics are exactly BENCHMARK.json's per_layer")
        calls = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "forest-sweep":
            check(all(calls[f"{m}.calls"] == 0 for m in
                      ("arima.auto_select", "ets.auto_select_ets", "stl.stlf_forecast")),
                  "forest-sweep makes no ARIMA, ETS or STL call")
        if name == "m1-backtest":
            check(calls["forest.train_forest.calls"] == 0 and calls["forest.predict_forest.calls"] == 0,
                  "m1-backtest makes no forest call")
            check(calls["features.cache.hits"] > 0, "m1-backtest reuses cached windows")
    code, out = _run(["--workload", "forest-sweep", "--seed", "3", "--seconds", "1", "--trace", "0",
                      "--size", "smoke"])
    result = _result(out)
    got = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
    check(code == 0 and got == end_to_end, "untraced metrics are exactly BENCHMARK.json's end_to_end")


def test_fails_without_program() -> None:
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        code, out = _run(["--workload", "m1-backtest", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and _result(out) is None, "without the program it fails and prints no result")


def main() -> int:
    test_self_time_arithmetic()
    test_tracer_restores_originals()
    test_fails_without_program()
    test_smoke_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
