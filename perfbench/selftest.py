"""Self-test of the benchmark: a quick run of every workload.

    python3 perfbench/selftest.py

Checks that the workloads together cover every registered scenario once.
Then runs each workload in BENCHMARK.json once untraced and once traced,
with one pass each, and checks that every run is correct and prints
exactly the metrics BENCHMARK.json names, each with its declared unit and
a finite value.  Exits 1 on any mismatch.  Takes about a minute.
"""
from __future__ import annotations

import math
import sys

from suite import FIRST_SEED, ROOT, load_spec, run_once


def check_result(result: dict, expected: dict) -> list[str]:
    """Problems with one run's result line; expected maps name -> unit."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"{name}: printed but not named in BENCHMARK.json")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{name}: missing")
        elif got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{name}: value {got.get('value')!r} is not a finite number")
    return problems


def main() -> int:
    spec = load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from multipot import scenarios

    covered = sorted(n for names, _ in workloads.WORKLOADS.values() for n in names)
    if covered != scenarios.list_scenarios():
        failures += 1
        print(f"workloads cover {covered}, registered are {scenarios.list_scenarios()}")
    else:
        print(f"workloads cover each of the {len(covered)} scenarios once")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            _, result = run_once(workload, FIRST_SEED, 1, trace)
            problems = check_result(result, expected[trace])
            failures += len(problems)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} trace={trace}: {len(result['metrics'])} metrics {status}")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
