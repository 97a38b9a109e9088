"""Run every workload, untraced and traced, over one or more seeds.

    python3 perfbench/suite.py                       # each workload once, seed 20240
    python3 perfbench/suite.py --runs 10 --trace 0   # seeds 20240..20249, end-to-end only
    python3 perfbench/suite.py --runs 10 --out perfbench/baselines/NAME.json

Runs every workload of BENCHMARK.json for its ``run_seconds``, with the
seeds 20240, 20241, ...  Each run is a separate ``run.py`` process,
started one at a time, so peak memory is per workload and load stays on
one process.  Prints, for every workload and metric, the median, the
quartiles and the spread (distance between the quartiles as a share of
the median), and marks end-to-end metrics whose spread exceeds a third of
their bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIRST_SEED = 20240


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its environment and result lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [FIRST_SEED + k for k in range(args.runs)]

    summary, env, all_correct = {}, None, True
    for workload in names:
        per_metric: dict = {}
        for trace in traces:
            for seed in seeds:
                env, result = run_once(workload, seed, seconds, trace)
                all_correct &= result["correct"]
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"checks={result['attempted']} failed={result['failed']}", flush=True)
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        summary[workload] = {name: {"unit": unit, **summarize(values)}
                             for name, (unit, values) in per_metric.items()}

    for workload, metrics in summary.items():
        print(f"\n== {workload} ({len(seeds)} seeds, {seconds} s per run)")
        for name, m in metrics.items():
            flag = ""
            if name in bounds and m["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
            print(f"{name:42s} {m['median']:>14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}{flag}")

    if args.out:
        env = {k: v for k, v in env.items() if k not in ("workload", "seed", "seconds", "trace")}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "environment": env, "seeds": seeds, "seconds_per_run": seconds,
            "workloads": summary}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
