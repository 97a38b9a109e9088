"""Benchmark of the multipot library: one workload per invocation.

    python3 perfbench/run.py --workload tiny-measures --seed 20240 --seconds 35 --trace 0

Runs passes over the workload until ``--seconds`` have elapsed (at least
one), checks every output, and prints as its last stdout line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, measured untraced.  With ``--trace 1`` untraced and traced
passes alternate, and the metrics are its per-layer ones.  The line before it
records the environment.  Exits 1 when a check fails and 2 when the
library source is missing.  README.md in this directory explains the
workloads and how to read a traced run.
"""
from __future__ import annotations

import os

# numpy reads these when it is first imported: pin BLAS to one thread so
# runs do not depend on how many cores are idle.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from suite import BENCH_DIR, ROOT, load_spec  # noqa: E402

SRC = ROOT / "src"

# A fresh interpreter that imports the library and builds a workload's
# inputs, and prints how long that took (its own start-up is not counted).
_SETUP_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
                "import workloads; workloads.prepare(sys.argv[3], int(sys.argv[4])); "
                "print(time.perf_counter() - t0)")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_once(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the library and build inputs."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
                           workload, str(seed)], check=True, capture_output=True, text=True)
    return float(proc.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(spans) -> dict:
    """Calls, self time and counts of every traced layer, named ``<layer>.<key>``."""
    from tracer import COUNTS, END, LAYERS, NAME, START, layer_totals

    totals = layer_totals(spans)
    out = {}
    for layer, counts in LAYERS.items():
        got = totals.get(layer, {})
        self_s = got.get("self_s", 0.0)
        out[f"{layer}.calls"] = got.get("calls", 0)
        out[f"{layer}.self_s"] = self_s
        for key in counts:
            out[f"{layer}.{key}"] = got.get(key, 0)
        if "tuples" in counts:
            out[f"{layer}.tuples_per_s"] = got.get("tuples", 0) / self_s if self_s else 0.0
    for size, fits in (("small", lambda n: n <= 30), ("large", lambda n: n >= 200)):
        busy = iterations = 0
        for span in spans:
            if span[NAME] == "optimize.optimize_discrete" and fits(span[COUNTS]["n_points"]):
                busy += span[END] - span[START]
                iterations += span[COUNTS]["iterations"]
        out[f"optimize.ms_per_iteration.{size}"] = 1000.0 * busy / iterations if iterations else 0.0
    return out


def measure(args) -> tuple[dict, list]:
    """Run timed passes; return the metrics and every check made."""
    import workloads
    from tracer import Tracer

    plan = workloads.prepare(args.workload, args.seed)
    untraced, traced, setups = [], [], []
    start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer()
            with tracer.installed():
                one = workloads.run_pass(plan)
            traced.append((one, _layer_metrics(tracer.spans)))
        else:
            one = workloads.run_pass(plan)
            untraced.append(one)
            if not args.trace:
                # one set-up after each pass spreads them over the run, as
                # the passes are, so both see the same machine load
                setups.append(_setup_once(args.workload, args.seed))
        # stop at the pass boundary nearest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * one.wall_s >= args.seconds and (not args.trace or traced):
            break

    reference = untraced[0].outputs
    checks = []
    for i, one in enumerate(untraced + [t[0] for t in traced]):
        checks += one.checks
        if i:
            checks += [(f"{name}: output identical in every pass", one.outputs.get(name) == text)
                       for name, text in reference.items()]

    # Means over passes, not medians: machine load comes in bursts of tens
    # of seconds, and a mean over the run averages them where a median
    # snaps to whichever burst covered most of the run.
    wall_s = statistics.fmean(p.wall_s for p in untraced)
    if not args.trace:
        return {"wall_s": wall_s, "setup_s": statistics.median(setups),
                "peak_rss_mb": _peak_rss_mb()}, checks

    metrics = {f"scenarios.{name}.s": 0.0 for name in sorted(
        n for names, _ in workloads.WORKLOADS.values() for n in names)}
    for name in plan.scenarios:
        metrics[f"scenarios.{name}.s"] = statistics.fmean(p.scenario_s[name] for p in untraced)
    for key in traced[0][1]:
        metrics[key] = statistics.fmean(m[key] for _, m in traced)
    metrics["bench.trace_overhead_s"] = statistics.fmean(p.wall_s for p, _ in traced) - wall_s
    return metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multipot" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    print(json.dumps({"environment": environment(args)}), flush=True)
    metrics, checks = measure(args)
    failed = [desc for desc, ok in checks if not ok]
    for desc in failed:
        print(f"check failed: {desc}", file=sys.stderr)
    if args.trace:
        metrics["checks_failed_frac"] = len(failed) / len(checks)
    # BENCHMARK.json names the metrics to print and gives their units.
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this benchmark does not make: {missing}")
    bad = [m["name"] for m in declared if not math.isfinite(metrics[m["name"]])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
