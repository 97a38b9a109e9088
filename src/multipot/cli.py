"""Command-line interface.

Subcommands wrap the library one-to-one: energy evaluation on point/measure
CSV files, Monte-Carlo integration against the uniform measure, positive
definiteness tests with witness output, convexity probes, the inequality
suite, particle descent, and the scenario verifier.

Exit codes: 0 on success, 2 when verify assertions fail, 64 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import certify, energy, optimize, scenarios
from .geometry import (
    DiscreteMeasure,
    measure_to_csv_text,
    read_measure_csv,
    read_points_csv,
    uniform_surrogate,
    write_points_csv,
)
from .kernels import parse_kernel

USAGE_ERROR = 64
ASSERTION_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(obj) -> None:
    print(json.dumps(scenarios._jsonify(obj), indent=2))


def _load_measure(spec: str, d: int | None, seed: int) -> DiscreteMeasure:
    if spec.startswith("uniform:"):
        try:
            size = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"measure '{spec}': M in uniform:M must be an integer") from None
        if d is None:
            raise ValueError("uniform:M measures need --d")
        return uniform_surrogate(d, size, seed)
    return read_measure_csv(spec)


def _cmd_energy(args):
    kernel = parse_kernel(args.kernel)
    config = read_points_csv(args.points)
    _emit(energy.discrete_energy(kernel, config).as_dict())


def _cmd_energy_int(args):
    kernel = parse_kernel(args.kernel)
    est = energy.mc_energy_uniform(kernel, args.d, args.tuples, args.seed)
    _emit(est.as_dict())


def _cmd_mutual(args):
    kernel = parse_kernel(args.kernel)
    measures = [read_measure_csv(path) for path in args.measure]
    _emit(energy.mutual_energy(kernel, measures).as_dict())


def _cmd_potential(args):
    kernel = parse_kernel(args.kernel)
    measures = [read_measure_csv(path) for path in args.measure]
    if len(measures) == 1 and args.order > 1:
        measures = measures * args.order
    if len(measures) != args.order:
        raise ValueError(f"--order {args.order} needs one --measure or {args.order} of them, "
                         f"got {len(measures)}")
    config = read_points_csv(args.at)
    free = kernel.arity - args.order
    pts = config.points
    if free > 1:
        if pts.shape[0] % free:
            raise ValueError(f"--at rows must group into tuples of {free} points")
        pts = pts.reshape(-1, free, pts.shape[1])
    values = energy.potential(kernel, measures, pts)
    _emit({"values": list(map(float, values)),
           "samples_used": int(np.prod([m.n_atoms for m in measures]))})


def _witness_payload(verdict):
    if verdict.witness is None:
        return None
    w = verdict.witness
    return {
        "pins": [list(map(float, p)) for p in w.pins],
        "measure_csv": measure_to_csv_text(w.measure),
        "energy": w.energy,
    }


def _cmd_pdtest(args):
    kernel = parse_kernel(args.kernel)
    if kernel.arity == 2:
        verdict = certify.pd_test_2input(
            kernel, args.d, conditional=args.conditional, trials=args.trials,
            set_size=args.set_size, seed=args.seed, tol=args.tol)
    else:
        verdict = certify.npd_test(
            kernel, args.d, conditional=args.conditional, pin_trials=args.trials,
            inner_trials=args.inner_trials, set_size=args.set_size,
            seed=args.seed, tol=args.tol)
    _emit({
        "kernel": kernel.spec_string(),
        "mode": verdict.mode,
        "outcome": verdict.outcome,
        "trials_run": verdict.trials_run,
        "min_eigenvalue_seen": verdict.min_eigenvalue_seen,
        "witness": _witness_payload(verdict),
    })


def _cmd_convexity(args):
    kernel = parse_kernel(args.kernel)
    nu = _load_measure(args.nu, args.d, args.seed + 1)
    mu = _load_measure(args.mu, args.d or nu.dimension, args.seed)
    probe = certify.convexity_probe(kernel, mu, nu)
    _emit({
        "kernel": kernel.spec_string(),
        "g_prime_0": probe.g_prime_0,
        "g_double_prime_0": probe.g_double_prime_0,
        "convex_on_unit_interval": probe.convex_on_unit_interval,
        "violation_t": probe.violation_t,
        "chord_margin": probe.chord_margin,
        "mixture_coefficients": list(map(float, probe.mixture.coefficients)),
    })


def _cmd_inequalities(args):
    kernel = parse_kernel(args.kernel)
    report = certify.inequality_suite(kernel, args.d, trials=args.trials, seed=args.seed)
    _emit(dict({"kernel": kernel.spec_string()}, **report.as_dict()))


def _cmd_minimize(args):
    kernel = parse_kernel(args.kernel)
    cfg = optimize.OptimizerConfig(
        steps=args.steps, step_size=args.lr, seed=args.seed,
        maximize=args.maximize, stop_tol=args.stop_tol)
    trace = optimize.multistart(kernel, args.n, args.d, cfg, starts=args.multistart)
    if args.out:
        with open(f"{args.out}_trace.csv", "w", encoding="utf-8") as fh:
            fh.write("iteration,energy\n")
            for i, e in enumerate(trace.energies):
                fh.write(f"{i},{e!r}\n")
        write_points_csv(f"{args.out}_points.csv", trace.final_config)
    _emit({
        "kernel": kernel.spec_string(),
        "final_energy": trace.final_energy,
        "iterations_run": trace.iterations_run,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "maximize": args.maximize,
        "n_points": args.n,
        "d": args.d,
    })


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: expected key=value, got '{line}'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _cmd_verify(args):
    if args.config:
        file_cfg = _read_config_file(args.config)
        casts = {"scenario": str, "seed": int, "out": str, "tuples": int, "tol-scale": float}
        unknown = sorted(set(file_cfg) - set(casts))
        if unknown:
            raise ValueError(f"{args.config}: unknown key(s) {', '.join(unknown)}; "
                             f"allowed: {', '.join(casts)}")
        for key, value in file_cfg.items():    # flags win over the file
            if getattr(args, key.replace("-", "_")) is None:
                setattr(args, key.replace("-", "_"), casts[key](value))
    overrides = {key: getattr(args, key) for key in ("seed", "tuples", "tol_scale")
                 if getattr(args, key) is not None}

    names = scenarios.list_scenarios()
    if args.scenario:
        if args.scenario not in names:
            raise ValueError(f"unknown scenario '{args.scenario}'; available: {', '.join(names)}")
        names = [args.scenario]

    reports = []
    for name in names:
        start = time.perf_counter()
        report = scenarios.run_scenario(name, overrides)
        elapsed = time.perf_counter() - start
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{name}: {status} ({elapsed:.2f}s)", file=sys.stderr)
        for a in report["assertions"]:
            if not a["passed"]:
                print(f"  FAILED: {a['description']} "
                      f"(observed {a['observed']}, expected {a['expected']})",
                      file=sys.stderr)

    payload = reports[0] if args.scenario else {
        "reports": reports, "passed": all(r["passed"] for r in reports)}
    text = json.dumps(scenarios._jsonify(payload), indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    raise SystemExit(0 if payload["passed"] else ASSERTION_FAILURE)


def _cmd_scenarios(args):
    for name in scenarios.list_scenarios():
        print(name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multipot",
                     description="Multivariate interaction energies on spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", parents=[], help="discrete energy of a point CSV")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("energy-int", help="Monte-Carlo energy of the uniform measure")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tuples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_energy_int)

    p = sub.add_parser("mutual", help="exact mutual energy of measure CSVs")
    p.add_argument("--kernel", required=True)
    p.add_argument("--measure", action="append", required=True)
    p.set_defaults(func=_cmd_mutual)

    p = sub.add_parser("potential", help="j-fold potential at query points")
    p.add_argument("--kernel", required=True)
    p.add_argument("--measure", action="append", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("pdtest", help="randomized positive-definiteness test")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--conditional", action="store_true")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--inner-trials", type=int, default=5)
    p.add_argument("--set-size", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_pdtest)

    p = sub.add_parser("convexity", help="convexity probe along a mixture segment")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mu", required=True, help="measure CSV or uniform:M")
    p.add_argument("--nu", required=True, help="measure CSV or uniform:M")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("inequalities", help="mean-bound residual suite")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inequalities)

    p = sub.add_parser("minimize", help="particle descent on the discrete energy")
    p.add_argument("--kernel", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--maximize", action="store_true")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multistart", type=int, default=1)
    p.add_argument("--stop-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="prefix for trace/points CSV files")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("verify", help="run reference scenarios")
    p.add_argument("--scenario", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--tuples", type=int, default=None)
    p.add_argument("--tol-scale", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scenarios", help="list scenario names")
    p.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"multipot: error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
