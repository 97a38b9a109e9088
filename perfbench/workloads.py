"""The benchmark's three workloads and the checks on their outputs.

Together the workloads run each of the 18 registered scenarios once, so
their summed wall time tracks ``multipot verify --jobs 1``.  The workload
seed goes to every scenario and to the inputs of the extra descents.
README.md in this directory gives the reason for each workload.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from multipot import energy, kernels, optimize, scenarios


@dataclass(frozen=True)
class Descent:
    """A maximizing particle descent at d = 3 with a fixed step count."""

    kernel: str
    n_points: int
    supremum: float      # energy supremum over all probability measures at d = 3
    steps: int = 20
    d: int = 3

    @property
    def label(self) -> str:
        return f"maximize-{self.kernel}-n{self.n_points}"


WORKLOADS = {
    "tiny-measures": (
        ("inequality-suite", "derivative-identities", "bcr-shift", "uvt-pd", "quad-a-pd",
         "sumlift-cpd", "prodlift-pd", "s011-counterexample", "negvol2-not-cpd",
         "negarea2-not-cpd"),
        (),
    ),
    "uniform-surrogates": (
        ("area2-sigma", "vol2-sigma", "frame-bound", "s011-potential", "s100-nonconvex"),
        (),
    ),
    # N = 200 keeps the exact check of the found configuration on energy's
    # dense route (8M tuples); N = 300 (27M tuples) puts it on the
    # contraction route.
    "particle-descent": (
        ("maximize-area2", "maximize-vol2", "minimize-s011"),
        (Descent("area2", 200, 0.5), Descent("vol2", 300, 2.0 / 9.0)),
    ),
}

# Slack on the supremum, as in the maximize-* scenarios.
_SUPREMUM_SLACK = 1e-9
# Two engines (the optimizer's Gram route and energy.discrete_energy) must agree.
_ENGINE_RTOL = 1e-10


@dataclass(frozen=True)
class Plan:
    """Inputs of one workload, generated from its seed."""

    workload: str
    seed: int
    scenarios: tuple
    descents: tuple      # (Descent, initial points) pairs


@dataclass(frozen=True)
class Pass:
    """One timed pass over a workload."""

    wall_s: float
    scenario_s: dict
    outputs: dict        # name -> serialized output, compared across passes
    checks: list         # (description, passed) pairs


def prepare(workload: str, seed: int) -> Plan:
    names, descents = WORKLOADS[workload]
    inputs = []
    for i, descent in enumerate(descents):
        pts = np.random.default_rng([seed, i]).standard_normal((descent.n_points, descent.d))
        inputs.append((descent, pts / np.linalg.norm(pts, axis=1, keepdims=True)))
    return Plan(workload, seed, names, tuple(inputs))


def _descend(descent: Descent, initial: np.ndarray, seed: int):
    kernel = getattr(kernels, descent.kernel)()
    cfg = optimize.OptimizerConfig(steps=descent.steps, step_size=1.0, seed=seed,
                                   maximize=True, stop_tol=1e-12)
    trace = optimize.optimize_discrete(kernel, descent.n_points, descent.d, cfg,
                                       initial=initial)
    exact = energy.discrete_energy(kernel, trace.final_config).value
    found = trace.final_energy
    checks = [
        (f"{descent.label}: energies never decrease",
         all(b >= a for a, b in zip(trace.energies, trace.energies[1:]))),
        (f"{descent.label}: energies stay at or below the supremum {descent.supremum!r}",
         max(trace.energies) <= descent.supremum + _SUPREMUM_SLACK),
        (f"{descent.label}: discrete_energy agrees with the optimizer's final energy",
         abs(exact - found) <= _ENGINE_RTOL * abs(found)),
    ]
    output = json.dumps({"energies": trace.energies, "exact": exact,
                         "iterations": trace.iterations_run})
    return output, checks


def run_pass(plan: Plan) -> Pass:
    """Run every scenario and descent of the plan once and check the outputs."""
    scenario_s, outputs, checks = {}, {}, []
    start = time.perf_counter()
    for name in plan.scenarios:
        t0 = time.perf_counter()
        report = scenarios.run_scenario(name, {"seed": plan.seed})
        scenario_s[name] = time.perf_counter() - t0
        outputs[name] = scenarios.report_to_json(report)
        checks += [(f"{name}: {a['description']}", a["passed"] is True)
                   for a in report["assertions"]]
        checks.append((f"{name}: report passed", report["passed"] is True))
    for descent, initial in plan.descents:
        outputs[descent.label], descent_checks = _descend(descent, initial, plan.seed)
        checks += descent_checks
    return Pass(time.perf_counter() - start, scenario_s, outputs, checks)
