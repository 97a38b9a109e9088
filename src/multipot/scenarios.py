"""Scenario runner reproducing the library's numeric reference claims.

Each scenario executes a fixed, seeded experiment and emits a report of
assertions.  Every assertion records how its expected value was obtained:

* ``closed-form`` -- a known closed-form constant (the ``formula`` field
  holds the expression, machine-checkable);
* ``oracle``      -- computed by an independent numerical oracle (moment
  estimates, brute-force enumeration);
* ``definition``  -- a direct consequence of definitions.

Reports are plain dictionaries serialized to JSON.  Wall-clock timing is
deliberately excluded from the JSON payload so that reruns with the same
seed produce byte-identical reports; timings go to stderr in the CLI.
"""
from __future__ import annotations

import inspect
import json
import math
import warnings

import numpy as np

from . import certify, energy, kernels, optimize
from .config import MC_SIGMA, RESIDUAL_TOL
from .geometry import (
    DiscreteMeasure,
    basis_vector,
    combine,
    sample_sphere,
    uniform_surrogate,
)

__all__ = ["UnknownScenario", "run_scenario", "list_scenarios", "report_to_json"]

DEFAULT_SEED = 20240
DEFAULT_TUPLES = 1_000_000


class UnknownScenario(KeyError):
    """Raised for scenario names not present in the registry."""


def _jsonify(obj):
    """numpy scalars and arrays (also inside dicts and lists) as plain
    JSON-serializable Python values."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _assertion(description, observed, expected, tolerance, source, formula=None):
    if source not in ("closed-form", "oracle", "definition"):
        raise ValueError(f"unknown assertion source '{source}'")
    if source == "closed-form" and formula is None:
        raise ValueError("closed-form assertions must carry a formula")
    observed, expected, tolerance = _jsonify(observed), _jsonify(expected), _jsonify(tolerance)
    if isinstance(observed, bool) or isinstance(expected, bool):
        passed = bool(observed) == bool(expected)
    elif tolerance is None:
        passed = observed == expected
    else:
        passed = abs(observed - expected) <= tolerance
    entry = {
        "description": description,
        "observed": observed,
        "expected": expected,
        "tolerance": tolerance,
        "passed": bool(passed),
        "source": source,
    }
    if formula is not None:
        entry["formula"] = formula
    return entry


def _report(name, seed, parameters, assertions):
    return {
        "scenario": name,
        "seed": seed,
        "parameters": parameters,
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# --- Monte-Carlo estimates against closed forms --------------------------------


def _mc_scenario(kernel_factory, dims, target, formula, seed, tuples, tol_scale,
                 source="closed-form"):
    assertions = []
    for i, d in enumerate(dims):
        est = energy.mc_energy_uniform(kernel_factory(), d, tuples, seed + 101 * i)
        assertions.append(_assertion(
            f"MC energy of the uniform measure, d={d}",
            est.value, target(d), MC_SIGMA * est.stderr * tol_scale,
            source, formula,
        ))
        stderr_cap = 5e-4 * math.sqrt(max(DEFAULT_TUPLES / tuples, 1.0))
        assertions.append(_assertion(
            f"standard error small enough at {tuples} tuples, d={d}",
            est.stderr <= stderr_cap, True, None, "definition",
        ))
    return assertions


def _scenario_area2_sigma(seed, tuples, tol_scale, dims=(2, 3, 5), surrogate_size=20000):
    assertions = _mc_scenario(
        kernels.area2, dims,
        lambda d: 0.75 * (d - 1) / d, "3*(d-1)/(4*d)", seed, tuples, tol_scale,
    )
    for i, d in enumerate(dims):
        mu = uniform_surrogate(d, surrogate_size, seed + 211 * i)
        test_pts = sample_sphere(d, 50, seed + 307 * i)
        check = certify.potential_constancy_check(kernels.area2(), mu, test_pts)
        assertions.append(_assertion(
            f"two-fold potential constant over a {surrogate_size}-atom uniform surrogate, d={d}",
            check.passed, True, None, "closed-form", "U(x) = const on the sphere",
        ))
    return _report("area2-sigma", seed,
                   {"tuples": tuples, "dims": list(dims), "tol_scale": tol_scale,
                    "surrogate_size": surrogate_size}, assertions)


def _scenario_vol2_sigma(seed, tuples, tol_scale, dims=(3, 4)):
    # target precomputed from the moment oracle E[u^2] = 1/d, E[uvt] = 1/d^2
    assertions = _mc_scenario(
        kernels.vol2, dims,
        lambda d: (d - 1) * (d - 2) / d**2, None, seed, tuples, tol_scale,
        source="oracle",
    )
    return _report("vol2-sigma", seed,
                   {"tuples": tuples, "dims": list(dims), "tol_scale": tol_scale}, assertions)


def _scenario_frame_bound(seed, tuples, tol_scale, dims=(2, 3, 4, 5, 6)):
    assertions = _mc_scenario(
        kernels.frame2, dims,
        lambda d: 1.0 / d, "1/d", seed, tuples, tol_scale,
    )
    return _report("frame-bound", seed,
                   {"tuples": tuples, "dims": list(dims), "tol_scale": tol_scale}, assertions)


# --- exact counterexamples -------------------------------------------------------


def _witness_assertions(kernel, d, seed, label):
    """Conditional-mode failure with a verifiable negative-energy witness."""
    verdict = certify.npd_test(kernel, d, conditional=True, pin_trials=3,
                               inner_trials=4, set_size=16, seed=seed)
    out = [_assertion(f"{label}: conditional test fails", verdict.outcome, "fail",
                      None, "closed-form", "exists balanced measure with negative energy")]
    if verdict.witness is None:
        out.append(_assertion(f"{label}: witness produced", False, True, None, "definition"))
        return out
    w = verdict.witness
    pinned = kernels.pin(kernel, np.stack(w.pins))
    recomputed = energy.mutual_energy(pinned, [w.measure, w.measure]).value
    out.append(_assertion(f"{label}: witness energy negative", w.energy < 0.0, True,
                          None, "definition"))
    out.append(_assertion(f"{label}: witness energy reproduces via mutual energy",
                          recomputed, w.energy, 1e-12, "definition"))
    out.append(_assertion(f"{label}: witness measure balanced",
                          w.measure.total_mass, 0.0, 1e-12, "definition"))
    return out


def _scenario_s011_counterexample(seed, tuples, tol_scale):
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    mu = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(-e1), 1.0, -1.0)
    value = energy.mutual_energy(
        kernels.s011(), [DiscreteMeasure.dirac(e1), mu, mu]).value
    assertions = [_assertion(
        "pinned energy of the balanced pair measure", value, -1.0,
        1e-12 * tol_scale, "closed-form", "I(delta_e1, mu, mu) = -1",
    )]
    assertions += _witness_assertions(kernels.s011(), 3, seed + 13, "s011")
    return _report("s011-counterexample", seed, {"tol_scale": tol_scale}, assertions)


def _scenario_negvol2_not_cpd(seed, tuples, tol_scale):
    e1, e2, e3 = (basis_vector(i, 3) for i in range(3))
    nu = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(e3), 1.0, 1.0)
    value = energy.mutual_energy(
        kernels.neg_vol2(), [DiscreteMeasure.dirac(e1), nu, nu]).value
    assertions = [_assertion(
        "pinned energy of the basis-pair measure", value, -2.0,
        1e-12 * tol_scale, "closed-form", "I(delta_e1, nu, nu) = -2",
    )]
    assertions += _witness_assertions(kernels.neg_vol2(), 3, seed + 17, "neg_vol2")
    return _report("negvol2-not-cpd", seed, {"tol_scale": tol_scale}, assertions)


def _scenario_negarea2_not_cpd(seed, tuples, tol_scale):
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    nu = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(-e1), 1.0, 1.0)
    value = energy.mutual_energy(
        kernels.neg_area2(), [DiscreteMeasure.dirac(e1), nu, nu]).value
    assertions = [_assertion(
        "pinned energy of the antipodal-pair measure", value, -2.0,
        1e-12 * tol_scale, "closed-form", "I(delta_e1, nu, nu) = -2",
    )]
    assertions += _witness_assertions(kernels.neg_area2(), 3, seed + 19, "neg_area2")
    return _report("negarea2-not-cpd", seed, {"tol_scale": tol_scale}, assertions)


# --- potentials against closed forms -----------------------------------------------


def _scenario_s011_potential(seed, tuples, tol_scale, d=3, surrogate_size=100_000,
                             queries=20):
    kernel = kernels.s011()
    surrogate = uniform_surrogate(d, surrogate_size, seed + 3)
    pairs = sample_sphere(d, 2 * queries, seed + 5).points.reshape(queries, 2, d)
    values = energy.potential(kernel, [surrogate], pairs)
    assertions = []
    worst = 0.0
    for q in range(queries):
        x, y = pairs[q]
        # direct i.i.d. row evaluation gives an honest standard error
        triples = np.empty((surrogate_size, 3, d))
        triples[:, 0, :] = surrogate.atoms
        triples[:, 1, :] = x
        triples[:, 2, :] = y
        rows = kernel.evaluate_batch(triples)
        stderr = float(rows.std(ddof=1) / math.sqrt(surrogate_size))
        ref = float(x @ y) / d
        band = MC_SIGMA * stderr * tol_scale
        worst = max(worst, abs(values[q] - ref) / max(band, 1e-300))
        if q == 0:
            assertions.append(_assertion(
                "potential matches the direct row average", float(rows.mean()),
                float(values[q]), 1e-10, "definition",
            ))
    assertions.append(_assertion(
        f"max |U - <x,y>/d| over {queries} query pairs, in 4-stderr units",
        worst <= 1.0, True, None, "closed-form", "U(x,y) = <x,y>/d",
    ))
    return _report("s011-potential", seed,
                   {"d": d, "surrogate_size": surrogate_size, "queries": queries,
                    "tol_scale": tol_scale}, assertions)


# --- positive definiteness batteries -------------------------------------------------


def _pd_pass_assertions(kernel, dims, conditional, seed, label, pin_trials=10,
                        inner_trials=5, set_size=40):
    out = []
    for i, d in enumerate(dims):
        verdict = certify.npd_test(kernel, d, conditional=conditional,
                                   pin_trials=pin_trials, inner_trials=inner_trials,
                                   set_size=set_size, seed=seed + 37 * i)
        mode = "conditional" if conditional else "plain"
        out.append(_assertion(
            f"{label}: {mode} test passes in d={d} over {pin_trials * inner_trials} sets",
            verdict.outcome, "pass_statistical", None, "closed-form",
            "kernel is (conditionally) positive definite for every pinning",
        ))
        out.append(_assertion(
            f"{label}: smallest eigenvalue seen in d={d} above -1e-9",
            verdict.min_eigenvalue_seen >= -1e-9, True, None, "definition",
        ))
    return out


def _scenario_uvt_pd(seed, tuples, tol_scale, dims=(3, 4)):
    assertions = _pd_pass_assertions(kernels.uvt(), dims, False, seed, "uvt")
    return _report("uvt-pd", seed, {"dims": list(dims)}, assertions)


def _scenario_quad_a_pd(seed, tuples, tol_scale, dims=(3, 4), values=(-1.0, 0.0, 0.5, 0.9)):
    assertions = []
    for j, a in enumerate(values):
        assertions += _pd_pass_assertions(
            kernels.quad_a(a, shift=True), dims, False, seed + 1000 * j,
            f"quad_a(a={a}, shifted)",
        )
    return _report("quad-a-pd", seed, {"dims": list(dims), "a_values": list(values)},
                   assertions)


def _scenario_sumlift_cpd(seed, tuples, tol_scale, dims=(3, 4)):
    assertions = _pd_pass_assertions(
        kernels.sum_lift(kernels.inner(), 3), dims, True, seed, "sum_lift(inner,3)",
    )
    return _report("sumlift-cpd", seed, {"dims": list(dims)}, assertions)


def _scenario_prodlift_pd(seed, tuples, tol_scale, dims=(3, 4)):
    assertions = _pd_pass_assertions(
        kernels.prod_lift(kernels.inner(), 3), dims, False, seed, "prod_lift(inner,3)",
    )
    assertions += _pd_pass_assertions(
        kernels.prod_lift(kernels.frame2(), 3), dims, False, seed + 7777,
        "prod_lift(frame2,3)",
    )
    return _report("prodlift-pd", seed, {"dims": list(dims)}, assertions)


# --- convexity ------------------------------------------------------------------------


def _scenario_s100_nonconvex(seed, tuples, tol_scale, d=3, surrogate_size=20000):
    kernel = kernels.s100()
    sigma = uniform_surrogate(d, surrogate_size, seed + 2)
    delta = DiscreteMeasure.dirac(basis_vector(0, d))
    probe = certify.convexity_probe(kernel, sigma, delta)
    halfway = float(probe.mixture(0.5) - 0.5 * (probe.mixture(0.0) + probe.mixture(1.0)))
    expected = 3.0 * 0.125 * (d - 1) / d
    assertions = [
        _assertion("mixture exceeds the chord at t = 1/2 by the predicted margin",
                   halfway, expected, 0.02 * tol_scale, "closed-form",
                   "3*t^2*(1-t)*(d-1)/d at t=1/2"),
        _assertion("energy not convex along the segment toward the point mass",
                   probe.convex_on_unit_interval, False, None, "closed-form",
                   "g(t) = 3*t^2*(1-t)*(d-1)/d is not convex on [0,1]"),
        _assertion("a chord violation location is reported",
                   probe.violation_t is not None, True, None, "definition"),
    ]
    assertions += _witness_assertions(kernel, d, seed + 23, "s100")
    return _report("s100-nonconvex", seed,
                   {"d": d, "surrogate_size": surrogate_size, "tol_scale": tol_scale},
                   assertions)


def _potential_mixture(kernel, mu, nu):
    """I(mu, mu), I(mu, nu), I(nu, nu) of the (n-2)-fold potential of mu, from
    its values on the atom pairs (not from the mixture's exact sums)."""
    two_input = energy.PotentialKernel(kernel, [mu] * (kernel.arity - 2))
    atoms, k = np.vstack([mu.atoms, nu.atoms]), mu.n_atoms
    vals = two_input.evaluate_batch(
        np.stack(np.broadcast_arrays(atoms[:, None, :], atoms[None, :, :]), axis=-2))
    return (float(mu.weights @ vals[:k, :k] @ mu.weights),
            float(mu.weights @ vals[:k, k:] @ nu.weights),
            float(nu.weights @ vals[k:, k:] @ nu.weights))


def _scenario_derivative_identities(seed, tuples, tol_scale, setups_per_arity=25):
    rng = np.random.default_rng(seed + 11)
    with warnings.catch_warnings():
        # the possibly-negative product lift is used here only as a test
        # function for the derivative identities, not as a PD candidate
        warnings.simplefilter("ignore")
        four_input = [kernels.sum_lift(kernels.inner(), 4),
                      kernels.prod_lift(kernels.inner(), 4),
                      kernels.sum_lift(kernels.s011(), 4),
                      kernels.sum_lift(kernels.frame2(), 4)]
    kernels_by_arity = {
        3: [kernels.uvt(), kernels.area2(), kernels.vol2(), kernels.s011(),
            kernels.s100(), kernels.quad_a(0.7, shift=True)],
        4: four_input,
    }
    worst = 0.0
    count = 0
    for n, bank in kernels_by_arity.items():
        for i in range(setups_per_arity):
            kernel = bank[i % len(bank)]
            mu = DiscreteMeasure(*certify._random_atoms(rng, 3))
            nu = DiscreteMeasure(*certify._random_atoms(rng, 3))
            probe = certify.convexity_probe(kernel, mu, nu, grid=5)
            h0, h1, h2 = _potential_mixture(kernel, mu, nu)
            lhs1, rhs1 = 2.0 * (h1 - h0), (2.0 / n) * probe.g_prime_0
            lhs2, rhs2 = 2.0 * (h0 - 2.0 * h1 + h2), (2.0 / (n * (n - 1))) * probe.g_double_prime_0
            rel1 = abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-3)
            rel2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-3)
            worst = max(worst, rel1, rel2)
            count += 1
    assertions = [_assertion(
        f"first and second derivative identities over {count} random setups "
        "(worst relative residual)",
        worst <= 1e-8 * tol_scale, True, None, "closed-form",
        "h'(0) = (2/n) g'(0);  h''(0) = 2/(n(n-1)) g''(0)",
    )]
    return _report("derivative-identities", seed,
                   {"setups_per_arity": setups_per_arity, "tol_scale": tol_scale},
                   assertions)


def _scenario_bcr_shift(seed, tuples, tol_scale, trials=20, set_size=12):
    e1 = basis_vector(0, 3)
    battery = [
        ("pin(neg_vol2,e1)", kernels.pin(kernels.neg_vol2(), e1)),
        ("pin(neg_area2,e1)", kernels.pin(kernels.neg_area2(), e1)),
        ("pin(s011,e1)", kernels.pin(kernels.s011(), e1)),
        ("pin(uvt,e1)", kernels.pin(kernels.uvt(), e1)),
        ("inner", kernels.inner()),
        ("frame2", kernels.frame2()),
        ("neg_frame2", -kernels.frame2()),
        ("neg_sq_dist", -kernels.riesz(2.0)),
        ("neg_dist", -kernels.riesz(1.0)),
    ]
    assertions = []
    for i, (label, kernel) in enumerate(battery):
        result = certify.shift_equivalence_battery(
            kernel, 3, trials=trials, set_size=set_size, seed=seed + 53 * i)
        assertions.append(_assertion(
            f"{label}: shifted plain verdict matches conditional verdict on "
            f"{trials} shared point sets",
            result["disagreements"], 0, None, "closed-form",
            "phi positive definite iff psi conditionally positive definite",
        ))
    # the pinned volume kernel is its own shift (its anchor row vanishes)
    pinned = kernels.pin(kernels.neg_vol2(), e1)
    shifted = kernels.cpd_shift(pinned, e1)
    pts = sample_sphere(3, 40, seed + 97).points.reshape(20, 2, 3)
    diff = float(np.max(np.abs(shifted.evaluate_batch(pts) - pinned.evaluate_batch(pts))))
    assertions.append(_assertion(
        "shift of pin(neg_vol2,e1) at e1 is the identity", diff, 0.0, 1e-14,
        "closed-form", "K_e1(x,y) + K_e1(e1,e1) - K_e1(e1,y) - K_e1(x,e1) = K_e1(x,y)",
    ))
    # zero-variant shift of the negated squared distance has a closed form
    shifted0 = kernels.cpd_shift(-kernels.riesz(2.0), e1, variant="zero")
    ref = np.einsum("qd,qd->q", pts[:, 0, :] - e1, pts[:, 1, :] - e1) * 2.0
    diff0 = float(np.max(np.abs(shifted0.evaluate_batch(pts) - ref)))
    assertions.append(_assertion(
        "zero-variant shift of -||x-y||^2 equals 2<x-e1, y-e1>", diff0, 0.0, 1e-12,
        "oracle",
    ))
    return _report("bcr-shift", seed, {"trials": trials, "set_size": set_size}, assertions)


def _scenario_inequality_suite(seed, tuples, tol_scale, trials=1000):
    assertions = []
    rep = certify.inequality_suite(kernels.uvt(), 3, trials=trials, seed=seed + 1)
    assertions.append(_assertion(
        f"uvt: arithmetic-mean bound over {trials} measure triples (worst residual)",
        rep.am_worst <= RESIDUAL_TOL * tol_scale, True, None, "closed-form",
        "I(mu1,mu2,mu3) <= (I(mu1)+I(mu2)+I(mu3))/3",
    ))
    assertions.append(_assertion(
        "uvt: geometric-mean bound (worst residual)",
        rep.gm_worst is not None and rep.gm_worst <= RESIDUAL_TOL * tol_scale, True, None,
        "closed-form", "I(mu1,mu2,mu3) <= (I(mu1) I(mu2) I(mu3))^(1/3)",
    ))
    assertions.append(_assertion(
        "uvt: mean lower bound (worst residual)",
        rep.lower_worst <= RESIDUAL_TOL * tol_scale, True, None, "closed-form",
        "-(I(mu1)+I(mu2)+I(mu3))/3 <= I(mu1,mu2,mu3)",
    ))
    for a in (1.0, 0.5):
        rep_a = certify.inequality_suite(kernels.quad_a(a), 3, trials=trials, seed=seed + 2)
        assertions.append(_assertion(
            f"quad_a(a={a}): arithmetic-mean bound (worst residual)",
            rep_a.am_worst <= RESIDUAL_TOL * tol_scale, True, None, "closed-form",
            "conditionally positive definite for a <= 1",
        ))
        assertions.append(_assertion(
            f"quad_a(a={a}): maximum attained on the diagonal (worst residual)",
            rep_a.diagonal_worst <= RESIDUAL_TOL * tol_scale, True, None, "closed-form",
            "K(z1,z2,z3) <= max_z K(z,z,z)",
        ))
    rep_s = certify.inequality_suite(kernels.s100(), 3, trials=200, seed=seed + 3)
    assertions.append(_assertion(
        "s100: arithmetic-mean bound violated somewhere (expected violation)",
        rep_s.am_violations > 0, True, None, "closed-form",
        "s100 is not conditionally positive definite",
    ))
    return _report("inequality-suite", seed, {"trials": trials, "tol_scale": tol_scale},
                   assertions)


# --- optimization targets ----------------------------------------------------------


def _scenario_maximize_area2(seed, tuples, tol_scale, n_points=30, d=3, steps=2000,
                             starts=4):
    cfg = optimize.OptimizerConfig(steps=steps, step_size=1.0, seed=seed,
                                   maximize=True, stop_tol=1e-9)
    trace = optimize.multistart(kernels.area2(), n_points, d, cfg, starts=starts)
    assertions = [
        _assertion(f"best energy over {starts} starts reaches 0.45",
                   trace.final_energy >= 0.45, True, None, "closed-form",
                   "sup over measures is 3*(d-1)/(4*d) = 0.5 at d=3"),
        _assertion("energy never exceeds the measure supremum",
                   trace.final_energy <= 0.5 + 1e-9, True, None, "closed-form",
                   "3*(d-1)/(4*d)"),
    ]
    return _report("maximize-area2", seed,
                   {"n_points": n_points, "d": d, "steps": steps, "starts": starts},
                   assertions)


def _scenario_maximize_vol2(seed, tuples, tol_scale, n_points=30, d=3, steps=2000,
                            starts=4):
    cfg = optimize.OptimizerConfig(steps=steps, step_size=1.0, seed=seed,
                                   maximize=True, stop_tol=1e-9)
    trace = optimize.multistart(kernels.vol2(), n_points, d, cfg, starts=starts)
    assertions = [
        _assertion("best energy reaches 0.19 (supremum 2/9 at d=3)",
                   trace.final_energy >= 0.19, True, None, "oracle"),
        _assertion("energy never exceeds the measure supremum",
                   trace.final_energy <= (d - 1) * (d - 2) / d**2 + 1e-9, True, None,
                   "oracle"),
    ]
    return _report("maximize-vol2", seed,
                   {"n_points": n_points, "d": d, "steps": steps, "starts": starts},
                   assertions)


def _scenario_minimize_s011(seed, tuples, tol_scale, n_points=2, d=3, steps=2000):
    cfg = optimize.OptimizerConfig(steps=steps, step_size=0.5, seed=seed,
                                   maximize=False, stop_tol=1e-12)
    trace = optimize.multistart(kernels.s011(), n_points, d, cfg, starts=4)
    assertions = [
        _assertion("antipodal pair drives the energy to zero",
                   trace.final_energy <= 1e-6, True, None, "closed-form",
                   "I >= 0 with equality at mean-zero configurations"),
        _assertion("optimizer never undershoots the closed-form infimum",
                   trace.final_energy >= -1e-9, True, None, "closed-form", "inf I = 0"),
    ]
    return _report("minimize-s011", seed,
                   {"n_points": n_points, "d": d, "steps": steps}, assertions)


_REGISTRY = {
    "area2-sigma": _scenario_area2_sigma,
    "vol2-sigma": _scenario_vol2_sigma,
    "frame-bound": _scenario_frame_bound,
    "s011-counterexample": _scenario_s011_counterexample,
    "negvol2-not-cpd": _scenario_negvol2_not_cpd,
    "negarea2-not-cpd": _scenario_negarea2_not_cpd,
    "s011-potential": _scenario_s011_potential,
    "uvt-pd": _scenario_uvt_pd,
    "quad-a-pd": _scenario_quad_a_pd,
    "sumlift-cpd": _scenario_sumlift_cpd,
    "prodlift-pd": _scenario_prodlift_pd,
    "s100-nonconvex": _scenario_s100_nonconvex,
    "derivative-identities": _scenario_derivative_identities,
    "bcr-shift": _scenario_bcr_shift,
    "inequality-suite": _scenario_inequality_suite,
    "maximize-area2": _scenario_maximize_area2,
    "maximize-vol2": _scenario_maximize_vol2,
    "minimize-s011": _scenario_minimize_s011,
}


def list_scenarios() -> list[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def run_scenario(name: str, overrides: dict | None = None) -> dict:
    """Run one scenario and return its report dictionary.

    Recognized overrides: ``seed``, ``tuples``, ``tol_scale``, plus any
    scenario-specific keyword (e.g. ``dims``).
    """
    if name not in _REGISTRY:
        raise UnknownScenario(
            f"unknown scenario '{name}'; available: {', '.join(list_scenarios())}"
        )
    overrides = dict(overrides or {})
    seed = int(overrides.pop("seed", DEFAULT_SEED))
    tuples = int(overrides.pop("tuples", DEFAULT_TUPLES))
    tol_scale = float(overrides.pop("tol_scale", 1.0))
    runner = _REGISTRY[name]
    params = inspect.signature(runner).parameters
    if "d" in overrides and "d" not in params and "dims" in params:
        overrides["dims"] = [int(overrides.pop("d"))]
    return runner(seed, tuples, tol_scale, **overrides)
