"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are the full reference budgets (10^6 Monte-Carlo
tuples, 2*10^4-atom surrogates), so this module takes the better part of
a minute.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    area2,
    basis_vector,
    combine,
    energy_gradient,
    frame2,
    inequality_suite,
    inner,
    mc_energy_uniform,
    multistart,
    mutual_energy,
    neg_area2,
    neg_vol2,
    npd_test,
    pin,
    potential_constancy_check,
    prod_lift,
    quad_a,
    s011,
    s100,
    sample_sphere,
    sum_lift,
    uniform_surrogate,
    uvt,
)
from multipot.certify import convexity_probe
from oracles import fd_point_gradient, moment_mc, potential_mixture

E1, E2, E3 = (basis_vector(i, 3) for i in range(3))
SEED = 20240


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_area2_sigma_monte_carlo():
    """MC estimate of the mean squared triangle area vs 3(d-1)/(4d)."""
    targets = {2: 0.375, 3: 0.5, 5: 0.6}
    details = []
    for d, target in targets.items():
        start = time.perf_counter()
        est = mc_energy_uniform(area2(), d, 1_000_000, SEED + d)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0, f"d={d} took {elapsed:.1f}s"
        assert est.stderr < 5e-4
        assert abs(est.value - target) <= 4.0 * est.stderr
        details.append(f"d={d}: {est.value:.6f} vs {target} (4se={4 * est.stderr:.2e}, {elapsed:.1f}s)")
    from multipot.scenarios import run_scenario
    assert run_scenario("area2-sigma")["passed"]
    _report("criterion 1 (area2 vs closed form): PASS  " + "; ".join(details))


def test_criterion_2_vol2_sigma_monte_carlo():
    """MC estimate of the mean squared volume vs the moment-oracle target."""
    # target precomputed independently: E[u^2] = 1/d and E[uvt] = 1/d^2
    # give I = 1 - 3/d + 2/d^2 = (d-1)(d-2)/d^2 (cross-checked by moment_mc)
    m_u2, m_uvt = moment_mc(3, 200_000, 777)
    oracle = 1.0 - 3.0 * m_u2 + 2.0 * m_uvt
    assert oracle == pytest.approx(2.0 / 9.0, abs=5e-3)
    details = []
    for d in (3, 4):
        target = (d - 1) * (d - 2) / d**2
        est = mc_energy_uniform(vol2_kernel(), d, 1_000_000, SEED + 10 * d)
        assert abs(est.value - target) <= 4.0 * est.stderr
        details.append(f"d={d}: {est.value:.6f} vs {target:.6f}")
    from multipot.scenarios import run_scenario
    assert run_scenario("vol2-sigma")["passed"]
    _report("criterion 2 (vol2 vs moment oracle): PASS  " + "; ".join(details))


def vol2_kernel():
    from multipot import vol2
    return vol2()


def test_criterion_3_exact_counterexample_values():
    """The three pinned counterexample energies to 1e-12."""
    dirac = DiscreteMeasure.dirac(E1)
    mu = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(-E1), 1.0, -1.0)
    v1 = mutual_energy(s011(), [dirac, mu, mu]).value
    assert v1 == pytest.approx(-1.0, abs=1e-12)
    nu = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(E3), 1.0, 1.0)
    v2 = mutual_energy(neg_vol2(), [dirac, nu, nu]).value
    assert v2 == pytest.approx(-2.0, abs=1e-12)
    nu2 = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(-E1), 1.0, 1.0)
    v3 = mutual_energy(neg_area2(), [dirac, nu2, nu2]).value
    assert v3 == pytest.approx(-2.0, abs=1e-12)
    _report(f"criterion 3 (exact counterexamples): PASS  values {v1}, {v2}, {v3}")


def test_criterion_4_pd_battery():
    """Positive families pass 100 pinned 40-point sets; the four
    counterexample kernels produce exact conditional witnesses."""
    passing = [
        ("uvt", uvt(), False),
        ("quad_a(-1,shift)", quad_a(-1.0, shift=True), False),
        ("quad_a(0,shift)", quad_a(0.0, shift=True), False),
        ("quad_a(0.5,shift)", quad_a(0.5, shift=True), False),
        ("quad_a(0.9,shift)", quad_a(0.9, shift=True), False),
        ("sum_lift(inner,3)", sum_lift(inner(), 3), True),
        ("prod_lift(frame2,3)", prod_lift(frame2(), 3), False),
    ]
    for label, kernel, conditional in passing:
        sets = 0
        for d in (3, 4):
            verdict = npd_test(kernel, d, conditional=conditional, pin_trials=10,
                               inner_trials=5, set_size=40, seed=SEED + d)
            sets += verdict.trials_run
            assert verdict.passed, label
            assert verdict.min_eigenvalue_seen >= -1e-9, label
        assert sets >= 100, label

    witnesses = []
    for label, kernel in [("neg_vol2", neg_vol2()), ("neg_area2", neg_area2()),
                          ("s011", s011()), ("s100", s100())]:
        verdict = npd_test(kernel, 3, conditional=True, pin_trials=4,
                           inner_trials=4, set_size=20, seed=SEED + 5)
        assert verdict.outcome == "fail", label
        w = verdict.witness
        assert w is not None and w.energy < 0, label
        recomputed = mutual_energy(pin(kernel, np.stack(w.pins)),
                                   [w.measure, w.measure]).value
        assert recomputed == pytest.approx(w.energy, abs=1e-12), label
        assert abs(w.measure.total_mass) <= 1e-12, label
        witnesses.append(f"{label}: {w.energy:.4f}")
    _report("criterion 4 (PD battery): PASS  witnesses " + "; ".join(witnesses))


def test_criterion_5_inequality_suite():
    """Mean bounds for uvt over 1000 measure triples; diagonal bound for
    quad_a with a <= 1 over 1000 triples."""
    rep = inequality_suite(uvt(), 3, trials=1000, seed=SEED + 6)
    assert rep.am_worst <= 1e-10
    assert rep.gm_worst is not None and rep.gm_worst <= 1e-10
    assert rep.gm_trials == 1000
    assert rep.lower_worst <= 1e-10
    diag_parts = []
    for a in (1.0, 0.5, -2.0):
        rep_a = inequality_suite(quad_a(a), 3, trials=1000, seed=SEED + 7)
        assert rep_a.am_worst <= 1e-10, f"a={a}"
        assert rep_a.diagonal_worst <= 1e-10, f"a={a}"
        diag_parts.append(f"a={a}: diag {rep_a.diagonal_worst:.2e}")
    _report("criterion 5 (inequality suite): PASS  "
            f"uvt worst am={rep.am_worst:.2e} gm={rep.gm_worst:.2e} "
            f"lower={rep.lower_worst:.2e}; " + "; ".join(diag_parts))


def test_criterion_6_derivative_identities():
    """Mixture derivative identities over 50 random setups, 1e-8 relative."""
    rng = np.random.default_rng(SEED + 8)

    def random_prob(k):
        atoms = rng.standard_normal((k, 3))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        w = rng.random(k) + 0.05
        return DiscreteMeasure(atoms, w / w.sum())

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        banks = {
            3: [uvt(), area2(), vol2_kernel(), s011(), s100(), quad_a(0.7, shift=True)],
            4: [sum_lift(inner(), 4), prod_lift(inner(), 4),
                sum_lift(s011(), 4), sum_lift(frame2(), 4)],
        }
    worst = 0.0
    setups = 0
    for n, bank in banks.items():
        for i in range(25):
            kernel = bank[i % len(bank)]
            mu = random_prob(int(rng.integers(2, 6)))
            nu = random_prob(int(rng.integers(2, 6)))
            rep = convexity_probe(kernel, mu, nu, grid=3)
            h0, h1, h2 = potential_mixture(kernel, mu, nu)
            h_prime, h_second = 2.0 * (h1 - h0), 2.0 * (h0 - 2.0 * h1 + h2)
            r1 = abs(h_prime - (2.0 / n) * rep.g_prime_0) / max(
                abs(h_prime), abs((2.0 / n) * rep.g_prime_0), 1e-3)
            r2 = abs(h_second - (2.0 / (n * (n - 1))) * rep.g_double_prime_0) / max(
                abs(h_second), abs((2.0 / (n * (n - 1))) * rep.g_double_prime_0), 1e-3)
            worst = max(worst, r1, r2)
            setups += 1
    assert setups == 50
    assert worst <= 1e-8
    _report(f"criterion 6 (derivative identities): PASS  worst relative residual {worst:.2e}")


def test_criterion_7_optimizer_targets_and_gradients():
    """Optimizer targets plus analytic/finite-difference agreement."""
    cfg = OptimizerConfig(steps=2000, step_size=1.0, seed=SEED, maximize=True,
                          stop_tol=1e-9)
    best = multistart(area2(), 30, 3, cfg, starts=4)
    assert best.final_energy >= 0.45

    cfg_min = OptimizerConfig(steps=2000, step_size=0.5, seed=SEED, stop_tol=1e-12)
    pair = multistart(s011(), 2, 3, cfg_min, starts=4)
    assert pair.final_energy <= 1e-6

    rng = np.random.default_rng(SEED + 9)
    kernels_bank = [area2(), uvt(), vol2_kernel(), s011(), s100(),
                    quad_a(0.4, shift=True)]
    worst = 0.0
    for trial in range(100):
        kernel = kernels_bank[trial % len(kernels_bank)]
        config = sample_sphere(3, 6, int(rng.integers(1 << 30)))
        i = int(rng.integers(6))
        ga = energy_gradient(kernel, config, i)
        gf = fd_point_gradient(kernel, config, i)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-9)
        worst = max(worst, rel)
    assert worst <= 1e-6
    _report("criterion 7 (optimizer): PASS  "
            f"area2 max={best.final_energy:.4f}, s011 min={pair.final_energy:.2e}, "
            f"gradient agreement worst={worst:.2e} over 100 configs")


def test_criterion_8_potential_constancy():
    """Two-fold potentials of a 2*10^4-atom uniform surrogate are constant
    within five estimated standard errors; the point-mass direction fails."""
    sigma = uniform_surrogate(3, 20_000, SEED + 10)
    pts = sample_sphere(3, 50, SEED + 11)
    details = []
    for kernel, label in ((area2(), "area2"), (uvt(), "uvt")):
        report = potential_constancy_check(kernel, sigma, pts)
        assert report.stderr_estimate > 0, label
        assert report.max_deviation <= 5.0 * report.stderr_estimate, label
        assert report.passed, label
        details.append(f"{label}: dev {report.max_deviation:.2e} <= 5se {5 * report.stderr_estimate:.2e}")
    # sanity direction: a point mass has a visibly varying potential
    # (checked with uvt, whose pinned potential is x1^2; the squared-area
    # potential degenerates to the zero function at a point mass)
    bad = potential_constancy_check(uvt(), DiscreteMeasure.dirac(E1), pts)
    assert not bad.passed
    assert bad.max_deviation > 0.1
    _report("criterion 8 (potential constancy): PASS  " + "; ".join(details) +
            f"; dirac deviation {bad.max_deviation:.3f} fails as required")


def test_criterion_9_determinism_bytewise():
    """Reruns with the same seed emit identical JSON."""
    from multipot.scenarios import report_to_json, run_scenario
    for name in ("s011-counterexample", "bcr-shift", "derivative-identities"):
        assert report_to_json(run_scenario(name)) == report_to_json(run_scenario(name))

    args = [sys.executable, "-m", "multipot.cli", "verify", "--tuples", "100000",
            "--seed", "11"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["passed"] is True
    _report("criterion 9 (byte-identical reports): PASS  "
            f"{len(payload['reports'])} scenarios, two runs identical")
