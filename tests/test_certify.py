"""Positive-definiteness certification, convexity probes, constancy checks."""
import re
import tracemalloc

import numpy as np
import pytest

import multipot.energy as energy_mod
from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    area2,
    basis_vector,
    convexity_probe,
    cpd_shift,
    energy_gradient,
    inequality_suite,
    inner,
    frame2,
    mixture_polynomial,
    multistart,
    mutual_energy,
    npd_test,
    neg_area2,
    neg_vol2,
    optimize_discrete,
    pd_test_2input,
    pin,
    potential_constancy_check,
    prod_f_uvt,
    prod_lift,
    project_tangent,
    quad_a,
    random_rotation,
    retract,
    riesz,
    s011,
    s100,
    sample_sphere,
    shift_equivalence_battery,
    sum_lift,
    uniform_surrogate,
    uvt,
    vol2,
)
from multipot import certify, kernels
from multipot.certify import (
    _CHUNK_TUPLES,
    _FOLDS,
    _MAX_ATOMS,
    _balanced_basis,
    _diagonal_residuals,
    _draw_trials,
    _eigen_tol,
    _kernel_matrix,
    _matrix_min_eig,
    _potential_stderr,
    _random_sets,
    _restricted,
    _trial_energies,
)
from multipot.energy import _dense_mutual, _dense_potential, _spans
from multipot.geometry import _random_directions
from oracles import (
    grid_values_by_coordinates,
    inequality_suite_loop,
    pd_test_loop,
    potential_mixture,
    potential_stderr_loop,
    shift_battery_loop,
    sum_monomials_out_of_place,
)

E1, E2, E3 = (basis_vector(i, 3) for i in range(3))


def _random_probability(n_atoms, d, seed):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n_atoms, d))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.random(n_atoms) + 0.05
    return DiscreteMeasure(atoms, w / w.sum())


def _check_witness(kernel, verdict, conditional):
    w = verdict.witness
    assert w is not None and w.energy < 0
    pinned = pin(kernel, np.stack(w.pins)) if w.pins else kernel
    recomputed = mutual_energy(pinned, [w.measure, w.measure]).value
    assert recomputed == pytest.approx(w.energy, abs=1e-12)
    if conditional:
        assert abs(w.measure.total_mass) <= 1e-12


# --- two-input tests ---------------------------------------------------------------


def test_inner_product_kernel_passes_plain():
    verdict = pd_test_2input(inner(), 3, trials=10, set_size=20, seed=1)
    assert verdict.passed
    assert verdict.min_eigenvalue_seen >= -1e-10
    assert verdict.trials_run == 10


def test_negative_distance_fails_plain_with_valid_witness():
    kernel = -riesz(1.0)
    verdict = pd_test_2input(kernel, 3, trials=5, set_size=8, seed=2,
                             include_points=np.stack([E1, E2]))
    assert verdict.outcome == "fail"
    _check_witness(kernel, verdict, conditional=False)


def test_pinned_neg_vol2_fails_plain_on_basis_pair():
    # the 2x2 matrix over {e2, e3} is [[0, -1], [-1, 0]]
    kernel = pin(neg_vol2(), E1)
    mat = _kernel_matrix(kernel, np.stack([E2, E3]))
    assert np.allclose(mat, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)
    verdict = pd_test_2input(kernel, 3, trials=3, set_size=10, seed=3,
                             include_points=np.stack([E2, E3]))
    assert verdict.outcome == "fail"
    _check_witness(kernel, verdict, conditional=False)


def test_pd_test_size_validation():
    with pytest.raises(ValueError):
        pd_test_2input(inner(), 3, trials=0)
    with pytest.raises(ValueError):
        pd_test_2input(inner(), 3, set_size=1)
    with pytest.raises(ValueError):
        pd_test_2input(uvt(), 3)


def test_conditional_restriction_never_below_plain_minimum():
    # Rayleigh restriction to the sum-zero subspace cannot lower the minimum
    rng = np.random.default_rng(4)
    for kernel in [pin(s100(), E1), inner(), -riesz(1.0)]:
        for _ in range(5):
            pts = rng.standard_normal((12, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            mat = _kernel_matrix(kernel, pts)
            plain = _matrix_min_eig(mat, conditional=False)
            restricted = _matrix_min_eig(mat, conditional=True)
            assert restricted >= plain - 1e-12


def test_balanced_basis_properties():
    basis = _balanced_basis(7)
    assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-12)
    assert np.max(np.abs(basis.sum(axis=0))) <= 1e-12


# --- n-input tests ---------------------------------------------------------------------


@pytest.mark.parametrize("kernel_factory,conditional", [
    (uvt, False),
    (lambda: quad_a(-1.0, shift=True), False),
    (lambda: quad_a(0.0, shift=True), False),
    (lambda: quad_a(0.5, shift=True), False),
    (lambda: quad_a(0.9, shift=True), False),
    (lambda: sum_lift(inner(), 3), True),
    (lambda: prod_lift(frame2(), 3), False),
])
def test_npd_positive_families_pass(kernel_factory, conditional):
    for d in (3, 4):
        verdict = npd_test(kernel_factory(), d, conditional=conditional,
                           pin_trials=3, inner_trials=3, set_size=20, seed=5)
        assert verdict.passed
        assert verdict.min_eigenvalue_seen >= -1e-9


@pytest.mark.parametrize("kernel_factory", [neg_vol2, neg_area2, s011, s100])
def test_npd_counterexamples_fail_conditionally(kernel_factory):
    kernel = kernel_factory()
    verdict = npd_test(kernel, 3, conditional=True, pin_trials=3, inner_trials=3,
                       set_size=16, seed=6)
    assert verdict.outcome == "fail"
    _check_witness(kernel, verdict, conditional=True)


def test_sum_lift_of_inner_is_not_plainly_pd():
    # pinning u+v+t at e1 and testing against -e1 gives energy -1
    verdict = npd_test(sum_lift(inner(), 3), 3, conditional=False,
                       pin_trials=3, inner_trials=3, set_size=16, seed=7)
    assert verdict.outcome == "fail"


def test_npd_requires_three_inputs():
    with pytest.raises(ValueError):
        npd_test(inner(), 3)


def test_npd_refuses_pins_of_another_dimension():
    # the kernel is pinned in R^3, the test pins in R^4: the message names both
    with pytest.raises(ValueError, match="point dimension 4 does not match dimension 3"):
        npd_test(pin(sum_lift(inner(), 4), E1), 4)
    with pytest.raises(ValueError, match="point dimension 4 does not match dimension 3"):
        pin(pin(sum_lift(inner(), 4), E1), basis_vector(0, 4))


def test_potential_of_pd_kernel_inherits_positive_definiteness():
    # integrating one slot of a positive definite three-input kernel
    # against any probability measure leaves a positive definite
    # two-input kernel
    from multipot import PotentialKernel
    for seed in (30, 31):
        mu = _random_probability(4, 3, seed)
        inherited = PotentialKernel(uvt(), [mu])
        verdict = pd_test_2input(inherited, 3, trials=6, set_size=12, seed=seed)
        assert verdict.passed
        assert verdict.min_eigenvalue_seen >= -1e-10


# --- shift lemma -------------------------------------------------------------------------


def test_shift_battery_agreement():
    battery = [pin(neg_vol2(), E1), pin(neg_area2(), E1), pin(s011(), E1),
               pin(uvt(), E1), inner(), frame2(), -frame2(), -riesz(2.0), -riesz(1.0)]
    for i, kernel in enumerate(battery):
        result = shift_equivalence_battery(kernel, 3, trials=8, set_size=10, seed=100 + i)
        assert result["disagreements"] == 0, kernel.name


# --- convexity ---------------------------------------------------------------------------


def test_convexity_probe_flat_when_nu_equals_mu():
    mu = _random_probability(4, 3, 8)
    report = convexity_probe(area2(), mu, mu)
    assert report.g_prime_0 == pytest.approx(0.0, abs=1e-12)
    assert report.g_double_prime_0 == pytest.approx(0.0, abs=1e-12)
    assert report.convex_on_unit_interval
    assert report.violation_t is None


def test_convexity_probe_requires_probability_measures():
    mu = _random_probability(3, 3, 9)
    signed = DiscreteMeasure(mu.atoms, mu.weights - 0.2)
    with pytest.raises(ValueError):
        convexity_probe(area2(), mu, signed)


def test_derivative_identities_random_setups():
    rng = np.random.default_rng(10)
    banks = {
        3: [uvt(), area2(), s100(), quad_a(0.7, shift=True)],
        4: [sum_lift(inner(), 4), sum_lift(s011(), 4)],
    }
    for n, bank in banks.items():
        for i in range(8):
            kernel = bank[i % len(bank)]
            mu = _random_probability(3, 3, int(rng.integers(1 << 30)))
            nu = _random_probability(4, 3, int(rng.integers(1 << 30)))
            rep = convexity_probe(kernel, mu, nu, grid=3)
            h0, h1, h2 = potential_mixture(kernel, mu, nu)
            assert 2.0 * (h1 - h0) == pytest.approx((2.0 / n) * rep.g_prime_0,
                                                    rel=1e-8, abs=1e-10)
            assert 2.0 * (h0 - 2.0 * h1 + h2) == pytest.approx(
                (2.0 / (n * (n - 1))) * rep.g_double_prime_0, rel=1e-8, abs=1e-10)


def test_s100_not_convex_at_uniform_surrogate():
    sigma = uniform_surrogate(3, 4000, 11)
    delta = DiscreteMeasure.dirac(E1)
    report = convexity_probe(s100(), sigma, delta)
    assert not report.convex_on_unit_interval
    assert report.violation_t is not None
    halfway = report.mixture(0.5) - 0.5 * (report.mixture(0.0) + report.mixture(1.0))
    assert halfway == pytest.approx(0.25, abs=0.05)


def test_s011_convex_at_uniform_surrogate_for_small_t():
    sigma = uniform_surrogate(3, 4000, 12)
    for seed in (13, 14):
        nu = _random_probability(3, 3, seed)
        g = mixture_polynomial_chord_gap(sigma, nu)
        assert g <= 5e-3  # within the O(M^-1/2) noise of the surrogate


def mixture_polynomial_chord_gap(sigma, nu):
    g = mixture_polynomial(s011(), sigma, nu)
    ts = np.linspace(0.0, 0.2, 21)
    chord = (1 - ts) * g(0.0) + ts * g(1.0)
    return float(np.max(g(ts) - chord))


def test_two_input_conditional_pd_agrees_with_convexity():
    # for two-input kernels, conditional positive definiteness and convex
    # mixture energies come to the same thing
    battery = [
        (inner(), True),
        (frame2(), True),
        (-frame2(), False),
        (-riesz(1.0), True),
        (riesz(1.0), False),
    ]
    rng = np.random.default_rng(15)
    for kernel, expect_cpd in battery:
        verdict = pd_test_2input(kernel, 3, conditional=True, trials=10,
                                 set_size=12, seed=int(rng.integers(1 << 30)))
        assert verdict.passed == expect_cpd, kernel.name
        convex_all = True
        for _ in range(6):
            mu = _random_probability(3, 3, int(rng.integers(1 << 30)))
            nu = _random_probability(3, 3, int(rng.integers(1 << 30)))
            report = convexity_probe(kernel, mu, nu)
            convex_all = convex_all and report.convex_on_unit_interval
        assert convex_all == expect_cpd, kernel.name


# --- potential constancy -----------------------------------------------------------------


def test_potential_constant_for_uniform_surrogate():
    sigma = uniform_surrogate(3, 6000, 16)
    pts = sample_sphere(3, 30, 17)
    for kernel, target in ((area2(), None), (uvt(), 1.0 / 9.0)):
        report = potential_constancy_check(kernel, sigma, pts)
        assert report.passed
        assert report.stderr_estimate > 0
        if target is not None:
            assert report.mean == pytest.approx(target, abs=0.02)


def test_potential_varies_for_point_mass():
    pts = sample_sphere(3, 30, 18)
    report = potential_constancy_check(uvt(), DiscreteMeasure.dirac(E1), pts)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_potential_degenerate_point_mass_is_exactly_constant():
    # the squared triangle area with two coinciding vertices vanishes, so
    # the pinned potential is identically zero and constancy holds
    pts = sample_sphere(3, 30, 19)
    report = potential_constancy_check(area2(), DiscreteMeasure.dirac(E1), pts)
    assert report.passed
    assert abs(report.mean) <= 1e-14


def test_potential_varies_for_two_atom_measure():
    two = DiscreteMeasure(np.stack([E1, E2]), np.array([0.5, 0.5]))
    pts = sample_sphere(3, 30, 20)
    report = potential_constancy_check(area2(), two, pts)
    assert not report.passed


def test_constancy_check_needs_test_points():
    sigma = uniform_surrogate(3, 100, 21)
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="need at least one test point"):
            potential_constancy_check(area2(), sigma, empty)


_STDERR_KERNELS = {
    "area2": lambda d: area2(),
    "uvt": lambda d: uvt(),
    "vol2": lambda d: vol2(),
    "s011": lambda d: s011(),
    "pinned-lift": lambda d: pin(sum_lift(area2(), 4), sample_sphere(d, 1, 22).points[0]),
    "exp-uvt": lambda d: prod_f_uvt(f="exp"),     # no pair polynomial: the dense route
}
# every pair polynomial at each d and weighting; exp(uvt) at one of them
_STDERR_CASES = [(name, d, weights) for name in list(_STDERR_KERNELS)[:-1]
                 for d in (2, 3, 5) for weights in ("random", "uniform")]
_STDERR_CASES.append(("exp-uvt", 3, "random"))


@pytest.mark.parametrize("name, d, weights", _STDERR_CASES)
def test_potential_stderr_matches_per_point_loop(name, d, weights):
    kernel = _STDERR_KERNELS[name](d)
    atoms = sample_sphere(d, 600, 23).points
    # the random weights are not a probability measure either (total mass about 0.9)
    w = None if weights == "uniform" else (np.random.default_rng(24).random(600) + 0.1) / 400
    mu = DiscreteMeasure(atoms, w)
    pts = sample_sphere(d, 20, 25).points
    got = _potential_stderr(kernel, mu, pts)
    expected = potential_stderr_loop(kernel, mu, pts)
    if name == "vol2" and d == 2:   # vol2 vanishes on S^1: both are rounding noise
        assert max(got, expected) < 1e-14
    else:
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_constancy_noise_of_a_kernel_without_contraction():
    # prod_f_uvt(exp) is no pair polynomial: its fold potentials take the dense route
    report = potential_constancy_check(prod_f_uvt(f="exp"), uniform_surrogate(3, 400, 1),
                                       sample_sphere(3, 10, 2))
    assert report.stderr_estimate > 0
    assert report.passed


def test_constancy_of_a_cancelled_polynomial():
    # no monomial is left, so the potential is 0 at every point, and so are
    # the folds' potentials: no noise
    report = potential_constancy_check(area2() + (-1.0) * area2(), uniform_surrogate(3, 300, 1),
                                       sample_sphere(3, 4, 2))
    assert report.values.shape == (4,) and not np.any(report.values)
    assert report.stderr_estimate == 0.0
    assert report.passed


def _force_dense_route(monkeypatch):
    """Send every exact sum and potential to the dense route."""
    monkeypatch.setattr(energy_mod, "_route", lambda *args: None)


@pytest.mark.parametrize("kernel", [area2(), uvt(), vol2()], ids=["area2", "uvt", "vol2"])
def test_fold_noise_is_the_same_on_either_route(kernel, monkeypatch):
    w = (np.random.default_rng(26).random(300) + 0.1) / 200
    mu = DiscreteMeasure(sample_sphere(3, 300, 27).points, w)
    pts = sample_sphere(3, 12, 28).points
    moment = _potential_stderr(kernel, mu, pts)
    assert moment > 0
    _force_dense_route(monkeypatch)
    np.testing.assert_allclose(_potential_stderr(kernel, mu, pts), moment, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kernel", [inner(), frame2(), sum_lift(area2(), 4)],
                         ids=["inner", "frame2", "sum_lift(area2,4)"])
def test_constancy_holds_for_sigma_at_arities_two_and_four(kernel):
    # sigma's potential is constant for every rotation-invariant kernel, at
    # any arity: the fold noise covers them all
    report = potential_constancy_check(kernel, uniform_surrogate(3, 20_000, 1),
                                       sample_sphere(3, 50, 2))
    assert report.stderr_estimate > 0
    assert report.passed


# chi-square quantiles of 40 degrees of freedom at 1e-4 and 1 - 1e-4: a correct
# noise estimate trips one of them with probability 2e-4 per kernel
_CHI2_40 = (14.883, 82.062)


@pytest.mark.parametrize("kernel, d, constant", [
    (inner(), 3, 0.0), (frame2(), 3, 1 / 3), (area2(), 3, 0.5), (uvt(), 5, 1 / 25),
    (vol2(), 4, 6 / 16), (sum_lift(area2(), 4), 3, 2.0),
], ids=["inner", "frame2", "area2", "uvt", "vol2", "sum_lift(area2,4)"])
def test_fold_stderr_is_calibrated_over_seeds(kernel, d, constant):
    # 40 seeded 1,000-atom surrogates of sigma, whose potential is the constant
    # energy.  (1) At the first test point, the z-scores of the potential
    # against the constant, over the folds' stderr, have squares that sum to
    # a chi-square of 40 degrees of freedom if the stderr is honest.  (2) The
    # false-alarm bound: at most one of the 40 checks may call the potential
    # not constant.  In 1,920 checks on other seeds 2 did (0.1 %);
    # at that rate a correct check has two or more with probability 8e-4.
    pts = sample_sphere(d, 50, 31).points
    z, alarms = [], 0
    for s in range(40):
        report = potential_constancy_check(kernel, uniform_surrogate(d, 1000, 600 + s), pts)
        z.append((report.values[0] - constant) / report.stderr_estimate)
        alarms += not report.passed
    assert _CHI2_40[0] <= sum(x * x for x in z) <= _CHI2_40[1]
    assert alarms <= 1


def test_constancy_fails_for_a_point_mass_in_a_surrogate():
    # a 20k-atom sample of 0.95 sigma + 0.05 delta(e1): each atom is e1 with
    # probability 0.05, so every fold sees the point mass and its potential's
    # tilt is not noise.  (One atom of weight 0.05 would be one heavy draw,
    # which any noise estimate from the atoms' spread counts as noise.)
    sigma = uniform_surrogate(3, 20_000, 1)
    atoms = sigma.atoms.copy()
    atoms[np.random.default_rng(3).random(sigma.n_atoms) < 0.05] = E1
    biased = DiscreteMeasure(atoms)
    pts = sample_sphere(3, 50, 2)
    for kernel in (area2(), uvt(), inner(), frame2()):
        assert potential_constancy_check(kernel, sigma, pts).passed, kernel.name
        report = potential_constancy_check(kernel, biased, pts)
        assert report.stderr_estimate > 0 and not report.passed, kernel.name


@pytest.mark.parametrize("atoms", [5, 12])
def test_constancy_fails_for_tiny_random_measures(atoms):
    # fewer than _FOLDS**2 atoms are no sample: the noise estimate is 0, so
    # the check asks for constancy to rounding, and no small measure has it
    pts = sample_sphere(3, 30, 3)
    for seed in range(5):
        mu = _random_probability(atoms, 3, 40 + seed)
        for kernel in (uvt(), area2(), inner()):
            report = potential_constancy_check(kernel, mu, pts)
            assert report.stderr_estimate == 0.0
            assert not report.passed, (kernel.name, seed)


def test_measures_that_are_no_sample_get_no_noise_estimate():
    # a negative weight, a fold without mass, or fewer than _FOLDS**2 atoms
    sigma = uniform_surrogate(3, _FOLDS**2 * 4, 5)
    pts = sample_sphere(3, 10, 6).points
    assert _potential_stderr(area2(), sigma, pts) > 0
    signed = DiscreteMeasure(sigma.atoms, sigma.weights * np.where(np.arange(sigma.n_atoms) == 7,
                                                                   -1.0, 1.0))
    assert _potential_stderr(area2(), signed, pts) == 0.0
    massless = DiscreteMeasure(sigma.atoms, np.where(np.arange(sigma.n_atoms) < 64, 0.0, 1.0))
    assert _potential_stderr(area2(), massless, pts) == 0.0     # its first fold has no mass
    small = DiscreteMeasure(sigma.atoms[:_FOLDS**2 - 1])
    assert _potential_stderr(area2(), small, pts) == 0.0
    assert _potential_stderr(area2(), DiscreteMeasure(sigma.atoms[:_FOLDS**2]), pts) > 0


# --- inequality suite ---------------------------------------------------------------------


def test_inequality_suite_uvt():
    report = inequality_suite(uvt(), 3, trials=200, seed=21)
    assert report.am_worst <= 1e-10
    assert report.gm_worst is not None and report.gm_worst <= 1e-10
    assert report.lower_worst <= 1e-10
    assert report.diagonal_worst <= 1e-10
    assert report.gm_trials == 200
    assert report.am_violations == 0


def test_inequality_suite_quad_a_boundary():
    report = inequality_suite(quad_a(1.0), 3, trials=200, seed=22)
    assert report.am_worst <= 1e-10
    assert report.diagonal_worst <= 1e-10


def test_inequality_suite_quad_a_shifted_gm():
    report = inequality_suite(quad_a(0.5, shift=True), 3, trials=200, seed=23)
    assert report.gm_worst is not None and report.gm_worst <= 1e-10
    assert report.lower_worst <= 1e-10


def test_inequality_suite_sum_lift_am():
    report = inequality_suite(sum_lift(inner(), 3), 3, trials=200, seed=25)
    assert report.am_worst <= 1e-10
    assert report.diagonal_worst <= 1e-10


def test_inequality_suite_s100_violates_am():
    report = inequality_suite(s100(), 3, trials=200, seed=24)
    assert report.am_violations > 0


_SUITE_KERNELS = {
    "inner": inner, "uvt": uvt, "quad_a(0.5,shift)": lambda: quad_a(0.5, shift=True),
    "s100": s100, "sum_lift(inner,4)": lambda: sum_lift(inner(), 4),
    "prod_f_uvt(exp)": lambda: prod_f_uvt(f="exp"), "pin(vol2,e1)": lambda: pin(vol2(), E1),
}


@pytest.mark.parametrize("name", sorted(_SUITE_KERNELS))
def test_inequality_suite_matches_trial_loop(name):
    # the batched suite against the one-trial-at-a-time oracle, across
    # block boundaries: counts exactly, residuals up to summation order
    kernel = _SUITE_KERNELS[name]()
    _, chunk = next(_spans(10_000, (kernel.arity + 1) * _MAX_ATOMS**kernel.arity, _CHUNK_TUPLES))
    for trials in sorted({1, max(chunk - 1, 1), chunk + 1, 200}):
        seed = 300 + trials
        got = inequality_suite(kernel, 3, trials=trials, seed=seed).as_dict()
        want = inequality_suite_loop(kernel, 3, trials, seed)
        for key in ("trials", "am_violations", "gm_violations", "lower_violations",
                    "diagonal_violations", "gm_trials"):
            assert got[key] == want[key], (trials, key)
        for key in ("am_worst", "gm_worst", "lower_worst", "diagonal_worst"):
            if want[key] is None:
                assert got[key] is None, (trials, key)
            else:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12), (trials, key)


def test_inequality_suite_validation():
    with pytest.raises(ValueError):
        inequality_suite(uvt(), 3, trials=0)
    # one arity-8 trial is 9 * 5^8 tuples, more than one grid block
    with pytest.raises(ValueError, match="arity 8: a trial.s 3515625 tuples exceed"):
        inequality_suite(sum_lift(inner(), 8), 3, trials=1)


def test_inequality_suite_runs_past_arity_four():
    kernel = sum_lift(inner(), 5)
    got = inequality_suite(kernel, 3, trials=3, seed=27).as_dict()
    want = inequality_suite_loop(kernel, 3, 3, 27)
    for key, value in want.items():
        if key.endswith("_worst") and value is not None:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
        else:
            assert got[key] == value, key


def test_dimension_and_grid_checks_name_the_value(capsys):
    # (library call, the text its message ends with, the CLI arguments that
    # pass the same value; None where argparse cannot)
    from multipot.cli import main

    mu = _random_probability(3, 3, 12)
    pdtest = ["pdtest", "--kernel", "inner", "--d", "3"]
    npdtest = ["pdtest", "--kernel", "s011", "--d", "3"]
    minimize = ["minimize", "--kernel", "area2", "--n", "4", "--d", "3"]
    cfg = OptimizerConfig(steps=1)
    table = [
        (lambda: inequality_suite(uvt(), 1, trials=2), "got 1",
         ["inequalities", "--kernel", "uvt", "--d", "1", "--trials", "2"]),
        (lambda: inequality_suite(area2(), 0, trials=2), "got 0",
         ["inequalities", "--kernel", "area2", "--d", "0", "--trials", "2"]),
        (lambda: inequality_suite(inner(), -3, trials=2), "got -3",
         ["inequalities", "--kernel", "inner", "--d", "-3", "--trials", "2"]),
        (lambda: inequality_suite(uvt(), 3, trials=2.5), "got 2.5", None),
        (lambda: convexity_probe(area2(), mu, mu, grid=1), "got 1", None),
        (lambda: convexity_probe(area2(), mu, mu, grid=0), "got 0", None),
        (lambda: convexity_probe(area2(), mu, mu, grid=-2), "got -2", None),
        (lambda: convexity_probe(area2(), mu, mu, grid=np.nan), "got nan", None),
        (lambda: convexity_probe(area2(), mu, mu, grid=2.5), "got 2.5", None),
        (lambda: random_rotation(2.5, 0), "got 2.5", None),
        (lambda: random_rotation(1, 0), "got 1", None),
        (lambda: random_rotation(0, 0), "got 0", None),
        (lambda: quad_a(0.5, shift="no"), "got 'no'", None),
        (lambda: energy_gradient(area2(), sample_sphere(3, 4, 0), 1.5), "got 1.5", None),
        (lambda: retract(E1, [np.nan, 0.0, 0.0]), "||x + v|| must be finite, got nan", None),
        (lambda: project_tangent(E1, [np.inf, 0.0, 0.0]), "<g, x> must be finite, got inf", None),
        (lambda: pd_test_2input(inner(), 0), "got 0", ["pdtest", "--kernel", "inner", "--d", "0"]),
        (lambda: pd_test_2input(inner(), 1), "got 1", ["pdtest", "--kernel", "inner", "--d", "1"]),
        (lambda: pd_test_2input(inner(), 3, trials=0), "got 0", pdtest + ["--trials", "0"]),
        (lambda: pd_test_2input(inner(), 3, trials=2.5), "got 2.5", None),
        (lambda: pd_test_2input(inner(), 3, trials=True), "got True", None),
        (lambda: pd_test_2input(inner(), 3, set_size=1), "got 1", pdtest + ["--set-size", "1"]),
        (lambda: pd_test_2input(inner(), 3, tol=np.nan), "got nan", pdtest + ["--tol", "nan"]),
        (lambda: pd_test_2input(inner(), 3, tol=np.inf), "got inf", pdtest + ["--tol", "inf"]),
        (lambda: pd_test_2input(inner(), 3, tol=-1e-3), "got -0.001", pdtest + ["--tol", "-1e-3"]),
        (lambda: pd_test_2input(inner(), 3, include_points=[[np.nan, 0.0, 0.0]]),
         "|norm - 1| = nan at row 0", None),
        (lambda: pd_test_2input(inner(), 3, include_points=[E1, [2.0, 0.0, 0.0]]),
         "|norm - 1| = 1.000e+00 at row 1", None),
        (lambda: pd_test_2input(inner(), 3, include_points=[[1.0, 0.0]]), "got shape (1, 2)", None),
        (lambda: npd_test(s011(), 3, tol=np.nan), "got nan", npdtest + ["--tol", "nan"]),
        (lambda: npd_test(s011(), 3, tol=np.inf), "got inf", npdtest + ["--tol", "inf"]),
        (lambda: npd_test(s011(), 0), "got 0", ["pdtest", "--kernel", "s011", "--d", "0"]),
        (lambda: npd_test(s011(), 3, pin_trials=0), "got 0", npdtest + ["--trials", "0"]),
        (lambda: npd_test(s011(), 3, inner_trials=0), "got 0", npdtest + ["--inner-trials", "0"]),
        (lambda: npd_test(s011(), 3, set_size=1), "got 1", npdtest + ["--set-size", "1"]),
        (lambda: shift_equivalence_battery(inner(), 1), "got 1", None),
        (lambda: shift_equivalence_battery(inner(), 3, set_size=1), "got 1", None),
        (lambda: shift_equivalence_battery(inner(), 3, trials=0), "got 0", None),
        (lambda: shift_equivalence_battery(inner(), 3, trials=1.0), "got 1.0", None),
        (lambda: sample_sphere(3, 2.5, 0), "got 2.5", None),
        (lambda: sample_sphere(np.nan, 4, 0), "got nan", None),
        (lambda: sample_sphere(3, 0, 0), "got 0", None),
        (lambda: uniform_surrogate(3.5, 10, 0), "got 3.5", None),
        (lambda: multistart(area2(), 4, 3, cfg, starts=2.5), "got 2.5", None),
        (lambda: multistart(area2(), 4, 3, cfg, starts=0), "got 0", minimize + ["--multistart", "0"]),
        (lambda: multistart(area2(), 2.5, 3, cfg), "got 2.5", None),
        (lambda: multistart(area2(), True, 3, cfg), "got True", None),
        (lambda: multistart(area2(), 0, 3, cfg), "got 0", minimize[:4] + ["--n", "0", "--d", "3"]),
        (lambda: multistart(area2(), 4, np.nan, cfg), "got nan", None),
        (lambda: optimize_discrete(area2(), 2.5, 3, cfg, initial=np.eye(3)), "got 2.5", None),
        (lambda: optimize_discrete(area2(), 3, 3.0, cfg, initial=np.eye(3)), "got 3.0", None),
        (lambda: pin(area2(), [[2.0, 0.0, 0.0]]), "|norm - 1| = 1.000e+00 at row 0", None),
        (lambda: pin(area2(), [[np.nan, 0.0, 0.0]]), "|norm - 1| = nan at row 0", None),
        (lambda: pin(sum_lift(inner(), 4), [E1, [0.0, 0.5, 0.0]]), "|norm - 1| = 5.000e-01 at row 1",
         None),
        (lambda: cpd_shift(inner(), [0.0, 2.0, 0.0]), "|norm - 1| = 1.000e+00 at row 0", None),
        (lambda: cpd_shift(inner(), [np.nan, 0.0, 0.0]), "|norm - 1| = nan at row 0", None),
    ]
    for call, tail, argv in table:
        with pytest.raises(ValueError, match=re.escape(tail) + "$"):
            call()
        if argv is not None:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 64, argv
            assert capsys.readouterr().out == "", argv
    assert inequality_suite(uvt(), 2, trials=2).trials == 2
    assert len(convexity_probe(area2(), mu, mu, grid=2).mixture.coefficients) == 4
    assert pd_test_2input(inner(), 2, trials=np.int64(1), set_size=2, tol=0.0).trials_run == 1
    assert pd_test_2input(inner(), 3, trials=1, set_size=2, include_points=[E1, E2]).passed
    assert shift_equivalence_battery(inner(), 2, trials=1, set_size=2)["trials"] == 1


# --- batched batteries: the same generator calls, evaluated a block at a time ----------


def _verdict_bits(verdict):
    w = verdict.witness
    witness = None if w is None else (
        w.measure.atoms.tobytes(), w.measure.weights.tobytes(), w.energy.hex())
    return verdict.outcome, verdict.trials_run, verdict.min_eigenvalue_seen.hex(), witness


def _loop_bits(outcome, trials, min_eig, witness):
    if witness is not None:
        atoms, weights, energy = witness
        witness = (atoms.tobytes(), weights.tobytes(), energy.hex())
    return outcome, trials, min_eig.hex(), witness


def _shift_bits(result):
    pairs = [(a.hex(), b.hex()) for a, b in result["eigenvalue_pairs"]]
    return {**result, "eigenvalue_pairs": pairs}


_BATTERY_KERNELS = {
    "inner": lambda d: inner(),
    "-riesz(1)": lambda d: -riesz(1.0),
    "riesz(1)": lambda d: riesz(1.0),
    "pin(neg_vol2,e1)": lambda d: pin(neg_vol2(), basis_vector(0, d)),
    "pin(s011,e1)": lambda d: pin(s011(), basis_vector(0, d)),
    "cpd_shift(-riesz(1),e2)": lambda d: cpd_shift(-riesz(1.0), basis_vector(1, d)),
}


# The trial-loop comparisons below run at a block of this many tuples, below the
# default, so that small trial counts span several blocks; the draws do not
# depend on the block size (test_block_size_changes_no_bit).
_SMALL_BLOCK = 6144


@pytest.mark.parametrize("name", sorted(_BATTERY_KERNELS))
@pytest.mark.parametrize("conditional", [False, True])
def test_pd_test_matches_trial_loop_bitwise(name, conditional, monkeypatch):
    # set_size 12 runs 42 trials a small block and set_size 40 three, so the
    # trial counts below span one, two and four blocks
    monkeypatch.setattr(certify, "_CHUNK_TUPLES", _SMALL_BLOCK)
    for d, trials, set_size, include, tol in [
        (3, 5, 12, None, None), (3, 70, 12, None, None), (2, 12, 40, None, None),
        (5, 60, 12, [basis_vector(0, 5), basis_vector(1, 5)], None),
        (3, 11, 40, [E2, E3], None), (3, 8, 10, [E1], 1e-6),
    ]:
        kernel = _BATTERY_KERNELS[name](d)
        seed = 11 * trials + set_size
        got = pd_test_2input(kernel, d, conditional=conditional, trials=trials,
                             set_size=set_size, seed=seed, tol=tol, include_points=include)
        assert got.witness is None or got.witness.pins == ()
        want = pd_test_loop(kernel, d, conditional, trials, set_size, seed, tol, include)
        assert _verdict_bits(got) == _loop_bits(*want), (d, trials, set_size)


@pytest.mark.parametrize("name", sorted(_BATTERY_KERNELS))
def test_shift_battery_matches_trial_loop_bitwise(name, monkeypatch):
    monkeypatch.setattr(certify, "_CHUNK_TUPLES", _SMALL_BLOCK)
    for d, trials, set_size in [(3, 8, 10), (3, 70, 12), (4, 9, 40)]:
        kernel = _BATTERY_KERNELS[name](d)
        got = shift_equivalence_battery(kernel, d, trials=trials, set_size=set_size, seed=trials)
        want = shift_battery_loop(kernel, d, trials, set_size, trials)
        assert _shift_bits(got) == _shift_bits(want), (d, trials, set_size)


def test_block_size_changes_no_bit(monkeypatch):
    def run():
        return (
            [repr(inequality_suite(kernel, d, trials=19, seed=d).as_dict())
             for kernel in (uvt(), s100(), sum_lift(inner(), 4)) for d in (2, 3, 9)],
            [_verdict_bits(v) for v in (
                pd_test_2input(-riesz(1.0), 3, trials=9, set_size=7, seed=1),
                pd_test_2input(pin(s011(), E1), 3, conditional=True, trials=9, set_size=7, seed=2),
                npd_test(neg_area2(), 3, conditional=True, pin_trials=2, inner_trials=5,
                         set_size=8, seed=3))],
            _shift_bits(shift_equivalence_battery(frame2(), 3, trials=9, set_size=7, seed=4)),
        )

    results = []
    for chunk in (1, 100, 1 << 20):
        monkeypatch.setattr(certify, "_CHUNK_TUPLES", chunk)
        results.append(run())
    assert results[0] == results[1] == results[2]


def test_battery_blocks_stay_within_their_memory_bounds():
    # a block's arrays are allocated once per block: the peak is set by the
    # block size, not by the number of trials
    for run, bound_mib in [
        (lambda: inequality_suite(uvt(), 3, trials=1000), 1.0),
        (lambda: npd_test(uvt(), 3, pin_trials=2, inner_trials=5, set_size=40), 0.5),
    ]:
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, peak


class _ZeroFirstNormalRow:
    """A seeded generator whose first standard-normal draw has a zero first
    row; records the shapes of its standard-normal draws."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.normal_shapes = []

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)

    def standard_normal(self, size=None, out=None):
        out = self._rng.standard_normal(size, out=out)
        if not self.normal_shapes:
            out.reshape(-1, out.shape[-1])[0] = 0.0
        self.normal_shapes.append(out.shape)
        return out


def _unit_rows_only(kernel, seen):
    """``kernel``, with an evaluate_batch and an evaluate_grid that fail on
    any input row (of any slot array) that is not a finite unit vector and
    append the shape of each input to ``seen``."""
    evaluate_batch, evaluate_grid = kernel.evaluate_batch, kernel.evaluate_grid

    def check(pts):
        assert np.all(np.abs(np.linalg.norm(pts, axis=-1) - 1.0) <= 1e-12)
        seen.append(pts.shape)

    def checked_batch(pts):
        check(pts)
        return evaluate_batch(pts)

    def checked_grid(arrays):
        for a in arrays:
            check(a)
        return evaluate_grid(arrays)

    kernel.evaluate_batch, kernel.evaluate_grid = checked_batch, checked_grid
    return kernel


def test_zero_rows_are_redrawn_at_the_end_of_their_block(monkeypatch):
    stub = _ZeroFirstNormalRow(5)
    atoms, weights, probes = _draw_trials(stub, 2, 3, 4)
    assert stub.normal_shapes[-1] == (1, 4)
    assert len(stub.normal_shapes) == 2 * 4 + 1
    np.testing.assert_allclose(np.linalg.norm(atoms, axis=-1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(probes, axis=-1), 1.0, rtol=0, atol=1e-15)
    padded = weights[0, 0] == 0.0
    assert np.all(atoms[0, 0, padded] == atoms[0, 0, 0])
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    # the first random row of each battery is zero; it must be redrawn once,
    # after the block's draws, before any kernel sees it
    seen = []
    runs = [
        lambda: [inequality_suite(_unit_rows_only(uvt(), seen), 3, trials=3).am_worst],
        lambda: [pd_test_2input(_unit_rows_only(inner(), seen), 3, trials=3,
                                set_size=6).min_eigenvalue_seen],
        lambda: shift_equivalence_battery(_unit_rows_only(-riesz(1.0), seen), 3, trials=3,
                                          set_size=6)["eigenvalue_pairs"],
    ]
    for run in runs:
        stub = _ZeroFirstNormalRow()
        monkeypatch.setattr(certify.np.random, "default_rng", lambda seed=None: stub)
        seen.clear()
        values = run()
        assert seen
        assert stub.normal_shapes[-1] == (1, 3) and stub.normal_shapes.count((1, 3)) == 1
        assert np.all(np.isfinite(values))


# --- pair polynomials on grids: from slot inner products, with the coordinates' bits -----


def _unit_point(d, seed):
    return _random_directions(np.random.default_rng(seed), (d,))


_GRID_KERNELS = {
    "uvt": lambda d: uvt(),
    "area2": lambda d: area2(),
    "vol2": lambda d: vol2(),
    "s011": lambda d: s011(),
    "s100": lambda d: s100(),
    "quad_a(0.5)": lambda d: quad_a(0.5),
    "quad_a(0.5,shift)": lambda d: quad_a(0.5, shift=True),
    "inner": lambda d: inner(),
    "frame2": lambda d: frame2(),
    "pin(vol2)": lambda d: pin(vol2(), _unit_point(d, 1)),
    "pin(area2)": lambda d: pin(area2(), _unit_point(d, 2)),
    "pin(s011)": lambda d: pin(s011(), basis_vector(0, d)),
    "pin(uvt)": lambda d: pin(uvt(), _unit_point(d, 3)),
    "sum_lift(inner,3)": lambda d: sum_lift(inner(), 3),
    "sum_lift(inner,4)": lambda d: sum_lift(inner(), 4),
    "prod_lift(inner,3)": lambda d: prod_lift(inner(), 3),
    "prod_lift(frame2,3)": lambda d: prod_lift(frame2(), 3),
    # anchor shifts are combinations: each term from its base's grid
    "cpd_shift(inner,e1)": lambda d: cpd_shift(inner(), basis_vector(0, d)),
    "cpd_shift(pin(neg_vol2,e1),e2)": lambda d: cpd_shift(pin(neg_vol2(), basis_vector(0, d)),
                                                          basis_vector(1, d)),
    "cpd_shift(-riesz(1),e2)": lambda d: cpd_shift(-riesz(1.0), basis_vector(1, d)),
}


def _on_coordinates(kernel):
    """``kernel``, evaluating every grid from its coordinates."""
    kernel.evaluate_grid = lambda arrays: grid_values_by_coordinates(kernel, arrays)
    return kernel


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(_GRID_KERNELS))
def test_grid_evaluation_matches_coordinates_bitwise(name):
    for d in (2, 3, 5, 9):
        kernel = _GRID_KERNELS[name](d)
        reference = _on_coordinates(_GRID_KERNELS[name](d))
        assert isinstance(kernel, (kernels.PolynomialKernel, kernels._Combination))
        n, rng = kernel.arity, np.random.default_rng(d)
        # the suite's padded 5-atom layout, its energies and its diagonal bounds
        atoms, weights, probes = _draw_trials(rng, 7, n, d)
        padded = [atoms[:, s] for s in range(n)]
        assert _same_bits(kernel.evaluate_grid(padded), grid_values_by_coordinates(kernel, padded))
        assert _same_bits(_trial_energies(kernel, atoms, weights),
                          _trial_energies(reference, atoms, weights))
        assert _same_bits(_diagonal_residuals(kernel, probes), _diagonal_residuals(reference, probes))
        # leading axes that broadcast, and slot arrays of different sizes
        leads = [(3, 1), (1, 4), (4,), ()]
        arrays = [_random_directions(rng, leads[s] + (s + 2, d)) for s in range(n)]
        got = kernel.evaluate_grid(arrays)
        assert got.shape == (3, 4) + tuple(s + 2 for s in range(n))
        assert _same_bits(got, grid_values_by_coordinates(kernel, arrays))
        if n == 2:
            for pts in (_random_directions(rng, (6, 12, d)), _random_directions(rng, (9, d))):
                assert _same_bits(_kernel_matrix(kernel, pts), _kernel_matrix(reference, pts))


# the pair polynomials of the grid test, and one with powers above 2
_MONOMIAL_KERNELS = {
    **{name: make for name, make in _GRID_KERNELS.items() if not name.startswith("cpd_shift")},
    "prod_f_uvt(cubic)": lambda d: prod_f_uvt([0.5, 1.0, 0.0, 2.0]),
}


@pytest.mark.parametrize("name", sorted(_MONOMIAL_KERNELS))
def test_in_place_monomial_sum_matches_the_plain_expression(name):
    # the suite's padded grid, grid pair values that broadcast, and a
    # Monte-Carlo-sized batch of tuples as one-point slot arrays
    d, rng = 3, np.random.default_rng(7)
    poly = _MONOMIAL_KERNELS[name](d).pair_poly
    n = poly.nslots
    atoms = _draw_trials(rng, 7, n, d)[0]
    leads = [(3, 1), (1, 4), (4,), ()]
    for arrays in ([atoms[:, s] for s in range(n)],
                   [_random_directions(rng, leads[s] + (s + 2, d)) for s in range(n)],
                   kernels._point_slots(_random_directions(rng, (66666, n, d)))):
        vals = poly._grid_pair_values(arrays)
        _check_monomial_sum(poly, vals, kernels._tuple_shape(arrays))


def _check_monomial_sum(poly, vals, batch):
    before = {pair: v.copy() for pair, v in vals.items()}
    got = poly._sum_monomials(vals, batch)
    assert _same_bits(got, sum_monomials_out_of_place(poly, vals, batch))
    assert all(_same_bits(vals[pair], v) for pair, v in before.items())


def test_grid_evaluation_checks_its_arrays():
    pts = _random_directions(np.random.default_rng(0), (4, 3))
    with pytest.raises(ValueError, match="takes 3 points"):
        uvt().evaluate_grid([pts, pts])
    with pytest.raises(ValueError, match="pinned points"):
        pin(vol2(), E1).evaluate_grid([pts[:, :2], pts[:, :2]])


def test_pair_polynomial_batteries_build_no_coordinate_grid(monkeypatch):
    def no_grid(arrays):
        raise AssertionError("a coordinate grid was built")

    monkeypatch.setattr(kernels, "_grid", no_grid)
    monkeypatch.setattr(energy_mod, "_grid", no_grid)
    assert pd_test_2input(pin(neg_vol2(), E1), 3, trials=3, set_size=8).outcome == "fail"
    assert pd_test_2input(frame2(), 3, conditional=True, trials=3, set_size=8).passed
    assert npd_test(s011(), 3, conditional=True, pin_trials=2, inner_trials=2,
                    set_size=8).outcome == "fail"
    assert shift_equivalence_battery(pin(s011(), E1), 3, trials=3, set_size=8)["trials"] == 3
    for kernel in (quad_a(0.5), sum_lift(inner(), 4), inner()):
        assert inequality_suite(kernel, 3, trials=5).trials == 5
    # the anchor shift of a pair polynomial takes its terms from their grids
    # too, and riesz takes its grid from the slot arrays' differences
    assert pd_test_2input(cpd_shift(inner(), E1), 3, trials=1, set_size=4).passed
    for kernel in (riesz(1.0), -riesz(1.0), cpd_shift(-riesz(1.0), E1)):
        assert pd_test_2input(kernel, 3, trials=1, set_size=4).trials_run == 1
    # nor do the energy module's dense sums and gradients
    mu, pts = uniform_surrogate(3, 12, 1), sample_sphere(3, 4, 2).points
    for kernel in (area2(), pin(vol2(), E1)):
        _dense_mutual(kernel, [mu] * kernel.arity)
        _dense_potential(kernel.evaluate_grid, [mu] * (kernel.arity - 1), pts[:, None, :])
    for kernel in (riesz(0.5), prod_f_uvt(f="exp")):
        assert energy_mod._bind(kernel, pts)[1](pts).shape == pts.shape


@pytest.mark.parametrize("name", sorted(_BATTERY_KERNELS))
def test_eigvalsh_least_eigenvalue_is_within_tolerance_of_eigh(name):
    for d, set_size in [(2, 40), (3, 12), (5, 20)]:
        kernel = _BATTERY_KERNELS[name](d)
        mats = _kernel_matrix(kernel, _random_sets(np.random.default_rng(d), 30,
                                                   np.zeros((0, d)), set_size))
        for conditional in (False, True):
            by_eigh = np.linalg.eigh(_restricted(mats, conditional))[0][:, 0]
            gap = np.abs(_matrix_min_eig(mats, conditional) - by_eigh)
            assert np.all(gap <= _eigen_tol(mats)), (d, conditional, gap.max())
