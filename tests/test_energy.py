"""Discrete/mutual energies, potentials, Monte-Carlo estimates, mixtures.

Expected values are frozen from the independent oracles in oracles.py
(brute-force tuple enumeration, raw-moment Monte Carlo) or from direct
closed forms.
"""
import itertools
import re

import numpy as np
import pytest

import multipot.energy as energy_mod
from multipot.kernels import PairPolynomial, PolynomialKernel
from multipot import (
    DiscreteMeasure,
    PointConfiguration,
    PotentialKernel,
    area2,
    basis_vector,
    combine,
    discrete_energy,
    frame2,
    inner,
    mc_energy_uniform,
    mix,
    mixture_polynomial,
    mutual_energy,
    neg_area2,
    neg_vol2,
    pin,
    potential,
    prod_f_uvt,
    prod_lift,
    quad_a,
    riesz,
    s011,
    s100,
    sample_sphere,
    sum_lift,
    uniform_surrogate,
    uvt,
    vol2,
)
from oracles import (
    area2_fn,
    brute_discrete,
    brute_mutual,
    measure_as_pairs,
    moment_mc,
    s011_fn,
    uvt_fn,
    vol2_fn,
)

E1, E2, E3 = (basis_vector(i, 3) for i in range(3))


def _random_measure(n_atoms, d, seed, probability=True):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n_atoms, d))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.random(n_atoms) + 0.05
    if probability:
        w = w / w.sum()
    return DiscreteMeasure(atoms, w)


# --- discrete energy -----------------------------------------------------------


def test_discrete_uvt_two_basis_points():
    pts = np.eye(2)
    est = discrete_energy(uvt(), PointConfiguration(pts))
    # oracle: only the two constant triples out of 8 contribute 1 each
    assert brute_discrete(uvt_fn, list(pts)) == pytest.approx(0.25, abs=1e-15)
    assert est.value == pytest.approx(0.25, abs=1e-15)
    assert est.is_exact and est.samples_used == 8


def test_discrete_vol2_basis_triple():
    pts = np.eye(3)
    est = discrete_energy(vol2(), PointConfiguration(pts))
    # oracle: the 6 permutation triples contribute 1 each, out of 27
    assert brute_discrete(vol2_fn, list(pts)) == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert est.value == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_discrete_area2_single_point_degenerate():
    config = PointConfiguration(E1[None, :])
    assert discrete_energy(area2(), config).value == pytest.approx(0.0, abs=1e-15)


def test_discrete_matches_brute_force_on_random_configs():
    for seed, (kernel, fn) in enumerate([(uvt(), uvt_fn), (area2(), area2_fn),
                                         (s011(), s011_fn), (vol2(), vol2_fn)]):
        config = sample_sphere(3, 5, seed + 100)
        expected = brute_discrete(fn, list(config.points))
        assert discrete_energy(kernel, config).value == pytest.approx(expected, abs=1e-12)


def test_discrete_equals_mutual_of_empirical_measure():
    for seed, kernel in enumerate([uvt(), area2(), s100(), sum_lift(inner(), 4)]):
        config = sample_sphere(3, 6, seed + 200)
        empirical = DiscreteMeasure.from_configuration(config)
        a = discrete_energy(kernel, config).value
        b = mutual_energy(kernel, [empirical] * kernel.arity).value
        assert a == pytest.approx(b, abs=1e-12)


def test_exact_sum_arity_capped():
    with pytest.raises(ValueError):
        discrete_energy(sum_lift(inner(), 5), sample_sphere(3, 4, 1))


# --- mutual energy ---------------------------------------------------------------


def test_counterexample_energies_exact():
    dirac = DiscreteMeasure.dirac(E1)
    mu = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(-E1), 1.0, -1.0)
    assert mutual_energy(s011(), [dirac, mu, mu]).value == pytest.approx(-1.0, abs=1e-12)
    nu = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(E3), 1.0, 1.0)
    assert mutual_energy(neg_vol2(), [dirac, nu, nu]).value == pytest.approx(-2.0, abs=1e-12)
    nu2 = combine(DiscreteMeasure.dirac(E2), DiscreteMeasure.dirac(-E1), 1.0, 1.0)
    assert mutual_energy(neg_area2(), [dirac, nu2, nu2]).value == pytest.approx(-2.0, abs=1e-12)


def test_mutual_matches_brute_force_with_signed_weights():
    kernel = quad_a(0.4, shift=True)
    measures = [_random_measure(3, 3, s, probability=False) for s in (1, 2, 3)]
    expected = brute_mutual(
        lambda x, y, z: kernel(x, y, z), [measure_as_pairs(m) for m in measures])
    assert mutual_energy(kernel, measures).value == pytest.approx(expected, rel=1e-12)


def test_mutual_point_masses_reduce_to_kernel_value():
    x = sample_sphere(4, 1, 4).points[0]
    dirac = DiscreteMeasure.dirac(x)
    assert mutual_energy(area2(), [dirac] * 3).value == pytest.approx(
        area2()(x, x, x), abs=1e-15)


def test_mutual_symmetric_in_measure_order():
    kernel = s100()
    measures = [_random_measure(k, 3, 40 + k) for k in (2, 3, 4)]
    base = mutual_energy(kernel, measures).value
    assert mutual_energy(kernel, measures[::-1]).value == pytest.approx(base, abs=1e-12)


def test_mutual_validation_errors():
    m3 = _random_measure(2, 3, 5)
    m4 = _random_measure(2, 4, 6)
    with pytest.raises(ValueError):
        mutual_energy(uvt(), [m3, m3])
    with pytest.raises(ValueError):
        mutual_energy(uvt(), [m3, m3, m4])
    with pytest.raises(ValueError):
        mutual_energy(sum_lift(inner(), 5), [m3] * 5)


def test_contraction_route_matches_dense_route():
    kernels_under_test = [uvt(), vol2(), area2(), s011(), s100(),
                          quad_a(0.5, shift=True), prod_f_uvt(coeffs=[0.5, 0.0, 2.0]),
                          pin(sum_lift(inner(), 4), E1)]
    measures = [_random_measure(41, 3, s, probability=False) for s in (7, 8, 9)]
    for kernel in kernels_under_test:
        assert energy_mod._use_moments(kernel, measures)
        fast = mutual_energy(kernel, measures).value
        dense = energy_mod._dense_mutual(kernel, measures)
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_contraction_route_two_input_with_anchor():
    m1 = _random_measure(300, 3, 10, probability=False)
    m2 = _random_measure(300, 3, 11, probability=False)
    # one anchor; two anchors from a two-point pin; two anchors from a sum
    for pinned in (pin(neg_vol2(), E1), pin(sum_lift(frame2(), 4), np.stack([E1, E2])),
                   pin(vol2(), E1) + pin(area2(), E2)):
        assert energy_mod._use_moments(pinned, [m1, m2])
        fast = mutual_energy(pinned, [m1, m2]).value
        dense = energy_mod._dense_mutual(pinned, [m1, m2])
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_anchored_kernels_route_by_size():
    # the anchor-factor passes count against the moment route: pinned
    # 2-atom measures, where it measured slower, take the dense route,
    # while large measures keep the moment route
    for kernel in (pin(vol2(), E1), pin(neg_area2(), E1)):
        small = [_random_measure(2, 3, s) for s in (16, 17)]
        assert not energy_mod._use_moments(kernel, small)
        assert mutual_energy(kernel, small).value == pytest.approx(
            energy_mod._moment_sum(kernel.pair_poly, small), rel=1e-12, abs=1e-12)
    large = [_random_measure(1000, 3, s) for s in (18, 19, 20)]
    for kernel in (pin(vol2(), E1), pin(neg_area2(), E1), pin(s011(), E1),
                   pin(uvt(), E1), pin(sum_lift(inner(), 4), E1)):
        assert energy_mod._use_moments(kernel, large[:kernel.arity])


def test_arity_four_lifts_take_moment_route():
    measures = [_random_measure(41, 3, s, probability=False) for s in (12, 13, 14, 15)]
    with pytest.warns(UserWarning):
        product = prod_lift(inner(), 4)
    for kernel in (sum_lift(inner(), 4), product):
        assert energy_mod._use_moments(kernel, measures)
        fast = mutual_energy(kernel, measures).value
        dense = energy_mod._dense_mutual(kernel, measures)
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_discrete_energy_beyond_dense_limit_matches_gram():
    # 300^3 = 27M triples exceed the dense limit; the moment route needs
    # tensors of d^2 = 10^4 entries per atom
    pts = sample_sphere(100, 300, 41).points
    n = pts.shape[0]
    g = pts @ pts.T
    rows = g.sum(axis=1)
    expected = (0.75 - 1.5 * g.sum() / n**2 + 1.5 * (rows @ rows) / n**3
                - 0.75 * (g * g).sum() / n**2)
    value = discrete_energy(area2(), PointConfiguration(pts)).value
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


# --- potentials --------------------------------------------------------------------


def test_dirac_potential_is_pinned_kernel():
    dirac = DiscreteMeasure.dirac(E1)
    queries = sample_sphere(3, 6, 21).points.reshape(3, 2, 3)
    values = potential(vol2(), [dirac], queries)
    pinned = pin(vol2(), E1)
    expected = [pinned.evaluate(q) for q in queries]
    assert np.allclose(values, expected, atol=1e-14)


def test_potential_then_integrate_equals_mutual():
    # Fubini at every order, for 3- and 4-input kernels
    for kernel in [area2(), s100(), sum_lift(frame2(), 4)]:
        n = kernel.arity
        measures = [_random_measure(k + 2, 3, 60 + k) for k in range(n)]
        full = mutual_energy(kernel, measures).value
        for j in range(1, n):
            rest = measures[j:]
            grids = np.stack(np.meshgrid(*[np.arange(m.n_atoms) for m in rest],
                                         indexing="ij"), axis=-1).reshape(-1, n - j)
            tuples = np.stack(
                [np.stack([rest[s].atoms[idx[s]] for s in range(n - j)]) for idx in grids])
            values = potential(kernel, measures[:j], tuples)
            weights = np.ones(len(grids))
            for s in range(n - j):
                weights *= rest[s].weights[grids[:, s]]
            assert float(weights @ values) == pytest.approx(full, abs=1e-12)


def test_potential_fast_route_matches_dense_route():
    mu = uniform_surrogate(3, 120, 3)
    queries = sample_sphere(3, 5, 31).points[:, None, :]
    assert energy_mod._use_moments(area2(), [mu, mu], len(queries))
    fast = potential(area2(), [mu, mu], queries)
    dense = energy_mod._dense_potential(area2().evaluate_batch, [mu, mu], queries)
    assert np.max(np.abs(fast - dense)) <= 1e-12

    pair_queries = sample_sphere(3, 8, 33).points.reshape(4, 2, 3)
    assert energy_mod._use_moments(s011(), [mu], len(pair_queries))
    fast1 = potential(s011(), [mu], pair_queries)
    dense1 = energy_mod._dense_potential(s011().evaluate_batch, [mu], pair_queries)
    assert np.max(np.abs(fast1 - dense1)) <= 1e-12


def test_s011_potential_matches_closed_form():
    mu = uniform_surrogate(3, 50_000, 5)
    pairs = sample_sphere(3, 10, 35).points.reshape(5, 2, 3)
    values = potential(s011(), [mu], pairs)
    for q in range(5):
        x, y = pairs[q]
        rows = np.array([s011_fn(x, y, z) for z in mu.atoms[:4000]])
        stderr = rows.std(ddof=1) / np.sqrt(mu.n_atoms)  # scale estimate only
        assert values[q] == pytest.approx(float(x @ y) / 3.0, abs=6 * stderr + 5e-3)


def test_uvt_double_potential_near_inverse_d_squared():
    mu = uniform_surrogate(3, 20_000, 6)
    pts = sample_sphere(3, 10, 37)
    values = potential(uvt(), [mu, mu], pts.points)
    assert np.allclose(values, 1.0 / 9.0, atol=0.02)


def test_potential_order_bounds():
    mu = _random_measure(3, 3, 71)
    with pytest.raises(ValueError):
        potential(uvt(), [], sample_sphere(3, 2, 0).points)
    with pytest.raises(ValueError):
        potential(uvt(), [mu, mu, mu], sample_sphere(3, 2, 0).points)
    with pytest.raises(ValueError):
        potential(uvt(), [mu], sample_sphere(3, 5, 0).points)  # needs (Q, 2, d)


def test_potential_rejects_non_finite_and_off_sphere_queries():
    mu = _random_measure(3, 3, 72)
    with pytest.raises(ValueError, match="finite"):
        potential(area2(), [mu, mu], np.array([np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError, match="unit sphere"):
        potential(area2(), [mu, mu], 2.0 * E1)
    with pytest.raises(ValueError, match="unit sphere"):
        potential(s011(), [mu], np.stack([E1, 1.5 * E2])[None])


def test_cancelled_polynomial_sums_to_zero():
    # a polynomial whose terms all cancel has no tensors to take
    kernel = area2() + (-1.0) * area2()
    assert kernel.pair_poly.terms == {}
    config = sample_sphere(3, 5, 1)
    assert discrete_energy(kernel, config).value == 0.0
    assert not np.any(energy_mod._points_gradient(kernel, config.points[None]))


def test_potential_of_a_cancelled_polynomial_is_zero_per_query():
    kernel = area2() + (-1.0) * area2()
    mu = uniform_surrogate(3, 50, 1)
    values = potential(kernel, [mu, mu], sample_sphere(3, 4, 2))
    assert values.shape == (4,) and not np.any(values)


def test_stacked_energy_of_a_cancelled_polynomial_is_zero_per_configuration():
    kernel = area2() + (-1.0) * area2()
    stack = np.stack([sample_sphere(3, 5, seed).points for seed in range(3)])
    energies = energy_mod._points_energy(kernel, stack)
    assert isinstance(energies, np.ndarray) and energies.shape == (3,)
    assert not np.any(energies)


def test_potential_of_no_queries_is_empty():
    mu = uniform_surrogate(3, 400, 71)
    for measures, queries in (([mu, mu], np.empty((0, 3))), ([mu], np.empty((0, 2, 3)))):
        values = potential(area2(), measures, queries)
        assert values.shape == (0,) and values.dtype == float
    with pytest.raises(ValueError, match="dimension"):
        potential(area2(), [mu, mu], np.empty((0, 2)))


def test_potential_kernel_evaluates_off_the_sphere():
    mu = _random_measure(4, 3, 73)
    pair = np.stack([2.0 * E1, E2 + E3])[None]
    value = PotentialKernel(area2(), [mu]).evaluate_batch(pair)
    dense = energy_mod._dense_potential(area2().evaluate_batch, [mu], pair)
    np.testing.assert_allclose(value, dense, rtol=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        PotentialKernel(area2(), [mu]).evaluate_batch(np.ones((1, 2, 2)))


# --- Monte-Carlo estimates ------------------------------------------------------------


def test_mc_frame_energy_matches_inverse_dimension():
    est = mc_energy_uniform(frame2(), 4, 200_000, 11)
    assert est.stderr > 0 and est.samples_used == 200_000
    assert abs(est.value - 0.25) <= 4 * est.stderr


def test_mc_vol2_matches_moment_oracle():
    # independent oracle: I = 1 - 3 E[u^2] + 2 E[uvt]
    m_u2, m_uvt = moment_mc(3, 300_000, 555)
    oracle_value = 1.0 - 3.0 * m_u2 + 2.0 * m_uvt
    closed = (3 - 1) * (3 - 2) / 9.0
    assert oracle_value == pytest.approx(closed, abs=3e-3)
    est = mc_energy_uniform(vol2(), 3, 300_000, 12)
    assert abs(est.value - closed) <= 4 * est.stderr


def test_mc_area2_matches_closed_form():
    for d in (2, 3, 5):
        est = mc_energy_uniform(area2(), d, 150_000, 13 + d)
        assert abs(est.value - 0.75 * (d - 1) / d) <= 4 * est.stderr


def test_mc_requires_minimum_tuples_and_dimension():
    with pytest.raises(ValueError):
        mc_energy_uniform(frame2(), 3, 99, 0)
    with pytest.raises(ValueError):
        mc_energy_uniform(frame2(), 1, 1000, 0)


def test_non_finite_kernel_parameters_and_bad_tuple_counts(capsys):
    # (library call, the value its message names, the energy-int arguments
    # that pass the same value from the command line)
    from multipot.cli import main

    nan, inf = float("nan"), float("inf")
    table = [
        (lambda: riesz(nan), "nan", ["--kernel", "riesz:s=nan"]),
        (lambda: riesz(inf), "inf", ["--kernel", "riesz:s=inf"]),
        (lambda: quad_a(nan), "nan", ["--kernel", "quad_a:a=nan"]),
        (lambda: quad_a(inf), "inf", ["--kernel", "quad_a:a=inf"]),
        (lambda: prod_f_uvt(coeffs=[nan, 1]), "[nan, 1.0]",
         ["--kernel", "prod_f_uvt:coeffs=nan,1"]),
        (lambda: prod_f_uvt(coeffs=[0, inf]), "[0.0, inf]",
         ["--kernel", "prod_f_uvt:coeffs=0,inf"]),
        (lambda: mc_energy_uniform(area2(), 3, nan, 1), "nan", ["--tuples", "nan"]),
        (lambda: mc_energy_uniform(area2(), 3, 1000.5, 1), "1000.5", ["--tuples", "1000.5"]),
        (lambda: mc_energy_uniform(area2(), 3, 1000.0, 1), "1000.0", None),
        (lambda: mc_energy_uniform(area2(), 3.0, 1000, 1), "3.0", None),
    ]
    for call, value, argv in table:
        with pytest.raises(ValueError, match=re.escape(f"got {value}") + "$"):
            call()
        if argv is not None:
            argv = ["energy-int", "--kernel", "area2", "--d", "3", "--tuples", "1000", *argv]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 64, argv
            assert "value" not in capsys.readouterr().out


def test_mc_deterministic_given_seed():
    a = mc_energy_uniform(area2(), 3, 50_000, 99)
    b = mc_energy_uniform(area2(), 3, 50_000, 99)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_stderr_survives_constant_offset():
    # a one-pass E[X^2] - E[X]^2 variance cancels to 0 under a 1e9 offset
    base = quad_a(0.5)
    offset = PolynomialKernel("offset", PairPolynomial({**base.pair_poly.terms, (): 1e9}, 3))
    plain = mc_energy_uniform(base, 3, 20_000, 1)
    shifted = mc_energy_uniform(offset, 3, 20_000, 1)
    assert not shifted.is_exact
    assert shifted.stderr == pytest.approx(plain.stderr, rel=1e-3)


def test_exactness_is_a_field_not_a_zero_stderr():
    # a constant kernel's Monte-Carlo samples all agree, so the estimate's
    # stderr is 0, yet it is still an estimate
    constant = PolynomialKernel("constant", PairPolynomial({(): 2.0}, 3))
    est = mc_energy_uniform(constant, 3, 1000, 0)
    assert est.value == 2.0 and est.stderr == 0.0 and not est.is_exact
    assert list(est.as_dict()) == ["value", "stderr", "samples_used"]
    mu = DiscreteMeasure(np.eye(3), np.full(3, 1 / 3))
    assert mutual_energy(constant, [mu] * 3).is_exact
    assert discrete_energy(constant, PointConfiguration(np.eye(3))).is_exact


# --- mixture polynomials -----------------------------------------------------------


def test_mixture_polynomial_matches_mixed_measure_energy():
    for kernel in [area2(), s100(), quad_a(0.2), sum_lift(inner(), 4)]:
        mu = _random_measure(3, 3, 81)
        nu = _random_measure(4, 3, 82)
        g = mixture_polynomial(kernel, mu, nu)
        for t in np.linspace(0.0, 1.0, 11):
            direct = mutual_energy(kernel, [mix(mu, nu, t)] * kernel.arity).value
            assert g(t) == pytest.approx(direct, abs=1e-10)


def test_mixture_endpoints_and_constant_case():
    mu = _random_measure(3, 3, 83)
    nu = _random_measure(2, 3, 84)
    g = mixture_polynomial(area2(), mu, nu)
    assert g(0.0) == pytest.approx(mutual_energy(area2(), [mu] * 3).value, abs=1e-13)
    assert g(1.0) == pytest.approx(mutual_energy(area2(), [nu] * 3).value, abs=1e-13)
    g_same = mixture_polynomial(area2(), mu, mu)
    ts = np.linspace(0, 1, 7)
    assert np.allclose(g_same(ts), g_same(0.0), atol=1e-13)
    assert g_same.derivative1_at_zero() == pytest.approx(0.0, abs=1e-13)
    assert g_same.derivative2_at_zero() == pytest.approx(0.0, abs=1e-12)


def test_mixture_requires_probability_measures():
    mu = _random_measure(3, 3, 85)
    signed = _random_measure(3, 3, 86, probability=False)
    with pytest.raises(ValueError):
        mixture_polynomial(area2(), mu, signed)


def test_mixture_derivatives_match_finite_differences():
    mu = _random_measure(3, 3, 87)
    nu = _random_measure(3, 3, 88)
    g = mixture_polynomial(vol2(), mu, nu)
    eps = 1e-5
    fd1 = (g(eps) - g(-eps)) / (2 * eps)
    fd2 = (g(eps) - 2 * g(0.0) + g(-eps)) / eps**2
    assert g.derivative1_at_zero() == pytest.approx(fd1, rel=1e-6, abs=1e-8)
    assert g.derivative2_at_zero() == pytest.approx(fd2, rel=1e-4, abs=1e-5)
    ts = np.linspace(0, 1, 5)
    fd_second = [(g(t + eps) - 2 * g(t) + g(t - eps)) / eps**2 for t in ts]
    assert np.allclose(g.derivative(ts, order=2), fd_second, rtol=1e-4, atol=1e-5)


def test_s100_mixture_with_uniform_surrogate_closed_form():
    d = 3
    sigma = uniform_surrogate(d, 20_000, 91)
    delta = DiscreteMeasure.dirac(basis_vector(0, d))
    g = mixture_polynomial(s100(), sigma, delta)
    # coefficients approach (0, 0, (d-1)/d, 0); the noise floor is O(M^-1/2)
    assert g.coefficients[0] == pytest.approx(0.0, abs=0.01)
    assert g.coefficients[1] == pytest.approx(0.0, abs=0.05)
    assert g.coefficients[2] == pytest.approx((d - 1) / d, abs=0.02)
    assert g.coefficients[3] == pytest.approx(0.0, abs=1e-14)
    ts = np.linspace(0, 1, 9)
    ref = 3 * ts**2 * (1 - ts) * (d - 1) / d
    assert np.allclose(g(ts), ref, atol=0.05)


# --- potential kernels ------------------------------------------------------------------


def test_potential_kernel_pointwise_vs_expanded():
    mu = _random_measure(4, 3, 95)
    nu1 = _random_measure(3, 3, 96)
    nu2 = _random_measure(2, 3, 97)
    u = PotentialKernel(area2(), [mu])
    small = energy_mod._dense_mutual(u, [nu1, nu2])     # genuine pointwise route
    expanded = mutual_energy(area2(), [mu, nu1, nu2]).value
    assert small == pytest.approx(expanded, abs=1e-12)


def test_potential_kernel_delegates_for_large_measures():
    sigma = uniform_surrogate(3, 5000, 98)
    u = PotentialKernel(s100(), [sigma])
    value = mutual_energy(u, [sigma, sigma]).value      # would be 5000^3 pointwise
    direct = mutual_energy(s100(), [sigma] * 3).value
    assert value == pytest.approx(direct, abs=1e-12)


def test_potential_of_potential_kernel_unfolds(monkeypatch):
    mu = uniform_surrogate(3, 2000, 101)
    nu = uniform_surrogate(3, 2000, 102)
    queries = sample_sphere(3, 20, 103).points
    direct = potential(area2(), [mu, nu], queries)

    def pointwise(self, pts):
        raise AssertionError("the potential kernel was evaluated pointwise")

    monkeypatch.setattr(PotentialKernel, "evaluate_batch", pointwise)
    unfolded = potential(PotentialKernel(area2(), [mu]), [nu], queries)
    np.testing.assert_allclose(unfolded, direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("base", [area2(), prod_f_uvt(f="exp")], ids=["area2", "exp"])
def test_potential_kernel_gradient_matches_central_differences(base):
    u = PotentialKernel(base, [_random_measure(5, 3, 104)])
    pts = sample_sphere(3, 8, 105).points.reshape(4, 2, 3)
    grad = u.gradient_batch(pts)
    assert grad.shape == pts.shape
    h = 1e-6
    for q, s, c in itertools.product(range(4), range(2), range(3)):
        plus, minus = pts[q].copy(), pts[q].copy()
        plus[s, c] += h
        minus[s, c] -= h
        fd = (u.evaluate(plus) - u.evaluate(minus)) / (2 * h)
        assert grad[q, s, c] == pytest.approx(fd, abs=1e-8)


def test_potential_kernel_slot_bounds():
    with pytest.raises(ValueError):
        PotentialKernel(uvt(), [_random_measure(2, 3, 99), _random_measure(2, 3, 100)])
