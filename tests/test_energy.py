"""Discrete/mutual energies, potentials, Monte-Carlo estimates, mixtures.

Expected values are frozen from the independent oracles in oracles.py
(brute-force tuple enumeration, raw-moment Monte Carlo) or from direct
closed forms.
"""
import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

import multipot.energy as energy_mod
from multipot.kernels import PairPolynomial, PolynomialKernel, _tuple_shape
from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    PointConfiguration,
    PotentialKernel,
    area2,
    basis_vector,
    combine,
    cpd_shift,
    discrete_energy,
    frame2,
    inner,
    mc_energy_uniform,
    mix,
    mixture_polynomial,
    mutual_energy,
    neg_area2,
    neg_vol2,
    optimize_discrete,
    pin,
    potential,
    potential_constancy_check,
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
    lift_fn,
    mc_energy_loop,
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


def _with_arity(fn, n):
    """fn with n named arguments, as brute_discrete reads the arity off them."""
    return {5: lambda a, b, c, d, e: fn(a, b, c, d, e),
            6: lambda a, b, c, d, e, f: fn(a, b, c, d, e, f)}[n]


def test_exact_sums_of_any_arity_match_brute_force():
    # no arity cap: arity-5 and -6 lifts match tuple enumeration of their base
    with pytest.warns(UserWarning):
        product = prod_lift(inner(), 5)
    lifts = [(sum_lift(inner(), 5), lift_fn(inner(), 5, sum)),
             (sum_lift(area2(), 5), lift_fn(area2(), 5, sum)),
             (product, lift_fn(inner(), 5, math.prod)),
             (sum_lift(vol2(), 6), lift_fn(vol2(), 6, sum))]
    for seed, (kernel, fn) in enumerate(lifts):
        n = kernel.arity
        size = 2 if n == 6 else 3
        measures = [_random_measure(size, 3, 10 * seed + s, probability=False) for s in range(n)]
        expected = brute_mutual(fn, [measure_as_pairs(m) for m in measures])
        assert mutual_energy(kernel, measures).value == pytest.approx(expected, abs=1e-12)
        config = sample_sphere(3, size, 50 + seed)
        expected = brute_discrete(_with_arity(fn, n), list(config.points))
        assert discrete_energy(kernel, config).value == pytest.approx(expected, abs=1e-12)


def test_dense_limit_is_the_only_bound_on_an_exact_sum():
    # 30^5 tuples of a kernel without a moment route: refused by the dense limit
    with pytest.raises(ValueError, match="24300000 atom tuples exceed the dense limit"):
        discrete_energy(sum_lift(riesz(1.0), 5), sample_sphere(3, 30, 1))


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


def test_pinned_dimension_is_checked_on_every_route():
    # points in R^4 against a pin in R^3, on the moment route (2 and 50 atoms)
    # and through the potential kernel's own evaluation
    pinned = pin(vol2(), E1)
    for n_atoms in (2, 50):
        m = _random_measure(n_atoms, 4, 80 + n_atoms)
        with pytest.raises(ValueError, match="pinned points"):
            mutual_energy(pinned, [m, m])
    m = _random_measure(5, 4, 83)
    with pytest.raises(ValueError, match="pinned points"):
        potential(pinned, [m], basis_vector(0, 4))
    with pytest.raises(ValueError, match="pinned points"):
        discrete_energy(pinned, sample_sphere(4, 6, 84))
    with pytest.raises(ValueError, match="pinned points"):
        PotentialKernel(pin(sum_lift(inner(), 4), E1), [m])


def test_empty_measures_are_rejected():
    empty, m = DiscreteMeasure(np.empty((0, 3))), _random_measure(3, 3, 86)
    with pytest.raises(ValueError, match="slot 0 has no atoms"):
        mutual_energy(area2(), [empty] * 3)
    with pytest.raises(ValueError, match="slot 1 has no atoms"):
        mutual_energy(area2(), [m, empty, m])
    with pytest.raises(ValueError, match="slot 1 has no atoms"):
        potential(area2(), [m, empty], E1)
    with pytest.raises(ValueError, match="slot 0 has no atoms"):
        PotentialKernel(vol2(), [empty])


def test_contraction_route_matches_dense_route():
    kernels_under_test = [uvt(), vol2(), area2(), s011(), s100(),
                          quad_a(0.5, shift=True), prod_f_uvt(coeffs=[0.5, 0.0, 2.0]),
                          pin(sum_lift(inner(), 4), E1)]
    measures = [_random_measure(41, 3, s, probability=False) for s in (7, 8, 9)]
    for kernel in kernels_under_test:
        assert energy_mod._route(kernel, measures) is not None
        fast = mutual_energy(kernel, measures).value
        dense = energy_mod._dense_mutual(kernel, measures)
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_contraction_route_two_input_with_anchor():
    m1 = _random_measure(300, 3, 10, probability=False)
    m2 = _random_measure(300, 3, 11, probability=False)
    # one anchor; two anchors from a two-point pin; two anchors from a sum
    for pinned in (pin(neg_vol2(), E1), pin(sum_lift(frame2(), 4), np.stack([E1, E2])),
                   pin(vol2(), E1) + pin(area2(), E2)):
        assert energy_mod._route(pinned, [m1, m2]) is not None
        fast = mutual_energy(pinned, [m1, m2]).value
        dense = energy_mod._dense_mutual(pinned, [m1, m2])
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_anchored_kernels_route_by_size():
    # pair polynomials take the moment route whatever the measures' size,
    # pinned 2-atom measures included
    for kernel in (pin(vol2(), E1), pin(neg_area2(), E1)):
        small = [_random_measure(2, 3, s) for s in (16, 17)]
        assert energy_mod._route(kernel, small) is not None
        assert mutual_energy(kernel, small).value == pytest.approx(
            energy_mod._dense_mutual(kernel, small), rel=1e-12, abs=1e-12)
    large = [_random_measure(1000, 3, s) for s in (18, 19, 20)]
    for kernel in (pin(vol2(), E1), pin(neg_area2(), E1), pin(s011(), E1),
                   pin(uvt(), E1), pin(sum_lift(inner(), 4), E1)):
        assert energy_mod._route(kernel, large[:kernel.arity]) is not None
    # kernels that are not pair polynomials take the dense route
    measures = [_random_measure(5, 3, s) for s in (21, 22, 23)]
    for kernel in (riesz(1.0), prod_f_uvt(f="exp"), cpd_shift(-riesz(1.0), E1)):
        assert energy_mod._route(kernel, measures[:kernel.arity]) is None
    # so does a pair polynomial whose moment arrays pass the work limit:
    # uvt^3 contracts 9 letters, 10^9 entries at d = 10
    cubed = prod_f_uvt(coeffs=[0, 0, 0, 1])
    measures = [_random_measure(5, 10, s) for s in (24, 25, 26)]
    assert energy_mod._route(cubed, measures) is None
    expected = brute_mutual(lambda x, y, z: uvt_fn(x, y, z) ** 3,
                            [measure_as_pairs(m) for m in measures])
    assert mutual_energy(cubed, measures).value == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_arity_four_lifts_take_moment_route():
    measures = [_random_measure(41, 3, s, probability=False) for s in (12, 13, 14, 15)]
    with pytest.warns(UserWarning):
        product = prod_lift(inner(), 4)
    for kernel in (sum_lift(inner(), 4), product):
        assert energy_mod._route(kernel, measures) is not None
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
    assert energy_mod._route(area2(), [mu, mu], queries) is not None
    fast = potential(area2(), [mu, mu], queries)
    dense = energy_mod._dense_potential(area2().evaluate_grid, [mu, mu], queries)
    assert np.max(np.abs(fast - dense)) <= 1e-12

    pair_queries = sample_sphere(3, 8, 33).points.reshape(4, 2, 3)
    assert energy_mod._route(s011(), [mu], pair_queries) is not None
    fast1 = potential(s011(), [mu], pair_queries)
    dense1 = energy_mod._dense_potential(s011().evaluate_grid, [mu], pair_queries)
    assert np.max(np.abs(fast1 - dense1)) <= 1e-12


def _spans_of(kernel, slots, queries, count, monkeypatch):
    """Patch the work limit so that the moment route holds ``count`` items
    (queries, or configurations of a stack) to a span."""
    _, per, room = energy_mod._route(kernel, slots, queries)
    monkeypatch.setattr(energy_mod, "_WORK_LIMIT", energy_mod._WORK_LIMIT - room + count * per)


def test_large_potentials_take_the_moment_route_in_spans(monkeypatch):
    # a work limit of 7 queries: every query count takes the moment route,
    # in spans, with the bits of one call at the default limit (einsum does
    # not promise these bits, so d = 3 and 5 and an anchored kernel check them)
    cases = []
    for d in (3, 5):
        mu = uniform_surrogate(d, 200, 1)
        cases += [(area2(), [mu, mu], sample_sphere(d, 500, 2).points[:, None, :]),
                  (s011(), [mu], sample_sphere(d, 1000, 3).points.reshape(500, 2, d)),
                  (pin(sum_lift(area2(), 4), sample_sphere(d, 1, 4).points[0]), [mu, mu],
                   sample_sphere(d, 500, 5).points[:, None, :])]
    default = [potential(k, measures, q) for k, measures, q in cases]
    moment_sum, spans = energy_mod._moment_sum, []
    for (kernel, measures, queries), ref in zip(cases, default):
        _spans_of(kernel, measures, queries, 7, monkeypatch)
        routes = [energy_mod._route(kernel, measures, queries[:q]) for q in (1, 7, 8, 500)]
        assert all(route == routes[0] for route in routes)
        monkeypatch.setattr(energy_mod, "_dense_potential", None)
        monkeypatch.setattr(energy_mod, "_moment_sum", lambda poly, slots, q, prog: spans.append(
            len(q)) or moment_sum(poly, slots, q, prog))
        assert np.array_equal(potential(kernel, measures, queries), ref)
        assert spans == [7] * 71 + [3]
        monkeypatch.undo()
        spans.clear()


def test_bound_energy_of_a_long_stack_runs_in_spans(monkeypatch):
    # spans of 2 configurations give each configuration the bits it gets alone
    stack = np.stack([sample_sphere(3, 6, seed).points for seed in range(5)])
    slot, sigma = energy_mod._Atoms(stack, np.full(6, 1.0 / 6)), uniform_surrogate(3, 9, 1)
    for kernel, slots in ((area2(), [slot] * 3),
                          (PotentialKernel(area2(), [sigma]), [sigma, slot, slot])):
        energy, gradient = energy_mod._bind(kernel, stack)
        default = energy(stack), gradient(stack)
        _spans_of(area2(), slots, None, 2, monkeypatch)
        energy, gradient = energy_mod._bind(kernel, stack)
        calls, moment_sum = [], energy_mod._moment_sum
        monkeypatch.setattr(energy_mod, "_moment_sum", lambda poly, slots, *args: calls.append(
            len(slots[-1].atoms)) or moment_sum(poly, slots, *args))
        assert np.array_equal(energy(stack), default[0]) and calls == [2, 2, 1]
        assert np.array_equal(gradient(stack), default[1])
        assert energy(stack).tolist() == [energy(p[None])[0] for p in stack]
        monkeypatch.undo()


def _pinned_lift_fn(x, y, z):
    """pin(sum_lift(area2(), 4), E1) by tuple enumeration."""
    return sum(area2_fn(*t) for t in itertools.combinations((E1, x, y, z), 3))


@pytest.mark.parametrize("kernel, fn", [
    (area2(), area2_fn), (s011(), s011_fn), (pin(sum_lift(area2(), 4), E1), _pinned_lift_fn),
], ids=["area2", "s011", "pin(sum_lift(area2,4),e1)"])
def test_moment_sums_over_atom_spans(kernel, fn, monkeypatch):
    # spans of 3 atoms (13 power entries each at d = 3) against the one span of
    # the default and tuple enumeration: every public exact sum, a stack's
    # energies, and a potential kernel's energies and gradients on a stack
    mu, nu = _random_measure(14, 3, 120), _random_measure(11, 3, 121)
    signed = _random_measure(9, 3, 122, probability=False)
    points, pairs = sample_sphere(3, 3, 123).points, sample_sphere(3, 6, 124).points
    config = sample_sphere(3, 10, 125)
    stack = np.stack([sample_sphere(3, 10, 126 + b).points for b in range(3)])
    folded = PotentialKernel(kernel, [mu])

    def run():
        energy, gradient = energy_mod._bind(folded, stack)
        return [mutual_energy(kernel, [mu, nu, signed]).value,
                potential(kernel, [mu, signed], points),
                potential(kernel, [nu], pairs.reshape(3, 2, 3)),
                discrete_energy(kernel, config).value,
                mixture_polynomial(kernel, mu, nu).coefficients,
                energy_mod._bind(kernel, stack)[0](stack), energy(stack), gradient(stack)]

    default = run()
    rows, powers = [], energy_mod._powers
    monkeypatch.setattr(energy_mod, "_SPAN_ENTRIES", 40)
    monkeypatch.setattr(energy_mod, "_powers", lambda x, keys: rows.append(x.shape[-2])
                        or powers(x, keys))
    spanned = run()
    assert {1, 2, 3} <= set(rows) and 14 not in rows    # the last span of mu holds 2 atoms
    for value, ref in zip(spanned, default):
        np.testing.assert_allclose(value, ref, rtol=1e-12, atol=1e-12)
    as_pairs = [measure_as_pairs(m) for m in (mu, nu, signed)]
    mutual, at_points, at_pairs, discrete, mixture, energies, folded_energies, _ = spanned
    assert mutual == pytest.approx(brute_mutual(fn, as_pairs), abs=1e-12)
    for value, x in zip(at_points, points):
        expected = brute_mutual(lambda a, b: fn(a, b, x), [as_pairs[0], as_pairs[2]])
        assert value == pytest.approx(expected, abs=1e-12)
    for value, (y, z) in zip(at_pairs, pairs.reshape(3, 2, 3)):
        assert value == pytest.approx(brute_mutual(lambda a: fn(a, y, z), as_pairs[1:2]), abs=1e-12)
    assert discrete == pytest.approx(brute_discrete(fn, list(config.points)), abs=1e-12)
    for k, value in enumerate(mixture):
        expected = brute_mutual(fn, [as_pairs[0]] * (3 - k) + [as_pairs[1]] * k)
        assert value == pytest.approx(expected, abs=1e-12)
    for value, folded_value, pts in zip(energies, folded_energies, stack):
        assert value == pytest.approx(brute_discrete(fn, list(pts)), abs=1e-12)
        expected = brute_discrete(lambda y, z: brute_mutual(lambda a: fn(a, y, z), as_pairs[:1]),
                                  list(pts))
        assert folded_value == pytest.approx(expected, abs=1e-12)


def test_a_measure_past_the_work_limit_keeps_the_moment_route(monkeypatch):
    # a measure counts its moment tensors and one span of its powers, not its
    # rows times their powers; the points of a bound gradient still count in full
    mu, pts = uniform_surrogate(3, 2000, 140), sample_sphere(3, 2000, 141).points
    default = mutual_energy(area2(), [mu] * 3).value
    monkeypatch.setattr(energy_mod, "_SPAN_ENTRIES", 40)
    monkeypatch.setattr(energy_mod, "_WORK_LIMIT", 1000)     # below 2000 atoms x 13 powers
    assert energy_mod._route(area2(), [mu] * 3) is not None
    assert mutual_energy(area2(), [mu] * 3).value == pytest.approx(default, rel=1e-12, abs=1e-12)
    slots = [energy_mod._Atoms(pts, np.full(2000, 1 / 2000))] * 3
    assert energy_mod._route(area2(), slots) is not None
    for bind in (lambda: energy_mod._route(area2(), slots, None, True),
                 lambda: energy_mod._bind(area2(), pts)):
        with pytest.raises(ValueError, match="8000000000 atom tuples exceed the dense limit"):
            bind()


def test_a_large_measure_is_no_refusal_on_the_moment_route():
    # 60k atoms x 729 powers (degree 6 per slot) pass the work limit, which
    # refused this potential when a measure counted all its powers at once
    kernel, mu = prod_lift(frame2(), 4), uniform_surrogate(3, 60_000, 142)
    points = sample_sphere(3, 5, 143).points
    assert mu.n_atoms * 3**6 > energy_mod._WORK_LIMIT
    assert energy_mod._route(kernel, [mu] * 3, points[:, None, :]) is not None
    assert np.all(np.isfinite(potential(kernel, [mu] * 3, points)))


def test_moment_route_memory_does_not_grow_with_the_measure():
    # an s011 potential holds one span of powers whatever the measure's size;
    # the measures are built before tracing, so their own arrays are not counted
    queries, peaks = sample_sphere(3, 40, 150).points.reshape(20, 2, 3), []
    for atoms in (10_000, 80_000):
        mu = uniform_surrogate(3, atoms, 151)
        potential(s011(), [mu], queries)        # the program is cached before tracing
        tracemalloc.start()
        try:
            potential(s011(), [mu], queries)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**16, peaks


def test_dense_gradient_blocks_bound_their_doubles(monkeypatch):
    # a block of a bound dense gradient holds arity * d doubles per tuple, at
    # most _BLOCK_TUPLES of them, and any block size gives the same bits
    exp3 = prod_f_uvt(f="exp")
    stack = np.stack([sample_sphere(3, 7, 160 + b).points for b in range(2)])
    default = energy_mod._bind(exp3, stack)[1](stack)
    seen, gradient_grid = [], exp3.gradient_grid
    monkeypatch.setattr(exp3, "gradient_grid", lambda arrays: seen.append(
        math.prod(_tuple_shape(arrays))) or gradient_grid(arrays))
    for limit in (9 * 5, 9 * 40):
        monkeypatch.setattr(energy_mod, "_BLOCK_TUPLES", limit)
        seen.clear()
        assert np.array_equal(energy_mod._bind(exp3, stack)[1](stack), default)
        assert len(seen) > 1 and 9 * max(seen) <= limit


def test_potential_kernel_gradient_blocks_bound_their_doubles(monkeypatch):
    # a potential kernel's gradient holds free slots * d doubles per tuple: its
    # query spans and grid blocks hold at most _BLOCK_TUPLES of them, with the
    # bits of one block (the parent spanned by tuples: 12,000 per block, 1.9 MB)
    kernel = PotentialKernel(prod_f_uvt(f="exp"), [uniform_surrogate(3, 200, 170)])
    pairs = sample_sphere(3, 200, 171).points.reshape(100, 2, 3)
    default = kernel.gradient_batch(pairs)
    seen, gradient_grid = [], kernel.base.gradient_grid
    monkeypatch.setattr(kernel.base, "gradient_grid", lambda arrays: seen.append(
        math.prod(_tuple_shape(arrays))) or gradient_grid(arrays))
    monkeypatch.setattr(energy_mod, "_BLOCK_TUPLES", 12_000)
    assert np.array_equal(kernel.gradient_batch(pairs), default)
    assert len(seen) == 10 and 6 * max(seen) <= 12_000
    tracemalloc.start()
    try:
        kernel.gradient_batch(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * 12_000, peak


_EMPIRICAL_KERNELS = {
    "area2": lambda mu: area2(),
    "vol2": lambda mu: vol2(),
    "s011": lambda mu: s011(),
    "riesz(0.5)": lambda mu: riesz(0.5),
    "exp(uvt)": lambda mu: prod_f_uvt(f="exp"),
    "pin(sum_lift(area2,4))": lambda mu: pin(sum_lift(area2(), 4), E1),
    "potential(area2)": lambda mu: PotentialKernel(area2(), [mu]),
    "sum_lift(riesz(1),3)": lambda mu: sum_lift(riesz(1.0), 3),
    "prod_lift(area2,4)": lambda mu: prod_lift(area2(), 4),
}


@pytest.mark.parametrize("name", sorted(_EMPIRICAL_KERNELS))
def test_discrete_energy_is_the_bound_energy(name):
    # discrete_energy sums the empirical measure on the energy route; a descent's
    # bound energy gets the same bits from the same route and program
    kernel = _EMPIRICAL_KERNELS[name](uniform_surrogate(3, 6, 172))
    config = sample_sphere(3, 9, 173)
    value = discrete_energy(kernel, config).value
    assert value == energy_mod._bind(kernel, config.points)[0](config.points)
    empirical = DiscreteMeasure.from_configuration(config)
    assert value == mutual_energy(kernel, [empirical] * kernel.arity).value


def test_discrete_energy_past_the_work_limit_keeps_the_moment_route(monkeypatch):
    # a discrete energy, which holds no gradient, counts one span of its points'
    # powers, as the mutual energy of its empirical measure does; the bound
    # engine of a descent counts them all and still refuses the points
    config = sample_sphere(3, 2000, 174)
    default = discrete_energy(area2(), config).value
    monkeypatch.setattr(energy_mod, "_SPAN_ENTRIES", 40)
    monkeypatch.setattr(energy_mod, "_WORK_LIMIT", 1000)     # below 2000 points x 13 powers
    value = discrete_energy(area2(), config).value
    assert value == mutual_energy(area2(), [DiscreteMeasure.from_configuration(config)] * 3).value
    assert value == pytest.approx(default, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="8000000000 atom tuples exceed the dense limit"):
        energy_mod._bind(area2(), config.points)


def test_empty_query_batches_give_empty_arrays():
    mu = uniform_surrogate(3, 7, 1)
    for base in (area2(), prod_f_uvt(f="exp")):
        kernel = PotentialKernel(base, [mu])
        assert kernel.evaluate_batch(np.empty((0, 2, 3))).shape == (0,)
        assert kernel.gradient_batch(np.empty((0, 2, 3))).shape == (0, 2, 3)
        assert potential(base, [mu, mu], np.empty((0, 3))).shape == (0,)


def test_measures_of_another_dimension_are_rejected():
    # a potential kernel whose measures live in R^3, on points in R^4
    kernel = PotentialKernel(sum_lift(inner(), 4), [_random_measure(5, 3, 87)])
    m4, config = _random_measure(5, 4, 88), sample_sphere(4, 6, 89)
    message = "point dimension 4 does not match dimension 3 of the measures"
    with pytest.raises(ValueError, match=message):
        discrete_energy(kernel, config)
    with pytest.raises(ValueError, match=message):
        mutual_energy(kernel, [m4] * 3)
    with pytest.raises(ValueError, match=message):
        potential(kernel, [m4, m4], basis_vector(0, 4))
    with pytest.raises(ValueError, match=message):
        optimize_discrete(kernel, 6, 4, OptimizerConfig(steps=2), initial=config)
    with pytest.raises(ValueError, match=re.escape(
            "query points (at) must have shape (..., d) and dimension 3, got shape (1, 1, 4)")):
        potential(area2(), [_random_measure(5, 3, 90)] * 2, np.full((1, 1, 4), 0.5))
    pk = PotentialKernel(area2(), [_random_measure(5, 3, 91)])
    for method in (pk.evaluate_batch, pk.gradient_batch):
        with pytest.raises(ValueError,
                           match="point dimension 4 does not match dimension 3 of the measures"):
            method(np.full((2, 2, 4), 0.5))


def test_only_the_energy_module_decides_routes():
    import multipot.certify as certify_mod
    import multipot.optimize as optimize_mod
    for module in (certify_mod, optimize_mod):
        for name in ("_WORK_LIMIT", "_program", "_layout"):
            assert not hasattr(module, name), (module.__name__, name)


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


@pytest.mark.parametrize("limit", [1, 7, 12])
def test_dense_grids_keep_their_block_bound(limit, monkeypatch):
    # with a small grid block, every kernel call on the dense route sees at
    # most that many tuples, and every result keeps its bits at the default
    mu = uniform_surrogate(3, 9, 2)
    x = sample_sphere(3, 4, 3).points
    stack = np.stack([sample_sphere(3, 5, 70 + k).points for k in range(3)])
    exp3, r05 = prod_f_uvt(f="exp"), riesz(0.5)
    pk = PotentialKernel(exp3, [mu])

    def run():
        out = [mutual_energy(exp3, [DiscreteMeasure.dirac(x[0]), mu, mu]).value,
               potential(exp3, [mu, mu], x[:1]),
               pk.evaluate_batch(stack[0, :2]), pk.gradient_batch(stack[0, :2])]
        report = potential_constancy_check(exp3, mu, x)
        out += [report.values, report.stderr_estimate]
        for kernel in (r05, pk):
            energy, gradient = energy_mod._bind(kernel, stack)
            out += [energy(stack), gradient(stack), gradient(stack[0])]
        return [np.asarray(v).tolist() for v in out]

    default = run()
    seen = []
    for kernel in (exp3, r05):
        for name in ("evaluate_grid", "gradient_grid"):
            def spy(arrays, _method=getattr(kernel, name)):
                seen.append(math.prod(_tuple_shape(arrays)))
                return _method(arrays)
            monkeypatch.setattr(kernel, name, spy)
    monkeypatch.setattr(energy_mod, "_BLOCK_TUPLES", limit)
    assert run() == default
    assert seen and max(seen) <= limit


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
    stack = config.points[None]
    assert not np.any(energy_mod._bind(kernel, stack)[1](stack))


def test_potential_of_a_cancelled_polynomial_is_zero_per_query():
    kernel = area2() + (-1.0) * area2()
    mu = uniform_surrogate(3, 50, 1)
    values = potential(kernel, [mu, mu], sample_sphere(3, 4, 2))
    assert values.shape == (4,) and not np.any(values)


def test_stacked_energy_of_a_cancelled_polynomial_is_zero_per_configuration():
    kernel = area2() + (-1.0) * area2()
    stack = np.stack([sample_sphere(3, 5, seed).points for seed in range(3)])
    energies = energy_mod._bind(kernel, stack)[0](stack)
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
    dense = energy_mod._dense_potential(area2().evaluate_grid, [mu], pair)
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


@pytest.mark.parametrize("kernel, d, pinned", [
    (area2(), 2, True), (area2(), 3, True), (vol2(), 4, True), (frame2(), 5, True),
    (pin(area2(), E1), 3, False), (pin(vol2(), basis_vector(0, 4)), 4, False),
    (riesz(1), 3, False), (prod_f_uvt(f="exp"), 3, False),
])
def test_mc_energy_matches_its_reference_loop_bit_for_bit(kernel, d, pinned):
    # unanchored pair polynomials pin their last slot at e1 and draw n-1
    # points per tuple; every other kernel draws all n, as before
    for tuples, seed in [(1_000, 3), (250_001, 4)]:
        est = mc_energy_uniform(kernel, d, tuples, seed)
        assert (est.value, est.stderr) == mc_energy_loop(kernel, d, tuples, seed, pinned)


# four full chunks of arity-3 tuples and a short fifth; riesz(1) takes three chunks
_CHUNKED_TUPLES = 4 * (energy_mod._SAMPLE_POINTS // 3) + 17


@pytest.mark.parametrize("kernel", [area2(), pin(area2(), E1), riesz(1)],
                         ids=["area2", "pin(area2)", "riesz(1)"])
def test_mc_energy_bits_do_not_depend_on_the_worker_count(kernel, monkeypatch):
    # each chunk draws from its own stream and the merge runs in chunk order,
    # so 1, 2 or 3 threads give the same bits; pin(area2) and riesz(1) call
    # evaluate_grid from the worker threads
    results = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(energy_mod, "_cpus", lambda: cpus)
        est = mc_energy_uniform(kernel, 3, _CHUNKED_TUPLES, 21)
        results.add((est.value.hex(), est.stderr.hex(), est.samples_used))
    assert len(results) == 1


class _Failing(PolynomialKernel):
    """pin(area2(), e1), whose every evaluation raises ``error``; it has an
    anchor, so the sampler calls its ``evaluate_grid`` in the workers."""

    error = ArithmeticError("raised inside a worker")

    def __init__(self):
        super().__init__("failing", area2().pair_poly.viewed([0, 1, E1], 2))

    def evaluate_grid(self, arrays):
        raise self.error


def test_mc_energy_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(energy_mod, "_cpus", lambda: 2)
    before = threading.active_count()
    mc_energy_uniform(area2(), 3, _CHUNKED_TUPLES, 22)
    assert threading.active_count() == before
    with pytest.raises(ArithmeticError) as raised:
        mc_energy_uniform(_Failing(), 3, _CHUNKED_TUPLES, 22)
    assert raised.value is _Failing.error
    assert threading.active_count() == before


# chi-square quantiles of 20 degrees of freedom at 1e-4 and 1 - 1e-4: over the
# four kernels below a correct estimator trips a bound with probability 8e-4
_CHI2_20 = (4.3952, 52.3860)


@pytest.mark.parametrize("kernel, d, closed", [
    (area2(), 3, 3 * 2 / 12), (vol2(), 4, 3 * 2 / 16), (frame2(), 5, 1 / 5),
    (pin(area2(), E1), 3, 3 * 2 / 12),
])
def test_mc_stderr_is_calibrated_over_seeds(kernel, d, closed):
    # the z-scores of 20 seeded estimates against the closed form: their
    # squares sum to a chi-square of 20 degrees of freedom if each estimate
    # is unbiased and its stderr honest (pinned path: the first three)
    z = [(est.value - closed) / est.stderr
         for est in (mc_energy_uniform(kernel, d, 20_000, 500 + s) for s in range(20))]
    assert _CHI2_20[0] <= sum(x * x for x in z) <= _CHI2_20[1]


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

    monkeypatch.setattr(PotentialKernel, "evaluate_grid", pointwise)
    unfolded = potential(PotentialKernel(area2(), [mu]), [nu], queries)
    np.testing.assert_allclose(unfolded, direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("route", ["moment", "dense"])
def test_potential_of_a_potential_kernel_is_flat(route):
    # on either route, the nested kernel is the flat one: same base, same
    # measures, and bound energies and gradients with the same bits
    k4 = sum_lift(area2() if route == "moment" else prod_f_uvt(f="exp"), 4)
    mu, nu = _random_measure(4, 3, 106), _random_measure(3, 3, 107)
    outer = PotentialKernel(PotentialKernel(k4, [mu]), [nu])
    flat = PotentialKernel(k4, [mu, nu])
    assert outer.base is k4 and outer.arity == 2
    assert [m is n for m, n in zip(outer.measures, [mu, nu])] == [True, True]
    stack = np.stack([sample_sphere(3, 5, seed).points for seed in range(3)])
    for pts in (stack[0], stack):
        for nested, plain in zip(energy_mod._bind(outer, pts), energy_mod._bind(flat, pts)):
            assert np.array_equal(nested(pts), plain(pts))
    assert (energy_mod._route(k4, [mu, nu, mu, mu]) is None) == (route == "dense")


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
