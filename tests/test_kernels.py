"""Kernel catalog, lifting constructions, pinning and the CLI grammar."""
import itertools
import math
import re
import warnings

import numpy as np
import pytest

import multipot.kernels as kernels_mod
from multipot import (
    OptimizerConfig,
    PointConfiguration,
    PotentialKernel,
    area2,
    basis_vector,
    cpd_shift,
    discrete_energy,
    energy_gradient,
    frame2,
    inequality_suite,
    inner,
    mc_energy_uniform,
    mutual_energy,
    neg_area2,
    neg_vol2,
    npd_test,
    optimize_discrete,
    parse_kernel,
    pd_test_2input,
    pin,
    potential,
    prod_f_uvt,
    prod_lift,
    quad_a,
    random_rotation,
    riesz,
    s011,
    s100,
    sample_sphere,
    sum_lift,
    uniform_surrogate,
    uvt,
    vol2,
)
from multipot.kernels import KERNEL_REGISTRY, PairPolynomial, _grid
from multipot.geometry import _random_directions
from oracles import (grid_values_by_coordinates, lift_fn, pin_fn, product_fn, scaled_fn, shift_fn,
                     sum_fn)

E1, E2, E3 = (basis_vector(i, 3) for i in range(3))


def test_catalog_values():
    assert vol2()(E1, E2, E3) == pytest.approx(1.0, abs=1e-15)
    assert area2()(E1, E2, E3) == pytest.approx(0.75, abs=1e-15)
    assert s011()(E1, E1, E1) == pytest.approx(3.0, abs=1e-15)
    x, y = sample_sphere(3, 2, 1).points
    assert vol2()(x, x, y) == pytest.approx(0.0, abs=1e-14)
    assert inner()(E1, E2) == 0.0
    assert frame2()(x, y) == pytest.approx((x @ y) ** 2, abs=1e-15)
    assert riesz(1.0)(E1, E2) == pytest.approx(np.sqrt(2.0))
    assert riesz(3.0)(E1, -E1) == pytest.approx(8.0)


def test_s100_and_quad_values():
    x, y, z = sample_sphere(3, 3, 2).points
    u, v, t = x @ y, y @ z, z @ x
    assert s100()(x, y, z) == pytest.approx((t - u * v) + (u - v * t) + (v - t * u))
    a = 0.7
    assert quad_a(a)(x, y, z) == pytest.approx(u * u + v * v + t * t - a * u * v * t)
    assert quad_a(a, shift=True)(x, y, z) == pytest.approx(
        u * u + v * v + t * t - a * u * v * t + 1.0 / (1.0 - a))


def test_quad_a_shift_at_one_rejected():
    with pytest.raises(ValueError):
        quad_a(1.0, shift=True)
    quad_a(1.0)  # shiftless form stays valid


def test_riesz_requires_positive_exponent():
    with pytest.raises(ValueError):
        riesz(0.0)


def test_non_finite_scalar_factors_are_rejected():
    # (the product, the value its message names); a float on the left goes
    # through __rmul__.  A finite factor, 0 included, still builds a kernel.
    nan, inf = float("nan"), float("inf")
    table = [
        (lambda: nan * area2(), "nan"),
        (lambda: area2() * nan, "nan"),
        (lambda: inf * riesz(0.5), "inf"),
        (lambda: riesz(0.5) * inf, "inf"),
        (lambda: -inf * vol2(), "-inf"),
        (lambda: -inf * (riesz(0.5) + inner()), "-inf"),
    ]
    for product, value in table:
        with pytest.raises(ValueError, match=re.escape(f"got {value}") + "$"):
            product()
    assert (0.0 * area2())(E1, E2, E3) == 0.0
    assert (2.0 * riesz(1.0))(E1, E2) == pytest.approx(2.0 * np.sqrt(2.0))


def test_riesz_pair_within_geometric_tol_has_zero_value():
    # the value follows the gradient's coincidence rule: a pair at most 1e-12
    # apart contributes 0, in riesz(0.5) and in every kernel built from it
    near = np.array([1.0, 1e-13, 0.0])
    near /= np.linalg.norm(near)
    assert 0 < np.linalg.norm(near - E1) <= 1e-12
    table = [(riesz(0.5), 0.0), (2.0 * riesz(0.5), 0.0), (riesz(0.5) + inner(), 1.0)]
    for kernel, value in table:
        assert kernel(E1, near) == value
        assert kernel(near, E1) == value
        apart = discrete_energy(kernel, PointConfiguration(np.stack([E1, near, E2]))).value
        together = discrete_energy(kernel, PointConfiguration(np.stack([E1, E1, E2]))).value
        assert apart == pytest.approx(together, rel=1e-12, abs=0)
    assert riesz(0.5)(E1, -E1) == np.sqrt(2.0)


def test_permutation_symmetry():
    pts4 = sample_sphere(3, 4, 3).points
    battery = [
        (vol2(), 3), (area2(), 3), (neg_vol2(), 3), (neg_area2(), 3),
        (s011(), 3), (s100(), 3), (riesz(1.5), 2), (inner(), 2), (frame2(), 2),
        (quad_a(0.3, shift=True), 3), (uvt(), 3), (prod_f_uvt(f="exp"), 3),
        (sum_lift(inner(), 4), 4), (prod_lift(frame2(), 4), 4),
        (pin(sum_lift(inner(), 4), E1), 3),
    ]
    for kernel, n in battery:
        pts = pts4[:n]
        base = kernel.evaluate(pts)
        for perm in itertools.permutations(range(n)):
            assert kernel.evaluate(pts[list(perm)]) == pytest.approx(base, abs=1e-14)


def test_rotation_invariance():
    rot = random_rotation(3, 8)
    pts = sample_sphere(3, 3, 5).points
    for kernel in [vol2(), area2(), s011(), s100(), uvt(), quad_a(-0.5, shift=True),
                   prod_f_uvt(coeffs=[0.0, 1.0, 2.0]), prod_f_uvt(f="exp")]:
        assert kernel.evaluate(pts @ rot.T) == pytest.approx(kernel.evaluate(pts), abs=1e-10)


def test_sum_lift_matches_pair_sum():
    lifted = sum_lift(inner(), 3)
    assert lifted(E1, E1, E1) == pytest.approx(3.0)
    x, y, z = sample_sphere(3, 3, 7).points
    assert lifted(x, y, z) == pytest.approx(x @ y + y @ z + z @ x, abs=1e-14)


def test_lift_arity_preconditions():
    with pytest.raises(ValueError):
        sum_lift(uvt(), 3)          # m == n
    with pytest.raises(ValueError):
        sum_lift(uvt(), 2)          # m > n
    with pytest.raises(ValueError):
        prod_lift(inner(), 2)       # m > n - 1


def test_prod_lift_matches_uvt():
    lifted = prod_lift(inner(), 3)
    for seed in range(5):
        pts = sample_sphere(3, 3, seed).points
        assert lifted.evaluate(pts) == pytest.approx(uvt().evaluate(pts), abs=1e-14)
    assert lifted(E1, E1, E1) == pytest.approx(1.0)


def test_prod_lift_diagonal_power():
    from math import comb
    base = frame2()
    for n in (3, 4):
        lifted = prod_lift(base, n)
        z = sample_sphere(3, 1, n).points[0]
        diag = base(z, z)
        assert lifted.evaluate(np.repeat(z[None, :], n, axis=0)) == pytest.approx(
            diag ** comb(n, 2), abs=1e-12)


def test_prod_lift_warns_for_possibly_negative_base():
    with pytest.warns(UserWarning):
        prod_lift(inner(), 4)       # arity 2 < n-1 and inner can be negative


@pytest.mark.parametrize("base, n", [(frame2(), 3), (prod_f_uvt(f="exp"), 4)],
                         ids=["polynomial", "combination"])
def test_lifts_of_nonnegative_kernels_are_nonnegative(base, n):
    lifts = [sum_lift(base, n), prod_lift(base, n)]
    assert all((lift.pair_poly is None) == (base.pair_poly is None) for lift in lifts)
    assert all(lift.nonnegative for lift in lifts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prod_lift(lifts[0], n + 2)


def test_pair_polynomial_constructor_canonicalises():
    # slots 0, 1 and anchors a (index 2), b (index 3) with <a, b> = 0.8
    a, b = np.array([0.6, 0.8, 0.0]), np.array([0.0, 1.0, 0.0])
    poly = PairPolynomial({
        (((1, 0), 1), ((0, 1), 2)): 2.0,        # unsorted pair, repeated pair
        (((3, 2), 2), ((0, 2), 1)): 1.5,        # anchor-anchor pair
        (((0, 2), 1),): 0.5,                    # equal to the previous once folded
    }, 2, np.stack([a, b]))
    assert list(poly.terms.items()) == [
        ((((0, 1), 3),), 2.0),
        ((((0, 2), 1),), 1.5 * 0.8 ** 2 + 0.5),
    ]


def test_pin_matches_explicit_polynomials():
    # pinned forms worked out by direct expansion of the Gram polynomials
    rng = np.random.default_rng(11)
    pinned_v = pin(neg_vol2(), E1)
    pinned_a = pin(neg_area2(), E1)
    for _ in range(10):
        x, y = sample_sphere(3, 2, int(rng.integers(1 << 30))).points
        u = x @ y
        ref_v = u * u + y[0] ** 2 + x[0] ** 2 - 2 * u * x[0] * y[0] - 1.0
        assert pinned_v(x, y) == pytest.approx(ref_v, abs=1e-14)
        ref_a = (u * u + x[0] ** 2 + y[0] ** 2 + 2 * u + 2 * x[0] + 2 * y[0]
                 - 2 * x[0] * y[0] - 2 * u * x[0] - 2 * u * y[0] - 3.0) / 4.0
        assert pinned_a(x, y) == pytest.approx(ref_a, abs=1e-14)


def test_pin_is_partial_application():
    x, y, z = sample_sphere(3, 3, 13).points
    assert pin(vol2(), z)(x, y) == pytest.approx(vol2()(z, x, y), abs=1e-15)
    assert pin(s011(), E1)(E2, -E1) == pytest.approx(0.0, abs=1e-15)


def test_two_point_pin_of_arity_four_lift():
    # the second pin pairs with the first: their inner product folds into
    # the coefficients
    kernel = sum_lift(frame2(), 4)
    z1, z2, x, y = sample_sphere(3, 4, 47).points
    pinned = pin(kernel, np.stack([z1, z2]))
    assert pinned.pair_poly is not None
    assert pinned(x, y) == pytest.approx(kernel(z1, z2, x, y), abs=1e-14)


def test_pinned_polynomials_combine_with_their_anchors():
    a, b = pin(vol2(), E1), pin(area2(), E2)
    pts = sample_sphere(3, 10, 53).points.reshape(5, 2, 3)
    va, vb, vi = a.evaluate_batch(pts), b.evaluate_batch(pts), inner().evaluate_batch(pts)
    for combined, expected in ((a + b, va + vb), (a * b, va * vb), (a * inner(), va * vi)):
        assert combined.pair_poly is not None
        np.testing.assert_allclose(combined.evaluate_batch(pts), expected, rtol=0.0, atol=1e-14)


def test_pin_count_bounds():
    with pytest.raises(ValueError):
        pin(vol2(), np.stack([E1, E2]))     # would leave one slot
    with pytest.raises(ValueError):
        pin(inner(), E1)                    # two-input kernels cannot be pinned


def _fixed_in_r3():
    """P = pin(sum_lift(riesz(1), 4), e1) and S = cpd_shift(riesz(1), e1), e1 in R^3:
    combinations, since riesz is no pair polynomial; and a measure mu in R^3."""
    p, s = pin(sum_lift(riesz(1.0), 4), E1), cpd_shift(riesz(1.0), E1)
    return p, s, uniform_surrogate(3, 5, 1)


def test_dimension_is_that_of_the_fixed_points():
    catalog = [factory() for name, factory in KERNEL_REGISTRY.items()
               if name not in ("riesz", "prod_f_uvt", "quad_a")]
    catalog += [riesz(0.5), prod_f_uvt(f="exp"), prod_f_uvt(coeffs=[1.0, 2.0]), quad_a(0.5)]
    for kernel in catalog:
        lifts = [sum_lift(kernel, kernel.arity + 1), prod_lift(kernel, kernel.arity + 1)]
        assert [k.dimension for k in (kernel, *lifts)] == [None] * 3
    p, s, mu = _fixed_in_r3()
    nested = PotentialKernel(PotentialKernel(sum_lift(area2(), 5), [mu]), [mu])
    for kernel in (pin(vol2(), E1), p, s, PotentialKernel(area2(), [mu]), nested):
        assert kernel.dimension == 3
    with pytest.raises(AttributeError):
        p.dimension = 4
    e4 = basis_vector(0, 4)
    with pytest.raises(ValueError, match=re.escape("fixes points of dimensions [3, 4]")):
        pin(vol2(), E1) + pin(vol2(), e4)
    with pytest.raises(ValueError, match=re.escape("fixes points of dimensions [3, 4]")):
        p * pin(sum_lift(riesz(1.0), 4), e4)


def test_points_of_another_dimension_are_rejected_on_every_path():
    # every call meets points of R^4 and names both dimensions
    p, s, mu = _fixed_in_r3()
    e4, mu4, config4 = basis_vector(0, 4), uniform_surrogate(4, 5, 2), sample_sphere(4, 6, 3)
    fixed = "point dimension 4 does not match dimension 3 of the fixed points"
    table = [
        (lambda: npd_test(p, 4), fixed),
        (lambda: discrete_energy(p, config4), fixed),
        (lambda: energy_gradient(p, config4, 0), fixed),
        (lambda: optimize_discrete(p, 6, 4, OptimizerConfig(steps=2)), fixed),
        (lambda: mc_energy_uniform(p, 4, 1000, 1), fixed),
        (lambda: inequality_suite(p, 4, trials=2), fixed),
        (lambda: mutual_energy(s, [mu4, mu4]), fixed),
        (lambda: potential(s, [mu4], e4), fixed),
        (lambda: pd_test_2input(s, 4), fixed),
        (lambda: s(e4, e4), fixed),
        (lambda: pin(pin(sum_lift(riesz(1.0), 5), E1), e4), fixed),
        (lambda: pin(PotentialKernel(sum_lift(area2(), 5), [mu]), e4),
         "point dimension 4 does not match dimension 3 of the measures"),
    ]
    for call, tail in table:
        with pytest.raises(ValueError, match=re.escape(tail) + "$"):
            call()


def test_every_builder_lists_view_inputs_in_ascending_order(monkeypatch):
    # pins, lifts, shifts, sums, products and scalings pass every view through
    # kernels._layout, which refuses input slots out of ascending order, so a
    # base's grid axes never need reordering; on combinations (riesz) and on
    # pair polynomials (PairPolynomial.viewed) alike
    builders = {
        "pin": lambda k2, k3: pin(k3, E1), "sum_lift": lambda k2, k3: sum_lift(k2, 3),
        "prod_lift": lambda k2, k3: prod_lift(k2, 3), "cpd_shift": lambda k2, k3: cpd_shift(k2, E1),
        "+": lambda k2, k3: k2 + k2, "*": lambda k2, k3: k2 * k2, "c *": lambda k2, k3: 2.0 * k2,
    }
    views, layout = [], kernels_mod._layout
    monkeypatch.setattr(kernels_mod, "_layout", lambda view, nslots: views.append(
        [v for v in view if isinstance(v, int)]) or layout(view, nslots))
    for k2, k3 in ((riesz(1.0), sum_lift(riesz(1.0), 3)), (inner(), vol2())):
        for name, build in builders.items():
            views.clear()
            build(k2, k3)
            assert views and all(v == sorted(set(v)) for v in views), (name, views)


def test_a_view_out_of_order_is_refused():
    message = "the view [{}] does not list its input slots in ascending order"
    with pytest.raises(ValueError, match=re.escape(message.format("1, 0"))):
        kernels_mod._Combination("swap", 2, "sum", [(1.0, riesz(1.0), [1, 0])])
    with pytest.raises(ValueError, match=re.escape(message.format("point, 2, 0"))):
        area2().pair_poly.viewed([E1, 2, 0], 3)


def test_cpd_shift_identity_for_vanishing_anchor_row():
    # the pinned volume kernel vanishes against its own anchor, so both
    # shift variants reproduce it
    base = pin(neg_vol2(), E1)
    pts = sample_sphere(3, 20, 17).points.reshape(10, 2, 3)
    for variant in ("standard", "zero"):
        shifted = cpd_shift(base, E1, variant=variant)
        assert np.max(np.abs(shifted.evaluate_batch(pts) - base.evaluate_batch(pts))) <= 1e-14


def test_cpd_shift_zero_variant_closed_form():
    # -||x-y||^2 = -2 + 2<x,y>; expanding the shift gives 2<x-e1, y-e1>
    shifted = cpd_shift(-riesz(2.0), E1, variant="zero")
    pts = sample_sphere(3, 12, 19).points.reshape(6, 2, 3)
    ref = 2.0 * np.einsum("qd,qd->q", pts[:, 0, :] - E1, pts[:, 1, :] - E1)
    assert np.max(np.abs(shifted.evaluate_batch(pts) - ref)) <= 1e-12


def test_cpd_shift_zero_variant_requires_nonpositive_diagonal():
    with pytest.raises(ValueError):
        cpd_shift(inner(), E1, variant="zero")   # G(e1,e1) = 1 > 0


def test_diagonal_bound_for_conditionally_pd_kernels():
    rng = np.random.default_rng(23)
    for kernel in [uvt(), quad_a(0.5), quad_a(1.0), sum_lift(inner(), 3)]:
        diag = kernel(E1, E1, E1)
        for _ in range(200):
            pts = sample_sphere(3, 3, int(rng.integers(1 << 30))).points
            assert kernel.evaluate(pts) <= diag + 1e-10


def test_kernel_sum_and_product_closure():
    pts = sample_sphere(3, 3, 29).points
    a, b = vol2(), s011()
    assert (a + b).evaluate(pts) == pytest.approx(a.evaluate(pts) + b.evaluate(pts), abs=1e-14)
    assert (a * b).evaluate(pts) == pytest.approx(a.evaluate(pts) * b.evaluate(pts), abs=1e-14)
    # generic (non-polynomial) operands take the combination route
    c = prod_f_uvt(f="exp")
    assert (a + c).evaluate(pts) == pytest.approx(a.evaluate(pts) + c.evaluate(pts), abs=1e-14)
    assert (a * c).evaluate(pts) == pytest.approx(a.evaluate(pts) * c.evaluate(pts), abs=1e-14)
    assert (-a).evaluate(pts) == pytest.approx(-a.evaluate(pts), abs=1e-15)
    assert (2.0 * a).evaluate(pts) == pytest.approx(2.0 * a.evaluate(pts), abs=1e-15)


def _derived_cases():
    exp = prod_f_uvt(f="exp")
    area_lift = prod_lift(area2(), 4)    # too many terms for one polynomial
    return {
        "pin(exp,e1)": (pin(exp, E1), pin_fn(exp, [E1])),
        "sum_lift(exp,4)": (sum_lift(exp, 4), lift_fn(exp, 4, sum)),
        "prod_lift(exp,4)": (prod_lift(exp, 4), lift_fn(exp, 4, math.prod)),
        "prod_lift(area2,4)": (area_lift, lift_fn(area2(), 4, math.prod)),
        "shift(-riesz1)": (cpd_shift(-riesz(1.0), E1),
                           shift_fn(-riesz(1.0), E1, "standard")),
        "shift0(-riesz1)": (cpd_shift(-riesz(1.0), E1, variant="zero"),
                            shift_fn(-riesz(1.0), E1, "zero")),
        # G(e1, e1) = 1 here, so the standard shift's constant is checked
        "shift(riesz+inner)": (cpd_shift(riesz(1.5) + inner(), E1),
                               shift_fn(riesz(1.5) + inner(), E1, "standard")),
        "riesz+inner": (riesz(1.5) + inner(), sum_fn(riesz(1.5), inner())),
        "riesz*inner": (riesz(1.5) * inner(), product_fn(riesz(1.5), inner())),
        "2.5*riesz": (2.5 * riesz(1.5), scaled_fn(2.5, riesz(1.5))),
    }


@pytest.mark.parametrize("label", list(_derived_cases()))
def test_derived_kernels_match_oracle_and_central_differences(label):
    kernel, oracle = _derived_cases()[label]
    assert kernel.pair_poly is None
    n, h = kernel.arity, 1e-6
    pts = sample_sphere(3, 5 * n, 43).points.reshape(5, n, 3)
    expected = [oracle(*tup) for tup in pts]
    np.testing.assert_allclose(kernel.evaluate_batch(pts), expected, rtol=1e-12, atol=1e-12)
    grad = kernel.gradient_batch(pts)
    assert grad.shape == pts.shape
    for q, tup in enumerate(pts):
        for s, c in itertools.product(range(n), range(3)):
            plus, minus = tup.copy(), tup.copy()
            plus[s, c] += h
            minus[s, c] -= h
            fd = (oracle(*plus) - oracle(*minus)) / (2 * h)
            assert grad[q, s, c] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_exp_kernel_value():
    pts = sample_sphere(3, 3, 31).points
    u, v, t = pts[0] @ pts[1], pts[1] @ pts[2], pts[2] @ pts[0]
    assert prod_f_uvt(f="exp").evaluate(pts) == pytest.approx(np.exp(u * v * t), abs=1e-14)


def test_exp_kernel_grid_matches_coordinates_bitwise():
    # exp(uvt) evaluates a grid from the slot arrays' inner products; a pin
    # and a lift of it take that grid through their views
    exp, rng = prod_f_uvt(f="exp"), np.random.default_rng(17)
    for kernel, d in [(exp, 2), (exp, 3), (exp, 5), (pin(exp, E1), 3), (sum_lift(exp, 4), 3)]:
        leads = [(3, 1), (1, 4), (4,), ()]
        arrays = [_random_directions(rng, leads[s] + (s + 2, d)) for s in range(kernel.arity)]
        got, want = kernel.evaluate_grid(arrays), grid_values_by_coordinates(kernel, arrays)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="takes 3 points"):
        exp.evaluate_grid(arrays[:2])


def test_gradient_grid_matches_each_tuples_gradient_bitwise():
    # a gradient over slot arrays of different sizes, whose leading axes
    # broadcast, is each grid tuple's gradient as a batch of one tuple; views
    # (pins, lifts, shifts) move their base's slot axes, which equal slot
    # arrays of a symmetric kernel would not show
    exp, rng = prod_f_uvt(f="exp"), np.random.default_rng(19)
    for kernel in (area2(), pin(vol2(), E1), riesz(0.5), exp, pin(exp, E1), sum_lift(exp, 4),
                   prod_lift(riesz(1.0), 3), cpd_shift(-riesz(1.0), E1), riesz(1.5) * inner(),
                   PotentialKernel(exp, [uniform_surrogate(3, 5, 1)])):
        n, leads = kernel.arity, [(3, 1), (1, 4), (4,), ()]
        arrays = [_random_directions(rng, leads[s] + (s + 2, 3)) for s in range(n)]
        got, want = kernel.gradient_grid(arrays), kernel.gradient_batch(_grid(arrays))
        assert got.shape == (3, 4) + tuple(s + 2 for s in range(n)) + (n, 3), kernel.name
        assert want.shape == got.shape and got.tobytes() == want.tobytes(), kernel.name


def test_prod_f_uvt_coefficient_checks():
    with pytest.raises(ValueError):
        prod_f_uvt(coeffs=[1.0, -0.5])
    with pytest.raises(ValueError):
        prod_f_uvt()


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        vol2().evaluate(np.stack([E1, E2]))
    with pytest.raises(ValueError):
        inner().evaluate(np.stack([E1, E2, E3]))


def test_parse_kernel_grammar():
    pts = sample_sphere(3, 3, 37).points
    assert parse_kernel("quad_a:a=0.5,shift=true").evaluate(pts) == pytest.approx(
        quad_a(0.5, shift=True).evaluate(pts))
    assert parse_kernel("prod_f_uvt:coeffs=0,1").evaluate(pts) == pytest.approx(
        uvt().evaluate(pts), abs=1e-15)
    assert parse_kernel("prod_f_uvt:exp").evaluate(pts) == pytest.approx(
        np.exp(uvt().evaluate(pts)), abs=1e-14)
    assert parse_kernel("riesz:s=1.5").params["s"] == 1.5
    lifted = parse_kernel("sum_lift:base=inner,n=3")
    assert lifted.arity == 3
    with pytest.raises(ValueError):
        parse_kernel("no-such-kernel")
    with pytest.raises(ValueError):
        parse_kernel("quad_a:bogus=1")
    with pytest.raises(ValueError):
        parse_kernel("sum_lift:base=inner")
    with pytest.raises(ValueError, match="bad parameters for kernel 'riesz'"):
        parse_kernel("sum_lift:base=riesz,n=3")     # lift bases take no parameters


def test_spec_string_round_trips():
    # every form the parser accepts prints as a string it parses back
    specs = [*(name for name in KERNEL_REGISTRY if name not in ("riesz", "prod_f_uvt", "quad_a")),
             "riesz:s=0.5", "riesz:s=1", "quad_a:a=0.5,shift=true", "quad_a:a=-2",
             "prod_f_uvt:coeffs=0,1,0.5", "prod_f_uvt:exp",
             "sum_lift:base=inner,n=3", "sum_lift:base=area2,n=5", "prod_lift:base=frame2,n=4"]
    for spec in specs:
        kernel = parse_kernel(spec)
        printed = kernel.spec_string()
        again = parse_kernel(printed)
        assert again.spec_string() == printed, spec
        pts = sample_sphere(3, kernel.arity, 41).points
        assert again.evaluate(pts) == kernel.evaluate(pts), spec
    assert parse_kernel("sum_lift:base=inner,n=3").spec_string() == "sum_lift:base=inner,n=3"
    assert parse_kernel("prod_f_uvt:exp").spec_string() == "prod_f_uvt:f=exp"
