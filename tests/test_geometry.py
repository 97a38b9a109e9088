"""Sphere geometry, atomic measures and CSV interchange."""
import re
import tracemalloc

import numpy as np
import pytest

from multipot import (
    DegenerateRetraction,
    DiscreteMeasure,
    PointConfiguration,
    basis_vector,
    combine,
    gram,
    mix,
    project_tangent,
    random_rotation,
    read_measure_csv,
    read_points_csv,
    retract,
    sample_sphere,
    uniform_surrogate,
    unit_vector,
    write_measure_csv,
    write_points_csv,
)
from multipot import area2, mc_energy_uniform, pin, riesz
from multipot.geometry import _COLUMN_ROWS, _random_directions


class _ZeroFirstRow:
    """Generator stub: constant draws, with a zero first row in the first."""

    def __init__(self):
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        out = np.full(shape, 2.0)
        if len(self.shapes) == 1:
            out[(0,) * (len(shape) - 1)] = 0.0
        return out


@pytest.mark.parametrize("shape", [(3, 2), (2, 2, 3), (3 * _COLUMN_ROWS, 3), (_COLUMN_ROWS, 2, 5)])
def test_random_directions_redraws_zero_rows(shape):
    rng = _ZeroFirstRow()
    pts = _random_directions(rng, shape)
    assert rng.shapes == [shape, (1, shape[-1])]
    np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("lead", [(3,), (_COLUMN_ROWS - 1,), (_COLUMN_ROWS,), (700, 3)])
def test_random_directions_equal_normalized_draws_bit_for_bit(d, lead):
    # both sides of the row-count switch, and d = 8.. where the reduce stays
    shape = lead + (d,)
    pts = _random_directions(np.random.default_rng(d), shape)
    raw = np.random.default_rng(d).standard_normal(shape)
    expected = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    assert pts.tobytes() == expected.tobytes()


def test_mc_energy_bits_are_fixed():
    # area2 draws two points per tuple and pins the third at e1; chunk i
    # draws from child i of SeedSequence(7)
    est = mc_energy_uniform(area2(), 3, 250_001, 7)
    assert est.value.hex() == "0x1.0048902af5753p-1"
    assert est.stderr.hex() == "0x1.c0e4aa0e97bbbp-11"


@pytest.mark.parametrize("kernel, value, stderr", [
    (pin(area2(), [1.0, 0.0, 0.0]), "0x1.fe83c94821693p-2", "0x1.c0630859e6f35p-11"),
    (riesz(1), "0x1.554033e7ea967p+0", "0x1.edeac41cf5366p-11"),
], ids=["pin(area2)", "riesz(1)"])
def test_mc_energy_bits_of_kernels_drawing_every_point_are_fixed(kernel, value, stderr):
    est = mc_energy_uniform(kernel, 3, 250_001, 7)
    assert est.value.hex() == value
    assert est.stderr.hex() == stderr


def test_sample_sphere_unit_norms():
    config = sample_sphere(3, 1000, 7)
    norms = np.linalg.norm(config.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_sample_sphere_mean_vector_clt_bound():
    m = 100_000
    config = sample_sphere(3, m, 1)
    assert np.linalg.norm(config.points.mean(axis=0)) <= 4.0 / np.sqrt(m)


def test_sample_sphere_mean_vector_bound_across_seeds():
    # the 4/sqrt(M) band is a ~4 sigma bound; it should hold seed after seed
    m = 20_000
    for seed in range(10):
        config = sample_sphere(3, m, seed)
        assert np.linalg.norm(config.points.mean(axis=0)) <= 4.0 / np.sqrt(m)


def test_sample_sphere_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_sphere(1, 5, 0)
    with pytest.raises(ValueError):
        sample_sphere(3, 0, 0)


def test_sample_sphere_reproducible_bitwise():
    a = sample_sphere(4, 200, 42).points
    b = sample_sphere(4, 200, 42).points
    assert np.array_equal(a, b)
    c = sample_sphere(4, 200, 43).points
    assert not np.array_equal(a, c)


def test_uniform_surrogate_is_the_empirical_measure_of_sample_sphere():
    for d, m, seed in [(2, 1, 0), (3, 5000, 4), (9, 300, 7)]:
        got = uniform_surrogate(d, m, seed)
        want = DiscreteMeasure.from_configuration(sample_sphere(d, m, seed))
        assert got.atoms.tobytes() == want.atoms.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        with pytest.raises(ValueError):
            got.atoms[0, 0] = 2.0


def test_uniform_surrogate_holds_its_atoms_once():
    # beyond the measure it returns, a surrogate's build holds at most two
    # doubles per atom at once: its atoms are neither copied nor squared whole
    m = 100_000
    uniform_surrogate(3, m, 1)
    tracemalloc.start()
    try:
        mu = uniform_surrogate(3, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mu.atoms.nbytes + mu.weights.nbytes + 2 * 8 * m, peak


def test_measures_copy_writeable_arrays_and_share_frozen_ones():
    pts = sample_sphere(3, 4, 0).points.copy()
    mu = DiscreteMeasure(pts)
    pts[0] = -pts[0]
    assert not np.array_equal(mu.atoms[0], pts[0])
    nu = DiscreteMeasure(mu.atoms, mu.weights)
    assert nu.atoms is mu.atoms and nu.weights is mu.weights
    assert DiscreteMeasure(mu.atoms[1:]).atoms.base is None     # a view is copied


def test_gram_orthonormal_is_identity():
    pts = np.eye(3)
    assert np.allclose(gram(PointConfiguration(pts)), np.eye(3), atol=1e-15)


def test_gram_repeated_point_is_ones():
    x = sample_sphere(4, 1, 3).points[0]
    config = PointConfiguration(np.stack([x, x]))
    assert np.allclose(gram(config), np.ones((2, 2)), atol=1e-15)


def test_gram_positive_semidefinite():
    config = sample_sphere(3, 25, 9)
    eigs = np.linalg.eigvalsh(gram(config))
    assert eigs[0] >= -1e-10


def test_gram_rotation_invariant():
    config = sample_sphere(4, 15, 11)
    rot = random_rotation(4, 5)
    rotated = PointConfiguration(config.points @ rot.T)
    assert np.max(np.abs(gram(config) - gram(rotated))) <= 1e-10


def test_project_tangent():
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    assert np.allclose(project_tangent(e1, e1), 0.0)
    assert np.allclose(project_tangent(e1, e2), e2)
    rng = np.random.default_rng(2)
    x = sample_sphere(5, 1, 8).points[0]
    g = rng.standard_normal(5)
    assert abs(np.dot(project_tangent(x, g), x)) <= 1e-12
    with pytest.raises(ValueError):
        project_tangent(e1, np.zeros(4))


def test_retract():
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    assert np.allclose(retract(e1, np.zeros(3)), e1)
    expected = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.allclose(retract(e1, e2), expected)
    with pytest.raises(DegenerateRetraction):
        retract(e1, -e1)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (2, 5, 3), (3, 4, 5), (2, 600, 3)])
def test_projection_and_retraction_act_row_by_row_on_stacks(shape):
    # each row of a (..., d) stack gets the bits it gets alone; the largest
    # stack takes the column-sum path of the row norms.  The projection adds
    # its products in column order, as the descent does, where a BLAS dot
    # (g @ x) may fuse them and differ in the last bit
    rng = np.random.default_rng(len(shape) * shape[-1])
    x = rng.standard_normal(shape)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    g, v = rng.standard_normal(shape), 0.3 * rng.standard_normal(shape)
    rows = [r.reshape(-1, shape[-1]) for r in (x, g, v)]
    tangent = project_tangent(x, g)
    moved = retract(x, v)
    assert tangent.shape == moved.shape == shape
    for xr, gr, vr, tr, mr in zip(*rows, tangent.reshape(-1, shape[-1]),
                                  moved.reshape(-1, shape[-1])):
        assert tr.tolist() == (gr - sum((gr * xr).tolist()) * xr).tolist()
        assert np.allclose(tr, gr - (gr @ xr) * xr, rtol=0.0, atol=1e-15)
        assert mr.tolist() == ((xr + vr) / np.linalg.norm(xr + vr, axis=-1,
                                                          keepdims=True)).tolist()
    assert np.max(np.abs(np.add.reduce(tangent * x, -1))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(moved, axis=-1) - 1.0)) <= 1e-15
    # x broadcasts against a block of steps, as in the descent's line search
    assert np.array_equal(retract(x[None], np.stack([v, 2 * v])),
                          np.stack([moved, retract(x, 2 * v)]))
    v.reshape(-1, shape[-1])[-1] = -x.reshape(-1, shape[-1])[-1]
    with pytest.raises(DegenerateRetraction):
        retract(x, v)


def test_unit_vector_validation():
    with pytest.raises(ValueError):
        unit_vector([1.0, 1.0])
    with pytest.raises(ValueError):
        unit_vector([1.0])
    v = unit_vector([0.0, 1.0])
    assert v.shape == (2,)


def test_off_sphere_input_is_named_by_worst_row():
    # every constructor and the potential share one check; its message names
    # the worst |norm - 1| and its row, and a NaN norm fails it
    from multipot import potential, s011

    mu = DiscreteMeasure(np.eye(3))
    pts = np.eye(3)
    pts[1] *= 1.5
    pts[2] *= 1.25
    tuples = np.stack([np.eye(3)[:2], np.eye(3)[:2], np.eye(3)[1:] * [[1.0], [2.0]]])
    cases = [
        (lambda: unit_vector([0.0, 2.0]), "1.000e+00 at row 0"),
        (lambda: unit_vector([np.nan, 0.0]), "nan at row 0"),
        (lambda: PointConfiguration(pts), "5.000e-01 at row 1"),
        (lambda: DiscreteMeasure(pts), "5.000e-01 at row 1"),
        (lambda: potential(s011(), [mu], tuples), "1.000e+00 at row 2"),
    ]
    for build, tail in cases:
        message = f"must lie on the unit sphere (tol 1e-12): |norm - 1| = {tail}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_measure_flags():
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    prob = DiscreteMeasure(np.stack([e1, e2]), np.array([0.25, 0.75]))
    assert prob.is_probability and not prob.is_balanced
    bal = combine(DiscreteMeasure.dirac(e1), DiscreteMeasure.dirac(e2), 1.0, -1.0)
    assert bal.is_balanced and not bal.is_probability
    assert bal.total_mass == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[2.0, 0.0, 0.0]]), np.array([1.0]))


def test_mix_endpoints_and_mass():
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    mu = DiscreteMeasure.dirac(e1)
    nu = DiscreteMeasure.dirac(e2)
    at_zero = mix(mu, nu, 0.0)
    assert at_zero.weights[0] == 1.0 and at_zero.weights[1] == 0.0
    half = mix(mu, nu, 0.5)
    assert np.allclose(half.weights, [0.5, 0.5])
    signed = DiscreteMeasure(np.stack([e1, e2]), np.array([2.0, -0.5]))
    t = 0.3
    mixed = mix(signed, nu, t)
    assert mixed.total_mass == pytest.approx((1 - t) * signed.total_mass + t * 1.0)
    with pytest.raises(ValueError):
        mix(mu, nu, 1.5)


def test_mix_dimension_mismatch():
    with pytest.raises(ValueError):
        mix(DiscreteMeasure.dirac(basis_vector(0, 3)),
            DiscreteMeasure.dirac(basis_vector(0, 4)), 0.5)


def test_combine():
    e1, e2, e3 = (basis_vector(i, 3) for i in range(3))
    both = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(e3), 1.0, 1.0)
    assert both.total_mass == pytest.approx(2.0)
    mu = DiscreteMeasure(np.stack([e1, e2]), np.array([0.4, 0.6]))
    cancel = combine(mu, mu, 1.0, -1.0)
    assert cancel.is_balanced
    with pytest.raises(ValueError):
        combine(mu, DiscreteMeasure.dirac(basis_vector(0, 4)), 1.0, 1.0)


def test_csv_roundtrip(tmp_path):
    measure = DiscreteMeasure(sample_sphere(3, 6, 1).points,
                              np.array([0.5, -0.25, 0.1, 0.2, 0.05, 0.4]))
    path = tmp_path / "m.csv"
    write_measure_csv(path, measure)
    back = read_measure_csv(path)
    assert np.array_equal(back.atoms, measure.atoms)
    assert np.array_equal(back.weights, measure.weights)

    config = sample_sphere(4, 5, 2)
    ppath = tmp_path / "p.csv"
    write_points_csv(ppath, config)
    assert np.array_equal(read_points_csv(ppath).points, config.points)


def test_csv_weight_column_optional(tmp_path):
    path = tmp_path / "nw.csv"
    path.write_text("x1,x2\n1.0,0.0\n0.0,1.0\n")
    measure = read_measure_csv(path)
    assert np.allclose(measure.weights, [0.5, 0.5])
    assert measure.is_probability


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,0.0\n")
    with pytest.raises(ValueError):
        read_measure_csv(path)


def test_configuration_immutable():
    config = sample_sphere(3, 4, 0)
    with pytest.raises(ValueError):
        config.points[0, 0] = 2.0


def test_nonfinite_coordinates_rejected():
    e1 = basis_vector(0, 3)
    for bad in (np.nan, np.inf):
        pts = np.stack([e1, np.array([bad, 0.0, 0.0])])
        with pytest.raises(ValueError, match="finite"):
            PointConfiguration(pts)
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(pts, np.array([0.5, 0.5]))
