"""One sweep over the public surface: every callable name of ``multipot.__all__``
meets each class of bad input that applies to it -- NaN, inf, off-sphere,
wrong dimension, wrong arity, no atoms, a non-integer or too-small count or
seed, and a wrong-type measure, configuration or OptimizerConfig -- and must
raise ValueError or TypeError with a message that names the argument.  A
name without cases is on the exempt list, with its reason.
"""
import numpy as np
import pytest

import multipot
from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    PointConfiguration,
    PotentialKernel,
    area2,
    basis_vector,
    combine,
    convexity_probe,
    cpd_shift,
    discrete_energy,
    energy_gradient,
    gram,
    inequality_suite,
    inner,
    local_min_probe,
    mc_energy_uniform,
    mix,
    mixture_polynomial,
    multistart,
    mutual_energy,
    npd_test,
    optimize_discrete,
    parse_kernel,
    pd_test_2input,
    pin,
    potential,
    potential_constancy_check,
    prod_f_uvt,
    prod_lift,
    project_tangent,
    quad_a,
    random_rotation,
    read_measure_csv,
    read_points_csv,
    retract,
    riesz,
    s011,
    sample_sphere,
    shift_equivalence_battery,
    sum_lift,
    uniform_surrogate,
    unit_vector,
    write_measure_csv,
    write_points_csv,
)

E1, E2 = basis_vector(0, 3), basis_vector(1, 3)
E4 = basis_vector(0, 4)
NAN, INF, OFF = np.array([np.nan, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0]), 2.0 * E1

# Names with no case, and why.
EXEMPT = {
    "DegenerateRetraction": "an exception class; it takes a message",
    "EnergyEstimate": "a result record the energy calls build from checked values",
    "MixturePolynomial": "a result record of mixture_polynomial, whose measures are checked",
    "Witness": "a result record the PD tests build from checked values",
    "PDVerdict": "a result record the PD tests build from checked values",
    "ConvexityReport": "a result record of convexity_probe",
    "ConstancyReport": "a result record of potential_constancy_check",
    "InequalityReport": "a result record of inequality_suite",
    "OptimizationTrace": "a result record of the descents",
    "DirectionProbe": "a result record of local_min_probe",
    "inner": "takes no argument",
    "frame2": "takes no argument",
    "uvt": "takes no argument",
    "vol2": "takes no argument",
    "neg_vol2": "takes no argument",
    "area2": "takes no argument",
    "neg_area2": "takes no argument",
    "s011": "takes no argument",
    "s100": "takes no argument",
}


def _cases(tmp_path):
    """name -> [(label, call, fragment the message must contain)]."""
    mu, nu = uniform_surrogate(3, 5, 1), uniform_surrogate(3, 6, 2)
    mu4 = uniform_surrogate(4, 5, 3)
    empty, signed = DiscreteMeasure(np.empty((0, 3))), DiscreteMeasure(np.stack([E1, E2]), [1.0, -1.0])
    config, config4, cfg = sample_sphere(3, 5, 4), sample_sphere(4, 5, 5), OptimizerConfig(steps=1)
    pinned = pin(area2(), E1)                   # arity 2, dimension 3
    sigma = uniform_surrogate(3, 50, 6)

    def csv(name, rows):
        path = tmp_path / name
        path.write_text("x1,x2,x3\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        return path

    nan_csv, off_csv = csv("nan.csv", [E1, NAN]), csv("off.csv", [E1, OFF])
    unit = "must lie on the unit sphere"
    return {
        "PointConfiguration": [
            ("nan", lambda: PointConfiguration(np.stack([E1, NAN])), "all points must be finite"),
            ("inf", lambda: PointConfiguration(np.stack([E1, INF])), "all points must be finite"),
            ("off-sphere", lambda: PointConfiguration(np.stack([E1, OFF])), f"all points {unit}"),
            ("dimension", lambda: PointConfiguration(np.ones((3, 1))), "all points must have shape"),
            ("one point", lambda: PointConfiguration(E1), "all points must have shape (N, d)"),
            ("no points", lambda: PointConfiguration(np.empty((0, 3))), "at least one point"),
            ("ragged", lambda: PointConfiguration([E1, E4]), "all points must be an array"),
        ],
        "DiscreteMeasure": [
            ("nan", lambda: DiscreteMeasure(np.stack([NAN, E1])), "all atoms must be finite"),
            ("inf", lambda: DiscreteMeasure(np.stack([E1, INF])), "all atoms must be finite"),
            ("off-sphere", lambda: DiscreteMeasure(np.stack([E1, OFF])), f"all atoms {unit}"),
            ("dimension", lambda: DiscreteMeasure(np.ones((2, 1))), "all atoms must have shape"),
            ("nan weight", lambda: DiscreteMeasure(np.stack([E1, E2]), [0.5, np.nan]),
             "weights must be finite"),
            ("weight count", lambda: DiscreteMeasure(np.stack([E1, E2]), [1.0]),
             "atoms and weights must have matching lengths"),
        ],
        "basis_vector": [
            ("non-integer index", lambda: basis_vector(0.5, 3), "basis index i must be an integer"),
            ("negative index", lambda: basis_vector(-1, 3), "need basis index i >= 0"),
            ("index past d", lambda: basis_vector(3, 3), "need basis index i <= 2"),
            ("dimension", lambda: basis_vector(0, 1), "need dimension d >= 2"),
        ],
        "unit_vector": [
            ("nan", lambda: unit_vector(NAN), f"a unit vector must be finite and {unit}"),
            ("inf", lambda: unit_vector(INF), "a unit vector must be finite"),
            ("off-sphere", lambda: unit_vector(OFF), f"a unit vector {unit}"),
            ("dimension", lambda: unit_vector([1.0]), "a unit vector must have shape (d,)"),
            ("two points", lambda: unit_vector(np.eye(3)), "a unit vector must have shape (d,)"),
        ],
        "sample_sphere": [
            ("dimension", lambda: sample_sphere(1, 5, 0), "need dimension d >= 2"),
            ("no points", lambda: sample_sphere(3, 0, 0), "need sample count m >= 1"),
            ("non-integer count", lambda: sample_sphere(3, 2.5, 0), "sample count m must be an integer"),
            ("negative seed", lambda: sample_sphere(3, 5, -1), "need seed >= 0"),
            ("non-integer seed", lambda: sample_sphere(3, 5, 0.5), "seed must be an integer"),
        ],
        "uniform_surrogate": [
            ("dimension", lambda: uniform_surrogate(1.5, 5, 0), "dimension d must be an integer"),
            ("no atoms", lambda: uniform_surrogate(3, 0, 0), "need sample count m >= 1"),
            ("negative seed", lambda: uniform_surrogate(3, 5, -2), "need seed >= 0"),
        ],
        "gram": [
            ("nan", lambda: gram(np.stack([E1, NAN])), "config must be finite"),
            ("off-sphere", lambda: gram(np.stack([E1, OFF])), f"config {unit}"),
            ("one point", lambda: gram(E1), "config must have shape (N, d)"),
        ],
        "project_tangent": [
            ("nan", lambda: project_tangent(E1, NAN), "<g, x> must be finite"),
            ("inf", lambda: project_tangent(E1, INF), "<g, x> must be finite"),
            ("dimension", lambda: project_tangent(E1, np.ones(4)), "g must have the dimension of x"),
        ],
        "retract": [
            ("nan", lambda: retract(E1, NAN), "||x + v|| must be finite"),
            ("inf", lambda: retract(E1, INF), "||x + v|| must be finite"),
            ("dimension", lambda: retract(E1, np.ones(4)), "v must have the dimension of x"),
        ],
        "mix": [
            ("measure type", lambda: mix(mu.atoms, nu, 0.5), "mu must be of type DiscreteMeasure"),
            ("no atoms", lambda: mix(mu, empty, 0.5), "nu has no atoms"),
            ("dimension", lambda: mix(mu, mu4, 0.5), "measures must share a dimension"),
            ("parameter", lambda: mix(mu, nu, 1.5), "mixture parameter t must lie in [0, 1]"),
        ],
        "combine": [
            ("measure type", lambda: combine(mu, config, 1.0, 1.0), "nu must be of type DiscreteMeasure"),
            ("no atoms", lambda: combine(empty, nu, 1.0, 1.0), "mu has no atoms"),
            ("dimension", lambda: combine(mu, mu4, 1.0, 1.0), "measures must share a dimension"),
        ],
        "random_rotation": [
            ("dimension", lambda: random_rotation(1, 0), "need dimension d >= 2"),
            ("non-integer dimension", lambda: random_rotation(2.5, 0), "dimension d must be an integer"),
            ("negative seed", lambda: random_rotation(3, -1), "need seed >= 0"),
        ],
        "read_points_csv": [
            ("nan", lambda: read_points_csv(nan_csv), "all points must be finite"),
            ("off-sphere", lambda: read_points_csv(off_csv), f"all points {unit}"),
        ],
        "read_measure_csv": [
            ("nan", lambda: read_measure_csv(nan_csv), "all atoms must be finite"),
            ("off-sphere", lambda: read_measure_csv(off_csv), f"all atoms {unit}"),
        ],
        "write_points_csv": [
            ("configuration type", lambda: write_points_csv(tmp_path / "w.csv", config.points),
             "config must be of type PointConfiguration"),
        ],
        "write_measure_csv": [
            ("measure type", lambda: write_measure_csv(tmp_path / "w.csv", config),
             "measure must be of type DiscreteMeasure"),
        ],
        "Kernel": [
            ("nan evaluate", lambda: area2().evaluate(np.stack([E1, E2, NAN])), "points must be finite"),
            ("inf evaluate", lambda: area2().evaluate(np.stack([E1, E2, INF])), "points must be finite"),
            ("nan batch", lambda: area2().evaluate_batch(np.stack([E1, E2, NAN])[None]),
             "points must be finite"),
            ("nan gradient", lambda: area2().gradient_batch(np.stack([E1, E2, NAN])[None]),
             "points must be finite"),
            ("nan call", lambda: area2()(E1, E2, NAN), "points must be finite"),
            ("ragged call", lambda: area2()(E1, E1, E4), "points must be an array"),
            ("arity", lambda: area2()(E1, E2), "kernel 'area2' takes 3 points"),
            ("arity batch", lambda: area2().evaluate_batch(np.ones((4, 2, 3))),
             "kernel 'area2' takes 3 points"),
            ("dimension", lambda: pinned(E4, E4), "point dimension 4 does not match dimension 3"),
            ("two tuples", lambda: area2().evaluate(np.stack([np.eye(3)] * 2)),
             "points must have shape (N, d)"),
        ],
        "riesz": [
            ("nan", lambda: riesz(np.nan), "riesz exponent must be positive and finite, got nan"),
            ("inf", lambda: riesz(np.inf), "riesz exponent must be positive and finite, got inf"),
            ("zero", lambda: riesz(0.0), "riesz exponent must be positive and finite, got 0.0"),
        ],
        "prod_f_uvt": [
            ("nan", lambda: prod_f_uvt([np.nan, 1.0]), "finite coefficients, got [nan, 1.0]"),
            ("inf", lambda: prod_f_uvt([np.inf]), "finite coefficients, got [inf]"),
            ("nothing", lambda: prod_f_uvt(), "prod_f_uvt needs polynomial coefficients"),
        ],
        "quad_a": [
            ("nan", lambda: quad_a(np.nan), "quad_a requires a finite a, got nan"),
            ("inf", lambda: quad_a(np.inf), "quad_a requires a finite a, got inf"),
            ("shift type", lambda: quad_a(0.5, shift="no"), "quad_a's shift must be a bool"),
        ],
        "sum_lift": [
            ("arity", lambda: sum_lift(area2(), 3), "need lift arity n (base arity 3) >= 4, got 3"),
            ("non-integer arity", lambda: sum_lift(inner(), 3.5),
             "lift arity n (base arity 2) must be an integer, got 3.5"),
        ],
        "prod_lift": [
            ("arity", lambda: prod_lift(area2(), 2), "need lift arity n (base arity 3) >= 4, got 2"),
            ("non-integer arity", lambda: prod_lift(area2(), 4.5),
             "lift arity n (base arity 3) must be an integer, got 4.5"),
        ],
        "pin": [
            ("nan", lambda: pin(area2(), NAN), f"pins must be finite and {unit}"),
            ("inf", lambda: pin(area2(), INF), "pins must be finite"),
            ("off-sphere", lambda: pin(area2(), OFF), f"pins {unit}"),
            ("dimension", lambda: pin(pin(sum_lift(area2(), 4), E1), E4),
             "point dimension 4 does not match dimension 3 of the pinned points"),
            ("arity", lambda: pin(area2(), np.stack([E1, E2])), "pin count must satisfy"),
        ],
        "cpd_shift": [
            ("nan", lambda: cpd_shift(inner(), NAN), f"the anchor x0 must be finite and {unit}"),
            ("off-sphere", lambda: cpd_shift(inner(), OFF), f"the anchor x0 {unit}"),
            ("dimension", lambda: cpd_shift(pinned, E4), "point dimension 4 does not match dimension 3"),
            ("two anchors", lambda: cpd_shift(inner(), np.stack([E1, E2])),
             "the anchor x0 must have shape (d,)"),
            ("arity", lambda: cpd_shift(area2(), E1), "cpd_shift applies to two-input kernels"),
        ],
        "parse_kernel": [
            ("nan", lambda: parse_kernel("riesz:s=nan"), "riesz exponent must be positive and finite"),
            ("inf", lambda: parse_kernel("quad_a:a=inf"), "quad_a requires a finite a"),
            ("arity", lambda: parse_kernel("sum_lift:base=area2,n=3"), "need lift arity n"),
        ],
        "PotentialKernel": [
            ("measure type", lambda: PotentialKernel(area2(), [mu.atoms]),
             "the measure in slot 0 must be of type DiscreteMeasure"),
            ("no atoms", lambda: PotentialKernel(area2(), [empty]), "the measure in slot 0 has no atoms"),
            ("dimension", lambda: PotentialKernel(pin(sum_lift(area2(), 4), E1), [mu4]),
             "point dimension 4 does not match dimension 3 of the pinned points"),
            ("arity", lambda: PotentialKernel(area2(), [mu, mu]), "1 <= j <= arity - 2"),
        ],
        "discrete_energy": [
            ("configuration type", lambda: discrete_energy(area2(), config.points),
             "config must be of type PointConfiguration"),
            ("dimension", lambda: discrete_energy(pinned, config4),
             "point dimension 4 does not match dimension 3"),
        ],
        "mutual_energy": [
            ("measure type", lambda: mutual_energy(area2(), [mu.atoms] * 3),
             "the measure in slot 0 must be of type DiscreteMeasure"),
            ("no atoms", lambda: mutual_energy(area2(), [mu, empty, mu]), "the measure in slot 1 has no atoms"),
            ("arity", lambda: mutual_energy(area2(), [mu, mu]), "kernel 'area2' has arity 3, got 2 measures"),
            ("dimension", lambda: mutual_energy(pinned, [mu4, mu4]), "point dimension 4 does not match"),
            ("mixed dimensions", lambda: mutual_energy(area2(), [mu, mu, mu4]),
             "measures must share a dimension, got [3, 3, 4]"),
        ],
        "potential": [
            ("nan", lambda: potential(area2(), [mu, mu], NAN), "query points (at) must be finite"),
            ("inf", lambda: potential(area2(), [mu, mu], INF), "query points (at) must be finite"),
            ("off-sphere", lambda: potential(area2(), [mu, mu], OFF), f"query points (at) {unit}"),
            ("dimension", lambda: potential(area2(), [mu, mu], E4),
             "query points (at) must have shape (..., d) and dimension 3"),
            ("query arity", lambda: potential(area2(), [mu], E1),
             "this potential leaves 2 free slots: query points (at) must have shape (Q, 2, d)"),
            ("measure count", lambda: potential(area2(), [mu] * 3, E1),
             "number of integrated slots must be in [1, 2], got 3"),
            ("no atoms", lambda: potential(area2(), [mu, empty], E1), "the measure in slot 1 has no atoms"),
            ("measure type", lambda: potential(area2(), [mu, config], E1),
             "the measure in slot 1 must be of type DiscreteMeasure"),
            ("kernel dimension", lambda: potential(pinned, [mu4], E4), "point dimension 4 does not match"),
        ],
        "mc_energy_uniform": [
            ("dimension", lambda: mc_energy_uniform(area2(), 1, 1000, 0), "need dimension >= 2"),
            ("kernel dimension", lambda: mc_energy_uniform(pinned, 4, 1000, 0),
             "point dimension 4 does not match dimension 3"),
            ("few tuples", lambda: mc_energy_uniform(area2(), 3, 99, 0), "need tuples >= 100"),
            ("non-integer tuples", lambda: mc_energy_uniform(area2(), 3, 1000.5, 0),
             "tuples must be an integer"),
            ("negative seed", lambda: mc_energy_uniform(area2(), 3, 1000, -1), "need seed >= 0"),
            ("non-integer seed", lambda: mc_energy_uniform(area2(), 3, 1000, 1.5), "seed must be an integer"),
        ],
        "mixture_polynomial": [
            ("measure type", lambda: mixture_polynomial(area2(), mu.atoms, nu),
             "mu must be of type DiscreteMeasure"),
            ("no atoms", lambda: mixture_polynomial(area2(), mu, empty), "nu has no atoms"),
            ("signed", lambda: mixture_polynomial(area2(), mu, signed), "probability measures"),
            ("dimension", lambda: mixture_polynomial(area2(), mu, mu4), "measures must share a dimension"),
            ("kernel dimension", lambda: mixture_polynomial(pinned, mu4, mu4),
             "point dimension 4 does not match"),
        ],
        "pd_test_2input": [
            ("arity", lambda: pd_test_2input(area2(), 3), "pd_test_2input expects a two-input kernel"),
            ("dimension", lambda: pd_test_2input(inner(), 1), "need dimension d >= 2"),
            ("kernel dimension", lambda: pd_test_2input(pinned, 4), "point dimension 4 does not match"),
            ("trials", lambda: pd_test_2input(inner(), 3, trials=0), "need trials >= 1"),
            ("set size", lambda: pd_test_2input(inner(), 3, set_size=1.0), "set_size must be an integer"),
            ("negative seed", lambda: pd_test_2input(inner(), 3, seed=-1), "need seed >= 0"),
            ("nan tol", lambda: pd_test_2input(inner(), 3, tol=np.nan), "tol must be finite"),
            ("nan point", lambda: pd_test_2input(inner(), 3, include_points=[E1, NAN]),
             "include_points must be finite"),
            ("off-sphere point", lambda: pd_test_2input(inner(), 3, include_points=[OFF]),
             f"include_points {unit}"),
            ("point dimension", lambda: pd_test_2input(inner(), 4, include_points=[E1]),
             "include_points must have shape (..., d) and dimension 4"),
            ("point count", lambda: pd_test_2input(inner(), 3, set_size=2, include_points=np.eye(3)),
             "include_points has 3 rows, more than set_size 2"),
        ],
        "npd_test": [
            ("arity", lambda: npd_test(inner(), 3), "npd_test expects arity >= 3"),
            ("dimension", lambda: npd_test(s011(), 1), "need dimension d >= 2"),
            ("kernel dimension", lambda: npd_test(pin(sum_lift(inner(), 4), E1), 4),
             "point dimension 4 does not match dimension 3"),
            ("pin trials", lambda: npd_test(s011(), 3, pin_trials=0), "need pin_trials >= 1"),
            ("inner trials", lambda: npd_test(s011(), 3, inner_trials=2.0),
             "inner_trials must be an integer"),
            ("set size", lambda: npd_test(s011(), 3, set_size=1), "need set_size >= 2"),
            ("negative seed", lambda: npd_test(s011(), 3, seed=-3), "need seed >= 0"),
            ("inf tol", lambda: npd_test(s011(), 3, tol=np.inf), "tol must be finite"),
        ],
        "convexity_probe": [
            ("measure type", lambda: convexity_probe(area2(), mu, nu.atoms),
             "nu must be of type DiscreteMeasure"),
            ("no atoms", lambda: convexity_probe(area2(), empty, nu), "mu has no atoms"),
            ("signed", lambda: convexity_probe(area2(), signed, nu), "probability measures"),
            ("grid", lambda: convexity_probe(area2(), mu, nu, grid=1), "need grid >= 2"),
        ],
        "potential_constancy_check": [
            ("nan", lambda: potential_constancy_check(area2(), sigma, np.stack([E1, NAN])),
             "test_points must be finite"),
            ("inf", lambda: potential_constancy_check(area2(), sigma, INF), "test_points must be finite"),
            ("off-sphere", lambda: potential_constancy_check(area2(), sigma, OFF), f"test_points {unit}"),
            ("dimension", lambda: potential_constancy_check(area2(), sigma, E4),
             "test_points must have shape (..., d) and dimension 3"),
            ("no points", lambda: potential_constancy_check(area2(), sigma, []),
             "need at least one test point"),
            ("measure type", lambda: potential_constancy_check(area2(), config, E1),
             "mu must be of type DiscreteMeasure"),
            ("no atoms", lambda: potential_constancy_check(area2(), empty, E1), "mu has no atoms"),
        ],
        "inequality_suite": [
            ("dimension", lambda: inequality_suite(area2(), 1), "need dimension d >= 2"),
            ("kernel dimension", lambda: inequality_suite(pinned, 4, trials=1),
             "point dimension 4 does not match"),
            ("trials", lambda: inequality_suite(area2(), 3, trials=0), "need trials >= 1"),
            ("negative seed", lambda: inequality_suite(area2(), 3, trials=1, seed=-1), "need seed >= 0"),
            ("arity", lambda: inequality_suite(sum_lift(inner(), 8), 3), "arity 8: a trial's"),
        ],
        "shift_equivalence_battery": [
            ("arity", lambda: shift_equivalence_battery(area2(), 3), "applies to two-input kernels"),
            ("dimension", lambda: shift_equivalence_battery(inner(), 1), "need dimension d >= 2"),
            ("kernel dimension", lambda: shift_equivalence_battery(pinned, 4),
             "point dimension 4 does not match"),
            ("trials", lambda: shift_equivalence_battery(inner(), 3, trials=0.5), "trials must be an integer"),
            ("set size", lambda: shift_equivalence_battery(inner(), 3, set_size=1), "need set_size >= 2"),
            ("negative seed", lambda: shift_equivalence_battery(inner(), 3, seed=-1), "need seed >= 0"),
        ],
        "OptimizerConfig": [
            ("steps", lambda: OptimizerConfig(steps=-1), "need steps >= 0"),
            ("non-integer steps", lambda: OptimizerConfig(steps=2.5), "steps must be an integer"),
            ("negative seed", lambda: OptimizerConfig(seed=-1), "need seed >= 0"),
            ("non-integer seed", lambda: OptimizerConfig(seed=0.5), "seed must be an integer"),
            ("maximize type", lambda: OptimizerConfig(maximize="no"), "maximize must be a bool"),
            ("nan step", lambda: OptimizerConfig(step_size=np.nan), "step size must be positive and finite"),
            ("inf step", lambda: OptimizerConfig(step_size=np.inf), "step size must be positive and finite"),
            ("nan tolerance", lambda: OptimizerConfig(stop_tol=np.nan), "stop tolerance must be nonnegative"),
        ],
        "energy_gradient": [
            ("configuration type", lambda: energy_gradient(area2(), config.points, 0),
             "config must be of type PointConfiguration"),
            ("negative index", lambda: energy_gradient(area2(), config, -1), "need point index i >= 0"),
            ("index past N", lambda: energy_gradient(area2(), config, 5), "need point index i <= 4"),
            ("non-integer index", lambda: energy_gradient(area2(), config, 0.5),
             "point index i must be an integer"),
            ("dimension", lambda: energy_gradient(pinned, config4, 0), "point dimension 4 does not match"),
        ],
        "optimize_discrete": [
            ("config type", lambda: optimize_discrete(area2(), 3, 3, None),
             "cfg must be of type OptimizerConfig"),
            ("config type, initial", lambda: optimize_discrete(area2(), 3, 3, {}, initial=np.eye(3)),
             "cfg must be of type OptimizerConfig"),
            ("no points", lambda: optimize_discrete(area2(), 0, 3, cfg), "need n_points >= 1"),
            ("dimension", lambda: optimize_discrete(area2(), 3, 1, cfg), "need dimension d >= 2"),
            ("kernel dimension", lambda: optimize_discrete(pinned, 5, 4, cfg),
             "point dimension 4 does not match"),
            ("nan row", lambda: optimize_discrete(area2(), 2, 3, cfg, initial=np.stack([E1, NAN])),
             "initial row 1 cannot be projected"),
            ("inf row", lambda: optimize_discrete(area2(), 2, 3, cfg, initial=np.stack([INF, E1])),
             "initial row 0 cannot be projected"),
            ("initial shape", lambda: optimize_discrete(area2(), 3, 3, cfg, initial=np.eye(2)),
             "initial configuration must have shape (3, 3)"),
        ],
        "multistart": [
            ("config type", lambda: multistart(area2(), 3, 3, "cfg"), "cfg must be of type OptimizerConfig"),
            ("starts", lambda: multistart(area2(), 3, 3, cfg, starts=0), "need starts >= 1"),
            ("non-integer points", lambda: multistart(area2(), 2.5, 3, cfg), "n_points must be an integer"),
            ("dimension", lambda: multistart(area2(), 3, 1, cfg), "need dimension d >= 2"),
            ("kernel dimension", lambda: multistart(pinned, 3, 4, cfg), "point dimension 4 does not match"),
        ],
        "local_min_probe": [
            ("measure type", lambda: local_min_probe(area2(), mu.atoms, [nu]),
             "mu must be of type DiscreteMeasure"),
            ("no atoms", lambda: local_min_probe(area2(), empty, []), "mu has no atoms"),
            ("signed", lambda: local_min_probe(area2(), signed, []),
             "the base measure mu must be a probability measure"),
            ("direction type", lambda: local_min_probe(area2(), mu, [nu.atoms]),
             "directions must be of type DiscreteMeasure"),
            ("signed direction", lambda: local_min_probe(area2(), mu, [signed]), "probability measures"),
            ("direction dimension", lambda: local_min_probe(area2(), mu, [mu4]),
             "measures must share a dimension"),
        ],
    }


def _public_callables() -> set:
    return {name for name in multipot.__all__ if callable(getattr(multipot, name))}


def test_every_public_callable_is_swept_or_exempt(tmp_path):
    cases = _cases(tmp_path)
    assert not set(cases) & set(EXEMPT)
    assert set(cases) | set(EXEMPT) == _public_callables()
    assert all(cases.values()) and all(EXEMPT.values())


@pytest.mark.parametrize("name", sorted(_public_callables() - set(EXEMPT)))
def test_bad_input_raises_a_named_error(name, tmp_path):
    for label, call, fragment in _cases(tmp_path)[name]:
        try:
            call()
        except (ValueError, TypeError) as exc:
            assert fragment in str(exc), (label, str(exc))
        else:
            pytest.fail(f"{name}, {label}: nothing raised")
