"""Particle descent: gradients, line search, targets, equivariance."""
import hashlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import multipot.energy as energy_mod
import multipot.optimize as optimize_mod

from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    PointConfiguration,
    PotentialKernel,
    area2,
    basis_vector,
    energy_gradient,
    inner,
    local_min_probe,
    multistart,
    neg_area2,
    optimize_discrete,
    pin,
    quad_a,
    random_rotation,
    riesz,
    s011,
    sample_sphere,
    sum_lift,
    uniform_surrogate,
    uvt,
    vol2,
)

E1 = basis_vector(0, 3)


def test_config_validation(capsys):
    # (OptimizerConfig field, bad value, the CLI flag that passes it; None
    # where argparse cannot)
    table = [
        ("step_size", 0.0, ("--lr", "0")),
        ("step_size", -0.5, ("--lr", "-0.5")),
        ("step_size", float("nan"), ("--lr", "nan")),
        ("step_size", float("inf"), ("--lr", "inf")),
        ("stop_tol", float("nan"), ("--stop-tol", "nan")),
        ("stop_tol", -1e-9, ("--stop-tol", "-1e-9")),
        ("steps", -1, ("--steps", "-1")),
        ("steps", 2.5, ("--steps", "2.5")),
        ("steps", True, None),
    ]
    from multipot.cli import main

    for field_name, value, flag in table:
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            OptimizerConfig(**{field_name: value})
        if flag is not None:
            with pytest.raises(SystemExit) as exit_info:
                main(["minimize", "--kernel", "s011", "--n", "2", "--d", "3", *flag])
            assert exit_info.value.code == 64, flag
            assert "iterations_run" not in capsys.readouterr().out


def test_gradient_tangent_and_index_bounds():
    config = sample_sphere(3, 5, 1)
    g = energy_gradient(area2(), config, 2)
    assert abs(np.dot(g, config[2])) <= 1e-12
    with pytest.raises(ValueError):
        energy_gradient(area2(), config, 5)


def test_gradient_analytic_matches_finite_difference():
    rng = np.random.default_rng(2)
    kernels = [area2(), uvt(), vol2(), s011(), quad_a(0.3, shift=True), riesz(2.0)]
    for trial in range(12):
        kernel = kernels[trial % len(kernels)]
        config = sample_sphere(3, 6, int(rng.integers(1 << 30)))
        i = int(rng.integers(6))
        ga = energy_gradient(kernel, config, i, "analytic")
        gf = energy_gradient(kernel, config, i, "finite_difference")
        denom = max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-9)
        assert np.linalg.norm(ga - gf) / denom <= 1e-6


def test_descent_on_potential_kernel():
    # a potential kernel's gradient is its base kernel's, summed over the atoms
    u = PotentialKernel(area2(), [DiscreteMeasure(sample_sphere(3, 5, 7).points, np.full(5, 0.2))])
    config = sample_sphere(3, 4, 8)
    for i in range(4):
        ga = energy_gradient(u, config, i, "analytic")
        gf = energy_gradient(u, config, i, "finite_difference")
        assert np.linalg.norm(ga - gf) <= 1e-6 * max(np.linalg.norm(ga), 1e-9)
    trace = optimize_discrete(u, 4, 3, OptimizerConfig(steps=2))
    assert trace.energies == sorted(trace.energies, reverse=True)


def test_moment_route_matches_tuple_grid():
    # the moment route's energies and gradients (which the optimizer uses)
    # must agree with the dense tuple-grid sum and with finite differences
    # for every polynomial kernel, arity-4 lifts included
    from multipot import energy as energy_mod
    from multipot import sum_lift as slift, prod_lift as plift, inner as inr
    import warnings

    from multipot import prod_f_uvt

    pts = sample_sphere(3, 9, 21).points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = [area2(), uvt(), vol2(), s011(), quad_a(0.7, shift=True),
                slift(inr(), 4), plift(inr(), 4),
                prod_f_uvt([0.0, 0.0, 0.0, 1.0])]   # cubed pair powers
    weights = np.full(pts.shape[0], 1.0 / pts.shape[0])

    def moment_energy(kernel, p):
        slots = [energy_mod._Atoms(p, weights)] * kernel.arity
        return energy_mod._moment_sum(kernel.pair_poly, slots)

    for kernel in bank:
        grid = energy_mod._dense_mutual(kernel, [energy_mod._Atoms(pts, weights)] * kernel.arity)
        assert moment_energy(kernel, pts) == pytest.approx(grid, rel=1e-12, abs=1e-12)
        grad = energy_mod._moment_gradient(kernel.pair_poly, energy_mod._Atoms(pts, weights))
        eps = 1e-6
        for (i, c) in ((0, 0), (4, 2), (8, 1)):
            plus, minus = pts.copy(), pts.copy()
            plus[i, c] += eps
            minus[i, c] -= eps
            fd = (moment_energy(kernel, plus) - moment_energy(kernel, minus)) / (2 * eps)
            assert grad[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_zero_at_coincident_symmetric_point():
    config = PointConfiguration(np.repeat(E1[None, :], 4, axis=0))
    g = energy_gradient(area2(), config, 0)
    assert np.linalg.norm(g) <= 1e-12


def test_riesz_gradient_at_coincident_points_is_analytic_without_warning():
    # a coincident pair contributes no gradient; central differences agree,
    # since ||h||^s is even in h
    config = PointConfiguration(np.stack([E1, E1, basis_vector(1, 3)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = energy_gradient(riesz(0.5), config, 0, "analytic")
    assert np.allclose(g, energy_gradient(riesz(0.5), config, 0, "finite_difference"),
                       rtol=1e-6, atol=1e-9)


def test_riesz_coincidence_rule_reaches_every_kernel_built_from_riesz():
    # one pair 1e-13 apart counts as coincident in every kernel that holds
    # riesz(0.5), scaled or summed, not only in the bare kernel
    near = np.array([1.0, 1e-13, 0.0])
    config = PointConfiguration(np.stack([E1, near / np.linalg.norm(near), basis_vector(1, 3)]))
    bare = energy_gradient(riesz(0.5), config, 0)
    assert np.allclose(energy_gradient(2.0 * riesz(0.5), config, 0), 2 * bare,
                       rtol=1e-12, atol=0)
    plus_inner = energy_gradient(riesz(0.5) + inner(), config, 0)
    assert np.allclose(plus_inner - energy_gradient(inner(), config, 0), bare,
                       rtol=1e-12, atol=0)


def test_minimize_s011_pair_reaches_zero():
    cfg = OptimizerConfig(steps=1500, step_size=0.5, seed=3, stop_tol=1e-12)
    trace = optimize_discrete(s011(), 2, 3, cfg)
    assert trace.final_energy <= 1e-6
    assert trace.final_energy >= -1e-9          # never undershoots the infimum
    gram = trace.final_config.points @ trace.final_config.points.T
    assert gram[0, 1] == pytest.approx(-1.0, abs=1e-3)  # antipodal pair


def test_energies_monotone_and_points_stay_unit():
    cfg = OptimizerConfig(steps=120, step_size=0.5, seed=4)
    trace = optimize_discrete(s011(), 8, 3, cfg)
    energies = np.array(trace.energies)
    assert np.all(np.diff(energies) <= 1e-12)
    norms = np.linalg.norm(trace.final_config.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert len(trace.energies) == trace.iterations_run + 1


def test_maximize_monotone_nondecreasing():
    cfg = OptimizerConfig(steps=120, step_size=0.5, seed=5, maximize=True)
    trace = optimize_discrete(area2(), 10, 3, cfg)
    assert np.all(np.diff(np.array(trace.energies)) >= -1e-12)


def test_maximize_area2_reaches_supremum_region():
    cfg = OptimizerConfig(steps=600, step_size=1.0, seed=6, maximize=True)
    trace = optimize_discrete(area2(), 12, 3, cfg)
    assert trace.final_energy >= 0.45
    assert trace.final_energy <= 0.5 + 1e-9


def test_deterministic_given_seed():
    cfg = OptimizerConfig(steps=60, step_size=0.5, seed=7, maximize=True)
    a = optimize_discrete(area2(), 8, 3, cfg)
    b = optimize_discrete(area2(), 8, 3, cfg)
    assert a.energies == b.energies
    assert np.array_equal(a.final_config.points, b.final_config.points)


def test_rotation_equivariance():
    cfg = OptimizerConfig(steps=150, step_size=0.5, seed=8, maximize=True)
    init = sample_sphere(3, 9, cfg.seed)
    rot = random_rotation(3, 9)
    plain = optimize_discrete(area2(), 9, 3, cfg, initial=init)
    rotated = optimize_discrete(area2(), 9, 3, cfg,
                                initial=PointConfiguration(init.points @ rot.T))
    assert rotated.final_energy == pytest.approx(plain.final_energy, abs=1e-10)
    ga = np.sort(np.linalg.eigvalsh(plain.final_config.points @ plain.final_config.points.T))
    gb = np.sort(np.linalg.eigvalsh(rotated.final_config.points @ rotated.final_config.points.T))
    assert np.allclose(ga, gb, atol=1e-6)


def test_multistart_picks_best():
    cfg = OptimizerConfig(steps=200, step_size=1.0, seed=10, maximize=True)
    best = multistart(vol2(), 12, 3, cfg, starts=3)
    singles = [optimize_discrete(vol2(), 12, 3,
                                 OptimizerConfig(steps=200, step_size=1.0,
                                                 seed=10 + k, maximize=True))
               for k in range(3)]
    assert best.final_energy == pytest.approx(max(s.final_energy for s in singles))
    with pytest.raises(ValueError):
        multistart(vol2(), 4, 3, cfg, starts=0)


def test_optimize_validation():
    cfg = OptimizerConfig()
    with pytest.raises(ValueError):
        optimize_discrete(area2(), 0, 3, cfg)
    with pytest.raises(ValueError):
        optimize_discrete(area2(), 4, 1, cfg)
    with pytest.raises(ValueError):
        optimize_discrete(area2(), 4, 3, cfg, initial=np.eye(3))


def test_local_min_probe_flat_direction():
    mu = uniform_surrogate(3, 200, 11)
    probes = local_min_probe(area2(), mu, [mu])
    assert probes[0].local_min_ok
    assert abs(probes[0].min_gap) <= 1e-12


def test_local_min_probe_s011_nonnegative_profile():
    # the mixture energy is nonnegative for every direction; the gap from
    # the surrogate's own (slightly positive) energy stays within the
    # O(1/M) sampling excess
    mu = uniform_surrogate(3, 2000, 12)
    rng = np.random.default_rng(13)
    directions = []
    for _ in range(5):
        atoms = rng.standard_normal((3, 3))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        w = rng.random(3)
        directions.append(DiscreteMeasure(atoms, w / w.sum()))
    probes = local_min_probe(s011(), mu, directions)
    base = probes[0].mixture(0.0)
    assert 0.0 <= base <= 0.01
    for probe in probes:
        ts = np.linspace(0, 1, 41)
        assert np.min(probe.mixture(ts)) >= -1e-12
        assert probe.min_gap >= -base - 1e-12


def test_local_min_probe_neg_area2_at_surrogate():
    mu = uniform_surrogate(3, 2000, 14)
    rng = np.random.default_rng(15)
    atoms = rng.standard_normal((4, 3))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.random(4)
    nu = DiscreteMeasure(atoms, w / w.sum())
    probes = local_min_probe(neg_area2(), mu, [nu])
    assert probes[0].min_gap >= -0.05       # within surrogate sampling error
    assert probes[0].alpha_residual <= 0.05


def test_local_min_probe_requires_probability():
    mu = uniform_surrogate(3, 50, 16)
    signed = DiscreteMeasure(mu.atoms, mu.weights - 1.0 / 25)
    with pytest.raises(ValueError):
        local_min_probe(area2(), signed, [mu])
    with pytest.raises(ValueError):
        local_min_probe(area2(), mu, [signed])


@pytest.mark.parametrize("kernel", [area2(), vol2()], ids=["area2", "vol2"])
def test_descent_final_energy_matches_dense_sum(kernel):
    # the optimizer's energies come from the moment engine; the dense tuple
    # sum is an independent route to the same value
    cfg = OptimizerConfig(steps=20, step_size=1.0, seed=5, maximize=True, stop_tol=1e-12)
    trace = optimize_discrete(kernel, 40, 3, cfg)
    measure = DiscreteMeasure(trace.final_config.points)
    dense = energy_mod._dense_mutual(kernel, [measure] * 3)
    assert trace.final_energy == pytest.approx(dense, rel=1e-12)


# --- the batched descent -------------------------------------------------------------

# area2 at seed 3: starts 1 and 2 fail their line search near the supremum
# while starts 0 and 3 converge; the Riesz starts run every step.
BATCH_CASES = {
    "area2": (area2(), 12, OptimizerConfig(steps=300, step_size=1.0, seed=3, maximize=True,
                                           stop_tol=1e-9)),
    "vol2": (vol2(), 12, OptimizerConfig(steps=200, step_size=1.0, seed=10, maximize=True)),
    "s011": (s011(), 2, OptimizerConfig(steps=400, step_size=0.5, seed=1, stop_tol=1e-12)),
    "pinned": (pin(vol2(), [0.6, 0.8, 0.0]), 12, OptimizerConfig(steps=100, step_size=0.5,
                                                                   seed=2)),
    "potential": (PotentialKernel(area2(), [uniform_surrogate(3, 50, 1)]), 8,
                  OptimizerConfig(steps=60, step_size=0.5, seed=5, maximize=True)),
    "riesz-dense": (riesz(0.5), 5, OptimizerConfig(steps=40, step_size=0.1, seed=4)),
}


# The scenarios' descents (maximize-area2, maximize-vol2, minimize-s011) over
# seeds 0-3, with the extremal value each approaches and a bound on its steps
# (with a step of at most step_size, which halves on each failed Armijo test,
# they took 297-2,000).
SCENARIO_DESCENTS = {
    "area2": (area2(), 30, OptimizerConfig(steps=2000, step_size=1.0, maximize=True,
                                           stop_tol=1e-9), 0.5, 20),
    "vol2": (vol2(), 30, OptimizerConfig(steps=2000, step_size=1.0, maximize=True,
                                         stop_tol=1e-9), 2 / 9, 20),
    "s011": (s011(), 2, OptimizerConfig(steps=2000, step_size=0.5, stop_tol=1e-12), 0.0, 100),
}


@pytest.mark.parametrize("name", list(SCENARIO_DESCENTS))
def test_scenario_descents_stop_in_tens_of_steps(name):
    kernel, n, cfg, extremum, most_steps = SCENARIO_DESCENTS[name]
    stack = np.stack([sample_sphere(3, n, k).points for k in range(4)])
    for trace in optimize_mod._descend(kernel, stack, cfg):
        assert trace.stop_reason != "steps" and trace.iterations_run <= most_steps
        if name == "s011":
            assert trace.converged and trace.final_energy <= 1e-15
        elif not trace.converged:
            # the line search fails only where no step can improve the energy
            # by more than its rounding
            assert trace.stop_reason == "line_search"
            assert abs(trace.final_energy - extremum) <= 1e-15


def test_spectral_step_falls_back_without_positive_curvature(monkeypatch):
    s = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 2.0], [1e-6, 0.0], [1e6, 0.0]])
    y = np.array([[-1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [1e6, 0.0], [1e-6, 0.0]])
    assert optimize_mod._spectral_step(s, y, 0.3).tolist() == [0.3, 0.3, 10.0, 1e-10, 1e10]
    # minimizing pinned vol2 meets <s,y> <= 0 on the way and still converges
    seen = []
    spectral_step = optimize_mod._spectral_step

    def spy(s, y, fallback):
        steps = spectral_step(s, y, fallback)
        seen.extend(zip(np.add.reduce(s * y, 1).tolist(), steps.tolist()))
        return steps

    monkeypatch.setattr(optimize_mod, "_spectral_step", spy)
    kernel, n, cfg = BATCH_CASES["pinned"]
    stack = np.stack([sample_sphere(3, n, cfg.seed + k).points for k in range(4)])
    traces = optimize_mod._descend(kernel, stack, cfg)
    flat = [step for sy, step in seen if sy <= 0]
    assert flat and all(step == cfg.step_size for step in flat)
    for trace in traces:
        assert trace.converged and np.all(np.diff(trace.energies) <= 0)


def _same_trace(a, b):
    return (a.energies == b.energies
            and np.array_equal(a.final_config.points, b.final_config.points)
            and a.iterations_run == b.iterations_run and a.stop_reason == b.stop_reason)


def _single_runs(kernel, stack, cfg):
    return [optimize_mod._descend(kernel, stack[b:b + 1], cfg)[0] for b in range(len(stack))]


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_multistart_starts_match_single_runs_bit_for_bit(name, monkeypatch):
    kernel, n, cfg = BATCH_CASES[name]
    batches = []
    descend = optimize_mod._descend
    monkeypatch.setattr(optimize_mod, "_descend",
                        lambda *args: batches.append(descend(*args)) or batches[-1])
    best = multistart(kernel, n, 3, cfg, starts=4)
    starts = batches[0]
    singles = [optimize_discrete(kernel, n, 3, replace(cfg, seed=cfg.seed + k)) for k in range(4)]
    assert len(starts) == 4
    for start, single in zip(starts, singles):
        assert _same_trace(start, single)
    pick = max if cfg.maximize else min
    assert best is pick(starts, key=lambda trace: trace.final_energy)


def test_batch_with_an_early_converged_start():
    # an antipodal pair is a critical point of s011: that start stops at
    # once while the other keeps descending until the step limit
    x = sample_sphere(3, 1, 0).points[0]
    stack = np.stack([[x, -x], sample_sphere(3, 2, 1).points])
    cfg = OptimizerConfig(steps=10, step_size=0.5, stop_tol=1e-12)
    traces = optimize_mod._descend(s011(), stack, cfg)
    assert traces[0].stop_reason == "converged" and traces[0].iterations_run == 0
    assert traces[1].stop_reason == "steps" and traces[1].iterations_run == 10
    for trace, single in zip(traces, _single_runs(s011(), stack, cfg)):
        assert _same_trace(trace, single)


def test_batch_with_a_failed_line_search():
    # area2 at seeds 0-3 with a limit of 14 steps: start 0 converges at step
    # 13, start 1 runs out of steps, and starts 2 and 3 fail their line
    # search near the supremum before the limit
    cfg = OptimizerConfig(steps=14, step_size=1.0, maximize=True, stop_tol=1e-9)
    stack = np.stack([sample_sphere(3, 30, k).points for k in range(4)])
    traces = optimize_mod._descend(area2(), stack, cfg)
    assert [(t.stop_reason, t.iterations_run) for t in traces] == [
        ("converged", 13), ("steps", 14), ("line_search", 12), ("line_search", 9)]
    for trace, single in zip(traces, _single_runs(area2(), stack, cfg)):
        assert _same_trace(trace, single)


def test_batch_with_a_coincident_start():
    # the first start has coincident points, where the Riesz gradient is
    # singular; it descends on the kernel's gradient like the second start,
    # with no warning and no finite differences
    pts = sample_sphere(3, 3, 2).points
    stack = np.stack([np.vstack([pts[:2], pts[:1]]), pts])
    cfg = OptimizerConfig(steps=3, step_size=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = optimize_mod._descend(riesz(0.5), stack, cfg)
        singles = _single_runs(riesz(0.5), stack, cfg)
    for trace, single in zip(traces, singles):
        assert _same_trace(trace, single)


def test_riesz_descent_from_coincident_starts_uses_no_finite_differences(monkeypatch):
    calls = []
    fd_point_gradient = optimize_mod._fd_point_gradient
    monkeypatch.setattr(optimize_mod, "_fd_point_gradient",
                        lambda *args: calls.append(args) or fd_point_gradient(*args))
    pts = sample_sphere(3, 4, 5).points
    stack = np.stack([pts[[0, 0, 1, 2]], pts[[3, 3, 3, 1]]])
    traces = optimize_mod._descend(riesz(0.5), stack, OptimizerConfig(steps=20, step_size=0.5))
    assert not calls
    for trace in traces:
        assert trace.energies == sorted(trace.energies, reverse=True)


def test_multistart_makes_no_more_gradient_calls_than_its_longest_start(monkeypatch):
    calls = []
    moment_gradient = energy_mod._moment_gradient
    monkeypatch.setattr(energy_mod, "_moment_gradient",
                        lambda *args: calls.append(args) or moment_gradient(*args))
    kernel, n, cfg = BATCH_CASES["area2"]
    multistart(kernel, n, 3, cfg, starts=4)
    batched = len(calls)
    singles = []
    for k in range(4):
        calls.clear()
        optimize_discrete(kernel, n, 3, replace(cfg, seed=cfg.seed + k))
        singles.append(len(calls))
    assert batched <= max(singles)


# Each start's final energy and a sha256 of every start's energies and final
# points, for a 4-start descent of at most 50 steps at d = 3 (numpy 2.4,
# x86-64).  They pin the spectral step's arithmetic (the per-start sums
# <s,s> and <s,y>, the clip and the fallback), hence how many steps each
# start takes and where it stops, as well as the energy engine's.  A change
# to the step rule, to a contraction's spec, to the order of the moment keys
# or to the order in which monomials and environments are added moves these
# bits.  Most starts converge well before step 50; "anchored" has two that
# run every step and "arity4" three whose line search fails at rounding level.
DESCENT_BITS = {
    "s011": (s011(), 2, OptimizerConfig(steps=50, step_size=0.5, seed=1, stop_tol=1e-12),
             ["0x1.b4c9b56200000p-57", "0x1.02f7764800000p-56", "0x1.0df7bda400000p-56",
              "0x1.0ef18c4000000p-56"],
             "8ba6e412334b6052670aad40c45881514b36d0d90ea348d21ae16abd9bf119d1"),
    "area2": (area2(), 30, OptimizerConfig(steps=50, step_size=1.0, seed=3, maximize=True),
              ["0x1.ffffffffffffap-2", "0x1.ffffffffffffap-2", "0x1.ffffffffffffbp-2",
               "0x1.ffffffffffffap-2"],
              "896ce766ab8a0c54f617b17f89572edab40ad29d0094a024df86e588dda09c4c"),
    "vol2": (vol2(), 30, OptimizerConfig(steps=50, step_size=1.0, seed=10, maximize=True),
             ["0x1.c71c71c71c715p-3", "0x1.c71c71c71c706p-3", "0x1.c71c71c71c710p-3",
              "0x1.c71c71c71c70fp-3"],
             "e436f0a294330771ebfa3590485e7c50580305e29d92635f350bc6f2def6e214"),
    "anchored": (pin(sum_lift(area2(), 4), [0.6, 0.8, 0.0]), 12,
                 OptimizerConfig(steps=50, step_size=0.5, seed=2),
                 ["0x1.6121d4e000000p-27", "0x1.0000000000000p-49", "0x1.ad4d5a0000000p-30",
                  "-0x1.3600000000000p-50"],
                 "7336912df33475f6fac8a003da60e1276aee5dfb6035d73dbb6bee1ad901ac82"),
    "potential": (PotentialKernel(area2(), [uniform_surrogate(3, 50, 1)]), 8,
                  OptimizerConfig(steps=50, step_size=0.5, seed=5, maximize=True),
                  ["0x1.04d90979b2867p-1", "0x1.04d90979b2878p-1", "0x1.04d90979b2855p-1",
                   "0x1.04d90979b287bp-1"],
                  "b17831e87b5ec8e5f976af0de1335ddb64be08a51579a3279f78a3227c490325"),
    # arity 4: every environment is a product of three moment tensors, whose
    # order must not change
    "arity4": (sum_lift(area2(), 4), 6, OptimizerConfig(steps=50, step_size=0.5, seed=4,
                                                        maximize=True),
               ["0x1.ffffffffffffep+0", "0x1.ffffffffffffdp+0", "0x1.ffffffffffffdp+0",
                "0x1.ffffffffffffdp+0"],
               "bdcbaeca1c612d51ee6fdd1f79000af12fcd5137e59db01b2c73efb6ad8c0c9d"),
}


@pytest.mark.parametrize("name", list(DESCENT_BITS))
def test_descent_bits_are_fixed(name):
    kernel, n, cfg, finals, digest = DESCENT_BITS[name]
    stack = np.stack([sample_sphere(3, n, cfg.seed + k).points for k in range(4)])
    traces = optimize_mod._descend(kernel, stack, cfg)
    sha = hashlib.sha256()
    for trace in traces:
        sha.update(np.asarray(trace.energies).tobytes())
        sha.update(np.ascontiguousarray(trace.final_config.points).tobytes())
    assert [trace.final_energy.hex() for trace in traces] == finals
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("name", [*DESCENT_BITS, "riesz"])
def test_bound_engine_matches_the_unbound_path(name):
    # an engine bound once, then called on stacks of other lengths, gives the
    # bits of a fresh route, layout and program per call
    kernel, n = (riesz(0.5), 5) if name == "riesz" else DESCENT_BITS[name][:2]
    stack = np.stack([sample_sphere(3, n, 40 + k).points for k in range(4)])
    energy, gradient = energy_mod._bind(kernel, stack[:2])
    for pts in (stack[:1], stack):
        assert np.array_equal(energy(pts), energy_mod._points_energy(kernel, pts))
        assert np.array_equal(gradient(pts), energy_mod._points_gradient(kernel, pts))
    if name != "riesz":     # the others take the moment route
        base, fixed = ((kernel.base, kernel.measures) if isinstance(kernel, PotentialKernel)
                       else (kernel, []))
        slot = energy_mod._Atoms(stack, np.full(n, 1.0 / n))
        assert np.array_equal(energy(stack), energy_mod._moment_sum(
            base.pair_poly, fixed + [slot] * kernel.arity))
        assert np.array_equal(gradient(stack),
                              energy_mod._moment_gradient(base.pair_poly, slot, fixed))


def test_multistart_of_a_cancelled_polynomial():
    kernel = area2() + (-1.0) * area2()
    trace = multistart(kernel, 5, 3, OptimizerConfig(steps=3), starts=3)
    assert trace.energies == [0.0] and trace.converged


@pytest.mark.parametrize("row, scaled", [([1e200, 1e200, 0.0], [1.0, 1.0, 0.0]),
                                         ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0])])
def test_initial_rows_at_the_edges_of_the_float_range(row, scaled):
    # a row whose squared norm overflows or underflows is scaled by its
    # largest |entry| first, without a warning; rows of ordinary size keep
    # the bits of plain normalization
    initial = 3.0 * np.array(sample_sphere(3, 3, 0).points)
    initial[1] = row
    cfg = OptimizerConfig(steps=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = optimize_discrete(area2(), 3, 3, cfg, initial=initial)
    initial[1] = scaled
    plain = optimize_mod._descend(area2(), optimize_mod._renormalize(initial)[None], cfg)[0]
    assert _same_trace(trace, plain)


@pytest.mark.parametrize("row", [np.zeros(3), np.array([np.nan, 0.0, 1.0])])
def test_initial_rows_that_cannot_be_projected(row):
    # rejected by name before the division that would warn
    initial = np.array(sample_sphere(3, 3, 0).points)
    initial[1] = row
    with pytest.raises(ValueError, match="initial row 1 cannot be projected"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize_discrete(area2(), 3, 3, OptimizerConfig(steps=2), initial=initial)
