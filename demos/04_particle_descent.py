"""Finding extremal point configurations by projected gradient descent.

Particles move on the sphere along the (tangent-projected) gradient of
the discrete energy, with a spectral (Barzilai–Borwein) step with a
monotone Armijo safeguard and a retraction back to the sphere.  Thirty
points suffice to reach the measure-level suprema of the squared-area and
squared-volume energies; a single antipodal pair kills the uv+vt+tu energy
entirely.
"""
import numpy as np

from multipot import (
    DiscreteMeasure,
    OptimizerConfig,
    area2,
    local_min_probe,
    multistart,
    neg_area2,
    optimize_discrete,
    s011,
    uniform_surrogate,
    vol2,
)

print("=== maximize the expected squared triangle area, N=30, d=3 ===")
cfg = OptimizerConfig(steps=1500, step_size=1.0, seed=0, maximize=True, stop_tol=1e-10)
trace = multistart(area2(), 30, 3, cfg, starts=4)
print(f"  best of 4 starts: {trace.final_energy:.9f}   (supremum over measures: 0.5)")
print(f"  iterations {trace.iterations_run}, stopped: {trace.stop_reason}")
pts = trace.final_config.points
print(f"  mean vector norm {np.linalg.norm(pts.mean(axis=0)):.2e} "
      f"(extremal configurations are balanced)")
frame_energy = float(np.mean((pts @ pts.T) ** 2))
print(f"  frame energy {frame_energy:.6f} vs tight-frame bound 1/d = {1 / 3:.6f}")

print("\n=== maximize the expected squared volume, N=30, d=3 ===")
trace = multistart(vol2(), 30, 3, cfg, starts=4)
print(f"  best of 4 starts: {trace.final_energy:.9f}   (supremum 2/9 = {2 / 9:.9f})")

print("\n=== minimize uv+vt+tu with two points ===")
cfg_min = OptimizerConfig(steps=1500, step_size=0.5, seed=0, stop_tol=1e-12)
trace = optimize_discrete(s011(), 2, 3, cfg_min)
x, y = trace.final_config.points
print(f"  final energy {trace.final_energy:.2e}  (infimum 0)")
print(f"  <x, y> = {x @ y:+.6f}  (an antipodal pair has zero mean)")

print("\n=== directional local-minimum probe at the uniform surrogate ===")
sigma = uniform_surrogate(3, 2000, seed=3)
rng = np.random.default_rng(4)
directions = []
for _ in range(4):
    atoms = rng.standard_normal((3, 3))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.random(3)
    directions.append(DiscreteMeasure(atoms, w / w.sum()))
probes = local_min_probe(neg_area2(), sigma, directions)
print("  -A^2 at the uniform surrogate (minimization view):")
for i, probe in enumerate(probes):
    print(f"    direction {i}: min gap {probe.min_gap:+.4f} "
          f"(zero within sampling error means no descent direction), "
          f"alpha residual {probe.alpha_residual:+.4f}")
