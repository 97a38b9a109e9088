"""Mixture polynomials, convexity probes, and mean bounds.

Sliding from a measure mu toward nu along (1-t) mu + t nu turns the
energy into a degree-n polynomial in t whose coefficients are the mixed
energies.  Conditionally positive definite kernels make this polynomial
convex; the kernel (t-uv)+(u-vt)+(v-tu) shows how badly convexity can
fail at the uniform measure even though the uniform measure is still the
minimizer.
"""
import numpy as np

from multipot import (
    DiscreteMeasure,
    PotentialKernel,
    basis_vector,
    convexity_probe,
    inequality_suite,
    mixture_polynomial,
    quad_a,
    s100,
    uniform_surrogate,
    uvt,
)

d = 3
sigma = uniform_surrogate(d, 20_000, seed=0)
delta = DiscreteMeasure.dirac(basis_vector(0, d))

print("=== mixing the uniform surrogate with a point mass under s100 ===")
g = mixture_polynomial(s100(), sigma, delta)
print("  mixed-energy coefficients:", np.round(g.coefficients, 4))
print("  closed form of the segment:  g(t) = 3 t^2 (1-t) (d-1)/d")
for t in (0.25, 0.5, 0.75):
    ref = 3 * t**2 * (1 - t) * (d - 1) / d
    print(f"    t={t}:  g = {g(t):+.4f}   closed form {ref:+.4f}   "
          f"chord {(1 - t) * g(0.0) + t * g(1.0):+.4f}")

probe = convexity_probe(s100(), sigma, delta)
print(f"  convex on [0,1]: {probe.convex_on_unit_interval} "
      f"(worst chord violation {probe.chord_margin:+.4f} at t = {probe.violation_t:.3f})")

print("\n=== derivative identities between the n-input and 2-input mixtures ===")
rng = np.random.default_rng(1)
for kernel, n in ((uvt(), 3), (quad_a(0.7, shift=True), 3)):
    atoms = rng.standard_normal((3, d))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.random(3)
    mu = DiscreteMeasure(atoms, w / w.sum())
    atoms2 = rng.standard_normal((4, d))
    atoms2 /= np.linalg.norm(atoms2, axis=1, keepdims=True)
    w2 = rng.random(4)
    nu = DiscreteMeasure(atoms2, w2 / w2.sum())
    rep = convexity_probe(kernel, mu, nu)
    # h: the mixture of the two-input (n-2)-fold potential of mu
    h = mixture_polynomial(PotentialKernel(kernel, [mu] * (n - 2)), mu, nu)
    print(f"  {kernel.name:8s} h'(0) = {h.derivative1_at_zero():+.6f}  "
          f"(2/n) g'(0) = {(2 / n) * rep.g_prime_0:+.6f}   "
          f"h''(0) = {h.derivative2_at_zero():+.6f}  "
          f"2/(n(n-1)) g''(0) = {(2 / (n * (n - 1))) * rep.g_double_prime_0:+.6f}")

print("\n=== mean bounds on mixed energies ===")
for kernel, label in ((uvt(), "uvt (positive definite: AM, GM and lower bound)"),
                      (quad_a(1.0), "quad_a(a=1) (conditionally PD: AM + diagonal)"),
                      (s100(), "s100 (not conditionally PD: AM violations expected)")):
    rep = inequality_suite(kernel, d, trials=400, seed=2)
    gm = "n/a" if rep.gm_worst is None else f"{rep.gm_worst:+.2e}"
    print(f"  {label}")
    print(f"      worst residuals: AM {rep.am_worst:+.2e}  GM {gm}  "
          f"lower {rep.lower_worst:+.2e}  diagonal {rep.diagonal_worst:+.2e}")
    print(f"      AM violations: {rep.am_violations}/400")
