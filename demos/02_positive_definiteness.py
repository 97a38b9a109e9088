"""Certifying (conditional) n-positive definiteness, and breaking it.

An n-input kernel is positive definite when every pinning of all but two
slots leaves a positive definite two-input kernel.  Passing verdicts are
statistical (sampled pins and point sets); failing verdicts come with an
explicit witness: a signed measure whose energy is negative.

The interesting part: kernels whose energies the uniform measure still
minimizes (or maximizes) can FAIL conditional positive definiteness, so
the two notions genuinely diverge for three and more inputs.
"""
import numpy as np

from multipot import (
    basis_vector,
    frame2,
    inner,
    mutual_energy,
    neg_area2,
    neg_vol2,
    npd_test,
    pin,
    prod_lift,
    quad_a,
    riesz,
    s011,
    s100,
    shift_equivalence_battery,
    sum_lift,
    uvt,
)

print("=== families that pass (statistically) ===")
battery = [
    ("uvt", uvt(), False),
    ("quad_a(a=0.5)+shift", quad_a(0.5, shift=True), False),
    ("sum over pairs of <x,y>  (conditional)", sum_lift(inner(), 3), True),
    ("product over pairs of <x,y>^2", prod_lift(frame2(), 3), False),
]
for label, kernel, conditional in battery:
    verdict = npd_test(kernel, 3, conditional=conditional, pin_trials=6,
                       inner_trials=5, set_size=30, seed=0)
    print(f"  {label:42s} {verdict.outcome:18s} "
          f"min eigenvalue {verdict.min_eigenvalue_seen:+.2e}")

print("\n=== counterexamples with explicit witnesses (conditional mode) ===")
for label, kernel in [("-V^2 (neg. squared volume)", neg_vol2()),
                      ("-A^2 (neg. squared area)", neg_area2()),
                      ("uv+vt+tu", s011()),
                      ("(t-uv)+(u-vt)+(v-tu)", s100())]:
    verdict = npd_test(kernel, 3, conditional=True, pin_trials=3,
                       inner_trials=4, set_size=16, seed=1)
    w = verdict.witness
    recheck = mutual_energy(pin(kernel, np.stack(w.pins)), [w.measure, w.measure]).value
    print(f"  {label:28s} witness energy {w.energy:+.4f} "
          f"(recomputed {recheck:+.4f}, mass {w.measure.total_mass:+.1e}, "
          f"{w.measure.n_atoms} atoms)")

print("\n=== the hand-picked certificates reproduce exactly ===")
from multipot import DiscreteMeasure, combine

e1, e2, e3 = (basis_vector(i, 3) for i in range(3))
dirac = DiscreteMeasure.dirac(e1)
mu = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(-e1), 1.0, -1.0)
print(f"  I_s011(delta_e1, mu, mu)          = "
      f"{mutual_energy(s011(), [dirac, mu, mu]).value:+.12f}   (exactly -1)")
nu = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(e3), 1.0, 1.0)
print(f"  I_negvol2(delta_e1, nu, nu)       = "
      f"{mutual_energy(neg_vol2(), [dirac, nu, nu]).value:+.12f}   (exactly -2)")
nu2 = combine(DiscreteMeasure.dirac(e2), DiscreteMeasure.dirac(-e1), 1.0, 1.0)
print(f"  I_negarea2(delta_e1, nu, nu)      = "
      f"{mutual_energy(neg_area2(), [dirac, nu2, nu2]).value:+.12f}   (exactly -2)")

print("\n=== anchor shift: conditional PD of G == plain PD of shifted G ===")
for label, kernel in [("pinned -V^2", pin(neg_vol2(), e1)),
                      ("-||x-y||^2", -riesz(2.0)),
                      ("<x,y>", inner())]:
    result = shift_equivalence_battery(kernel, 3, trials=10, set_size=12, seed=2)
    print(f"  {label:12s} agreements {result['agreements']}/10, "
          f"disagreements {result['disagreements']}")
