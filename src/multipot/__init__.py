"""Multivariate interaction energies on spheres.

Energies whose kernels couple n-tuples of points rather than pairs:
exact discrete and mutual energies of atomic measures, potentials,
Monte-Carlo estimates against the uniform measure, randomized
(conditional) positive-definiteness certification with explicit failure
witnesses, convexity probes along mixture segments, and particle descent
for extremal configurations.
"""

from .geometry import (
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
from .kernels import (
    Kernel,
    area2,
    cpd_shift,
    frame2,
    inner,
    neg_area2,
    neg_vol2,
    parse_kernel,
    pin,
    prod_f_uvt,
    prod_lift,
    quad_a,
    riesz,
    s011,
    s100,
    sum_lift,
    uvt,
    vol2,
)
from .energy import (
    EnergyEstimate,
    MixturePolynomial,
    PotentialKernel,
    discrete_energy,
    mc_energy_uniform,
    mixture_polynomial,
    mutual_energy,
    potential,
)
from .certify import (
    ConstancyReport,
    ConvexityReport,
    InequalityReport,
    PDVerdict,
    Witness,
    convexity_probe,
    inequality_suite,
    npd_test,
    pd_test_2input,
    potential_constancy_check,
    shift_equivalence_battery,
)
from .optimize import (
    DirectionProbe,
    OptimizationTrace,
    OptimizerConfig,
    energy_gradient,
    local_min_probe,
    multistart,
    optimize_discrete,
)

__version__ = "0.1.0"
