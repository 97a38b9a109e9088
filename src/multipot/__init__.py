"""Multivariate interaction energies on spheres.

Energies whose kernels couple n-tuples of points rather than pairs:
exact discrete and mutual energies of atomic measures, potentials,
Monte-Carlo estimates against the uniform measure, randomized
(conditional) positive-definiteness certification with explicit failure
witnesses, convexity probes along mixture segments, and particle descent
for extremal configurations.
"""

from . import geometry, kernels, energy, certify, optimize
from .geometry import *
from .kernels import *
from .energy import *
from .certify import *
from .optimize import *

__all__ = [*geometry.__all__, *kernels.__all__, *energy.__all__, *certify.__all__,
           *optimize.__all__]

__version__ = "0.1.0"
