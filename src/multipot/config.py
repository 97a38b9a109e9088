"""Shared numerical tolerances.

Geometric checks, eigenvalue thresholds and Monte-Carlo acceptance bands
read their tolerances from here so that they stay consistent between
modules.
"""

# Absolute tolerance for unit norms, mass balance and other exact geometric
# identities.
GEOMETRIC_TOL = 1e-12

# Scale-relative threshold for calling an eigenvalue negative (multiplied by
# the max-abs entry of the matrix under test).
EIGENVALUE_TOL = 1e-9

# Width of Monte-Carlo acceptance bands, in standard errors.
MC_SIGMA = 4.0
