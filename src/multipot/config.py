"""Shared numerical tolerances.

Geometric checks, eigenvalue thresholds and Monte-Carlo acceptance bands
read their tolerances from here so that they stay consistent between
modules.
"""

# Absolute tolerance for unit norms, mass balance and other exact geometric
# identities.
GEOMETRIC_TOL = 1e-12

# Absolute tolerance for two exact evaluations of one value (a recomputed
# energy, a closed form) to agree.
AGREEMENT_TOL = 1e-12

# Absolute tolerance for an identity that holds with bits to spare, such as
# a kernel that is its own anchor shift.
IDENTITY_TOL = 1e-14

# Band within which a residual (mean-bound violation, mixture curvature or
# gap, potential deviation relative to max(1, |mean|)) counts as zero.
RESIDUAL_TOL = 1e-10

# Scale-relative threshold for calling an eigenvalue negative (multiplied by
# the max-abs entry of the matrix under test).
EIGENVALUE_TOL = 1e-9

# Absolute floor for the least eigenvalue a statistical PD pass may report.
EIGENVALUE_FLOOR = -1e-9

# Slack of an optimized energy against a closed-form bound on it.
BOUND_SLACK = 1e-9

# Width of Monte-Carlo acceptance bands, in standard errors.
MC_SIGMA = 4.0

# Width of the potential-constancy band, in the fold estimate's standard
# errors.  That estimate has Student-t tails with certify._FOLDS - 1 = 15
# degrees of freedom, and the check takes the worst of its test points:
# t_15 exceeds 7.46 with probability 1e-6, so over both tails of 50 test
# points (Bonferroni) a constant potential fails at most 1e-4 of its checks.
CONSTANCY_SIGMA = 7.5
