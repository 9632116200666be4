"""Shared numerical defaults for sampled identity checks."""

# Seed for every pseudo-random sampling protocol.  Fixed so that repeated
# runs of the same check see the same points.
SEED = 0x5EED

# Number of sample points drawn from a chart's sample box.
N_SAMPLES = 25

# Scaled tolerance for "this field is identically zero" decisions.
TOL = 1e-9

# Relative threshold below which an eigenvalue/singular value counts as zero
# when computing ranks: |lam| <= RANK_TOL * (max |lam| + 1).
RANK_TOL = 1e-8

# Integrator default: the classical fixed-step RK4 step size.
DT = 1e-3
