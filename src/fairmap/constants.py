"""Centralized numerical tolerances and sentinel levels."""

# Total-mass tolerance for stored joint distributions.
MASS_ATOL = 1e-12

# Row-stochasticity tolerance for kernel and apply-mapper rows and targets.
ROW_ATOL = 1e-9

# Distortion level at and above which a transition counts as forbidden.
FORBIDDEN = 1e4

# Weight of the identity-deviation tie-break term added to solver objectives.
TIE_BREAK_WEIGHT = 1e-9

# Solver defaults.
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 50_000
